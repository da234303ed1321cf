#!/bin/sh
# Fails unless the f32 distance kernel's accumulation loop — the 64-byte
# stride loop of metis_vectordb::accumulate, or of squared_l2 should the two
# become one function again — compiles to full 16-byte vectors: no 4- or
# 8-byte loads, at most four subps per 16 floats. The source fixes the order
# of additions, not the width; nothing else notices when the compiler halves
# it.
set -eu
cd "$(dirname "$0")/../.."
if [ "$(uname -m)" != x86_64 ]; then
    echo "kernel-width: skipped, the check reads x86-64 assembly and this is $(uname -m)"
    exit 0
fi
dir=target/codegen
cargo rustc --quiet --release -p metis-vectordb --lib --target-dir "$dir" -- --emit asm
# shellcheck disable=SC2012 # cargo names the file; the newest one is this build's
awk '
    function check(first, last,    i, stride, subps, narrow) {
        for (i = first; i <= last; i++) {
            if (match(line[i], /^\tadd[a-z]*\t\$[0-9]+,/)) {
                split(line[i], part, /[$,]/)
                if (part[2] > 0 && part[2] % 64 == 0) stride = part[2]
            }
            if (line[i] ~ /^\tsubps\t/) subps++
            if (line[i] ~ /^\t(movss|movsd|movlps|movhps)\t/) narrow++
        }
        if (!stride) return
        loops++
        if (narrow || subps * 16 > stride) {
            bad++
            printf "kernel-width: %s: %d subps and %d narrow loads per %d-byte stride:\n", name, subps, narrow, stride
            for (i = first; i <= last; i++) print line[i]
        }
    }
    /^_ZN[^ ]*metis_vectordb[^ ]*(squared_l2|accumulate)[^ ]*:$/ { name = substr($0, 1, length($0) - 1); n = 0; delete at; inside = 1 }
    inside {
        line[++n] = $0
        if ($0 ~ /^\.LBB[0-9_]+:/) at[substr($0, 1, length($0) - 1)] = n
        if ($0 ~ /^\tj[a-z]+\t\.LBB[0-9_]+$/ && ($2 in at)) check(at[$2], n)
        if ($0 ~ /\.cfi_endproc/) inside = 0
    }
    END {
        if (!loops) { print "kernel-width: no 64-byte stride loop found in squared_l2 or accumulate"; exit 1 }
        if (bad) exit 1
        printf "kernel-width: %d accumulation loop(s), all at full vector width\n", loops
    }' "$(ls -t "$dir"/release/deps/metis_vectordb-*.s | head -n 1)"
