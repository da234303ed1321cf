#!/bin/sh
# Fails unless two hot loops of metis-vectordb compile to full 16-byte
# vectors. The source fixes their order of additions, not their width;
# nothing else notices when the compiler narrows them.
#
# 1. The f32 distance kernel's accumulation loop — the 64-byte stride loop
#    of metis_vectordb::accumulate, or of squared_l2 should the two become
#    one function again: no 4- or 8-byte loads, at most four subps per 16
#    floats.
# 2. The blocked scatter of the served flat index (SparseFlatIndex::scatter):
#    its innermost multiplying loop takes each posting entry's four i16 codes
#    in one 8-byte load (movq or movsd), widens them with packed ops
#    (cvtdq2ps, never a scalar cvtsi2ss), and adds them times the query value
#    into the block's four lanes with one packed mulps and addps over a
#    16-byte lane load and store, with no 4-byte loads; no loop of the
#    function multiplies or adds in scalar (mulss, addss).
set -eu
cd "$(dirname "$0")/../.."
if [ "$(uname -m)" != x86_64 ]; then
    echo "kernel-width: skipped, the check reads x86-64 assembly and this is $(uname -m)"
    exit 0
fi
dir=target/codegen
cargo rustc --quiet --release -p metis-vectordb --lib --target-dir "$dir" -- --emit asm
# shellcheck disable=SC2012 # cargo names the file; the newest one is this build's
asm=$(ls -t "$dir"/release/deps/metis_vectordb-*.s | head -n 1)
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
    }' "$asm"
awk '
    # A backward branch closes the loop line[first..last]. Count the scalar
    # arithmetic of every loop, and keep the shortest one that multiplies:
    # the loop over posting entries.
    function loop(first, last,    i, mul) {
        for (i = first; i <= last; i++) {
            if (line[i] ~ /^\tmul(ps|ss)\t/) mul++
            if (line[i] ~ /^\t(mulss|addss|cvtsi2ss)\t/) scalar++
        }
        if (mul && (!inner_first || last - first < inner_last - inner_first)) {
            inner_first = first
            inner_last = last
        }
    }
    /^_ZN[^ ]*metis_vectordb[^ ]*SparseFlatIndex7scatter[^ ]*:$/ { name = substr($0, 1, length($0) - 1); n = 0; delete at; inside = 1 }
    inside {
        line[++n] = $0
        if ($0 ~ /^\.LBB[0-9_]+:/) at[substr($0, 1, length($0) - 1)] = n
        if ($0 ~ /^\tj[a-z]+\t\.LBB[0-9_]+$/ && ($2 in at)) loop(at[$2], n)
        if ($0 ~ /\.cfi_endproc/) inside = 0
    }
    END {
        if (!inner_first) { print "kernel-width: no multiplying loop found in SparseFlatIndex::scatter"; exit 1 }
        for (i = inner_first; i <= inner_last; i++) {
            if (line[i] ~ /^\tmulps\t/) mulps++
            if (line[i] ~ /^\taddps\t/) addps++
            if (line[i] ~ /^\tcvtdq2ps\t/) widen++
            if (line[i] ~ /^\t(movq|movsd)\t[^,]*\(.*%xmm[0-9]+$/) codes++
            if (line[i] ~ /^\tmovups\t[^,]*\(.*%xmm[0-9]+$/) lane_load++
            if (line[i] ~ /^\tmovups\t%xmm[0-9]+, .*\(/) lane_store++
            if (line[i] ~ /^\t(movss|movd|movlps|movhps)\t/) narrow++
        }
        if (scalar || mulps != 1 || addps != 1 || !widen || codes != 1 || lane_load != 1 || lane_store != 1 || narrow) {
            printf "kernel-width: %s: per posting entry %d mulps, %d addps, %d cvtdq2ps, %d 8-byte code loads, %d 16-byte lane loads and %d stores, %d 4-byte loads; %d scalar mulss/addss/cvtsi2ss in its loops:\n", name, mulps, addps, widen, codes, lane_load, lane_store, narrow, scalar
            for (i = inner_first; i <= inner_last; i++) print line[i]
            exit 1
        }
        print "kernel-width: the scatter loop widens four codes per movq and cvtdq2ps, and takes them in one mulps and addps"
    }' "$asm"
