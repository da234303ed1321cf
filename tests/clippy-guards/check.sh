#!/bin/sh
# Fails unless clippy reports exactly the (line, lint) pairs tagged `//~` in
# src/lib.rs, i.e. unless every entry of the root clippy.toml still fires.
set -eu
cd "$(dirname "$0")"
want=$(awk -F'//~ ' 'NF > 1 { n = split($2, lint, " "); for (i = 1; i <= n; i++) print NR, lint[i] }' src/lib.rs | sort)
got=$(cargo clippy --quiet --message-format=short --target-dir ../../target/clippy-guards 2>&1 |
    sed -nE 's/^src\/lib\.rs:([0-9]+):[0-9]+: warning: use of a disallowed (method|type) .*/\1 \2s/p' | sort)
if [ "$want" != "$got" ]; then
    printf '%s\n' "clippy-guards: tagged and reported violations differ" "--- tagged" "$want" "--- reported" "$got"
    exit 1
fi
echo "clippy-guards: all $(echo "$want" | wc -l) tagged violations reported, nothing else"
