#!/usr/bin/env bash
# Replays every hand-seeded mutant under tests/mutants/<file>/ and records
# which tests each one fails.
#
#   tests/mutants/run.sh [cargo test arguments]     # default: --workspace
#
# Each patch is applied to a scratch copy of the working tree (never to the
# tree itself) and the tests run there with --no-fail-fast. Two tables go
# to stdout, tab-separated: one line per mutant, its name and then every
# failing test as <test binary>::<test path> (or "survived"); then one line
# per failing test, with every mutant it fails on. Logs and the copy stay in
# $MUTANTS_DIR (a fresh temporary directory by default), which has its own
# cargo target directory. A mutant whose run exceeds $MUTANT_TIMEOUT seconds
# (default 1800) is reported as "timeout" beside what had failed by then.
set -euo pipefail

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
work=${MUTANTS_DIR:-$(mktemp -d)}
copy=$work/repo
export CARGO_TARGET_DIR=$work/target
args=("$@")
[ ${#args[@]} -eq 0 ] && args=(--workspace)

rm -rf "$copy"
mkdir -p "$copy"
: >"$work/kills.tsv"
(cd "$root" && git ls-files -z --cached --others --exclude-standard | tar --null -T - -cf -) |
    tar -xmf - -C "$copy" # -m: fresh mtimes, so cargo rebuilds what the copy holds
echo "mutants of $root in $work, cargo test ${args[*]}" >&2
# The unmutated copy must pass, or every mutant would look killed.
(cd "$copy" && cargo test --no-fail-fast "${args[@]}") >"$work/unmutated.log" 2>&1 ||
    { echo "the unmutated tests fail: see $work/unmutated.log" >&2; exit 1; }

for patch in "$root"/tests/mutants/*/*.patch; do
    name=$(basename "$(dirname "$patch")")/$(basename "$patch" .patch)
    target=$(sed -n 's|^+++ b/||p' "$patch")
    [ -f "$copy/$target.orig" ] || cp "$copy/$target" "$copy/$target.orig"
    patch -s -p1 -d "$copy" <"$patch"
    log=$work/${name//\//-}.log
    status=0
    (cd "$copy" && timeout "${MUTANT_TIMEOUT:-1800}" cargo test --no-fail-fast "${args[@]}") \
        >"$log" 2>&1 || status=$?
    cp "$copy/$target.orig" "$copy/$target"
    # Name each failure by its test binary: "Running <src> (<dir>/<bin>-<hash>)"
    # and "Doc-tests <crate>" head each binary's results.
    tests=$(awk '
        /^ *Running / { bin = $NF; sub(/.*\//, "", bin); sub(/-[0-9a-f]+\)$/, "", bin) }
        /^ *Doc-tests / { bin = $2 "-doc" }
        /^test .* \.\.\. FAILED$/ { sub(/^test /, ""); sub(/ \.\.\. FAILED$/, ""); print bin "::" $0 }
    ' "$log" | sort -u)
    [ -z "$tests" ] || sed "s|\$|	$name|" <<<"$tests" >>"$work/kills.tsv"
    failed=$(tr '\n' ' ' <<<"$tests" | sed 's/ *$//')
    if [ "$status" -eq 124 ]; then
        failed="timeout $failed"
    elif [ -z "$failed" ] && [ "$status" -ne 0 ]; then
        failed="error (exit $status, see $log)"
    fi
    echo "$name	${failed:-survived}"
done
echo
sort "$work/kills.tsv" | awk -F'\t' '
    $1 != t { if (t != "") print t "\t" m; t = $1; m = $2; next }
    { m = m " " $2 }
    END { if (t != "") print t "\t" m }'
