#!/usr/bin/env bash
# smoke_hardening.sh - hostile inputs through the real tool binaries.
#
#   smoke_hardening.sh <qualcheck-binary> <qualcc-binary>
#
# The crash-free contract (docs/ROBUSTNESS.md) over the shipped CLIs:
# truncated, garbage, and limit-exhausting inputs must end in a rendered
# diagnostic and a clean *nonzero* exit code -- never a signal death
# (SIGSEGV from deep recursion, SIGABRT from an assert, OOM kill). Shell
# exit codes >= 128 mean "killed by signal 128-N", so every case asserts
# code in [1, 127]. Also covers the --limit-* flags end to end and the
# batch driver (-j2) over a hostile corpus. Wired into ctest as
# cli.smoke_hardening by tools/CMakeLists.txt.

set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 <qualcheck> <qualcc>" >&2
    exit 2
fi

QUALCHECK=$1
QUALCC=$2
FAILED=0

WORKDIR=$(mktemp -d)
trap 'rm -rf "$WORKDIR"' EXIT

# run_expect_dirty <label> <cmd...>: the command must fail, but cleanly.
run_expect_dirty() {
    local LABEL=$1
    shift
    local CODE=0
    "$@" > "$WORKDIR/out.txt" 2> "$WORKDIR/err.txt" || CODE=$?
    if [ "$CODE" -eq 0 ]; then
        echo "FAIL: $LABEL: expected a nonzero exit, got 0" >&2
        FAILED=1
    elif [ "$CODE" -ge 128 ]; then
        echo "FAIL: $LABEL: killed by signal $((CODE - 128))" >&2
        FAILED=1
    elif [ ! -s "$WORKDIR/out.txt" ] && [ ! -s "$WORKDIR/err.txt" ]; then
        echo "FAIL: $LABEL: failed silently (no diagnostic)" >&2
        FAILED=1
    else
        echo "ok: $LABEL (exit $CODE)"
    fi
}

# run_expect_clean <label> <cmd...>: the command must succeed.
run_expect_clean() {
    local LABEL=$1
    shift
    if "$@" > /dev/null 2>&1; then
        echo "ok: $LABEL"
    else
        echo "FAIL: $LABEL: expected exit 0, got $?" >&2
        FAILED=1
    fi
}

# --- hostile C inputs ----------------------------------------------------
printf 'int f(int x) { return x +' > "$WORKDIR/truncated.c"
head -c 512 /dev/urandom > "$WORKDIR/garbage.c"
{
    printf 'int f(void) { return '
    printf '(%.0s' $(seq 1 100000)
    printf '1'
    printf ')%.0s' $(seq 1 100000)
    printf '; }\n'
} > "$WORKDIR/deep.c"
printf 'int huge(void) { return 99999999999999999999999999; }\n' \
    > "$WORKDIR/overflow.c"
{
    printf 'void f(void) {\n'
    for I in $(seq 1 200); do
        printf '  undeclared_%d = 1;\n' "$I"
    done
    printf '}\n'
} > "$WORKDIR/flood.c"
printf 'void set(int *p, int v) { *p = v; }\nint get(int *p) { return *p; }\nint rt(int *a, int *b) { set(a, get(b)); return get(a); }\n' \
    > "$WORKDIR/ok.c"

run_expect_dirty "qualcc truncated input"  "$QUALCC" "$WORKDIR/truncated.c"
run_expect_dirty "qualcc binary garbage"   "$QUALCC" "$WORKDIR/garbage.c"
run_expect_dirty "qualcc 100k-deep parens" "$QUALCC" "$WORKDIR/deep.c"
run_expect_dirty "qualcc overflowing literal" "$QUALCC" "$WORKDIR/overflow.c"
run_expect_dirty "qualcc error flood (default cap)" \
    "$QUALCC" "$WORKDIR/flood.c"
run_expect_dirty "qualcc tiny constraint budget" \
    "$QUALCC" --limit-constraints=4 "$WORKDIR/ok.c"
run_expect_dirty "qualcc tiny depth budget" \
    "$QUALCC" --limit-depth=2 "$WORKDIR/ok.c"
run_expect_dirty "qualcc error flood with --limit-errors=0" \
    "$QUALCC" --limit-errors=0 "$WORKDIR/flood.c"
run_expect_clean "qualcc sane program under default limits" \
    "$QUALCC" "$WORKDIR/ok.c"

# The bailout diagnostic must actually be rendered somewhere.
CODE=0
"$QUALCC" "$WORKDIR/deep.c" > "$WORKDIR/out.txt" 2> "$WORKDIR/err.txt" \
    || CODE=$?
if ! grep -q "resource limit" "$WORKDIR/out.txt" "$WORKDIR/err.txt"; then
    echo "FAIL: deep.c did not render a resource-limit diagnostic" >&2
    FAILED=1
fi

# A malformed --limit value is rejected up front.
if "$QUALCC" --limit-depth=banana "$WORKDIR/ok.c" > /dev/null 2>&1; then
    echo "FAIL: --limit-depth=banana was accepted" >&2
    FAILED=1
else
    echo "ok: malformed --limit value rejected"
fi

# Values that do not fit the budget's type are rejected, not wrapped: 2^32
# would read as an unlimited error cap, 2^32+1 as a depth of 1, and the
# arena size would overflow its MiB-to-bytes shift.
for FLAG in --limit-errors=4294967296 --limit-depth=4294967297 \
        --limit-constraints=18446744073709551616 \
        --limit-arena-mb=17592186044416 --limit-errors=-1; do
    CODE=0
    "$QUALCC" "$FLAG" "$WORKDIR/ok.c" > /dev/null 2> "$WORKDIR/err.txt" \
        || CODE=$?
    if [ "$CODE" -eq 0 ] || ! grep -q "wants a number" "$WORKDIR/err.txt"; then
        echo "FAIL: out-of-range $FLAG was not rejected (exit $CODE)" >&2
        FAILED=1
    else
        echo "ok: out-of-range $FLAG rejected"
    fi
done
# A constraint budget above 2^32 is a real (huge) budget, not 1.
run_expect_clean "qualcc --limit-constraints=4294967297" \
    "$QUALCC" --limit-constraints=4294967297 "$WORKDIR/ok.c"
run_expect_clean "qualcc --limit-errors=4294967295" \
    "$QUALCC" --limit-errors=4294967295 "$WORKDIR/ok.c"

# --- hostile lambda inputs -----------------------------------------------
printf 'let x = fn y.' > "$WORKDIR/truncated.q"
head -c 512 /dev/urandom > "$WORKDIR/garbage.q"
{
    printf 'fn x. %.0s' $(seq 1 100000)
    printf 'x\n'
} > "$WORKDIR/deep.q"
printf 'let c = {const} ref 1 in !c ni\n' > "$WORKDIR/ok.q"
printf 'let id = fn x. x in id (ref 1) ni\n' > "$WORKDIR/poly.q"

run_expect_dirty "qualcheck truncated input"    "$QUALCHECK" "$WORKDIR/truncated.q"
run_expect_dirty "qualcheck binary garbage"     "$QUALCHECK" "$WORKDIR/garbage.q"
run_expect_dirty "qualcheck 100k-deep fn chain" "$QUALCHECK" "$WORKDIR/deep.q"
run_expect_dirty "qualcheck tiny constraint budget" \
    "$QUALCHECK" --limit-constraints=2 "$WORKDIR/poly.q"
run_expect_clean "qualcheck sane program under default limits" \
    "$QUALCHECK" "$WORKDIR/ok.q"

# --- batch driver over a hostile corpus ----------------------------------
# Worst per-file exit status must survive the pool, and the pool itself
# must not die on the hostile members.
run_expect_dirty "qualcc --batch -j2 hostile corpus" \
    "$QUALCC" --batch -j2 "$WORKDIR/ok.c" "$WORKDIR/truncated.c" \
    "$WORKDIR/garbage.c" "$WORKDIR/deep.c"
run_expect_dirty "qualcheck -j2 hostile corpus" \
    "$QUALCHECK" -j2 "$WORKDIR/ok.q" "$WORKDIR/truncated.q" \
    "$WORKDIR/garbage.q" "$WORKDIR/deep.q"

if [ "$FAILED" -ne 0 ]; then
    echo "smoke_hardening: FAILED" >&2
    exit 1
fi
echo "smoke_hardening: all hostile inputs handled cleanly"
