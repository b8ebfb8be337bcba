#!/usr/bin/env bash
# compare_outputs.sh - byte-compare the user-visible outputs of two builds.
#
#   compare_outputs.sh <base-build> <new-build>
#
# Each argument is a CMake build tree holding tools/{qualcc,qualcheck,
# qualgen,quallink} (Release builds keep the 200k-line run short). Both
# builds run on the same inputs, from the same paths, and every output is
# compared byte for byte:
#   - qualcc --quiet --protos --positions, polymorphic and --mono, and
#     --nonnull --flow-nonnull, per file and over the whole split;
#   - qualcc --stats and qualcheck --stats: solver counters, diagnostics and
#     explanation chains;
#   - the .qsum bytes written by qualcc --emit-summary(-dir), and quallink
#     --positions --stats over the split's summaries.
#   - qualcc's const errors and their explanation chains on an error-heavy
#     program, at the default error cap and at --limit-errors=3, polymorphic
#     and --mono.
# Inputs: examples/programs, fuzz/corpus/{cfront,lambda}, qualgen --lines
# 600, 6000 and 200000 (seed 7), the 6000-line program with 60 appended
# functions that each write through a const pointer (half of them one
# that a shared global made const), and a qualgen --tus 16
# --lines 60000 split (seed 42). Timing-only text (the "solve time (ms)"
# row and the compile/infer seconds) is dropped before comparing; exit
# codes are kept.
#
# Exit 0: no difference. Exit 1: some output differs (a diff excerpt for each
# goes to stderr). Exit 2: usage error.

set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 <base-build> <new-build>" >&2
    exit 2
fi

BASE=$(cd "$1" && pwd)
NEW=$(cd "$2" && pwd)
ROOT=$(cd "$(dirname "$0")/.." && pwd)
for B in "$BASE" "$NEW"; do
    for T in qualcc qualcheck qualgen quallink; do
        if [ ! -x "$B/tools/$T" ]; then
            echo "error: $B/tools/$T not found" >&2
            exit 2
        fi
    done
done

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
mkdir -p "$WORK/in" "$WORK/base" "$WORK/new"
FAILED=0
COMPARED=0

# Drops the wall-clock parts of the tools' output.
untime() {
    sed -E -e '/^solve time \(ms\)/d' \
        -e 's/compile [0-9.]+s, infer [0-9.]+s/compile -s, infer -s/'
}

# same NAME TOOL ARGS...: runs TOOL from both builds (each inside its own
# work directory, so relative output paths match) and compares the
# time-stripped stdout+stderr plus the exit code.
same() {
    local Name=$1 Tool=$2
    shift 2
    local Side Bin Status
    for Side in base new; do
        if [ "$Side" = base ]; then Bin=$BASE; else Bin=$NEW; fi
        Status=0
        (cd "$WORK/$Side" && "$Bin/tools/$Tool" "$@") \
            >"$WORK/$Side/$Name.raw" 2>&1 || Status=$?
        { untime <"$WORK/$Side/$Name.raw"; echo "exit $Status"; } \
            >"$WORK/$Side/$Name.out"
    done
    COMPARED=$((COMPARED + 1))
    if ! cmp -s "$WORK/base/$Name.out" "$WORK/new/$Name.out"; then
        echo "DIFF: $Tool $*" >&2
        diff "$WORK/base/$Name.out" "$WORK/new/$Name.out" | head -20 >&2 ||
            true
        FAILED=1
    fi
}

# same_file NAME: compares a file both builds wrote into their work
# directories (both missing counts as equal).
same_file() {
    if [ -e "$WORK/base/$1" ] || [ -e "$WORK/new/$1" ]; then
        if ! cmp -s "$WORK/base/$1" "$WORK/new/$1"; then
            echo "DIFF: $1" >&2
            FAILED=1
        fi
    fi
}

# --- inputs ---------------------------------------------------------------
# The generator is part of what is compared: both builds must emit the same
# programs, and the base build's copies are the ones analyzed.
for Lines in 600 6000 200000; do
    "$BASE/tools/qualgen" --lines "$Lines" --seed 7 \
        >"$WORK/in/gen_$Lines.c"
    "$NEW/tools/qualgen" --lines "$Lines" --seed 7 >"$WORK/new_gen.c"
    if ! cmp -s "$WORK/in/gen_$Lines.c" "$WORK/new_gen.c"; then
        echo "DIFF: qualgen --lines $Lines --seed 7" >&2
        FAILED=1
    fi
done
"$BASE/tools/qualgen" --tus 16 --lines 60000 --seed 42 \
    --out-dir "$WORK/in/tus" >/dev/null
"$NEW/tools/qualgen" --tus 16 --lines 60000 --seed 42 \
    --out-dir "$WORK/new_tus" >/dev/null
if ! diff -r -q "$WORK/in/tus" "$WORK/new_tus" >/dev/null; then
    echo "DIFF: qualgen --tus 16 --lines 60000 --seed 42" >&2
    FAILED=1
fi

# Error-heavy: every appended function is a const violation to explain,
# half of them through one shared global, so their chains share variables.
cp "$WORK/in/gen_6000.c" "$WORK/in/errors_6000.c"
{
    echo "int *shared_cell;"
    echo "void share(const int *p) { shared_cell = p; }"
    for N in $(seq 0 59); do
        if [ $((N % 2)) = 1 ]; then
            echo "void w$N(void) { int *q = shared_cell; *q = $N; }"
        else
            echo "void v$N(const int *p) { *p = $N; }"
        fi
    done
} >>"$WORK/in/errors_6000.c"

CFILES=("$ROOT"/examples/programs/*.c "$ROOT"/fuzz/corpus/cfront/*
        "$WORK"/in/gen_*.c)
QFILES=("$ROOT"/examples/programs/*.q "$ROOT"/fuzz/corpus/lambda/*)
TUS=("$WORK"/in/tus/tu_*.c)

# --- qualcc, one file at a time -------------------------------------------
I=0
for F in "${CFILES[@]}"; do
    I=$((I + 1))
    same "cc$I.poly" qualcc --quiet --protos --positions "$F"
    same "cc$I.mono" qualcc --quiet --protos --positions --mono "$F"
    same "cc$I.nonnull" qualcc --quiet --nonnull --flow-nonnull "$F"
    same "cc$I.stats" qualcc --stats "$F"
    same "cc$I.stats-mono" qualcc --stats --mono "$F"
    same "cc$I.summary" qualcc --quiet --emit-summary="cc$I.qsum" "$F"
    same_file "cc$I.qsum"
done

# --- explanation chains on the error-heavy program -------------------------
ERRORS="$WORK/in/errors_6000.c"
same errors.poly qualcc "$ERRORS"
same errors.mono qualcc --mono "$ERRORS"
same errors.poly-cap3 qualcc --limit-errors=3 "$ERRORS"
same errors.mono-cap3 qualcc --limit-errors=3 --mono "$ERRORS"

# --- qualcheck ------------------------------------------------------------
I=0
for F in "${QFILES[@]}"; do
    I=$((I + 1))
    same "q$I.poly" qualcheck --stats "$F"
    same "q$I.mono" qualcheck --stats --mono "$F"
done

# --- the 16-TU split: whole program, summaries, link ----------------------
same split.whole qualcc --quiet --protos --positions --mono "${TUS[@]}"
# Polymorphic too: prototypes completed across buffers meet scheme lookups.
same split.whole-poly qualcc --quiet --protos --positions "${TUS[@]}"
same split.summarize qualcc --quiet --emit-summary-dir=qs "${TUS[@]}"
if ! diff -r -q "$WORK/base/qs" "$WORK/new/qs" >&2; then
    echo "DIFF: .qsum files of the 16-TU split" >&2
    FAILED=1
fi
# Each build links its own summaries, listed in a response file.
for Side in base new; do
    (cd "$WORK/$Side" && printf '%s\n' qs/*.qsum >qs.rsp)
done
same split.link quallink --positions --stats @qs.rsp

echo "compare_outputs: $COMPARED tool runs compared"
if [ "$FAILED" -ne 0 ]; then
    echo "compare_outputs: outputs differ" >&2
    exit 1
fi
echo "compare_outputs: no differences"
