#!/usr/bin/env bash
# smoke_link.sh - end-to-end exercise of the cross-TU link pipeline.
#
#   smoke_link.sh <qualcc-binary> <quallink-binary> <qualgen-binary>
#
# Asserts the separate-compilation contract (docs/LINK.md) over real
# binaries: (a) a qualgen --tus split summarized per-TU and linked with
# quallink classifies every position exactly as whole-program qualcc
# --mono over the same TUs, (b) quallink output is byte-identical at -j1
# and -j4 and under reversed summary argument order, (c) identical shared sources are deduplicated (the
# linked summary count drops below the input count), and (d) stale and
# corrupt summaries are rejected with exit 1, not mislinked; a constraint
# budget above 2^32 does not wrap. Wired into
# ctest as cli.smoke_link by tools/CMakeLists.txt.

set -euo pipefail

if [ $# -ne 3 ]; then
    echo "usage: $0 <qualcc> <quallink> <qualgen>" >&2
    exit 2
fi

QUALCC=$1
QUALLINK=$2
QUALGEN=$3
FAILED=0

WORKDIR=$(mktemp -d)
trap 'rm -rf "$WORKDIR"' EXIT

# --- (a) split-vs-whole-program equivalence ------------------------------
"$QUALGEN" --tus 4 --lines 600 --seed 42 --out-dir "$WORKDIR/tus"
TUS=("$WORKDIR"/tus/tu_*.c)
if [ "${#TUS[@]}" -ne 4 ]; then
    echo "FAIL: qualgen --tus 4 did not emit 4 files" >&2
    exit 2
fi

"$QUALCC" --mono --positions --quiet "${TUS[@]}" \
    | sort >"$WORKDIR/whole.pos"
"$QUALCC" --quiet --emit-summary-dir="$WORKDIR/qs" "${TUS[@]}"
QSUMS=("$WORKDIR"/qs/*.qsum)
"$QUALLINK" --positions --quiet "${QSUMS[@]}" | sort >"$WORKDIR/linked.pos"
if ! cmp -s "$WORKDIR/whole.pos" "$WORKDIR/linked.pos"; then
    echo "FAIL: linked positions differ from whole-program qualcc --mono" >&2
    diff "$WORKDIR/whole.pos" "$WORKDIR/linked.pos" | head >&2 || true
    FAILED=1
fi

# --- (b) worker-count and argument-order determinism ---------------------
"$QUALLINK" --positions --stats -j1 "${QSUMS[@]}" \
    >"$WORKDIR/j1.out"
"$QUALLINK" --positions --stats -j4 "${QSUMS[@]}" \
    >"$WORKDIR/j4.out"
if ! cmp -s "$WORKDIR/j1.out" "$WORKDIR/j4.out"; then
    echo "FAIL: quallink output differs between -j1 and -j4" >&2
    diff "$WORKDIR/j1.out" "$WORKDIR/j4.out" | head >&2 || true
    FAILED=1
fi
REVERSED=()
for ((I = ${#QSUMS[@]} - 1; I >= 0; I--)); do
    REVERSED+=("${QSUMS[$I]}")
done
"$QUALLINK" --positions --stats -j4 "${REVERSED[@]}" \
    >"$WORKDIR/rev.out"
if ! cmp -s "$WORKDIR/j1.out" "$WORKDIR/rev.out"; then
    echo "FAIL: quallink output depends on summary argument order" >&2
    FAILED=1
fi

# --- (c) shared-content deduplication ------------------------------------
# Linking the same summary set twice must dedupe by content hash: the info
# line reports 8 inputs collapsing to 4 unique TUs.
"$QUALLINK" "${QSUMS[@]}" "${QSUMS[@]}" >"$WORKDIR/dup.out"
if ! grep -q "linked 8 summaries (4 unique TUs)" "$WORKDIR/dup.out"; then
    echo "FAIL: duplicated inputs were not deduplicated to 4 unique TUs" >&2
    grep "summaries" "$WORKDIR/dup.out" >&2 || true
    FAILED=1
fi

# --- (c2) budgets above 2^32 do not wrap ---------------------------------
# --limit-constraints=2^32+1 once linked under a budget of 1 constraint.
if ! "$QUALLINK" --quiet --limit-constraints=4294967297 "${QSUMS[@]}" \
        >/dev/null 2>"$WORKDIR/budget.err"; then
    echo "FAIL: quallink --limit-constraints=4294967297 did not link" >&2
    cat "$WORKDIR/budget.err" >&2
    FAILED=1
fi

# --- (d) stale and corrupt summaries are rejected ------------------------
cp "${QSUMS[0]}" "$WORKDIR/stale.qsum"
printf '\xff' | dd of="$WORKDIR/stale.qsum" bs=1 seek=4 count=1 \
    conv=notrunc 2>/dev/null
STATUS=0
"$QUALLINK" --quiet "$WORKDIR/stale.qsum" \
    >/dev/null 2>"$WORKDIR/stale.err" || STATUS=$?
if [ "$STATUS" -ne 1 ] || ! grep -q "stale" "$WORKDIR/stale.err"; then
    echo "FAIL: stale summary not rejected (exit $STATUS)" >&2
    cat "$WORKDIR/stale.err" >&2
    FAILED=1
fi

head -c 100 "${QSUMS[0]}" >"$WORKDIR/trunc.qsum"
STATUS=0
"$QUALLINK" --quiet "$WORKDIR/trunc.qsum" >/dev/null 2>/dev/null || STATUS=$?
if [ "$STATUS" -ne 1 ]; then
    echo "FAIL: truncated summary not rejected (exit $STATUS)" >&2
    FAILED=1
fi

exit "$FAILED"
