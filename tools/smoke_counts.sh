#!/usr/bin/env bash
# smoke_counts.sh - counter gates on deterministic qualgen programs.
#
#   smoke_counts.sh seed7 <qualgen-binary> <qualcc-binary>
#   smoke_counts.sh tu    <qualgen-binary> <qualcc-binary>
#   smoke_counts.sh link  <qualgen-binary> <qualcc-binary> <quallink-binary>
#
# seed7: runs `qualgen --lines 200000 --seed 7 | qualcc --stats` and fails
# when the solver counters grow past today's values (qualifier vars
# 523,829, constraints 262,204, edge visits 20,113) or when the Table 2
# line is not exactly `declared 9026, inferred possible-const 29286, total
# positions 37020`. The vars and constraints are the values once a direct
# call instantiates only the scheme variables it can observe
# (QualScheme::instantiateCall), so the 98,518 parameter-only instance
# variables cannot return.
#
# tu: runs `qualcc --mono --stats` on tu_0000.c of the `qualgen --tus 16
# --lines 60000 --seed 42` split (~9.6k lines, ~5.5k of them prototypes and
# extern declarations) and fails above 13,309 qualifier vars or 7,419
# constraints -- the values once library interfaces and extern cells are
# translated on first use, so declarations a TU never uses cost nothing.
#
# link: summarizes the same split per TU and fails when `quallink --stats`
# over the summaries reports more than 94,752 qualifier vars or 162,792
# constraints -- the values once every summary carries variables only for
# the imports (functions and extern globals) its TU uses and holds only
# its seeds plus canned constraints over them (docs/LINK.md), so neither
# the per-declaration import blow-up nor private constraint components can
# return.
#
# Counters are deterministic, so the bounds hold on any host and build
# type; a change that means to lower them should lower the bounds too.
# Wired into ctest as perf.counts_seed7, perf.tu_counts and perf.link_counts
# by tools/CMakeLists.txt.

set -euo pipefail

usage() {
    echo "usage: $0 seed7 <qualgen> <qualcc>" >&2
    echo "       $0 tu <qualgen> <qualcc>" >&2
    echo "       $0 link <qualgen> <qualcc> <quallink>" >&2
    exit 2
}

[ $# -ge 1 ] || usage
MODE=$1
shift
case "$MODE" in
    seed7 | tu) [ $# -eq 2 ] || usage ;;
    link) [ $# -eq 3 ] || usage ;;
    *) usage ;;
esac

QUALGEN=$1
QUALCC=$2
FAILED=0

WORKDIR=$(mktemp -d)
trap 'rm -rf "$WORKDIR"' EXIT

# $1: the stats-table row label, $2: its upper bound.
check_max() {
    local VALUE
    VALUE=$(awk -v L="$1" 'index($0, L) == 1 { print $NF; exit }' \
        "$WORKDIR/stats.txt")
    if [ -z "$VALUE" ]; then
        echo "FAIL: no '$1' row in --stats" >&2
        FAILED=1
    elif [ "$VALUE" -gt "$2" ]; then
        echo "FAIL: $1 = $VALUE exceeds $2" >&2
        FAILED=1
    fi
}

if [ "$MODE" = tu ]; then
    "$QUALGEN" --tus 16 --lines 60000 --seed 42 --out-dir "$WORKDIR/tus"
    "$QUALCC" --mono --stats "$WORKDIR/tus/tu_0000.c" >"$WORKDIR/stats.txt"
    check_max "qualifier vars" 13309
    check_max "constraints" 7419
    exit "$FAILED"
fi

if [ "$MODE" = link ]; then
    QUALLINK=$3
    "$QUALGEN" --tus 16 --lines 60000 --seed 42 --out-dir "$WORKDIR/tus"
    "$QUALCC" --quiet --emit-summary-dir="$WORKDIR/qs" "$WORKDIR"/tus/tu_*.c \
        >/dev/null
    "$QUALLINK" --stats "$WORKDIR"/qs/*.qsum >"$WORKDIR/stats.txt"
    check_max "qualifier vars" 94752
    check_max "constraints" 162792
    exit "$FAILED"
fi

"$QUALGEN" --lines 200000 --seed 7 >"$WORKDIR/seed7.c"
"$QUALCC" --stats "$WORKDIR/seed7.c" >"$WORKDIR/stats.txt"

check_max "qualifier vars" 523829
check_max "constraints" 262204
check_max "edge visits" 20113

TABLE2="declared 9026, inferred possible-const 29286, total positions 37020"
if ! grep -qxF "$TABLE2" "$WORKDIR/stats.txt"; then
    echo "FAIL: Table 2 line is not '$TABLE2':" >&2
    grep '^declared' "$WORKDIR/stats.txt" >&2 || true
    FAILED=1
fi

exit "$FAILED"
