#!/usr/bin/env bash
# smoke_counts.sh - counter gate on the Table-2-sized seed-7 program.
#
#   smoke_counts.sh <qualgen-binary> <qualcc-binary>
#
# Runs `qualgen --lines 200000 --seed 7 | qualcc --stats` and fails when
# the solver counters grow past today's values (qualifier vars 622,366,
# constraints 408,668, edge visits 20,113) or when the Table 2 line is not
# exactly `declared 9026, inferred possible-const 29286, total positions
# 37020`. Counters are deterministic, so the bounds hold on any host and
# build type; a change that means to lower them should lower the bounds
# too. Wired into ctest as perf.counts_seed7 by tools/CMakeLists.txt.

set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 <qualgen> <qualcc>" >&2
    exit 2
fi

QUALGEN=$1
QUALCC=$2
FAILED=0

WORKDIR=$(mktemp -d)
trap 'rm -rf "$WORKDIR"' EXIT

"$QUALGEN" --lines 200000 --seed 7 >"$WORKDIR/seed7.c"
"$QUALCC" --stats "$WORKDIR/seed7.c" >"$WORKDIR/stats.txt"

# $1: the stats-table row label, $2: its upper bound.
check_max() {
    local VALUE
    VALUE=$(awk -v L="$1" 'index($0, L) == 1 { print $NF; exit }' \
        "$WORKDIR/stats.txt")
    if [ -z "$VALUE" ]; then
        echo "FAIL: no '$1' row in qualcc --stats" >&2
        FAILED=1
    elif [ "$VALUE" -gt "$2" ]; then
        echo "FAIL: $1 = $VALUE exceeds $2" >&2
        FAILED=1
    fi
}

check_max "qualifier vars" 622366
check_max "constraints" 408668
check_max "edge visits" 20113

TABLE2="declared 9026, inferred possible-const 29286, total positions 37020"
if ! grep -qxF "$TABLE2" "$WORKDIR/stats.txt"; then
    echo "FAIL: Table 2 line is not '$TABLE2':" >&2
    grep '^declared' "$WORKDIR/stats.txt" >&2 || true
    FAILED=1
fi

exit "$FAILED"
