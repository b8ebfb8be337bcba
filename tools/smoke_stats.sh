#!/usr/bin/env bash
# smoke_stats.sh - run the --stats path of both CLIs over every example
# program and fail on a crash.
#
#   smoke_stats.sh <qualcheck-binary> <qualcc-binary> <programs-dir>
#
# Qualifier rejections are expected on some examples (exit codes 1-3 mean
# the tool ran and diagnosed the program); anything >= 128 means the tool
# died on a signal and the stats plumbing is broken. Also requires the
# stats table to actually appear on stdout. Wired into ctest as
# cli.smoke_stats by tools/CMakeLists.txt.

set -euo pipefail

if [ $# -ne 3 ]; then
    echo "usage: $0 <qualcheck-binary> <qualcc-binary> <programs-dir>" >&2
    exit 2
fi

QUALCHECK=$1
QUALCC=$2
PROGRAMS=$3
FAILED=0

check_run() {
    # $1: tool name for messages, $2...: command.
    local TOOL=$1
    shift
    local OUT STATUS=0
    OUT=$("$@" 2>/dev/null) || STATUS=$?
    if [ "$STATUS" -ge 128 ] || { [ "$STATUS" -ne 0 ] && [ "$STATUS" -gt 3 ]; }; then
        echo "FAIL: $TOOL exited with status $STATUS: $*" >&2
        FAILED=1
        return
    fi
    # Exit 1 is a front-end error: the solver never ran, so no table is
    # expected. Any other verdict must come with the stats table.
    if [ "$STATUS" -eq 1 ]; then
        return
    fi
    case $OUT in
        *"Solver metric"*) ;;
        *)
            echo "FAIL: $TOOL printed no stats table (status $STATUS): $*" >&2
            FAILED=1
            ;;
    esac
}

FOUND=0
for F in "$PROGRAMS"/*.q; do
    [ -e "$F" ] || continue
    FOUND=1
    check_run qualcheck "$QUALCHECK" --stats "$F"
done
for F in "$PROGRAMS"/*.c; do
    [ -e "$F" ] || continue
    FOUND=1
    check_run qualcc "$QUALCC" --stats "$F"
done

if [ "$FOUND" -eq 0 ]; then
    echo "FAIL: no .q or .c programs found in $PROGRAMS" >&2
    exit 2
fi
exit "$FAILED"
