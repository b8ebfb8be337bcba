#!/usr/bin/env bash
# smoke_quals.sh - qualcheck --quals rejects a malformed qualifier spec.
#
#   smoke_quals.sh <qualcheck-binary> <programs-dir>
#
# A spec with more than 64 qualifiers (one lattice bit each), a duplicate
# name or a suffix other than ":neg" must exit 1 with a message naming the
# problem; the largest valid spec (64 names) must still check a program.
# Wired into ctest as cli.qualcheck.bad_quals_spec by tools/CMakeLists.txt.

set -uo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 <qualcheck-binary> <programs-dir>" >&2
    exit 2
fi

QUALCHECK=$1
PROGRAM=$2/id_poly.q
FAILED=0

# $1: spec, $2: text the error message must contain.
expect_rejected() {
    local ERR STATUS=0
    ERR=$("$QUALCHECK" --quals "$1" "$PROGRAM" 2>&1 >/dev/null) || STATUS=$?
    if [ "$STATUS" -ne 1 ]; then
        echo "FAIL: --quals '$1' exited $STATUS, expected 1" >&2
        FAILED=1
    elif ! grep -qF -- "$2" <<<"$ERR"; then
        echo "FAIL: --quals '$1' did not report \"$2\"; stderr: $ERR" >&2
        FAILED=1
    fi
}

SPEC64=const
for I in $(seq 1 63); do
    SPEC64+=",q$I"
done

expect_rejected "$SPEC64,evil" "more than 64 qualifiers"
expect_rejected "const,q1,const" "duplicate qualifier 'const'"
expect_rejected "const:ng,nonzero:negative" "unknown suffix ':ng'"

if ! "$QUALCHECK" --quals "$SPEC64" "$PROGRAM" >/dev/null; then
    echo "FAIL: a 64-qualifier spec was not accepted" >&2
    FAILED=1
fi

exit $FAILED
