#!/usr/bin/env bash
# check_docs.sh - documentation hygiene, wired into ctest as cli.check_docs.
#
#   check_docs.sh <repo-root>
#
# Asserts two invariants that keep the doc set navigable as it grows:
# (1) every file under docs/ is referenced from README.md (the doc index in
# its "Documentation map" section), so no page is orphaned; (2) every
# relative markdown link in README.md and docs/*.md resolves to an existing
# file (anchors stripped; http(s)/mailto links skipped), so renames and
# deletions cannot silently strand readers. It also asserts (3) every
# `--flag` named in README.md and docs/*.md is parsed by some tool: it must
# appear as the string literal "--flag in tools/*.{cpp,h},
# perfbench/*.{cpp,py}, bench/*.cpp or fuzz/*.cpp, so a deleted option
# cannot linger in the docs. A name ending in '-' (`--limit-*`) matches as
# a prefix; ctest's --test-dir is the one flag of another program.

set -u

ROOT=${1:?usage: check_docs.sh <repo-root>}
FAILED=0

# --- (1) every docs/ page is indexed from README.md ----------------------
for DOC in "$ROOT"/docs/*.md; do
    [ -e "$DOC" ] || continue
    NAME="docs/$(basename "$DOC")"
    if ! grep -q "$NAME" "$ROOT/README.md"; then
        echo "FAIL: $NAME is not referenced from README.md" >&2
        FAILED=1
    fi
done

# --- (2) relative markdown links resolve ---------------------------------
for MD in "$ROOT"/README.md "$ROOT"/docs/*.md; do
    [ -e "$MD" ] || continue
    DIR=$(dirname "$MD")
    # Markdown link targets: the (...) of ](...), one per line. Links in
    # these docs never contain spaces or nested parens.
    TARGETS=$(grep -o '](\([^)]*\))' "$MD" | sed 's/^](//; s/)$//') || true
    for T in $TARGETS; do
        T=${T%%#*}                      # Strip the anchor.
        [ -n "$T" ] || continue         # Pure-anchor link.
        case "$T" in
            http://*|https://*|mailto:*) continue ;;
        esac
        if [ ! -e "$DIR/$T" ]; then
            echo "FAIL: ${MD#"$ROOT"/}: broken link '$T'" >&2
            FAILED=1
        fi
    done
done

# --- (3) every documented --flag is parsed by a tool -------------------
SOURCES=()
for F in "$ROOT"/tools/*.cpp "$ROOT"/tools/*.h "$ROOT"/perfbench/*.cpp \
         "$ROOT"/perfbench/*.py "$ROOT"/bench/*.cpp "$ROOT"/fuzz/*.cpp; do
    [ -e "$F" ] && SOURCES+=("$F")
done
FLAGS=$(for MD in "$ROOT"/README.md "$ROOT"/docs/*.md; do
            [ -e "$MD" ] || continue
            grep -oE '(^|[^A-Za-z0-9_-])--[a-z][a-z0-9_-]*' "$MD" \
                | sed -E 's/^[^-]*--/--/'
        done | sort -u)
for FLAG in $FLAGS; do
    case "$FLAG" in
        --test-dir) continue ;;
        *-) PATTERN="\"$FLAG" ;;                  # Prefix: --limit-*.
        *) PATTERN="\"$FLAG([^A-Za-z0-9_-]|\$)" ;;
    esac
    if ! grep -qE -- "$PATTERN" "${SOURCES[@]}"; then
        echo "FAIL: $FLAG is documented but no tool parses \"$FLAG" >&2
        FAILED=1
    fi
done

exit "$FAILED"
