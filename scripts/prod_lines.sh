#!/bin/sh
# Production line count of the workspace: every `.rs` file under
# `crates/*/src` and `src`, excluding the `crates/bench` harness, with each
# file cut at its first unindented `#[cfg(test)]` so in-file unit tests and
# the test-only items kept beside them do not count.  An indented
# `#[cfg(test)]` (a test-only method or variant inside production code) does
# not cut the file: the production code after it still counts.
# Prints one line per crate and a total.
#
# Usage: scripts/prod_lines.sh [REPO_ROOT]   (default: the script's repo)
set -eu

root=${1:-$(dirname "$0")/..}
cd "$root"

count() {
    # Lines of each file up to (not including) its first unindented
    # `#[cfg(test)]`.
    find "$@" -name '*.rs' -type f -exec awk '
        FNR == 1 { cut = 0 }
        /^#\[cfg\(test\)\]/ { cut = 1 }
        !cut { n++ }
        END { print n + 0 }
    ' {} + | awk '{ s += $1 } END { print s + 0 }'
}

total=0
for dir in crates/*/src src; do
    case $dir in
        crates/bench/*) continue ;;
    esac
    [ -d "$dir" ] || continue
    name=${dir%/src}
    [ "$dir" = src ] && name=root
    lines=$(count "$dir")
    printf '%-22s %6d\n' "$name" "$lines"
    total=$((total + lines))
done
printf '%-22s %6d\n' total "$total"
