#!/usr/bin/env bash
# Prints the non-test lines of every crate and their total. A file's
# non-test lines are those before its first `#[cfg(test)]` at column 0
# (all of them when it has none); counted over `crates/*/src` and `src`.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
count() {
    find "$1" -name '*.rs' -exec awk '/^#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }' {} + |
        awk '{ s += $1 } END { print s + 0 }'
}
total=0
for dir in crates/*/src src; do
    n=$(count "$dir")
    printf '%-24s %6d\n' "${dir%/src}" "$n"
    total=$((total + n))
done
printf '%-24s %6d\n' total "$total"
