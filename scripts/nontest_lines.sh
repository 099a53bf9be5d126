#!/usr/bin/env bash
# Prints the non-test lines and the non-test `pub fn` count of every crate,
# and their totals. A file's non-test lines are those before its first
# `#[cfg(test)]` at column 0 (all of them when it has none); a `pub fn`
# is a non-test line that starts, after indentation, with `pub fn`.
# Counted over `crates/*/src` and `src`.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
count() {
    find "$1" -name '*.rs' -exec awk '
        /^#\[cfg\(test\)\]/ { nextfile }
        { n++ }
        /^[ \t]*pub fn/ { f++ }
        END { print n + 0, f + 0 }' {} + |
        awk '{ n += $1; f += $2 } END { print n + 0, f + 0 }'
}
total=0
total_fns=0
printf '%-24s %6s %6s\n' crate lines 'pub fn'
for dir in crates/*/src src; do
    read -r n f < <(count "$dir")
    printf '%-24s %6d %6d\n' "${dir%/src}" "$n" "$f"
    total=$((total + n))
    total_fns=$((total_fns + f))
done
printf '%-24s %6d %6d\n' total "$total" "$total_fns"
