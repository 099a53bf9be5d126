#!/usr/bin/env bash
# Prints, for every crate and in total, the non-test lines, the non-test
# `pub fn` count, and how many of those `pub fn`s are local: named in no
# other crate. A file's non-test lines are those before its first
# `#[cfg(test)]` at column 0 (all of them when it has none); a `pub fn`
# is a non-test line that starts, after indentation, with `pub fn`.
# Counted over `crates/*/src` and `src`.
#
# A `pub fn` is local when its name appears as a word in no file of
# another crate's `src`, `tests`, `benches` or `examples`, of the root
# `tests/` and `examples/`, or of `benchmark/src`. The root package's
# "other crates" are `crates/*`. The test is by name, so it is a lower
# bound: a common name (`new`, `len`) used elsewhere hides a candidate.
# `--list` prints the local `pub fn`s themselves, one `crate name` a line.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
list=false
[[ "${1:-}" == --list ]] && list=true
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

count() {
    find "$1" -name '*.rs' -exec awk '
        /^#\[cfg\(test\)\]/ { nextfile }
        { n++ }
        /^[ \t]*pub fn/ { f++ }
        END { print n + 0, f + 0 }' {} + |
        awk '{ n += $1; f += $2 } END { print n + 0, f + 0 }'
}
pub_fn_names() {
    find "$1" -name '*.rs' -exec awk '
        /^#\[cfg\(test\)\]/ { nextfile }
        /^[ \t]*pub fn/ { sub(/^[ \t]*pub fn[ \t]+/, ""); sub(/[^A-Za-z0-9_].*/, ""); print }' {} +
}
words() {
    local d
    for d in "$@"; do
        if [[ -d "$d" ]]; then
            find "$d" -name '*.rs' -exec grep -ohw '[A-Za-z_][A-Za-z0-9_]*' {} +
        fi
    done | sort -u
}

# The words of each crate's own files, and of the shared outside users.
dirs=(crates/*/src src)
for dir in "${dirs[@]}"; do
    root=${dir%/src}
    key=${root//\//_}
    if [[ "$root" == src ]]; then
        words src >"$scratch/$key"
    else
        words "$root/src" "$root/tests" "$root/benches" "$root/examples" >"$scratch/$key"
    fi
done
words tests examples benchmark/src >"$scratch/outside"

total=0
total_fns=0
total_local=0
$list || printf '%-24s %6s %6s %6s\n' crate lines 'pub fn' local
for dir in "${dirs[@]}"; do
    root=${dir%/src}
    key=${root//\//_}
    others=("$scratch/outside")
    for other in "${dirs[@]}"; do
        okey=${other%/src}
        okey=${okey//\//_}
        if [[ "$okey" != "$key" ]]; then
            others+=("$scratch/$okey")
        fi
    done
    sort -u "${others[@]}" >"$scratch/others"
    pub_fn_names "$dir" | sort >"$scratch/names"
    # Every definition counts: two local `pub fn`s of one name are two.
    local_names=$(join -v 1 "$scratch/names" "$scratch/others" || true)
    if $list; then
        if [[ -n "$local_names" ]]; then
            printf '%s\n' "$local_names" | sed "s|^|$root |"
        fi
        continue
    fi
    read -r n f < <(count "$dir")
    l=$(printf '%s' "$local_names" | grep -c . || true)
    printf '%-24s %6d %6d %6d\n' "$root" "$n" "$f" "$l"
    total=$((total + n))
    total_fns=$((total_fns + f))
    total_local=$((total_local + l))
done
$list || printf '%-24s %6d %6d %6d\n' total "$total" "$total_fns" "$total_local"
