#!/usr/bin/env bash
# Prints, for every crate and in total, the non-test lines, the non-test
# `pub fn` count, and how many of those `pub fn`s are local: called from
# no other crate. A file's non-test lines are those before its first
# `#[cfg(test)]` at column 0 (all of them when it has none); a `pub fn`
# is a non-test line that starts, after indentation, with `pub fn`.
# Counted over `crates/*/src` and `src`.
#
# The local column is checked by the compiler. A temporary copy of the
# tree gets `#[deprecated(note = "<file>:<line>")]` on every non-test
# `pub fn`; `cargo check --workspace --all-targets` and a `cargo check`
# of `benchmark/` (both with the copy's own target directory) then warn
# at every call, and a warning raised in a file of another crate marks
# an outside caller. The root package (`src`, `tests`, `examples`) is
# one crate, `benchmark/` another; a crate's own `tests/`, `benches/`
# and `examples/` are not outside callers. Doctests are not checked.
# `--list` prints the local `pub fn`s themselves, one
# `crate file:line name named-by` a line, where `named-by` lists which
# of the crate's own `tests`, `benches` and `examples` call it (`-`
# when none does).
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

dirs=(crates/*/src src)

# The copy, annotated. `defs` gets one `file:line name` per `pub fn`.
copy="$scratch/tree"
mkdir "$copy"
tar --exclude=./target --exclude=./benchmark/target --exclude=./.bench_build \
    --exclude=./.git -cf - . | tar -C "$copy" -xf -
for dir in "${dirs[@]}"; do
    find "$dir" -name '*.rs' | sort
done | while read -r file; do
    awk -v file="$file" -v defs="$scratch/defs" '
        /^#\[cfg\(test\)\]/ { test = 1 }
        !test && /^[ \t]*pub fn/ {
            indent = $0; sub(/pub fn.*/, "", indent)
            name = $0; sub(/^[ \t]*pub fn[ \t]+/, "", name); sub(/[^A-Za-z0-9_].*/, "", name)
            printf "%s#[deprecated(note = \"%s:%d\")]\n", indent, file, FNR
            printf "%s:%d %s\n", file, FNR, name >>defs
        }
        { print }' "$file" >"$copy/$file"
done

# One `caller-file def-file:line` per deprecation warning.
export CARGO_TARGET_DIR="$scratch/target"
(cd "$copy" && cargo check -q --offline --workspace --all-targets \
    --message-format=short >"$scratch/check" 2>&1) || true
(cd "$copy/benchmark" && cargo check -q --offline --all-targets \
    --message-format=short 2>&1 | sed 's|^src/|benchmark/src/|' >>"$scratch/check") || true
if grep -q '^error' "$scratch/check"; then
    grep '^error' "$scratch/check" >&2
    echo "nontest_lines.sh: the annotated copy does not build" >&2
    exit 1
fi
sed -n "s|^\($copy/\)\{0,1\}\([^:]*\):[0-9]*:[0-9]*: warning: use of deprecated [^\`]*\`[^\`]*\`: \(.*\)$|\2 \3|p" \
    "$scratch/check" | sed "s|^$copy/||" | grep -v '^\.\./' | sort -u >"$scratch/uses" || true
if [[ ! -s "$scratch/uses" ]]; then
    echo "nontest_lines.sh: the check of the annotated copy raised no deprecation warning" >&2
    exit 1
fi

# Per def: local or not, and which of its crate's own targets call it.
awk '
    function crate(path) { if (path ~ /^crates\//) { split(path, p, "/"); return p[2] }
                           if (path ~ /^benchmark\//) return "benchmark"
                           return "mxn" }
    function kind(path) { if (path ~ /^crates\//) { split(path, p, "/"); return p[3] }
                          split(path, p, "/"); return p[1] }
    FILENAME ~ /uses$/ { caller[$2] = caller[$2] " " $1; next }
    {
        own = crate($1); outside = 0; delete by
        n = split(caller[$1], files, " ")
        for (i = 1; i <= n; i++) {
            if (crate(files[i]) != own) outside = 1
            else if (kind(files[i]) ~ /^(tests|benches|examples)$/) by[kind(files[i])] = 1
        }
        if (outside) next
        named = ""
        for (k in by) named = named (named == "" ? "" : ",") k
        root = $1; sub(/\/src\/.*/, "", root); if ($1 ~ /^src\//) root = "src"
        print root, $1, $2, (named == "" ? "-" : named)
    }' "$scratch/uses" "$scratch/defs" >"$scratch/local"

if $list; then
    cat "$scratch/local"
    exit 0
fi
total=0
total_fns=0
total_local=0
printf '%-24s %6s %6s %6s\n' crate lines 'pub fn' local
for dir in "${dirs[@]}"; do
    root=${dir%/src}
    read -r n f < <(count "$dir")
    l=$(awk -v r="$root" '$1 == r' "$scratch/local" | wc -l)
    printf '%-24s %6d %6d %6d\n' "$root" "$n" "$f" "$l"
    total=$((total + n))
    total_fns=$((total_fns + f))
    total_local=$((total_local + l))
done
printf '%-24s %6d %6d %6d\n' total "$total" "$total_fns" "$total_local"
