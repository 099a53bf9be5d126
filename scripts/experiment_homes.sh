#!/usr/bin/env bash
# Checks that every `## F*` and `## E*` section of EXPERIMENTS.md has a
# `*Home:*` line, and that every backticked name on it exists: a
# `[[bench]]` target of crates/bench, an example under examples/, a
# workload of BENCHMARK.json, or a test written `file::[module::]name`,
# found as `fn name` in a file `file.rs` (a test file or a module).
# Prints one line per section and exits non-zero if any section fails.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

exists() {
    local name=$1
    grep -qx "name = \"$name\"" crates/bench/Cargo.toml && return 0
    [[ -f "examples/$name.rs" ]] && return 0
    grep -q "{\"name\": \"$name\"" BENCHMARK.json && return 0
    [[ "$name" == *::* ]] || return 1
    local file=${name%%::*} fn=${name##*::}
    [[ -n "$(find src tests crates -name "$file.rs" -not -path '*/target/*' \
        -exec grep -lE "fn $fn\b" {} + 2>/dev/null)" ]]
}

status=0
while IFS= read -r section; do
    id=${section#\#\# }
    id=${id%% *}
    # The `*Home:*` paragraph of this section, up to its blank line.
    home=$(awk -v s="$section" '$0 == s { on = 1; next } /^## / { on = 0 }
        on && /^\*Home:\*/ { h = 1 } h && /^$/ { exit } h' EXPERIMENTS.md)
    names=$(grep -o '`[^`]*`' <<<"$home" | tr -d '`' || true)
    ok=$([[ -n "$names" ]] && echo yes || echo no)
    [[ $ok == no ]] && echo "$id: no *Home:* paragraph naming a home"
    for name in $names; do
        if ! exists "$name"; then echo "$id: home \`$name\` not found"; ok=no; fi
    done
    if [[ $ok == yes ]]; then echo "$id: $(tr '\n' ' ' <<<"$names")"; else status=1; fi
done < <(grep -E '^## [FE][0-9]+ ' EXPERIMENTS.md)
exit $status
