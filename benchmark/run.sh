#!/usr/bin/env bash
# One command for the whole benchmark. With no arguments: every workload,
# untraced then traced, results in benchmark/out/. Otherwise the arguments
# go to the binary (`bench`, `run`, `compare`, `check`, `manifest`).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
if [ "$#" -eq 0 ]; then set -- run; fi
exec cargo run --release --quiet --offline --manifest-path "$here/Cargo.toml" -- "$@"
