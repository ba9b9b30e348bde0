#!/usr/bin/env bash
# Builds the benchmark, runs `all`, and compares the new result with a
# previous one when given:
#
#   benchmark/run.sh [previous-result.json] [flags of `benchmark all`]
#
# Run from anywhere; cargo picks up benchmark/.cargo/config.toml, so the
# build shares ../target with the workspace unless CARGO_TARGET_DIR is set.
set -euo pipefail
cd "$(dirname "$0")"

previous=""
if [[ $# -gt 0 && "$1" != --* ]]; then
    # `all` overwrites out/result.json, which may be the file named.
    mkdir -p out
    cp "$1" out/previous.json
    previous=out/previous.json
    shift
fi

cargo build --release --offline
bin="${CARGO_TARGET_DIR:-../target}/release/benchmark"

"$bin" all "$@"
if [[ -n "$previous" ]]; then
    "$bin" compare "$previous" out/result.json
fi
