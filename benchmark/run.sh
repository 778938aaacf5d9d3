#!/usr/bin/env bash
# Builds the benchmark (release, offline, no external crates) and runs
# it with the arguments given:
#
#   benchmark/run.sh --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
#   benchmark/run.sh --smoke
#
# Build output goes to stderr; stdout is the benchmark's alone, and its
# last line is the JSON result. Honours CARGO_TARGET_DIR.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/eps-benchmark" "$@"
