#!/usr/bin/env bash
# Builds the accelwall CLI and the benchmark from source, then runs the
# benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload regen --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --steady 5 --seconds 30
#
# Build output goes to $CARGO_TARGET_DIR (default: target); cargo's
# progress goes to stderr so the last stdout line stays the result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
target="$CARGO_TARGET_DIR"
cargo build --release --offline --locked --quiet --bin accelwall >&2
cargo build --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --accelwall "$target/release/accelwall" "$@"
