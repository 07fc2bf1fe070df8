#!/usr/bin/env bash
# Builds soc-serve and the benchmark from source, then runs the benchmark.
#
#   bash perfbench/run.sh --workload repeat_hits|new_designs|whatif_sweeps|all \
#       --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); run files go to .bench_build/perfbench.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p soctest-experiments --bin soc-serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --server "$CARGO_TARGET_DIR/release/soc-serve" "$@"
