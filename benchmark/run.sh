#!/usr/bin/env bash
# Builds the repository's release binaries and the benchmark harness
# (offline), then runs the harness with the given arguments.
#
#   benchmark/run.sh                      every workload untraced, then traced
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh compare BASE.tsv NEW.tsv
#
# Run from the repository root. Build output goes to stderr, so stdout
# holds only the harness's lines.
set -euo pipefail

target="${CARGO_TARGET_DIR:-target}"
harness_target="${CARGO_TARGET_DIR:-benchmark/target}"

cargo build --release --offline --quiet -p shg-bench \
    --bin fig6 --bin sweep_worker --bin shg_coord --bin table3_mempool >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

# The caller's arguments come first: `compare` is recognised by position.
exec "$harness_target/release/shg-benchmark" "$@" --bin-dir "$target/release"
