#!/usr/bin/env bash
# Builds the benchmark and the experiment CLI it drives (release, offline),
# then runs the benchmark with the given arguments. Run from the root of the
# repository, e.g.:
#   bash perfbench/run.sh --workload dense-bt-10k --seed 42 --seconds 20 --trace 0
# Build output goes to $CARGO_TARGET_DIR, or perfbench/target when unset.
set -euo pipefail
manifest="$(dirname "${BASH_SOURCE[0]}")/Cargo.toml"
cargo build --release --offline --quiet --bins --manifest-path "$manifest" >&2
exec "${CARGO_TARGET_DIR:-$(dirname "$manifest")/target}/release/coop-benchmark" "$@"
