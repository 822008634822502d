#!/usr/bin/env bash
# Builds the release `eirs` binary and the benchmark program from source,
# then runs it from the repository root.
#
#   bash perfbench/run.sh --workload <net-open|engine-replay|des-search> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to stderr; the last line of stdout is the result JSON.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

cargo build --release --offline --quiet --bin eirs >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --eirs "$CARGO_TARGET_DIR/release/eirs" "$@"
