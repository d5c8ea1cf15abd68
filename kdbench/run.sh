#!/usr/bin/env bash
# Builds the service binaries and the benchmark, then runs one workload:
#
#   bash kdbench/run.sh --workload anim_tune|serve_cached \
#       --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Cargo builds offline into
# $CARGO_TARGET_DIR (default .bench_build); spans of a traced run and the
# servers' scratch files go to .bench_out.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/server || ! -f kdbench/Cargo.toml ]]; then
    echo "kdbench: run from the repository root (Cargo.toml, crates/ and kdbench/ are needed)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

# renderd and kdtune with the workspace's own release profile and
# .cargo/config.toml, as they ship.
cargo build --release --offline --quiet -p kdtune-server --bin renderd --bin kdtune >&2
cargo build --release --offline --quiet --manifest-path kdbench/Cargo.toml >&2

exec "$CARGO_TARGET_DIR/release/kdbench" --bin-dir "$CARGO_TARGET_DIR/release" "$@"
