#!/usr/bin/env bash
# Build `napletd` and the journey benchmark from source, then run one
# measurement. Run from the repository root:
#
#   bash journeybench/run.sh --workload ring_memory --seed 1 --seconds 24 --trace 0
#
# Build output goes to stderr; the result is the last line of stdout.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p napletd >&2
cargo build --release --offline --quiet --manifest-path journeybench/Cargo.toml >&2
target_dir="$(cd "$CARGO_TARGET_DIR" && pwd)"
export NAPLETD_BIN="$target_dir/release/napletd"
exec "$target_dir/release/journeybench" "$@"
