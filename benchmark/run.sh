#!/usr/bin/env bash
# The benchmark's one command: build the harness (a cargo package of its own,
# path-depending on ../crates), then run it.
#
#   benchmark/run.sh [--seed N] [--workload W] [--traced] [--smoke]
#                    [--seconds S] [--trace 0|1] [--wal-dir D] [--results FILE]
#
# Without --workload every workload runs (one child process each) and one
# results file is written under .bench_out/. With --workload the last line of
# standard output is the driver's JSON result. Build output goes to standard
# error so it never ends up as that last line.
set -euo pipefail
HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(dirname "$HERE")"
cd "$ROOT"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --manifest-path "$HERE/Cargo.toml" >&2
GIT_REV="$(git -C "$ROOT" rev-parse --short HEAD 2>/dev/null || echo unknown)"
RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
exec "$CARGO_TARGET_DIR/release/sb-benchmark" \
    --git-rev "$GIT_REV" --rustc "$RUSTC" --expected-dir "$HERE/expected" "$@"
