#!/usr/bin/env bash
# Full pre-merge gate: formatting, lints, and the tier-1 build+test pass.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> workspace tests: cargo test --workspace -q"
cargo test --workspace -q

echo "==> benchmark ruler: benchmark/run.sh --smoke (all four workloads, every correctness gate at smoke size)"
# The benchmark is a package of its own that calls the crates' public
# functions; a signature change that breaks it must fail here, not at the
# next performance PR.
benchmark/run.sh --smoke

echo "==> benchmark ruler: planet plan still matches benchmark/expected/plan_planet.json (1e-9), on the pinned pivot path"
# --smoke skips the expected-plan match (the recorded plans are full-size);
# one short full-size planet pass checks it. A single workload always exits
# 0 and reports its verdict on the last line. The iteration count is pinned
# too: sb-lp's solve optimisations skip zeros and never reorder a sum, so an
# unintended arithmetic change anywhere in the solver moves this number and
# fails here; a deliberate one updates the constant (and the ones in
# crates/lp/tests/pinned_pivot_path.rs) in the same PR.
benchmark/run.sh --workload plan_planet --seconds 1 --out /tmp/plan_planet.json |
    tail -n 1 | grep -q '"correct":true'
grep -q '"lp_iterations": 8452\b' /tmp/plan_planet.json

echo "==> benchmark ruler: bare engine equals the replay oracle at the full live-set size"
# --smoke checks "selector stats and per-DC tallies equal the replay oracle"
# on a small trace only; one short full-size bare pass gates it at the live
# set the serve_ops_per_s claim is made at.
benchmark/run.sh --workload serve_bare --seconds 2 | tail -n 1 | grep -q '"correct":true'

echo "==> benchmark ruler: the harness's own tests"
CARGO_TARGET_DIR="$PWD/target" cargo test --release --offline -q --manifest-path benchmark/Cargo.toml

echo "==> replay differential: serial oracle vs concurrent engine"
cargo test -q --test replay_differential

echo "==> plan-swap differential: identical-plan hot-swap is a no-op"
cargo test -q --test plan_swap_differential

echo "==> bench reports: every count in every committed BENCH_*.json, exactly"
# Each file names the sb-bench binary that recorded it; that binary re-runs
# at its one size and --check compares its fresh counts (migrations per 1k
# placed calls, drift triggers -> installs -> stale freezes, redriven ops and
# lost records per crash, warm-hit rate, simplex iterations, ...) with the
# file's, exiting non-zero with each differing key. Every assertion of every
# bench (serial == concurrent, recovered == uninterrupted, stale windows
# close, 0 stranded) runs on the way. Timings live under "host" and are not
# compared: BENCHMARK.json is the ruler for speed. lp_scenario_sweep's full
# size is minutes, so it gates at --smoke: the sparse variants' counts, and
# their capacities against the committed dense-factorization arrays at 1e-9.
# After a deliberate behaviour change, re-record with --json in place of
# --check (without --smoke) and commit the file with results/<bench>.txt.
for f in BENCH_*.json; do
    bench=$(sed -n 's/^  "bench": "\(.*\)",$/\1/p' "$f")
    size=
    [ "$bench" != lp_scenario_sweep ] || size=--smoke
    echo "    $bench $size --check $f"
    cargo run --release -q -p sb-bench --bin "$bench" -- $size --check "$f" >/dev/null
done

# Print a source file's lines outside its test module (everything before the
# first top-level #[cfg(test)]), skipping line comments, as "file:line: text".
non_test() {
    awk '/^#\[cfg\(test\)\]/{exit} !/^[[:space:]]*\/\//{print FILENAME":"FNR": "$0}' "$1"
}

echo "==> panic-free serve-path gate: no unwrap/expect/assert!/panic!/unreachable! outside tests"
# Every file an admit, join, freeze, end, journal append, WAL decode, protocol
# line or recovery passes through must end in a typed error or a
# degraded-but-correct answer (a duplicate admit keeps the call where it is),
# never a panic that kills the service. debug_assert! states an internal
# invariant and is compiled out of release builds, so it is allowed.
serve_path="crates/engine/src/engine.rs crates/engine/src/wal.rs
    crates/engine/src/protocol.rs crates/engine/src/main.rs
    crates/store/src/callstate.rs crates/store/src/map.rs crates/store/src/journal.rs
    crates/core/src/realtime.rs crates/pack/src/packer.rs crates/sim/src/drive.rs"
panics=$(for f in $serve_path; do non_test "$f"; done |
    grep -E '\.(unwrap|expect)\(|(^|[^_[:alnum:]])(assert|panic|unreachable)!' || true)
if [ -n "$panics" ]; then
    echo "panicking calls on the serve path:" >&2
    echo "$panics" >&2
    exit 1
fi

echo "==> serve-path clock gate: a serving op reads the clock only when it is sampled"
# EngineWorker times one op in OP_SAMPLE (crates/engine/src/engine.rs); the
# others read no clock unless an admit deadline is configured. The store's
# one reading times a write (CallStateStore::try_apply_n, under try_apply),
# and engine.rs
# keeps three: a timed op's start, persist's retry budget and wait_drained's
# timeout. A new per-op reading fails here instead of in the next benchmark.
for expect in "crates/store/src/callstate.rs 1" "crates/engine/src/engine.rs 3"; do
    set -- $expect
    reads=$(non_test "$1" | grep -c -F 'Instant::now' || true)
    if [ "$reads" != "$2" ]; then
        echo "$1 must read Instant::now in $2 place(s) outside tests, found $reads:" >&2
        non_test "$1" | grep -F 'Instant::now' >&2
        exit 1
    fi
done

echo "==> one-drive-core gate: the call lifecycle and the partition rule live in sb-sim's drive.rs"
# Replay, chaos, autoscale, the crash drill and the load bench are
# configurations of crates/sim/src/drive.rs. Outside test modules nothing
# else in sb-sim or the load generator may issue a start or a freeze, or
# consult a quota-pool token (barrier-time rehome_call is not a lifecycle
# event; packer.freeze is the intra-DC packer's own op) — a tenth copy of
# the lifecycle fails here instead of appearing in the next PR.
copies=$(for f in crates/sim/src/*.rs crates/bench/src/load.rs; do
    [ "$f" = crates/sim/src/drive.rs ] || non_test "$f"
done | grep -E 'call_start\(|config_frozen\(|\.admit\(|\.freeze\(|pool_token\(' |
    grep -v 'packer\.freeze(' || true)
if [ -n "$copies" ]; then
    echo "call-lifecycle or partition code outside crates/sim/src/drive.rs:" >&2
    echo "$copies" >&2
    exit 1
fi
partitions=$(non_test crates/sim/src/drive.rs | grep -c -E '[a-z_]\.pool_token\(' || true)
if [ "$partitions" != 1 ]; then
    echo "drive.rs must consult pool_token in exactly one place, found $partitions" >&2
    exit 1
fi

echo "==> one-control-loop gate: chaos replay and autoscaling are one windowed loop"
# A materialized trace (ReplayDriver) and a window stream (AutoscaleLoop) are
# two record sources of the loop in crates/sim/src/control.rs. Outside test
# modules sb-sim has exactly one barrier call site, defines exactly one
# per-window stats row, and integrates usage only in plain replay's
# accounting and in the loop — a second loop, window type or integrator
# fails here instead of appearing in the next PR.
sim_non_test() {
    for f in crates/sim/src/*.rs; do non_test "$f"; done
}
barriers=$(sim_non_test | grep -c -F '.barrier(' || true)
if [ "$barriers" != 1 ]; then
    echo "sb-sim must call .barrier( in exactly one place, found $barriers:" >&2
    sim_non_test | grep -F '.barrier(' >&2
    exit 1
fi
rows=$(sim_non_test | grep -c -E 'pub struct [A-Za-z0-9_]*Window(Stats)?\b' || true)
if [ "$rows" != 1 ]; then
    echo "sb-sim must define exactly one pub struct *Window / *WindowStats, found $rows:" >&2
    sim_non_test | grep -E 'pub struct [A-Za-z0-9_]*Window(Stats)?\b' >&2
    exit 1
fi
integrators=$(sim_non_test | grep -F 'UsageDeltas::new(' | cut -d: -f1 | sort -u | tr '\n' ' ')
if [ "$integrators" != "crates/sim/src/control.rs crates/sim/src/replay.rs " ]; then
    echo "UsageDeltas::new( outside test modules must appear in control.rs and replay.rs only, found in: $integrators" >&2
    exit 1
fi

echo "==> one-footprint gate: Eq. 5-6 is stated once, and no library reads the process environment"
# A placement's network cost (n * leg_network_load on every link of the
# route) is computed in crates/core/src/usage.rs and nowhere else: every LP
# builder and every usage integrator in sb-core and sb-sim goes through
# for_each_link_load / link_loads. A second caller of leg_network_load is a
# second statement of InPath that must then agree to the last bit.
footprints=$(for f in crates/core/src/*.rs crates/sim/src/*.rs; do non_test "$f"; done |
    grep -F 'leg_network_load(' | cut -d: -f1 | sort -u || true)
if [ "$footprints" != crates/core/src/usage.rs ]; then
    echo "leg_network_load( outside test modules must appear in crates/core/src/usage.rs only, found in:" >&2
    echo "$footprints" >&2
    exit 1
fi
# A library solve must not branch on the process environment; only the
# sb-bench binaries may read it.
envs=$(for f in crates/*/src/*.rs crates/*/src/*/*.rs; do
    case "$f" in crates/bench/*) ;; *) non_test "$f" ;; esac
done | grep -F 'std::env::var' || true)
if [ -n "$envs" ]; then
    echo "environment read in library code:" >&2
    echo "$envs" >&2
    exit 1
fi

echo "==> one-bench-report gate: the BENCH_*.json format and the spread-plan day are each stated once"
# crates/bench/src/report.rs is the only writer and reader of the bench
# report: no other non-test line of sb-bench spells its JSON keys or writes
# under results/, and the synthetic spread plan is built in common.rs only.
emitters=$(for f in crates/bench/src/*.rs crates/bench/src/bin/*.rs; do
    [ "$f" = crates/bench/src/report.rs ] || non_test "$f"
done | grep -E '\\?"(bench|smoke)\\?"|results/' || true)
if [ -n "$emitters" ]; then
    echo "bench-report keys or results/ writes outside crates/bench/src/report.rs:" >&2
    echo "$emitters" >&2
    exit 1
fi
spreads=$(for f in crates/bench/src/*.rs crates/bench/src/bin/*.rs; do non_test "$f"; done |
    grep -F 'shares.set(cfg, s, spread.clone())' | cut -d: -f1 | sort -u || true)
if [ "$spreads" != crates/bench/src/common.rs ]; then
    echo "the spread-plan share loop must appear in crates/bench/src/common.rs only, found in:" >&2
    echo "$spreads" >&2
    exit 1
fi

echo "all checks passed"
