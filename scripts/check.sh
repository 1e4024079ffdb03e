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
# crates/lp/tests/pinned_pivot_path.rs, if it moves them) in the same PR.
# 7612 since the planning LPs stopped giving each share an upper bound of
# its own (Eq. 9's completeness row already bounds it; 8452 before).
benchmark/run.sh --workload plan_planet --seconds 1 --out /tmp/plan_planet.json |
    tail -n 1 | grep -q '"correct":true'
grep -q '"lp_iterations": 7612\b' /tmp/plan_planet.json

echo "==> benchmark ruler: bare engine equals the replay oracle at the full live-set size"
# --smoke checks "selector stats and per-DC tallies equal the replay oracle"
# on a small trace only; one short full-size bare pass gates it at the live
# set the serve_ops_per_s claim is made at.
benchmark/run.sh --workload serve_bare --seconds 2 | tail -n 1 | grep -q '"correct":true'

echo "==> benchmark ruler: the harness's own tests"
CARGO_TARGET_DIR="$PWD/target" cargo test --release --offline -q --manifest-path benchmark/Cargo.toml

echo "==> replay differential: serial oracle vs concurrent engine"
cargo test -q --test replay_differential

echo "==> durable differential: a journaled packing drive writes its recorded WAL bytes and packing"
cargo test -q -p sb-engine --test pinned_wal

echo "==> install differential: installing the live plan at the control loop's barrier is a no-op"
cargo test -q --test replay_differential identical_plan_install_is_a_noop_through_the_control_loop
cargo test -q --test plan_swap_differential

echo "==> one-report-per-bench gate: every sb-bench binary is gated by exactly one BENCH_*.json"
# Every binary under crates/bench/src/bin but the inspect_plan tool is named
# by the "bench" key of exactly one committed report, so a new figure or
# bench cannot land without counts the loop below compares.
for bin in crates/bench/src/bin/*.rs; do
    bench=$(basename "$bin" .rs)
    [ "$bench" != inspect_plan ] || continue
    named=$(cat BENCH_*.json | grep -c -F -x "  \"bench\": \"$bench\"," || true)
    if [ "$named" != 1 ]; then
        echo "$bench is named by $named committed BENCH_*.json, want exactly 1" >&2
        exit 1
    fi
done

echo "==> one-harness gate: sb-bench's report binaries are the only benchmarks"
# Every measurement lands in a committed BENCH_*.json that the loop below
# checks. A second harness (Criterion targets on a vendored shim) compiles
# under clippy, runs nowhere and gates nothing: a [[bench]] target, a
# criterion dependency, a crates/*/benches/ directory or shims/criterion
# fails here.
harness=$( {
    grep -H -n -E '^\[\[bench\]\]|^[[:space:]]*criterion[[:space:]]*[=.]|dependencies\.criterion\]|^name = "criterion"$' \
        Cargo.toml Cargo.lock crates/*/Cargo.toml shims/*/Cargo.toml
    ls -d crates/*/benches shims/criterion
} 2>/dev/null || true)
if [ -n "$harness" ]; then
    echo "a second bench harness:" >&2
    echo "$harness" >&2
    exit 1
fi

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
# The twelve paper-figure reports (Tables 1/3/4, Figs. 3/4/7-10, sections
# 6.4 and 8, the solver ablation) hold the paper-comparable numbers and each
# EXPERIMENTS.md shape check as a boolean (cost SB < LF < RR, peak order
# JP < HK < IN, ...). Measured on 2 hardware threads they add ~19 s together
# (Table 3 4 s, Table 4 6 s, section 8 6 s, Fig. 9 2.5 s, the rest under
# 1 s): fig10_controller_throughput charges its 300 us store round trips in
# virtual time, so its seven-count sweep, real threads included, takes well
# under a second at its one, full size.
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

echo "==> no-sleep gate: Fig. 10's round trips are virtual, and no product code simulates one"
# The controller-throughput curve is charged in virtual time
# (sb_store::harness::virtual_makespan), so the harness and sb-bench never
# sleep, and nothing outside callstate.rs builds a store with a simulated
# round trip (CallStateStore::with_simulated_rtt stays for the benchmark's
# pinned zero-RTT call only). A slept curve measures how well sleeps overlap
# on the host and costs minutes of this script; it fails here instead.
sleeps=$(for f in crates/store/src/harness.rs crates/bench/src/*.rs crates/bench/src/bin/*.rs; do
    non_test "$f"
done | grep -F 'thread::sleep' || true)
rtts=$(for f in crates/*/src/*.rs crates/*/src/*/*.rs; do
    [ "$f" = crates/store/src/callstate.rs ] || non_test "$f"
done | grep -F 'with_simulated_rtt(' || true)
if [ -n "$sleeps$rtts" ]; then
    echo "a slept or simulated store round trip outside callstate.rs:" >&2
    printf '%s\n' "$sleeps" "$rtts" | grep -v '^$' >&2
    exit 1
fi

echo "==> one-journal-path gate: an op's WAL records go out in one append, framed in place"
# Every engine op frames its records straight into the journal's group-commit
# buffer inside one Journal::append_with (WalRecord::frame), so non-test
# engine.rs encodes no record into a buffer of its own; the journal reads the
# clock once per append call (the group-commit age check), not once per
# record; and the packer's call table is hashed, with call-id order restored
# explicitly where it is observable. A second append path, a per-record clock
# read or an ordered call table fails here instead of in the next benchmark.
encodes=$(non_test crates/engine/src/engine.rs | grep -F '.encode()' || true)
if [ -n "$encodes" ]; then
    echo "crates/engine/src/engine.rs must frame records in place, found .encode():" >&2
    echo "$encodes" >&2
    exit 1
fi
ages=$(non_test crates/store/src/journal.rs | grep -c -F '.elapsed()' || true)
if [ "$ages" != 1 ]; then
    echo "crates/store/src/journal.rs must call .elapsed() in 1 place outside tests, found $ages:" >&2
    non_test crates/store/src/journal.rs | grep -F '.elapsed()' >&2
    exit 1
fi
ordered=$(non_test crates/pack/src/packer.rs | grep -F 'BTreeMap' || true)
if [ -n "$ordered" ]; then
    echo "crates/pack/src/packer.rs must keep its call table hashed, found BTreeMap:" >&2
    echo "$ordered" >&2
    exit 1
fi

echo "==> one-journal-read gate: recovery streams the log through the journal's one frame reader"
# sb-store validates frames in one place, JournalReader, which streams the
# file through a fixed buffer: non-test journal.rs reads no file whole.
# Engine::recover decodes and applies each frame as the reader yields it, so
# non-test sb-engine neither collects the log with Journal::scan nor keeps
# its records in a list (a `pub ops:` field). A second validating pass or a
# copy of the log in recovery fails here instead of in the next benchmark.
whole=$(non_test crates/store/src/journal.rs | grep -F 'read_to_end' || true)
if [ -n "$whole" ]; then
    echo "crates/store/src/journal.rs must stream the log, found read_to_end:" >&2
    echo "$whole" >&2
    exit 1
fi
collects=$(for f in crates/engine/src/*.rs; do non_test "$f"; done |
    grep -E 'Journal::scan\(|pub ops:' || true)
if [ -n "$collects" ]; then
    echo "sb-engine must apply frames as they are read, found:" >&2
    echo "$collects" >&2
    exit 1
fi

echo "==> one-call-table recovery gate: recovery keeps each call once and lands the survivors once"
# Engine::recover applies what depends on log order (quota debits, per-DC
# tallies, stats, plan installs, server deaths, forecast marks) record by
# record, and keeps each call's selector entry, store record and packer slot
# in one recovery-local table that an end removes the call from; the calls
# that survive the log land in the selector, the store and the packer once.
# So non-test engine.rs keeps no second per-call pack table (pack_slots),
# calls restore_set( in one place (the survivors' landing) and .try_write( in
# one place (the serving path's persist). A recovery that writes every call
# into the shared tables again fails here instead of in the next benchmark.
shadow=$(non_test crates/engine/src/engine.rs | grep -F 'pack_slots' || true)
if [ -n "$shadow" ]; then
    echo "crates/engine/src/engine.rs must keep no pack_slots table outside tests, found:" >&2
    echo "$shadow" >&2
    exit 1
fi
for expect in "restore_set( 1" ".try_write( 1"; do
    set -- $expect
    uses=$(non_test crates/engine/src/engine.rs | grep -c -F "$1" || true)
    if [ "$uses" != "$2" ]; then
        echo "crates/engine/src/engine.rs must call $1 in $2 place(s) outside tests, found $uses:" >&2
        non_test crates/engine/src/engine.rs | grep -F "$1" >&2
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

echo "==> one-install-path gate: a running plan changes at the loop's barrier, and NDJSON is the one plan format"
# In simulation a plan is installed mid-run only by ControlPlane::barrier
# (crates/sim/src/control.rs); outside simulation, by Engine::install_plan.
# A second schedule of installs in sb-sim, or a second plan format in
# sb-core, fails here.
installs=$(sim_non_test | { grep -F 'install_plan(' || true; } | cut -d: -f1 | tr '\n' ' ')
if [ "$installs" != "crates/sim/src/control.rs " ]; then
    echo "sb-sim must call install_plan( exactly once, in control.rs, found in: $installs" >&2
    exit 1
fi
formats=$(for f in crates/core/src/*.rs; do non_test "$f"; done | grep -E '(to|from)_tsv\(' || true)
if [ -n "$formats" ]; then
    echo "a second plan format in sb-core:" >&2
    echo "$formats" >&2
    exit 1
fi

echo "==> one-footprint gate: Eq. 5-6 is stated once, and no crate reads the process environment"
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
# A library solve must not branch on the process environment, and the
# sb-bench binaries take their shared flags from std::env::args only: no
# crate reads an environment variable.
envs=$(for f in crates/*/src/*.rs crates/*/src/*/*.rs; do non_test "$f"; done |
    grep -F 'std::env::var' || true)
if [ -n "$envs" ]; then
    echo "environment read in crate code:" >&2
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
