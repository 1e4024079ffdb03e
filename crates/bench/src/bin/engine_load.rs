//! Open-loop load test of the `sb-engine` service layer: a full APAC day
//! trace offered to [`sb_engine::Engine`]'s admission path, serial and at
//! 1/2/4/8 worker threads, against the serial replay oracle.
//!
//! Every variant must finish with selector stats and per-DC tallies equal
//! to [`sb_sim::replay()`] over the same trace — the run aborts on the first
//! divergence. Throughput is selector ops (admits + freezes + ends) per
//! second of drive wall time; latency quantiles (p50/p99/p999) come from
//! the engine's per-op [`sb_store::LatencyHistogram`].
//!
//! The `obs` leg times the three ops the selector's sb-obs handles run on
//! the serving path — `Counter::inc`, `Histogram::record` and a dropped
//! `start_timer()` — against the global registry while it is disabled (its
//! default), and gates that each stays under a fixed bound per op.
//!
//! Usage: `engine_load [--json <path> | --check <path>]`
//!
//! One world size, best of three. At least a 3x speedup over the serial
//! replay drive and over 10M selector ops/s at 8 threads are asserted only
//! when the host has 8+ hardware threads; equivalence is asserted on every
//! repetition either way. `--json` records `BENCH_engine.json` and
//! `results/engine_load.txt`, `--check` compares the counts with the
//! committed file ([`sb_bench::report`]).

use std::hint::black_box;
use std::time::Instant;

use sb_bench::common::spread_plan_day;
use sb_bench::load::{drive_concurrent, drive_serial, DriveOutcome, LoadSchedule};
use sb_bench::report::{Mode, Report};
use sb_core::formulation::ScenarioData;
use sb_core::{PlanArtifact, RealtimeSelector};
use sb_engine::{Engine, EngineConfig};
use sb_net::FailureScenario;
use sb_sim::{replay, ReplayConfig};
use sb_store::LatencyHistogram;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const REPS: usize = 3;

/// Calls per repetition of each disabled sb-obs op; the best of
/// `OBS_REPS` repetitions is kept, so one preempted time slice cannot flip
/// the bound.
const OBS_OPS: u32 = 10_000_000;
const OBS_REPS: usize = 5;
/// Bound on one disabled sb-obs op, in ns. It is about 3x the worst reading
/// (a dropped timer, 4.9 ns on a 2-thread box), and it still catches an
/// `Instant::now()` (42-46 ns on the timer there) or an `Arc` clone (17-24 ns
/// on the counter) slipping into the disabled path.
const OBS_DISABLED_NS_BOUND: f64 = 15.0;

/// Best-of-`OBS_REPS` nanoseconds per call of `op`, over `OBS_OPS` calls.
fn ns_per_op(mut op: impl FnMut()) -> f64 {
    (0..OBS_REPS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..OBS_OPS {
                op();
            }
            start.elapsed().as_nanos() as f64 / f64::from(OBS_OPS)
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let mode = Mode::from_args();
    let topo = sb_net::presets::apac();
    let (db, quotas) = spread_plan_day(&topo);
    let artifact = PlanArtifact::seed(quotas);
    let sd0 = ScenarioData::compute(&topo, FailureScenario::None);
    let rcfg = ReplayConfig::default();

    // the serial replay oracle: reference stats and the speedup baseline
    let mut oracle_drive = f64::MAX;
    let mut oracle = None;
    for _ in 0..REPS {
        let selector = RealtimeSelector::from_artifact(&sd0.latmap, &artifact);
        let report = replay(
            &topo,
            &sd0.routing,
            &sd0.latmap,
            db.catalog(),
            &db,
            &selector,
            &rcfg,
        );
        oracle_drive = oracle_drive.min(report.timing.drive.as_secs_f64());
        oracle = Some(report);
    }
    let oracle = oracle.expect("at least one oracle rep");
    let calls = oracle.calls;
    eprintln!("serial replay oracle: {oracle_drive:.3}s drive");

    let sched = LoadSchedule::new(db.records(), rcfg.freeze_minutes);

    // best-of-reps wall time per engine variant; equivalence on every rep
    let best_of = |threads: Option<usize>| -> (DriveOutcome, LatencyHistogram) {
        let mut best: Option<(DriveOutcome, LatencyHistogram)> = None;
        for _ in 0..REPS {
            let engine = Engine::new(&sd0.latmap, &artifact, &EngineConfig::default());
            let out = match threads {
                None => drive_serial(&engine, db.records(), &sched),
                Some(t) => drive_concurrent(&engine, db.records(), &sched, t),
            };
            assert_eq!(
                engine.selector_stats(),
                oracle.stats().selector,
                "engine drive (threads={threads:?}) diverged from the serial replay oracle"
            );
            assert_eq!(
                engine.per_dc_tallies(),
                oracle.stats().per_dc_tallies,
                "per-DC tallies diverged (threads={threads:?})"
            );
            if best.as_ref().is_none_or(|(b, _)| out.wall < b.wall) {
                best = Some((out, engine.op_latency()));
            }
        }
        best.expect("at least one rep")
    };

    let (serial_out, _) = best_of(None);
    eprintln!(
        "engine serial: {:.3}s, {:.2}M ops/s",
        serial_out.wall.as_secs_f64(),
        serial_out.ops_per_sec() / 1e6
    );
    let mut variants: Vec<(String, DriveOutcome)> = vec![("engine-serial".to_string(), serial_out)];
    let mut hist = LatencyHistogram::new();
    for &t in &THREAD_COUNTS {
        let (out, h) = best_of(Some(t));
        eprintln!(
            "engine {t}-thread: {:.3}s, {:.2}M ops/s",
            out.wall.as_secs_f64(),
            out.ops_per_sec() / 1e6
        );
        variants.push((format!("engine-{t}t"), out));
        hist = h;
    }

    let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());
    let best8 = variants.last().unwrap().1;
    let speedup8 = oracle_drive / best8.wall.as_secs_f64();
    if hardware >= 8 {
        assert!(
            speedup8 >= 3.0,
            "expected >= 3x speedup over the serial replay drive at 8 threads, \
             measured {speedup8:.2}x"
        );
        let mops = best8.ops_per_sec();
        assert!(
            mops > 10_000_000.0,
            "expected > 10M selector ops/s at 8 threads, measured {:.2}M",
            mops / 1e6
        );
    } else {
        eprintln!(
            "note: host has only {hardware} hardware thread(s) — the >= 3x \
             speedup and > 10M ops/s assertions need 8 and were skipped; \
             equivalence was still asserted on every run"
        );
    }

    let obs = sb_obs::global();
    assert!(
        !obs.enabled(),
        "the obs leg times the registry's disabled path"
    );
    let obs_counter = obs.counter("bench.engine_load.counter");
    let obs_hist = obs.histogram("bench.engine_load.hist");
    let obs_ns = [
        (
            "counter_inc_ns",
            ns_per_op(|| black_box(&obs_counter).inc()),
        ),
        (
            "histogram_record_ns",
            ns_per_op(|| black_box(&obs_hist).record(black_box(42))),
        ),
        (
            "scoped_timer_ns",
            ns_per_op(|| drop(black_box(&obs_hist).start_timer())),
        ),
    ];

    let mut report = Report::new("engine_load");
    report
        .counts
        .label("topology", "apac")
        .int("calls", calls)
        .int("events", sched.len() as u64)
        // selector stats and per-DC tallies compared equal to the replay
        // oracle on every repetition of every variant
        .flag("stats_identical", true);
    report
        .host
        .int("reps", REPS as u64)
        .fixed("oracle_drive_s", oracle_drive, 6);
    for (name, out) in &variants {
        report
            .host
            .row("variants")
            .row(name)
            .fixed("drive_s", out.wall.as_secs_f64(), 6)
            .fixed("ops_per_sec", out.ops_per_sec(), 1)
            .fixed(
                "speedup_vs_oracle",
                oracle_drive / out.wall.as_secs_f64(),
                4,
            );
    }
    // of the 8-thread run
    report
        .host
        .row("op_latency_ns")
        .int("p50", hist.quantile(0.5).as_nanos() as u64)
        .int("p99", hist.quantile(0.99).as_nanos() as u64)
        .int("p999", hist.quantile(0.999).as_nanos() as u64);
    report.host.fixed("speedup_8_thread", speedup8, 4);
    report.counts.row("obs").flag(
        "disabled_ops_under_bound",
        obs_ns.iter().all(|&(_, ns)| ns < OBS_DISABLED_NS_BOUND),
    );
    let host_obs = report.host.row("obs");
    for (op, ns) in obs_ns {
        host_obs.fixed(op, ns, 3);
    }
    report.finish(&mode);
}
