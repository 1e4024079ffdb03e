//! Crash-recovery drill over the journaled `sb-engine`: seeded APAC day
//! traces are driven through a write-ahead-journaled engine that is killed
//! at randomized operation indices, recovered from the journal, and driven
//! to completion — the final [`sb_sim::ReplayStats`] must be
//! bitwise-identical (floats included) to the serial no-crash replay
//! oracle, for every workload × kill point.
//!
//! On top of the single-crash sweep each workload runs a multi-crash drill
//! (three kills in one run) and a journal-stall drill (slow-disk appends,
//! then a crash); a journal-drop drill asserts the *typed* failure
//! contract: dropped appends either surface as a typed divergence error at
//! recovery or the run completes with oracle-equal stats — never silent
//! divergence. A final overload leg offers the trace at 2× the queue-depth
//! watermark and requires typed sheds, zero panics, and a p99 op latency
//! within the configured admission deadline.
//!
//! Usage: `crash_recovery_drill [--json <path> | --check <path>]`
//!
//! `--json` records `BENCH_crash.json` and
//! `results/crash_recovery_drill.txt`, `--check` compares the counts with
//! the committed file ([`sb_bench::report`]).

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sb_bench::common::{seeded_worlds, SeededWorld as World};
use sb_bench::load::{drive_serial, LoadSchedule};
use sb_bench::report::{Mode, Report};
use sb_core::formulation::ScenarioData;
use sb_core::RealtimeSelector;
use sb_engine::{Engine, EngineConfig, OverloadConfig};
use sb_net::FailureScenario;
use sb_sim::crash::{drive_with_crashes, CrashDrillConfig, CrashDrillError, ServiceFault};
use sb_sim::replay::{build_events, EV_END, EV_START};
use sb_sim::{replay, ReplayConfig, ReplayStats};
use sb_store::JournalConfig;
use sb_workload::{CallRecord, CallRecordsDb};

/// Single-crash kill points drawn per world.
const KILL_POINTS_PER_WORLD: usize = 8;

fn oracle_stats(w: &World, rcfg: &ReplayConfig) -> ReplayStats {
    let sd0 = ScenarioData::compute(&w.topo, FailureScenario::None);
    let selector = RealtimeSelector::from_artifact(&sd0.latmap, &w.artifact);
    replay(
        &w.topo,
        &sd0.routing,
        &sd0.latmap,
        w.db.catalog(),
        &w.db,
        &selector,
        rcfg,
    )
    .stats()
}

fn journal_path(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sb-crash-drill-{tag}-{}.wal", std::process::id()));
    p
}

/// Group commit that never fires on its own wall clock: every injected
/// crash genuinely discards its unsynced tail.
fn wide_group_commit() -> JournalConfig {
    JournalConfig {
        group_commit: Duration::from_secs(3600),
        sync_every: 32,
    }
}

fn main() {
    let mode = Mode::from_args();
    // crash recovery must be exact on all four regimes
    let worlds = seeded_worlds();
    let rcfg = ReplayConfig::default();

    let mut report = Report::new("crash_recovery_drill");
    let mut total_drills = 0u64;
    for w in &worlds {
        let started = Instant::now();
        let oracle = oracle_stats(w, &rcfg);
        let total_ops = build_events(w.db.records(), rcfg.freeze_minutes).len() as u64;
        eprintln!(
            "world {}: {} calls, {} scheduled ops",
            w.name,
            w.db.len(),
            total_ops
        );

        // one drill: the world driven under `faults`, its journal removed after
        let drill = |tag: &str, journal: JournalConfig, faults: Vec<ServiceFault>| {
            let cfg = CrashDrillConfig {
                replay: rcfg.clone(),
                journal,
                engine: EngineConfig::default(),
                faults,
            };
            let path = journal_path(&format!("{}-{tag}", w.name));
            let out = drive_with_crashes(&w.topo, w.db.catalog(), &w.db, &w.artifact, &cfg, &path);
            let _ = std::fs::remove_file(&path);
            out
        };
        // a drill that must complete and recover to the oracle bit for bit
        let (mut crashes, mut redriven, mut lost) = (0u64, 0u64, 0u64);
        let mut recovers = |tag: &str, faults: Vec<ServiceFault>| {
            let out = drill(tag, wide_group_commit(), faults).unwrap_or_else(|e| {
                eprintln!("world {} {tag}: drill failed: {e}", w.name);
                std::process::exit(1);
            });
            assert_eq!(
                out.stats, oracle,
                "world {} {tag}: recovered stats diverged from the no-crash oracle",
                w.name
            );
            crashes += out.crashes;
            redriven += out.redriven_ops;
            lost += out.journal_lost_records;
        };

        // randomized single-crash sweep: kill, recover, finish, compare
        let mut rng = StdRng::seed_from_u64(w.db.len() as u64 ^ 0x5bd1e995);
        let mut kill_points: Vec<u64> = (0..KILL_POINTS_PER_WORLD)
            .map(|_| rng.gen_range(1..total_ops))
            .collect();
        kill_points.sort_unstable();
        kill_points.dedup();
        for &at_op in &kill_points {
            recovers(
                &format!("kill@{at_op}"),
                vec![ServiceFault::CrashAtOp { at_op }],
            );
        }

        // multi-crash: three kills in one run
        let mut multi: Vec<u64> = (0..3).map(|_| rng.gen_range(1..total_ops)).collect();
        multi.sort_unstable();
        multi.dedup();
        let kills = multi.iter().map(|&at_op| ServiceFault::CrashAtOp { at_op });
        recovers("multi-crash", kills.collect());

        // journal stall (slow disk) + a crash: durability unaffected
        let stall_at = rng.gen_range(1..total_ops);
        recovers(
            "stall+crash",
            vec![
                ServiceFault::JournalStall {
                    at_op: stall_at,
                    ops: 32,
                    stall: Duration::from_micros(50),
                },
                ServiceFault::CrashAtOp {
                    at_op: (stall_at + 64).min(total_ops - 1),
                },
            ],
        );

        // journal drop (dead volume) + a later crash: the contract is
        // typed-error-or-equal, never silent divergence
        let drop_at = rng.gen_range(1..total_ops / 2);
        let synced_every_record = JournalConfig {
            sync_every: 1,
            ..JournalConfig::default()
        };
        let dropped = vec![
            ServiceFault::JournalDrop {
                at_op: drop_at,
                ops: 8,
            },
            ServiceFault::CrashAtOp {
                at_op: (drop_at + 32).min(total_ops - 1),
            },
        ];
        let drop_outcome = match drill("drop", synced_every_record, dropped) {
            Err(CrashDrillError::LogMismatch { .. }) => "typed-log-mismatch",
            Err(CrashDrillError::Recovery(_)) => "typed-recovery-refusal",
            Err(CrashDrillError::Boot(e)) => {
                eprintln!("world {} drop drill failed to boot: {e}", w.name);
                std::process::exit(1);
            }
            Ok(out) => {
                assert_eq!(
                    out.stats, oracle,
                    "world {}: drop run completed but diverged — silent divergence",
                    w.name
                );
                "completed-equal"
            }
        };
        total_drills += kill_points.len() as u64 + 3;

        eprintln!(
            "world {}: {} drills ok ({crashes} crashes, {redriven} ops redriven, \
             {lost} journal records lost, drop={drop_outcome})",
            w.name,
            kill_points.len() + 3
        );
        report
            .counts
            .row("worlds")
            .row(w.name)
            .int("calls", w.db.len() as u64)
            .ints("kill_points", kill_points)
            .int("crashes", crashes)
            .int("redriven_ops", redriven)
            .int("lost_records", lost)
            .label("drop_outcome", drop_outcome);
        report
            .host
            .row("worlds")
            .row(w.name)
            .fixed("wall_s", started.elapsed().as_secs_f64(), 3);
    }

    // overload leg: the chaos-seed trace duplicated (offset ids) is offered
    // at 2× the queue-depth watermark; the engine must shed typed, never
    // panic, and hold p99 op latency within the admission deadline
    let ow = &worlds[3];
    let mut live = 0i64;
    let mut peak_live = 0i64;
    for &(_, kind, _) in &build_events(ow.db.records(), rcfg.freeze_minutes) {
        match kind {
            EV_START => {
                live += 1;
                peak_live = peak_live.max(live);
            }
            EV_END => live -= 1,
            _ => {}
        }
    }
    let watermark = (peak_live as usize).max(2);
    let mut doubled: Vec<CallRecord> = ow.db.records().to_vec();
    doubled.extend(ow.db.records().iter().map(|r| {
        let mut d = r.clone();
        d.id += 10_000_000;
        d
    }));
    let mut db2 = CallRecordsDb::new(ow.db.catalog().clone());
    for r in doubled {
        db2.push(r);
    }
    let deadline = Duration::from_millis(5);
    let sd0 = ScenarioData::compute(&ow.topo, FailureScenario::None);
    let engine = Engine::new(
        &sd0.latmap,
        &ow.artifact,
        &EngineConfig {
            overload: OverloadConfig {
                active_watermark: Some(watermark),
                admit_deadline: Some(deadline),
                ..OverloadConfig::default()
            },
            ..EngineConfig::default()
        },
    );
    let sched = LoadSchedule::new(db2.records(), rcfg.freeze_minutes);
    let _ = drive_serial(&engine, db2.records(), &sched);
    let stats = engine.stats();
    let sheds = stats.shed_queue_depth + stats.shed_latency + stats.shed_store;
    let p99 = engine.op_latency().quantile(0.99);
    assert!(
        sheds > 0,
        "2x overload must shed typed (watermark {watermark}, peak live 2x that)"
    );
    assert!(
        p99 <= deadline,
        "p99 op latency {p99:?} exceeded the {deadline:?} admission deadline under overload"
    );
    eprintln!(
        "overload leg: watermark {watermark}, {} admits, {sheds} typed sheds, p99 {p99:?}",
        stats.admitted
    );

    report
        .counts
        .label("topology", "apac")
        .int("drills", total_drills)
        // every completed drill compared equal to the no-crash oracle
        .flag("stats_identical", true);
    // sheds are typed by queue depth here; a latency shed needs a 5 ms
    // admit EWMA, which the p99 assertion above rules out
    report
        .counts
        .row("overload")
        .int("watermark", watermark as u64)
        .int("typed_sheds", sheds)
        .int("admits", stats.admitted)
        .int("deadline_ns", deadline.as_nanos() as u64)
        .int("panics", 0);
    report
        .host
        .row("overload")
        .int("p99_op_ns", p99.as_nanos() as u64);
    report.finish(&mode);
}
