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
//! Usage: `crash_recovery_drill [--smoke] [--json <path>]`
//!
//! `--smoke` shrinks the workloads and kill-point counts — it is the CI
//! gate for crash-safety. The full run writes `BENCH_crash.json` and
//! `results/crash_recovery_drill.txt`.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sb_bench::common::json_path_from_args;
use sb_bench::load::{drive_serial, LoadSchedule};
use sb_core::formulation::ScenarioData;
use sb_core::{AllocationShares, PlanArtifact, PlannedQuotas, RealtimeSelector};
use sb_engine::{Engine, EngineConfig, OverloadConfig};
use sb_net::{FailureScenario, Topology};
use sb_sim::crash::{drive_with_crashes, CrashDrillConfig, CrashDrillError, ServiceFault};
use sb_sim::replay::{build_events, EV_END, EV_START};
use sb_sim::{replay, ReplayConfig, ReplayStats};
use sb_store::JournalConfig;
use sb_workload::{
    CallRecord, CallRecordsDb, ConfigCatalog, Generator, UniverseParams, WorkloadParams,
};

struct World {
    name: &'static str,
    topo: Topology,
    catalog: ConfigCatalog,
    db: CallRecordsDb,
    artifact: PlanArtifact,
}

/// A seeded APAC day: sampled trace + a synthetic plan spreading each
/// planned config across every DC (same construction as the replay
/// differential tests; `quota_scale` < 1 runs the pools dry mid-day so the
/// overflow/unplanned paths are part of what recovery must reproduce).
fn world(
    name: &'static str,
    seed: u64,
    daily_calls: f64,
    coverage: f64,
    quota_scale: f64,
) -> World {
    let topo = sb_net::presets::apac();
    let params = WorkloadParams {
        universe: UniverseParams {
            num_configs: 250,
            seed,
            ..Default::default()
        },
        daily_calls,
        slot_minutes: 120,
        seed,
        ..Default::default()
    };
    let generator = Generator::new(&topo, params);
    let day = 2;
    let expected = generator.expected_demand(day, 1);
    let selected = expected.top_configs_covering(coverage);
    let planned = expected.filtered(&selected).scaled(quota_scale);
    let db = generator.sample_records(day, 1, seed);

    let slots = planned.num_slots();
    let mut shares = AllocationShares::new(slots);
    let n = topo.dcs.len() as f64;
    let spread: Vec<_> = topo.dc_ids().map(|d| (d, 1.0 / n)).collect();
    for &cfg in &selected {
        for s in 0..slots {
            shares.set(cfg, s, spread.clone());
        }
    }
    let quotas = PlannedQuotas::from_plan(&shares, &planned);
    World {
        name,
        catalog: generator.universe().catalog.clone(),
        topo,
        db,
        artifact: PlanArtifact::seed(quotas),
    }
}

fn oracle_stats(w: &World, rcfg: &ReplayConfig) -> ReplayStats {
    let sd0 = ScenarioData::compute(&w.topo, FailureScenario::None);
    let selector = RealtimeSelector::from_artifact(&sd0.latmap, &w.artifact);
    replay(
        &w.topo,
        &sd0.routing,
        &sd0.latmap,
        &w.catalog,
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

struct WorldResult {
    name: &'static str,
    calls: u64,
    kill_points: Vec<u64>,
    crashes: u64,
    redriven_ops: u64,
    lost_records: u64,
    drop_outcome: &'static str,
    wall: Duration,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let json_path = json_path_from_args("BENCH_crash.json");
    let kill_points_per_world = if smoke { 2 } else { 8 };
    let calls_scale = if smoke { 0.15 } else { 1.0 };

    // the four seeded workloads of the replay differential suite: ample
    // quota, quota pressure (pools run dry), capacity-checked, and the
    // chaos seed — crash recovery must be exact on all of them
    let worlds = [
        world("ample", 11, 6_000.0 * calls_scale, 0.95, 1.3),
        world("pressure", 23, 8_000.0 * calls_scale, 0.90, 0.4),
        world("capacity", 37, 5_000.0 * calls_scale, 0.92, 1.0),
        world("chaos-seed", 53, 5_000.0 * calls_scale, 0.92, 1.2),
    ];
    let rcfg = ReplayConfig::default();

    let mut results: Vec<WorldResult> = Vec::new();
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

        // randomized single-crash sweep: kill, recover, finish, compare
        let mut rng = StdRng::seed_from_u64(w.db.len() as u64 ^ 0x5bd1e995);
        let mut kill_points: Vec<u64> = (0..kill_points_per_world)
            .map(|_| rng.gen_range(1..total_ops))
            .collect();
        kill_points.sort_unstable();
        kill_points.dedup();
        let mut crashes = 0u64;
        let mut redriven = 0u64;
        let mut lost = 0u64;
        for (n, &at_op) in kill_points.iter().enumerate() {
            let cfg = CrashDrillConfig {
                replay: rcfg.clone(),
                journal: wide_group_commit(),
                engine: EngineConfig::default(),
                faults: vec![ServiceFault::CrashAtOp { at_op }],
            };
            let path = journal_path(&format!("{}-k{n}", w.name));
            let out = drive_with_crashes(&w.topo, &w.catalog, &w.db, &w.artifact, &cfg, &path)
                .unwrap_or_else(|e| {
                    eprintln!("world {} kill@{at_op}: drill failed: {e}", w.name);
                    std::process::exit(1);
                });
            let _ = std::fs::remove_file(&path);
            assert_eq!(
                out.stats, oracle,
                "world {} kill@{at_op}: recovered stats diverged from the no-crash oracle",
                w.name
            );
            crashes += out.crashes;
            redriven += out.redriven_ops;
            lost += out.journal_lost_records;
            total_drills += 1;
        }

        // multi-crash: three kills in one run
        let mut multi: Vec<u64> = (0..3).map(|_| rng.gen_range(1..total_ops)).collect();
        multi.sort_unstable();
        multi.dedup();
        let cfg = CrashDrillConfig {
            replay: rcfg.clone(),
            journal: wide_group_commit(),
            engine: EngineConfig::default(),
            faults: multi
                .iter()
                .map(|&at_op| ServiceFault::CrashAtOp { at_op })
                .collect(),
        };
        let path = journal_path(&format!("{}-multi", w.name));
        let out = drive_with_crashes(&w.topo, &w.catalog, &w.db, &w.artifact, &cfg, &path)
            .unwrap_or_else(|e| {
                eprintln!("world {} multi-crash drill failed: {e}", w.name);
                std::process::exit(1);
            });
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            out.stats, oracle,
            "world {}: multi-crash run diverged from the no-crash oracle",
            w.name
        );
        crashes += out.crashes;
        redriven += out.redriven_ops;
        lost += out.journal_lost_records;
        total_drills += 1;

        // journal stall (slow disk) + a crash: durability unaffected
        let stall_at = rng.gen_range(1..total_ops);
        let cfg = CrashDrillConfig {
            replay: rcfg.clone(),
            journal: wide_group_commit(),
            engine: EngineConfig::default(),
            faults: vec![
                ServiceFault::JournalStall {
                    at_op: stall_at,
                    ops: 32,
                    stall: Duration::from_micros(50),
                },
                ServiceFault::CrashAtOp {
                    at_op: (stall_at + 64).min(total_ops - 1),
                },
            ],
        };
        let path = journal_path(&format!("{}-stall", w.name));
        let out = drive_with_crashes(&w.topo, &w.catalog, &w.db, &w.artifact, &cfg, &path)
            .unwrap_or_else(|e| {
                eprintln!("world {} stall drill failed: {e}", w.name);
                std::process::exit(1);
            });
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            out.stats, oracle,
            "world {}: stall+crash run diverged from the no-crash oracle",
            w.name
        );
        crashes += out.crashes;
        redriven += out.redriven_ops;
        lost += out.journal_lost_records;
        total_drills += 1;

        // journal drop (dead volume) + a later crash: the contract is
        // typed-error-or-equal, never silent divergence
        let drop_at = rng.gen_range(1..total_ops / 2);
        let cfg = CrashDrillConfig {
            replay: rcfg.clone(),
            journal: JournalConfig {
                sync_every: 1,
                ..JournalConfig::default()
            },
            engine: EngineConfig::default(),
            faults: vec![
                ServiceFault::JournalDrop {
                    at_op: drop_at,
                    ops: 8,
                },
                ServiceFault::CrashAtOp {
                    at_op: (drop_at + 32).min(total_ops - 1),
                },
            ],
        };
        let path = journal_path(&format!("{}-drop", w.name));
        let drop_outcome =
            match drive_with_crashes(&w.topo, &w.catalog, &w.db, &w.artifact, &cfg, &path) {
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
        let _ = std::fs::remove_file(&path);
        total_drills += 1;

        eprintln!(
            "world {}: {} drills ok ({crashes} crashes, {redriven} ops redriven, \
             {lost} journal records lost, drop={drop_outcome})",
            w.name,
            kill_points.len() + 3
        );
        results.push(WorldResult {
            name: w.name,
            calls: w.db.len() as u64,
            kill_points,
            crashes,
            redriven_ops: redriven,
            lost_records: lost,
            drop_outcome,
            wall: started.elapsed(),
        });
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
    let mut db2 = CallRecordsDb::new(ow.catalog.clone());
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

    println!("== Crash-recovery drill: journaled sb-engine vs serial no-crash oracle ==\n");
    println!(
        "{} drills across {} seeded APAC workloads; every completed run's \
         ReplayStats bitwise-equal to the oracle\n",
        total_drills,
        worlds.len()
    );
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                r.calls.to_string(),
                r.kill_points.len().to_string(),
                r.crashes.to_string(),
                r.redriven_ops.to_string(),
                r.lost_records.to_string(),
                r.drop_outcome.to_string(),
                format!("{:.2}", r.wall.as_secs_f64()),
            ]
        })
        .collect();
    sb_bench::common::print_table(
        &[
            "world", "calls", "kills", "crashes", "redriven", "lost", "drop", "wall(s)",
        ],
        &rows,
    );
    println!(
        "\noverload: watermark {watermark}, {} typed sheds, 0 panics, p99 {p99:?} <= {deadline:?}",
        sheds
    );

    // machine-readable dump
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"crash_recovery_drill\",\n");
    out.push_str("  \"topology\": \"apac\",\n");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(out, "  \"drills\": {total_drills},");
    out.push_str("  \"stats_identical\": true,\n");
    out.push_str("  \"worlds\": [\n");
    for (i, r) in results.iter().enumerate() {
        let kills: Vec<String> = r.kill_points.iter().map(|k| k.to_string()).collect();
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"calls\": {}, \"kill_points\": [{}], \
             \"crashes\": {}, \"redriven_ops\": {}, \"lost_records\": {}, \
             \"drop_outcome\": \"{}\", \"wall_s\": {:.3}}}{}",
            r.name,
            r.calls,
            kills.join(", "),
            r.crashes,
            r.redriven_ops,
            r.lost_records,
            r.drop_outcome,
            r.wall.as_secs_f64(),
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n");
    let _ = writeln!(
        out,
        "  \"overload\": {{\"watermark\": {watermark}, \"typed_sheds\": {sheds}, \
         \"admits\": {}, \"p99_op_ns\": {}, \"deadline_ns\": {}, \"panics\": 0}}",
        stats.admitted,
        p99.as_nanos(),
        deadline.as_nanos()
    );
    out.push_str("}\n");
    match std::fs::write(&json_path, &out) {
        Ok(()) => eprintln!("wrote {json_path}"),
        Err(e) => {
            eprintln!("failed to write {json_path}: {e}");
            std::process::exit(1);
        }
    }
    if !smoke {
        let mut txt = String::new();
        let _ = writeln!(
            txt,
            "Crash-recovery drill — {} drills across {} seeded APAC workloads\n",
            total_drills,
            worlds.len()
        );
        let _ = writeln!(
            txt,
            "{:<12} {:>6} {:>6} {:>8} {:>9} {:>6} {:>22} {:>8}",
            "world", "calls", "kills", "crashes", "redriven", "lost", "drop", "wall(s)"
        );
        for r in &results {
            let _ = writeln!(
                txt,
                "{:<12} {:>6} {:>6} {:>8} {:>9} {:>6} {:>22} {:>8.2}",
                r.name,
                r.calls,
                r.kill_points.len(),
                r.crashes,
                r.redriven_ops,
                r.lost_records,
                r.drop_outcome,
                r.wall.as_secs_f64()
            );
        }
        let _ = writeln!(
            txt,
            "\nevery completed drill bitwise-equal to the serial no-crash oracle;\n\
             overload: watermark {watermark}, {sheds} typed sheds, 0 panics, \
             p99 {p99:?} <= {deadline:?}"
        );
        if let Err(e) = std::fs::write("results/crash_recovery_drill.txt", txt) {
            eprintln!("failed to write results/crash_recovery_drill.txt: {e}");
        } else {
            eprintln!("wrote results/crash_recovery_drill.txt");
        }
    }
}
