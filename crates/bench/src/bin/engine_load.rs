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
//! Usage: `engine_load [--smoke] [--json <path>]`
//!
//! `--smoke` shrinks the workload and skips the performance assertions — it
//! is the CI gate for engine/oracle equivalence. The full run asserts at
//! least a 3x speedup over the serial replay drive and over 10M selector
//! ops/s at 8 threads, but only when the host has 8+ hardware threads;
//! either way the measured numbers land in `BENCH_engine.json` and
//! `results/engine_load.txt`.

use std::fmt::Write as _;

use sb_bench::common::{json_path_from_args, print_table, spread_plan_day};
use sb_bench::load::{drive_concurrent, drive_serial, DriveOutcome, LoadSchedule};
use sb_core::formulation::ScenarioData;
use sb_core::{PlanArtifact, RealtimeSelector};
use sb_engine::{Engine, EngineConfig};
use sb_net::FailureScenario;
use sb_sim::{replay, ReplayConfig};
use sb_store::LatencyHistogram;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let json_path = json_path_from_args("BENCH_engine.json");
    let reps = if smoke { 1 } else { 3 };
    let topo = sb_net::presets::apac();
    let (db, quotas) = spread_plan_day(&topo, smoke);
    let artifact = PlanArtifact::seed(quotas);
    let sd0 = ScenarioData::compute(&topo, FailureScenario::None);
    let rcfg = ReplayConfig::default();

    // the serial replay oracle: reference stats and the speedup baseline
    let mut oracle_drive = f64::MAX;
    let mut oracle = None;
    for _ in 0..reps {
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
        for _ in 0..reps {
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

    let hardware = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let best8 = variants.last().unwrap().1;
    let speedup8 = oracle_drive / best8.wall.as_secs_f64();
    let p50 = hist.quantile(0.5);
    let p99 = hist.quantile(0.99);
    let p999 = hist.quantile(0.999);

    println!("== Engine load: open-loop drive of sb-engine vs serial replay oracle ==\n");
    println!(
        "APAC, {calls} calls, {} scheduled events, best of {reps}, \
         {hardware} hardware thread(s); selector stats and per-DC tallies \
         equal to the oracle on every run\n",
        sched.len()
    );
    let rows: Vec<Vec<String>> = std::iter::once(vec![
        "replay-oracle".to_string(),
        format!("{oracle_drive:.3}"),
        "-".to_string(),
        "1.00x".to_string(),
    ])
    .chain(variants.iter().map(|(name, out)| {
        vec![
            name.clone(),
            format!("{:.3}", out.wall.as_secs_f64()),
            format!("{:.2}", out.ops_per_sec() / 1e6),
            format!("{:.2}x", oracle_drive / out.wall.as_secs_f64()),
        ]
    }))
    .collect();
    print_table(&["variant", "drive(s)", "Mops/s", "speedup"], &rows);
    println!("\nselector op latency (8-thread run): p50 {p50:?}, p99 {p99:?}, p999 {p999:?}");
    println!("8-thread speedup over serial replay: {speedup8:.2}x");

    if !smoke {
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
            println!(
                "note: host has only {hardware} hardware thread(s) — the >= 3x \
                 speedup and > 10M ops/s assertions need 8 and were skipped; \
                 equivalence was still asserted on every run"
            );
        }
    }

    // machine-readable dump
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"engine_load\",\n");
    out.push_str("  \"topology\": \"apac\",\n");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(out, "  \"reps\": {reps},");
    let _ = writeln!(out, "  \"calls\": {calls},");
    let _ = writeln!(out, "  \"events\": {},", sched.len());
    let _ = writeln!(out, "  \"hardware_threads\": {hardware},");
    out.push_str("  \"stats_identical\": true,\n");
    let _ = writeln!(out, "  \"oracle_drive_s\": {oracle_drive:.6},");
    out.push_str("  \"variants\": [\n");
    for (i, (name, o)) in variants.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"drive_s\": {:.6}, \
             \"ops_per_sec\": {:.1}, \"speedup_vs_oracle\": {:.4}}}{}",
            o.wall.as_secs_f64(),
            o.ops_per_sec(),
            oracle_drive / o.wall.as_secs_f64(),
            if i + 1 < variants.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n");
    let _ = writeln!(
        out,
        "  \"op_latency_ns\": {{\"p50\": {}, \"p99\": {}, \"p999\": {}}},",
        p50.as_nanos(),
        p99.as_nanos(),
        p999.as_nanos()
    );
    let _ = writeln!(out, "  \"speedup_8_thread\": {speedup8:.4}");
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
            "Engine load — APAC, {calls} calls, best of {reps}, \
             {hardware} hardware thread(s)\n"
        );
        let _ = writeln!(
            txt,
            "{:<14} {:>9} {:>8} {:>8}",
            "variant", "drive(s)", "Mops/s", "speedup"
        );
        let _ = writeln!(
            txt,
            "{:<14} {oracle_drive:>9.3} {:>8} {:>7.2}x",
            "replay-oracle", "-", 1.0
        );
        for (name, o) in &variants {
            let _ = writeln!(
                txt,
                "{name:<14} {:>9.3} {:>8.2} {:>7.2}x",
                o.wall.as_secs_f64(),
                o.ops_per_sec() / 1e6,
                oracle_drive / o.wall.as_secs_f64()
            );
        }
        let _ = writeln!(
            txt,
            "\nop latency p50 {p50:?} p99 {p99:?} p999 {p999:?}; \
             stats equal to the serial replay oracle on every run"
        );
        if let Err(e) = std::fs::write("results/engine_load.txt", txt) {
            eprintln!("failed to write results/engine_load.txt: {e}");
        } else {
            eprintln!("wrote results/engine_load.txt");
        }
    }
}
