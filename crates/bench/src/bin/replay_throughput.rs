//! Replay-engine throughput: serial oracle vs the concurrent sharded driver
//! at 1/2/4/8 worker threads, on a full APAC day trace.
//!
//! Every variant drives the *same* trace through a fresh
//! [`sb_core::RealtimeSelector`] and must produce a byte-identical
//! [`sb_sim::ReplayStats`] — floats included — before its wall time counts;
//! the run aborts on the first divergence. Calls/sec is measured over the
//! drive phase only (the part the concurrent engine parallelizes); the
//! accounting pass is serial by design and identical across variants.
//!
//! Usage: `replay_throughput [--smoke] [--json <path>]`
//!
//! `--smoke` shrinks the workload and skips the speedup assertion — it is the
//! CI gate for serial/concurrent equivalence. The full run asserts a >= 3x
//! drive speedup at 8 threads, but only when the host actually has 8 hardware
//! threads to run them on; either way the measured numbers and the hardware
//! parallelism land in `BENCH_replay.json` and
//! `results/replay_throughput.txt`.

use std::fmt::Write as _;
use std::time::Instant;

use sb_bench::common::{json_path_from_args, print_table, spread_plan_day};
use sb_core::formulation::ScenarioData;
use sb_core::{PlanArtifact, RealtimeSelector};
use sb_net::FailureScenario;
use sb_sim::{replay, replay_concurrent, ReplayConfig, ReplayReport};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let json_path = json_path_from_args("BENCH_replay.json");
    let reps = if smoke { 1 } else { 3 };
    let topo = sb_net::presets::apac();
    let (db, quotas) = spread_plan_day(&topo, smoke);
    let sd0 = ScenarioData::compute(&topo, FailureScenario::None);
    let cfg = ReplayConfig::default();

    let run = |threads: Option<usize>| -> ReplayReport {
        let selector =
            RealtimeSelector::from_artifact(&sd0.latmap, &PlanArtifact::seed(quotas.clone()));
        match threads {
            None => replay(
                &topo,
                &sd0.routing,
                &sd0.latmap,
                db.catalog(),
                &db,
                &selector,
                &cfg,
            ),
            Some(n) => replay_concurrent(
                &topo,
                &sd0.routing,
                &sd0.latmap,
                db.catalog(),
                &db,
                &selector,
                &cfg,
                n,
            ),
        }
    };
    // best-of-reps drive time per variant; stats must match on every rep
    let best_of = |threads: Option<usize>, oracle: Option<&ReplayReport>| -> (f64, ReplayReport) {
        let mut best: Option<(f64, ReplayReport)> = None;
        for _ in 0..reps {
            let t0 = Instant::now();
            let report = run(threads);
            let _wall = t0.elapsed();
            if let Some(serial) = oracle {
                assert_eq!(
                    serial.stats(),
                    report.stats(),
                    "concurrent replay (threads={threads:?}) diverged from the serial oracle"
                );
            }
            let drive = report.timing.drive.as_secs_f64();
            if best.as_ref().is_none_or(|(d, _)| drive < *d) {
                best = Some((drive, report));
            }
        }
        best.expect("at least one rep")
    };

    let (serial_drive, serial) = best_of(None, None);
    let calls = serial.calls;
    eprintln!(
        "serial: {:.3}s drive, {:.0} calls/s",
        serial_drive,
        calls as f64 / serial_drive
    );
    let mut variants: Vec<(String, f64)> = vec![("serial".to_string(), serial_drive)];
    for &t in &THREAD_COUNTS {
        let (drive, _) = best_of(Some(t), Some(&serial));
        eprintln!(
            "{t} thread(s): {:.3}s drive, {:.0} calls/s",
            drive,
            calls as f64 / drive
        );
        variants.push((format!("{t}-thread"), drive));
    }

    let hardware = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let speedup8 = serial_drive / variants.last().unwrap().1;

    println!("== Replay throughput: serial oracle vs concurrent sharded driver ==\n");
    println!(
        "APAC, {calls} calls, best of {reps}, {hardware} hardware thread(s); \
         aggregate ReplayStats byte-identical across all variants\n"
    );
    let rows: Vec<Vec<String>> = variants
        .iter()
        .map(|(name, drive)| {
            vec![
                name.clone(),
                format!("{drive:.3}"),
                format!("{:.0}", calls as f64 / drive),
                format!("{:.2}x", serial_drive / drive),
            ]
        })
        .collect();
    print_table(&["variant", "drive(s)", "calls/s", "speedup"], &rows);
    println!("\n8-thread speedup over serial: {speedup8:.2}x");

    if !smoke {
        if hardware >= 8 {
            assert!(
                speedup8 >= 3.0,
                "expected >= 3x drive speedup at 8 threads, measured {speedup8:.2}x"
            );
        } else {
            println!(
                "note: host has only {hardware} hardware thread(s) — the >= 3x \
                 speedup assertion needs 8 and was skipped; equivalence was still \
                 asserted on every run"
            );
        }
    }

    // machine-readable dump
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"replay_throughput\",\n");
    out.push_str("  \"topology\": \"apac\",\n");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(out, "  \"reps\": {reps},");
    let _ = writeln!(out, "  \"calls\": {calls},");
    let _ = writeln!(out, "  \"hardware_threads\": {hardware},");
    out.push_str("  \"stats_identical\": true,\n");
    out.push_str("  \"variants\": [\n");
    for (i, (name, drive)) in variants.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"drive_s\": {drive:.6}, \
             \"calls_per_sec\": {:.1}, \"speedup_vs_serial\": {:.4}}}{}",
            calls as f64 / drive,
            serial_drive / drive,
            if i + 1 < variants.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n");
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
            "Replay throughput — APAC, {calls} calls, best of {reps}, \
             {hardware} hardware thread(s)\n"
        );
        let _ = writeln!(
            txt,
            "{:<10} {:>9} {:>10} {:>8}",
            "variant", "drive(s)", "calls/s", "speedup"
        );
        for (name, drive) in &variants {
            let _ = writeln!(
                txt,
                "{name:<10} {drive:>9.3} {:>10.0} {:>7.2}x",
                calls as f64 / drive,
                serial_drive / drive
            );
        }
        let _ = writeln!(
            txt,
            "\naggregate ReplayStats byte-identical across all variants; \
             8-thread speedup {speedup8:.2}x"
        );
        if let Err(e) = std::fs::write("results/replay_throughput.txt", txt) {
            eprintln!("failed to write results/replay_throughput.txt: {e}");
        } else {
            eprintln!("wrote results/replay_throughput.txt");
        }
    }
}
