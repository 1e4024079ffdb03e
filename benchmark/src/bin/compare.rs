//! `sb-benchmark-compare [--exact-counts] FIRST.json... --vs SECOND.json...`
//! (or just `FIRST.json SECOND.json`)
//!
//! Prints better / same / worse / unresolved per (metric, workload) and
//! exits non-zero on any end-to-end "worse" (per-layer metrics carry no
//! bound), on a higher `ops_failed ÷ ops_attempted`,
//! or (with `--exact-counts`, for two runs of one commit) on any count
//! metric that differs.

use std::process::ExitCode;

use sb_benchmark::compare::compare;
use sb_benchmark::json::Json;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let mut exact = false;
    let mut sets: [Vec<String>; 2] = [Vec::new(), Vec::new()];
    let mut side = 0;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--exact-counts" => exact = true,
            "--vs" => side = 1,
            _ => sets[side].push(a),
        }
    }
    // two bare files mean one file per side
    if side == 0 && sets[0].len() == 2 {
        sets[1] = sets[0].split_off(1);
    }
    if sets.iter().any(Vec::is_empty) {
        eprintln!("usage: sb-benchmark-compare [--exact-counts] FIRST.json... --vs SECOND.json...");
        return ExitCode::from(2);
    }
    let loaded: Result<Vec<Vec<Json>>, String> = sets
        .iter()
        .map(|set| set.iter().map(|f| load(f)).collect())
        .collect();
    let (a, b) = match loaded.as_deref() {
        Ok([a, b]) => (a, b),
        Ok(_) => unreachable!("two sets were loaded"),
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let traced = |d: &Json| d.get("header").and_then(|h| h.get("traced")).cloned();
    if a.iter().chain(b).any(|d| traced(d) != traced(&a[0])) {
        eprintln!("some files are from traced runs and some are not");
        return ExitCode::from(2);
    }
    let (rows, failed) = compare(a, b, exact);
    println!(
        "{:<15} {:<30} {:>16} {:>16} {:>8} {:>8}  verdict",
        "workload", "metric", "first", "second", "change", "spread"
    );
    for r in &rows {
        println!(
            "{:<15} {:<30} {:>16.6} {:>16.6} {:>+7.1}% {:>7.1}%  {} ({})",
            r.workload,
            r.metric,
            r.a.value,
            r.b.value,
            (r.b.value - r.a.value) / r.a.value.abs() * 100.0,
            r.a.spread.unwrap_or(0.0) * 100.0,
            r.verdict.label(),
            r.a.unit
        );
    }
    if rows.is_empty() {
        eprintln!("the files share no metric");
        return ExitCode::from(2);
    }
    if failed {
        println!("FAILED: an end-to-end metric is worse than its bound, a count differs, or more operations failed");
        ExitCode::FAILURE
    } else {
        println!("ok: nothing worse than its bound");
        ExitCode::SUCCESS
    }
}
