//! The whole harness at smoke sizes, in process: every stage runs, every
//! correctness gate holds, no operation fails, and both kinds of run report
//! every metric the tables name.

use std::path::PathBuf;

use sb_benchmark::emit::{driver_line, workload_json};
use sb_benchmark::harness::Opts;
use sb_benchmark::json::Json;
use sb_benchmark::spec::{END_TO_END, PER_LAYER};

fn opts(traced: bool) -> Opts {
    Opts {
        workload: "chain_apac_4w".into(),
        seed: 7,
        seconds: 0.0,
        traced,
        smoke: true,
        wal_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")),
        expected_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/expected")),
        record_expected: false,
    }
}

fn check(traced: bool, names: &[&str]) {
    let o = opts(traced);
    let rep = sb_benchmark::run_workload(&o).expect("known workload");
    for g in &rep.gates {
        assert!(g.ok, "gate failed: {} ({})", g.name, g.detail);
    }
    assert!(rep.gates.len() >= 12, "gates ran: {}", rep.gates.len());
    assert_eq!(rep.failed, 0);
    assert!(rep.attempted > 10_000);
    let line = driver_line(&workload_json(&o, &rep));
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    let metrics = line.get("metrics").and_then(Json::as_obj).unwrap();
    assert_eq!(
        metrics.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
        names
    );
    for (name, m) in metrics {
        let v = m.get("value").and_then(Json::as_f64);
        assert!(v.is_some_and(f64::is_finite), "{name} has no finite value");
    }
}

/// One test, two runs in sequence: both write WAL files named after the
/// process and the traced run switches the process-wide `sb_obs` registry
/// on, so they must not overlap.
#[test]
fn smoke_runs_hold_every_gate_and_report_every_metric() {
    check(false, &END_TO_END.map(|m| m.name));
    let names: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    check(true, &names);
}
