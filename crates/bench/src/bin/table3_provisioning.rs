//! Table 3: resources provisioned (cores, inter-country WAN Gbps), cost and
//! mean ACL for RR, LF and Switchboard, with and without backup capacity,
//! normalized to RR.
//!
//! Usage: `table3_provisioning [--json <path> | --check <path>] [--metrics <path>]`
//!
//! `--json` records `BENCH_table3.json` and `results/table3_provisioning.txt`,
//! `--check` compares the counts with the committed file
//! ([`sb_bench::report`]): per column and scheme the normalized and absolute
//! cores, WAN, cost and ACL, and the paper's shape checks as booleans.
//! `--metrics` enables the observability registry and writes per-scenario LP
//! metrics (rows/cols, simplex iterations, wall times, increment cost) plus
//! aggregate counters to the given path (TSV, or NDJSON for `.ndjson`).
//!
//! Paper (Table 3), normalized to RR — cores/WAN/cost/ACL:
//! without backup LF 1.08/0.18/0.35/0.45, SB 1.00/0.14/0.29/0.51;
//! with backup LF 1.10/0.55/0.64/0.45, SB 1.00/0.43/0.49/0.45.

use std::time::Instant;

use sb_bench::common::{build_eval, dump_metrics, metrics_path_from_args, table3_rows, EvalScale};
use sb_bench::report::{Mode, Report};
use sb_core::formulation::PlanningInputs;

fn main() {
    let metrics = metrics_path_from_args();
    let mode = Mode::from_args();
    let started = Instant::now();
    let data = build_eval(&EvalScale::default_eval());
    let inputs = PlanningInputs::new(&data.topo, &data.catalog, &data.demand_env);

    let mut report = Report::new("table3_provisioning");
    report
        .counts
        .int("head_configs", data.selected.len() as u64)
        .fixed("coverage", data.coverage_achieved, 4);
    let columns = [("without_backup", false), ("with_backup", true)];
    // the two columns' tables, then their shape checks
    for (column, _) in columns {
        report.counts.row(column);
    }
    for (column, with_backup) in columns {
        let t = Instant::now();
        let rows = table3_rows(&inputs, with_backup);
        report
            .host
            .fixed(&format!("{column}_s"), t.elapsed().as_secs_f64(), 1);
        let [rr, lf, sb] = &rows[..] else {
            unreachable!("table3_rows returns RR, LF and SB")
        };
        for r in &rows {
            report
                .counts
                .row(column)
                .row(r.scheme)
                .fixed("cores", r.cores / rr.cores, 2)
                .fixed("wan", r.wan / rr.wan, 2)
                .fixed("cost", r.cost / rr.cost, 2)
                .fixed("acl", r.acl / rr.acl, 2)
                .fixed("cores_abs", r.cores, 0)
                .fixed("wan_abs", r.wan, 1)
                .fixed("cost_abs", r.cost, 0)
                .fixed("acl_ms", r.acl, 1);
        }
        let shape = report.counts.row("shape").row(column);
        shape
            .flag(
                "cost_sb_lt_lf_lt_rr",
                sb.cost < lf.cost && lf.cost < rr.cost,
            )
            .flag("lf_cores_gt_rr", lf.cores > rr.cores)
            .flag("wan_sb_lt_rr", sb.wan < rr.wan)
            .flag("sb_acl_le_120ms", sb.acl <= 120.0);
        if !with_backup {
            // the LP shaves the time-shifted peaks down to the global peak
            shape.flag("sb_cores_eq_rr", (sb.cores / rr.cores - 1.0).abs() < 0.005);
        }
    }
    report
        .host
        .fixed("wall_s", started.elapsed().as_secs_f64(), 1);
    report.finish(&mode);

    if let Some(path) = metrics {
        dump_metrics(&path);
    }
}
