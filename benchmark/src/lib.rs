//! # sb-benchmark — the repo's one benchmark
//!
//! Measures the Switchboard reproduction **from outside**: every number is a
//! time around, or a count read after, calls into the measured crates'
//! public functions; nothing under `crates/` is edited. See `README.md` in
//! this directory for the workloads, metrics and how they interact, and
//! `/BENCHMARK.json` for the contract the driver runs it by.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod emit;
pub mod events;
pub mod harness;
pub mod hostclock;
pub mod json;
pub mod spans;
pub mod spec;
pub mod stage_bare;
pub mod stage_chain;
pub mod stage_durable;
pub mod stage_plan;
pub mod stats;
pub mod world;

use harness::{interleave, Opts, Report};

/// Run every stage of `opts.workload` at its sizes and return the report.
/// `None` when the workload name is unknown.
///
/// The four stages set up one after the other and then run their timed
/// passes interleaved ([`harness::interleave`]): the workload's own stage
/// for `opts.seconds` (half of it in a traced run, which adds traced passes
/// of its own afterwards), the other three at probe size a fixed number of
/// times, spread over the same stretch.
pub fn run_workload(opts: &Opts) -> Option<Report> {
    let sizes = spec::sizes(&opts.workload, opts.smoke)?;
    let primary = spec::primary_stage(&opts.workload)?;
    let at = spec::STAGES.iter().position(|&s| s == primary)?;
    let budget_s = opts.seconds * if opts.traced { 0.5 } else { 1.0 };
    let mut rep = Report::new(opts);
    stage_chain::with(opts, &sizes.chain, at == 0, &mut rep, |rep, chain| {
        stage_plan::with(opts, &sizes.plan, at == 1, rep, |rep, plan| {
            stage_bare::with(opts, &sizes.bare, rep, |rep, bare| {
                stage_durable::with(opts, &sizes.durable, rep, |rep, durable| {
                    interleave(rep, budget_s, at, &mut [chain, plan, bare, durable]);
                })
            })
        })
    });
    if let (Some(&s), Some(&it)) = (rep.layer.get("lp.solve_s"), rep.layer.get("lp.iterations")) {
        rep.layer_add("lp.us_per_iteration", s * 1e6 / it.max(1.0));
    }
    Some(rep)
}
