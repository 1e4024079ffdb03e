//! `plan` stage: one cold `F₀` `solve_scenario` per pass.
//!
//! At full size (workload `plan_planet`) this is the synthetic planet's
//! 3172×27250 LP, where sb-lp's factorization/ftran/btran work is ≥99 % of
//! the pass; at probe size it is a small APAC solve that should not move
//! when a serving layer changes.

use sb_core::formulation::{PlanningInputs, ScenarioData, SolveOptions};
use sb_lp::SolveRung;
use sb_net::FailureScenario;

use crate::harness::{
    check_expected, timed_setup, ObsDelta, Opts, PlanDigest, PlanMatch, Report, StagePasses,
};
use crate::json::obj;
use crate::spec::PlanSize;
use crate::world::{plan_world, PlanWorld};

/// Timed passes of a probe-size solve.
const PROBE_PASSES: usize = 15;

/// `sb_obs` counters and histogram sums read around every traced LP pass
/// (shared with the chain stage, whose LP work lands in the same metrics).
pub const LP_COUNTERS: [&str; 11] = [
    "lp.solves",
    "lp.phase1_iterations",
    "lp.phase2_iterations",
    "lp.refactorizations",
    "lp.eta_updates",
    "lp.pricing_cols_scanned",
    "lp.warm_accepted",
    "lp.warm_rejected_singular",
    "lp.warm_rejected_infeasible",
    "lp.cold_retries",
    "lp.dense_fallbacks",
];
/// See [`LP_COUNTERS`].
pub const LP_HISTS: [&str; 1] = ["lp.solve_wall_ns"];

/// Fold one traced pass's LP counter increases into the per-layer metrics.
pub fn add_lp_layer(rep: &mut Report, d: &std::collections::BTreeMap<&'static str, u64>) {
    let get = |k: &str| d.get(k).copied().unwrap_or(0) as f64;
    rep.layer_add("lp.solves", get("lp.solves"));
    rep.layer_add(
        "lp.iterations",
        get("lp.phase1_iterations") + get("lp.phase2_iterations"),
    );
    rep.layer_add("lp.phase1_iterations", get("lp.phase1_iterations"));
    rep.layer_add("lp.refactorizations", get("lp.refactorizations"));
    rep.layer_add("lp.eta_updates", get("lp.eta_updates"));
    rep.layer_add("lp.pricing_cols_scanned", get("lp.pricing_cols_scanned"));
    rep.layer_add("lp.warm_accepted", get("lp.warm_accepted"));
    rep.layer_add(
        "lp.warm_rejected",
        get("lp.warm_rejected_singular") + get("lp.warm_rejected_infeasible"),
    );
    rep.layer_add("lp.cold_retries", get("lp.cold_retries"));
    rep.layer_add("lp.dense_fallbacks", get("lp.dense_fallbacks"));
    rep.layer_add("lp.solve_s", get("lp.solve_wall_ns") / 1e9);
}

fn world(size: &PlanSize) -> (PlanWorld, ScenarioData) {
    let topo = if size.planet {
        sb_net::presets::synthetic_planet()
    } else {
        sb_net::presets::apac()
    };
    let data = plan_world(
        topo,
        size.configs,
        size.daily_calls,
        size.days,
        size.coverage,
        size.slot_minutes,
    );
    let sd0 = ScenarioData::compute(&data.topo, FailureScenario::None);
    (data, sd0)
}

/// Set the stage up, hand its timed pass to `body` (which runs it
/// interleaved with the other stages' passes), then check and report.
/// `primary` says whether this is the workload's own stage, at full size.
pub fn with<R>(
    opts: &Opts,
    size: &PlanSize,
    primary: bool,
    rep: &mut Report,
    body: impl FnOnce(&mut Report, StagePasses<'_>) -> R,
) -> R {
    let ((data, sd0), setup) = timed_setup(&mut rep.clock, || world(size));
    rep.setup.insert("plan", setup);
    let inputs = PlanningInputs {
        topo: &data.topo,
        catalog: &data.catalog,
        demand: &data.demand_env,
        latency_threshold_ms: 120.0,
    };
    let solve_opts = SolveOptions::default();

    let mut walls = Vec::new();
    let mut digests: Vec<PlanDigest> = Vec::new();
    let mut shape = (0usize, 0usize, 0u64, 0.0f64);
    let mut iterations = 0u64;
    let mut lp_delta = None;
    let mut one_pass = |rep: &mut Report, timed: bool| {
        let obs = (opts.traced && timed).then(|| ObsDelta::start(&LP_COUNTERS, &LP_HISTS));
        let (sol, wall) = rep.timed("plan.solve", || {
            sb_core::solve_scenario(&inputs, &sd0, None, &solve_opts)
        });
        if let Some(o) = obs {
            lp_delta = Some(o.finish());
        }
        rep.attempted += 1;
        match sol {
            Ok(sol) => {
                // a solve that needed the cold-retry or dense rung counts
                // as failed: the primary engine did not carry it
                if !matches!(sol.stats.rung, SolveRung::ColdPrimary) || !sol.dropped.is_empty() {
                    rep.failed += 1;
                }
                iterations = sol.iterations;
                shape = (
                    sol.lp_rows,
                    sol.lp_cols,
                    sol.stats.basis_nnz,
                    sol.stats.fill_ratio,
                );
                if timed {
                    walls.push(wall);
                    digests.push(PlanDigest {
                        cost: sol.objective,
                        cores: sol.capacity.cores,
                        gbps: sol.capacity.gbps,
                    });
                }
            }
            Err(e) => {
                rep.failed += 1;
                rep.gate("plan: F0 solve succeeded", false, e.to_string());
            }
        }
    };

    let out = body(
        rep,
        StagePasses {
            pass: Box::new(|rep, timed| one_pass(rep, timed)),
            probe: PROBE_PASSES,
            min: if opts.smoke { 1 } else { 3 },
            max: 50,
            // a planet solve is seconds
            warm_up_primary: false,
            warm_up_every_group: true,
        },
    );
    let passes = walls.len();

    if let Some(first) = digests.first() {
        let same = digests.iter().all(|d| d.close_to(first));
        rep.gate("plan: same plan (within 1e-9) on every pass", same, "");
        if primary && !opts.smoke {
            check_expected(opts, rep, "plan", first, PlanMatch::Exact);
        }
    }
    rep.e2e_push("plan_solve_s", &walls, |s| s);
    rep.sizes.push((
        "plan".into(),
        obj([
            (
                "topology",
                if size.planet {
                    "synthetic_planet"
                } else {
                    "apac"
                }
                .into(),
            ),
            ("configs", size.configs.into()),
            ("daily_calls", size.daily_calls.into()),
            ("days", (size.days as u64).into()),
            ("coverage", size.coverage.into()),
            ("slot_minutes", (size.slot_minutes as u64).into()),
            ("selected_configs", data.selected.len().into()),
            ("lp_rows", shape.0.into()),
            ("lp_cols", shape.1.into()),
            ("lp_iterations", iterations.into()),
        ]),
    ));
    rep.passes.push(("plan".into(), passes.into()));

    if opts.traced {
        if let Some(d) = &lp_delta {
            add_lp_layer(rep, d);
        }
        rep.layer_add("lp.rows", shape.0 as f64);
        rep.layer_add("lp.cols", shape.1 as f64);
        rep.layer_add("lp.basis_nnz", shape.2 as f64);
        rep.layer_add("lp.fill_ratio", shape.3);
    }
    out
}
