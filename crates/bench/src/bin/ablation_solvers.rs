//! Ablation: exact LP provisioning vs the greedy decomposed solver — quality
//! and runtime at growing instance sizes. This backs DESIGN.md's claim that
//! the greedy path is a scalable approximation with bounded quality loss: it
//! trades a bounded cost gap for near-linear scaling, the lever behind the
//! §6.6 claim that the controller can grow with load.
//!
//! Usage: `ablation_solvers [--json <path> | --check <path>]`
//!
//! `--json` records `BENCH_ablation.json` and
//! `results/ablation_solvers.txt`, `--check` compares the counts with the
//! committed file ([`sb_bench::report`]): per size the configs, both costs and
//! the gap; the solve times are under `host`.

use std::time::Instant;

use sb_bench::decomposed::{solve_scenario_greedy, GreedyOptions};
use sb_bench::report::{Mode, Report};
use sb_core::formulation::{solve_scenario, PlanningInputs, ScenarioData, SolveOptions};
use sb_net::FailureScenario;
use sb_workload::{Generator, UniverseParams, WorkloadParams};

fn main() {
    let mode = Mode::from_args();
    let topo = sb_net::presets::apac();
    let sd = ScenarioData::compute(&topo, FailureScenario::None);
    let mut report = Report::new("ablation_solvers");
    let mut greedy_ge_lp = true;
    for (label, num_configs, daily_calls, slot_minutes, coverage) in [
        ("small", 300usize, 4_000.0, 120u32, 0.7),
        ("medium", 1_000, 10_000.0, 120, 0.85),
        ("large", 2_000, 20_000.0, 60, 0.75),
    ] {
        let params = WorkloadParams {
            universe: UniverseParams {
                num_configs,
                ..Default::default()
            },
            daily_calls,
            slot_minutes,
            ..Default::default()
        };
        let generator = Generator::new(&topo, params);
        let demand = generator.sample_demand(0, 7, 1);
        let selected = demand.top_configs_covering(coverage);
        let env = demand
            .filtered(&selected)
            .envelope_day(generator.slots_per_day());
        let inputs = PlanningInputs::new(&topo, &generator.universe().catalog, &env);

        let t0 = Instant::now();
        let exact = solve_scenario(&inputs, &sd, None, &SolveOptions::default()).expect("LP");
        let lp_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let greedy = solve_scenario_greedy(&inputs, &sd, &GreedyOptions::default());
        let greedy_s = t0.elapsed().as_secs_f64();
        greedy_ge_lp &= greedy.objective >= exact.objective;
        report
            .counts
            .row("scale")
            .row(label)
            .int("configs", selected.len() as u64)
            .fixed("lp_cost", exact.objective, 0)
            .fixed("greedy_cost", greedy.objective, 0)
            .fixed(
                "gap_pct",
                100.0 * (greedy.objective - exact.objective) / exact.objective,
                1,
            );
        report
            .host
            .row("scale")
            .row(label)
            .fixed("lp_s", lp_s, 2)
            .fixed("greedy_s", greedy_s, 3);
    }
    report
        .counts
        .flag("greedy_ge_lp_at_every_size", greedy_ge_lp);
    report.finish(&mode);
}
