//! Solver perf harness for the provisioning-LP scenario sweep: cold vs
//! warm-started solves × pricing rule × basis-factorization backend, on the
//! APAC failure-scenario set (`F₀` + every DC + every link down), plus a
//! planet-scale single-scenario leg that only the sparse path can solve.
//!
//! Every variant runs the same [`sb_core::provision::solve_scenarios`] sweep
//! on one thread, so the wall times compare end to end: LP patching, basis
//! injection, factorization, pricing and extraction included. The final
//! provisioned capacity (component-wise max across scenarios) must be
//! identical across variants to 1e-9 relative — warm starts, pricing and
//! factorization are pure performance knobs.
//!
//! Usage: `lp_scenario_sweep [--smoke | --planet | --planet-f0]
//! [--json <path> | --check <path>] [--metrics <path>]`
//!
//! The default (full) mode takes the best of 3, adds the dense-factorization
//! baseline variant and the planet-scale leg; `--json` records
//! `BENCH_lp.json` — the dense variant's capacity arrays included — and
//! `results/lp_scenario_sweep.txt`. `--smoke --check BENCH_lp.json` (the CI
//! gate) runs the sparse variants for a single repetition, asserts their
//! capacities match the committed dense arrays to 1e-9 relative, and
//! compares the counts of the variants it ran with the committed file's
//! ([`sb_bench::report`]). `--planet` runs the planet-scale leg alone;
//! `--planet-f0` solves the benchmark's `plan_planet` LP (`F₀` without
//! backup, production options) once. Both print where the iterations went
//! straight from `SolveStats` — the table of EXPERIMENTS.md § "Where a
//! planet iteration goes" — and record nothing.

use std::time::{Duration, Instant};

use sb_bench::common::{
    build_eval, build_eval_expected_on, build_eval_on, dump_metrics, metrics_path_from_args,
    print_table, EvalScale,
};
use sb_bench::report::{Mode, Recorded, Report};
use sb_core::formulation::{PlanningInputs, ProvisionError, ScenarioData, SolveOptions};
use sb_core::provision::{solve_scenarios, ProvisionerParams};
use sb_core::ScenarioSolution;
use sb_lp::{FactorKind, LpError, Pricing, RevisedSimplex, SolveStats};
use sb_net::{FailureScenario, ProvisionedCapacity};

fn union_capacity(topo: &sb_net::Topology, sols: &[ScenarioSolution]) -> ProvisionedCapacity {
    let mut cap = ProvisionedCapacity::zero(topo);
    for s in sols {
        cap.max_with(&s.capacity);
    }
    cap
}

/// Largest relative component difference between a capacity vector and the
/// dense baseline's flat arrays (cores then gbps).
fn rel_diff_vs_baseline(cap: &ProvisionedCapacity, cores: &[f64], gbps: &[f64]) -> f64 {
    assert_eq!(cap.cores.len(), cores.len(), "baseline cores length");
    assert_eq!(cap.gbps.len(), gbps.len(), "baseline gbps length");
    let mut worst: f64 = 0.0;
    for (x, y) in cap.cores.iter().zip(cores).chain(cap.gbps.iter().zip(gbps)) {
        worst = worst.max((x - y).abs() / x.abs().max(y.abs()).max(1.0));
    }
    worst
}

fn pricing_name(p: Pricing) -> &'static str {
    match p {
        Pricing::Dantzig => "dantzig",
        Pricing::Devex => "devex",
    }
}

/// Where one solve's iterations went, from its own `SolveStats`: the time of
/// each step of the simplex loop and how sparse the two solves ran.
fn print_iteration_split(label: &str, s: &SolveStats) {
    let t = &s.times;
    let steps = [
        ("pricing (scan + resyncs)", t.pricing),
        ("btran (pivot row's rho)", t.btran),
        ("pivot row (CSR pass + d update)", t.pivot_row),
        ("ftran (+ exact d_q)", t.ftran),
        ("ratio test", t.ratio),
        ("update (xb, eta, statuses)", t.update),
        ("refactorization", t.refactor),
    ];
    let total: f64 = steps.iter().map(|(_, d)| d.as_secs_f64()).sum();
    let iterations = s.total_iterations();
    println!(
        "{label}: {iterations} iterations, {} refactorizations, {} eta updates, {:.3} s in the pivot loops ({:.1} us/it), wall {:.3} s",
        s.refactorizations,
        s.eta_updates,
        total,
        1e6 * total / iterations.max(1) as f64,
        s.wall.as_secs_f64()
    );
    let rows: Vec<Vec<String>> = steps
        .iter()
        .map(|(name, d)| {
            let secs = d.as_secs_f64();
            vec![
                name.to_string(),
                format!("{secs:.3}"),
                format!("{:.0} %", 100.0 * secs / total.max(f64::MIN_POSITIVE)),
            ]
        })
        .collect();
    print_table(&["step", "seconds", "share"], &rows);
    println!(
        "steps visited per ftran {:.0}, per btran {:.0}; listed nonzeros of w {:.0}, of rho {:.0}; final basis nnz {}",
        s.ftran_steps_visited, s.btran_steps_visited, s.w_nnz, s.rho_nnz, s.basis_nnz
    );
}

/// One cold solve of the benchmark's `plan_planet` LP: `F₀` without backup on
/// the synthetic planet's expected demand at 180-minute slots (the sizes of
/// `benchmark/src/spec.rs`'s full `plan` stage), production solve options.
fn run_planet_f0() {
    let scale = EvalScale {
        slot_minutes: 180,
        ..EvalScale::planet()
    };
    let data = build_eval_expected_on(sb_net::presets::synthetic_planet(), &scale);
    let inputs = PlanningInputs {
        topo: &data.topo,
        catalog: &data.catalog,
        demand: &data.demand_env,
        latency_threshold_ms: 120.0,
    };
    let sd0 = ScenarioData::compute(&data.topo, FailureScenario::None);
    let sol = sb_core::solve_scenario(&inputs, &sd0, None, &SolveOptions::default())
        .expect("the planet F0 solves on the primary rung");
    print_iteration_split(
        &format!("planet F0, {} x {}", sol.lp_rows, sol.lp_cols),
        &sol.stats,
    );
}

/// The planet-scale leg: one cold `F₀` solve of the synthetic-planet master
/// LP (≥10⁴ rows) per factorization backend. Sparse must finish inside a
/// generous budget; dense must exhaust a short one — that asymmetry *is*
/// the result.
fn run_planet(report: &mut Report) {
    let scale = EvalScale::planet();
    eprintln!(
        "planet leg: building workload ({} configs, {:.0} calls/day, {} days, {}-min slots) …",
        scale.num_configs, scale.daily_calls, scale.days, scale.slot_minutes
    );
    let data = build_eval_on(sb_net::presets::synthetic_planet(), &scale);
    let inputs = PlanningInputs {
        topo: &data.topo,
        catalog: &data.catalog,
        demand: &data.demand_env,
        latency_threshold_ms: 120.0,
    };
    let scenarios = [FailureScenario::None];
    let params_for = |kind: FactorKind, budget: Duration| ProvisionerParams {
        with_backup: true,
        solve: SolveOptions {
            warm_start: false,
            fallback_to_dense: false,
            solver: RevisedSimplex {
                pricing: Pricing::Devex,
                factorization: kind,
                time_budget: Some(budget),
                ..RevisedSimplex::new()
            },
            ..SolveOptions::default()
        },
        threads: 1,
        refine_passes: 0,
    };

    let sparse_budget = Duration::from_secs(900);
    let t0 = Instant::now();
    let sols = solve_scenarios(
        &inputs,
        &scenarios,
        None,
        &params_for(FactorKind::SparseLu, sparse_budget),
    )
    .expect("sparse path solves the planet-scale LP in budget");
    let sparse_wall_s = t0.elapsed().as_secs_f64();
    let sol = &sols[0];
    assert!(
        sol.lp_rows >= 10_000,
        "planet LP must have ≥10⁴ rows, got {}",
        sol.lp_rows
    );
    eprintln!(
        "planet sparse+devex: {} rows × {} cols, {:.3}s, {} iters, basis nnz {}",
        sol.lp_rows, sol.lp_cols, sparse_wall_s, sol.iterations, sol.stats.basis_nnz
    );
    print_iteration_split("planet with backup, sparse+devex", &sol.stats);

    // Dense B⁻¹ is O(rows²) per pivot at this size; give it a budget the
    // sparse path beats many times over and require a typed timeout.
    let dense_budget = Duration::from_secs(20);
    let dense = solve_scenarios(
        &inputs,
        &scenarios,
        None,
        &params_for(FactorKind::Dense, dense_budget),
    );
    let dense_timed_out = matches!(
        dense,
        Err(ProvisionError::Lp {
            source: LpError::TimeLimit,
            ..
        })
    );
    assert!(
        dense_timed_out,
        "dense factorization should exhaust its {:.0}s budget on the planet LP, got {:?}",
        dense_budget.as_secs_f64(),
        dense.map(|s| s[0].objective)
    );
    eprintln!(
        "planet dense: timed out after {:.0}s budget, as expected",
        dense_budget.as_secs_f64()
    );

    report
        .counts
        .row("planet")
        .label("topology", "synthetic_planet")
        .int("dcs", data.topo.dcs.len() as u64)
        .int("links", data.topo.links.len() as u64)
        .int("lp_rows", sol.lp_rows as u64)
        .int("lp_cols", sol.lp_cols as u64)
        .int("sparse_iterations", sol.iterations)
        .int("sparse_basis_nnz", sol.stats.basis_nnz)
        .fixed("sparse_fill_ratio", sol.stats.fill_ratio, 4)
        .fixed("dense_budget_s", dense_budget.as_secs_f64(), 1)
        .flag("dense_timed_out", dense_timed_out);
    report
        .host
        .row("planet")
        .fixed("sparse_wall_s", sparse_wall_s, 6);
}

fn main() {
    let metrics = metrics_path_from_args();
    let mode = Mode::from_args();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let planet_f0 = std::env::args().any(|a| a == "--planet-f0");
    if planet_f0 || std::env::args().any(|a| a == "--planet") {
        // planet solves only (nothing recorded): the solver-scaling story in
        // isolation, handy when iterating on the sparse core
        if planet_f0 {
            run_planet_f0();
        } else {
            let mut report = Report::new("lp_scenario_sweep");
            run_planet(&mut report);
            report.finish(&Mode::Print);
        }
        if let Some(path) = metrics {
            dump_metrics(&path);
        }
        return;
    }
    // The dense-factorization baseline is the pre-sparse engine; the smoke
    // gate skips it (slow) and checks the sparse capacities against the
    // arrays it left in the committed file.
    let committed_dense = smoke.then(|| {
        let Mode::Check(path) = &mode else {
            eprintln!("--smoke needs --check <BENCH_lp.json>: it gates against the committed dense baseline");
            std::process::exit(2);
        };
        let arrays = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| Recorded::parse(&text).map_err(|e| e.to_string()))
            .and_then(|rec| {
                let read = |key| rec.counts.read_floats(key).ok_or(format!("no array {key}"));
                Ok((
                    read("dense_baseline.capacity_cores")?,
                    read("dense_baseline.capacity_gbps")?,
                ))
            });
        arrays.unwrap_or_else(|e| {
            eprintln!("lp_scenario_sweep: {}: {e}", path.display());
            std::process::exit(1);
        })
    });
    let reps = if smoke { 1 } else { 3 };

    let scale = EvalScale::quick();
    eprintln!(
        "building workload: {} configs, {:.0} calls/day, {} days, {}-min slots …",
        scale.num_configs, scale.daily_calls, scale.days, scale.slot_minutes
    );
    let data = build_eval(&scale);
    let inputs = PlanningInputs {
        topo: &data.topo,
        catalog: &data.catalog,
        demand: &data.demand_env,
        latency_threshold_ms: 120.0,
    };
    // F₀ first: it is the seed solve the warm variants start every other
    // scenario from
    let scenarios = FailureScenario::enumerate(&data.topo);
    assert_eq!(scenarios[0], FailureScenario::None);
    eprintln!(
        "sweeping {} scenarios ({} DCs, {} links), best of {reps}",
        scenarios.len(),
        data.topo.dcs.len(),
        data.topo.links.len()
    );

    // (name, warm start, pricing, factorization)
    const DENSE: &str = "cold+dantzig+dense";
    let mut variants = vec![
        (DENSE, false, Pricing::Dantzig, FactorKind::Dense),
        (
            "cold+dantzig",
            false,
            Pricing::Dantzig,
            FactorKind::SparseLu,
        ),
        ("cold+devex", false, Pricing::Devex, FactorKind::SparseLu),
        // `SolveOptions::default()`: what `provision` and the ruler's chain solve with
        ("warm+dantzig", true, Pricing::Dantzig, FactorKind::SparseLu),
        ("warm+devex", true, Pricing::Devex, FactorKind::SparseLu),
    ];
    let mut report = Report::new("lp_scenario_sweep");
    report.host.int("reps", reps);
    if smoke {
        variants.remove(0);
        for skipped in ["planet", "dense_baseline", "variants.cold+dantzig+dense"] {
            report.not_run(skipped);
        }
    }

    let mut walls: Vec<(&str, f64)> = Vec::new();
    let mut caps: Vec<ProvisionedCapacity> = Vec::new();
    let mut sols_ref: Option<Vec<ScenarioSolution>> = None;
    for &(name, warm_start, pricing, factorization) in &variants {
        let params = ProvisionerParams {
            with_backup: true,
            solve: SolveOptions {
                warm_start,
                solver: RevisedSimplex {
                    pricing,
                    factorization,
                    ..RevisedSimplex::new()
                },
                ..SolveOptions::default()
            },
            threads: 1,
            refine_passes: 0,
        };
        let mut best: Option<(f64, Vec<ScenarioSolution>)> = None;
        for _ in 0..reps {
            let t0 = Instant::now();
            let sols = solve_scenarios(&inputs, &scenarios, None, &params).expect("sweep solves");
            let wall = t0.elapsed().as_secs_f64();
            if best.as_ref().is_none_or(|(w, _)| wall < *w) {
                best = Some((wall, sols));
            }
        }
        let (wall, sols) = best.expect("at least one rep");
        if let Some(reference) = sols_ref.as_ref() {
            for (a, b) in reference.iter().zip(&sols) {
                let rel = (a.objective - b.objective).abs() / (1.0 + a.objective.abs());
                if rel > 1e-6 {
                    eprintln!(
                        "  objective mismatch {:?}: {} vs {} (rel {rel:.3e}, rung {})",
                        b.scenario, a.objective, b.objective, b.stats.rung
                    );
                }
            }
        } else {
            report
                .counts
                .label("topology", "apac")
                .int("scenarios", scenarios.len() as u64)
                .int("lp_rows", sols[0].lp_rows as u64)
                .int("lp_cols", sols[0].lp_cols as u64);
            sols_ref = Some(sols.clone());
        }
        caps.push(union_capacity(&data.topo, &sols));
        let sum = |stat: fn(&SolveStats) -> u64| sols.iter().map(|s| stat(&s.stats)).sum::<u64>();
        let warm_started = sum(|s| u64::from(s.warm_started));
        eprintln!(
            "{:<18} {:.3}s  iters {}  warm {warm_started}/{}  cost {:.1}",
            name,
            wall,
            sum(SolveStats::total_iterations),
            sols.len(),
            caps.last().unwrap().cost(&data.topo),
        );
        report
            .counts
            .row("variants")
            .row(name)
            .flag("warm_start", warm_start)
            .label("pricing", pricing_name(pricing))
            .label("factorization", &factorization.to_string())
            .int("iterations", sum(SolveStats::total_iterations))
            .int("phase1_iterations", sum(|s| s.phase1_iterations))
            .int("warm_started", warm_started)
            .int(
                "phase1_iterations_saved",
                sum(|s| s.phase1_iterations_saved),
            )
            .int("pricing_scans", sum(|s| s.pricing_scans))
            .int("pricing_cols_scanned", sum(|s| s.pricing_cols_scanned))
            .int("full_pricing_sweeps", sum(|s| s.full_pricing_sweeps))
            .int("refactorizations", sum(|s| s.refactorizations))
            .int("eta_updates", sum(|s| s.eta_updates))
            .int("devex_resets", sum(|s| s.devex_resets))
            .int(
                "max_basis_nnz",
                sols.iter().map(|s| s.stats.basis_nnz).max().unwrap_or(0),
            )
            .fixed(
                "max_fill_ratio",
                sols.iter().map(|s| s.stats.fill_ratio).fold(0.0, f64::max),
                4,
            );
        report
            .host
            .row("variants")
            .row(name)
            .fixed("wall_s", wall, 6);
        walls.push((name, wall));
    }

    // warm starts, pricing and factorization must not change what gets
    // provisioned: every sparse variant reproduces the dense capacities —
    // this run's, or under --smoke the committed ones — to 1e-9
    let (dense_cores, dense_gbps, sparse_caps) = match committed_dense {
        Some((cores, gbps)) => (cores, gbps, &caps[..]),
        None => (caps[0].cores.clone(), caps[0].gbps.clone(), &caps[1..]),
    };
    let cap_diff = sparse_caps
        .iter()
        .map(|cap| rel_diff_vs_baseline(cap, &dense_cores, &dense_gbps))
        .fold(0.0, f64::max);
    assert!(
        cap_diff <= 1e-9,
        "sparse capacities drifted from the dense baseline (max rel diff {cap_diff:.3e})"
    );
    report.counts.sci("capacity_max_rel_diff", cap_diff);

    if !smoke {
        let wall_of = |name: &str| {
            let found = walls.iter().find(|(n, _)| *n == name);
            found.expect("a variant of this run").1
        };
        let speedup_sparse_cold = wall_of(DENSE) / wall_of("cold+dantzig");
        let speedup_warm = wall_of(DENSE) / wall_of("warm+dantzig");
        assert!(
            speedup_sparse_cold >= 3.0,
            "expected >= 3x cold-solve speedup from sparse LU, measured {speedup_sparse_cold:.2}x"
        );
        assert!(
            speedup_warm >= 2.0,
            "expected >= 2x end-to-end warm speedup, measured {speedup_warm:.2}x"
        );
        report
            .host
            .fixed("speedup_sparse_cold_vs_dense_cold", speedup_sparse_cold, 4)
            .fixed("speedup_warm_dantzig_vs_cold_dense", speedup_warm, 4);
        run_planet(&mut report);
        // the capacity baseline the sparse smoke gate checks against
        report
            .counts
            .row("dense_baseline")
            .label("factorization", &FactorKind::Dense.to_string())
            .floats("capacity_cores", &dense_cores)
            .floats("capacity_gbps", &dense_gbps);
    }
    report.finish(&mode);
    if let Some(path) = metrics {
        dump_metrics(&path);
    }
}
