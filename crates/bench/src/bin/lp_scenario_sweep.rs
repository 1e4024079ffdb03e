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
//! Usage: `lp_scenario_sweep [--smoke | --planet | --planet-f0] [--json <path>]
//! [--baseline <path>] [--metrics <path>]`
//!
//! `--smoke` (CI gate) runs the sparse variants for a single repetition and
//! asserts their capacities match the committed dense-factorization baseline
//! in `--baseline` (default `BENCH_lp.json`) to 1e-9 relative. The default
//! (full) mode takes the best of 3, adds the dense-factorization baseline
//! variant and the planet-scale leg, and rewrites `BENCH_lp.json` — capacity
//! baseline included — with the measured numbers. `--planet` runs the
//! planet-scale leg alone; `--planet-f0` solves the benchmark's
//! `plan_planet` LP (`F₀` without backup, production options) once. Both
//! print where the iterations went straight from `SolveStats` — the table
//! of EXPERIMENTS.md § "Where a planet iteration goes" — and rewrite
//! nothing.

use std::time::{Duration, Instant};

use sb_bench::common::{
    build_eval, build_eval_expected_on, build_eval_on, dump_metrics, metrics_path_from_args,
    print_table, EvalScale,
};
use sb_core::formulation::{PlanningInputs, ProvisionError, ScenarioData, SolveOptions};
use sb_core::provision::{solve_scenarios, ProvisionerParams};
use sb_core::ScenarioSolution;
use sb_lp::{FactorKind, LpError, Pricing, RevisedSimplex, SolveStats};
use sb_net::{FailureScenario, ProvisionedCapacity};

struct Variant {
    name: &'static str,
    warm_start: bool,
    pricing: Pricing,
    factorization: FactorKind,
}

#[derive(Default)]
struct Aggregate {
    wall_s: f64,
    iterations: u64,
    phase1_iterations: u64,
    warm_started: u64,
    phase1_iterations_saved: u64,
    pricing_scans: u64,
    pricing_cols_scanned: u64,
    full_pricing_sweeps: u64,
    refactorizations: u64,
    eta_updates: u64,
    devex_resets: u64,
    max_basis_nnz: u64,
    max_fill_ratio: f64,
}

fn aggregate(sols: &[ScenarioSolution], wall_s: f64) -> Aggregate {
    let mut a = Aggregate {
        wall_s,
        ..Default::default()
    };
    for s in sols {
        a.iterations += s.stats.phase1_iterations + s.stats.phase2_iterations;
        a.phase1_iterations += s.stats.phase1_iterations;
        a.warm_started += u64::from(s.stats.warm_started);
        a.phase1_iterations_saved += s.stats.phase1_iterations_saved;
        a.pricing_scans += s.stats.pricing_scans;
        a.pricing_cols_scanned += s.stats.pricing_cols_scanned;
        a.full_pricing_sweeps += s.stats.full_pricing_sweeps;
        a.refactorizations += s.stats.refactorizations;
        a.eta_updates += s.stats.eta_updates;
        a.devex_resets += s.stats.devex_resets;
        a.max_basis_nnz = a.max_basis_nnz.max(s.stats.basis_nnz);
        a.max_fill_ratio = a.max_fill_ratio.max(s.stats.fill_ratio);
    }
    a
}

fn union_capacity(topo: &sb_net::Topology, sols: &[ScenarioSolution]) -> ProvisionedCapacity {
    let mut cap = ProvisionedCapacity::zero(topo);
    for s in sols {
        cap.max_with(&s.capacity);
    }
    cap
}

/// Largest relative component difference between two capacity vectors.
fn capacity_rel_diff(a: &ProvisionedCapacity, b: &ProvisionedCapacity) -> f64 {
    let mut worst: f64 = 0.0;
    for (x, y) in a
        .cores
        .iter()
        .zip(&b.cores)
        .chain(a.gbps.iter().zip(&b.gbps))
    {
        worst = worst.max((x - y).abs() / x.abs().max(y.abs()).max(1.0));
    }
    worst
}

/// Same metric against flat baseline arrays read back from the committed
/// JSON (cores then gbps).
fn rel_diff_vs_baseline(cap: &ProvisionedCapacity, cores: &[f64], gbps: &[f64]) -> f64 {
    assert_eq!(cap.cores.len(), cores.len(), "baseline cores length");
    assert_eq!(cap.gbps.len(), gbps.len(), "baseline gbps length");
    let mut worst: f64 = 0.0;
    for (x, y) in cap.cores.iter().zip(cores).chain(cap.gbps.iter().zip(gbps)) {
        worst = worst.max((x - y).abs() / x.abs().max(y.abs()).max(1.0));
    }
    worst
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Render a float array with `Display` (shortest round-trip) so the baseline
/// survives a JSON round trip bit-exactly.
fn json_f64_array(vals: &[f64]) -> String {
    let cells: Vec<String> = vals.iter().map(|v| format!("{v}")).collect();
    format!("[{}]", cells.join(", "))
}

/// Extract a flat `"key": [1.0, 2.0, …]` array from a JSON text. Minimal on
/// purpose: the file is machine-written by this binary, not arbitrary JSON.
fn parse_f64_array(text: &str, key: &str) -> Option<Vec<f64>> {
    let needle = format!("\"{key}\"");
    let at = text.find(&needle)?;
    let rest = &text[at + needle.len()..];
    let open = rest.find('[')?;
    let close = rest[open..].find(']')? + open;
    rest[open + 1..close]
        .split(',')
        .map(|c| c.trim().parse::<f64>().ok())
        .collect()
}

fn pricing_name(p: Pricing) -> String {
    match p {
        Pricing::Dantzig => "dantzig".to_string(),
        Pricing::Partial {
            list_size,
            full_sweep_every,
        } => format!("partial({list_size},{full_sweep_every})"),
        Pricing::Devex {
            list_size,
            full_sweep_every,
        } => format!("devex({list_size},{full_sweep_every})"),
    }
}

/// The planet-scale leg: one cold `F₀` solve of the synthetic-planet master
/// LP (≥10⁴ rows) per factorization backend. Sparse must finish inside a
/// generous budget; dense must exhaust a short one — that asymmetry *is*
/// the result.
struct PlanetResult {
    dcs: usize,
    links: usize,
    lp_rows: usize,
    lp_cols: usize,
    sparse_wall_s: f64,
    sparse_iterations: u64,
    sparse_basis_nnz: u64,
    sparse_fill_ratio: f64,
    dense_budget_s: f64,
    dense_timed_out: bool,
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

fn run_planet() -> PlanetResult {
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
                pricing: Pricing::devex(),
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

    PlanetResult {
        dcs: data.topo.dcs.len(),
        links: data.topo.links.len(),
        lp_rows: sol.lp_rows,
        lp_cols: sol.lp_cols,
        sparse_wall_s,
        sparse_iterations: sol.iterations,
        sparse_basis_nnz: sol.stats.basis_nnz,
        sparse_fill_ratio: sol.stats.fill_ratio,
        dense_budget_s: dense_budget.as_secs_f64(),
        dense_timed_out,
    }
}

fn main() {
    let metrics = metrics_path_from_args();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let planet_f0 = std::env::args().any(|a| a == "--planet-f0");
    if planet_f0 || std::env::args().any(|a| a == "--planet") {
        // planet solves only (no JSON rewrite): the solver-scaling story in
        // isolation, handy when iterating on the sparse core
        if planet_f0 {
            run_planet_f0();
        } else {
            run_planet();
        }
        if let Some(path) = metrics {
            dump_metrics(&path);
        }
        return;
    }
    let mut json_path = String::from("BENCH_lp.json");
    let mut baseline_path = String::from("BENCH_lp.json");
    {
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            let missing = |flag: &str| -> String {
                eprintln!("{flag} requires a path argument");
                std::process::exit(2);
            };
            if a == "--json" {
                json_path = args.next().unwrap_or_else(|| missing("--json"));
            } else if let Some(p) = a.strip_prefix("--json=") {
                json_path = p.to_string();
            } else if a == "--baseline" {
                baseline_path = args.next().unwrap_or_else(|| missing("--baseline"));
            } else if let Some(p) = a.strip_prefix("--baseline=") {
                baseline_path = p.to_string();
            }
        }
    }
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

    // The dense-factorization baseline is the pre-sparse engine; the smoke
    // gate skips it (slow) and instead checks the sparse capacities against
    // the committed baseline arrays it produced.
    let mut variants = Vec::new();
    if !smoke {
        variants.push(Variant {
            name: "cold+dantzig+dense",
            warm_start: false,
            pricing: Pricing::Dantzig,
            factorization: FactorKind::Dense,
        });
    }
    variants.extend([
        Variant {
            name: "cold+dantzig",
            warm_start: false,
            pricing: Pricing::Dantzig,
            factorization: FactorKind::SparseLu,
        },
        Variant {
            name: "cold+devex",
            warm_start: false,
            pricing: Pricing::devex(),
            factorization: FactorKind::SparseLu,
        },
        Variant {
            name: "warm+partial",
            warm_start: true,
            pricing: Pricing::partial(),
            factorization: FactorKind::SparseLu,
        },
        Variant {
            name: "warm+devex",
            warm_start: true,
            pricing: Pricing::devex(),
            factorization: FactorKind::SparseLu,
        },
    ]);

    let mut aggs: Vec<Aggregate> = Vec::new();
    let mut caps: Vec<ProvisionedCapacity> = Vec::new();
    let mut sols_ref: Option<Vec<ScenarioSolution>> = None;
    let mut lp_dims = (0usize, 0usize);
    for v in &variants {
        let params = ProvisionerParams {
            with_backup: true,
            solve: SolveOptions {
                warm_start: v.warm_start,
                solver: RevisedSimplex {
                    pricing: v.pricing,
                    factorization: v.factorization,
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
            sols_ref = Some(sols.clone());
        }
        lp_dims = (sols[0].lp_rows, sols[0].lp_cols);
        caps.push(union_capacity(&data.topo, &sols));
        let a = aggregate(&sols, wall);
        eprintln!(
            "{:<18} {:.3}s  iters {}  warm {}/{}  cost {:.1}",
            v.name,
            wall,
            a.iterations,
            a.warm_started,
            sols.len(),
            caps.last().unwrap().cost(&data.topo),
        );
        aggs.push(a);
    }

    // warm starts, pricing and factorization must not change what gets
    // provisioned — and sparse must reproduce the dense capacities to 1e-9
    let mut cap_diff: f64 = 0.0;
    for cap in &caps[1..] {
        cap_diff = cap_diff.max(capacity_rel_diff(&caps[0], cap));
    }

    println!("== LP scenario sweep: warm start × pricing × factorization ==\n");
    println!(
        "APAC, {} scenarios, master LP {} rows × {} cols, best of {reps}\n",
        scenarios.len(),
        lp_dims.0,
        lp_dims.1
    );
    let rows: Vec<Vec<String>> = variants
        .iter()
        .zip(&aggs)
        .map(|(v, a)| {
            vec![
                v.name.to_string(),
                v.factorization.to_string(),
                format!("{:.3}", a.wall_s),
                a.iterations.to_string(),
                a.phase1_iterations.to_string(),
                format!("{}/{}", a.warm_started, scenarios.len()),
                a.eta_updates.to_string(),
                a.refactorizations.to_string(),
                a.max_basis_nnz.to_string(),
                format!("{:.2}x", aggs[0].wall_s / a.wall_s),
            ]
        })
        .collect();
    print_table(
        &[
            "variant",
            "factor",
            "wall(s)",
            "iters",
            "phase1",
            "warm",
            "etas",
            "refac",
            "basis_nnz",
            "speedup",
        ],
        &rows,
    );
    assert!(
        cap_diff <= 1e-9,
        "variants disagree on provisioned capacity (max rel diff {cap_diff:.3e})"
    );

    let mut speedup_sparse_cold = 0.0;
    let mut speedup_warm = 0.0;
    if smoke {
        // CI gate: the sparse path must reproduce the committed
        // dense-factorization capacities bit-for-near-bit.
        let text = std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
            panic!("smoke gate needs the committed baseline {baseline_path}: {e}")
        });
        let cores = parse_f64_array(&text, "baseline_capacity_cores")
            .expect("baseline_capacity_cores array in baseline JSON");
        let gbps = parse_f64_array(&text, "baseline_capacity_gbps")
            .expect("baseline_capacity_gbps array in baseline JSON");
        let vs_baseline = rel_diff_vs_baseline(&caps[0], &cores, &gbps);
        println!(
            "\nsparse vs committed dense baseline: max rel diff {vs_baseline:.1e} \
             (gate 1e-9); variants mutually within {cap_diff:.1e}"
        );
        assert!(
            vs_baseline <= 1e-9,
            "sparse capacities drifted from the committed dense baseline \
             (max rel diff {vs_baseline:.3e})"
        );
    } else {
        // index 0 = dense baseline, 1 = cold+dantzig sparse, 3 = warm+partial
        speedup_sparse_cold = aggs[0].wall_s / aggs[1].wall_s;
        speedup_warm = aggs[0].wall_s / aggs[3].wall_s;
        println!(
            "\ncold sparse vs cold dense: {speedup_sparse_cold:.2}x; \
             warm+partial vs cold dense: {speedup_warm:.2}x; \
             capacities identical (max rel diff {cap_diff:.1e})"
        );
        assert!(
            speedup_sparse_cold >= 3.0,
            "expected >= 3x cold-solve speedup from sparse LU, measured {speedup_sparse_cold:.2}x"
        );
        assert!(
            speedup_warm >= 2.0,
            "expected >= 2x end-to-end warm speedup, measured {speedup_warm:.2}x"
        );
    }

    let planet = if smoke { None } else { Some(run_planet()) };

    // machine-readable dump
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"lp_scenario_sweep\",\n");
    out.push_str("  \"topology\": \"apac\",\n");
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    // the sweep is single-threaded; recorded so every BENCH_*.json says what
    // box its wall times come from
    let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.push_str(&format!("  \"hardware_threads\": {hardware},\n"));
    out.push_str(&format!("  \"reps\": {reps},\n"));
    out.push_str(&format!("  \"scenarios\": {},\n", scenarios.len()));
    out.push_str(&format!("  \"lp_rows\": {},\n", lp_dims.0));
    out.push_str(&format!("  \"lp_cols\": {},\n", lp_dims.1));
    out.push_str("  \"variants\": [\n");
    for (i, (v, a)) in variants.iter().zip(&aggs).enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"warm_start\": {}, \"pricing\": \"{}\", \
             \"factorization\": \"{}\", \
             \"wall_s\": {:.6}, \"iterations\": {}, \"phase1_iterations\": {}, \
             \"warm_started\": {}, \"phase1_iterations_saved\": {}, \
             \"pricing_scans\": {}, \"pricing_cols_scanned\": {}, \
             \"full_pricing_sweeps\": {}, \"refactorizations\": {}, \
             \"eta_updates\": {}, \"devex_resets\": {}, \
             \"max_basis_nnz\": {}, \"max_fill_ratio\": {:.4}}}{}\n",
            json_escape(v.name),
            v.warm_start,
            json_escape(&pricing_name(v.pricing)),
            v.factorization,
            a.wall_s,
            a.iterations,
            a.phase1_iterations,
            a.warm_started,
            a.phase1_iterations_saved,
            a.pricing_scans,
            a.pricing_cols_scanned,
            a.full_pricing_sweeps,
            a.refactorizations,
            a.eta_updates,
            a.devex_resets,
            a.max_basis_nnz,
            a.max_fill_ratio,
            if i + 1 < variants.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    if !smoke {
        out.push_str(&format!(
            "  \"speedup_sparse_cold_vs_dense_cold\": {speedup_sparse_cold:.4},\n"
        ));
        out.push_str(&format!(
            "  \"speedup_warm_partial_vs_cold_dense\": {speedup_warm:.4},\n"
        ));
    }
    out.push_str(&format!("  \"capacity_max_rel_diff\": {cap_diff:.3e},\n"));
    if let Some(p) = &planet {
        out.push_str("  \"planet\": {\n");
        out.push_str("    \"topology\": \"synthetic_planet\",\n");
        out.push_str(&format!("    \"dcs\": {},\n", p.dcs));
        out.push_str(&format!("    \"links\": {},\n", p.links));
        out.push_str(&format!("    \"lp_rows\": {},\n", p.lp_rows));
        out.push_str(&format!("    \"lp_cols\": {},\n", p.lp_cols));
        out.push_str(&format!("    \"sparse_wall_s\": {:.6},\n", p.sparse_wall_s));
        out.push_str(&format!(
            "    \"sparse_iterations\": {},\n",
            p.sparse_iterations
        ));
        out.push_str(&format!(
            "    \"sparse_basis_nnz\": {},\n",
            p.sparse_basis_nnz
        ));
        out.push_str(&format!(
            "    \"sparse_fill_ratio\": {:.4},\n",
            p.sparse_fill_ratio
        ));
        out.push_str(&format!(
            "    \"dense_budget_s\": {:.1},\n",
            p.dense_budget_s
        ));
        out.push_str(&format!("    \"dense_timed_out\": {}\n", p.dense_timed_out));
        out.push_str("  },\n");
    }
    // committed capacity baseline: produced by the dense-factorization
    // variant in full mode, checked by the sparse smoke gate
    out.push_str(&format!(
        "  \"baseline_factorization\": \"{}\",\n",
        variants[0].factorization
    ));
    out.push_str(&format!(
        "  \"baseline_capacity_cores\": {},\n",
        json_f64_array(&caps[0].cores)
    ));
    out.push_str(&format!(
        "  \"baseline_capacity_gbps\": {}\n",
        json_f64_array(&caps[0].gbps)
    ));
    out.push_str("}\n");
    match std::fs::write(&json_path, out) {
        Ok(()) => eprintln!("wrote {json_path}"),
        Err(e) => {
            eprintln!("failed to write {json_path}: {e}");
            std::process::exit(1);
        }
    }
    if let Some(path) = metrics {
        dump_metrics(&path);
    }
}
