//! Shared evaluation pipeline: synthesize the workload, apply the §5.2
//! top-coverage selection + cushion, reduce the horizon to an envelope day,
//! and run the three provisioning schemes (RR / LF / SB).

use sb_core::formulation::{PlanningInputs, ScenarioData, SolveOptions};
use sb_core::{
    allocation_plan, mean_acl, provision, provision_baseline, AllocationShares, BaselinePolicy,
    PlanArtifact, PlannedQuotas, ProvisionerParams,
};
use sb_net::{FailureScenario, LinkId, Node, Topology};
use sb_workload::{
    CallRecordsDb, ConfigCatalog, ConfigId, DemandMatrix, Generator, UniverseParams, WorkloadParams,
};

/// A seeded APAC day: a sampled trace, and a synthetic plan spreading every
/// planned config (the head covering `coverage` of expected calls, demand
/// scaled by `quota_scale`) evenly across all DCs — quota pressure on the
/// pools without an LP solve. `quota_scale` < 1 runs the pools dry mid-day
/// so the overflow/unplanned paths are exercised too.
fn spread_plan(
    topo: &Topology,
    params: WorkloadParams,
    coverage: f64,
    quota_scale: f64,
    trace_seed: u64,
) -> (CallRecordsDb, PlannedQuotas) {
    let generator = Generator::new(topo, params);
    let day = 2;
    let expected = generator.expected_demand(day, 1);
    let selected = expected.top_configs_covering(coverage);
    let planned_demand = expected.filtered(&selected).scaled(quota_scale);
    let db = generator.sample_records(day, 1, trace_seed);
    let slots = planned_demand.num_slots();
    let mut shares = AllocationShares::new(slots);
    let n = topo.dcs.len() as f64;
    let spread: Vec<_> = topo.dc_ids().map(|d| (d, 1.0 / n)).collect();
    for &cfg in &selected {
        for s in 0..slots {
            shares.set(cfg, s, spread.clone());
        }
    }
    (db, PlannedQuotas::from_plan(&shares, &planned_demand))
}

/// The spread-plan day the drive-throughput benches (`replay_throughput`,
/// `engine_load`) replay.
pub fn spread_plan_day(topo: &Topology) -> (CallRecordsDb, PlannedQuotas) {
    let params = WorkloadParams {
        universe: UniverseParams {
            num_configs: 2_000,
            ..Default::default()
        },
        daily_calls: 40_000.0,
        slot_minutes: 240,
        ..Default::default()
    };
    let (db, quotas) = spread_plan(topo, params, 0.90, 1.15, 9);
    eprintln!("APAC day trace: {} calls", db.len());
    (db, quotas)
}

/// One of the [`seeded_worlds`].
pub struct SeededWorld {
    /// Which regime the world exercises.
    pub name: &'static str,
    /// The APAC preset.
    pub topo: Topology,
    /// The sampled day (it carries the config catalog).
    pub db: CallRecordsDb,
    /// The spread plan as a seed artifact.
    pub artifact: PlanArtifact,
}

/// The four seeded spread-plan days of the replay differential suite —
/// ample quota, quota pressure (pools run dry), capacity-checked, and the
/// chaos seed — that the crash drill and the packing bench both run.
pub fn seeded_worlds() -> [SeededWorld; 4] {
    [
        ("ample", 11, 6_000.0, 0.95, 1.3),
        ("pressure", 23, 8_000.0, 0.90, 0.4),
        ("capacity", 37, 5_000.0, 0.92, 1.0),
        ("chaos-seed", 53, 5_000.0, 0.92, 1.2),
    ]
    .map(|(name, seed, daily_calls, coverage, quota_scale)| {
        let topo = sb_net::presets::apac();
        let params = WorkloadParams {
            universe: UniverseParams {
                num_configs: 250,
                seed,
                ..Default::default()
            },
            daily_calls,
            slot_minutes: 120,
            seed,
            ..Default::default()
        };
        let (db, quotas) = spread_plan(&topo, params, coverage, quota_scale, seed);
        SeededWorld {
            name,
            topo,
            db,
            artifact: PlanArtifact::seed(quotas),
        }
    })
}

/// Size knobs for the evaluation pipeline.
#[derive(Clone, Debug)]
pub struct EvalScale {
    /// Universe size (distinct call configs generated).
    pub num_configs: usize,
    /// Expected calls/day at day 0.
    pub daily_calls: f64,
    /// First day of the evaluation window.
    pub start_day: u32,
    /// Days in the evaluation window.
    pub days: u32,
    /// Fraction of calls the selected head configs must cover (§5.2).
    pub coverage: f64,
    /// Slot width in minutes.
    pub slot_minutes: u32,
    /// Seed for workload generation.
    pub seed: u64,
}

impl EvalScale {
    /// Small instance for tests and smoke runs (seconds on one core).
    pub fn quick() -> EvalScale {
        EvalScale {
            num_configs: 300,
            daily_calls: 4_000.0,
            start_day: 0,
            days: 7,
            coverage: 0.70,
            slot_minutes: 120,
            seed: 42,
        }
    }

    /// The default experiment scale (minutes on one core): two-hour envelope
    /// slots, 4 weeks of trace, 80 % coverage. (The LP is exact; the slot
    /// width and coverage bound its size so the 37-scenario backup sweep
    /// stays tractable on a single-core runner.)
    pub fn default_eval() -> EvalScale {
        EvalScale {
            num_configs: 2_000,
            daily_calls: 20_000.0,
            start_day: 0,
            days: 28,
            coverage: 0.80,
            slot_minutes: 120,
            seed: 42,
        }
    }

    /// Scale knobs for the planet-scale solver stress leg: the paper's
    /// 30-minute slots over a one-week horizon. Paired with
    /// [`sb_net::presets::synthetic_planet`] this induces a master LP with
    /// tens of thousands of rows — the regime the sparse factorization
    /// exists for.
    pub fn planet() -> EvalScale {
        EvalScale {
            num_configs: 120,
            daily_calls: 12_000.0,
            start_day: 0,
            days: 7,
            coverage: 0.60,
            slot_minutes: 30,
            seed: 42,
        }
    }
}

/// Everything the table/figure binaries need.
pub struct EvalData {
    /// The provider topology the universe was generated on.
    pub topo: Topology,
    /// Config catalog of the generated universe.
    pub catalog: ConfigCatalog,
    /// Selected + cushion-inflated demand over the full window.
    pub demand_full: DemandMatrix,
    /// Envelope-day reduction of `demand_full` (the LP input).
    pub demand_env: DemandMatrix,
    /// The selected head configs.
    pub selected: Vec<ConfigId>,
    /// Fraction of calls the selection covers.
    pub coverage_achieved: f64,
    /// The workload parameters used.
    pub workload: WorkloadParams,
}

/// Build the evaluation pipeline on the APAC preset.
pub fn build_eval(scale: &EvalScale) -> EvalData {
    build_eval_on(sb_net::presets::apac(), scale)
}

/// Build the evaluation pipeline on an explicit topology (the planet-scale
/// solver stress leg uses [`sb_net::presets::synthetic_planet`]).
pub fn build_eval_on(topo: Topology, scale: &EvalScale) -> EvalData {
    build_eval_from(topo, scale, |g| {
        g.sample_demand(scale.start_day, scale.days, 1)
    })
}

/// [`build_eval_on`] from the universe's *expected* demand instead of a
/// sampled trace — the world the benchmark's planning stages solve
/// (`benchmark/src/world.rs::plan_world`), which no trace seed moves.
pub fn build_eval_expected_on(topo: Topology, scale: &EvalScale) -> EvalData {
    build_eval_from(topo, scale, |g| {
        g.expected_demand(scale.start_day, scale.days)
    })
}

fn build_eval_from(
    topo: Topology,
    scale: &EvalScale,
    demand_of: impl FnOnce(&Generator) -> DemandMatrix,
) -> EvalData {
    let workload = WorkloadParams {
        universe: sb_workload::UniverseParams {
            num_configs: scale.num_configs,
            seed: scale.seed,
            ..Default::default()
        },
        daily_calls: scale.daily_calls,
        slot_minutes: scale.slot_minutes,
        seed: scale.seed,
        ..Default::default()
    };
    let (catalog, demand) = {
        let generator = Generator::new(&topo, workload.clone());
        (generator.universe().catalog.clone(), demand_of(&generator))
    };
    let selected = demand.top_configs_covering(scale.coverage);
    let total = demand.total_calls();
    let covered: f64 = selected
        .iter()
        .map(|&id| demand.series(id).iter().sum::<f64>())
        .sum();
    let coverage_achieved = if total > 0.0 { covered / total } else { 0.0 };
    // §5.2 cushion: inflate the head so it stands in for the full workload
    let inflation = if coverage_achieved > 0.0 {
        1.0 / coverage_achieved
    } else {
        1.0
    };
    let demand_full = demand.filtered(&selected).scaled(inflation);
    let slots_per_day = (24 * 60 / scale.slot_minutes) as usize;
    let demand_env = demand_full.envelope_day(slots_per_day);
    EvalData {
        topo,
        catalog,
        demand_full,
        demand_env,
        selected,
        coverage_achieved,
        workload,
    }
}

/// One row of Table 3.
#[derive(Clone, Debug)]
pub struct Table3Row {
    /// Scheme name.
    pub scheme: &'static str,
    /// Total cores provisioned.
    pub cores: f64,
    /// Total inter-country WAN Gbps provisioned.
    pub wan: f64,
    /// Total cost.
    pub cost: f64,
    /// Expected mean ACL (ms).
    pub acl: f64,
}

/// Run the three schemes on `inputs` (the envelope-day demand).
pub fn table3_rows(inputs: &PlanningInputs<'_>, with_backup: bool) -> Vec<Table3Row> {
    let topo = inputs.topo;
    let mut rows = Vec::new();
    for (name, policy) in [
        ("RR", BaselinePolicy::RoundRobin),
        ("LF", BaselinePolicy::LocalityFirst),
    ] {
        let plan = provision_baseline(policy, inputs, with_backup);
        rows.push(Table3Row {
            scheme: name,
            cores: plan.capacity.total_cores(),
            wan: plan.capacity.total_wan_gbps(topo),
            cost: plan.cost,
            acl: plan.mean_acl,
        });
    }
    // Switchboard
    let params = ProvisionerParams {
        with_backup,
        ..Default::default()
    };
    let plan = provision(inputs, &params).expect("SB provisioning");
    // the daily allocation plan decides the latency actually delivered
    let sd0 = ScenarioData::compute(topo, FailureScenario::None);
    let shares = allocation_plan(inputs, &sd0, &plan.capacity, &SolveOptions::default())
        .expect("allocation plan");
    let acl = mean_acl(&sd0.latmap, inputs.catalog, inputs.demand, &shares);
    rows.push(Table3Row {
        scheme: "SB",
        cores: plan.capacity.total_cores(),
        wan: plan.capacity.total_wan_gbps(topo),
        cost: plan.cost,
        acl,
    });
    rows
}

/// A DC's or an edge country's name.
fn node_name(topo: &Topology, n: Node) -> String {
    match n {
        Node::Dc(d) => topo.dcs[d.index()].name.clone(),
        Node::Edge(c) => topo.countries[c.index()].name.clone(),
    }
}

/// A link as its two ends, `Tokyo–HongKong`.
pub fn link_name(topo: &Topology, l: LinkId) -> String {
    let link = &topo.links[l.index()];
    format!("{}–{}", node_name(topo, link.a), node_name(topo, link.b))
}

/// `healthy`, `DC Tokyo down` or `link Tokyo–HongKong down`.
pub fn scenario_label(topo: &Topology, sc: FailureScenario) -> String {
    match sc {
        FailureScenario::None => "healthy".to_string(),
        FailureScenario::DcDown(dc) => format!("DC {} down", topo.dcs[dc.index()].name),
        FailureScenario::LinkDown(l) => format!("link {} down", link_name(topo, l)),
    }
}

/// Simple fixed-width text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let s: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        format!("  {}\n", s.join("  "))
    };
    let mut out = line(headers.iter().map(|s| s.to_string()).collect());
    out += &line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        out += &line(row.clone());
    }
    out
}

/// [`render_table`] to stdout.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    print!("{}", render_table(headers, rows));
}

/// Parse `--metrics <path>` from the process args. When present, enables the
/// global [`sb_obs`] registry and returns the path; call
/// [`dump_metrics`] at the end of the run to write the report.
pub fn metrics_path_from_args() -> Option<std::path::PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--metrics" {
            let path = args.next().unwrap_or_else(|| {
                eprintln!("--metrics requires a path argument");
                std::process::exit(2);
            });
            sb_obs::global().set_enabled(true);
            return Some(path.into());
        }
        if let Some(path) = a.strip_prefix("--metrics=") {
            sb_obs::global().set_enabled(true);
            return Some(path.into());
        }
    }
    None
}

/// Write the global registry to `path` (TSV, or NDJSON for `.ndjson`/`.jsonl`).
pub fn dump_metrics(path: &std::path::Path) {
    match sb_obs::global().dump_to_path(path) {
        Ok(()) => eprintln!("metrics written to {}", path.display()),
        Err(e) => eprintln!("failed to write metrics to {}: {e}", path.display()),
    }
}
