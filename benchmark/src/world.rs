//! Seeded inputs.
//!
//! The *world* — the topology, the config universe, its popularity, growth
//! and diurnal shape, hence its expected demand — is fixed ([`WORLD_SEED`]).
//! `--seed` draws every *trace* sampled from it: per-slot call counts, start
//! minutes, durations, first joiners, join offsets. Ten seeds are then ten
//! traces of one world.
//!
//! The LPs are built from the world's expected demand, which no seed
//! changes. That is deliberate: a cold simplex's path length is chaotic in
//! its input — six Poisson draws of the same planet demand solved in
//! 3.9–6.0 s, and seeding the universe too moved the chain's wall between
//! 5 s and 9 s — so a seeded LP would make `plan_solve_s` and `provision_s`
//! measure the draw, not the solver. The seed still reaches the planner
//! through the chain's re-plans, whose demand the forecaster raises from the
//! seeded trace.
//!
//! The planning stages follow the §5.2 pipeline of
//! `sb_bench::common::build_eval_on` (top-coverage selection, cushion,
//! envelope day); the serving stages use the synthetic spread plan the
//! repo's other load benches use (every planned config split evenly across
//! all DCs — quota pressure without an LP solve).

use sb_core::formulation::ScenarioData;
use sb_core::{AllocationShares, PlanArtifact, PlannedQuotas};
use sb_net::{FailureScenario, Topology};
use sb_workload::{
    CallRecordsDb, ConfigCatalog, ConfigId, DemandMatrix, Generator, UniverseParams, WorkloadParams,
};

use crate::spec::ServeSize;

/// Seed of the universe and of the generator's base stream, fixed.
pub const WORLD_SEED: u64 = 42;

fn params(configs: usize, daily_calls: f64, slot_minutes: u32) -> WorkloadParams {
    WorkloadParams {
        universe: UniverseParams {
            num_configs: configs,
            seed: WORLD_SEED,
            ..Default::default()
        },
        daily_calls,
        slot_minutes,
        seed: WORLD_SEED,
        ..Default::default()
    }
}

/// Inputs of a planning stage (`plan`, `chain`).
pub struct PlanWorld {
    /// The provider topology.
    pub topo: Topology,
    /// Config catalog of the universe.
    pub catalog: ConfigCatalog,
    /// Selected, cushion-inflated demand over the whole horizon.
    pub demand_full: DemandMatrix,
    /// Envelope-day reduction of `demand_full` (the provisioning LP's input).
    pub demand_env: DemandMatrix,
    /// The selected head configs.
    pub selected: Vec<ConfigId>,
    /// Share of calls the selection covers.
    pub coverage_achieved: f64,
    /// Generator parameters (the chain streams its trace from them).
    pub workload: WorkloadParams,
}

/// Take `days` of the world's expected demand on `topo`, select the head
/// configs covering `coverage` of the calls, inflate them to stand for the
/// whole workload, and reduce to the envelope day.
pub fn plan_world(
    topo: Topology,
    configs: usize,
    daily_calls: f64,
    days: u32,
    coverage: f64,
    slot_minutes: u32,
) -> PlanWorld {
    let workload = params(configs, daily_calls, slot_minutes);
    let (catalog, demand) = {
        let generator = Generator::new(&topo, workload.clone());
        (
            generator.universe().catalog.clone(),
            generator.expected_demand(0, days),
        )
    };
    let selected = demand.top_configs_covering(coverage);
    let total = demand.total_calls();
    let covered: f64 = selected
        .iter()
        .map(|&id| demand.series(id).iter().sum::<f64>())
        .sum();
    let coverage_achieved = if total > 0.0 { covered / total } else { 0.0 };
    let inflation = if coverage_achieved > 0.0 {
        1.0 / coverage_achieved
    } else {
        1.0
    };
    let demand_full = demand.filtered(&selected).scaled(inflation);
    let demand_env = demand_full.envelope_day((24 * 60 / slot_minutes) as usize);
    PlanWorld {
        topo,
        catalog,
        demand_full,
        demand_env,
        selected,
        coverage_achieved,
        workload,
    }
}

/// Slot width of the serving stages' plans, minutes (as `engine_load`).
pub const SERVE_SLOT_MINUTES: u32 = 240;
/// Share of expected demand the spread plan covers.
pub const SERVE_COVERAGE: f64 = 0.90;
/// Factor the planned demand is scaled by.
pub const SERVE_QUOTA_SCALE: f64 = 1.15;

/// Inputs of one serving stage.
pub struct ServeWorld {
    /// APAC.
    pub topo: Topology,
    /// The sampled trace (owns the config catalog).
    pub db: CallRecordsDb,
    /// The spread plan.
    pub artifact: PlanArtifact,
    /// Healthy-scenario routing and latency.
    pub sd0: ScenarioData,
    /// Configs the plan covers.
    pub planned_configs: usize,
}

/// Sample the trace for `size` with `seed` and build the spread plan.
pub fn serve_world(size: &ServeSize, seed: u64) -> ServeWorld {
    let topo = sb_net::presets::apac();
    let params = params(size.configs, size.daily_calls, SERVE_SLOT_MINUTES);
    let (db, artifact, planned_configs) = {
        let generator = Generator::new(&topo, params);
        let expected = generator.expected_demand(0, size.days);
        let selected = expected.top_configs_covering(SERVE_COVERAGE);
        let planned = expected.filtered(&selected).scaled(SERVE_QUOTA_SCALE);
        let db = generator.sample_records(0, size.days, seed);
        let slots = planned.num_slots();
        let mut shares = AllocationShares::new(slots);
        let n = topo.dcs.len() as f64;
        let spread: Vec<_> = topo.dc_ids().map(|d| (d, 1.0 / n)).collect();
        for &cfg in &selected {
            for s in 0..slots {
                shares.set(cfg, s, spread.clone());
            }
        }
        let quotas = PlannedQuotas::from_plan(&shares, &planned);
        (db, PlanArtifact::seed(quotas), selected.len())
    };
    let sd0 = ScenarioData::compute(&topo, FailureScenario::None);
    ServeWorld {
        topo,
        db,
        artifact,
        sd0,
        planned_configs,
    }
}
