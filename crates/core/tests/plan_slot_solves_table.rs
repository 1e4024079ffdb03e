//! The `plan.slot_solves` metrics table holds one row per re-solved slot, in
//! the schema `PLAN_SLOT_COLUMNS` declares. The table lives in the
//! process-wide registry, so this test is a binary of its own: no other test
//! in the process plans while it counts rows.

use sb_core::formulation::{solve_scenario, PlanningInputs, ScenarioData, SolveOptions};
use sb_core::{SlotPlanner, PLAN_SLOT_COLUMNS};
use sb_net::{FailureScenario, ProvisionedCapacity};
use sb_obs::Value;
use sb_workload::{CallConfig, ConfigCatalog, DemandMatrix, MediaType};

#[test]
fn one_row_per_re_solved_slot() {
    let topo = sb_net::presets::toy_three_dc();
    let mut catalog = ConfigCatalog::new();
    let mut demand = DemandMatrix::zero(2, 3, 30, 0);
    for (country, series) in [("JP", [100.0, 10.0, 40.0]), ("IN", [10.0, 100.0, 40.0])] {
        let c = topo.country_by_name(country);
        let cfg = catalog.intern(CallConfig::new(vec![(c, 2)], MediaType::Audio));
        for (slot, d) in series.into_iter().enumerate() {
            demand.set(cfg, slot, d);
        }
    }
    let inputs = PlanningInputs::new(&topo, &catalog, &demand);
    let sd = ScenarioData::compute(&topo, FailureScenario::None);
    let prov = solve_scenario(&inputs, &sd, None, &SolveOptions::default()).unwrap();
    // headroom so the override below stays feasible
    let capacity = ProvisionedCapacity {
        cores: prov.capacity.cores.iter().map(|c| c * 2.0 + 10.0).collect(),
        gbps: prov.capacity.gbps.iter().map(|g| g * 2.0 + 10.0).collect(),
    };
    // one slot's demand moves: the re-plan re-solves that slot alone
    let mut moved = demand.clone();
    moved.set(catalog.iter().next().unwrap().0, 1, 60.0);

    sb_obs::global().set_enabled(true);
    let opts = SolveOptions::default();
    let mut planner = SlotPlanner::new(&inputs, std::slice::from_ref(&sd), &capacity, &opts);
    let initial = planner.plan_initial(&sd).unwrap();
    let replan = planner
        .replan_from(&initial.artifact, 0, &sd, Some(&moved))
        .unwrap();
    sb_obs::global().set_enabled(false);

    let table = sb_obs::global().table("plan.slot_solves", &PLAN_SLOT_COLUMNS);
    assert_eq!(table.columns(), PLAN_SLOT_COLUMNS);
    assert_eq!(table.len(), initial.solved_slots() + replan.solved_slots());
    // (epoch, slot) of each row: the initial plan's three, then the moved one
    let rows: Vec<_> = (table.rows().iter())
        .map(|r| (r[0].clone(), r[1].clone()))
        .collect();
    let expect =
        [(1u64, 0u64), (1, 1), (1, 2), (2, 1)].map(|(e, s)| (Value::from(e), Value::from(s)));
    assert_eq!(rows, expect);
}
