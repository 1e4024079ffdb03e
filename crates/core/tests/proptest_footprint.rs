//! Builders and accounting read the same placement footprint (Eq. 5–6): on
//! random small worlds, for every `(slot, link)` a planning LP models, the
//! row's activity `Σ coeff · value` at the LP's own solution equals what
//! [`compute_usage`] charges the solution's shares — for the provisioning
//! sweep (`SweepModel`, which `solve_scenario` is the one-scenario form of)
//! and for the Eq. 10 slot planner — and the shares load no link of a
//! modeled slot that has no row.

use std::collections::HashSet;

use proptest::prelude::*;
use sb_core::formulation::{NetworkRow, PlanningInputs, ScenarioData, SolveOptions, SweepModel};
use sb_core::usage::{compute_usage, UsageTimeline};
use sb_core::{AllocationShares, SlotPlanner};
use sb_net::{FailureScenario, ProvisionedCapacity, Topology};
use sb_workload::{CallConfig, ConfigCatalog, DemandMatrix, MediaType};

#[derive(Debug, Clone)]
struct Instance {
    /// APAC (4 DCs, 9 countries) instead of the 3-DC toy.
    apac: bool,
    /// per config: up to two (country pick, participants) legs and a media tag
    configs: Vec<(Vec<(usize, u16)>, u8)>,
    /// demand per (config, slot)
    demand: Vec<Vec<u16>>,
    /// which single failure joins `F₀` in the model
    failure: usize,
}

fn instance_strategy() -> impl Strategy<Value = Instance> {
    (1usize..5, 1usize..4).prop_flat_map(|(n_cfg, n_slots)| {
        let legs = proptest::collection::vec((0usize..64, 1u16..5), 1..3);
        let configs = proptest::collection::vec((legs, 0u8..3), n_cfg);
        let demand = proptest::collection::vec(proptest::collection::vec(0u16..60, n_slots), n_cfg);
        (0u8..2, configs, demand, 1usize..64).prop_map(|(apac, configs, demand, failure)| {
            Instance {
                apac: apac == 1,
                configs,
                demand,
                failure,
            }
        })
    })
}

fn build(inst: &Instance) -> (Topology, ConfigCatalog, DemandMatrix) {
    let topo = if inst.apac {
        sb_net::presets::apac()
    } else {
        sb_net::presets::toy_three_dc()
    };
    let countries: Vec<_> = topo.country_ids().collect();
    let mut catalog = ConfigCatalog::new();
    let slots = inst.demand[0].len();
    let mut demand = DemandMatrix::zero(inst.configs.len(), slots, 30, 0);
    for (i, (legs, media)) in inst.configs.iter().enumerate() {
        let media = match media {
            0 => MediaType::Audio,
            1 => MediaType::ScreenShare,
            _ => MediaType::Video,
        };
        let mut participants: Vec<_> = Vec::new();
        for &(pick, n) in legs {
            let country = countries[pick % countries.len()];
            if participants.iter().all(|&(c, _)| c != country) {
                participants.push((country, n));
            }
        }
        let id = catalog.intern(CallConfig::new(participants, media));
        for (s, &d) in inst.demand[i].iter().enumerate() {
            // two instance configs may intern to one catalog entry
            demand.add(id, s, d as f64);
        }
    }
    (topo, catalog, demand)
}

/// Every row's activity at `shares × demand` equals the accounted usage, and
/// a modeled slot's links without a row carry none.
fn assert_rows_match_usage(
    rows: &[NetworkRow],
    shares: &AllocationShares,
    demand: &DemandMatrix,
    usage: &UsageTimeline,
) -> Result<(), TestCaseError> {
    let mut modeled = HashSet::new();
    for (slot, link, terms) in rows {
        modeled.insert((*slot, link.index()));
        let activity: f64 = terms
            .iter()
            .map(|&(cfg, dc, gbps_per_call)| {
                let placed = shares.get(cfg, *slot).iter().find(|&&(x, _)| x == dc);
                gbps_per_call * demand.get(cfg, *slot) * placed.map_or(0.0, |&(_, f)| f)
            })
            .sum();
        let accounted = usage.gbps[*slot][link.index()];
        prop_assert!(
            (activity - accounted).abs() <= 1e-9 * accounted.abs().max(1.0),
            "slot {slot} link {link:?}: LP row says {activity}, accounting says {accounted}"
        );
    }
    let slots: HashSet<usize> = modeled.iter().map(|&(slot, _)| slot).collect();
    for slot in slots {
        for (link, &gbps) in usage.gbps[slot].iter().enumerate() {
            prop_assert!(
                modeled.contains(&(slot, link)) || gbps == 0.0,
                "slot {slot} link {link}: {gbps} Gbps accounted on a link the LP does not model"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn lp_network_rows_equal_accounted_usage(inst in instance_strategy()) {
        let (topo, catalog, demand) = build(&inst);
        if demand.total_calls() == 0.0 {
            return Ok(());
        }
        let inputs = PlanningInputs::new(&topo, &catalog, &demand);
        let failures = FailureScenario::enumerate(&topo);
        let sds = [
            ScenarioData::compute(&topo, FailureScenario::None),
            ScenarioData::compute(&topo, failures[inst.failure % failures.len()]),
        ];
        let opts = SolveOptions::default();

        // the provisioning LP (Eq. 3–9), patched per scenario
        let mut sweep = SweepModel::new(&inputs, &sds, &opts).unwrap();
        let mut capacity = ProvisionedCapacity::zero(&topo);
        for sd in &sds {
            let (sol, _) = sweep.solve_one(&inputs, sd, None, None).unwrap();
            let usage = compute_usage(&topo, &sd.routing, &catalog, &demand, &sol.shares);
            assert_rows_match_usage(&sweep.network_rows(), &sol.shares, &demand, &usage)?;
            capacity.max_with(&sol.capacity);
        }

        // the allocation LP (Eq. 10) inside what the sweep provisioned
        let mut planner = SlotPlanner::new(&inputs, &sds, &capacity, &opts);
        for sd in &sds {
            let plan = planner.plan_initial(sd).unwrap();
            let shares = &plan.artifact.shares;
            let usage = compute_usage(&topo, &sd.routing, &catalog, &demand, shares);
            assert_rows_match_usage(&planner.network_rows(), shares, &demand, &usage)?;
        }
    }
}
