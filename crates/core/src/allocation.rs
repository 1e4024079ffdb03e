//! The daily allocation plan (§5.3, Eq. 10): with capacities fixed to what
//! was provisioned, choose per-slot, per-config DC shares minimizing mean
//! ACL. Because capacities are constants here, the LP decomposes per time
//! slot into small independent problems — [`SlotPlanner`] owns that LP; this
//! is its one-shot form.

use std::sync::Arc;

use sb_net::ProvisionedCapacity;

use crate::formulation::{PlanningInputs, ProvisionError, ScenarioData, SolveOptions};
use crate::plan::SlotPlanner;
use crate::shares::AllocationShares;

/// Compute the latency-optimal allocation plan under fixed capacity:
/// [`SlotPlanner`] built over `sd` alone and run once.
///
/// Returns shares for every `(config, slot)` with demand. Infeasibility (the
/// capacity cannot place a slot's demand within the latency filter) is
/// reported as an error naming the scenario.
pub fn allocation_plan(
    inputs: &PlanningInputs<'_>,
    sd: &ScenarioData,
    capacity: &ProvisionedCapacity,
    opts: &SolveOptions,
) -> Result<AllocationShares, ProvisionError> {
    let mut planner = SlotPlanner::new(inputs, std::slice::from_ref(sd), capacity, opts);
    Ok(Arc::unwrap_or_clone(planner.plan_initial(sd)?.artifact).shares)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formulation::{solve_scenario, PlanningInputs};
    use crate::usage::{compute_usage, mean_acl, placed_fraction};
    use sb_net::{FailureScenario, Topology};
    use sb_workload::{CallConfig, ConfigCatalog, DemandMatrix, MediaType};

    fn instance() -> (Topology, ConfigCatalog, DemandMatrix) {
        let topo = sb_net::presets::toy_three_dc();
        let jp = topo.country_by_name("JP");
        let iin = topo.country_by_name("IN");
        let mut cat = ConfigCatalog::new();
        let c_jp = cat.intern(CallConfig::new(vec![(jp, 2)], MediaType::Audio));
        let c_in = cat.intern(CallConfig::new(vec![(iin, 2)], MediaType::Audio));
        let mut demand = DemandMatrix::zero(2, 2, 30, 0);
        demand.set(c_jp, 0, 100.0);
        demand.set(c_jp, 1, 10.0);
        demand.set(c_in, 0, 10.0);
        demand.set(c_in, 1, 100.0);
        (topo, cat, demand)
    }

    #[test]
    fn plan_fits_capacity_and_places_everything() {
        let (topo, cat, demand) = instance();
        let inputs = PlanningInputs {
            topo: &topo,
            catalog: &cat,
            demand: &demand,
            latency_threshold_ms: 120.0,
        };
        let sd = ScenarioData::compute(&topo, FailureScenario::None);
        let opts = SolveOptions::default();
        let prov = solve_scenario(&inputs, &sd, None, &opts).unwrap();
        let plan = allocation_plan(&inputs, &sd, &prov.capacity, &opts).unwrap();
        assert!((placed_fraction(&demand, &plan) - 1.0).abs() < 1e-6);
        let usage = compute_usage(&topo, &sd.routing, &cat, &demand, &plan);
        assert!(usage.fits_within(&prov.capacity, 1e-3));
    }

    #[test]
    fn plan_acl_no_worse_than_provisioning_shares() {
        // Eq. 10 minimizes ACL given capacity, so it must weakly beat the
        // cost-optimal shares on latency
        let (topo, cat, demand) = instance();
        let inputs = PlanningInputs {
            topo: &topo,
            catalog: &cat,
            demand: &demand,
            latency_threshold_ms: 120.0,
        };
        let sd = ScenarioData::compute(&topo, FailureScenario::None);
        let opts = SolveOptions::default();
        let prov = solve_scenario(&inputs, &sd, None, &opts).unwrap();
        let plan = allocation_plan(&inputs, &sd, &prov.capacity, &opts).unwrap();
        let acl_plan = mean_acl(&sd.latmap, &cat, &demand, &plan);
        let acl_prov = mean_acl(&sd.latmap, &cat, &demand, &prov.shares);
        assert!(
            acl_plan <= acl_prov + 1e-6,
            "plan {acl_plan} vs prov {acl_prov}"
        );
    }

    #[test]
    fn generous_capacity_yields_locality_first_allocation() {
        // with unconstrained capacity, the latency-optimal plan is LF
        let (topo, cat, demand) = instance();
        let inputs = PlanningInputs {
            topo: &topo,
            catalog: &cat,
            demand: &demand,
            latency_threshold_ms: 120.0,
        };
        let sd = ScenarioData::compute(&topo, FailureScenario::None);
        let big = ProvisionedCapacity {
            cores: vec![1e9; topo.dcs.len()],
            gbps: vec![1e9; topo.links.len()],
        };
        let plan = allocation_plan(&inputs, &sd, &big, &SolveOptions::default()).unwrap();
        let tokyo = topo.dc_by_name("Tokyo");
        let pune = topo.dc_by_name("Pune");
        assert_eq!(plan.get(sb_workload::ConfigId(0), 0), &[(tokyo, 1.0)]);
        assert_eq!(plan.get(sb_workload::ConfigId(1), 1), &[(pune, 1.0)]);
    }

    #[test]
    fn sparse_catalog_beyond_demand_matrix_does_not_truncate_plan() {
        // The catalog holds more configs than the demand matrix covers. The
        // out-of-range configs must be skipped individually, not end the
        // scan: every in-range config with demand still gets shares.
        let (topo, cat, demand) = instance();
        let jp = topo.country_by_name("JP");
        let mut cat = cat;
        // configs 2..6 exist in the catalog but not in the 2-config demand
        // matrix
        for n in 3..7 {
            cat.intern(CallConfig::new(vec![(jp, n)], MediaType::Video));
        }
        assert!(cat.len() > demand.num_configs());
        let inputs = PlanningInputs {
            topo: &topo,
            catalog: &cat,
            demand: &demand,
            latency_threshold_ms: 120.0,
        };
        let sd = ScenarioData::compute(&topo, FailureScenario::None);
        let big = ProvisionedCapacity {
            cores: vec![1e9; topo.dcs.len()],
            gbps: vec![1e9; topo.links.len()],
        };
        let plan = allocation_plan(&inputs, &sd, &big, &SolveOptions::default()).unwrap();
        // both in-demand configs are fully planned, same as with the exact
        // catalog
        assert!((placed_fraction(&demand, &plan) - 1.0).abs() < 1e-6);
        assert!(plan.covers(sb_workload::ConfigId(0)));
        assert!(plan.covers(sb_workload::ConfigId(1)));
        assert!(!plan.covers(sb_workload::ConfigId(3)));
    }

    #[test]
    fn infeasible_capacity_is_an_error() {
        let (topo, cat, demand) = instance();
        let inputs = PlanningInputs {
            topo: &topo,
            catalog: &cat,
            demand: &demand,
            latency_threshold_ms: 120.0,
        };
        let sd = ScenarioData::compute(&topo, FailureScenario::None);
        let tiny = ProvisionedCapacity {
            cores: vec![0.001; topo.dcs.len()],
            gbps: vec![1e9; topo.links.len()],
        };
        assert!(allocation_plan(&inputs, &sd, &tiny, &SolveOptions::default()).is_err());
    }
}
