//! Decomposed (greedy marginal-cost) provisioner: a scalable alternative to
//! the exact scenario LP for very large instances, and the ablation partner
//! DESIGN.md calls out. It processes `(slot, config)` demands in descending
//! compute-load order and places each on the allowed DC with the smallest
//! marginal increase in provisioned cost, then runs improvement sweeps.
//!
//! The result is always feasible (capacity is grown to cover usage); quality
//! relative to the exact LP is checked in tests.

use sb_net::{DcId, LinkId, ProvisionedCapacity};
use sb_workload::ConfigId;

use sb_core::formulation::{placement_grid, PlanningInputs, ScenarioData, ScenarioSolution};
use sb_core::shares::AllocationShares;
use sb_core::usage::link_loads;

/// Options for the greedy solve.
#[derive(Clone, Debug)]
pub struct GreedyOptions {
    /// Demands below this are treated as zero.
    pub min_demand: f64,
    /// Latency tie-break weight (same role as the LP's `acl_epsilon`).
    pub acl_epsilon: f64,
    /// Number of improvement sweeps after the constructive pass.
    pub sweeps: usize,
}

impl Default for GreedyOptions {
    fn default() -> Self {
        GreedyOptions {
            min_demand: 1e-6,
            acl_epsilon: 1e-6,
            sweeps: 2,
        }
    }
}

struct Item {
    cfg: ConfigId,
    slot: usize,
    demand: f64,
    call_cl: f64,
    /// Parallel to `allowed`: (dc, acl).
    allowed: Vec<(DcId, f64)>,
    /// Parallel to `allowed`: per-call link loads.
    links: Vec<Vec<(LinkId, f64)>>,
    /// Chosen index into `allowed`.
    choice: usize,
}

/// Greedy provisioning for one scenario; same output type as the LP path.
pub fn solve_scenario_greedy(
    inputs: &PlanningInputs<'_>,
    sd: &ScenarioData,
    opts: &GreedyOptions,
) -> ScenarioSolution {
    let topo = inputs.topo;
    let demand = inputs.demand;

    // build work items: over `sd` alone the grid lists exactly the configs
    // `sd` can host, and the rest are this scenario's drops
    let (grid, dropped) = placement_grid(inputs, std::slice::from_ref(sd), opts.min_demand);
    let mut items: Vec<Item> = Vec::new();
    for (cfg_id, _) in grid {
        let cfg = inputs.catalog.config(cfg_id);
        let allowed = sd.latmap.allowed_dcs(cfg, inputs.latency_threshold_ms);
        let links: Vec<Vec<(LinkId, f64)>> = allowed
            .iter()
            .map(|&(dc, _)| link_loads(&sd.routing, cfg, dc))
            .collect();
        for slot in 0..demand.num_slots() {
            let d = demand.get(cfg_id, slot);
            if d > opts.min_demand {
                items.push(Item {
                    cfg: cfg_id,
                    slot,
                    demand: d,
                    call_cl: cfg.compute_load(),
                    allowed: allowed.clone(),
                    links: links.clone(),
                    choice: usize::MAX,
                });
            }
        }
    }
    // big rocks first
    items.sort_by(|a, b| (b.demand * b.call_cl).total_cmp(&(a.demand * a.call_cl)));

    let t_slots = demand.num_slots();
    let mut use_cores = vec![vec![0.0f64; topo.dcs.len()]; t_slots];
    let mut use_gbps = vec![vec![0.0f64; topo.links.len()]; t_slots];
    let mut cap_cores = vec![0.0f64; topo.dcs.len()];
    let mut cap_gbps = vec![0.0f64; topo.links.len()];

    let marginal = |item: &Item,
                    k: usize,
                    use_cores: &[Vec<f64>],
                    use_gbps: &[Vec<f64>],
                    cap_cores: &[f64],
                    cap_gbps: &[f64]| {
        let (dc, acl) = item.allowed[k];
        let add_cores = item.demand * item.call_cl;
        let new_core = use_cores[item.slot][dc.index()] + add_cores;
        let mut cost = topo.dcs[dc.index()].core_cost * (new_core - cap_cores[dc.index()]).max(0.0);
        for &(l, w) in &item.links[k] {
            let new_bw = use_gbps[item.slot][l.index()] + item.demand * w;
            cost += topo.links[l.index()].cost_per_gbps * (new_bw - cap_gbps[l.index()]).max(0.0);
        }
        cost + opts.acl_epsilon * acl * item.demand
    };

    let apply = |item: &Item,
                 k: usize,
                 sign: f64,
                 use_cores: &mut [Vec<f64>],
                 use_gbps: &mut [Vec<f64>]| {
        let (dc, _) = item.allowed[k];
        use_cores[item.slot][dc.index()] += sign * item.demand * item.call_cl;
        for &(l, w) in &item.links[k] {
            use_gbps[item.slot][l.index()] += sign * item.demand * w;
        }
    };

    let grow_caps = |item: &Item,
                     k: usize,
                     use_cores: &[Vec<f64>],
                     use_gbps: &[Vec<f64>],
                     cap_cores: &mut [f64],
                     cap_gbps: &mut [f64]| {
        let (dc, _) = item.allowed[k];
        cap_cores[dc.index()] = cap_cores[dc.index()].max(use_cores[item.slot][dc.index()]);
        for &(l, _) in &item.links[k] {
            cap_gbps[l.index()] = cap_gbps[l.index()].max(use_gbps[item.slot][l.index()]);
        }
    };

    // constructive pass
    for i in 0..items.len() {
        let best = (0..items[i].allowed.len())
            .min_by(|&a, &b| {
                marginal(&items[i], a, &use_cores, &use_gbps, &cap_cores, &cap_gbps).total_cmp(
                    &marginal(&items[i], b, &use_cores, &use_gbps, &cap_cores, &cap_gbps),
                )
            })
            .expect("allowed is non-empty");
        items[i].choice = best;
        apply(&items[i], best, 1.0, &mut use_cores, &mut use_gbps);
        grow_caps(
            &items[i],
            best,
            &use_cores,
            &use_gbps,
            &mut cap_cores,
            &mut cap_gbps,
        );
    }

    // improvement sweeps: re-place each item against current state
    for _ in 0..opts.sweeps {
        // recompute capacities as exact peaks (they may be loose after moves)
        recompute_caps(&use_cores, &use_gbps, &mut cap_cores, &mut cap_gbps);
        for i in 0..items.len() {
            let current = items[i].choice;
            apply(&items[i], current, -1.0, &mut use_cores, &mut use_gbps);
            recompute_caps(&use_cores, &use_gbps, &mut cap_cores, &mut cap_gbps);
            let best = (0..items[i].allowed.len())
                .min_by(|&a, &b| {
                    marginal(&items[i], a, &use_cores, &use_gbps, &cap_cores, &cap_gbps).total_cmp(
                        &marginal(&items[i], b, &use_cores, &use_gbps, &cap_cores, &cap_gbps),
                    )
                })
                .unwrap();
            items[i].choice = best;
            apply(&items[i], best, 1.0, &mut use_cores, &mut use_gbps);
            grow_caps(
                &items[i],
                best,
                &use_cores,
                &use_gbps,
                &mut cap_cores,
                &mut cap_gbps,
            );
        }
    }
    recompute_caps(&use_cores, &use_gbps, &mut cap_cores, &mut cap_gbps);

    let capacity = ProvisionedCapacity {
        cores: cap_cores,
        gbps: cap_gbps,
    };
    let mut shares = AllocationShares::new(t_slots);
    for item in &items {
        let (dc, _) = item.allowed[item.choice];
        shares.set(item.cfg, item.slot, vec![(dc, 1.0)]);
    }
    let objective = capacity.cost(topo);
    // the greedy path has no LP and no base capacity: all capacity is "bought"
    ScenarioSolution {
        scenario: sd.scenario,
        capacity,
        shares,
        objective,
        dropped,
        iterations: 0,
        lp_rows: 0,
        lp_cols: 0,
        increment_cost: objective,
        stats: Default::default(),
    }
}

fn recompute_caps(
    use_cores: &[Vec<f64>],
    use_gbps: &[Vec<f64>],
    cap_cores: &mut [f64],
    cap_gbps: &mut [f64],
) {
    for c in cap_cores.iter_mut() {
        *c = 0.0;
    }
    for g in cap_gbps.iter_mut() {
        *g = 0.0;
    }
    for slot in use_cores {
        for (c, &u) in cap_cores.iter_mut().zip(slot) {
            *c = c.max(u);
        }
    }
    for slot in use_gbps {
        for (g, &u) in cap_gbps.iter_mut().zip(slot) {
            *g = g.max(u);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_core::formulation::{solve_scenario, SolveOptions};
    use sb_core::usage::{compute_usage, placed_fraction};
    use sb_net::{FailureScenario, Topology};
    use sb_workload::{CallConfig, ConfigCatalog, DemandMatrix, MediaType};

    fn instance() -> (Topology, ConfigCatalog, DemandMatrix) {
        let topo = sb_net::presets::apac();
        let mut cat = ConfigCatalog::new();
        let mut demand = DemandMatrix::zero(6, 4, 30, 0);
        let countries = ["JP", "IN", "HK", "ID", "KR", "AU"];
        for (i, name) in countries.iter().enumerate() {
            let c = topo.country_by_name(name);
            let id = cat.intern(CallConfig::new(vec![(c, 3)], MediaType::Audio));
            // shifted peaks
            for slot in 0..4 {
                let d = if slot == i % 4 { 60.0 } else { 8.0 };
                demand.set(id, slot, d);
            }
        }
        (topo, cat, demand)
    }

    #[test]
    fn greedy_is_feasible() {
        let (topo, cat, demand) = instance();
        let inputs = PlanningInputs {
            topo: &topo,
            catalog: &cat,
            demand: &demand,
            latency_threshold_ms: 120.0,
        };
        let sd = ScenarioData::compute(&topo, FailureScenario::None);
        let sol = solve_scenario_greedy(&inputs, &sd, &GreedyOptions::default());
        assert!(sol.dropped.is_empty());
        assert!((placed_fraction(&demand, &sol.shares) - 1.0).abs() < 1e-9);
        let usage = compute_usage(&topo, &sd.routing, &cat, &demand, &sol.shares);
        assert!(usage.fits_within(&sol.capacity, 1e-9));
    }

    #[test]
    fn greedy_close_to_exact_lp() {
        let (topo, cat, demand) = instance();
        let inputs = PlanningInputs {
            topo: &topo,
            catalog: &cat,
            demand: &demand,
            latency_threshold_ms: 120.0,
        };
        let sd = ScenarioData::compute(&topo, FailureScenario::None);
        let exact = solve_scenario(&inputs, &sd, None, &SolveOptions::default()).unwrap();
        let greedy = solve_scenario_greedy(&inputs, &sd, &GreedyOptions::default());
        assert!(
            greedy.objective >= exact.objective - 1e-6,
            "greedy cannot beat the LP"
        );
        let gap = (greedy.objective - exact.objective) / exact.objective;
        assert!(gap < 0.35, "greedy gap {gap} too large");
    }

    #[test]
    fn sweeps_do_not_hurt() {
        let (topo, cat, demand) = instance();
        let inputs = PlanningInputs {
            topo: &topo,
            catalog: &cat,
            demand: &demand,
            latency_threshold_ms: 120.0,
        };
        let sd = ScenarioData::compute(&topo, FailureScenario::None);
        let zero = solve_scenario_greedy(
            &inputs,
            &sd,
            &GreedyOptions {
                sweeps: 0,
                ..Default::default()
            },
        );
        let two = solve_scenario_greedy(&inputs, &sd, &GreedyOptions::default());
        assert!(two.objective <= zero.objective + 1e-9);
    }

    #[test]
    fn greedy_under_failure_scenario() {
        let (topo, cat, demand) = instance();
        let inputs = PlanningInputs {
            topo: &topo,
            catalog: &cat,
            demand: &demand,
            latency_threshold_ms: 120.0,
        };
        let tokyo = topo.dc_by_name("Tokyo");
        let sd = ScenarioData::compute(&topo, FailureScenario::DcDown(tokyo));
        let sol = solve_scenario_greedy(&inputs, &sd, &GreedyOptions::default());
        assert_eq!(sol.capacity.cores[tokyo.index()], 0.0);
        assert!((placed_fraction(&demand, &sol.shares) - 1.0).abs() < 1e-9);
    }
}
