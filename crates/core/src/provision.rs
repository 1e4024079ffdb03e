//! The full MP capacity provisioning pass (§5.3): solve the LP once per
//! failure scenario (`F₀`, every DC down, every link down) and take the
//! component-wise maximum (Eq. 7–8).
//!
//! The sweep is *warm-start-first*: one [`SweepModel`] master LP is built
//! over the union of all scenarios, `F₀` is solved cold, and every other
//! scenario re-optimizes from an already-optimal basis — in
//! [`solve_scenarios`] each worker thread seeds from the `F₀` basis, and in
//! [`provision`]'s sequential increment pass each solve chains from the
//! previous one's basis.

use sb_lp::Basis;
use sb_net::{FailureScenario, ProvisionedCapacity};

use crate::formulation::{
    PlanningInputs, ProvisionError, ScenarioData, ScenarioSolution, SolveOptions, SweepModel,
};
use crate::shares::AllocationShares;

/// Provisioner configuration.
#[derive(Clone, Debug)]
pub struct ProvisionerParams {
    /// Provision backup capacity by sweeping all single-failure scenarios
    /// (`true` = the paper's "with backup" column).
    pub with_backup: bool,
    /// Scenario-LP options.
    pub solve: SolveOptions,
    /// Max worker threads for [`solve_scenarios`] (0 = available
    /// parallelism). [`provision`] never reads it: its increment and
    /// refinement passes are one sequential chain, each solve warm-starting
    /// from the previous one's basis.
    pub threads: usize,
    /// Cross-scenario refinement passes: each pass re-solves every scenario
    /// (including `F₀`) against the capacity the *other* scenarios already
    /// require, letting serving and backup share capacity in both directions
    /// (§4.2). 0 disables refinement.
    pub refine_passes: usize,
}

impl Default for ProvisionerParams {
    fn default() -> Self {
        ProvisionerParams {
            with_backup: true,
            solve: SolveOptions::default(),
            threads: 0,
            refine_passes: 2,
        }
    }
}

/// Output of provisioning.
#[derive(Clone, Debug)]
pub struct ProvisioningPlan {
    /// Final capacity to provision: max over scenarios (Eq. 7–8).
    pub capacity: ProvisionedCapacity,
    /// Serving capacity: the no-failure scenario's requirement.
    pub serving: ProvisionedCapacity,
    /// Optimal `F₀` shares (used to seed the daily allocation plan).
    pub f0_shares: AllocationShares,
    /// Per-scenario capacities (for inspection/drills).
    pub scenarios: Vec<(FailureScenario, ProvisionedCapacity)>,
    /// Total cost of the final capacity.
    pub cost: f64,
}

/// Run provisioning for `inputs`.
///
/// Two stages, matching §4.2/§5.3: first the no-failure LP fixes the
/// *serving* capacity; then every single-failure scenario LP buys only the
/// cheapest *increment* on top of it (off-peak serving capacity at surviving
/// DCs is reused as backup for free). The final capacity is the
/// component-wise max across scenarios (Eq. 7–8).
pub fn provision(
    inputs: &PlanningInputs<'_>,
    params: &ProvisionerParams,
) -> Result<ProvisioningPlan, ProvisionError> {
    // requirement of one scenario = the usage peaks of its solution
    let peaks_of = |sd: &ScenarioData, shares: &crate::shares::AllocationShares| {
        crate::usage::compute_usage(
            inputs.topo,
            &sd.routing,
            inputs.catalog,
            inputs.demand,
            shares,
        )
        .peaks()
    };

    // stage 1: serving capacity (F0)
    let sd0 = ScenarioData::compute(inputs.topo, FailureScenario::None);

    if !params.with_backup {
        let mut model = SweepModel::new(inputs, std::slice::from_ref(&sd0), &params.solve)?;
        let (f0, _) = model.solve_one(inputs, &sd0, None, None)?;
        let capacity = f0.capacity.clone();
        let cost = capacity.cost(inputs.topo);
        return Ok(ProvisioningPlan {
            capacity,
            serving: f0.capacity.clone(),
            f0_shares: f0.shares,
            scenarios: vec![(FailureScenario::None, f0.capacity)],
            cost,
        });
    }

    // Scenario data (routing + latency under each failure) is hoisted once:
    // the same `ScenarioData` feeds the master LP structure, every solve of
    // that scenario across refinement passes, and its usage peaks. DC
    // failures are the big perturbations, so they go first.
    let mut scenarios: Vec<FailureScenario> = FailureScenario::enumerate(inputs.topo)
        .into_iter()
        .filter(|s| *s != FailureScenario::None)
        .collect();
    scenarios.sort_by_key(|s| match s {
        FailureScenario::DcDown(_) => 0,
        _ => 1,
    });
    let mut sds: Vec<ScenarioData> = Vec::with_capacity(1 + scenarios.len());
    sds.push(sd0);
    sds.extend(
        scenarios
            .iter()
            .map(|&sc| ScenarioData::compute(inputs.topo, sc)),
    );
    let mut model = SweepModel::new(inputs, &sds, &params.solve)?;

    // One basis threads through the whole pass: F0 solves cold, everything
    // after warm-starts from the most recent optimal basis (consecutive
    // scenarios differ by one failure, so bases transfer almost unchanged).
    let (f0, mut last_basis) = model.solve_one(inputs, &sds[0], None, None)?;
    let mut f0_shares = f0.shares.clone();
    let serving = f0.capacity.clone();

    // Stage 2: per-failure increments, accumulated sequentially — backup
    // capacity bought for one failure scenario is reused by the next for
    // free (only one failure happens at a time, §5.3), which is the §4.2
    // sharing that makes SB's backup cheap.
    // requirements per scenario (usage peaks), F0 first
    let mut reqs: Vec<(FailureScenario, ProvisionedCapacity)> =
        vec![(FailureScenario::None, peaks_of(&sds[0], &f0.shares))];
    {
        let mut union = reqs[0].1.clone();
        for sd in &sds[1..] {
            let (sol, basis) = model.solve_one(inputs, sd, Some(&union), last_basis.as_ref())?;
            let peaks = peaks_of(sd, &sol.shares);
            union.max_with(&peaks);
            reqs.push((sd.scenario, peaks));
            if basis.is_some() {
                last_basis = basis;
            }
        }
    }

    // Stage 3: cross-scenario refinement — re-solve each scenario (F0 too)
    // against the union of the *other* scenarios' requirements, so serving
    // can also sit in capacity that failures forced anyway. Scenarios whose
    // requirement the others already cover are skipped (zero-increment).
    for _ in 0..params.refine_passes {
        for i in 0..reqs.len() {
            let mut others = ProvisionedCapacity::zero(inputs.topo);
            for (j, (_, r)) in reqs.iter().enumerate() {
                if j != i {
                    others.max_with(r);
                }
            }
            if others.covers(&reqs[i].1, 1e-9) {
                crate::metrics::provision_metrics().record_refine_skipped();
                continue;
            }
            let (sol, basis) =
                model.solve_one(inputs, &sds[i], Some(&others), last_basis.as_ref())?;
            reqs[i].1 = peaks_of(&sds[i], &sol.shares);
            if reqs[i].0 == FailureScenario::None {
                f0_shares = sol.shares;
            }
            if basis.is_some() {
                last_basis = basis;
            }
        }
    }

    let mut capacity = ProvisionedCapacity::zero(inputs.topo);
    for (_, r) in &reqs {
        capacity.max_with(r);
    }
    let cost = capacity.cost(inputs.topo);
    Ok(ProvisioningPlan {
        capacity,
        serving,
        f0_shares,
        scenarios: reqs,
        cost,
    })
}

/// Solve a set of scenarios (optionally above a base capacity) in parallel,
/// preserving order.
///
/// Warm-start-first: the first scenario is solved cold on the shared
/// [`SweepModel`] and its optimal basis seeds *every* remaining solve.
/// Because each worker starts from the same seed basis (never from another
/// worker's result), the output is bit-identical regardless of thread count;
/// serial and threaded execution share this one code path.
pub fn solve_scenarios(
    inputs: &PlanningInputs<'_>,
    scenarios: &[FailureScenario],
    base: Option<&ProvisionedCapacity>,
    params: &ProvisionerParams,
) -> Result<Vec<ScenarioSolution>, ProvisionError> {
    if scenarios.is_empty() {
        return Ok(Vec::new());
    }
    let sds: Vec<ScenarioData> = scenarios
        .iter()
        .map(|&sc| ScenarioData::compute(inputs.topo, sc))
        .collect();
    let mut model = SweepModel::new(inputs, &sds, &params.solve)?;

    // seed solve: first scenario, cold
    let (first, seed) = model.solve_one(inputs, &sds[0], base, None)?;
    let seed: Option<&Basis> = seed.as_ref();

    let mut results: Vec<Option<Result<ScenarioSolution, ProvisionError>>> =
        (0..sds.len()).map(|_| None).collect();
    results[0] = Some(Ok(first));

    let remaining = sds.len() - 1;
    let threads = if params.threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    } else {
        params.threads
    }
    .min(remaining.max(1));

    if remaining > 0 {
        if threads <= 1 {
            for (i, slot) in results.iter_mut().enumerate().skip(1) {
                *slot = Some(model.solve_one(inputs, &sds[i], base, seed).map(|(s, _)| s));
            }
        } else {
            // strided fan-out: worker w owns indices 1+w, 1+w+threads, …;
            // each returns (index, result) pairs scattered back afterwards,
            // so no locks and a deterministic index → worker mapping
            let sds_ref = &sds;
            let filled: Vec<Vec<(usize, Result<ScenarioSolution, ProvisionError>)>> =
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..threads)
                        .map(|w| {
                            let mut local = model.clone();
                            scope.spawn(move || {
                                let mut out = Vec::new();
                                let mut i = 1 + w;
                                while i < sds_ref.len() {
                                    let r = local
                                        .solve_one(inputs, &sds_ref[i], base, seed)
                                        .map(|(s, _)| s);
                                    out.push((i, r));
                                    i += threads;
                                }
                                out
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("scenario worker panicked"))
                        .collect()
                });
            for chunk in filled {
                for (i, r) in chunk {
                    results[i] = Some(r);
                }
            }
        }
    }

    results
        .into_iter()
        .map(|r| r.expect("every scenario slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_net::Topology;
    use sb_workload::{CallConfig, ConfigCatalog, DemandMatrix, MediaType};

    fn instance() -> (Topology, ConfigCatalog, DemandMatrix) {
        let topo = sb_net::presets::toy_three_dc();
        let jp = topo.country_by_name("JP");
        let iin = topo.country_by_name("IN");
        let hk = topo.country_by_name("HK");
        let mut cat = ConfigCatalog::new();
        let c_jp = cat.intern(CallConfig::new(vec![(jp, 2)], MediaType::Audio));
        let c_in = cat.intern(CallConfig::new(vec![(iin, 2)], MediaType::Audio));
        let c_hk = cat.intern(CallConfig::new(vec![(hk, 2)], MediaType::Video));
        let mut demand = DemandMatrix::zero(3, 3, 30, 0);
        demand.set(c_jp, 0, 50.0);
        demand.set(c_in, 1, 50.0);
        demand.set(c_hk, 2, 20.0);
        (topo, cat, demand)
    }

    #[test]
    fn backup_capacity_dominates_serving() {
        let (topo, cat, demand) = instance();
        let inputs = PlanningInputs {
            topo: &topo,
            catalog: &cat,
            demand: &demand,
            latency_threshold_ms: 120.0,
        };
        let plan = provision(&inputs, &ProvisionerParams::default()).unwrap();
        assert!(plan.capacity.covers(&plan.serving, 1e-9));
        assert!(plan.cost >= plan.serving.cost(&topo) - 1e-9);
        // scenario list: F0 + 3 DCs + all links
        assert_eq!(plan.scenarios.len(), 1 + 3 + topo.links.len());
    }

    #[test]
    fn without_backup_is_cheaper() {
        let (topo, cat, demand) = instance();
        let inputs = PlanningInputs {
            topo: &topo,
            catalog: &cat,
            demand: &demand,
            latency_threshold_ms: 120.0,
        };
        let with = provision(&inputs, &ProvisionerParams::default()).unwrap();
        let without = provision(
            &inputs,
            &ProvisionerParams {
                with_backup: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(without.cost <= with.cost + 1e-9);
        assert_eq!(without.scenarios.len(), 1);
    }

    #[test]
    fn capacity_survives_any_dc_failure() {
        // the provisioned capacity must admit a feasible placement under
        // every DC failure — by construction it covers each scenario's needs
        let (topo, cat, demand) = instance();
        let inputs = PlanningInputs {
            topo: &topo,
            catalog: &cat,
            demand: &demand,
            latency_threshold_ms: 120.0,
        };
        let plan = provision(&inputs, &ProvisionerParams::default()).unwrap();
        for (sc, cap) in &plan.scenarios {
            assert!(
                plan.capacity.covers(cap, 1e-6),
                "final capacity does not cover scenario {sc:?}"
            );
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let (topo, cat, demand) = instance();
        let inputs = PlanningInputs {
            topo: &topo,
            catalog: &cat,
            demand: &demand,
            latency_threshold_ms: 120.0,
        };
        let par = provision(&inputs, &ProvisionerParams::default()).unwrap();
        let seq = provision(
            &inputs,
            &ProvisionerParams {
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert!((par.cost - seq.cost).abs() < 1e-6 * (1.0 + seq.cost));
        assert_eq!(par.scenarios.len(), seq.scenarios.len());
    }
}
