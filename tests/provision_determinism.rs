//! `provision` is a pure function of its inputs: two calls in one process
//! return bitwise-equal plans and spend the same number of simplex
//! iterations. (It once summed usage over a hash map in hash order, so the
//! capacity requirements differed in the last bits from call to call and
//! the scenario LPs pivoted differently: 14,097–15,304 iterations on
//! identical input.)
//!
//! One test in its own file: it reads process-wide `sb_obs` counters.

use switchboard::core::{provision, PlanningInputs, ProvisionerParams};
use switchboard::workload::{Generator, UniverseParams, WorkloadParams};

#[test]
fn two_provision_calls_agree_bitwise_and_in_iteration_count() {
    let topo = switchboard::net::presets::apac();
    let generator = Generator::new(
        &topo,
        WorkloadParams {
            universe: UniverseParams {
                num_configs: 120,
                seed: 42,
                ..Default::default()
            },
            daily_calls: 3_000.0,
            slot_minutes: 240,
            seed: 42,
            ..Default::default()
        },
    );
    let expected = generator.expected_demand(0, 1);
    let planned = expected.filtered(&expected.top_configs_covering(0.7));
    let inputs = PlanningInputs {
        topo: &topo,
        catalog: &generator.universe().catalog,
        demand: &planned,
        latency_threshold_ms: 120.0,
    };
    let params = ProvisionerParams {
        threads: 1,
        ..Default::default()
    };

    let obs = switchboard::obs::global();
    obs.set_enabled(true);
    let iterations =
        || obs.counter("lp.phase1_iterations").get() + obs.counter("lp.phase2_iterations").get();
    let mut runs = Vec::new();
    for _ in 0..2 {
        let before = iterations();
        let plan = provision(&inputs, &params).expect("provisioning succeeds");
        runs.push((plan, iterations() - before));
    }
    let ((a, a_iters), (b, b_iters)) = (&runs[0], &runs[1]);
    assert!(*a_iters > 0, "the sweep pivots");
    assert_eq!(a_iters, b_iters, "simplex iterations differ between calls");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&a.capacity.cores), bits(&b.capacity.cores));
    assert_eq!(bits(&a.capacity.gbps), bits(&b.capacity.gbps));
    assert_eq!(a.cost.to_bits(), b.cost.to_bits());
    assert_eq!(a.f0_shares, b.f0_shares);
}
