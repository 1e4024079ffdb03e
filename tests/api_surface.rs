//! Compile-and-run checks for the layered public API: the README / crate-doc
//! pipeline must work against each prelude layer using only that layer's
//! exports (plus the root prelude for shared pipeline types). If a re-export
//! goes missing or moves, these tests fail to *compile*, which is the point.

/// The end-user pipeline from the crate docs, against `prelude` alone:
/// topology → workload → provision → allocation plan → plan artifact.
#[test]
fn root_prelude_covers_the_readme_pipeline() {
    use switchboard::core::formulation::{ScenarioData, SolveOptions};
    use switchboard::prelude::*;

    let topo = switchboard::net::presets::toy_three_dc();
    let params = WorkloadParams {
        universe: UniverseParams {
            num_configs: 10,
            ..Default::default()
        },
        daily_calls: 200.0,
        slot_minutes: 120,
        ..Default::default()
    };
    let generator = Generator::new(&topo, params);
    let demand = generator.expected_demand(0, 1);

    let inputs = PlanningInputs::new(&topo, &generator.universe().catalog, &demand);
    let opts = ProvisionerParams {
        with_backup: false,
        ..Default::default()
    };
    let plan = provision(&inputs, &opts).unwrap();
    assert!(plan.capacity.total_cores() > 0.0);

    let sd0 = ScenarioData::compute(&topo, FailureScenario::None);
    let shares = allocation_plan(&inputs, &sd0, &plan.capacity, &SolveOptions::default()).unwrap();
    let quotas = PlannedQuotas::from_plan(&shares, &demand);
    let artifact = PlanArtifact::seed(quotas);
    assert_eq!(artifact.epoch, 0);

    // round-trip through the TSV export the ops tooling consumes
    let tsv = artifact.to_tsv();
    let parsed = PlanArtifact::from_tsv(&tsv).unwrap();
    assert_eq!(parsed.quotas.num_slots(), artifact.quotas.num_slots());
}

/// The LP layer from the `sb-lp` crate docs, against `prelude::solver`
/// alone: model, solve with both engines, warm-restart from the basis.
#[test]
fn solver_prelude_covers_the_lp_surface() {
    use switchboard::prelude::solver::*;

    // minimize total peak capacity for two sites sharing demand 10
    let mut lp = LpProblem::new();
    let p1 = lp.add_nonneg("peak_a", 1.0);
    let p2 = lp.add_nonneg("peak_b", 1.0);
    let sa = lp.add_var("share_a", 0.0, 0.0, 10.0);
    let sb = lp.add_var("share_b", 0.0, 0.0, 10.0);
    lp.add_eq(vec![(sa, 1.0), (sb, 1.0)], 10.0);
    lp.add_le(vec![(sa, 1.0), (p1, -1.0)], 0.0);
    lp.add_le(vec![(sb, 1.0), (p2, -1.0)], 0.0);

    let dense = DenseSimplex::new().solve(&lp).unwrap();
    let revised = RevisedSimplex::new().solve(&lp).unwrap();
    assert!((dense.objective() - 10.0).abs() < 1e-7);
    assert!((revised.objective() - dense.objective()).abs() < 1e-7);

    // warm restart: perturb the rhs, re-solve from the optimal basis
    let basis: Basis = revised
        .basis()
        .expect("optimal solve carries a basis")
        .clone();
    lp.set_rhs(0, 12.0);
    let warm = RevisedSimplex::new()
        .solve_with_basis(&lp, Some(&basis))
        .unwrap();
    assert!((warm.objective() - 12.0).abs() < 1e-7);

    // the guarded engine wraps the same problem type
    let guarded = GuardedSimplex::new().solve(&lp).unwrap();
    assert!((guarded.objective() - 12.0).abs() < 1e-7);
}

/// The selector / replay / service layer against `prelude::engine` alone
/// (root prelude only for the pipeline inputs).
#[test]
fn engine_prelude_covers_selector_replay_and_service() {
    use switchboard::core::formulation::ScenarioData;
    use switchboard::prelude::engine::*;
    use switchboard::prelude::{
        AllocationShares, FailureScenario, PlanArtifact, PlannedQuotas, UniverseParams,
        WorkloadParams,
    };
    use switchboard::workload::Generator;

    let topo = switchboard::net::presets::apac();
    let params = WorkloadParams {
        universe: UniverseParams {
            num_configs: 40,
            ..Default::default()
        },
        daily_calls: 300.0,
        slot_minutes: 120,
        ..Default::default()
    };
    let generator = Generator::new(&topo, params);
    let expected = generator.expected_demand(2, 1);
    let selected = expected.top_configs_covering(0.95);
    let planned = expected.filtered(&selected).scaled(1.3);
    let db = generator.sample_records(2, 1, 5);

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
    let artifact = PlanArtifact::seed(quotas.clone());
    let sd0 = ScenarioData::compute(&topo, FailureScenario::None);

    // selector primitives
    let selector = RealtimeSelector::from_artifact(&sd0.latmap, &artifact);
    let report: ReplayReport = replay(
        &topo,
        &sd0.routing,
        &sd0.latmap,
        db.catalog(),
        &db,
        &selector,
        &ReplayConfig::default(),
    );
    assert!(report.calls > 0);
    let _stats: SelectorStats = report.selector.clone();

    // chaos replay through the one control loop
    let chaos: LoopReport = ReplayDriver::new(&topo, db.catalog(), &db, quotas, 240)
        .config(LoopConfig::default())
        .run();
    let stats: LoopStats = chaos.stats;
    assert_eq!(stats.stranded, 0);

    // the service layer
    let engine = Engine::new(&sd0.latmap, &artifact, &EngineConfig::default());
    let r = &db.records()[0];
    let mut worker = engine.worker();
    let adm: Admission = worker.admit(r.id, r.first_joiner);
    assert!(adm.dc().is_some());
    worker.freeze(r.id, r.config, r.start_minute);
    worker.end(r.id);
    drop(worker);
    let hist: LatencyHistogram = engine.op_latency();
    // three ops, the first sampled with weight OP_SAMPLE
    assert_eq!(hist.count(), switchboard::engine::OP_SAMPLE);
    engine.begin_drain();
    assert!(engine.drained());
}
