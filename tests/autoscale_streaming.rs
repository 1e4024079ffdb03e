//! Top-level closed-loop autoscaling checks.
//!
//! 1. The streaming forecaster is a bitwise re-expression of the batch
//!    pipeline: on random series, [`StreamingForecaster`] must carry model
//!    state equal to `fit_auto` over the same prefix at every step, and
//!    forecast the identical values — the control loop never pays an
//!    accuracy tax for going online.
//! 2. A combined DC-down + worker-death chaos drill runs with the
//!    autoscale loop live: calls at the failed DC re-home, the failure
//!    onset feeds the install machinery as a [`ReplanTrigger::Fault`]
//!    re-plan, nothing strands, and the concurrent drive with deaths
//!    injected matches the serial oracle bit for bit.

use std::sync::Arc;

use proptest::prelude::*;
use switchboard::forecast::{fit_auto, StreamingForecaster, StreamingParams};
use switchboard::prelude::engine::{
    AutoscaleLoop, FaultEvent, FaultTimeline, LoopConfig, ReplanTrigger,
};
use switchboard::prelude::{
    AllocationShares, PlanArtifact, PlannedQuotas, Topology, UniverseParams, WorkloadParams,
};
use switchboard::sim::ServiceFault;
use switchboard::workload::{DemandMatrix, Generator};

/// A random positive series with its season length, plus an independent
/// second series interleaved under another config id to check that
/// per-config model state stays isolated.
#[derive(Debug, Clone)]
struct SeriesCase {
    m: usize,
    values: Vec<f64>,
    other: Vec<f64>,
}

fn series_strategy() -> impl Strategy<Value = SeriesCase> {
    (3usize..9).prop_flat_map(|m| {
        let values = proptest::collection::vec(1.0f64..1000.0, 2 * m..5 * m);
        let other = proptest::collection::vec(1.0f64..1000.0, 2 * m..5 * m);
        (Just(m), values, other).prop_map(|(m, values, other)| SeriesCase { m, values, other })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Streaming ≡ batch, bitwise, at every prefix past warmup — for both
    /// interleaved configs independently.
    #[test]
    fn streaming_forecaster_matches_batch_fit_bitwise(case in series_strategy()) {
        let m = case.m;
        let mut fc = StreamingForecaster::new(StreamingParams::new(m));
        let steps = case.values.len().min(case.other.len());
        for t in 0..steps {
            fc.observe(0, case.values[t]);
            fc.observe(1, case.other[t]);
            if t + 1 >= 2 * m {
                for (cfg, series) in [(0u32, &case.values), (1u32, &case.other)] {
                    let batch = fit_auto(&series[..t + 1], m).unwrap();
                    let best = fc.best(cfg).unwrap();
                    prop_assert!(
                        best.state_eq(&batch),
                        "config {} diverged from the batch fit at prefix {}",
                        cfg,
                        t + 1
                    );
                    prop_assert_eq!(best.forecast(m), batch.forecast(m));
                }
            } else {
                prop_assert!(fc.best(0).is_none(), "seeded before two full seasons");
            }
        }
    }
}

fn drill_params(num_configs: usize) -> WorkloadParams {
    WorkloadParams {
        universe: UniverseParams {
            num_configs,
            seed: 3,
            ..Default::default()
        },
        daily_calls: 400.0,
        slot_minutes: 120,
        seed: 5,
        ..Default::default()
    }
}

/// Quotas hosting every config at every DC generously: any stranding in
/// the drill is the fault machinery's doing, not a capacity artifact.
fn open_quotas(topo: &Topology, g: &Generator<'_>, slots: usize) -> PlannedQuotas {
    let n = g.universe().catalog.len();
    let mut shares = AllocationShares::new(slots);
    let mut demand = DemandMatrix::zero(n, slots, 30, 0);
    let per_dc = 1.0 / topo.dcs.len() as f64;
    for spec in &g.universe().specs {
        for s in 0..slots {
            shares.set(spec.id, s, topo.dc_ids().map(|d| (d, per_dc)).collect());
            demand.set(spec.id, s, 1e6);
        }
    }
    PlannedQuotas::from_plan(&shares, &demand)
}

/// DC failure mid-stream plus worker deaths in the concurrent driver,
/// with the control loop live (daily seasonality so the forecaster seeds
/// inside the drill and drift re-plans interleave with the fault one).
#[test]
fn combined_dc_down_and_worker_death_drill() {
    let topo = switchboard::net::presets::apac();
    let g = Generator::new(&topo, drill_params(24));
    let quotas = open_quotas(&topo, &g, 4);
    let dc = topo.dc_ids().next().unwrap();
    // down for most of day 1, recovered for day 2 onward
    let timeline = FaultTimeline::new().with(FaultEvent::DcDown {
        dc,
        at: 400,
        recover_at: Some(1300),
    });
    let cfg = LoopConfig {
        forecaster: Some(StreamingParams {
            watermark: 0.20,
            ..StreamingParams::new(g.slots_per_day())
        }),
        ..LoopConfig::default()
    };

    let run = |threads: Option<usize>, deaths: Vec<ServiceFault>| {
        let mut l = AutoscaleLoop::new(&topo, &g, quotas.clone(), 3)
            .config(cfg.clone())
            .faults(timeline.clone())
            .planner(|req, fc| {
                // the live forecaster rides along on every install,
                // fault-triggered ones included
                assert!(fc.is_some_and(|fc| fc.num_configs() > 0));
                Some(Arc::new(
                    PlanArtifact::seed(quotas.clone()).with_epoch(req.epoch),
                ))
            });
        if let Some(t) = threads {
            l = l.threads(t).service_faults(deaths);
        }
        l.run()
    };

    let report = run(None, Vec::new());
    let serial = &report.stats;

    // degradation ladder, not a cliff: calls hosted at the failed DC were
    // re-homed onto surviving DCs and nothing stranded
    assert!(serial.forced_migrations > 0, "{}", serial.forced_migrations);
    assert_eq!(serial.stranded, 0);
    assert_eq!(serial.selector.stranded, 0);
    assert!(serial.calls > 0);

    // the failure onset fed the install machinery: exactly one Fault
    // re-plan landed, alongside the loop's own drift re-plans
    assert_eq!(serial.fault_triggers, 1);
    assert!(serial.install_triggers.contains(&ReplanTrigger::Fault));
    assert!(serial.drift_triggers >= 1, "{}", serial.drift_triggers);
    assert!(serial.plan_installs >= 2, "{}", serial.plan_installs);
    // epochs install in strictly increasing order
    assert!(serial.installed_epochs.windows(2).all(|w| w[0] < w[1]));
    // the forecaster seeded inside the drill (daily season, 3 days)
    let forecaster = report.forecaster.as_ref().expect("the stream runs one");
    assert!(forecaster.num_seeded() > 0);
    assert_eq!(report.worker_deaths, 0);

    // the concurrent drive with worker deaths injected matches the serial
    // oracle bit for bit: takeover keeps the drill's stats deterministic
    let deaths: Vec<ServiceFault> = (0..4)
        .map(|w| ServiceFault::WorkerDeath {
            worker: w,
            after_ops: 9,
        })
        .collect();
    let conc = run(Some(4), deaths);
    assert_eq!(*serial, conc.stats);
    assert!(conc.worker_deaths >= 1, "{}", conc.worker_deaths);
}
