//! The seeded APAC world shared by the replay and install differential
//! suites. Each test binary uses a subset of it.
#![allow(dead_code)]

use std::sync::Arc;

use switchboard::core::{
    AllocationShares, PlanArtifact, PlannedQuotas, RealtimeSelector, ScenarioData,
};
use switchboard::net::{FailureScenario, Topology};
use switchboard::sim::{LoopConfig, ReplayDriver};
use switchboard::workload::{
    CallRecordsDb, DemandMatrix, Generator, UniverseParams, WorkloadParams,
};

pub const THREADS: [usize; 2] = [1, 8];

pub struct World {
    pub topo: Topology,
    pub db: CallRecordsDb,
    pub quotas: PlannedQuotas,
    pub sd0: ScenarioData,
}

impl World {
    pub fn artifact(&self) -> PlanArtifact {
        PlanArtifact::seed(self.quotas.clone())
    }

    pub fn selector(&self) -> RealtimeSelector {
        RealtimeSelector::from_artifact(&self.sd0.latmap, &self.artifact())
    }
}

/// A seeded APAC day: sampled trace + a synthetic plan spreading each
/// planned config across every DC. `quota_scale` shrinks the planned demand
/// so the quota pools run dry mid-day and the overflow/unplanned paths get
/// exercised, not just the happy path.
pub fn world(seed: u64, daily_calls: f64, coverage: f64, quota_scale: f64) -> World {
    let topo = switchboard::net::presets::apac();
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
    let generator = Generator::new(&topo, params);
    let day = 2;
    let expected = generator.expected_demand(day, 1);
    let selected = expected.top_configs_covering(coverage);
    let planned: DemandMatrix = expected.filtered(&selected).scaled(quota_scale);
    let db = generator.sample_records(day, 1, seed);
    assert!(db.len() > 200, "trace too small to be a meaningful test");

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
    let sd0 = ScenarioData::compute(&topo, FailureScenario::None);
    World {
        topo,
        db,
        quotas,
        sd0,
    }
}

/// `a` and `b` agree to 1e-9 relative (the replay and chaos engines add the
/// same usage deltas and ACLs in record vs trace order, so the last bits of
/// a float sum may differ).
pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}

/// Installing the plan that is already live is a no-op. A `ReplayDriver`
/// that re-plans every k windows (k = 1, 2, 3), with a planner answering
/// the very quotas it booted with (at the requested epoch), lands on the
/// planner-less run. An install drains and rebuilds every quota pool,
/// carrying consumed tallies over, so a double-counted freeze or
/// resurrected quota would show. Selector stats, tallies, plan migrations,
/// strands and mean ACL are compared bitwise. Peaks agree to 1e-9 relative:
/// an answered barrier closes every hosting interval, which regroups the
/// float sums. The threaded drives reproduce the serial one on the whole
/// `LoopStats`. `pools_run_dry` also demands that the world overflows its
/// quota pools, so the carry-over is exercised.
pub fn assert_identical_install_is_noop(w: &World, label: &str, pools_run_dry: bool) {
    let driver = || ReplayDriver::new(&w.topo, w.db.catalog(), &w.db, w.quotas.clone(), 120);
    let bare = driver().run().stats;
    if pools_run_dry {
        assert!(bare.selector.overflow > 0, "{label}: pools must run dry");
    }
    for k in [1, 2, 3] {
        let run = |threads: Option<usize>| {
            let l = driver()
                .config(LoopConfig {
                    schedule_every: Some(k),
                    ..LoopConfig::default()
                })
                .planner(|req, _| Some(Arc::new(w.artifact().with_epoch(req.epoch))));
            match threads {
                Some(t) => l.threads(t).run().stats,
                None => l.run().stats,
            }
        };
        let installed = run(None);
        let at = format!("{label}, k={k}");
        assert!(installed.plan_installs > 0, "{at}: the planner must answer");
        assert_eq!(installed.selector, bare.selector, "{at}: selector stats");
        assert_eq!(installed.per_dc_tallies, bare.per_dc_tallies, "{at}");
        assert_eq!(installed.plan_migrations, bare.plan_migrations, "{at}");
        assert_eq!(installed.stranded, bare.stranded, "{at}");
        assert_eq!(
            installed.mean_acl_ms.to_bits(),
            bare.mean_acl_ms.to_bits(),
            "{at}: mean ACL"
        );
        let peaks = (installed.peak_cores.iter().zip(&bare.peak_cores))
            .chain(installed.peak_gbps.iter().zip(&bare.peak_gbps));
        for (i, b) in peaks {
            assert!(close(*i, *b), "{at}: peak {i} vs {b}");
        }
        for threads in THREADS {
            assert_eq!(run(Some(threads)), installed, "{at}, threads={threads}");
        }
    }
}
