//! Differential tests for the concurrent replay engine: on seeded APAC
//! workloads, `replay_concurrent` at 1 and 8 worker threads must reproduce
//! the serial `replay` oracle *exactly* — every `ReplayStats` field,
//! including the f64 peaks/ACL (both engines share the record-order
//! accounting pass, so the floats are bitwise-identical, not merely close)
//! and the final per-DC freeze tallies. A fourth workload drives the control
//! loop over the trace (`ReplayDriver`) through a DC outage plus a
//! stale-plan window and holds its concurrent drive to the same standard on
//! `LoopStats`.
//!
//! The same four seeded workloads are then offered to `sb-engine`'s
//! admission path (the drive core's `fan_out` over `EngineWorker`, in the
//! canonical replay event order): the engine must land on selector stats and
//! per-DC tallies equal to the serial oracle, serially and across lifecycle-
//! partitioned worker threads. Finally the engines are held to each other,
//! not only to themselves: plain `replay` ≡ `ReplayDriver` with an empty
//! fault timeline ≡ the engine path; and the loop's two record sources to
//! each other: a window stream ≡ the same calls replayed as a trace. A
//! mid-run install goes through the loop's one barrier, and installing the
//! plan already live is held to be a no-op there.

mod common;

use std::sync::Arc;

use common::{assert_identical_install_is_noop, close, world, World, THREADS};
use switchboard::core::{AllocationShares, PlanArtifact, PlannedQuotas};
use switchboard::forecast::StreamingParams;
use switchboard::net::ProvisionedCapacity;
use switchboard::pack::{
    CostModel, FleetSpec, GrowthConfig, GrowthModel, PackPolicy, PackerConfig, ServerClass,
    ServerId,
};
use switchboard::prelude::engine::{Engine, EngineConfig};
use switchboard::sim::drive::{fan_out, WorkerDeaths};
use switchboard::sim::replay::build_events;
use switchboard::sim::{
    replay, replay_concurrent, AutoscaleLoop, FaultEvent, FaultTimeline, LoopConfig, LoopWindow,
    PackSetup, ReplayConfig, ReplayDriver,
};
use switchboard::workload::{CallRecordsDb, Generator, UniverseParams, WorkloadParams};

/// The four seeded APAC days of this suite: `(seed, daily calls, plan
/// coverage, quota scale, label)`.
const WORLDS: [(u64, f64, f64, f64, &str); 4] = [
    (11, 6_000.0, 0.95, 1.3, "ample"),
    (23, 8_000.0, 0.90, 0.4, "pressure"),
    (37, 5_000.0, 0.92, 1.0, "capacity"),
    (53, 5_000.0, 0.92, 1.2, "chaos-seed"),
];

fn serial_replay(w: &World, cfg: &ReplayConfig) -> switchboard::sim::ReplayReport {
    let selector = w.selector();
    replay(
        &w.topo,
        &w.sd0.routing,
        &w.sd0.latmap,
        w.db.catalog(),
        &w.db,
        &selector,
        cfg,
    )
}

fn assert_replay_equivalence(w: &World, cfg: &ReplayConfig, label: &str) {
    let serial = serial_replay(w, cfg);
    assert!(serial.calls > 0);
    for threads in THREADS {
        let selector = w.selector();
        let conc = replay_concurrent(
            &w.topo,
            &w.sd0.routing,
            &w.sd0.latmap,
            w.db.catalog(),
            &w.db,
            &selector,
            cfg,
            threads,
        );
        // one `==` over the whole aggregate, then the fields that matter
        // most spelled out so a divergence names itself in the failure
        let (s, c) = (serial.stats(), conc.stats());
        assert_eq!(
            s.selector, c.selector,
            "{label}: selector stats, threads={threads}"
        );
        assert_eq!(
            s.per_dc_tallies, c.per_dc_tallies,
            "{label}: per-DC tallies, threads={threads}"
        );
        assert_eq!(
            s.mean_acl_ms.to_bits(),
            c.mean_acl_ms.to_bits(),
            "{label}: mean ACL not bitwise-identical, threads={threads}"
        );
        assert_eq!(
            s.pack, c.pack,
            "{label}: packed placements (incl. per-server tallies), threads={threads}"
        );
        assert_eq!(s, c, "{label}: ReplayStats, threads={threads}");
    }
}

/// Offer the workload to `sb-engine`'s admission path in the canonical
/// replay event order — serially and across lifecycle-partitioned workers —
/// and hold the engine's selector stats to the serial replay oracle.
fn assert_engine_equivalence(w: &World, cfg: &ReplayConfig, label: &str) {
    let oracle = serial_replay(w, cfg);
    let records = w.db.records();
    let events = build_events(records, cfg.freeze_minutes);
    let artifact = w.artifact();
    for threads in [1usize, 4] {
        let engine = Engine::new(&w.sd0.latmap, &artifact, &EngineConfig::default());
        let no_deaths = &mut WorkerDeaths::default();
        fan_out(&engine, records, &events, Some(threads), no_deaths);
        assert_eq!(
            engine.selector_stats(),
            oracle.stats().selector,
            "{label}: engine admission path diverged from the oracle, threads={threads}"
        );
        assert_eq!(
            engine.per_dc_tallies(),
            oracle.stats().per_dc_tallies,
            "{label}: engine per-DC tallies, threads={threads}"
        );
        let stats = engine.stats();
        assert_eq!(stats.admitted, oracle.calls, "{label}: admitted != calls");
        assert_eq!(stats.active_calls, 0, "{label}: engine must drain");
    }
}

/// A two-level placement add-on: a heterogeneous fleet in every APAC DC, a
/// growth predictor fitted on the replayed trace itself, and two scheduled
/// server deaths mid-day so the kill/rehome path is part of the diff.
fn packed_config(w: &World) -> ReplayConfig {
    let dcs = w.topo.dcs.len();
    let spec = FleetSpec::heterogeneous(
        dcs,
        &[
            ServerClass {
                count: 4,
                capacity_mcpu: 32_000,
            },
            ServerClass {
                count: 8,
                capacity_mcpu: 8_000,
            },
        ],
    );
    let t0 = w.db.records().iter().map(|r| r.start_minute).min().unwrap();
    let server_deaths = vec![
        (
            t0 + 300,
            ServerId {
                dc: w.topo.dcs[0].id,
                index: 0,
            },
        ),
        (
            t0 + 420,
            ServerId {
                dc: w.topo.dcs[1 % dcs].id,
                index: 5,
            },
        ),
    ];
    ReplayConfig {
        pack: Some(Arc::new(PackSetup {
            spec,
            packer: PackerConfig {
                policy: PackPolicy::GrowthAware,
                hysteresis_mcpu: 256,
                max_evictions: 4,
            },
            cost: CostModel::default(),
            growth: Some(GrowthModel::fit(&w.db, GrowthConfig::default())),
            server_deaths,
        })),
        ..Default::default()
    }
}

#[test]
fn concurrent_replay_matches_serial_with_packed_placements() {
    // the four seeded APAC workloads of this suite, with the packing leg on:
    // serial oracle ≡ 1-thread ≡ 8-thread, bitwise on every stats field
    // including the per-server peak/placement tallies
    for (seed, daily, cov, scale, label) in WORLDS {
        let label = &format!("pack-{label}");
        let w = world(seed, daily, cov, scale);
        let cfg = packed_config(&w);
        let serial = serial_replay(&w, &cfg);
        let pack = serial.pack.as_ref().expect("pack leg must run");
        assert!(pack.stats.placed > 0, "{label}: packing must bite");
        assert!(
            pack.stats.grow_events > 0,
            "{label}: joins must grow packed calls"
        );
        assert_eq!(
            pack.stats.server_deaths, 2,
            "{label}: scheduled deaths must fire"
        );
        assert_eq!(pack.violations, 0, "{label}: hard capacity invariant");
        assert_replay_equivalence(&w, &cfg, label);
    }
}

#[test]
fn concurrent_replay_matches_serial_on_ample_quotas() {
    // quotas cushioned over expectation: the plan rung dominates
    let w = world(11, 6_000.0, 0.95, 1.3);
    assert_replay_equivalence(&w, &ReplayConfig::default(), "ample");
}

#[test]
fn concurrent_replay_matches_serial_under_quota_pressure() {
    // quotas at 40% of expectation: pools drain, overflow + contention paths
    let w = world(23, 8_000.0, 0.90, 0.4);
    let report = serial_replay(&w, &ReplayConfig::default());
    assert!(
        report.selector.overflow > 0,
        "workload must actually exhaust quota pools"
    );
    assert_replay_equivalence(&w, &ReplayConfig::default(), "pressure");
}

#[test]
fn concurrent_replay_matches_serial_with_capacity_accounting() {
    // tight capacity so the violation/overshoot floats are exercised too
    let w = world(37, 5_000.0, 0.92, 1.0);
    let probe = serial_replay(&w, &ReplayConfig::default());
    let mut cap = probe.peaks.clone();
    for c in cap.cores.iter_mut() {
        *c *= 0.8; // guarantee violations
    }
    for g in cap.gbps.iter_mut() {
        *g *= 0.8;
    }
    let cfg = ReplayConfig {
        capacity: Some(cap),
        ..Default::default()
    };
    let serial = serial_replay(&w, &cfg);
    assert!(
        serial.capacity_violations > 0,
        "capacity must actually bind"
    );
    assert_replay_equivalence(&w, &cfg, "capacity");
}

#[test]
fn concurrent_chaos_driver_matches_serial_through_faults() {
    let w = world(53, 5_000.0, 0.92, 1.2);
    let t0 = w.db.records().iter().map(|r| r.start_minute).min().unwrap();
    let victim = w.topo.dcs[0].id;
    // a DC outage with recovery, plus a stale-plan window overlapping it:
    // forced re-homes, degraded placements, and plan-rung suppression all in
    // one trace
    let timeline = FaultTimeline::new()
        .with(FaultEvent::DcDown {
            dc: victim,
            at: t0 + 240,
            recover_at: Some(t0 + 480),
        })
        .with(FaultEvent::PlanStale {
            from: t0 + 400,
            until: Some(t0 + 600),
        });
    let serial = ReplayDriver::new(&w.topo, w.db.catalog(), &w.db, w.quotas.clone(), 120)
        .faults(timeline.clone())
        .run();
    assert!(
        serial.stats.forced_migrations > 0,
        "the outage must re-home in-flight calls"
    );
    for threads in THREADS {
        let conc = ReplayDriver::new(&w.topo, w.db.catalog(), &w.db, w.quotas.clone(), 120)
            .faults(timeline.clone())
            .threads(threads)
            .run();
        assert_eq!(
            serial.stats, conc.stats,
            "chaos LoopStats, threads={threads}"
        );
    }
}

#[test]
fn engine_admission_path_matches_oracle_on_all_seeded_workloads() {
    for (seed, daily, cov, scale, label) in WORLDS {
        let w = world(seed, daily, cov, scale);
        assert_engine_equivalence(&w, &ReplayConfig::default(), label);
    }
}

/// Installing the plan that is already live is a no-op through the control
/// loop's barrier, over every world of this suite (see
/// `common::assert_identical_install_is_noop`).
#[test]
fn identical_plan_install_is_a_noop_through_the_control_loop() {
    for (seed, daily, cov, scale, label) in WORLDS {
        let w = world(seed, daily, cov, scale);
        assert_identical_install_is_noop(&w, label, label == "pressure");
    }
}

#[test]
fn replay_chaos_and_engine_paths_agree_with_each_other() {
    for (seed, daily, cov, scale, label) in WORLDS {
        let w = world(seed, daily, cov, scale);
        // a capacity that binds, so violations are part of the comparison
        let mut cap = serial_replay(&w, &ReplayConfig::default()).peaks;
        cap.cores.iter_mut().for_each(|c| *c *= 0.8);
        cap.gbps.iter_mut().for_each(|g| *g *= 0.8);
        let plain = serial_replay(
            &w,
            &ReplayConfig {
                capacity: Some(cap.clone()),
                ..Default::default()
            },
        );
        assert!(plain.capacity_violations > 0, "{label}: capacity must bind");

        let chaos = ReplayDriver::new(&w.topo, w.db.catalog(), &w.db, w.quotas.clone(), 60)
            .config(LoopConfig {
                capacity: Some(cap),
                ..LoopConfig::default()
            })
            .run()
            .stats;
        assert_eq!(
            chaos.selector, plain.selector,
            "{label}: every SelectorStats field, unknown_ends included"
        );
        assert_eq!(chaos.per_dc_tallies, plain.per_dc_tallies, "{label}");
        assert_eq!(
            chaos.capacity_violations, plain.capacity_violations,
            "{label}"
        );
        assert!(
            close(chaos.mean_acl_ms, plain.mean_acl_ms),
            "{label}: mean ACL"
        );
        let pairs = (chaos.peak_cores.iter().zip(&plain.peaks.cores))
            .chain(chaos.peak_gbps.iter().zip(&plain.peaks.gbps));
        for (c, p) in pairs {
            assert!(close(*c, *p), "{label}: peak {c} vs {p}");
        }

        let engine = Engine::new(&w.sd0.latmap, &w.artifact(), &EngineConfig::default());
        let events = build_events(w.db.records(), ReplayConfig::default().freeze_minutes);
        let no_deaths = &mut WorkerDeaths::default();
        fan_out(&engine, w.db.records(), &events, None, no_deaths);
        assert_eq!(engine.selector_stats(), plain.selector, "{label}: engine");
        assert_eq!(engine.per_dc_tallies(), plain.per_dc_tallies, "{label}");
    }
}

/// The two record sources of the one control loop agree: a window stream's
/// batches collected into a trace in call-id order (so the slice's
/// position tie-break is the stream's call-id one), replayed as a slice at
/// the slot width, reproduce the streamed run under faults, a binding
/// capacity and re-plans — every stats field bit for bit except the
/// forecaster's (only the stream runs one) and the window geometry of the
/// tail (the slice cuts windows to its last END, the stream charges calls
/// outliving it to its last window).
#[test]
fn slice_and_stream_sources_agree_bitwise() {
    let topo = switchboard::net::presets::apac();
    let g = Generator::new(
        &topo,
        WorkloadParams {
            universe: UniverseParams {
                num_configs: 40,
                seed: 7,
                ..Default::default()
            },
            daily_calls: 1_500.0,
            slot_minutes: 120,
            seed: 7,
            ..Default::default()
        },
    );
    let days = 2;
    let mut records: Vec<_> = g
        .window_stream(0, days, 0)
        .flat_map(|b| b.records)
        .collect();
    records.sort_by_key(|r| r.id);
    // the slice's windows start at its first call: aligned with the stream's
    assert_eq!(records.iter().map(|r| r.start_minute).min(), Some(0));
    let mut db = CallRecordsDb::new(g.universe().catalog.clone());
    records.into_iter().for_each(|r| db.push(r));

    let n = topo.dcs.len();
    let mut shares = AllocationShares::new(12);
    for spec in &g.universe().specs {
        for s in 0..12 {
            shares.set(
                spec.id,
                s,
                topo.dc_ids().map(|d| (d, 1.0 / n as f64)).collect(),
            );
        }
    }
    let demand = g.expected_demand(0, 1);
    let quotas = PlannedQuotas::from_plan(&shares, &demand);
    let planner = |req: &switchboard::sim::ReplanRequest, _: Option<&_>| {
        Some(Arc::new(
            PlanArtifact::seed(quotas.clone()).with_epoch(req.epoch),
        ))
    };
    let probe = AutoscaleLoop::new(&topo, &g, quotas.clone(), days)
        .run()
        .stats;
    let capacity = ProvisionedCapacity {
        cores: probe.peak_cores.iter().map(|p| p * 0.9).collect(),
        gbps: probe.peak_gbps.iter().map(|p| p * 0.9).collect(),
    };
    let timeline = FaultTimeline::new()
        .with(FaultEvent::DcDown {
            dc: topo.dcs[0].id,
            at: 300,
            recover_at: Some(700),
        })
        .with(FaultEvent::CapacityDegraded {
            dc: topo.dcs[1].id,
            fraction: 0.5,
            at: 900,
            recover_at: Some(1300),
        })
        .with(FaultEvent::PlanStale {
            from: 1000,
            until: None,
        });
    let cfg = LoopConfig {
        capacity: Some(capacity),
        ..LoopConfig::default()
    };

    for threads in [None, Some(2)] {
        let slice = ReplayDriver::new(&topo, db.catalog(), &db, quotas.clone(), 120)
            .config(cfg.clone())
            .faults(timeline.clone())
            .planner(planner);
        let stream = AutoscaleLoop::new(&topo, &g, quotas.clone(), days)
            .config(LoopConfig {
                forecaster: Some(StreamingParams::new(g.slots_per_day() * 7)),
                ..cfg.clone()
            })
            .faults(timeline.clone())
            .planner(planner);
        let (slice, stream) = match threads {
            Some(t) => (slice.threads(t).run(), stream.threads(t).run()),
            None => (slice.run(), stream.run()),
        };
        let (mut slice, mut stream) = (slice.stats, stream.stats);
        assert!(stream.forced_migrations > 0 && stream.plan_installs == 2);
        assert!(stream.capacity_violations > 0 && stream.stale_freezes > 0);
        assert!(stream.forecast_observed > 0);
        for w in &mut stream.windows {
            (w.forecast_nrmse, w.drift) = (None, false);
        }
        (stream.forecast_observed, stream.forecast_drifts) = (0, 0);

        // windows before the stream's last one are the same windows
        let last = stream.windows.len() - 1;
        assert!(slice.windows.len() > last + 1, "calls outlive the stream");
        assert_eq!(slice.windows[..last], stream.windows[..last]);
        // the slice's tail windows add up to the stream's last one
        let (tail, end) = (&slice.windows[last..], &stream.windows[last]);
        let counts = |w: &LoopWindow| {
            [
                w.calls_started,
                w.plan_migrations,
                w.forced_migrations,
                w.stranded,
                w.violations,
                w.plan_installs,
                w.stale_freezes,
            ]
        };
        let folded =
            (tail.iter().map(counts)).fold([0; 7], |a, c| std::array::from_fn(|i| a[i] + c[i]));
        assert_eq!(folded, counts(end), "threads={threads:?}");
        assert_eq!(tail.iter().map(|w| w.down_dcs).max(), Some(end.down_dcs));

        // and every other field, floats bitwise
        slice.windows.clear();
        stream.windows.clear();
        assert_eq!(slice, stream, "threads={threads:?}");
    }
}
