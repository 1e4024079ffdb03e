//! Open-loop load generator for the `sb-engine` service layer.
//!
//! "Open loop" here means the offered schedule is fixed up front from a
//! sampled trace — workers never wait on downstream completion before
//! issuing the next op, so selector latency shows up in the engine's
//! [`sb_engine::Engine::op_latency`] histogram instead of silently
//! throttling load.
//!
//! The schedule is built with [`sb_sim::replay::build_events`] — the exact
//! `(minute, kind, record)` order the serial replay oracle is defined
//! against — and driven through [`sb_engine::Engine`]'s admission path by
//! the same drive core the oracle uses ([`sb_sim::drive::fan_out`]: START →
//! admit, FREEZE → freeze unless the call is not live, END → end; whole
//! lifecycles pinned to a worker by quota pool), so a drive is
//! bitwise-comparable (selector stats and per-DC tallies) with
//! [`sb_sim::replay()`] over the same trace.

use std::time::{Duration, Instant};

use sb_engine::Engine;
use sb_sim::drive::{fan_out, Step, WorkerDeaths};
use sb_sim::replay::build_events;
use sb_workload::CallRecord;

/// A fixed open-loop schedule over a trace: the canonical replay event
/// order, reusable across drive variants.
pub struct LoadSchedule {
    events: Vec<(u64, u8, usize)>,
}

impl LoadSchedule {
    /// Build the schedule for `records` with the replay freeze offset.
    pub fn new(records: &[CallRecord], freeze_minutes: u64) -> LoadSchedule {
        LoadSchedule {
            events: build_events(records, freeze_minutes),
        }
    }

    /// Number of scheduled events (an upper bound on selector ops; freezes
    /// of dead calls are skipped at drive time).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the trace was empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Wall time and op count of one drive.
#[derive(Clone, Copy, Debug)]
pub struct DriveOutcome {
    /// Drive wall time (includes the final worker flush).
    pub wall: Duration,
    /// Selector ops actually issued (admits + freezes + ends).
    pub ops: u64,
}

impl DriveOutcome {
    /// Selector ops per second.
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.wall.as_secs_f64()
    }
}

fn drive(
    engine: &Engine,
    records: &[CallRecord],
    sched: &LoadSchedule,
    threads: Option<usize>,
) -> DriveOutcome {
    let t0 = Instant::now();
    // every worker handle flushes when fan_out drops it, inside the wall
    let steps = fan_out(
        engine,
        records,
        &sched.events,
        threads,
        &mut WorkerDeaths::default(),
    );
    DriveOutcome {
        wall: t0.elapsed(),
        ops: steps.iter().filter(|&&s| s != Step::Skipped).count() as u64,
    }
}

/// Drive the whole schedule through one worker, in canonical order — the
/// engine-path equivalent of the serial replay oracle.
pub fn drive_serial(engine: &Engine, records: &[CallRecord], sched: &LoadSchedule) -> DriveOutcome {
    drive(engine, records, sched, None)
}

/// Drive the schedule across `threads` workers, each owning whole call
/// lifecycles partitioned by quota pool (unplanned calls by id). Produces
/// selector stats and per-DC tallies identical to [`drive_serial`]. The wall
/// includes the partition pass.
pub fn drive_concurrent(
    engine: &Engine,
    records: &[CallRecord],
    sched: &LoadSchedule,
    threads: usize,
) -> DriveOutcome {
    drive(engine, records, sched, Some(threads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_core::{AllocationShares, LatencyMap, PlanArtifact, PlannedQuotas};
    use sb_engine::EngineConfig;
    use sb_net::{FailureScenario, RoutingTable};
    use sb_sim::{replay, ReplayConfig};
    use sb_workload::{Generator, UniverseParams, WorkloadParams};

    #[test]
    fn engine_drive_matches_serial_replay_oracle() {
        let topo = sb_net::presets::apac();
        let params = WorkloadParams {
            universe: UniverseParams {
                num_configs: 60,
                ..Default::default()
            },
            daily_calls: 400.0,
            slot_minutes: 120,
            ..Default::default()
        };
        let generator = Generator::new(&topo, params);
        let expected = generator.expected_demand(2, 1);
        let selected = expected.top_configs_covering(0.9);
        let planned = expected.filtered(&selected).scaled(1.1);
        let db = generator.sample_records(2, 1, 7);

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
        let artifact = PlanArtifact::seed(quotas);
        let routing = RoutingTable::compute(&topo, FailureScenario::None);
        let latmap = LatencyMap::from_routing(&topo, &routing);

        let rcfg = ReplayConfig::default();
        let oracle_sel = sb_core::RealtimeSelector::from_artifact(&latmap, &artifact);
        let oracle = replay(
            &topo,
            &routing,
            &latmap,
            &generator.universe().catalog,
            &db,
            &oracle_sel,
            &rcfg,
        );

        let sched = LoadSchedule::new(db.records(), rcfg.freeze_minutes);
        assert!(!sched.is_empty());
        for threads in [0usize, 1, 3] {
            let engine = Engine::new(&latmap, &artifact, &EngineConfig::default());
            let out = if threads == 0 {
                drive_serial(&engine, db.records(), &sched)
            } else {
                drive_concurrent(&engine, db.records(), &sched, threads)
            };
            assert!(out.ops > 0 && out.ops <= sched.len() as u64);
            assert_eq!(
                engine.selector_stats(),
                oracle.stats().selector,
                "engine drive (threads={threads}) diverged from the serial replay oracle"
            );
            assert_eq!(engine.per_dc_tallies(), oracle.stats().per_dc_tallies);
            // every admitted call also ended: the store drained itself
            assert_eq!(engine.store().active_calls(), 0);
            assert!(engine.op_latency().count() >= out.ops);
        }
    }
}
