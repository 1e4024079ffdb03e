//! Cached handles into the global [`sb_obs`] registry for the controller.
//!
//! All recording is against `sb_obs::global()`, which starts disabled —
//! every call below then costs one relaxed atomic load. Enable it (e.g. via
//! the bench binaries' `--metrics` flag) to collect per-scenario solve rows
//! and real-time selector counters.

use sb_lp::Solution;
use sb_net::FailureScenario;
use sb_obs::{Counter, Histogram, Table, Value};
use std::sync::OnceLock;
use std::time::Duration;

/// Columns of the `provision.scenarios` table: one row per scenario LP.
pub const SCENARIO_TABLE_COLUMNS: [&str; 12] = [
    "scenario",
    "lp_rows",
    "lp_cols",
    "iterations",
    "phase1_iterations",
    "refactorizations",
    "build_ns",
    "solve_ns",
    "increment_cost",
    "dropped_configs",
    "warm_started",
    "rung",
];

pub(crate) struct ProvisionMetrics {
    scenario_solves: Counter,
    build_wall_ns: Histogram,
    solve_wall_ns: Histogram,
    refine_skipped: Counter,
    scenarios: Table,
}

impl ProvisionMetrics {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_scenario(
        &self,
        scenario: FailureScenario,
        lp_rows: usize,
        lp_cols: usize,
        sol: &Solution,
        build_wall: Duration,
        increment_cost: f64,
        dropped: usize,
    ) {
        self.scenario_solves.inc();
        self.build_wall_ns.record_duration(build_wall);
        let stats = sol.stats();
        self.solve_wall_ns.record_duration(stats.wall);
        if sb_obs::global().enabled() {
            self.scenarios.push(vec![
                Value::from(format!("{scenario:?}")),
                Value::from(lp_rows),
                Value::from(lp_cols),
                Value::from(sol.iterations()),
                Value::from(stats.phase1_iterations),
                Value::from(stats.refactorizations),
                Value::from(u64::try_from(build_wall.as_nanos()).unwrap_or(u64::MAX)),
                Value::from(u64::try_from(stats.wall.as_nanos()).unwrap_or(u64::MAX)),
                Value::from(increment_cost),
                Value::from(dropped),
                Value::from(u64::from(stats.warm_started)),
                Value::from(stats.rung.to_string()),
            ]);
        }
    }

    /// A refinement pass skipped a scenario because the other scenarios'
    /// union already covered its requirement (zero increment to buy).
    pub(crate) fn record_refine_skipped(&self) {
        self.refine_skipped.inc();
    }
}

pub(crate) fn provision_metrics() -> &'static ProvisionMetrics {
    static METRICS: OnceLock<ProvisionMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = sb_obs::global();
        ProvisionMetrics {
            scenario_solves: reg.counter("provision.scenario_solves"),
            build_wall_ns: reg.histogram("provision.build_wall_ns"),
            solve_wall_ns: reg.histogram("provision.solve_wall_ns"),
            refine_skipped: reg.counter("provision.refine_skipped_zero_increment"),
            scenarios: reg.table("provision.scenarios", &SCENARIO_TABLE_COLUMNS),
        }
    })
}

/// Size of the per-shard metric families below. Shard ids are taken modulo
/// this, so any number of live [`crate::realtime::SelectorShard`]s maps onto
/// a fixed set of metric names.
pub(crate) const SELECTOR_SHARD_METRICS: usize = 8;

pub(crate) struct RealtimeMetrics {
    pub(crate) assignments: Counter,
    pub(crate) freezes: Counter,
    pub(crate) duplicate_freezes: Counter,
    pub(crate) migrations: Counter,
    pub(crate) unplanned: Counter,
    pub(crate) overflow: Counter,
    pub(crate) forced_migrations: Counter,
    pub(crate) stranded: Counter,
    pub(crate) degraded_any: Counter,
    pub(crate) unknown_events: Counter,
    pub(crate) selection_ns: Histogram,
    /// Per-shard selection latency (`realtime.shard.selection_ns.<i>`).
    pub(crate) shard_selection_ns: Vec<Histogram>,
    /// Per-shard op counts (`realtime.shard.ops.<i>`).
    pub(crate) shard_ops: Vec<Counter>,
    /// Stat merges from worker shards into the shared selector.
    pub(crate) shard_flushes: Counter,
    /// Quota-cell CAS debits lost to a concurrent debit (each one forces a
    /// re-rank of the pool's candidates).
    pub(crate) pool_contention: Counter,
}

/// Columns of the `plan.slot_solves` table: one row per re-solved slot.
pub const PLAN_SLOT_COLUMNS: [&str; 5] = ["epoch", "slot", "warm_started", "rung", "wall_ns"];

pub(crate) struct PlanMetrics {
    /// Plan epochs installed into a selector.
    pub(crate) epochs_installed: Counter,
    /// Consumed-quota tallies carried across swaps.
    pub(crate) carryover_quota: Counter,
    /// Implied migrations summed over computed plan deltas.
    pub(crate) delta_migrations: Counter,
    /// Re-plan slots whose warm start was accepted by the engine.
    pub(crate) warm_slots: Counter,
    /// Re-plan slots solved cold (rejected or absent basis).
    pub(crate) cold_slots: Counter,
    /// Re-plans that failed (infeasible/unbounded slot LP).
    pub(crate) replan_failures: Counter,
    /// install_plan swap latency.
    pub(crate) swap_ns: Histogram,
    /// End-to-end incremental re-plan wall time.
    pub(crate) replan_wall_ns: Histogram,
    /// Per-slot solve rows (see [`PLAN_SLOT_COLUMNS`]).
    pub(crate) slot_solves: Table,
}

pub(crate) fn plan_metrics() -> &'static PlanMetrics {
    static METRICS: OnceLock<PlanMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = sb_obs::global();
        PlanMetrics {
            epochs_installed: reg.counter("plan.epochs_installed"),
            carryover_quota: reg.counter("plan.carryover_quota"),
            delta_migrations: reg.counter("plan.delta_migrations"),
            warm_slots: reg.counter("plan.warm_slots"),
            cold_slots: reg.counter("plan.cold_slots"),
            replan_failures: reg.counter("plan.replan_failures"),
            swap_ns: reg.histogram("plan.swap_ns"),
            replan_wall_ns: reg.histogram("plan.replan_wall_ns"),
            slot_solves: reg.table("plan.slot_solves", &PLAN_SLOT_COLUMNS),
        }
    })
}

pub(crate) fn realtime_metrics() -> &'static RealtimeMetrics {
    static METRICS: OnceLock<RealtimeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = sb_obs::global();
        RealtimeMetrics {
            assignments: reg.counter("realtime.assignments"),
            freezes: reg.counter("realtime.freezes"),
            duplicate_freezes: reg.counter("realtime.duplicate_freezes"),
            migrations: reg.counter("realtime.migrations"),
            unplanned: reg.counter("realtime.unplanned"),
            overflow: reg.counter("realtime.overflow"),
            forced_migrations: reg.counter("realtime.forced_migrations"),
            stranded: reg.counter("realtime.stranded"),
            degraded_any: reg.counter("realtime.degraded_any"),
            unknown_events: reg.counter("realtime.unknown_events"),
            selection_ns: reg.histogram("realtime.selection_ns"),
            shard_selection_ns: reg
                .histogram_family("realtime.shard.selection_ns", SELECTOR_SHARD_METRICS),
            shard_ops: reg.counter_family("realtime.shard.ops", SELECTOR_SHARD_METRICS),
            shard_flushes: reg.counter("realtime.shard.flushes"),
            pool_contention: reg.counter("realtime.pool_contention"),
        }
    })
}
