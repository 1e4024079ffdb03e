//! Time-driven chaos engine: scheduled, recoverable fault injection into a
//! running replay.
//!
//! The static [`crate::failures::drill`] answers "does the backup capacity
//! cover the steady state *during* a failure?" — but never re-homes a call
//! mid-flight and never lets a fault recover. This module closes that gap: a
//! [`FaultTimeline`] schedules faults (`DcDown`, `LinkDown`, `LinkFlap`,
//! `CapacityDegraded`, `PlanStale`) over absolute minutes, and
//! [`ReplayDriver`] drives a trace through the real-time selector while the
//! fault state evolves:
//!
//! * at every fault transition the routing table and latency map are
//!   recomputed under the composed [`FailureMask`] and pushed into the
//!   selector ([`sb_core::RealtimeSelector::update_topology`]);
//! * in-flight calls hosted at a failed DC are re-homed down the selector's
//!   degradation ladder (plan → locality → any-reachable) and counted as
//!   *forced* migrations — distinct from the §6.4 plan migrations;
//! * per-window stranded/violation/ACL stats are accumulated and emitted
//!   through `sb-obs` (`chaos.*` counters and the `chaos.windows` table).
//!
//! The default drive is the serial oracle. [`ReplayDriver::threads`] drives
//! the same engine across worker threads with **no intra-segment barriers**:
//! fault transitions and plan installs bound the fault-free segments, and
//! each segment goes through [`crate::drive::fan_out`] (whole lifecycles
//! pinned to a worker by quota pool). All bookkeeping — interval flushes,
//! re-homes, window stats — happens on the coordinating thread in exact
//! trace order over the returned steps, so the aggregate [`ChaosStats`]
//! comes out identical to the serial run, floats included.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use sb_core::{FreezeDecision, PlanArtifact, PlanDelta, PlannedQuotas, SelectorStats};
use sb_net::{
    DcId, FailureMask, FailureScenario, LinkId, ProvisionedCapacity, RoutingTable, Topology,
};
use sb_obs::{Counter, Histogram, Table, Value};
use sb_workload::joins::CONFIG_FREEZE_SECONDS;
use sb_workload::{CallRecordsDb, ConfigCatalog};

use crate::crash::ServiceFault;
use crate::drive::{fan_out, install_schedule, ControlPlane, Step, UsageDeltas, WorkerDeaths};
use crate::replay::build_events;

/// Columns of the `chaos.windows` table: one row per stats window.
pub const CHAOS_WINDOW_COLUMNS: [&str; 11] = [
    "window_start_min",
    "calls_started",
    "plan_migrations",
    "forced_migrations",
    "stranded",
    "violations",
    "down_dcs",
    "down_links",
    "plan_installs",
    "plan_stale_freezes",
    "mean_acl_ms",
];

struct ChaosMetrics {
    runs: Counter,
    forced_migrations: Counter,
    stranded: Counter,
    violations: Counter,
    wall_ns: Histogram,
    windows: Table,
}

fn chaos_metrics() -> &'static ChaosMetrics {
    static METRICS: OnceLock<ChaosMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = sb_obs::global();
        ChaosMetrics {
            runs: reg.counter("chaos.runs"),
            forced_migrations: reg.counter("chaos.forced_migrations"),
            stranded: reg.counter("chaos.stranded"),
            violations: reg.counter("chaos.capacity_violations"),
            wall_ns: reg.histogram("chaos.wall_ns"),
            windows: reg.table("chaos.windows", &CHAOS_WINDOW_COLUMNS),
        }
    })
}

/// One scheduled fault. All times are absolute trace minutes; `recover_at:
/// None` means the fault lasts to the end of the replay.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultEvent {
    /// A DC fails at `at` and (optionally) recovers at `recover_at`. Its
    /// links go down with it.
    DcDown {
        /// Failed DC.
        dc: DcId,
        /// Failure minute (inclusive).
        at: u64,
        /// Recovery minute (exclusive), `None` = never.
        recover_at: Option<u64>,
    },
    /// A WAN link fails and (optionally) recovers.
    LinkDown {
        /// Failed link.
        link: LinkId,
        /// Failure minute (inclusive).
        at: u64,
        /// Recovery minute (exclusive), `None` = never.
        recover_at: Option<u64>,
    },
    /// A link flaps: alternating `period_min`-minute down/up phases
    /// (starting down) within `[at, until)`.
    LinkFlap {
        /// Flapping link.
        link: LinkId,
        /// First down minute.
        at: u64,
        /// End of the flapping window (exclusive).
        until: u64,
        /// Length of each down/up phase in minutes (≥ 1).
        period_min: u64,
    },
    /// A DC keeps running but loses part of its compute (rolling reboot,
    /// thermal throttling): effective core capacity is multiplied by
    /// `fraction` while active.
    CapacityDegraded {
        /// Degraded DC.
        dc: DcId,
        /// Remaining capacity fraction in `[0, 1]`.
        fraction: f64,
        /// Degradation start minute (inclusive).
        at: u64,
        /// Recovery minute (exclusive), `None` = never.
        recover_at: Option<u64>,
    },
    /// The allocation plan stops being trustworthy (the controller that
    /// refreshes it is down): the selector's plan rung is disabled.
    ///
    /// With a [`Replanner`] attached, the plan is stale until the re-plan
    /// lands: an install at minute ≥ `from` restores the plan rung even
    /// inside `[from, until)`; `until` remains the fallback refresh minute
    /// for runs without a replanner.
    PlanStale {
        /// First stale minute (inclusive).
        from: u64,
        /// Minute the plan is refreshed (exclusive), `None` = never.
        until: Option<u64>,
    },
    /// The demand forecast the plan was built from drifts by `factor` from
    /// `at` onward. The trace itself is unchanged — what breaks is the
    /// *plan*: it is considered stale from `at` until a [`Replanner`]
    /// installs a replacement (there is no recovery minute; only a re-plan
    /// ends the drift). The active drift product is exposed to the
    /// replanner via [`ChaosState::demand_factor`] so its builder can
    /// re-solve against the drifted forecast.
    DemandDrift {
        /// First drifted minute (inclusive).
        at: u64,
        /// Multiplicative forecast error (> 0, finite; 1.0 = no drift).
        factor: f64,
    },
}

/// The composed fault state at one minute.
#[derive(Clone, Debug)]
pub struct ChaosState {
    /// Which DCs/links are down.
    pub mask: FailureMask,
    /// Effective per-DC core-capacity fraction (1.0 = healthy).
    pub core_fraction: Vec<f64>,
    /// Is the allocation plan trustworthy? (`false` during `PlanStale`
    /// windows and from any `DemandDrift` onward.)
    pub plan_valid: bool,
    /// Product of active `DemandDrift` factors (1.0 = no drift).
    pub demand_factor: f64,
    /// Latest onset minute among the active staleness events, if any — a
    /// plan installed at or after this minute supersedes the staleness.
    pub stale_since: Option<u64>,
}

/// A schedule of fault events, queryable per minute.
#[derive(Clone, Debug, Default)]
pub struct FaultTimeline {
    events: Vec<FaultEvent>,
}

impl FaultTimeline {
    /// Empty timeline (no faults: chaos replay degenerates to plain replay).
    pub fn new() -> FaultTimeline {
        FaultTimeline::default()
    }

    /// Add an event (builder style).
    pub fn with(mut self, ev: FaultEvent) -> FaultTimeline {
        self.push(ev);
        self
    }

    /// Add an event.
    pub fn push(&mut self, ev: FaultEvent) {
        if let FaultEvent::LinkFlap { period_min, .. } = &ev {
            assert!(*period_min >= 1, "flap period must be at least one minute");
        }
        if let FaultEvent::CapacityDegraded { fraction, .. } = &ev {
            assert!(
                (0.0..=1.0).contains(fraction),
                "capacity fraction must be within [0, 1]"
            );
        }
        if let FaultEvent::DemandDrift { factor, .. } = &ev {
            assert!(
                factor.is_finite() && *factor > 0.0,
                "drift factor must be finite and positive"
            );
        }
        self.events.push(ev);
    }

    /// The §5.3 single-fault timeline: `scenario` hits at `at` and recovers
    /// at `recover_at`.
    pub fn from_scenario(
        scenario: FailureScenario,
        at: u64,
        recover_at: Option<u64>,
    ) -> FaultTimeline {
        let mut t = FaultTimeline::new();
        match scenario {
            FailureScenario::None => {}
            FailureScenario::DcDown(dc) => t.push(FaultEvent::DcDown { dc, at, recover_at }),
            FailureScenario::LinkDown(link) => t.push(FaultEvent::LinkDown {
                link,
                at,
                recover_at,
            }),
        }
        t
    }

    /// Scheduled events.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// No faults at all?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Minutes in `(t0, t1]` where the fault state may change, sorted and
    /// deduplicated. `t0` itself is always an implicit change point.
    pub fn change_points(&self, t0: u64, t1: u64) -> Vec<u64> {
        let mut points = Vec::new();
        let mut add = |m: u64| {
            if m > t0 && m <= t1 {
                points.push(m);
            }
        };
        for ev in &self.events {
            match *ev {
                FaultEvent::DcDown { at, recover_at, .. }
                | FaultEvent::LinkDown { at, recover_at, .. }
                | FaultEvent::CapacityDegraded { at, recover_at, .. } => {
                    add(at);
                    if let Some(r) = recover_at {
                        add(r);
                    }
                }
                FaultEvent::LinkFlap {
                    at,
                    until,
                    period_min,
                    ..
                } => {
                    let mut m = at;
                    while m < until {
                        add(m);
                        m += period_min;
                    }
                    add(until);
                }
                FaultEvent::PlanStale { from, until } => {
                    add(from);
                    if let Some(u) = until {
                        add(u);
                    }
                }
                FaultEvent::DemandDrift { at, .. } => add(at),
            }
        }
        points.sort_unstable();
        points.dedup();
        points
    }

    /// Compose the fault state active at `minute`.
    pub fn state_at(&self, topo: &Topology, minute: u64) -> ChaosState {
        let mut mask = FailureMask::healthy(topo);
        let mut core_fraction = vec![1.0f64; topo.dcs.len()];
        let mut plan_valid = true;
        let mut demand_factor = 1.0f64;
        let mut stale_since: Option<u64> = None;
        let active = |at: u64, recover: Option<u64>| -> bool {
            minute >= at && recover.is_none_or(|r| minute < r)
        };
        for ev in &self.events {
            match *ev {
                FaultEvent::DcDown { dc, at, recover_at } => {
                    if active(at, recover_at) {
                        mask.set_dc(dc, true);
                    }
                }
                FaultEvent::LinkDown {
                    link,
                    at,
                    recover_at,
                } => {
                    if active(at, recover_at) {
                        mask.set_link(link, true);
                    }
                }
                FaultEvent::LinkFlap {
                    link,
                    at,
                    until,
                    period_min,
                } => {
                    if minute >= at
                        && minute < until
                        && ((minute - at) / period_min).is_multiple_of(2)
                    {
                        mask.set_link(link, true);
                    }
                }
                FaultEvent::CapacityDegraded {
                    dc,
                    fraction,
                    at,
                    recover_at,
                } => {
                    if active(at, recover_at) {
                        let f = &mut core_fraction[dc.index()];
                        *f = f.min(fraction);
                    }
                }
                FaultEvent::PlanStale { from, until } => {
                    if active(from, until) {
                        plan_valid = false;
                        stale_since = Some(stale_since.map_or(from, |s| s.max(from)));
                    }
                }
                FaultEvent::DemandDrift { at, factor } => {
                    if minute >= at {
                        plan_valid = false;
                        demand_factor *= factor;
                        stale_since = Some(stale_since.map_or(at, |s| s.max(at)));
                    }
                }
            }
        }
        ChaosState {
            mask,
            core_fraction,
            plan_valid,
            demand_factor,
            stale_since,
        }
    }
}

/// Chaos replay configuration.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Minutes into the call at which the config freezes (A; 5 in the
    /// paper).
    pub freeze_minutes: u64,
    /// Capacity to check usage against. `CapacityDegraded` faults scale the
    /// per-DC core entries minute by minute.
    pub capacity: Option<ProvisionedCapacity>,
    /// Width of the per-window stats buckets.
    pub window_minutes: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            freeze_minutes: (CONFIG_FREEZE_SECONDS / 60) as u64,
            capacity: None,
            window_minutes: 60,
        }
    }
}

/// Why a re-plan was requested. Fault-reactive triggers (the chaos
/// timeline) and proactive triggers (the streaming forecaster's drift
/// watermark, periodic schedules) flow through the same install machinery;
/// this enum is the single taxonomy both the [`Replanner`] and the
/// [`crate::autoscale`] control loop speak.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReplanTrigger {
    /// A DC-down fault onset ([`FaultEvent::DcDown`]).
    Fault,
    /// A staleness onset in the fault timeline ([`FaultEvent::PlanStale`]
    /// or [`FaultEvent::DemandDrift`]).
    Stale,
    /// The streaming forecaster's peak-normalized rolling-RMSE watermark
    /// fired (closed-loop autoscaling; never produced by the timeline).
    Drift,
    /// An explicit scheduled re-plan minute.
    Schedule,
}

impl ReplanTrigger {
    /// Short stable label for logs and bench JSON.
    pub fn label(self) -> &'static str {
        match self {
            ReplanTrigger::Fault => "fault",
            ReplanTrigger::Stale => "stale",
            ReplanTrigger::Drift => "drift",
            ReplanTrigger::Schedule => "schedule",
        }
    }
}

/// What a [`Replanner`] is asked to do: produce a fresh plan for the
/// remainder of the horizon, to be installed at `install_minute`.
#[derive(Clone, Debug)]
pub struct ReplanRequest {
    /// What kind of event requested this re-plan.
    pub trigger: ReplanTrigger,
    /// Minute of the fault/drift/schedule entry that triggered the re-plan.
    pub trigger_minute: u64,
    /// Minute the produced plan will be installed (trigger + latency).
    pub install_minute: u64,
    /// Epoch the new plan should carry (current selector epoch + 1).
    pub epoch: u64,
    /// Plan slot containing `install_minute`, if within the plan horizon —
    /// the natural `from_slot` for [`sb_core::SlotPlanner::replan_from`].
    pub from_slot: Option<usize>,
    /// Composed fault state at `install_minute` (mask, capacity fractions,
    /// demand drift factor).
    pub state: ChaosState,
}

/// The plan-building callback of a [`Replanner`]: `None` skips the install.
type PlanBuilder<'a> = Box<dyn FnMut(&ReplanRequest) -> Option<Arc<PlanArtifact>> + 'a>;

/// Mid-replay re-planning hook: reacts to triggers (DC-down faults,
/// demand-drift/stale events, explicit schedule minutes) by building a new
/// [`PlanArtifact`] that the engine installs `latency_min` minutes after the
/// trigger, at a barrier window. While a staleness event is active, the
/// plan rung stays disabled **until the re-plan lands** (see
/// [`FaultEvent::PlanStale`]).
pub struct Replanner<'a> {
    /// Minutes between a trigger and the produced plan's installation (the
    /// controller's re-plan latency).
    pub latency_min: u64,
    /// Trigger on `DcDown` fault onsets.
    pub on_dc_down: bool,
    /// Trigger on `PlanStale` / `DemandDrift` onsets.
    pub on_stale: bool,
    /// Additional explicit trigger minutes.
    pub schedule: Vec<u64>,
    builder: PlanBuilder<'a>,
}

impl<'a> Replanner<'a> {
    /// A replanner triggering on DC-down and staleness onsets, producing
    /// plans via `builder` (return `None` to skip an install — e.g. the
    /// re-solve failed; the plan then stays stale).
    pub fn new(
        latency_min: u64,
        builder: impl FnMut(&ReplanRequest) -> Option<Arc<PlanArtifact>> + 'a,
    ) -> Replanner<'a> {
        Replanner {
            latency_min,
            on_dc_down: true,
            on_stale: true,
            schedule: Vec::new(),
            builder: Box::new(builder),
        }
    }

    /// Add explicit trigger minutes (builder style).
    pub fn with_schedule(mut self, minutes: Vec<u64>) -> Replanner<'a> {
        self.schedule = minutes;
        self
    }

    /// Enable/disable the DC-down trigger (builder style).
    pub fn triggers_on_dc_down(mut self, yes: bool) -> Replanner<'a> {
        self.on_dc_down = yes;
        self
    }

    /// Enable/disable the staleness trigger (builder style).
    pub fn triggers_on_stale(mut self, yes: bool) -> Replanner<'a> {
        self.on_stale = yes;
        self
    }
}

/// Per-window chaos statistics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WindowStats {
    /// Absolute minute the window starts at.
    pub start_minute: u64,
    /// Calls started in the window.
    pub calls_started: u64,
    /// Call-start placements per DC (index = DC id) — shows traffic
    /// draining away from a failed DC and returning after recovery.
    pub starts_by_dc: Vec<u32>,
    /// Plan-driven migrations at config freeze (§6.4).
    pub plan_migrations: u64,
    /// Fault-forced mid-call re-homes.
    pub forced_migrations: u64,
    /// Calls stranded (no up DC) at start or re-home.
    pub stranded: u64,
    /// Minutes × resources where usage exceeded effective capacity.
    pub violations: u64,
    /// Peak number of down DCs during the window.
    pub down_dcs: u32,
    /// Peak number of explicitly-down links during the window.
    pub down_links: u32,
    /// Plan artifacts hot-swapped into the selector during the window.
    pub plan_installs: u64,
    /// Freezes that fell back to Unplanned because the plan was stale —
    /// the per-window view of `SelectorStats::plan_stale`, showing the
    /// stale window closing once a re-plan lands.
    pub plan_stale_freezes: u64,
    acl_sum: f64,
    acl_n: u64,
}

impl WindowStats {
    /// Mean ACL of placements made in this window (freeze + re-home time).
    pub fn mean_acl_ms(&self) -> f64 {
        if self.acl_n > 0 {
            self.acl_sum / self.acl_n as f64
        } else {
            0.0
        }
    }
}

/// Chaos replay results.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// Calls in the trace.
    pub calls: u64,
    /// Final selector statistics (plan + forced migrations, rungs, …).
    pub selector: SelectorStats,
    /// Completed freeze tallies per DC (index = DC id).
    pub per_dc_tallies: Vec<u64>,
    /// Calls stranded over the whole replay.
    pub stranded: u64,
    /// Fault-forced mid-call re-homes over the whole replay.
    pub forced_migrations: u64,
    /// Plan-driven freeze migrations over the whole replay.
    pub plan_migrations: u64,
    /// Minutes × resources where usage exceeded effective capacity.
    pub capacity_violations: u64,
    /// Worst relative overshoot across all violations.
    pub worst_overshoot: f64,
    /// Observed usage peaks.
    pub peaks: ProvisionedCapacity,
    /// Mean ACL over freeze- and re-home-time placements.
    pub mean_acl_ms: f64,
    /// Plan artifacts hot-swapped into the selector over the run.
    pub plan_installs: u64,
    /// Epochs installed, in install order.
    pub installed_epochs: Vec<u64>,
    /// Injected [`ServiceFault::WorkerDeath`]s that fired (concurrent
    /// drive only; the serial oracle has no workers to kill).
    pub worker_deaths: u64,
    /// Orphaned operations the coordinator drove after worker deaths.
    pub takeover_ops: u64,
    /// Per-window breakdown.
    pub windows: Vec<WindowStats>,
}

/// The order-insensitive aggregate of a chaos run, comparable with `==`
/// between the serial and concurrent engines (floats included — both
/// engines apply all accounting on the coordinating thread in trace order).
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosStats {
    /// Calls in the trace.
    pub calls: u64,
    /// Final selector statistics.
    pub selector: SelectorStats,
    /// Completed freeze tallies per DC.
    pub per_dc_tallies: Vec<u64>,
    /// Calls stranded over the whole replay.
    pub stranded: u64,
    /// Fault-forced mid-call re-homes.
    pub forced_migrations: u64,
    /// Plan-driven freeze migrations.
    pub plan_migrations: u64,
    /// Minutes × resources where usage exceeded effective capacity.
    pub capacity_violations: u64,
    /// Worst relative overshoot across all violations.
    pub worst_overshoot: f64,
    /// Observed per-DC core peaks.
    pub peak_cores: Vec<f64>,
    /// Observed per-link Gbps peaks.
    pub peak_gbps: Vec<f64>,
    /// Mean ACL over freeze- and re-home-time placements.
    pub mean_acl_ms: f64,
    /// Plan artifacts hot-swapped into the selector over the run.
    pub plan_installs: u64,
    /// Epochs installed, in install order.
    pub installed_epochs: Vec<u64>,
    /// Per-window breakdown.
    pub windows: Vec<WindowStats>,
}

impl ChaosReport {
    /// The comparable aggregate of this run.
    pub fn stats(&self) -> ChaosStats {
        ChaosStats {
            calls: self.calls,
            selector: self.selector.clone(),
            per_dc_tallies: self.per_dc_tallies.clone(),
            stranded: self.stranded,
            forced_migrations: self.forced_migrations,
            plan_migrations: self.plan_migrations,
            capacity_violations: self.capacity_violations,
            worst_overshoot: self.worst_overshoot,
            peak_cores: self.peaks.cores.clone(),
            peak_gbps: self.peaks.gbps.clone(),
            mean_acl_ms: self.mean_acl_ms,
            plan_installs: self.plan_installs,
            installed_epochs: self.installed_epochs.clone(),
            windows: self.windows.clone(),
        }
    }
}

#[derive(Clone, Copy)]
struct Hosting {
    rec: usize,
    dc: DcId,
    since: u64,
}

/// One-stop builder over the chaos/replay engine, replacing the
/// `chaos_replay` / `chaos_replay_concurrent` /
/// `chaos_replay_replanned(_concurrent)` free-function family.
///
/// Defaults: serial oracle drive, empty fault timeline (chaos replay
/// degenerates to a plain replay), no replanner, [`ChaosConfig::default`].
///
/// The selector is constructed internally (its topology view changes over
/// the run). Usage accounting matches [`crate::replay()`]: per-minute compute
/// at the hosting DC and per-leg traffic on routed links — except that
/// hosting intervals are additionally flushed at every fault transition, so
/// re-routed traffic and re-homed calls are charged to the right resources
/// minute by minute. Stranded calls stop consuming resources when dropped.
///
/// With [`threads`](ReplayDriver::threads) the selector is driven by worker
/// threads inside each fault-free segment (fault transitions and plan
/// installs are the only barriers); the aggregate [`ChaosStats`] matches the
/// serial engine exactly, floats included. With a
/// [`replanner`](ReplayDriver::replanner), triggers from the timeline (and
/// the replanner's schedule) produce fresh plan artifacts that are
/// hot-swapped into the selector after the re-plan latency, at barrier
/// windows; staleness windows close when the re-plan lands.
pub struct ReplayDriver<'a, 'p> {
    topo: &'a Topology,
    catalog: &'a ConfigCatalog,
    db: &'a CallRecordsDb,
    quotas: PlannedQuotas,
    cfg: ChaosConfig,
    timeline: FaultTimeline,
    threads: Option<usize>,
    replanner: Option<&'a mut Replanner<'p>>,
    service_faults: Vec<ServiceFault>,
}

impl<'a, 'p> ReplayDriver<'a, 'p> {
    /// A driver replaying `db` against the epoch-0 plan seeded from
    /// `quotas`, serially, with no faults.
    pub fn new(
        topo: &'a Topology,
        catalog: &'a ConfigCatalog,
        db: &'a CallRecordsDb,
        quotas: PlannedQuotas,
    ) -> ReplayDriver<'a, 'p> {
        ReplayDriver {
            topo,
            catalog,
            db,
            quotas,
            cfg: ChaosConfig::default(),
            timeline: FaultTimeline::new(),
            threads: None,
            replanner: None,
            service_faults: Vec::new(),
        }
    }

    /// Replace the [`ChaosConfig`] (freeze offset, capacity check, window
    /// width).
    pub fn config(mut self, cfg: ChaosConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Inject this fault timeline during the replay.
    pub fn faults(mut self, timeline: FaultTimeline) -> Self {
        self.timeline = timeline;
        self
    }

    /// Drive the selector with `threads` worker threads per fault-free
    /// segment instead of the serial oracle (0 is clamped to 1).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Attach a mid-replay re-planning hook.
    pub fn replanner(mut self, replanner: &'a mut Replanner<'p>) -> Self {
        self.replanner = Some(replanner);
        self
    }

    /// Inject service-layer faults. Only
    /// [`ServiceFault::WorkerDeath`] applies here (and only with
    /// [`threads`](ReplayDriver::threads) — the serial oracle has no
    /// workers to kill); journal/crash faults belong to the journaled
    /// crash drill ([`crate::crash::drive_with_crashes`]).
    pub fn service_faults(mut self, faults: Vec<ServiceFault>) -> Self {
        self.service_faults = faults;
        self
    }

    /// Run the replay and produce the report: `timeline` is injected while
    /// the selector is driven segment by fault-free segment (serially, or
    /// with `threads` workers); the replanner, when present, turns triggers
    /// into plan installs at barriers after its configured latency.
    pub fn run(self) -> ChaosReport {
        let (topo, catalog, cfg, threads) = (self.topo, self.catalog, &self.cfg, self.threads);
        let timeline = &self.timeline;
        let mut replanner = self.replanner;
        let met = chaos_metrics();
        met.runs.inc();
        let _t = met.wall_ns.start_timer();

        let records = self.db.records();
        let t0 = records.iter().map(|r| r.start_minute).min().unwrap_or(0);
        let t1 = records.iter().map(|r| r.end_minute()).max();
        let horizon = t1.map_or(0, |t1| (t1 - t0 + 1) as usize);
        let t1 = t1.unwrap_or(t0);
        let mut plane = ControlPlane::new(topo, timeline, self.quotas, replanner.is_some(), t0);
        let window_minutes = cfg.window_minutes.max(1);
        let num_windows = (horizon as u64).div_ceil(window_minutes) as usize;
        let mut windows: Vec<WindowStats> = (0..num_windows)
            .map(|w| WindowStats {
                start_minute: t0 + w as u64 * window_minutes,
                starts_by_dc: vec![0; topo.dcs.len()],
                ..WindowStats::default()
            })
            .collect();
        let win_of = |minute: u64| (((minute - t0) / window_minutes) as usize).min(num_windows - 1);

        let events = build_events(records, cfg.freeze_minutes);

        // re-plan installs land at barriers, at most one per minute
        let mut installs = match replanner.as_deref() {
            Some(rp) => install_schedule(
                timeline,
                rp.on_dc_down,
                rp.on_stale,
                &rp.schedule,
                rp.latency_min,
                t0,
                t1,
            ),
            None => Vec::new(),
        };
        installs.dedup_by_key(|p| p.0);

        // fault-state segments: [t0, cp1), [cp1, cp2), … — plan installs are
        // additional barriers
        let mut seg_starts = vec![t0];
        seg_starts.extend(timeline.change_points(t0, t1));
        seg_starts.extend(installs.iter().map(|&(m, _, _)| m));
        seg_starts.sort_unstable();
        seg_starts.dedup();
        let seg_states: Vec<ChaosState> = seg_starts
            .iter()
            .map(|&m| timeline.state_at(topo, m))
            .collect();

        let mut usage = UsageDeltas::new(topo, t0, horizon);
        let mut hosted: HashMap<u64, Hosting> = HashMap::new();
        let mut acl_sum = 0.0;
        let mut acl_n = 0u64;
        let mut installed_epochs: Vec<u64> = Vec::new();
        let mut last_artifact: Option<Arc<PlanArtifact>> = None;
        let mut next_install = 0usize;

        // close `h`'s hosting interval at `to`, charging it under `routing`
        let flush = |h: &mut Hosting, to: u64, routing: &RoutingTable, usage: &mut UsageDeltas| {
            if to > h.since {
                let c = catalog.config(records[h.rec].config);
                usage.add(routing, c, h.dc, h.since, to);
                h.since = to;
            }
        };

        let mut deaths = WorkerDeaths::new(threads.unwrap_or(1), &self.service_faults);
        let mut next_seg = 1usize;
        let mut ei = 0usize;
        while ei < events.len() {
            let t_first = events[ei].0;

            // fault transitions and installs due before the next event
            while next_seg < seg_starts.len() && seg_starts[next_seg] <= t_first {
                let tr = seg_starts[next_seg];
                next_seg += 1;
                let w = win_of(tr);
                // what only this engine does at a barrier: close every hosting
                // interval under the *old* routing first, in call-id order so the
                // float sums do not depend on hash-map iteration order
                let mut ids: Vec<u64> = hosted.keys().copied().collect();
                ids.sort_unstable();
                for id in &ids {
                    if let Some(h) = hosted.get_mut(id) {
                        flush(h, tr, &plane.routing, &mut usage);
                    }
                }
                let due_from = next_install;
                while next_install < installs.len() && installs[next_install].0 == tr {
                    next_install += 1;
                }
                let (installed, rehomed) =
                    plane.barrier(tr, &installs[due_from..next_install], true, &mut |req| {
                        replanner.as_deref_mut().and_then(|rp| (rp.builder)(req))
                    });
                for (_, artifact) in installed {
                    if let Some(prev) = &last_artifact {
                        PlanDelta::between(prev, &artifact).record();
                    }
                    installed_epochs.push(artifact.epoch);
                    windows[w].plan_installs += 1;
                    last_artifact = Some(artifact);
                }
                for (id, outcome) in rehomed {
                    match (outcome.dc(), hosted.get_mut(&id)) {
                        (Some(dc), Some(h)) => {
                            h.dc = dc;
                            windows[w].forced_migrations += 1;
                            met.forced_migrations.inc();
                            let c = catalog.config(records[h.rec].config);
                            if let Some(a) = plane.latmap.acl(c, dc) {
                                acl_sum += a;
                                acl_n += 1;
                                windows[w].acl_sum += a;
                                windows[w].acl_n += 1;
                            }
                        }
                        (Some(_), None) => {}
                        (None, _) => {
                            hosted.remove(&id);
                            windows[w].stranded += 1;
                            met.stranded.inc();
                        }
                    }
                }
            }

            // the fault-free segment: events up to the next transition
            let len = match seg_starts.get(next_seg) {
                Some(&b) => events[ei..].partition_point(|&(t, _, _)| t < b),
                None => events.len() - ei,
            };
            let seg_events = &events[ei..ei + len];
            ei += len;

            // drive the selector, then apply bookkeeping in exact trace order
            // (on this thread for either drive — this is what keeps the float
            // accounting bit-identical)
            let steps = fan_out(&plane.selector, records, seg_events, threads, &mut deaths);
            for (&(t, _, i), step) in seg_events.iter().zip(steps) {
                let w = win_of(t);
                let r = &records[i];
                match step {
                    Step::Started(outcome) => {
                        windows[w].calls_started += 1;
                        match outcome.and_then(|o| o.dc()) {
                            Some(dc) => {
                                windows[w].starts_by_dc[dc.index()] += 1;
                                hosted.insert(
                                    r.id,
                                    Hosting {
                                        rec: i,
                                        dc,
                                        since: t,
                                    },
                                );
                            }
                            None => {
                                windows[w].stranded += 1;
                                met.stranded.inc();
                            }
                        }
                    }
                    Step::Frozen { decision, .. } => {
                        let Some(h) = hosted.get_mut(&r.id) else {
                            continue;
                        };
                        // mirror of the selector's plan_stale accrual: while the
                        // plan is distrusted, every reached freeze comes back
                        // Unplanned via the stale branch
                        if !plane.plan_valid && matches!(decision, FreezeDecision::Unplanned(_)) {
                            windows[w].plan_stale_freezes += 1;
                        }
                        let Some(final_dc) = decision.final_dc() else {
                            continue;
                        };
                        if decision.migrated() {
                            windows[w].plan_migrations += 1;
                        }
                        if final_dc != h.dc {
                            flush(h, t, &plane.routing, &mut usage);
                            h.dc = final_dc;
                        }
                        if let Some(a) = plane.latmap.acl(catalog.config(r.config), final_dc) {
                            acl_sum += a;
                            acl_n += 1;
                            windows[w].acl_sum += a;
                            windows[w].acl_n += 1;
                        }
                    }
                    Step::Skipped => {} // stranded before freezing
                    Step::Ended => {
                        if let Some(mut h) = hosted.remove(&r.id) {
                            flush(&mut h, t, &plane.routing, &mut usage);
                        }
                    }
                }
            }
        }

        // integrate deltas → usage; peaks and violations against *effective*
        // capacity (CapacityDegraded scales per-DC cores per minute)
        let state_of = |m: usize| {
            let minute = t0 + m as u64;
            &seg_states[seg_starts.partition_point(|&s| s <= minute) - 1]
        };
        let (peaks, violations, worst) = usage.integrate(
            topo,
            cfg.capacity.as_ref(),
            |m| state_of(m).core_fraction.as_slice(),
            |m, v| {
                let st = state_of(m);
                let win = &mut windows[win_of(t0 + m as u64)];
                win.down_dcs = win.down_dcs.max(st.mask.down_dcs().count() as u32);
                win.down_links = win.down_links.max(st.mask.down_links().count() as u32);
                win.violations += v;
            },
        );
        met.violations.add(violations);

        if sb_obs::global().enabled() {
            for w in &windows {
                met.windows.push(vec![
                    Value::from(w.start_minute),
                    Value::from(w.calls_started),
                    Value::from(w.plan_migrations),
                    Value::from(w.forced_migrations),
                    Value::from(w.stranded),
                    Value::from(w.violations),
                    Value::from(w.down_dcs as u64),
                    Value::from(w.down_links as u64),
                    Value::from(w.plan_installs),
                    Value::from(w.plan_stale_freezes),
                    Value::from(w.mean_acl_ms()),
                ]);
            }
        }

        let total = |field: fn(&WindowStats) -> u64| windows.iter().map(field).sum::<u64>();
        ChaosReport {
            calls: records.len() as u64,
            selector: plane.selector.stats(),
            per_dc_tallies: plane.selector.per_dc_tallies(),
            stranded: total(|w| w.stranded),
            forced_migrations: total(|w| w.forced_migrations),
            plan_migrations: total(|w| w.plan_migrations),
            capacity_violations: violations,
            worst_overshoot: worst,
            peaks,
            mean_acl_ms: if acl_n > 0 {
                acl_sum / acl_n as f64
            } else {
                0.0
            },
            plan_installs: total(|w| w.plan_installs),
            installed_epochs,
            worker_deaths: deaths.deaths,
            takeover_ops: deaths.takeover_ops,
            windows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{all_at, db_of, record, world};
    use sb_workload::ConfigId;

    #[test]
    fn empty_timeline_matches_plain_replay_counters() {
        let (topo, cat, id) = world();
        let jp = topo.country_by_name("JP");
        let tokyo = topo.dc_by_name("Tokyo");
        let db = db_of(&cat, (0..10).map(|i| record(i, id, i, 30, jp)));
        let quotas = all_at(id, tokyo, 2, 30.0);
        let report = ReplayDriver::new(&topo, &cat, &db, quotas).run();
        assert_eq!(report.calls, 10);
        assert_eq!(report.stranded, 0);
        assert_eq!(report.forced_migrations, 0);
        assert_eq!(report.plan_migrations, 0);
        assert_eq!(report.per_dc_tallies[tokyo.index()], 10);
        assert!(report.peaks.cores[tokyo.index()] > 0.0);
    }

    #[test]
    fn dc_outage_rehomes_inflight_calls_and_recovery_brings_new_calls_back() {
        let (topo, cat, id) = world();
        let jp = topo.country_by_name("JP");
        let tokyo = topo.dc_by_name("Tokyo");
        let mut db = CallRecordsDb::new(cat.clone());
        // steady stream: one 30-minute call starting each minute for 3 hours
        for i in 0..180 {
            db.push(record(i, id, i, 30, jp));
        }
        let quotas = all_at(id, tokyo, 6, 40.0);
        // Tokyo down minutes [60, 120)
        let timeline = FaultTimeline::from_scenario(FailureScenario::DcDown(tokyo), 60, Some(120));
        let cfg = ChaosConfig {
            window_minutes: 60,
            ..ChaosConfig::default()
        };
        let report = ReplayDriver::new(&topo, &cat, &db, quotas)
            .faults(timeline)
            .config(cfg)
            .run();
        assert_eq!(report.stranded, 0, "two DCs survive — nobody strands");
        // the ~29 calls in flight at minute 60 are forcibly re-homed
        assert!(
            report.forced_migrations >= 25,
            "{}",
            report.forced_migrations
        );
        assert_eq!(report.selector.forced_migrations, report.forced_migrations);
        // windows: [0,60) healthy, [60,120) outage, [120,180+) recovered
        let w0 = &report.windows[0];
        let w1 = &report.windows[1];
        let w2 = &report.windows[2];
        assert_eq!(w0.down_dcs, 0);
        assert_eq!(w1.down_dcs, 1);
        assert_eq!(w2.down_dcs, 0);
        assert!(w0.starts_by_dc[tokyo.index()] > 0);
        // during the outage no new call lands on Tokyo …
        assert_eq!(w1.starts_by_dc[tokyo.index()], 0);
        assert!(w1.calls_started > 0);
        assert_eq!(w1.forced_migrations, report.forced_migrations);
        // … and after recovery new calls return to it (mid-replay recovery)
        assert!(w2.starts_by_dc[tokyo.index()] > 0);
    }

    #[test]
    fn total_outage_strands_and_usage_stops() {
        let (topo, cat, id) = world();
        let jp = topo.country_by_name("JP");
        let tokyo = topo.dc_by_name("Tokyo");
        let db = db_of(&cat, (0..10).map(|i| record(i, id, 0, 60, jp)));
        // all three DCs down from minute 20, forever
        let mut timeline = FaultTimeline::new();
        for dc in topo.dc_ids() {
            timeline.push(FaultEvent::DcDown {
                dc,
                at: 20,
                recover_at: None,
            });
        }
        let quotas = all_at(id, tokyo, 2, 10.0);
        let report = ReplayDriver::new(&topo, &cat, &db, quotas)
            .faults(timeline)
            .run();
        assert_eq!(report.stranded, 10, "every in-flight call strands");
        assert_eq!(report.selector.stranded, 10);
        // the liveness rule is the selector's own: a dropped call is never
        // frozen, and its END still reaches the selector as a counted no-op
        assert_eq!(report.selector.unknown_freezes, 0);
        assert_eq!(report.selector.unknown_ends, 10);
        // dropped calls stop consuming: peak equals the pre-outage level and
        // usage after minute 20 is zero (peaks reflect [0,20) only)
        let cl = cat.config(id).compute_load();
        assert!((report.peaks.cores[tokyo.index()] - 10.0 * cl).abs() < 1e-9);
    }

    #[test]
    fn link_flap_toggles_state() {
        let (topo, _cat, _id) = world();
        let l = sb_net::LinkId(0);
        let timeline = FaultTimeline::new().with(FaultEvent::LinkFlap {
            link: l,
            at: 10,
            until: 50,
            period_min: 10,
        });
        // down [10,20) up [20,30) down [30,40) up [40,50)
        for (minute, down) in [
            (9, false),
            (10, true),
            (15, true),
            (25, false),
            (35, true),
            (45, false),
            (50, false),
        ] {
            let mask = timeline.state_at(&topo, minute).mask;
            assert_eq!(mask.down_links().any(|x| x == l), down, "minute {minute}");
        }
        let cps = timeline.change_points(0, 100);
        assert_eq!(cps, vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn capacity_degradation_creates_violations_without_migrations() {
        let (topo, cat, id) = world();
        let jp = topo.country_by_name("JP");
        let tokyo = topo.dc_by_name("Tokyo");
        let db = db_of(&cat, (0..10).map(|i| record(i, id, 0, 60, jp)));
        let quotas = all_at(id, tokyo, 2, 10.0);
        let cl = cat.config(id).compute_load();
        // capacity exactly fits 10 calls; degrade Tokyo to 40% mid-run
        let mut cap = ProvisionedCapacity::zero(&topo);
        cap.cores = vec![10.0 * cl; topo.dcs.len()];
        cap.gbps = vec![1e9; topo.links.len()];
        let timeline = FaultTimeline::new().with(FaultEvent::CapacityDegraded {
            dc: tokyo,
            fraction: 0.4,
            at: 30,
            recover_at: Some(40),
        });
        let cfg = ChaosConfig {
            capacity: Some(cap),
            ..ChaosConfig::default()
        };
        let report = ReplayDriver::new(&topo, &cat, &db, quotas)
            .faults(timeline)
            .config(cfg)
            .run();
        assert_eq!(report.forced_migrations, 0, "DC never went down");
        assert_eq!(report.capacity_violations, 10, "one per degraded minute");
        assert!(report.worst_overshoot > 0.0);
    }

    #[test]
    fn plan_stale_window_disables_plan_migrations() {
        let (topo, cat, id) = world();
        let jp = topo.country_by_name("JP");
        let pune = topo.dc_by_name("Pune");
        let mut db = CallRecordsDb::new(cat.clone());
        // calls freeze at minute start+5; first batch freezes during the
        // stale window, second after the plan refresh
        for i in 0..5 {
            db.push(record(i, id, 0, 30, jp));
        }
        for i in 5..10 {
            db.push(record(i, id, 60, 30, jp));
        }
        // plan wants everything at Pune (remote) → normally 100% migrations
        let quotas = all_at(id, pune, 4, 10.0);
        let timeline = FaultTimeline::new().with(FaultEvent::PlanStale {
            from: 0,
            until: Some(30),
        });
        let report = ReplayDriver::new(&topo, &cat, &db, quotas)
            .faults(timeline)
            .run();
        // stale window: 5 calls stay local; refreshed plan: 5 migrate
        assert_eq!(report.plan_migrations, 5);
        assert_eq!(report.selector.plan_stale, 5);
        assert_eq!(report.stranded, 0);
    }

    /// An epoch-`epoch` plan that puts every call of `cfg` at `dc`.
    fn plan_all_at(
        cfg: ConfigId,
        dc: DcId,
        slots: usize,
        per_slot: f64,
        epoch: u64,
    ) -> PlanArtifact {
        PlanArtifact::seed(all_at(cfg, dc, slots, per_slot)).with_epoch(epoch)
    }

    #[test]
    fn replanner_closes_stale_window_after_latency() {
        let (topo, cat, id) = world();
        let jp = topo.country_by_name("JP");
        let pune = topo.dc_by_name("Pune");
        let mut db = CallRecordsDb::new(cat.clone());
        // first batch freezes at minute 5 (inside the stale window), second
        // at minute 65 (after the re-plan lands at 0 + 15 = 15)
        for i in 0..5 {
            db.push(record(i, id, 0, 90, jp));
        }
        for i in 5..10 {
            db.push(record(i, id, 60, 30, jp));
        }
        // plan wants everything at Pune (remote) → planned freezes migrate
        let quotas = all_at(id, pune, 4, 10.0);
        // stale forever unless a re-plan lands
        let timeline = FaultTimeline::new().with(FaultEvent::PlanStale {
            from: 0,
            until: None,
        });
        let cfg = ChaosConfig {
            window_minutes: 60,
            ..ChaosConfig::default()
        };
        // without a replanner every freeze is unplanned
        let bare = ReplayDriver::new(&topo, &cat, &db, quotas.clone())
            .faults(timeline.clone())
            .config(cfg.clone())
            .run();
        assert_eq!(bare.plan_migrations, 0);
        assert_eq!(bare.selector.plan_stale, 10);
        assert_eq!(bare.plan_installs, 0);
        // with a 15-minute re-plan latency the stale window closes at 15:
        // the early freezes stay local, the late ones follow the plan again
        let mut seen_requests: Vec<(u64, u64, u64)> = Vec::new();
        let mut rp = Replanner::new(15, |req: &ReplanRequest| {
            seen_requests.push((req.trigger_minute, req.install_minute, req.epoch));
            Some(Arc::new(plan_all_at(id, pune, 4, 10.0, req.epoch)))
        });
        let report = ReplayDriver::new(&topo, &cat, &db, quotas)
            .faults(timeline)
            .config(cfg)
            .replanner(&mut rp)
            .run();
        drop(rp);
        assert_eq!(seen_requests, vec![(0, 15, 1)]);
        assert_eq!(report.plan_installs, 1);
        assert_eq!(report.installed_epochs, vec![1]);
        assert_eq!(report.selector.plan_stale, 5, "only the pre-install batch");
        assert_eq!(report.plan_migrations, 5, "the post-install batch migrates");
        assert_eq!(report.stranded, 0);
        // per-window: stale freezes stop accruing once the re-plan lands
        assert_eq!(report.windows[0].plan_stale_freezes, 5);
        assert_eq!(report.windows[0].plan_installs, 1);
        assert_eq!(report.windows[1].plan_stale_freezes, 0);
    }

    #[test]
    fn demand_drift_is_stale_until_replan() {
        let (topo, cat, id) = world();
        let jp = topo.country_by_name("JP");
        let pune = topo.dc_by_name("Pune");
        let mut db = CallRecordsDb::new(cat.clone());
        for i in 0..4 {
            db.push(record(i, id, 0, 30, jp)); // freeze at 5: before drift
        }
        for i in 4..8 {
            db.push(record(i, id, 30, 30, jp)); // freeze at 35: drifted
        }
        for i in 8..12 {
            db.push(record(i, id, 90, 30, jp)); // freeze at 95: re-planned
        }
        let quotas = all_at(id, pune, 5, 10.0);
        let timeline = FaultTimeline::new().with(FaultEvent::DemandDrift {
            at: 30,
            factor: 1.5,
        });
        // no recovery minute: without a replanner the drifted plan never
        // becomes trustworthy again
        let bare = ReplayDriver::new(&topo, &cat, &db, quotas.clone())
            .faults(timeline.clone())
            .run();
        assert_eq!(bare.plan_migrations, 4);
        assert_eq!(bare.selector.plan_stale, 8);
        // a replanner triggered by the drift re-plans against the drifted
        // forecast (factor visible in the request state)
        let mut drift_seen = 0.0f64;
        let mut rp = Replanner::new(20, |req: &ReplanRequest| {
            drift_seen = req.state.demand_factor;
            Some(Arc::new(plan_all_at(id, pune, 5, 15.0, req.epoch)))
        });
        let report = ReplayDriver::new(&topo, &cat, &db, quotas)
            .faults(timeline)
            .replanner(&mut rp)
            .run();
        drop(rp);
        assert_eq!(drift_seen, 1.5);
        assert_eq!(report.plan_installs, 1);
        // drifted batch froze at 35 < install 50 → stale; last batch planned
        assert_eq!(report.selector.plan_stale, 4);
        assert_eq!(report.plan_migrations, 8);
    }

    #[test]
    fn concurrent_replanned_chaos_matches_serial_across_swaps() {
        let (topo, cat, id) = world();
        let jp = topo.country_by_name("JP");
        let tokyo = topo.dc_by_name("Tokyo");
        let pune = topo.dc_by_name("Pune");
        let db = db_of(&cat, (0..180).map(|i| record(i, id, i, 30, jp)));
        let quotas = all_at(id, tokyo, 6, 40.0);
        // DC-down + staleness: the re-plan lands mid-outage and moves quota
        let timeline = FaultTimeline::new()
            .with(FaultEvent::DcDown {
                dc: tokyo,
                at: 60,
                recover_at: Some(120),
            })
            .with(FaultEvent::PlanStale {
                from: 60,
                until: None,
            });
        let cfg = ChaosConfig {
            window_minutes: 60,
            ..ChaosConfig::default()
        };
        let build = |req: &ReplanRequest| {
            // quota moves to Pune while Tokyo is down
            let dc = if req.state.mask.dc_up(tokyo) {
                tokyo
            } else {
                pune
            };
            Some(Arc::new(plan_all_at(id, dc, 6, 40.0, req.epoch)))
        };
        let serial = {
            let mut rp = Replanner::new(15, build);
            ReplayDriver::new(&topo, &cat, &db, quotas.clone())
                .faults(timeline.clone())
                .config(cfg.clone())
                .replanner(&mut rp)
                .run()
        };
        assert!(serial.plan_installs >= 1);
        assert!(serial.forced_migrations > 0);
        for threads in [1usize, 4] {
            let mut rp = Replanner::new(15, build);
            let conc = ReplayDriver::new(&topo, &cat, &db, quotas.clone())
                .faults(timeline.clone())
                .config(cfg.clone())
                .threads(threads)
                .replanner(&mut rp)
                .run();
            assert_eq!(serial.stats(), conc.stats(), "threads={threads}");
        }
    }

    #[test]
    fn concurrent_chaos_matches_serial_through_an_outage() {
        let (topo, cat, id) = world();
        let jp = topo.country_by_name("JP");
        let tokyo = topo.dc_by_name("Tokyo");
        let db = db_of(&cat, (0..180).map(|i| record(i, id, i, 30, jp)));
        let quotas = all_at(id, tokyo, 6, 40.0);
        let timeline = FaultTimeline::from_scenario(FailureScenario::DcDown(tokyo), 60, Some(120));
        let cfg = ChaosConfig {
            window_minutes: 60,
            ..ChaosConfig::default()
        };
        let serial = ReplayDriver::new(&topo, &cat, &db, quotas.clone())
            .faults(timeline.clone())
            .config(cfg.clone())
            .run();
        for threads in [1usize, 4] {
            let conc = ReplayDriver::new(&topo, &cat, &db, quotas.clone())
                .faults(timeline.clone())
                .config(cfg.clone())
                .threads(threads)
                .run();
            assert_eq!(serial.stats(), conc.stats(), "threads={threads}");
        }
        assert!(
            serial.forced_migrations > 0,
            "outage must exercise re-homes"
        );
    }

    /// Killing engine workers mid-segment (the coordinator serially drives
    /// the orphaned ops) must not change the aggregate stats: the delayed
    /// tail is just another valid interleaving under pool-pinning.
    #[test]
    fn worker_deaths_with_takeover_match_serial_stats() {
        let (topo, cat, id) = world();
        let jp = topo.country_by_name("JP");
        let tokyo = topo.dc_by_name("Tokyo");
        let db = db_of(&cat, (0..120).map(|i| record(i, id, i % 60, 30, jp)));
        let quotas = all_at(id, tokyo, 4, 120.0);
        let serial = ReplayDriver::new(&topo, &cat, &db, quotas.clone()).run();
        assert_eq!(serial.worker_deaths, 0);
        // one scheduled death per worker slot: whichever slots actually
        // receive op lists die mid-segment and hand their tail over
        let deaths: Vec<ServiceFault> = (0..3)
            .map(|w| ServiceFault::WorkerDeath {
                worker: w,
                after_ops: 7,
            })
            .collect();
        let conc = ReplayDriver::new(&topo, &cat, &db, quotas)
            .threads(3)
            .service_faults(deaths)
            .run();
        assert_eq!(serial.stats(), conc.stats());
        assert!(conc.worker_deaths >= 1, "{}", conc.worker_deaths);
        assert!(conc.takeover_ops > 0, "{}", conc.takeover_ops);
    }
}
