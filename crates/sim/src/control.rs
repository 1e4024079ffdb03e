//! The one windowed control loop: chaos replay and closed-loop autoscaling
//! are two configurations of it.
//!
//! A [`ControlLoop`] drives the real-time selector through the drive core
//! ([`crate::drive`]) one window at a time, from one of two record sources:
//!
//! * a materialized [`CallRecordsDb`] cut into fixed-width windows over
//!   `[first start, last END]` ([`ReplayDriver::new`]);
//! * a [`WindowStream`], one window per demand slot, generated as it is
//!   consumed so a multi-week world never holds more than a window plus the
//!   in-flight calls ([`AutoscaleLoop::new`]); calls outliving the last
//!   window are charged to it.
//!
//! ```text
//!   slice | stream ──window──▶ arena + event heap ──segment──▶ fan_out (selector)
//!                             (minute, kind, tie, slot)             │ steps
//!        window close ◀─────────────────────────────────────────────┤
//!   (forecaster, schedule)                                           ▼
//!             │ drift / schedule        fault / stale        window rows, hosting,
//!             ▼                             ▼                ACL ──▶ UsageDeltas
//!   install minute ──▶ ControlPlane::barrier ◀── fault transition   (peaks, violations)
//!   (after the re-plan     flush hosting → topology → install →
//!    latency)              validity → re-home displaced calls
//! ```
//!
//! Both sources feed one arena and one `(minute, kind, tie, slot)` event
//! heap. The tie is the record position for a slice (the rule of
//! [`crate::replay::build_events`]) and the call id for a stream, so each
//! replays in its canonical serial order.
//!
//! Re-plans are requested by four triggers — a `DcDown` onset, a staleness
//! onset (`PlanStale`, `DemandDrift`), every `schedule_every` windows, and
//! the optional streaming forecaster's drift watermark — and land
//! `latency_min` minutes later at a barrier, where the one planner callback
//! (which sees the forecaster whenever one runs) turns the request into an
//! artifact. Between a drift trigger and its install the plan is distrusted
//! like a `PlanStale` window; a staleness window closes the moment a re-plan
//! lands. At most one drift/schedule re-plan is outstanding at a time, and
//! a fault-driven one supersedes it. Fault barriers run to the last END;
//! drift/schedule installs only inside the windowed span.
//!
//! Fault transitions and installs are the only barriers; a segment between
//! two of them is driven serially or across worker threads (whole
//! lifecycles pinned to a worker by quota pool), and every piece of
//! bookkeeping — hosting intervals, re-homes, window rows — happens on the
//! coordinating thread in exact trace order, so [`LoopStats`] comes out
//! identical to the serial drive, floats included, with or without
//! [`ServiceFault::WorkerDeath`]s. Capacity, ACL and usage peaks are
//! accounted in every run: each call's hosting intervals are charged to its
//! DC and routed links, and a minute is integrated once no open hosting
//! interval can still start before it, so a stream's working set stays
//! bounded by its longest call rather than by the days streamed.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::{Arc, OnceLock};

use sb_core::{
    FreezeDecision, LatencyMap, PlanArtifact, PlanDelta, PlannedQuotas, RealtimeSelector,
    SelectorStats,
};
use sb_forecast::{Observation, StreamingForecaster, StreamingParams};
use sb_net::{DcId, ProvisionedCapacity, RoutingTable, Topology};
use sb_obs::{Counter, Histogram, Table, Value};
use sb_workload::joins::CONFIG_FREEZE_SECONDS;
use sb_workload::{CallRecord, CallRecordsDb, ConfigCatalog, ConfigId, Generator, WindowStream};

use crate::chaos::{ChaosState, FaultEvent, FaultTimeline, ReplanRequest, ReplanTrigger};
use crate::crash::ServiceFault;
use crate::drive::{fan_out, mean, Step, UsageDeltas, WorkerDeaths};
use crate::replay::{EV_END, EV_FREEZE, EV_START};

/// A window as a row of the `chaos.windows` table.
fn window_row(w: &LoopWindow) -> [(&'static str, Value); 11] {
    [
        ("window_start_min", w.start_minute.into()),
        ("calls_started", w.calls_started.into()),
        ("plan_migrations", w.plan_migrations.into()),
        ("forced_migrations", w.forced_migrations.into()),
        ("stranded", w.stranded.into()),
        ("violations", w.violations.into()),
        ("down_dcs", w.down_dcs.into()),
        ("down_links", w.down_links.into()),
        ("plan_installs", w.plan_installs.into()),
        ("plan_stale_freezes", w.stale_freezes.into()),
        ("mean_acl_ms", w.mean_acl_ms().into()),
    ]
}

struct LoopMetrics {
    runs: Counter,
    forced_migrations: Counter,
    stranded: Counter,
    violations: Counter,
    wall_ns: Histogram,
    windows: Table,
}

fn loop_metrics() -> &'static LoopMetrics {
    static METRICS: OnceLock<LoopMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = sb_obs::global();
        LoopMetrics {
            runs: reg.counter("chaos.runs"),
            forced_migrations: reg.counter("chaos.forced_migrations"),
            stranded: reg.counter("chaos.stranded"),
            violations: reg.counter("chaos.capacity_violations"),
            wall_ns: reg.histogram("chaos.wall_ns"),
            windows: reg.table(
                "chaos.windows",
                &window_row(&LoopWindow::default()).map(|(column, _)| column),
            ),
        }
    })
}

/// The plan-building callback: given the request and the forecaster (when
/// one runs), produce the artifact to install — `None` skips the install
/// and the plan stays stale.
type Planner<'a> =
    Box<dyn FnMut(&ReplanRequest, Option<&StreamingForecaster>) -> Option<Arc<PlanArtifact>> + 'a>;

/// Control-loop configuration; every field applies to either source.
#[derive(Clone, Debug)]
pub struct LoopConfig {
    /// Minutes into the call at which the config freezes (A; 5 in the
    /// paper).
    pub freeze_minutes: u64,
    /// Capacity to check usage against. `CapacityDegraded` faults scale the
    /// per-DC core entries minute by minute.
    pub capacity: Option<ProvisionedCapacity>,
    /// Minutes between a trigger and the produced plan's installation (the
    /// controller's re-plan latency).
    pub latency_min: u64,
    /// Request a [`ReplanTrigger::Schedule`] re-plan every this many
    /// windows (`None`: no periodic re-planning).
    pub schedule_every: Option<u64>,
    /// Run a streaming forecaster on each window's realized demand; its
    /// drift watermark requests [`ReplanTrigger::Drift`] re-plans (`None`:
    /// no forecaster).
    pub forecaster: Option<StreamingParams>,
}

impl Default for LoopConfig {
    /// Paper freeze offset, no capacity check, 15-minute re-plan latency,
    /// no schedule, no forecaster.
    fn default() -> Self {
        LoopConfig {
            freeze_minutes: (CONFIG_FREEZE_SECONDS / 60) as u64,
            capacity: None,
            latency_min: 15,
            schedule_every: None,
            forecaster: None,
        }
    }
}

/// Per-window statistics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LoopWindow {
    /// Window index.
    pub index: u64,
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
    /// Per-DC core peaks over the window's minutes.
    pub peak_cores: Vec<f64>,
    /// Per-link Gbps peaks over the window's minutes.
    pub peak_gbps: Vec<f64>,
    /// Plan artifacts hot-swapped into the selector during the window.
    pub plan_installs: u64,
    /// Freezes that fell back to Unplanned because the plan was distrusted
    /// (stale, or drift-opened) — shows a stale window closing once a
    /// re-plan lands.
    pub stale_freezes: u64,
    /// Realized demand: calls starting in the window, all configs.
    pub demand_calls: f64,
    /// Worst peak-normalized rolling forecast RMSE across configs at this
    /// window's close (`None` without a forecaster or while it warms up).
    pub forecast_nrmse: Option<f64>,
    /// Whether any config's drift watermark fired at this window's close.
    pub drift: bool,
    /// Sum of the ACLs of the placements made in the window (freeze and
    /// re-home time).
    pub acl_sum_ms: f64,
    /// Placements summed in `acl_sum_ms`.
    pub placements: u64,
}

impl LoopWindow {
    /// Mean ACL of placements made in this window (freeze + re-home time).
    pub fn mean_acl_ms(&self) -> f64 {
        mean(self.acl_sum_ms, self.placements)
    }
}

/// The order-insensitive aggregate of a run, comparable with `==` between
/// the serial and concurrent drives (floats included — both apply all
/// bookkeeping on the coordinating thread in trace order, and the
/// forecaster sees the same realized-demand sequence either way).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LoopStats {
    /// Calls replayed.
    pub calls: u64,
    /// Final selector statistics (plan + forced migrations, rungs, …).
    pub selector: SelectorStats,
    /// Completed freeze tallies per DC (index = DC id).
    pub per_dc_tallies: Vec<u64>,
    /// Calls stranded at start or by a re-home.
    pub stranded: u64,
    /// Fault-forced mid-call re-homes.
    pub forced_migrations: u64,
    /// Plan-driven freeze migrations.
    pub plan_migrations: u64,
    /// Freezes that fell back to Unplanned while the plan was distrusted.
    pub stale_freezes: u64,
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
    /// Plan artifacts hot-swapped into the selector.
    pub plan_installs: u64,
    /// Epochs installed, in install order.
    pub installed_epochs: Vec<u64>,
    /// What triggered each install, in install order.
    pub install_triggers: Vec<ReplanTrigger>,
    /// Drift triggers that opened a stale window.
    pub drift_triggers: u64,
    /// Scheduled triggers fired.
    pub schedule_triggers: u64,
    /// Fault-timeline triggers serviced (DC failures, staleness onsets).
    pub fault_triggers: u64,
    /// Observations absorbed by the forecaster.
    pub forecast_observed: u64,
    /// Drift events the forecaster signalled.
    pub forecast_drifts: u64,
    /// Per-window breakdown.
    pub windows: Vec<LoopWindow>,
}

impl LoopStats {
    /// Peak-normalized forecast RMSE at the last tracked window, worst
    /// config (`None` if no forecaster left warmup).
    pub fn final_nrmse(&self) -> Option<f64> {
        self.windows.iter().rev().find_map(|w| w.forecast_nrmse)
    }
}

/// What a run produced: its comparable stats plus what depends on how it
/// was driven.
#[derive(Debug)]
pub struct LoopReport {
    /// The comparable aggregate.
    pub stats: LoopStats,
    /// Injected [`ServiceFault::WorkerDeath`]s that fired (threaded drive
    /// only; the serial drive has no workers to kill).
    pub worker_deaths: u64,
    /// Orphaned operations the coordinator drove after worker deaths.
    pub takeover_ops: u64,
    /// Peak number of in-flight call records held at once — the loop's
    /// working set.
    pub peak_inflight: usize,
    /// The forecaster in its final state, when one ran (resumable; its
    /// models are bitwise-equal to a batch fit on the realized series).
    pub forecaster: Option<StreamingForecaster>,
}

/// Where a run's records come from.
enum Source<'a> {
    /// A materialized trace, cut into `width`-minute windows.
    Slice { db: &'a CallRecordsDb, width: u64 },
    /// One window per demand slot, generated on demand.
    Stream(WindowStream<'a, 'a>),
}

/// The builder of one run of the loop. Start from [`ReplayDriver::new`]
/// (a materialized trace) or [`AutoscaleLoop::new`] (a window stream).
///
/// Defaults: serial drive, empty fault timeline, no planner (triggers are
/// still detected and counted, nothing installs), the source's default
/// [`LoopConfig`].
pub struct ControlLoop<'a> {
    topo: &'a Topology,
    catalog: &'a ConfigCatalog,
    source: Source<'a>,
    quotas: PlannedQuotas,
    cfg: LoopConfig,
    faults: FaultTimeline,
    threads: Option<usize>,
    service_faults: Vec<ServiceFault>,
    planner: Option<Planner<'a>>,
}

/// The [`ControlLoop`] over a materialized trace: chaos replay.
pub struct ReplayDriver;

impl ReplayDriver {
    /// A loop replaying `db` in `window_minutes`-wide windows against the
    /// epoch-0 plan seeded from `quotas`.
    #[allow(clippy::new_ret_no_self)]
    pub fn new<'a>(
        topo: &'a Topology,
        catalog: &'a ConfigCatalog,
        db: &'a CallRecordsDb,
        quotas: PlannedQuotas,
        window_minutes: u64,
    ) -> ControlLoop<'a> {
        let width = window_minutes.max(1);
        ControlLoop::over(topo, catalog, Source::Slice { db, width }, quotas)
    }
}

/// The [`ControlLoop`] over a window stream: closed-loop autoscaling.
pub struct AutoscaleLoop;

impl AutoscaleLoop {
    /// A loop streaming `days` days of `generator`'s workload against the
    /// epoch-0 plan seeded from `quotas`, with a forecaster of weekly
    /// seasonality at the generator's slot width.
    #[allow(clippy::new_ret_no_self)]
    pub fn new<'a>(
        topo: &'a Topology,
        generator: &'a Generator<'a>,
        quotas: PlannedQuotas,
        days: u32,
    ) -> ControlLoop<'a> {
        let stream = Source::Stream(generator.window_stream(0, days, 0));
        let season_len = generator.slots_per_day() * 7;
        ControlLoop::over(topo, &generator.universe().catalog, stream, quotas).config(LoopConfig {
            forecaster: Some(StreamingParams::new(season_len)),
            ..LoopConfig::default()
        })
    }
}

impl<'a> ControlLoop<'a> {
    fn over(
        topo: &'a Topology,
        catalog: &'a ConfigCatalog,
        source: Source<'a>,
        quotas: PlannedQuotas,
    ) -> ControlLoop<'a> {
        ControlLoop {
            topo,
            catalog,
            source,
            quotas,
            cfg: LoopConfig::default(),
            faults: FaultTimeline::new(),
            threads: None,
            service_faults: Vec::new(),
            planner: None,
        }
    }

    /// Replace the [`LoopConfig`].
    pub fn config(mut self, cfg: LoopConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Inject this fault timeline: topology transitions apply at their
    /// change points, calls hosted at a downed DC are re-homed, and DC-down
    /// / staleness onsets request re-plans.
    pub fn faults(mut self, timeline: FaultTimeline) -> Self {
        self.faults = timeline;
        self
    }

    /// Drive each segment with `threads` worker threads instead of the
    /// serial oracle (0 is clamped to 1).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Inject service-layer faults. Only [`ServiceFault::WorkerDeath`]
    /// applies here (and only with [`threads`](ControlLoop::threads));
    /// journal/crash faults belong to [`crate::crash::drive_with_crashes`].
    pub fn service_faults(mut self, faults: Vec<ServiceFault>) -> Self {
        self.service_faults = faults;
        self
    }

    /// Attach the plan builder invoked when a re-plan lands; it sees the
    /// forecaster whenever one runs.
    pub fn planner(
        mut self,
        planner: impl FnMut(&ReplanRequest, Option<&StreamingForecaster>) -> Option<Arc<PlanArtifact>>
            + 'a,
    ) -> Self {
        self.planner = Some(Box::new(planner));
        self
    }

    /// Run the loop to the last END and produce the report.
    pub fn run(self) -> LoopReport {
        let met = loop_metrics();
        met.runs.inc();
        let _t = met.wall_ns.start_timer();
        // (first minute, window width, window count, last minute a fault
        // barrier is scheduled for): a slice knows its last END up front, a
        // stream learns it in its tail
        let (t0, width, count, last, by_window) = match &self.source {
            Source::Slice { db, width } => {
                let records = db.records();
                let t0 = records.iter().map(|r| r.start_minute).min().unwrap_or(0);
                let t1 = records.iter().map(|r| r.end_minute()).max();
                let count = t1.map_or(0, |t1| t1 - t0 + 1).div_ceil(*width);
                let mut by_window = vec![Vec::new(); count as usize];
                for (i, r) in records.iter().enumerate() {
                    by_window[((r.start_minute - t0) / width) as usize].push(i);
                }
                (t0, *width, count, t1.unwrap_or(t0), by_window)
            }
            Source::Stream(s) => {
                let t0 = s.window_start_minute(0);
                (
                    t0,
                    s.window_minutes(),
                    s.num_windows(),
                    u64::MAX,
                    Vec::new(),
                )
            }
        };
        let (dcs, links) = (self.topo.dcs.len(), self.topo.links.len());
        let state = self.faults.state_at(self.topo, t0);
        let routing = RoutingTable::compute_masked(self.topo, state.mask.clone());
        let latmap = LatencyMap::from_routing(self.topo, &routing);
        let mut plane = ControlPlane {
            topo: self.topo,
            catalog: self.catalog,
            timeline: &self.faults,
            t0,
            width,
            threads: self.threads,
            planner: self.planner,
            forecaster: self.cfg.forecaster.map(StreamingForecaster::new),
            selector: RealtimeSelector::from_artifact(&latmap, &PlanArtifact::seed(self.quotas)),
            state,
            routing,
            latmap,
            plan_valid: true,
            last_install: None,
            last_artifact: None,
            changes: self.faults.change_points(t0, last).into(),
            installs: install_schedule(&self.faults, self.cfg.latency_min, t0, last).into(),
            cfg: self.cfg,
            outstanding: None,
            drift_open: false,
            arena: RecordArena::default(),
            pending: BinaryHeap::new(),
            deaths: WorkerDeaths::new(self.threads.unwrap_or(1), &self.service_faults),
            hosted: BTreeMap::new(),
            usage: UsageDeltas::new(self.topo, t0),
            acl: (0.0, 0),
            last_end: None,
            stats: LoopStats {
                windows: (0..count)
                    .map(|w| LoopWindow {
                        index: w,
                        start_minute: t0 + w * width,
                        starts_by_dc: vec![0; dcs],
                        peak_cores: vec![0.0; dcs],
                        peak_gbps: vec![0.0; links],
                        ..LoopWindow::default()
                    })
                    .collect(),
                ..LoopStats::default()
            },
        };
        plane.publish_topology();
        plane.trust(true);

        for w in 0..count {
            let batch: Vec<(u64, CallRecord)> = match &self.source {
                Source::Slice { db, .. } => (by_window[w as usize].iter())
                    .map(|&i| (i as u64, db.records()[i].clone()))
                    .collect(),
                Source::Stream(s) => (s.batch(w).records.into_iter())
                    .map(|r| (r.id, r))
                    .collect(),
            };
            let counts = plane.ingest(w, batch);
            let end = t0 + (w + 1) * width;
            plane.advance(end, true);
            plane.close_window(w, end, &counts);
        }
        // calls outliving the last window, and the fault barriers up to
        // their last END
        if let Some(last_end) = plane.last_end {
            plane.advance(last_end + 1, false);
            plane.integrate(last_end + 1);
        }
        plane.report(met)
    }
}

/// A call's current hosting interval, open since `since`.
struct Hosting {
    config: ConfigId,
    dc: DcId,
    since: u64,
}

/// One run of the loop: the selector, the fault-driven view of the world
/// it is driven under (composed fault state, routing, latency map, plan
/// validity — advanced only at barriers), and everything the loop counts.
struct ControlPlane<'a> {
    topo: &'a Topology,
    catalog: &'a ConfigCatalog,
    timeline: &'a FaultTimeline,
    t0: u64,
    width: u64,
    threads: Option<usize>,
    cfg: LoopConfig,
    planner: Option<Planner<'a>>,
    forecaster: Option<StreamingForecaster>,
    selector: RealtimeSelector,
    state: ChaosState,
    routing: RoutingTable,
    latmap: LatencyMap,
    /// Is the installed plan trusted right now (what the selector was told)?
    plan_valid: bool,
    last_install: Option<u64>,
    last_artifact: Option<Arc<PlanArtifact>>,
    /// Fault change points and fault-driven installs still ahead, in minute
    /// order.
    changes: VecDeque<u64>,
    installs: VecDeque<(u64, u64, ReplanTrigger)>,
    /// The one outstanding drift/schedule re-plan, (install minute, trigger
    /// minute, kind): further ones are debounced until it lands.
    outstanding: Option<(u64, u64, ReplanTrigger)>,
    /// The plan is distrusted between a drift trigger and the next install.
    drift_open: bool,
    arena: RecordArena,
    pending: BinaryHeap<Reverse<(u64, u8, u64, usize)>>,
    deaths: WorkerDeaths,
    /// Open hosting intervals by call id.
    hosted: BTreeMap<u64, Hosting>,
    usage: UsageDeltas,
    /// ACL sum and count over every placement, in trace order.
    acl: (f64, u64),
    last_end: Option<u64>,
    stats: LoopStats,
}

impl ControlPlane<'_> {
    fn window_of(&self, minute: u64) -> usize {
        (((minute - self.t0) / self.width) as usize).min(self.stats.windows.len() - 1)
    }

    /// Queue window `w`'s records (each with its tie-break) and return the
    /// realized demand per config.
    fn ingest(&mut self, w: u64, batch: Vec<(u64, CallRecord)>) -> Vec<f64> {
        let mut counts = vec![0.0; self.catalog.len()];
        self.stats.calls += batch.len() as u64;
        for (tie, r) in batch {
            counts[r.config.index()] += 1.0;
            let freeze = r.start_minute + self.cfg.freeze_minutes.min(r.duration_min as u64);
            let (start, end) = (r.start_minute, r.end_minute());
            self.last_end = self.last_end.max(Some(end));
            let slot = self.arena.insert(r);
            self.pending.push(Reverse((start, EV_START, tie, slot)));
            self.pending.push(Reverse((freeze, EV_FREEZE, tie, slot)));
            self.pending.push(Reverse((end, EV_END, tie, slot)));
        }
        self.stats.windows[w as usize].demand_calls = counts.iter().sum();
        counts
    }

    /// Drive every event and barrier before minute `until`; drift/schedule
    /// installs only when `dynamic`.
    fn advance(&mut self, until: u64, dynamic: bool) {
        loop {
            let change = self.changes.front().copied();
            let fault = self.installs.front().map(|i| i.0);
            let dyn_install = self.outstanding.filter(|_| dynamic).map(|o| o.0);
            let barrier = [change, fault, dyn_install]
                .into_iter()
                .flatten()
                .min()
                .filter(|&m| m < until);
            self.drive(barrier.unwrap_or(until));
            let Some(m) = barrier else { return };
            let is_change = change == Some(m);
            if is_change {
                self.changes.pop_front();
            }
            // a fault-driven re-plan due here supersedes the debounced
            // dynamic one; whichever lands closes the open drift window
            let due = if fault == Some(m) {
                self.stats.fault_triggers += 1;
                self.outstanding = None;
                self.installs.pop_front()
            } else if dyn_install == Some(m) {
                self.outstanding.take()
            } else {
                None
            };
            self.drift_open &= due.is_none();
            self.barrier(m, is_change, due);
        }
    }

    /// Drive the queued events before minute `until` as one barrier-free
    /// segment, then apply their bookkeeping in trace order.
    fn drive(&mut self, until: u64) {
        let mut events: Vec<(u64, u8, usize)> = Vec::new();
        while let Some(&Reverse((t, kind, _, slot))) = self.pending.peek() {
            if t >= until {
                break;
            }
            self.pending.pop();
            events.push((t, kind, slot));
        }
        let slots = &self.arena.slots;
        let steps = fan_out(
            &self.selector,
            slots,
            &events,
            self.threads,
            &mut self.deaths,
        );
        for (&(t, _, slot), step) in events.iter().zip(steps) {
            let w = self.window_of(t);
            let (id, config) = (self.arena.slots[slot].id, self.arena.slots[slot].config);
            let row = &mut self.stats.windows[w];
            match step {
                Step::Started(outcome) => {
                    row.calls_started += 1;
                    match outcome.and_then(|o| o.dc()) {
                        Some(dc) => {
                            row.starts_by_dc[dc.index()] += 1;
                            self.hosted.insert(
                                id,
                                Hosting {
                                    config,
                                    dc,
                                    since: t,
                                },
                            );
                        }
                        None => row.stranded += 1,
                    }
                }
                Step::Frozen { decision, .. } => {
                    let Some(h) = self.hosted.get_mut(&id) else {
                        continue;
                    };
                    if !self.plan_valid && matches!(decision, FreezeDecision::Unplanned(_)) {
                        row.stale_freezes += 1;
                    }
                    let Some(final_dc) = decision.final_dc() else {
                        continue;
                    };
                    row.plan_migrations += u64::from(decision.migrated());
                    if final_dc != h.dc {
                        flush(&mut self.usage, self.catalog, &self.routing, h, t);
                        h.dc = final_dc;
                    }
                    self.place(w, config, final_dc);
                }
                Step::Skipped => {} // stranded before freezing
                Step::Ended => {
                    if let Some(mut h) = self.hosted.remove(&id) {
                        flush(&mut self.usage, self.catalog, &self.routing, &mut h, t);
                    }
                    self.arena.remove(slot);
                }
            }
        }
    }

    /// Count a placement of a call of `config` at `dc` in window `w`'s ACL.
    fn place(&mut self, w: usize, config: ConfigId, dc: DcId) {
        if let Some(a) = self.latmap.acl(self.catalog.config(config), dc) {
            self.acl = (self.acl.0 + a, self.acl.1 + 1);
            let row = &mut self.stats.windows[w];
            row.acl_sum_ms += a;
            row.placements += 1;
        }
    }

    /// The one barrier, at `minute`: close every hosting interval under the
    /// old routing (in call-id order, so float sums do not depend on map
    /// order) when the world may change under it — a fault transition, or a
    /// re-plan a planner will answer; swap in the topology of the fault
    /// state composed there; land the `due` install **before** re-homing so
    /// displaced calls fall onto the fresh quota pools; recompute plan
    /// validity; then re-home every call hosted at a DC that is now down, in
    /// id order (earlier re-homes may drain plan quota). Installs and
    /// re-homes count in the window holding `minute`.
    fn barrier(&mut self, minute: u64, is_change: bool, due: Option<(u64, u64, ReplanTrigger)>) {
        if is_change || (due.is_some() && self.planner.is_some()) {
            for h in self.hosted.values_mut() {
                flush(&mut self.usage, self.catalog, &self.routing, h, minute);
            }
        }
        let state = self.timeline.state_at(self.topo, minute);
        let rerouted = state.mask != self.state.mask;
        self.state = state;
        if rerouted {
            self.routing = RoutingTable::compute_masked(self.topo, self.state.mask.clone());
            self.latmap = LatencyMap::from_routing(self.topo, &self.routing);
            self.publish_topology();
        }
        let w = self.window_of(minute);
        if let Some((install_minute, trigger_minute, trigger)) = due {
            let req = ReplanRequest {
                trigger,
                trigger_minute,
                install_minute,
                epoch: self.selector.plan_epoch() + 1,
                from_slot: self.selector.plan_slot_of_minute(install_minute),
                state: self.state.clone(),
            };
            let forecaster = self.forecaster.as_ref();
            if let Some(artifact) = self.planner.as_mut().and_then(|p| p(&req, forecaster)) {
                self.selector.install_plan(&artifact);
                self.last_install = Some(install_minute);
                if let Some(prev) = &self.last_artifact {
                    PlanDelta::between(prev, &artifact).record();
                }
                self.stats.windows[w].plan_installs += 1;
                self.stats.installed_epochs.push(artifact.epoch);
                self.stats.install_triggers.push(trigger);
                self.last_artifact = Some(artifact);
            }
        }
        self.trust(!self.drift_open);
        if !rerouted {
            return;
        }
        let mut displaced: Vec<u64> = (self.state.mask.down_dcs())
            .flat_map(|dc| self.selector.calls_at(dc))
            .collect();
        displaced.sort_unstable();
        for id in displaced {
            match (self.selector.rehome_call(id).dc(), self.hosted.get_mut(&id)) {
                (Some(dc), Some(h)) => {
                    h.dc = dc;
                    let config = h.config;
                    self.stats.windows[w].forced_migrations += 1;
                    self.place(w, config, dc);
                }
                (Some(_), None) => {}
                (None, _) => {
                    self.hosted.remove(&id);
                    self.stats.windows[w].stranded += 1;
                }
            }
        }
    }

    fn publish_topology(&self) {
        let up: Vec<bool> = (self.topo.dc_ids())
            .map(|d| self.state.mask.dc_up(d))
            .collect();
        self.selector.update_topology(&self.latmap, &up);
    }

    /// Recompute plan validity and tell the selector. A staleness window of
    /// the timeline closes early once a re-plan has landed at or after its
    /// onset ("stale until the re-plan lands"); `trusted: false` is the
    /// loop's own distrust on top (an open drift window).
    fn trust(&mut self, trusted: bool) {
        let landed = matches!(
            (self.state.stale_since, self.last_install),
            (Some(onset), Some(inst)) if inst >= onset
        );
        self.plan_valid = trusted && (self.state.plan_valid || landed);
        self.selector.set_plan_valid(self.plan_valid);
    }

    /// Window close at minute `end`: feed the realized demand to the
    /// forecaster, fire a drift or schedule trigger, and integrate every
    /// minute no open hosting interval can still reach.
    fn close_window(&mut self, w: u64, end: u64, counts: &[f64]) {
        let (mut drift, mut worst) = (false, None::<f64>);
        if let Some(fc) = &mut self.forecaster {
            for (ci, &y) in counts.iter().enumerate() {
                let nrmse = match fc.observe(ci as u32, y) {
                    Observation::Drift { nrmse, .. } => {
                        drift = true;
                        nrmse
                    }
                    Observation::Tracked { nrmse: Some(n), .. } => n,
                    _ => continue,
                };
                worst = Some(worst.map_or(nrmse, |p| p.max(nrmse)));
            }
        }
        let row = &mut self.stats.windows[w as usize];
        (row.forecast_nrmse, row.drift) = (worst, drift);
        if self.outstanding.is_none() {
            let trigger = if drift {
                // demand left the plan's envelope: distrust it until the
                // re-plan lands
                self.stats.drift_triggers += 1;
                self.drift_open = true;
                self.trust(false);
                Some(ReplanTrigger::Drift)
            } else if (self.cfg.schedule_every).is_some_and(|k| (w + 1).is_multiple_of(k)) {
                self.stats.schedule_triggers += 1;
                Some(ReplanTrigger::Schedule)
            } else {
                None
            };
            self.outstanding = trigger.map(|k| (end + self.cfg.latency_min, end, k));
        }
        let bound = self.last_end.map_or(end, |e| end.min(e + 1));
        let frontier = self.hosted.values().map(|h| h.since).fold(bound, u64::min);
        self.integrate(frontier);
    }

    /// Integrate usage up to (excluding) minute `until`, each minute against
    /// the fault state composed there.
    fn integrate(&mut self, until: u64) {
        while self.usage.next < until {
            let m = self.usage.next;
            let state = self.timeline.state_at(self.topo, m);
            let capacity = self.cfg.capacity.as_ref();
            let violations = self.usage.integrate_minute(capacity, &state.core_fraction);
            let w = self.window_of(m);
            let row = &mut self.stats.windows[w];
            row.violations += violations;
            row.down_dcs = row.down_dcs.max(state.mask.down_dcs().count() as u32);
            row.down_links = row.down_links.max(state.mask.down_links().count() as u32);
            let peaks = row.peak_cores.iter_mut().chain(&mut row.peak_gbps);
            for (peak, &cur) in peaks.zip(&self.usage.cur) {
                *peak = peak.max(cur);
            }
        }
    }

    fn report(self, met: &LoopMetrics) -> LoopReport {
        let mut stats = self.stats;
        let total = |field: fn(&LoopWindow) -> u64| stats.windows.iter().map(field).sum::<u64>();
        stats.stranded = total(|w| w.stranded);
        stats.forced_migrations = total(|w| w.forced_migrations);
        stats.plan_migrations = total(|w| w.plan_migrations);
        stats.stale_freezes = total(|w| w.stale_freezes);
        stats.plan_installs = total(|w| w.plan_installs);
        let (peaks, violations, worst) = self.usage.totals();
        (stats.peak_cores, stats.peak_gbps) = (peaks.cores, peaks.gbps);
        (stats.capacity_violations, stats.worst_overshoot) = (violations, worst);
        stats.mean_acl_ms = mean(self.acl.0, self.acl.1);
        stats.selector = self.selector.stats();
        stats.per_dc_tallies = self.selector.per_dc_tallies();
        if let Some(fc) = &self.forecaster {
            (stats.forecast_observed, stats.forecast_drifts) = (fc.observed(), fc.drifts());
        }
        met.stranded.add(stats.stranded);
        met.forced_migrations.add(stats.forced_migrations);
        met.violations.add(violations);
        if sb_obs::global().enabled() {
            for w in &stats.windows {
                met.windows
                    .push(window_row(w).into_iter().map(|(_, v)| v).collect());
            }
        }
        LoopReport {
            stats,
            worker_deaths: self.deaths.deaths,
            takeover_ops: self.deaths.takeover_ops,
            peak_inflight: self.arena.slots.len(),
            forecaster: self.forecaster,
        }
    }
}

/// Close `h`'s hosting interval at `to`, charging it under `routing`.
fn flush(
    usage: &mut UsageDeltas,
    catalog: &ConfigCatalog,
    routing: &RoutingTable,
    h: &mut Hosting,
    to: u64,
) {
    if to > h.since {
        usage.add(routing, catalog.config(h.config), h.dc, h.since, to);
        h.since = to;
    }
}

/// In-flight call-record arena: slots are recycled once a call ends, so the
/// resident set — `slots.len()`, the peak number of calls in flight — is
/// bounded by peak concurrency, not trace length.
#[derive(Default)]
struct RecordArena {
    slots: Vec<CallRecord>,
    free: Vec<usize>,
}

impl RecordArena {
    fn insert(&mut self, r: CallRecord) -> usize {
        match self.free.pop() {
            Some(i) => {
                self.slots[i] = r;
                i
            }
            None => {
                self.slots.push(r);
                self.slots.len() - 1
            }
        }
    }

    fn remove(&mut self, i: usize) {
        self.free.push(i);
    }
}

/// The re-plan installs a fault timeline asks for, as `(install minute,
/// trigger minute, kind)` sorted by install minute: one per trigger minute
/// (a `DcDown` onset outranks a staleness onset), landing `latency` minutes
/// after it, at most one per install minute, kept when it falls in
/// `(t0, last]`.
fn install_schedule(
    timeline: &FaultTimeline,
    latency: u64,
    t0: u64,
    last: u64,
) -> Vec<(u64, u64, ReplanTrigger)> {
    let mut triggers: Vec<(u64, ReplanTrigger)> = (timeline.events().iter())
        .filter_map(|ev| match *ev {
            FaultEvent::DcDown { at, .. } => Some((at, ReplanTrigger::Fault)),
            FaultEvent::PlanStale { from: at, .. } | FaultEvent::DemandDrift { at, .. } => {
                Some((at, ReplanTrigger::Stale))
            }
            _ => None,
        })
        .collect();
    // the more specific kind sorts first, so the dedup keeps it
    triggers.sort_unstable_by_key(|&(m, k)| (m, k as u8));
    triggers.dedup_by_key(|p| p.0);
    let mut installs: Vec<(u64, u64, ReplanTrigger)> = (triggers.into_iter())
        .map(|(tr, kind)| (tr.saturating_add(latency).max(t0 + 1), tr, kind))
        .filter(|&(inst, _, _)| inst <= last)
        .collect();
    installs.dedup_by_key(|p| p.0);
    installs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{all_at, db_of, record, world};
    use sb_core::AllocationShares;
    use sb_net::FailureScenario;
    use sb_workload::{DemandMatrix, UniverseParams, WorkloadParams};

    /// A small streamed world: `num_configs` configs, 400 calls a day in
    /// 120-minute slots.
    pub(crate) fn stream_params(num_configs: usize) -> WorkloadParams {
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

    /// Quotas hosting every config of `g` at every DC generously: nothing
    /// strands for want of quota.
    pub(crate) fn open_quotas(topo: &Topology, g: &Generator<'_>) -> PlannedQuotas {
        let (n, slots) = (g.universe().catalog.len(), 4);
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

    /// An epoch-`epoch` plan that puts every call of `cfg` at `dc`.
    fn plan_all_at(
        cfg: ConfigId,
        dc: DcId,
        slots: usize,
        per_slot: f64,
        epoch: u64,
    ) -> Arc<PlanArtifact> {
        Arc::new(PlanArtifact::seed(all_at(cfg, dc, slots, per_slot)).with_epoch(epoch))
    }

    #[test]
    fn empty_timeline_matches_plain_replay_counters() {
        let (topo, cat, id) = world();
        let jp = topo.country_by_name("JP");
        let tokyo = topo.dc_by_name("Tokyo");
        let db = db_of(&cat, (0..10).map(|i| record(i, id, i, 30, jp)));
        let quotas = all_at(id, tokyo, 2, 30.0);
        let s = ReplayDriver::new(&topo, &cat, &db, quotas, 60).run().stats;
        assert_eq!(s.calls, 10);
        assert_eq!(s.stranded, 0);
        assert_eq!(s.forced_migrations, 0);
        assert_eq!(s.plan_migrations, 0);
        assert_eq!(s.per_dc_tallies[tokyo.index()], 10);
        assert!(s.peak_cores[tokyo.index()] > 0.0);
    }

    #[test]
    fn dc_outage_rehomes_inflight_calls_and_recovery_brings_new_calls_back() {
        let (topo, cat, id) = world();
        let jp = topo.country_by_name("JP");
        let tokyo = topo.dc_by_name("Tokyo");
        // steady stream: one 30-minute call starting each minute for 3 hours
        let db = db_of(&cat, (0..180).map(|i| record(i, id, i, 30, jp)));
        let quotas = all_at(id, tokyo, 6, 40.0);
        // Tokyo down minutes [60, 120)
        let timeline = FaultTimeline::from_scenario(FailureScenario::DcDown(tokyo), 60, Some(120));
        let s = ReplayDriver::new(&topo, &cat, &db, quotas, 60)
            .faults(timeline)
            .run()
            .stats;
        assert_eq!(s.stranded, 0, "two DCs survive — nobody strands");
        // the ~29 calls in flight at minute 60 are forcibly re-homed
        assert!(s.forced_migrations >= 25, "{}", s.forced_migrations);
        assert_eq!(s.selector.forced_migrations, s.forced_migrations);
        // windows: [0,60) healthy, [60,120) outage, [120,180+) recovered
        let [w0, w1, w2] = [&s.windows[0], &s.windows[1], &s.windows[2]];
        assert_eq!((w0.down_dcs, w1.down_dcs, w2.down_dcs), (0, 1, 0));
        assert!(w0.starts_by_dc[tokyo.index()] > 0);
        // during the outage no new call lands on Tokyo …
        assert_eq!(w1.starts_by_dc[tokyo.index()], 0);
        assert!(w1.calls_started > 0);
        assert_eq!(w1.forced_migrations, s.forced_migrations);
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
        let s = ReplayDriver::new(&topo, &cat, &db, quotas, 60)
            .faults(timeline)
            .run()
            .stats;
        assert_eq!(s.stranded, 10, "every in-flight call strands");
        assert_eq!(s.selector.stranded, 10);
        // the liveness rule is the selector's own: a dropped call is never
        // frozen, and its END still reaches the selector as a counted no-op
        assert_eq!(s.selector.unknown_freezes, 0);
        assert_eq!(s.selector.unknown_ends, 10);
        // dropped calls stop consuming: peak equals the pre-outage level and
        // usage after minute 20 is zero (peaks reflect [0,20) only)
        let cl = cat.config(id).compute_load();
        assert!((s.peak_cores[tokyo.index()] - 10.0 * cl).abs() < 1e-9);
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
        let s = ReplayDriver::new(&topo, &cat, &db, quotas, 60)
            .faults(timeline)
            .config(LoopConfig {
                capacity: Some(cap),
                ..LoopConfig::default()
            })
            .run()
            .stats;
        assert_eq!(s.forced_migrations, 0, "DC never went down");
        assert_eq!(s.capacity_violations, 10, "one per degraded minute");
        assert!(s.worst_overshoot > 0.0);
    }

    #[test]
    fn plan_stale_window_disables_plan_migrations() {
        let (topo, cat, id) = world();
        let jp = topo.country_by_name("JP");
        let pune = topo.dc_by_name("Pune");
        // calls freeze at minute start+5; first batch freezes during the
        // stale window, second after the plan refresh
        let db = db_of(
            &cat,
            (0..10).map(|i| record(i, id, if i < 5 { 0 } else { 60 }, 30, jp)),
        );
        // plan wants everything at Pune (remote) → normally 100% migrations
        let quotas = all_at(id, pune, 4, 10.0);
        let timeline = FaultTimeline::new().with(FaultEvent::PlanStale {
            from: 0,
            until: Some(30),
        });
        let s = ReplayDriver::new(&topo, &cat, &db, quotas, 60)
            .faults(timeline)
            .run()
            .stats;
        // stale window: 5 calls stay local; refreshed plan: 5 migrate
        assert_eq!(s.plan_migrations, 5);
        assert_eq!(s.selector.plan_stale, 5);
        assert_eq!(s.stale_freezes, 5);
        assert_eq!(s.stranded, 0);
    }

    #[test]
    fn planner_closes_stale_window_after_latency() {
        let (topo, cat, id) = world();
        let jp = topo.country_by_name("JP");
        let pune = topo.dc_by_name("Pune");
        // first batch freezes at minute 5 (inside the stale window), second
        // at minute 65 (after the re-plan lands at 0 + 15 = 15)
        let db = db_of(
            &cat,
            (0..10).map(|i| match i < 5 {
                true => record(i, id, 0, 90, jp),
                false => record(i, id, 60, 30, jp),
            }),
        );
        // plan wants everything at Pune (remote) → planned freezes migrate
        let quotas = all_at(id, pune, 4, 10.0);
        // stale forever unless a re-plan lands
        let timeline = FaultTimeline::new().with(FaultEvent::PlanStale {
            from: 0,
            until: None,
        });
        // without a planner every freeze is unplanned
        let bare = ReplayDriver::new(&topo, &cat, &db, quotas.clone(), 60)
            .faults(timeline.clone())
            .run()
            .stats;
        assert_eq!(bare.plan_migrations, 0);
        assert_eq!(bare.selector.plan_stale, 10);
        assert_eq!(bare.plan_installs, 0);
        assert_eq!(bare.fault_triggers, 1, "the onset is still a trigger");
        // with the default 15-minute re-plan latency the stale window closes
        // at 15: the early freezes stay local, the late ones follow the plan
        let mut seen: Vec<(u64, u64, u64)> = Vec::new();
        let s = ReplayDriver::new(&topo, &cat, &db, quotas, 60)
            .faults(timeline)
            .planner(|req, fc| {
                assert!(fc.is_none(), "no forecaster runs over this slice");
                seen.push((req.trigger_minute, req.install_minute, req.epoch));
                Some(plan_all_at(id, pune, 4, 10.0, req.epoch))
            })
            .run()
            .stats;
        assert_eq!(seen, vec![(0, 15, 1)]);
        assert_eq!(s.plan_installs, 1);
        assert_eq!(s.installed_epochs, vec![1]);
        assert_eq!(s.install_triggers, vec![ReplanTrigger::Stale]);
        assert_eq!(s.selector.plan_stale, 5, "only the pre-install batch");
        assert_eq!(s.plan_migrations, 5, "the post-install batch migrates");
        assert_eq!(s.stranded, 0);
        // per-window: stale freezes stop accruing once the re-plan lands
        assert_eq!(s.windows[0].stale_freezes, 5);
        assert_eq!(s.windows[0].plan_installs, 1);
        assert_eq!(s.windows[1].stale_freezes, 0);
    }

    #[test]
    fn demand_drift_is_stale_until_replan() {
        let (topo, cat, id) = world();
        let jp = topo.country_by_name("JP");
        let pune = topo.dc_by_name("Pune");
        // freezes at 5 (before the drift), 35 (drifted) and 95 (re-planned)
        let db = db_of(
            &cat,
            (0..12).map(|i| record(i, id, [0, 30, 90][i as usize / 4], 30, jp)),
        );
        let quotas = all_at(id, pune, 5, 10.0);
        let timeline = FaultTimeline::new().with(FaultEvent::DemandDrift {
            at: 30,
            factor: 1.5,
        });
        // no recovery minute: without a planner the drifted plan never
        // becomes trustworthy again
        let bare = ReplayDriver::new(&topo, &cat, &db, quotas.clone(), 60)
            .faults(timeline.clone())
            .run()
            .stats;
        assert_eq!(bare.plan_migrations, 4);
        assert_eq!(bare.selector.plan_stale, 8);
        // a planner triggered by the drift re-plans against the drifted
        // forecast (factor visible in the request state)
        let mut drift_seen = 0.0f64;
        let s = ReplayDriver::new(&topo, &cat, &db, quotas, 60)
            .faults(timeline)
            .config(LoopConfig {
                latency_min: 20,
                ..LoopConfig::default()
            })
            .planner(|req, _| {
                drift_seen = req.state.demand_factor;
                Some(plan_all_at(id, pune, 5, 15.0, req.epoch))
            })
            .run()
            .stats;
        assert_eq!(drift_seen, 1.5);
        assert_eq!(s.plan_installs, 1);
        // drifted batch froze at 35 < install 50 → stale; last batch planned
        assert_eq!(s.selector.plan_stale, 4);
        assert_eq!(s.plan_migrations, 8);
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
        let run = |threads: Option<usize>| {
            let mut l = ReplayDriver::new(&topo, &cat, &db, quotas.clone(), 60)
                .faults(timeline.clone())
                .planner(|req, _| {
                    // quota moves to Pune while Tokyo is down
                    let dc = if req.state.mask.dc_up(tokyo) {
                        tokyo
                    } else {
                        pune
                    };
                    Some(plan_all_at(id, dc, 6, 40.0, req.epoch))
                });
            if let Some(n) = threads {
                l = l.threads(n);
            }
            l.run().stats
        };
        let serial = run(None);
        assert!(serial.plan_installs >= 1);
        assert!(serial.forced_migrations > 0);
        for threads in [1usize, 4] {
            assert_eq!(serial, run(Some(threads)), "threads={threads}");
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
        let run = |threads: Option<usize>| {
            let l =
                ReplayDriver::new(&topo, &cat, &db, quotas.clone(), 60).faults(timeline.clone());
            match threads {
                Some(n) => l.threads(n).run().stats,
                None => l.run().stats,
            }
        };
        let serial = run(None);
        assert!(
            serial.forced_migrations > 0,
            "outage must exercise re-homes"
        );
        for threads in [1usize, 4] {
            assert_eq!(serial, run(Some(threads)), "threads={threads}");
        }
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
        let serial = ReplayDriver::new(&topo, &cat, &db, quotas.clone(), 60).run();
        assert_eq!(serial.worker_deaths, 0);
        // one scheduled death per worker slot: whichever slots actually
        // receive op lists die mid-segment and hand their tail over
        let deaths: Vec<ServiceFault> = (0..3)
            .map(|w| ServiceFault::WorkerDeath {
                worker: w,
                after_ops: 7,
            })
            .collect();
        let conc = ReplayDriver::new(&topo, &cat, &db, quotas, 60)
            .threads(3)
            .service_faults(deaths)
            .run();
        assert_eq!(serial.stats, conc.stats);
        assert!(conc.worker_deaths >= 1, "{}", conc.worker_deaths);
        assert!(conc.takeover_ops > 0, "{}", conc.takeover_ops);
    }

    #[test]
    fn streamed_loop_runs_and_feeds_forecaster() {
        let topo = sb_net::presets::apac();
        let g = Generator::new(&topo, stream_params(20));
        let report = AutoscaleLoop::new(&topo, &g, open_quotas(&topo, &g), 3).run();
        let s = &report.stats;
        assert!(s.calls > 0);
        assert_eq!(s.stranded, 0);
        // 3 days × 12 windows/day, one observation per config per window
        assert_eq!(s.windows.len(), 36);
        assert_eq!(s.forecast_observed, 36 * g.universe().catalog.len() as u64);
        let fc = report
            .forecaster
            .as_ref()
            .expect("a stream runs a forecaster");
        assert_eq!(fc.observed(), s.forecast_observed);
        // in-flight working set is far below the total call count, and the
        // usage of every streamed call was accounted
        assert!(report.peak_inflight < s.calls as usize);
        assert!(s.peak_cores.iter().all(|&p| p > 0.0));
        assert!(s.mean_acl_ms > 0.0);
        // the run's peaks are its windows' peaks
        let peaks = |w: &LoopWindow| [w.peak_cores.clone(), w.peak_gbps.clone()].concat();
        let windowed = (s.windows.iter().map(peaks))
            .reduce(|a, b| a.iter().zip(&b).map(|(x, y)| x.max(*y)).collect())
            .unwrap();
        assert_eq!(
            windowed,
            [s.peak_cores.clone(), s.peak_gbps.clone()].concat()
        );
    }

    #[test]
    fn serial_and_concurrent_loops_match() {
        let topo = sb_net::presets::apac();
        let g = Generator::new(&topo, stream_params(20));
        let quotas = open_quotas(&topo, &g);
        let serial = AutoscaleLoop::new(&topo, &g, quotas.clone(), 2).run();
        for threads in [1usize, 4] {
            let conc = AutoscaleLoop::new(&topo, &g, quotas.clone(), 2)
                .threads(threads)
                .run();
            assert_eq!(serial.stats, conc.stats, "threads={threads}");
        }
    }

    #[test]
    fn scheduled_replans_install_and_carry_trigger() {
        let topo = sb_net::presets::apac();
        let g = Generator::new(&topo, stream_params(20));
        let quotas = open_quotas(&topo, &g);
        let mut seen: Vec<(ReplanTrigger, u64)> = Vec::new();
        let s = AutoscaleLoop::new(&topo, &g, quotas.clone(), 2)
            .config(LoopConfig {
                schedule_every: Some(6), // every half day
                forecaster: Some(StreamingParams::new(g.slots_per_day() * 7)),
                ..LoopConfig::default()
            })
            .planner(|req, fc| {
                seen.push((req.trigger, req.install_minute));
                assert_eq!(req.install_minute, req.trigger_minute + 15);
                assert!(fc.is_some_and(|fc| fc.num_configs() > 0));
                Some(Arc::new(
                    PlanArtifact::seed(quotas.clone()).with_epoch(req.epoch),
                ))
            })
            .run()
            .stats;
        // 24 windows / 6 = 4 schedule points; the last fires at the end of
        // the final window, so its install minute is past the stream and
        // only the first three land
        assert_eq!(s.schedule_triggers, 4);
        assert_eq!(s.plan_installs, 3);
        assert_eq!(seen.len(), 3);
        assert!(seen.iter().all(|&(t, _)| t == ReplanTrigger::Schedule));
        assert_eq!(s.install_triggers.len(), s.plan_installs as usize);
        assert_eq!(s.stranded, 0);
    }

    #[test]
    fn dc_down_rehomes_calls_and_fires_fault_replan() {
        let topo = sb_net::presets::apac();
        let g = Generator::new(&topo, stream_params(20));
        let quotas = open_quotas(&topo, &g);
        let dc = topo.dc_ids().next().unwrap();
        // down for half a day mid-stream, then back
        let timeline = FaultTimeline::new().with(FaultEvent::DcDown {
            dc,
            at: 300,
            recover_at: Some(1020),
        });
        let run = |threads: Option<usize>| {
            let mut l = AutoscaleLoop::new(&topo, &g, quotas.clone(), 2)
                .faults(timeline.clone())
                .planner(|req, _| {
                    Some(Arc::new(
                        PlanArtifact::seed(quotas.clone()).with_epoch(req.epoch),
                    ))
                });
            if let Some(n) = threads {
                l = l.threads(n);
            }
            l.run()
        };
        let report = run(None);
        let s = &report.stats;
        // calls hosted at the failed DC were re-homed, none stranded (the
        // other three DCs stay up with open quotas)
        assert!(s.forced_migrations > 0, "{}", s.forced_migrations);
        assert_eq!(s.stranded, 0);
        // the failure onset fed the install machinery as a Fault trigger
        assert_eq!(s.fault_triggers, 1);
        assert!(s.install_triggers.contains(&ReplanTrigger::Fault));
        assert_eq!(report.worker_deaths, 0);
        // the concurrent drive matches the serial oracle under the fault
        assert_eq!(report.stats, run(Some(4)).stats);
    }

    /// The stream's tail — calls outliving the last window — still passes
    /// every fault barrier up to the last END: a DC failing after the last
    /// window re-homes the calls in flight there.
    #[test]
    fn a_dc_down_in_the_stream_tail_rehomes_inflight_calls() {
        let topo = sb_net::presets::apac();
        let g = Generator::new(&topo, stream_params(20));
        let quotas = open_quotas(&topo, &g);
        let end = 1440; // one day streamed
        let timeline = FaultTimeline::new().with(FaultEvent::DcDown {
            dc: topo.dc_ids().next().unwrap(),
            at: end + 30,
            recover_at: None,
        });
        let run = |threads: Option<usize>| {
            let l = AutoscaleLoop::new(&topo, &g, quotas.clone(), 1).faults(timeline.clone());
            match threads {
                Some(n) => l.threads(n).run().stats,
                None => l.run().stats,
            }
        };
        let s = run(None);
        assert!(s.forced_migrations > 0, "{}", s.forced_migrations);
        assert_eq!(s.selector.forced_migrations, s.forced_migrations);
        assert_eq!(s.stranded, 0);
        // the re-homes are charged to the last window, which holds the tail
        assert_eq!(
            s.windows.last().unwrap().forced_migrations,
            s.forced_migrations
        );
        assert_eq!(s, run(Some(2)));
    }

    /// Capacity is accounted in the closed loop as in chaos replay: a DC
    /// losing most of its cores mid-stream violates a capacity the healthy
    /// stream fits.
    #[test]
    fn capacity_degradation_bites_in_the_closed_loop() {
        let topo = sb_net::presets::apac();
        let g = Generator::new(&topo, stream_params(20));
        let quotas = open_quotas(&topo, &g);
        let probe = AutoscaleLoop::new(&topo, &g, quotas.clone(), 2).run().stats;
        let capacity = ProvisionedCapacity {
            cores: probe.peak_cores.iter().map(|p| p * 1.01).collect(),
            gbps: probe.peak_gbps.iter().map(|p| p * 1.01 + 1e-6).collect(),
        };
        let cfg = LoopConfig {
            capacity: Some(capacity),
            ..LoopConfig::default()
        };
        let run = |timeline: FaultTimeline| {
            (AutoscaleLoop::new(&topo, &g, quotas.clone(), 2))
                .config(cfg.clone())
                .faults(timeline)
                .run()
                .stats
        };
        let healthy = run(FaultTimeline::new());
        assert_eq!(healthy.capacity_violations, 0);
        assert_eq!(healthy.worst_overshoot, 0.0);
        let busiest = (topo.dc_ids())
            .max_by(|a, b| probe.peak_cores[a.index()].total_cmp(&probe.peak_cores[b.index()]))
            .unwrap();
        let degraded = run(FaultTimeline::new().with(FaultEvent::CapacityDegraded {
            dc: busiest,
            fraction: 0.1,
            at: 600,
            recover_at: Some(1800),
        }));
        assert!(degraded.capacity_violations > 0);
        assert!(degraded.worst_overshoot > 0.0);
        let per_window: u64 = degraded.windows.iter().map(|w| w.violations).sum();
        assert_eq!(per_window, degraded.capacity_violations);
        // degradation moves no call: the selector's decisions are unchanged
        assert_eq!(degraded.selector, healthy.selector);
        assert_eq!(degraded.forced_migrations, 0);
    }

    /// A re-home that finds no DC up drops the call: the loop must count it
    /// as stranded (as the selector does) and never freeze it afterwards.
    #[test]
    fn calls_stranded_by_a_rehome_are_counted_and_never_frozen() {
        let topo = sb_net::presets::apac();
        let g = Generator::new(&topo, stream_params(20));
        let quotas = open_quotas(&topo, &g);
        // every DC down from minute 300, forever
        let mut timeline = FaultTimeline::new();
        for dc in topo.dc_ids() {
            timeline.push(FaultEvent::DcDown {
                dc,
                at: 300,
                recover_at: None,
            });
        }
        let run = |threads: Option<usize>| {
            let l = AutoscaleLoop::new(&topo, &g, quotas.clone(), 1).faults(timeline.clone());
            match threads {
                Some(n) => l.threads(n).run().stats,
                None => l.run().stats,
            }
        };
        let s = run(None);
        assert!(s.stranded > 0);
        assert_eq!(s.stranded, s.selector.stranded);
        assert_eq!(
            s.stranded,
            s.windows.iter().map(|w| w.stranded).sum::<u64>()
        );
        assert_eq!(s.selector.unknown_freezes, 0);
        // every dropped call's END still reaches the selector
        assert_eq!(s.selector.unknown_ends, s.stranded);
        assert_eq!(s, run(Some(2)));
    }

    #[test]
    fn worker_deaths_keep_loop_stats_serial_equal() {
        let topo = sb_net::presets::apac();
        let g = Generator::new(&topo, stream_params(20));
        let quotas = open_quotas(&topo, &g);
        let serial = AutoscaleLoop::new(&topo, &g, quotas.clone(), 2).run();
        assert_eq!(serial.worker_deaths, 0);
        let deaths: Vec<ServiceFault> = (0..3)
            .map(|w| ServiceFault::WorkerDeath {
                worker: w,
                after_ops: 5,
            })
            .collect();
        let conc = AutoscaleLoop::new(&topo, &g, quotas, 2)
            .threads(3)
            .service_faults(deaths)
            .run();
        assert_eq!(serial.stats, conc.stats);
        assert!(conc.worker_deaths >= 1, "{}", conc.worker_deaths);
    }
}
