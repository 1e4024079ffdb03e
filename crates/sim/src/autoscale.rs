//! Closed-loop autoscaling: the streaming control loop that ties the
//! forecaster to the planner at serving time.
//!
//! The batch pipeline works offline: fit Holt–Winters on a materialized
//! history, solve a plan, replay a materialized trace against it. This
//! module closes the loop instead. An [`AutoscaleLoop`] pulls call windows
//! from a [`sb_workload::WindowStream`] (one demand slot at a time — a
//! multi-week world never holds more than a window plus the in-flight
//! calls in memory), drives the real-time selector through the same drive
//! core the chaos replay uses ([`crate::drive`]), and at every bucket close
//! feeds realized demand to a
//! [`sb_forecast::StreamingForecaster`]:
//!
//! ```text
//!   WindowStream ──batch──▶ selector drive ──counts──▶ StreamingForecaster
//!        ▲                  (start/freeze/end)              │
//!        │                                                  │ drift /
//!        │                                                  ▼ schedule
//!   install_plan ◀──artifact── plan builder ◀──ReplanRequest (+ forecaster)
//!   (barrier, after re-plan latency)
//! ```
//!
//! When the forecaster's peak-normalized rolling RMSE crosses its watermark
//! ([`sb_forecast::Observation::Drift`]) — or a scheduled re-plan comes due —
//! the loop emits a [`ReplanRequest`] tagged with the unified
//! [`ReplanTrigger`] taxonomy, hands the live forecaster to the plan
//! builder (which typically calls [`sb_core::SlotPlanner::replan_from`]
//! warm), and hot-swaps the artifact at a barrier `latency_min` minutes
//! later. Between a drift trigger and its install the plan is distrusted
//! exactly like a [`crate::chaos::FaultEvent::PlanStale`] window: freezes
//! fall back to Unplanned, and the stale window closes the moment the
//! re-plan lands.
//!
//! The loop also accepts the chaos vocabulary, so autoscaling can be
//! drilled under failures: a [`FaultTimeline`] (via
//! [`AutoscaleLoop::faults`]) drives topology transitions mid-stream —
//! at each change point the selector's routing view is rebuilt, calls
//! hosted at a downed DC are re-homed in id order (the barrier step shared
//! with the chaos engine, [`crate::drive`]), and
//! [`crate::chaos::FaultEvent::DcDown`] /
//! [`crate::chaos::FaultEvent::PlanStale`] /
//! [`crate::chaos::FaultEvent::DemandDrift`] onsets feed the same install
//! machinery as drift triggers ([`ReplanTrigger::Fault`] /
//! [`ReplanTrigger::Stale`]). Worker deaths
//! ([`crate::ServiceFault::WorkerDeath`], via
//! [`AutoscaleLoop::service_faults`]) kill concurrent driver slots
//! mid-segment with deterministic takeover, leaving the aggregate stats
//! bit-identical to the serial oracle. Capacity/ACL accounting under
//! faults stays with [`crate::chaos::ReplayDriver`]; here the timeline
//! only shapes admission, validity, and re-planning.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use sb_core::{FreezeDecision, PlanArtifact, PlannedQuotas, SelectorStats};
use sb_forecast::{Observation, StreamingForecaster, StreamingParams};
use sb_net::Topology;
use sb_workload::generator::Generator;
use sb_workload::joins::CONFIG_FREEZE_SECONDS;
use sb_workload::CallRecord;

use crate::chaos::{FaultTimeline, ReplanRequest, ReplanTrigger};
use crate::crash::ServiceFault;
use crate::drive::{fan_out, install_schedule, ControlPlane, Step, WorkerDeaths};
use crate::replay::{EV_END, EV_FREEZE, EV_START};

/// The plan-building callback of the loop: given the request and the live
/// forecaster (for forecast-derived demand overrides), produce the artifact
/// to install — `None` skips the install and the plan stays stale.
pub type AutoscalePlanBuilder<'a> =
    Box<dyn FnMut(&ReplanRequest, &StreamingForecaster) -> Option<Arc<PlanArtifact>> + 'a>;

/// Control-loop tuning knobs.
#[derive(Clone, Debug)]
pub struct AutoscaleConfig {
    /// Minutes into the call at which the config freezes (A; 5 in the
    /// paper).
    pub freeze_minutes: u64,
    /// Minutes between a trigger and the produced plan's installation (the
    /// controller's re-plan latency).
    pub latency_min: u64,
    /// Fire a [`ReplanTrigger::Schedule`] every this many windows (`None`
    /// disables periodic re-planning; drift triggers still fire).
    pub schedule_every: Option<u64>,
    /// Streaming-forecaster parameters (season length in buckets, rolling
    /// error window, drift watermark).
    pub streaming: StreamingParams,
    /// Seed offset for the window stream (distinguishes multiple streamed
    /// replays of the same generator).
    pub seed_offset: u64,
}

impl AutoscaleConfig {
    /// Defaults for a generator whose slot width divides a week into
    /// `season_len` buckets: paper freeze offset, 15-minute re-plan
    /// latency, no schedule (pure drift-driven).
    pub fn new(season_len: usize) -> AutoscaleConfig {
        AutoscaleConfig {
            freeze_minutes: (CONFIG_FREEZE_SECONDS / 60) as u64,
            latency_min: 15,
            schedule_every: None,
            streaming: StreamingParams::new(season_len),
            seed_offset: 0,
        }
    }
}

/// Per-window loop statistics.
#[derive(Clone, Debug, PartialEq)]
pub struct AutoscaleWindow {
    /// Window index within the stream.
    pub index: u64,
    /// Absolute minute the window starts at.
    pub start_minute: u64,
    /// Calls started in the window.
    pub calls_started: u64,
    /// Calls stranded (no up DC) at start.
    pub stranded: u64,
    /// Plan-driven migrations at config freeze.
    pub plan_migrations: u64,
    /// Freezes that fell back to Unplanned because the plan was distrusted
    /// (between a drift trigger and its install).
    pub stale_freezes: u64,
    /// Plan artifacts hot-swapped in during the window.
    pub plan_installs: u64,
    /// Calls re-homed off a DC that went down mid-window.
    pub forced_migrations: u64,
    /// Realized demand (calls generated this window, all configs).
    pub demand_calls: f64,
    /// Worst peak-normalized rolling forecast RMSE across configs at this
    /// bucket close (`None` while the forecaster warms up).
    pub forecast_nrmse: Option<f64>,
    /// Whether any config's drift watermark fired at this bucket close.
    pub drift: bool,
}

/// The order-insensitive aggregate of a loop run, comparable with `==`
/// between the serial and concurrent drives (floats included — both drives
/// apply all bookkeeping on the coordinating thread in trace order, and the
/// forecaster sees the same realized-demand sequence either way).
#[derive(Clone, Debug, PartialEq)]
pub struct AutoscaleStats {
    /// Calls generated over the run.
    pub calls: u64,
    /// Calls stranded over the run.
    pub stranded: u64,
    /// Plan-driven freeze migrations.
    pub plan_migrations: u64,
    /// Stale-window freezes (plan distrusted by drift or fault staleness).
    pub stale_freezes: u64,
    /// Plan artifacts installed.
    pub plan_installs: u64,
    /// Epochs installed, in install order.
    pub installed_epochs: Vec<u64>,
    /// Installs by trigger kind, in install order.
    pub install_triggers: Vec<ReplanTrigger>,
    /// Drift triggers that opened a stale window.
    pub drift_triggers: u64,
    /// Scheduled triggers fired.
    pub schedule_triggers: u64,
    /// Fault-timeline triggers serviced (DC failures, staleness onsets).
    pub fault_triggers: u64,
    /// Calls re-homed off DCs that went down mid-stream.
    pub forced_migrations: u64,
    /// Final selector statistics.
    pub selector: SelectorStats,
    /// Completed freeze tallies per DC.
    pub per_dc_tallies: Vec<u64>,
    /// Observations absorbed by the forecaster.
    pub forecast_observed: u64,
    /// Drift events the forecaster signalled.
    pub forecast_drifts: u64,
    /// Per-window breakdown.
    pub windows: Vec<AutoscaleWindow>,
}

/// Closed-loop run results.
#[derive(Debug)]
pub struct AutoscaleReport {
    /// Calls generated over the run.
    pub calls: u64,
    /// Calls stranded over the run.
    pub stranded: u64,
    /// Plan-driven freeze migrations.
    pub plan_migrations: u64,
    /// Stale-window freezes (plan distrusted by drift or fault staleness).
    pub stale_freezes: u64,
    /// Plan artifacts installed.
    pub plan_installs: u64,
    /// Epochs installed, in install order.
    pub installed_epochs: Vec<u64>,
    /// Installs by trigger kind, in install order.
    pub install_triggers: Vec<ReplanTrigger>,
    /// Drift triggers that opened a stale window.
    pub drift_triggers: u64,
    /// Scheduled triggers fired.
    pub schedule_triggers: u64,
    /// Fault-timeline triggers serviced (DC failures, staleness onsets).
    pub fault_triggers: u64,
    /// Calls re-homed off DCs that went down mid-stream.
    pub forced_migrations: u64,
    /// Final selector statistics.
    pub selector: SelectorStats,
    /// Completed freeze tallies per DC.
    pub per_dc_tallies: Vec<u64>,
    /// Concurrent driver slots killed by [`ServiceFault::WorkerDeath`]
    /// (always 0 on the serial drive; excluded from [`AutoscaleStats`]
    /// so serial ≡ concurrent holds with deaths injected).
    pub worker_deaths: u64,
    /// Ops surviving workers took over from dead ones.
    pub takeover_ops: u64,
    /// Peak number of in-flight call records held at once — the loop's
    /// working set. Flat across weeks because windows stream through.
    pub peak_inflight: usize,
    /// The forecaster in its final state (resumable; its models are
    /// bitwise-equal to a batch fit on the realized series).
    pub forecaster: StreamingForecaster,
    /// Per-window breakdown.
    pub windows: Vec<AutoscaleWindow>,
}

impl AutoscaleReport {
    /// The comparable aggregate of this run.
    pub fn stats(&self) -> AutoscaleStats {
        AutoscaleStats {
            calls: self.calls,
            stranded: self.stranded,
            plan_migrations: self.plan_migrations,
            stale_freezes: self.stale_freezes,
            plan_installs: self.plan_installs,
            installed_epochs: self.installed_epochs.clone(),
            install_triggers: self.install_triggers.clone(),
            drift_triggers: self.drift_triggers,
            schedule_triggers: self.schedule_triggers,
            fault_triggers: self.fault_triggers,
            forced_migrations: self.forced_migrations,
            selector: self.selector.clone(),
            per_dc_tallies: self.per_dc_tallies.clone(),
            forecast_observed: self.forecaster.observed(),
            forecast_drifts: self.forecaster.drifts(),
            windows: self.windows.clone(),
        }
    }

    /// Peak-normalized forecast RMSE at the last tracked window, worst
    /// config (`None` if the forecaster never left warmup).
    pub fn final_nrmse(&self) -> Option<f64> {
        self.windows.iter().rev().find_map(|w| w.forecast_nrmse)
    }
}

/// In-flight call-record arena: slots are recycled once a call ends, so the
/// resident set is bounded by peak concurrency, not trace length.
#[derive(Default)]
struct RecordArena {
    slots: Vec<CallRecord>,
    free: Vec<usize>,
    live: usize,
    peak: usize,
}

impl RecordArena {
    fn insert(&mut self, r: CallRecord) -> usize {
        self.live += 1;
        self.peak = self.peak.max(self.live);
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
        self.live -= 1;
        self.free.push(i);
    }
}

/// Builder for a closed-loop streamed replay. Mirrors
/// [`crate::chaos::ReplayDriver`], but the trace comes from a
/// [`sb_workload::WindowStream`] instead of a materialized
/// [`sb_workload::CallRecordsDb`], and re-plans are triggered by the
/// forecaster instead of a fault timeline.
pub struct AutoscaleLoop<'a> {
    topo: &'a Topology,
    generator: &'a Generator<'a>,
    quotas: PlannedQuotas,
    cfg: AutoscaleConfig,
    start_day: u32,
    days: u32,
    threads: Option<usize>,
    builder: Option<AutoscalePlanBuilder<'a>>,
    faults: FaultTimeline,
    service_faults: Vec<ServiceFault>,
}

impl<'a> AutoscaleLoop<'a> {
    /// A loop streaming `days` days of `generator`'s workload against the
    /// epoch-0 plan seeded from `quotas`, serially, with drift detection at
    /// the generator's slot width (weekly seasonality).
    pub fn new(
        topo: &'a Topology,
        generator: &'a Generator<'a>,
        quotas: PlannedQuotas,
        days: u32,
    ) -> AutoscaleLoop<'a> {
        let season_len = generator.slots_per_day() * 7;
        AutoscaleLoop {
            topo,
            generator,
            quotas,
            cfg: AutoscaleConfig::new(season_len),
            start_day: 0,
            days,
            threads: None,
            builder: None,
            faults: FaultTimeline::new(),
            service_faults: Vec::new(),
        }
    }

    /// Replace the control-loop configuration.
    pub fn config(mut self, cfg: AutoscaleConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Start the stream at this day instead of day 0.
    pub fn start_day(mut self, day: u32) -> Self {
        self.start_day = day;
        self
    }

    /// Drive the selector with `threads` worker threads per segment instead
    /// of the serial oracle (0 is clamped to 1).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Inject a fault timeline: topology transitions (DC/link failures)
    /// apply at their change points mid-stream, calls hosted at a downed
    /// DC are re-homed, and DC-down / staleness onsets trigger re-plans
    /// through the same install machinery as drift.
    pub fn faults(mut self, timeline: FaultTimeline) -> Self {
        self.faults = timeline;
        self
    }

    /// Inject service faults ([`ServiceFault::WorkerDeath`]) into the
    /// concurrent drive. Ignored by the serial oracle, which the
    /// concurrent drive's takeover keeps bit-identical anyway.
    pub fn service_faults(mut self, faults: Vec<ServiceFault>) -> Self {
        self.service_faults = faults;
        self
    }

    /// Attach the plan builder invoked on drift/schedule triggers. Without
    /// one, triggers are still detected and counted but nothing installs
    /// (drift-opened stale windows then never close).
    pub fn planner(
        mut self,
        builder: impl FnMut(&ReplanRequest, &StreamingForecaster) -> Option<Arc<PlanArtifact>> + 'a,
    ) -> Self {
        self.builder = Some(Box::new(builder));
        self
    }

    /// Run the loop to the end of the stream and produce the report.
    pub fn run(self) -> AutoscaleReport {
        let (topo, generator, cfg, threads) = (self.topo, self.generator, self.cfg, self.threads);
        let (faults, mut builder) = (self.faults, self.builder);
        let num_configs = generator.universe().catalog.len();
        let stream = generator.window_stream(self.start_day, self.days, cfg.seed_offset);
        let num_windows = stream.num_windows();
        let t0 = stream.window_start_minute(0);
        let t1 = stream.window_start_minute(num_windows);
        let mut plane = ControlPlane::new(topo, &faults, self.quotas, builder.is_some(), t0);

        // fault-driven re-plans: DC failures and staleness onsets feed the
        // install machinery with the same re-plan latency as drift
        let fault_installs = install_schedule(
            &faults,
            true,
            true,
            &[],
            cfg.latency_min,
            t0,
            t1.saturating_sub(1),
        );
        let mut next_fi = 0usize;

        // topology change points are drain barriers, like installs
        let transitions = faults.change_points(t0, t1);
        let mut next_tr = 0usize;

        let mut forecaster = StreamingForecaster::new(cfg.streaming);
        let mut arena = RecordArena::default();
        // (minute, kind, call id, arena slot) — min-heap pops give the
        // canonical (minute, kind, id) serial order across window
        // boundaries, so calls outliving their window replay correctly
        let mut pending: BinaryHeap<Reverse<(u64, u8, u64, usize)>> = BinaryHeap::new();
        let mut deaths = WorkerDeaths::new(threads.unwrap_or(1), &self.service_faults);

        // What this loop adds to the shared control plane at run time: at
        // most one outstanding dynamic re-plan, (install minute, trigger
        // minute, kind) — further drift/schedule triggers are debounced
        // until it lands — and the drift view of plan validity: the plan is
        // distrusted between a drift trigger and the next install.
        let mut outstanding: Option<(u64, u64, ReplanTrigger)> = None;
        let mut drift_open = false;

        let mut calls = 0u64;
        let mut installed_epochs: Vec<u64> = Vec::new();
        let mut install_triggers: Vec<ReplanTrigger> = Vec::new();
        let mut drift_triggers = 0u64;
        let mut schedule_triggers = 0u64;
        let mut fault_triggers = 0u64;
        let mut windows: Vec<AutoscaleWindow> = Vec::with_capacity(num_windows as usize);

        for w in 0..num_windows {
            let batch = stream.batch(w);
            let win_end = batch.end_minute;
            let mut wstats = AutoscaleWindow {
                index: w,
                start_minute: batch.start_minute,
                calls_started: 0,
                stranded: 0,
                plan_migrations: 0,
                stale_freezes: 0,
                plan_installs: 0,
                forced_migrations: 0,
                demand_calls: 0.0,
                forecast_nrmse: None,
                drift: false,
            };

            // ingest the batch (records are (start, id)-sorted) and queue
            // each call's lifecycle events
            let counts = batch.demand_counts(num_configs);
            wstats.demand_calls = counts.iter().sum();
            calls += batch.records.len() as u64;
            for r in batch.records {
                let freeze = r.start_minute + cfg.freeze_minutes.min(r.duration_min as u64);
                let end = r.end_minute();
                let (id, start) = (r.id, r.start_minute);
                let slot = arena.insert(r);
                pending.push(Reverse((start, EV_START, id, slot)));
                pending.push(Reverse((freeze, EV_FREEZE, id, slot)));
                pending.push(Reverse((end, EV_END, id, slot)));
            }

            // drain events due this window, splitting at install barriers
            // and fault-state transitions
            loop {
                let next_dyn = outstanding.map(|(inst, _, _)| inst);
                let next_fault = fault_installs.get(next_fi).map(|&(inst, _, _)| inst);
                let next_trans = transitions.get(next_tr).copied();
                let barrier = [next_dyn, next_fault, next_trans]
                    .into_iter()
                    .flatten()
                    .min()
                    .filter(|&m| m < win_end);
                let upto = barrier.unwrap_or(win_end);
                let mut events: Vec<(u64, u8, usize)> = Vec::new();
                while let Some(&Reverse((t, kind, _, slot))) = pending.peek() {
                    if t >= upto {
                        break;
                    }
                    pending.pop();
                    events.push((t, kind, slot));
                }
                drive_and_account(
                    &plane,
                    &mut arena,
                    &events,
                    threads,
                    &mut deaths,
                    &mut wstats,
                );
                let Some(m) = barrier else { break };
                if next_trans == Some(m) {
                    next_tr += 1;
                }
                // a fault-driven re-plan due here supersedes the debounced
                // dynamic one; whichever lands closes the open drift window
                let due = if next_fault == Some(m) {
                    next_fi += 1;
                    fault_triggers += 1;
                    outstanding = None;
                    Some(fault_installs[next_fi - 1])
                } else if next_dyn == Some(m) {
                    outstanding.take()
                } else {
                    None
                };
                if due.is_some() {
                    drift_open = false;
                }
                let (installed, rehomed) =
                    plane.barrier(m, due.as_slice(), !drift_open, &mut |req| {
                        builder.as_mut().and_then(|b| b(req, &forecaster))
                    });
                for (trigger, artifact) in installed {
                    wstats.plan_installs += 1;
                    installed_epochs.push(artifact.epoch);
                    install_triggers.push(trigger);
                }
                for (_, outcome) in rehomed {
                    match outcome.dc() {
                        Some(_) => wstats.forced_migrations += 1,
                        None => wstats.stranded += 1,
                    }
                }
            }

            // bucket close: feed realized demand, refresh drift state
            let mut drift_any = false;
            let mut worst: Option<f64> = None;
            for (ci, &y) in counts.iter().enumerate() {
                match forecaster.observe(ci as u32, y) {
                    Observation::Drift { nrmse, .. } => {
                        drift_any = true;
                        worst = Some(worst.map_or(nrmse, |p: f64| p.max(nrmse)));
                    }
                    Observation::Tracked { nrmse: Some(n), .. } => {
                        worst = Some(worst.map_or(n, |p: f64| p.max(n)));
                    }
                    _ => {}
                }
            }
            wstats.forecast_nrmse = worst;
            wstats.drift = drift_any;

            if drift_any && outstanding.is_none() {
                // demand left the plan's envelope: distrust it until the
                // re-plan lands ("stale until the re-plan lands")
                outstanding = Some((win_end + cfg.latency_min, win_end, ReplanTrigger::Drift));
                drift_triggers += 1;
                drift_open = true;
                plane.trust(false);
            } else if outstanding.is_none()
                && cfg
                    .schedule_every
                    .is_some_and(|k| k > 0 && (w + 1) % k == 0)
            {
                outstanding = Some((win_end + cfg.latency_min, win_end, ReplanTrigger::Schedule));
                schedule_triggers += 1;
            }

            windows.push(wstats);
        }

        // tail: calls outliving the last window still freeze and end
        let mut tail: Vec<(u64, u8, usize)> = Vec::new();
        while let Some(Reverse((t, kind, _, slot))) = pending.pop() {
            tail.push((t, kind, slot));
        }
        if let Some(wstats) = windows.last_mut() {
            drive_and_account(&plane, &mut arena, &tail, threads, &mut deaths, wstats);
        }

        let total = |field: fn(&AutoscaleWindow) -> u64| windows.iter().map(field).sum::<u64>();
        AutoscaleReport {
            calls,
            stranded: total(|w| w.stranded),
            plan_migrations: total(|w| w.plan_migrations),
            stale_freezes: total(|w| w.stale_freezes),
            plan_installs: total(|w| w.plan_installs),
            installed_epochs,
            install_triggers,
            drift_triggers,
            schedule_triggers,
            fault_triggers,
            forced_migrations: total(|w| w.forced_migrations),
            selector: plane.selector.stats(),
            per_dc_tallies: plane.selector.per_dc_tallies(),
            worker_deaths: deaths.deaths,
            takeover_ops: deaths.takeover_ops,
            peak_inflight: arena.peak,
            forecaster,
            windows,
        }
    }
}

/// Drive one barrier-free event segment through the drive core, then apply
/// the window bookkeeping in trace order (on the coordinating thread for
/// either drive — this is what keeps the stats bit-identical).
fn drive_and_account(
    plane: &ControlPlane<'_>,
    arena: &mut RecordArena,
    events: &[(u64, u8, usize)],
    threads: Option<usize>,
    deaths: &mut WorkerDeaths,
    wstats: &mut AutoscaleWindow,
) {
    let steps = fan_out(&plane.selector, &arena.slots, events, threads, deaths);
    for (&(_, _, slot), step) in events.iter().zip(steps) {
        match step {
            Step::Started(outcome) => {
                wstats.calls_started += 1;
                if outcome.and_then(|o| o.dc()).is_none() {
                    wstats.stranded += 1;
                }
            }
            Step::Frozen { decision, .. } => {
                if decision.migrated() {
                    wstats.plan_migrations += 1;
                }
                if !plane.plan_valid && matches!(decision, FreezeDecision::Unplanned(_)) {
                    wstats.stale_freezes += 1;
                }
            }
            Step::Skipped => {}
            Step::Ended => arena.remove(slot),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::FaultEvent;
    use sb_core::{AllocationShares, PlannedQuotas};
    use sb_workload::{DemandMatrix, UniverseParams, WorkloadParams};

    fn small_params(num_configs: usize) -> WorkloadParams {
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

    /// Quotas hosting every config at every DC generously: nothing strands.
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

    #[test]
    fn streamed_loop_runs_and_feeds_forecaster() {
        let topo = sb_net::presets::apac();
        let g = Generator::new(&topo, small_params(20));
        let report = AutoscaleLoop::new(&topo, &g, open_quotas(&topo, &g, 4), 3).run();
        assert!(report.calls > 0);
        assert_eq!(report.stranded, 0);
        // 3 days × 12 windows/day, one observation per config per window
        assert_eq!(report.windows.len(), 36);
        assert_eq!(
            report.forecaster.observed(),
            36 * g.universe().catalog.len() as u64
        );
        // in-flight working set is far below the total call count
        assert!(report.peak_inflight < report.calls as usize);
    }

    #[test]
    fn serial_and_concurrent_loops_match() {
        let topo = sb_net::presets::apac();
        let g = Generator::new(&topo, small_params(20));
        let quotas = open_quotas(&topo, &g, 4);
        let serial = AutoscaleLoop::new(&topo, &g, quotas.clone(), 2).run();
        for threads in [1usize, 4] {
            let conc = AutoscaleLoop::new(&topo, &g, quotas.clone(), 2)
                .threads(threads)
                .run();
            assert_eq!(serial.stats(), conc.stats(), "threads={threads}");
        }
    }

    #[test]
    fn scheduled_replans_install_and_carry_trigger() {
        let topo = sb_net::presets::apac();
        let g = Generator::new(&topo, small_params(20));
        let quotas = open_quotas(&topo, &g, 4);
        let mut seen: Vec<(ReplanTrigger, u64)> = Vec::new();
        let mut cfg = AutoscaleConfig::new(g.slots_per_day() * 7);
        cfg.schedule_every = Some(6); // every half day
        cfg.latency_min = 15;
        let report = AutoscaleLoop::new(&topo, &g, quotas.clone(), 2)
            .config(cfg)
            .planner(|req, fc| {
                seen.push((req.trigger, req.install_minute));
                assert_eq!(req.install_minute, req.trigger_minute + 15);
                assert!(fc.num_configs() > 0);
                Some(Arc::new(
                    PlanArtifact::seed(quotas.clone()).with_epoch(req.epoch),
                ))
            })
            .run();
        // 24 windows / 6 = 4 schedule points; the last fires at the end of
        // the final window, so its install minute is past the stream and
        // only the first three land
        assert_eq!(report.schedule_triggers, 4);
        assert_eq!(report.plan_installs, 3);
        assert_eq!(seen.len(), 3);
        assert!(seen.iter().all(|&(t, _)| t == ReplanTrigger::Schedule));
        assert_eq!(report.install_triggers.len(), report.plan_installs as usize);
        assert_eq!(report.stranded, 0);
    }

    #[test]
    fn dc_down_rehomes_calls_and_fires_fault_replan() {
        let topo = sb_net::presets::apac();
        let g = Generator::new(&topo, small_params(20));
        let quotas = open_quotas(&topo, &g, 4);
        let dc = topo.dc_ids().next().unwrap();
        // down for half a day mid-stream, then back
        let timeline = FaultTimeline::new().with(FaultEvent::DcDown {
            dc,
            at: 300,
            recover_at: Some(1020),
        });
        let report = AutoscaleLoop::new(&topo, &g, quotas.clone(), 2)
            .faults(timeline.clone())
            .planner(|req, _fc| {
                Some(Arc::new(
                    PlanArtifact::seed(quotas.clone()).with_epoch(req.epoch),
                ))
            })
            .run();
        // calls hosted at the failed DC were re-homed, none stranded (the
        // other three DCs stay up with open quotas)
        assert!(report.forced_migrations > 0, "{}", report.forced_migrations);
        assert_eq!(report.stranded, 0);
        // the failure onset fed the install machinery as a Fault trigger
        assert_eq!(report.fault_triggers, 1);
        assert!(report.install_triggers.contains(&ReplanTrigger::Fault));
        assert_eq!(report.worker_deaths, 0);
        // the concurrent drive matches the serial oracle under the fault
        let conc = AutoscaleLoop::new(&topo, &g, quotas.clone(), 2)
            .faults(timeline)
            .threads(4)
            .planner(|req, _fc| {
                Some(Arc::new(
                    PlanArtifact::seed(quotas.clone()).with_epoch(req.epoch),
                ))
            })
            .run();
        assert_eq!(report.stats(), conc.stats());
    }

    /// A re-home that finds no DC up drops the call: the loop must count it
    /// as stranded (as the selector does) and never freeze it afterwards.
    #[test]
    fn calls_stranded_by_a_rehome_are_counted_and_never_frozen() {
        let topo = sb_net::presets::apac();
        let g = Generator::new(&topo, small_params(20));
        let quotas = open_quotas(&topo, &g, 4);
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
            let lp = AutoscaleLoop::new(&topo, &g, quotas.clone(), 1).faults(timeline.clone());
            match threads {
                Some(n) => lp.threads(n).run(),
                None => lp.run(),
            }
        };
        let report = run(None);
        assert!(report.stranded > 0);
        assert_eq!(report.stranded, report.selector.stranded);
        assert_eq!(
            report.stranded,
            report.windows.iter().map(|w| w.stranded).sum::<u64>()
        );
        assert_eq!(report.selector.unknown_freezes, 0);
        // every dropped call's END still reaches the selector
        assert_eq!(report.selector.unknown_ends, report.stranded);
        assert_eq!(report.stats(), run(Some(2)).stats());
    }

    #[test]
    fn worker_deaths_keep_loop_stats_serial_equal() {
        let topo = sb_net::presets::apac();
        let g = Generator::new(&topo, small_params(20));
        let quotas = open_quotas(&topo, &g, 4);
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
        assert_eq!(serial.stats(), conc.stats());
        assert!(conc.worker_deaths >= 1, "{}", conc.worker_deaths);
    }
}
