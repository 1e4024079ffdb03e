//! The fault vocabulary of the control loop ([`crate::control`]).
//!
//! The static [`crate::failures::drill`] answers "does the backup capacity
//! cover the steady state *during* a failure?" — but never re-homes a call
//! mid-flight and never lets a fault recover. A [`FaultTimeline`] schedules
//! recoverable faults (`DcDown`, `LinkDown`, `LinkFlap`, `CapacityDegraded`,
//! `PlanStale`, `DemandDrift`) over absolute minutes and composes the
//! [`ChaosState`] active at any minute; a [`crate::ControlLoop`] injects it
//! into a running replay or stream:
//!
//! * at every fault transition the routing table and latency map are
//!   recomputed under the composed [`FailureMask`] and pushed into the
//!   selector ([`sb_core::RealtimeSelector::update_topology`]);
//! * in-flight calls hosted at a failed DC are re-homed down the selector's
//!   degradation ladder (plan → locality → any-reachable) and counted as
//!   *forced* migrations — distinct from the §6.4 plan migrations;
//! * `DcDown` and staleness onsets request re-plans ([`ReplanTrigger`],
//!   [`ReplanRequest`]) that land after the controller's latency.

use sb_net::{DcId, FailureMask, FailureScenario, LinkId, Topology};

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
    /// With a planner attached, the plan is stale until the re-plan lands:
    /// an install at minute ≥ `from` restores the plan rung even inside
    /// `[from, until)`; `until` remains the fallback refresh minute for runs
    /// without a planner.
    PlanStale {
        /// First stale minute (inclusive).
        from: u64,
        /// Minute the plan is refreshed (exclusive), `None` = never.
        until: Option<u64>,
    },
    /// The demand forecast the plan was built from drifts by `factor` from
    /// `at` onward. The trace itself is unchanged — what breaks is the
    /// *plan*: it is considered stale from `at` until a re-plan installs a
    /// replacement (there is no recovery minute; only a re-plan ends the
    /// drift). The active drift product is exposed to the planner via
    /// [`ChaosState::demand_factor`] so it can re-solve against the drifted
    /// forecast.
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

    /// Add an event. Panics on a flap period under one minute, a capacity
    /// fraction outside `[0, 1]`, or a drift factor that is not finite and
    /// positive.
    pub fn push(&mut self, ev: FaultEvent) {
        let valid = match ev {
            FaultEvent::LinkFlap { period_min, .. } => period_min >= 1,
            FaultEvent::CapacityDegraded { fraction, .. } => (0.0..=1.0).contains(&fraction),
            FaultEvent::DemandDrift { factor, .. } => factor.is_finite() && factor > 0.0,
            _ => true,
        };
        assert!(valid, "invalid fault event: {ev:?}");
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

    /// Minutes in `(t0, t1]` where the fault state may change, sorted and
    /// deduplicated. `t0` itself is always an implicit change point.
    pub fn change_points(&self, t0: u64, t1: u64) -> Vec<u64> {
        let mut points = Vec::new();
        for ev in &self.events {
            let (start, end) = ev.span();
            points.push(start);
            points.extend(end);
            if let FaultEvent::LinkFlap {
                at,
                until,
                period_min,
                ..
            } = *ev
            {
                points.extend((at..until).step_by(period_min as usize));
            }
        }
        points.retain(|&m| m > t0 && m <= t1);
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
        for ev in &self.events {
            let (start, end) = ev.span();
            if minute < start || end.is_some_and(|e| minute >= e) {
                continue;
            }
            match *ev {
                FaultEvent::DcDown { dc, .. } => mask.set_dc(dc, true),
                FaultEvent::LinkDown { link, .. } => mask.set_link(link, true),
                FaultEvent::LinkFlap {
                    link,
                    at,
                    period_min,
                    ..
                } => {
                    if ((minute - at) / period_min).is_multiple_of(2) {
                        mask.set_link(link, true);
                    }
                }
                FaultEvent::CapacityDegraded { dc, fraction, .. } => {
                    let f = &mut core_fraction[dc.index()];
                    *f = f.min(fraction);
                }
                FaultEvent::PlanStale { .. } | FaultEvent::DemandDrift { .. } => {
                    plan_valid = false;
                    stale_since = Some(stale_since.map_or(start, |s| s.max(start)));
                    if let FaultEvent::DemandDrift { factor, .. } = *ev {
                        demand_factor *= factor;
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

impl FaultEvent {
    /// The minutes `[start, end)` the event covers (`None`: to the end of
    /// the run). A flap is down in every other period of its span.
    fn span(&self) -> (u64, Option<u64>) {
        match *self {
            FaultEvent::DcDown { at, recover_at, .. }
            | FaultEvent::LinkDown { at, recover_at, .. }
            | FaultEvent::CapacityDegraded { at, recover_at, .. } => (at, recover_at),
            FaultEvent::LinkFlap { at, until, .. } => (at, Some(until)),
            FaultEvent::PlanStale { from, until } => (from, until),
            FaultEvent::DemandDrift { at, .. } => (at, None),
        }
    }
}

/// Why a re-plan was requested. Fault-reactive triggers (the fault
/// timeline) and proactive triggers (the streaming forecaster's drift
/// watermark, periodic schedules) flow through the same install machinery
/// of the control loop ([`crate::control`]).
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
    /// A periodic re-plan (every `schedule_every` windows).
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

/// What a planner is asked to do: produce a fresh plan for the
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_flap_toggles_state() {
        let topo = sb_net::presets::toy_three_dc();
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
}
