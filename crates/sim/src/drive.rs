//! The one lifecycle drive core.
//!
//! The paper's real-time selector has one call lifecycle (§5.4): the first
//! joiner arrives and the call is placed, the config freezes A minutes in
//! and the call is tallied against the plan (and may migrate), the call
//! ends. Every harness in this workspace — plain replay, the chaos engine,
//! the autoscale loop, the crash drill, the `sb-bench` load generator — is a
//! configuration of the three things this module owns:
//!
//! * [`step`] — the only `START / FREEZE / END` match, over the four-method
//!   [`Lifecycle`] handle trait, with **one liveness rule: the handle's own
//!   [`Lifecycle::current_dc`]**. A freeze is issued only for a call the
//!   handle still holds; an END is always issued (for a call that was
//!   stranded at start, or dropped by a re-home, the selector counts it as
//!   one `unknown_ends`). No driver keeps a liveness set of its own.
//! * [`fan_out`] — the only place a segment of events is partitioned and
//!   driven across worker threads: whole lifecycles are pinned to one worker
//!   by the quota pool their freeze debits ([`Driven::pool_token`]; pool-less
//!   lifecycles by call id), so per-call event order and per-pool freeze
//!   order — the only orders a quota debit is sensitive to — are kept
//!   without synchronization. It returns one [`Step`] per event, aligned
//!   with the segment, so callers do their bookkeeping in trace order on
//!   the coordinating thread (which is what keeps their floats bit-identical
//!   between the serial and the threaded drive). An injected
//!   [`ServiceFault::WorkerDeath`] cuts the dying worker's list and runs the
//!   tail through a coordinator handle with the same [`step`]; a worker that
//!   panics takes the drive down with it instead of being dropped.
//! * the control plane and accounting the chaos engine and the autoscale
//!   loop share: `install_schedule` (fault/stale/schedule trigger → install
//!   minute), `ControlPlane::barrier` (swap topology → land due installs →
//!   recompute plan validity → re-home displaced calls in id order) and
//!   `UsageDeltas` (hosting intervals → per-minute usage → peaks and
//!   violations).
//!
//! Plan swaps, topology transitions and validity flips happen *between*
//! [`fan_out`] calls: a segment is barrier-free by construction.

use std::hash::BuildHasher;
use std::sync::Arc;

use sb_core::{
    for_each_link_load, FreezeDecision, LatencyMap, PlanArtifact, PlannedQuotas, RealtimeSelector,
    SelectorOutcome, SelectorShard,
};
use sb_engine::{Admission, Engine, EngineWorker};
use sb_net::{CountryId, DcId, ProvisionedCapacity, RoutingTable, Topology};
use sb_store::BuildCallIdHasher;
use sb_workload::{CallConfig, CallRecord, ConfigId};

use crate::chaos::{ChaosState, FaultEvent, FaultTimeline, ReplanRequest, ReplanTrigger};
use crate::crash::ServiceFault;
use crate::replay::{EV_FREEZE, EV_START};

/// A per-worker handle calls are driven through.
pub trait Lifecycle {
    /// The first participant joined: place the call. `None` means the handle
    /// refused admission (an engine draining or shedding load) and never
    /// saw the call.
    fn start(&mut self, call: u64, first_joiner: CountryId) -> Option<SelectorOutcome>;
    /// DC hosting `call`, if the handle holds it — the liveness rule.
    fn current_dc(&self, call: u64) -> Option<DcId>;
    /// The call's config froze: tally it against the plan.
    fn freeze(&mut self, call: u64, config: ConfigId, start_minute: u64) -> FreezeDecision;
    /// The call ended.
    fn end(&mut self, call: u64);
}

impl Lifecycle for SelectorShard<'_> {
    fn start(&mut self, call: u64, first_joiner: CountryId) -> Option<SelectorOutcome> {
        Some(self.call_start(call, first_joiner))
    }
    fn current_dc(&self, call: u64) -> Option<DcId> {
        SelectorShard::current_dc(self, call)
    }
    fn freeze(&mut self, call: u64, config: ConfigId, start_minute: u64) -> FreezeDecision {
        self.config_frozen(call, config, start_minute)
    }
    fn end(&mut self, call: u64) {
        self.call_end(call)
    }
}

impl Lifecycle for EngineWorker<'_> {
    fn start(&mut self, call: u64, first_joiner: CountryId) -> Option<SelectorOutcome> {
        match self.admit(call, first_joiner) {
            Admission::Granted(outcome) => Some(outcome),
            Admission::Draining | Admission::Shed { .. } => None,
        }
    }
    fn current_dc(&self, call: u64) -> Option<DcId> {
        EngineWorker::current_dc(self, call)
    }
    fn freeze(&mut self, call: u64, config: ConfigId, start_minute: u64) -> FreezeDecision {
        EngineWorker::freeze(self, call, config, start_minute)
    }
    fn end(&mut self, call: u64) {
        EngineWorker::end(self, call)
    }
}

/// What a drive runs against: it hands out one [`Lifecycle`] handle per
/// worker and names the quota pool a lifecycle will debit.
pub trait Driven: Sync {
    /// The per-worker handle (flushes its batched stats when dropped).
    type Handle<'a>: Lifecycle
    where
        Self: 'a;
    /// A fresh handle reading the current plan and topology.
    fn handle(&self) -> Self::Handle<'_>;
    /// Token of the `(config, slot)` quota pool a freeze of `config` for a
    /// call started at `start_minute` debits; `None` when it is unplanned.
    fn pool_token(&self, config: ConfigId, start_minute: u64) -> Option<u64>;
}

impl Driven for RealtimeSelector {
    type Handle<'a> = SelectorShard<'a>;
    fn handle(&self) -> SelectorShard<'_> {
        self.shard()
    }
    fn pool_token(&self, config: ConfigId, start_minute: u64) -> Option<u64> {
        self.quota_pool_token(config, start_minute)
    }
}

impl Driven for Engine {
    type Handle<'a> = EngineWorker<'a>;
    fn handle(&self) -> EngineWorker<'_> {
        self.worker()
    }
    fn pool_token(&self, config: ConfigId, start_minute: u64) -> Option<u64> {
        Engine::pool_token(self, config, start_minute)
    }
}

/// What one lifecycle event did.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Step {
    /// START: the placement outcome, or `None` when admission was refused.
    Started(Option<SelectorOutcome>),
    /// FREEZE of a call the handle held at `initial`.
    Frozen {
        /// Hosting DC before the freeze.
        initial: DcId,
        /// What the selector decided.
        decision: FreezeDecision,
    },
    /// FREEZE of a call the handle does not hold (stranded at start, or
    /// dropped by a re-home): not issued, nothing counted.
    Skipped,
    /// END: always issued.
    Ended,
}

/// Drive one `(kind, record)` event of the canonical schedule
/// ([`crate::replay::build_events`]) through `handle`.
pub fn step<H: Lifecycle>(handle: &mut H, r: &CallRecord, kind: u8) -> Step {
    match kind {
        EV_START => Step::Started(handle.start(r.id, r.first_joiner)),
        EV_FREEZE => match handle.current_dc(r.id) {
            Some(initial) => Step::Frozen {
                initial,
                decision: handle.freeze(r.id, r.config, r.start_minute),
            },
            None => Step::Skipped,
        },
        _ => {
            handle.end(r.id);
            Step::Ended
        }
    }
}

/// Scheduled [`ServiceFault::WorkerDeath`]s for [`fan_out`]: `after_ops`
/// counts against a worker *slot*'s whole op stream across segments (a
/// replacement worker inherits its predecessor's counter). The default has
/// none scheduled.
#[derive(Default)]
pub struct WorkerDeaths {
    /// `(worker slot, cumulative after_ops)`, sorted by `after_ops`.
    pending: Vec<(usize, u64)>,
    /// Ops assigned to each worker slot so far (takeovers included).
    driven: Vec<u64>,
    /// Deaths that fired.
    pub deaths: u64,
    /// Orphaned ops the coordinator drove.
    pub takeover_ops: u64,
}

impl WorkerDeaths {
    /// The worker deaths among `faults`, for a drive across `threads` slots.
    pub fn new(threads: usize, faults: &[ServiceFault]) -> WorkerDeaths {
        let threads = threads.max(1);
        let mut pending: Vec<(usize, u64)> = faults
            .iter()
            .filter_map(|f| match *f {
                ServiceFault::WorkerDeath { worker, after_ops } => {
                    Some((worker % threads, after_ops))
                }
                _ => None,
            })
            .collect();
        pending.sort_by_key(|&(_, after)| after);
        WorkerDeaths {
            pending,
            driven: vec![0; threads],
            deaths: 0,
            takeover_ops: 0,
        }
    }

    /// If slot `w` dies inside this segment's `list`, consume the earliest
    /// due death, cut the list at the death point and return the tail.
    fn cut(&mut self, w: usize, list: &mut Vec<usize>) -> Option<Vec<usize>> {
        if self.pending.is_empty() {
            return None;
        }
        let (len, driven) = (list.len() as u64, self.driven[w]);
        self.driven[w] += len;
        let pos = self
            .pending
            .iter()
            .position(|&(slot, after)| slot == w && after.saturating_sub(driven) <= len)?;
        let (_, after) = self.pending.remove(pos);
        let tail = list.split_off(after.saturating_sub(driven) as usize);
        self.deaths += 1;
        self.takeover_ops += tail.len() as u64;
        Some(tail)
    }
}

/// One handle, the events at `positions` in order, each through [`step`].
fn drive_list<D: Driven>(
    target: &D,
    records: &[CallRecord],
    events: &[(u64, u8, usize)],
    positions: impl Iterator<Item = usize>,
) -> Vec<Step> {
    let mut handle = target.handle();
    positions
        .map(|pos| {
            let (_, kind, i) = events[pos];
            step(&mut handle, &records[i], kind)
        })
        .collect()
}

/// The one partition rule: each record's whole lifecycle goes to the worker
/// its quota pool hashes to (a pool-less lifecycle by call id), looked up
/// once per record. Pool tokens are multiples of the DC count on a spread
/// plan, so the key is mixed before the modulo — bare, every pool of a 4-DC
/// world lands on worker 0. Returns each worker's event positions, in trace
/// order.
fn partition<D: Driven>(
    target: &D,
    records: &[CallRecord],
    events: &[(u64, u8, usize)],
    threads: usize,
) -> Vec<Vec<usize>> {
    let mix = BuildCallIdHasher::default();
    let mut worker_of = vec![usize::MAX; records.len()];
    let mut lists: Vec<Vec<usize>> = vec![Vec::new(); threads];
    for (pos, &(_, _, i)) in events.iter().enumerate() {
        if worker_of[i] == usize::MAX {
            let r = &records[i];
            let key = target.pool_token(r.config, r.start_minute).unwrap_or(r.id);
            worker_of[i] = mix.hash_one(key) as usize % threads;
        }
        lists[worker_of[i]].push(pos);
    }
    lists
}

/// Drive one barrier-free segment of `events` (`(minute, kind, index into
/// records)`, in canonical order) against `target` and return one [`Step`]
/// per event, aligned with `events`.
///
/// `threads: None` is the serial oracle: one handle on the calling thread,
/// every event in trace order. `Some(n)` pins each record's whole lifecycle
/// to one of `n` workers (see the module docs for why that reproduces the
/// serial drive exactly) and runs them on scoped threads; `deaths` may kill
/// workers mid-list, the coordinator then drives their tails after every
/// survivor has joined — under pool pinning just another valid interleaving.
pub fn fan_out<D: Driven>(
    target: &D,
    records: &[CallRecord],
    events: &[(u64, u8, usize)],
    threads: Option<usize>,
    deaths: &mut WorkerDeaths,
) -> Vec<Step> {
    let drive =
        |positions: &[usize]| drive_list(target, records, events, positions.iter().copied());
    let Some(threads) = threads.filter(|_| !events.is_empty()) else {
        return drive_list(target, records, events, 0..events.len());
    };
    let mut lists = partition(target, records, events, threads.max(1));
    let tails: Vec<Vec<usize>> = lists
        .iter_mut()
        .enumerate()
        .filter_map(|(w, list)| deaths.cut(w, list))
        .collect();

    let done: Vec<Vec<Step>> = std::thread::scope(|s| {
        let workers: Vec<_> = lists
            .iter()
            .map(|list| (!list.is_empty()).then(|| s.spawn(|| drive(list))))
            .collect();
        let join = |w: std::thread::ScopedJoinHandle<'_, Vec<Step>>| {
            w.join().unwrap_or_else(|p| std::panic::resume_unwind(p))
        };
        workers
            .into_iter()
            .map(|w| w.map(join).unwrap_or_default())
            .collect()
    });
    let orphaned: Vec<Vec<Step>> = tails.iter().map(|tail| drive(tail)).collect();
    let mut out = vec![Step::Skipped; events.len()];
    for (list, steps) in (lists.iter().zip(done)).chain(tails.iter().zip(orphaned)) {
        for (&pos, s) in list.iter().zip(steps) {
            out[pos] = s;
        }
    }
    out
}

/// The re-plan installs a fault timeline (plus explicit `schedule` minutes)
/// asks for, as `(install minute, trigger minute, kind)` sorted by install
/// minute: one per trigger minute (a fault outranks a staleness onset, which
/// outranks a schedule entry), landing `latency` minutes after it, kept when
/// it falls in `(t0, last]`.
pub(crate) fn install_schedule(
    timeline: &FaultTimeline,
    on_dc_down: bool,
    on_stale: bool,
    schedule: &[u64],
    latency: u64,
    t0: u64,
    last: u64,
) -> Vec<(u64, u64, ReplanTrigger)> {
    let mut triggers: Vec<(u64, ReplanTrigger)> = Vec::new();
    for ev in timeline.events() {
        match *ev {
            FaultEvent::DcDown { at, .. } if on_dc_down => {
                triggers.push((at, ReplanTrigger::Fault))
            }
            FaultEvent::PlanStale { from, .. } if on_stale => {
                triggers.push((from, ReplanTrigger::Stale))
            }
            FaultEvent::DemandDrift { at, .. } if on_stale => {
                triggers.push((at, ReplanTrigger::Stale))
            }
            _ => {}
        }
    }
    triggers.extend(schedule.iter().map(|&m| (m, ReplanTrigger::Schedule)));
    // the more specific kind sorts first, so the dedup keeps it
    triggers.sort_unstable_by_key(|&(m, k)| (m, k as u8));
    triggers.dedup_by_key(|p| p.0);
    triggers
        .into_iter()
        .map(|(tr, kind)| (tr.saturating_add(latency).max(t0 + 1), tr, kind))
        .filter(|&(inst, _, _)| inst <= last)
        .collect()
}

/// What one [`ControlPlane::barrier`] did: the plans that landed (with what
/// triggered each), and the calls whose hosting DC went down, in id order,
/// with where the selector re-homed them ([`SelectorOutcome::Stranded`] =
/// dropped).
pub(crate) type Barrier = (
    Vec<(ReplanTrigger, Arc<PlanArtifact>)>,
    Vec<(u64, SelectorOutcome)>,
);

/// The selector plus the fault-driven view of the world it is driven under:
/// composed fault state, routing, latency map and plan validity, advanced
/// only at barriers.
pub(crate) struct ControlPlane<'a> {
    topo: &'a Topology,
    timeline: &'a FaultTimeline,
    /// Can a re-plan land at all (a replanner / plan builder is attached)?
    replans: bool,
    last_install: Option<u64>,
    pub(crate) selector: RealtimeSelector,
    state: ChaosState,
    pub(crate) routing: RoutingTable,
    pub(crate) latmap: LatencyMap,
    /// Is the installed plan trusted right now (what the selector was told)?
    pub(crate) plan_valid: bool,
}

impl<'a> ControlPlane<'a> {
    /// A selector on the epoch-0 plan seeded from `quotas`, under the fault
    /// state `timeline` composes at `t0`.
    pub(crate) fn new(
        topo: &'a Topology,
        timeline: &'a FaultTimeline,
        quotas: PlannedQuotas,
        replans: bool,
        t0: u64,
    ) -> ControlPlane<'a> {
        let state = timeline.state_at(topo, t0);
        let routing = RoutingTable::compute_masked(topo, state.mask.clone());
        let latmap = LatencyMap::from_routing(topo, &routing);
        let selector = RealtimeSelector::from_artifact(&latmap, &PlanArtifact::seed(quotas));
        let mut plane = ControlPlane {
            topo,
            timeline,
            replans,
            last_install: None,
            selector,
            state,
            routing,
            latmap,
            plan_valid: true,
        };
        plane.publish_topology();
        plane.trust(true);
        plane
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
    /// caller's own distrust on top (an open drift window).
    pub(crate) fn trust(&mut self, trusted: bool) {
        let landed = matches!(
            (self.state.stale_since, self.last_install),
            (Some(onset), Some(inst)) if inst >= onset
        );
        self.plan_valid = trusted && (self.state.plan_valid || (self.replans && landed));
        self.selector.set_plan_valid(self.plan_valid);
    }

    /// The barrier step at `minute`: swap in the topology of the fault state
    /// composed there, land the `due` installs (`build` turns a request into
    /// an artifact, `None` skips the install) **before** re-homing so
    /// displaced calls fall onto the fresh quota pools, recompute plan
    /// validity, then re-home every call hosted at a DC that is now down, in
    /// id order (earlier re-homes may drain plan quota).
    pub(crate) fn barrier(
        &mut self,
        minute: u64,
        due: &[(u64, u64, ReplanTrigger)],
        trusted: bool,
        build: &mut dyn FnMut(&ReplanRequest) -> Option<Arc<PlanArtifact>>,
    ) -> Barrier {
        let state = self.timeline.state_at(self.topo, minute);
        let rerouted = state.mask != self.state.mask;
        self.state = state;
        if rerouted {
            self.routing = RoutingTable::compute_masked(self.topo, self.state.mask.clone());
            self.latmap = LatencyMap::from_routing(self.topo, &self.routing);
            self.publish_topology();
        }
        let mut installed = Vec::new();
        for &(install_minute, trigger_minute, trigger) in due {
            let req = ReplanRequest {
                trigger,
                trigger_minute,
                install_minute,
                epoch: self.selector.plan_epoch() + 1,
                from_slot: self.selector.plan_slot_of_minute(install_minute),
                state: self.state.clone(),
            };
            if let Some(artifact) = build(&req) {
                self.selector.install_plan(&artifact);
                self.last_install = Some(install_minute);
                installed.push((trigger, artifact));
            }
        }
        self.trust(trusted);
        let mut rehomed = Vec::new();
        if rerouted {
            let mut displaced: Vec<u64> = self
                .state
                .mask
                .down_dcs()
                .flat_map(|dc| self.selector.calls_at(dc))
                .collect();
            displaced.sort_unstable();
            for id in displaced {
                rehomed.push((id, self.selector.rehome_call(id)));
            }
        }
        (installed, rehomed)
    }
}

/// Per-minute usage deltas of hosting intervals, integrated into peaks and
/// capacity violations — the accounting [`crate::replay()`] and the chaos
/// engine share (they differ only in the order intervals are added).
pub(crate) struct UsageDeltas {
    t0: u64,
    cores: Vec<Vec<f64>>,
    links: Vec<Vec<f64>>,
}

impl UsageDeltas {
    /// Zero usage over `horizon` minutes starting at `t0`.
    pub(crate) fn new(topo: &Topology, t0: u64, horizon: usize) -> UsageDeltas {
        UsageDeltas {
            t0,
            cores: vec![vec![0.0; topo.dcs.len()]; horizon + 1],
            links: vec![vec![0.0; topo.links.len()]; horizon + 1],
        }
    }

    /// Host one call of config `c` at `dc` over minutes `[from, to)`: its
    /// compute load at the DC, its leg traffic on the routed links.
    pub(crate) fn add(
        &mut self,
        routing: &RoutingTable,
        c: &CallConfig,
        dc: DcId,
        from: u64,
        to: u64,
    ) {
        if to <= from {
            return;
        }
        let (a, b) = ((from - self.t0) as usize, (to - self.t0) as usize);
        self.cores[a][dc.index()] += c.compute_load();
        self.cores[b][dc.index()] -= c.compute_load();
        for_each_link_load(routing, c, dc, 1.0, |l, w| {
            self.links[a][l.index()] += w;
            self.links[b][l.index()] -= w;
        });
    }

    /// Integrate minute by minute into `(peaks, violations, worst relative
    /// overshoot)`. Violations are counted against `capacity` with the
    /// per-DC cores scaled by `core_fraction(m)` (all ones when nothing is
    /// degraded); `on_minute(m, v)` sees every minute index with the
    /// violations it added.
    pub(crate) fn integrate<'f>(
        &self,
        topo: &Topology,
        capacity: Option<&ProvisionedCapacity>,
        core_fraction: impl Fn(usize) -> &'f [f64],
        mut on_minute: impl FnMut(usize, u64),
    ) -> (ProvisionedCapacity, u64, f64) {
        let mut peaks = ProvisionedCapacity::zero(topo);
        let mut cur = ProvisionedCapacity::zero(topo);
        let (mut violations, mut worst) = (0u64, 0.0f64);
        for m in 0..self.cores.len() - 1 {
            let before = violations;
            let fraction = core_fraction(m);
            let mut track = |cur: &mut f64, peak: &mut f64, delta: f64, limit: Option<f64>| {
                *cur += delta;
                *peak = peak.max(*cur);
                if let Some(limit) = limit.filter(|&l| *cur > l + 1e-9) {
                    violations += 1;
                    worst = worst.max((*cur - limit) / limit.max(1e-9));
                }
            };
            for (i, &d) in self.cores[m].iter().enumerate() {
                let limit = capacity.map(|cap| cap.cores[i] * fraction[i]);
                track(&mut cur.cores[i], &mut peaks.cores[i], d, limit);
            }
            for (i, &d) in self.links[m].iter().enumerate() {
                let limit = capacity.map(|cap| cap.gbps[i]);
                track(&mut cur.gbps[i], &mut peaks.gbps[i], d, limit);
            }
            on_minute(m, violations - before);
        }
        (peaks, violations, worst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::{build_events, EV_END};
    use crate::testkit::{all_at, record};
    use sb_core::SelectorStats;
    use sb_net::FailureScenario;

    fn latmap(topo: &Topology) -> LatencyMap {
        LatencyMap::from_routing(topo, &RoutingTable::compute(topo, FailureScenario::None))
    }

    /// A toy-world selector with `quota` planned calls per slot at Tokyo,
    /// and `n` overlapping 30-minute calls from JP.
    fn world(n: u64, quota: f64) -> (RealtimeSelector, Vec<CallRecord>) {
        let (topo, _, cfg) = crate::testkit::world();
        let quotas = all_at(cfg, topo.dc_by_name("Tokyo"), 2, quota);
        let selector = RealtimeSelector::from_artifact(&latmap(&topo), &PlanArtifact::seed(quotas));
        let jp = topo.country_by_name("JP");
        let records = (0..n).map(|id| record(id, cfg, id % 20, 30, jp)).collect();
        (selector, records)
    }

    #[test]
    fn stranded_call_skips_its_freeze_and_still_ends() {
        let (selector, records) = world(1, 4.0);
        // every DC down: the start strands and the selector never holds it
        let topo = sb_net::presets::toy_three_dc();
        selector.update_topology(&latmap(&topo), &vec![false; topo.dcs.len()]);
        let r = &records[0];
        let mut shard = selector.shard();
        let started = step(&mut shard, r, EV_START);
        assert_eq!(started, Step::Started(Some(SelectorOutcome::Stranded)));
        assert_eq!(step(&mut shard, r, EV_FREEZE), Step::Skipped);
        assert_eq!(step(&mut shard, r, EV_END), Step::Ended);
        drop(shard);
        assert_eq!(
            selector.stats(),
            SelectorStats {
                calls: 1,
                stranded: 1,
                unknown_ends: 1,
                ..SelectorStats::default()
            },
            "the skipped freeze counts nothing, the END one unknown_ends"
        );
    }

    #[test]
    fn worker_death_tail_yields_the_same_steps() {
        // quota for half the calls: decisions depend on per-pool freeze order
        let (_, records) = world(40, 10.0);
        let events = build_events(&records, 5);
        let run = |threads, deaths: &mut WorkerDeaths| {
            let (selector, _) = world(0, 10.0);
            let steps = fan_out(&selector, &records, &events, threads, deaths);
            (steps, selector.stats())
        };
        let serial = run(None, &mut WorkerDeaths::default());
        assert!(serial.1.overflow > 0, "the pool must run dry");
        assert_eq!(serial, run(Some(2), &mut WorkerDeaths::default()));
        let faults: Vec<ServiceFault> = (0..2)
            .map(|worker| ServiceFault::WorkerDeath {
                worker,
                after_ops: 7,
            })
            .collect();
        let mut deaths = WorkerDeaths::new(2, &faults);
        assert_eq!(serial, run(Some(2), &mut deaths));
        assert!(deaths.deaths >= 1 && deaths.takeover_ops > 0);
    }

    #[test]
    fn spread_plan_pools_spread_over_the_workers() {
        // 24 configs × 12 slots, every pool split evenly over APAC's four
        // DCs: each pool token is a multiple of 4
        let topo = sb_net::presets::apac();
        assert_eq!(topo.dcs.len(), 4);
        let jp = topo.country_by_name("JP");
        let (configs, slots) = (24usize, 12usize);
        let mut shares = sb_core::AllocationShares::new(slots);
        let mut demand = sb_workload::DemandMatrix::zero(configs, slots, 30, 0);
        let spread: Vec<(DcId, f64)> = topo.dc_ids().map(|dc| (dc, 0.25)).collect();
        let mut records = Vec::new();
        for c in 0..configs {
            let cfg = ConfigId(c as u32);
            for s in 0..slots {
                shares.set(cfg, s, spread.clone());
                demand.set(cfg, s, 40.0);
                let id = records.len() as u64;
                records.push(record(id, cfg, s as u64 * 30, 10, jp));
            }
        }
        let quotas = PlannedQuotas::from_plan(&shares, &demand);
        let selector = RealtimeSelector::from_artifact(&latmap(&topo), &PlanArtifact::seed(quotas));
        for r in &records {
            let token = selector.quota_pool_token(r.config, r.start_minute);
            assert_eq!(token.expect("every call is planned") % 4, 0);
        }
        let events = build_events(&records, 5);
        for threads in [2, 4] {
            let lists = partition(&selector, &records, &events, threads);
            let starts = |l: &Vec<usize>| l.iter().filter(|&&p| events[p].1 == EV_START).count();
            let busiest = lists.iter().map(starts).max().unwrap_or(0);
            assert!(
                busiest * 10 <= records.len() * 7,
                "{threads} workers: one owns {busiest} of {} lifecycles",
                records.len()
            );
        }
    }

    /// A selector whose handles panic when asked to freeze call 3.
    struct Rigged(RealtimeSelector);
    struct RiggedShard<'a>(SelectorShard<'a>);

    impl Lifecycle for RiggedShard<'_> {
        fn start(&mut self, call: u64, first_joiner: CountryId) -> Option<SelectorOutcome> {
            self.0.start(call, first_joiner)
        }
        fn current_dc(&self, call: u64) -> Option<DcId> {
            Lifecycle::current_dc(&self.0, call)
        }
        fn freeze(&mut self, call: u64, config: ConfigId, start_minute: u64) -> FreezeDecision {
            assert_ne!(call, 3, "rigged freeze");
            self.0.freeze(call, config, start_minute)
        }
        fn end(&mut self, call: u64) {
            self.0.end(call)
        }
    }

    impl Driven for Rigged {
        type Handle<'a> = RiggedShard<'a>;
        fn handle(&self) -> RiggedShard<'_> {
            RiggedShard(self.0.shard())
        }
        fn pool_token(&self, config: ConfigId, start_minute: u64) -> Option<u64> {
            self.0.quota_pool_token(config, start_minute)
        }
    }

    #[test]
    #[should_panic(expected = "rigged freeze")]
    fn a_panicking_worker_takes_the_drive_down() {
        let (selector, records) = world(8, 10.0);
        let events = build_events(&records, 5);
        fan_out(
            &Rigged(selector),
            &records,
            &events,
            Some(2),
            &mut WorkerDeaths::default(),
        );
    }
}
