//! The real-time MP selector (§5.4): assign a DC the moment the first
//! participant joins (closest-DC heuristic), tally the call against the
//! precomputed allocation plan once its config freezes (A = 300 s in), and
//! migrate when the initial choice disagrees with the plan.
//!
//! The selector is the controller's hot path, so it must *degrade*, never
//! panic: when the allocation plan is missing, stale, or names a failed DC,
//! placement falls down a ladder — plan → locality-first → any-reachable-DC
//! — and every placement reports which [`SelectorRung`] served it. The
//! chaos engine (`sb-sim::chaos`) drives the same ladder mid-call via
//! [`RealtimeSelector::rehome_call`] when a hosting DC fails, and pushes
//! updated topology views in via [`RealtimeSelector::update_topology`].
//!
//! # Concurrency model
//!
//! Calls are independent between events; the only *shared* selector state is
//! the per-`(config, slot)` quota pools, the per-DC freeze tallies, and the
//! aggregate statistics. The state is therefore split for parallelism:
//!
//! * call → DC state lives in an [`sb_store::ShardedMap`] keyed by call id
//!   (the same store abstraction the §6.6 controller writes call state to);
//! * quota pools are a *dense table* of `AtomicU32` cells — one cell per
//!   `(config, slot, DC)` plan entry, resolved to a contiguous index range
//!   per `(config, slot)` pool at plan install — debited by CAS loops, so
//!   freezes never take a lock and contend only on the exact cell they race;
//! * per-DC freeze tallies are relaxed atomics;
//! * the topology view (latency map + per-DC health + closest-DC cache) is
//!   an immutable snapshot behind `RwLock<Arc<…>>`, swapped wholesale by
//!   [`RealtimeSelector::update_topology`]; the quota table is swapped the
//!   same way by [`RealtimeSelector::install_plan`];
//! * aggregate [`SelectorStats`] accumulate in per-field atomics that worker
//!   threads never touch per-event: workers drive a [`SelectorShard`], which
//!   batches stats locally and merges the whole delta on
//!   [`SelectorShard::flush`] (or drop).
//!
//! All public methods take `&self` and are safe to call from any thread. A
//! serial driver calling the methods in trace order remains the correctness
//! oracle: `sb-sim`'s `replay_concurrent` reproduces its aggregate results
//! exactly by keeping each quota pool's freeze sequence in trace order (see
//! that module for the equivalence argument).

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use sb_net::{CountryId, DcId};
use sb_store::ShardedMap;
use sb_workload::{ConfigId, DemandMatrix};

use crate::latency::LatencyMap;
use crate::metrics::SELECTOR_SHARD_METRICS;
use crate::shares::AllocationShares;

/// Integer per-DC call quotas per `(config, slot)`, derived from the
/// fractional allocation plan by largest-remainder rounding.
#[derive(Clone, Debug, PartialEq)]
pub struct PlannedQuotas {
    slot_minutes: u32,
    start_minute: u64,
    num_slots: usize,
    quotas: HashMap<(ConfigId, usize), Vec<(DcId, u32)>>,
}

impl PlannedQuotas {
    /// Round `share × demand` into integer slots that sum to the rounded
    /// demand (largest-remainder method).
    pub fn from_plan(shares: &AllocationShares, demand: &DemandMatrix) -> PlannedQuotas {
        let mut quotas = HashMap::new();
        for (cfg, slot, fracs) in shares.iter() {
            let d = demand.get(cfg, slot).round() as u32;
            if d == 0 {
                continue;
            }
            let targets: Vec<(DcId, f64)> =
                fracs.iter().map(|&(dc, f)| (dc, f * d as f64)).collect();
            let mut counts: Vec<(DcId, u32)> = targets
                .iter()
                .map(|&(dc, t)| (dc, t.floor() as u32))
                .collect();
            let assigned: u32 = counts.iter().map(|&(_, n)| n).sum();
            let mut remainders: Vec<(usize, f64)> = targets
                .iter()
                .enumerate()
                .map(|(i, &(_, t))| (i, t - t.floor()))
                .collect();
            remainders.sort_by(|a, b| b.1.total_cmp(&a.1));
            let total_target: f64 = targets.iter().map(|&(_, t)| t).sum();
            let want = total_target.round() as u32;
            for k in 0..(want.saturating_sub(assigned)) as usize {
                let idx = remainders[k % remainders.len()].0;
                counts[idx].1 += 1;
            }
            quotas.insert((cfg, slot), counts);
        }
        PlannedQuotas {
            slot_minutes: demand.slot_minutes,
            start_minute: demand.start_minute,
            num_slots: demand.num_slots(),
            quotas,
        }
    }

    /// Rebuild quotas from explicit parts (plan reload from a persisted
    /// artifact). Entry order within each `(config, slot)` vector is
    /// preserved — it is part of the selector's tie-breaking behavior.
    pub fn from_parts(
        slot_minutes: u32,
        start_minute: u64,
        num_slots: usize,
        quotas: HashMap<(ConfigId, usize), Vec<(DcId, u32)>>,
    ) -> PlannedQuotas {
        PlannedQuotas {
            slot_minutes,
            start_minute,
            num_slots,
            quotas,
        }
    }

    /// Slot containing an absolute minute, if within the plan horizon.
    pub fn slot_of_minute(&self, minute: u64) -> Option<usize> {
        if minute < self.start_minute {
            return None;
        }
        let s = ((minute - self.start_minute) / self.slot_minutes as u64) as usize;
        (s < self.num_slots).then_some(s)
    }

    /// Total planned calls for a `(config, slot)`.
    pub fn total(&self, cfg: ConfigId, slot: usize) -> u32 {
        self.quotas
            .get(&(cfg, slot))
            .map(|v| v.iter().map(|&(_, n)| n).sum())
            .unwrap_or(0)
    }

    /// Per-DC quota entries for a `(config, slot)`, in plan order.
    pub fn get(&self, cfg: ConfigId, slot: usize) -> &[(DcId, u32)] {
        self.quotas
            .get(&(cfg, slot))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// All `(config, slot)` pools with their per-DC quota entries.
    pub fn iter(&self) -> impl Iterator<Item = ((ConfigId, usize), &[(DcId, u32)])> + '_ {
        self.quotas.iter().map(|(&k, v)| (k, v.as_slice()))
    }

    /// Slot width in minutes.
    pub fn slot_minutes(&self) -> u32 {
        self.slot_minutes
    }

    /// Absolute minute at which slot 0 starts.
    pub fn start_minute(&self) -> u64 {
        self.start_minute
    }

    /// Number of slots in the plan horizon.
    pub fn num_slots(&self) -> usize {
        self.num_slots
    }

    /// Total planned quota summed over every pool.
    pub fn total_quota(&self) -> u64 {
        self.quotas
            .values()
            .flat_map(|v| v.iter().map(|&(_, n)| n as u64))
            .sum()
    }
}

/// What happened when a call's config froze.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum FreezeDecision {
    /// Initial DC agreed with the plan (or had quota): no migration.
    Stay(DcId),
    /// Plan required a different DC: the call migrates.
    Migrate {
        /// Initial DC.
        from: DcId,
        /// Plan-mandated DC.
        to: DcId,
    },
    /// Config was not in the plan (unanticipated config, §5.4(b) last ¶),
    /// or the plan was missing/stale: the call stays at its current DC.
    Unplanned(DcId),
    /// Planned quotas for this (config, slot) were exhausted everywhere
    /// (or only at failed DCs): the call stays put, served from headroom.
    Overflow(DcId),
    /// The call's config already froze earlier: the duplicate event is a
    /// counted no-op (no second quota debit, no second tally) and the call
    /// stays where it is.
    AlreadyFrozen(DcId),
    /// `call_id` was never started (or already ended). Freezing an unknown
    /// call is a protocol anomaly; it is counted and ignored rather than
    /// crashing the controller.
    UnknownCall,
}

impl FreezeDecision {
    /// The DC the call is hosted at after the decision; `None` for
    /// [`FreezeDecision::UnknownCall`].
    pub fn final_dc(self) -> Option<DcId> {
        match self {
            FreezeDecision::Stay(d)
            | FreezeDecision::Unplanned(d)
            | FreezeDecision::Overflow(d)
            | FreezeDecision::AlreadyFrozen(d) => Some(d),
            FreezeDecision::Migrate { to, .. } => Some(to),
            FreezeDecision::UnknownCall => None,
        }
    }

    /// Did the call migrate?
    pub fn migrated(self) -> bool {
        matches!(self, FreezeDecision::Migrate { .. })
    }
}

/// Which rung of the degradation ladder served a placement
/// (plan → locality-first → any-reachable-DC).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SelectorRung {
    /// The allocation plan named the DC (only reachable on re-homes, where
    /// the frozen config is known).
    Plan,
    /// Closest reachable DC for the relevant country (the §5.4(a) heuristic;
    /// the normal rung for call starts).
    Locality,
    /// No latency estimate for the country — any DC that is still up.
    AnyReachable,
}

/// Typed outcome of a placement attempt (call start or forced re-home).
/// Never panics: when no DC can host the call, the outcome is
/// [`SelectorOutcome::Stranded`], not a crash.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SelectorOutcome {
    /// The call is hosted at `dc`, served by ladder rung `rung`.
    Placed {
        /// Hosting DC.
        dc: DcId,
        /// Ladder rung that produced the placement.
        rung: SelectorRung,
    },
    /// No reachable DC is up: the call cannot be hosted.
    Stranded,
}

impl SelectorOutcome {
    /// Hosting DC, if placed.
    pub fn dc(self) -> Option<DcId> {
        match self {
            SelectorOutcome::Placed { dc, .. } => Some(dc),
            SelectorOutcome::Stranded => None,
        }
    }

    /// Did the placement fail?
    pub fn is_stranded(self) -> bool {
        matches!(self, SelectorOutcome::Stranded)
    }
}

/// Aggregate selector statistics. Order-insensitive by construction: every
/// field is a count, so merging per-shard deltas in any order produces the
/// same totals as a serial run over the same events.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SelectorStats {
    /// Calls started.
    pub calls: u64,
    /// Config-freeze events that completed a tally (known call, first
    /// freeze): every one of these contributed to the per-DC tallies.
    pub freezes: u64,
    /// Calls migrated at config freeze (§6.4 metric, plan-driven).
    pub migrations: u64,
    /// Calls with a config absent from the plan.
    pub unplanned: u64,
    /// Calls whose planned quotas were exhausted.
    pub overflow: u64,
    /// Placements that found no up DC at all.
    pub stranded: u64,
    /// Mid-call re-homes forced by a failure (distinct from plan
    /// migrations — see `migrations`).
    pub forced_migrations: u64,
    /// Forced re-homes that the plan rung absorbed (quota at an up DC).
    pub rehomed_plan: u64,
    /// Placements that fell through to the any-reachable rung.
    pub degraded_any: u64,
    /// Freezes handled while the plan was marked stale/invalid.
    pub plan_stale: u64,
    /// Duplicate freeze events for already-frozen calls (counted no-ops).
    pub duplicate_freezes: u64,
    /// Freeze events for unknown call ids (counted no-ops).
    pub unknown_freezes: u64,
    /// End events for unknown call ids (counted no-ops).
    pub unknown_ends: u64,
    /// Re-home requests for unknown call ids (counted no-ops).
    pub unknown_rehomes: u64,
}

impl SelectorStats {
    /// Plan-migration rate over all started calls.
    pub fn migration_rate(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.migrations as f64 / self.calls as f64
        }
    }

    /// Add `other`'s counts into `self` (shard merge).
    pub fn merge(&mut self, other: &SelectorStats) {
        self.calls += other.calls;
        self.freezes += other.freezes;
        self.migrations += other.migrations;
        self.unplanned += other.unplanned;
        self.overflow += other.overflow;
        self.stranded += other.stranded;
        self.forced_migrations += other.forced_migrations;
        self.rehomed_plan += other.rehomed_plan;
        self.degraded_any += other.degraded_any;
        self.plan_stale += other.plan_stale;
        self.duplicate_freezes += other.duplicate_freezes;
        self.unknown_freezes += other.unknown_freezes;
        self.unknown_ends += other.unknown_ends;
        self.unknown_rehomes += other.unknown_rehomes;
    }
}

/// Shared stats sink: one relaxed `AtomicU64` per [`SelectorStats`] field,
/// so merging a shard's batched delta is a handful of `fetch_add`s instead
/// of a global mutex. Counts are order-insensitive, so any merge
/// interleaving yields the serial totals.
#[derive(Default)]
struct StatsSink {
    calls: AtomicU64,
    freezes: AtomicU64,
    migrations: AtomicU64,
    unplanned: AtomicU64,
    overflow: AtomicU64,
    stranded: AtomicU64,
    forced_migrations: AtomicU64,
    rehomed_plan: AtomicU64,
    degraded_any: AtomicU64,
    plan_stale: AtomicU64,
    duplicate_freezes: AtomicU64,
    unknown_freezes: AtomicU64,
    unknown_ends: AtomicU64,
    unknown_rehomes: AtomicU64,
}

impl StatsSink {
    /// Add a batched delta; zero fields skip the atomic entirely.
    fn merge(&self, d: &SelectorStats) {
        fn add(sink: &AtomicU64, v: u64) {
            if v != 0 {
                sink.fetch_add(v, Ordering::Relaxed);
            }
        }
        add(&self.calls, d.calls);
        add(&self.freezes, d.freezes);
        add(&self.migrations, d.migrations);
        add(&self.unplanned, d.unplanned);
        add(&self.overflow, d.overflow);
        add(&self.stranded, d.stranded);
        add(&self.forced_migrations, d.forced_migrations);
        add(&self.rehomed_plan, d.rehomed_plan);
        add(&self.degraded_any, d.degraded_any);
        add(&self.plan_stale, d.plan_stale);
        add(&self.duplicate_freezes, d.duplicate_freezes);
        add(&self.unknown_freezes, d.unknown_freezes);
        add(&self.unknown_ends, d.unknown_ends);
        add(&self.unknown_rehomes, d.unknown_rehomes);
    }

    fn snapshot(&self) -> SelectorStats {
        SelectorStats {
            calls: self.calls.load(Ordering::Relaxed),
            freezes: self.freezes.load(Ordering::Relaxed),
            migrations: self.migrations.load(Ordering::Relaxed),
            unplanned: self.unplanned.load(Ordering::Relaxed),
            overflow: self.overflow.load(Ordering::Relaxed),
            stranded: self.stranded.load(Ordering::Relaxed),
            forced_migrations: self.forced_migrations.load(Ordering::Relaxed),
            rehomed_plan: self.rehomed_plan.load(Ordering::Relaxed),
            degraded_any: self.degraded_any.load(Ordering::Relaxed),
            plan_stale: self.plan_stale.load(Ordering::Relaxed),
            duplicate_freezes: self.duplicate_freezes.load(Ordering::Relaxed),
            unknown_freezes: self.unknown_freezes.load(Ordering::Relaxed),
            unknown_ends: self.unknown_ends.load(Ordering::Relaxed),
            unknown_rehomes: self.unknown_rehomes.load(Ordering::Relaxed),
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct ActiveCall {
    dc: DcId,
    country: CountryId,
    /// `(config, slot)` recorded at freeze so a later forced re-home can
    /// try the plan rung first.
    frozen: Option<(ConfigId, usize)>,
}

/// One immutable topology snapshot: latency map, per-DC health, and the
/// derived closest-up-DC cache. Swapped wholesale on topology updates so
/// readers never observe a half-applied fault.
#[derive(Debug)]
struct TopologyView {
    dc_up: Vec<bool>,
    closest: Vec<Option<DcId>>,
}

impl TopologyView {
    fn build(latmap: &LatencyMap, dc_up: &[bool]) -> TopologyView {
        let closest = (0..latmap.num_countries())
            .map(|c| {
                latmap
                    .closest_dc_where(CountryId(c as u16), |dc| dc_up[dc.index()])
                    .map(|(dc, _)| dc)
            })
            .collect();
        TopologyView {
            dc_up: dc_up.to_vec(),
            closest,
        }
    }

    /// Locality-first → any-reachable placement for `country`.
    fn place(&self, country: CountryId) -> SelectorOutcome {
        if let Some(dc) = self.closest[country.index()] {
            return SelectorOutcome::Placed {
                dc,
                rung: SelectorRung::Locality,
            };
        }
        // no latency estimate reaches this country; last rung is any up DC
        if let Some(i) = self.dc_up.iter().position(|&up| up) {
            return SelectorOutcome::Placed {
                dc: DcId(i as u16),
                rung: SelectorRung::AnyReachable,
            };
        }
        SelectorOutcome::Stranded
    }
}

/// Shards of the active call → DC map.
const CALL_SHARDS: usize = 64;

/// Contiguous cell range of one `(config, slot)` pool inside a
/// [`QuotaTable`]. `start` doubles as the pool's stable token for
/// [`RealtimeSelector::quota_pool_token`] — unique per pool within an epoch.
#[derive(Clone, Copy, Debug)]
struct PoolRange {
    start: u32,
    len: u32,
}

/// One plan epoch's quota pools, flattened to dense parallel arrays: cell
/// `i` is one `(config, slot, DC)` plan entry, and a `(config, slot)` pool
/// is the contiguous range `index[(cfg, slot)]`, in plan-entry order (order
/// is tie-breaking-relevant). `remaining` is debited by CAS loops on the
/// freeze hot path; `consumed` counts the debits recognized in *this* epoch
/// and is what [`RealtimeSelector::install_plan`] carries across a swap so a
/// freeze is never double-counted and exhausted quota never resurrected.
///
/// The table is immutable in shape: plan swaps build a fresh table and swap
/// the `Arc` wholesale (same discipline as `TopologyView`).
#[derive(Debug)]
struct QuotaTable {
    geom: PlanGeom,
    index: HashMap<(ConfigId, usize), PoolRange>,
    dcs: Vec<DcId>,
    remaining: Vec<AtomicU32>,
    consumed: Vec<AtomicU32>,
}

/// A freshly built [`QuotaTable`] plus the carry-over accounting
/// [`PlanSwapStats`] reports.
struct TableBuild {
    table: QuotaTable,
    carried: u64,
    quota_initial: u64,
    quota_after: u64,
}

impl QuotaTable {
    /// Flatten `quotas` into dense cells, carrying `consumed` tallies from
    /// `prev` (the table being replaced) per the
    /// [`RealtimeSelector::install_plan`] swap semantics.
    fn build(epoch: u64, quotas: &PlannedQuotas, prev: Option<&QuotaTable>) -> TableBuild {
        let mut index = HashMap::new();
        let mut dcs: Vec<DcId> = Vec::new();
        let mut remaining = Vec::new();
        let mut consumed = Vec::new();
        let (mut carried, mut quota_initial, mut quota_after) = (0u64, 0u64, 0u64);
        for (key, counts) in quotas.iter() {
            let start = dcs.len() as u32;
            let prev_pool = prev.and_then(|t| Some((t, t.range(key.0, key.1)?)));
            for &(dc, q) in counts {
                // first old entry for this DC in the same pool, as the
                // striped-map swap did with `iter().find(|e| e.dc == dc)`
                let was = prev_pool
                    .as_ref()
                    .and_then(|(t, r)| {
                        r.clone()
                            .find(|&i| t.dcs[i] == dc)
                            .map(|i| t.consumed[i].load(Ordering::Relaxed))
                    })
                    .unwrap_or(0);
                let recognized = was.min(q);
                carried += recognized as u64;
                quota_initial += q as u64;
                quota_after += (q - recognized) as u64;
                dcs.push(dc);
                remaining.push(AtomicU32::new(q - recognized));
                consumed.push(AtomicU32::new(was));
            }
            let len = dcs.len() as u32 - start;
            index.insert(key, PoolRange { start, len });
        }
        TableBuild {
            table: QuotaTable {
                geom: PlanGeom::of(epoch, quotas),
                index,
                dcs,
                remaining,
                consumed,
            },
            carried,
            quota_initial,
            quota_after,
        }
    }

    /// Cell range of a `(config, slot)` pool, if planned.
    fn range(&self, cfg: ConfigId, slot: usize) -> Option<Range<usize>> {
        self.index
            .get(&(cfg, slot))
            .map(|p| p.start as usize..(p.start + p.len) as usize)
    }

    /// CAS-debit one unit from cell `i`; `false` when the cell is exhausted.
    /// A successful debit also bumps the cell's `consumed` tally.
    fn try_debit(&self, i: usize) -> bool {
        let won = self.remaining[i]
            .fetch_update(Ordering::AcqRel, Ordering::Relaxed, |v| v.checked_sub(1))
            .is_ok();
        if won {
            self.consumed[i].fetch_add(1, Ordering::Relaxed);
        }
        won
    }

    /// Quota not yet debited, summed over every cell.
    fn remaining_total(&self) -> u64 {
        self.remaining
            .iter()
            .map(|r| r.load(Ordering::Relaxed) as u64)
            .sum()
    }
}

/// Plan geometry + version, swapped atomically alongside the quota pools by
/// [`RealtimeSelector::install_plan`] (the same snapshot-swap discipline as
/// `TopologyView`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PlanGeom {
    epoch: u64,
    slot_minutes: u32,
    start_minute: u64,
    num_slots: usize,
}

impl PlanGeom {
    fn of(epoch: u64, q: &PlannedQuotas) -> PlanGeom {
        PlanGeom {
            epoch,
            slot_minutes: q.slot_minutes,
            start_minute: q.start_minute,
            num_slots: q.num_slots,
        }
    }

    fn slot_of_minute(&self, minute: u64) -> Option<usize> {
        if minute < self.start_minute {
            return None;
        }
        let s = ((minute - self.start_minute) / self.slot_minutes as u64) as usize;
        (s < self.num_slots).then_some(s)
    }
}

/// What a [`RealtimeSelector::install_plan`] swap did: epochs involved,
/// quota carried over, and totals before/after. `carried_consumed` is the
/// sum of already-debited freezes recognized by the new plan (capped at the
/// new per-entry quota, so over-consumption never resurrects quota).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanSwapStats {
    /// Epoch that was live before the swap.
    pub from_epoch: u64,
    /// Epoch now live.
    pub to_epoch: u64,
    /// Consumed-quota tallies carried into the new plan (Σ min(consumed,
    /// new quota) over surviving entries).
    pub carried_consumed: u64,
    /// Remaining (un-debited) quota before the swap.
    pub quota_before: u64,
    /// Remaining quota after the swap.
    pub quota_after: u64,
    /// `(config, slot)` pools in the new plan.
    pub pools: usize,
}

/// One active call, exported for a recovery cross-check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CallExport {
    /// Call id.
    pub id: u64,
    /// DC currently hosting the call.
    pub dc: DcId,
    /// First joiner's country (drives the locality rung).
    pub country: CountryId,
    /// `(config, slot)` recorded at freeze, if the call has frozen.
    pub frozen: Option<(ConfigId, usize)>,
}

/// One quota cell (a `(config, slot, DC)` plan entry), exported for a
/// recovery cross-check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuotaCellExport {
    /// Config the cell belongs to.
    pub config: ConfigId,
    /// Plan slot the cell belongs to.
    pub slot: usize,
    /// DC the quota is granted at.
    pub dc: DcId,
    /// Quota not yet debited.
    pub remaining: u32,
    /// Debits recognized in this epoch.
    pub consumed: u32,
}

/// A deterministic snapshot of everything a crash-recovery path must
/// rebuild: plan epoch/validity, the live call map, every quota cell's
/// debit state, per-DC tallies, and aggregate stats. Two selectors that
/// compare equal here are behaviorally indistinguishable to every future
/// operation — the recovery differential's definition of "bitwise
/// identical".
#[derive(Clone, Debug, PartialEq)]
pub struct SelectorStateExport {
    /// Epoch of the installed plan.
    pub plan_epoch: u64,
    /// Whether the plan is currently trusted.
    pub plan_valid: bool,
    /// Active calls, sorted by id.
    pub calls: Vec<CallExport>,
    /// Quota cells, sorted by `(config, slot)` pool; cell order within a
    /// pool preserved (it is tie-breaking-relevant).
    pub cells: Vec<QuotaCellExport>,
    /// Completed freeze tallies per DC.
    pub per_dc_tallies: Vec<u64>,
    /// Aggregate selector statistics.
    pub stats: SelectorStats,
}

/// How [`RealtimeSelector::restore_debit`] should re-apply a recovered
/// decision's quota debit at its DC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RestoreDebit {
    /// No quota was debited (unplanned / overflow / stale-plan freezes).
    None,
    /// Debit the DC's first cell with quota left, in plan-entry order — the
    /// [`FreezeDecision::Stay`] debit rule.
    FirstOf,
    /// Debit the DC's max-remaining cell, later ties winning — the
    /// [`FreezeDecision::Migrate`] and plan-rung re-home debit rule,
    /// restricted to the recorded winner's DC (the global maximum lived
    /// there, so the restriction picks the same cell).
    BestOf,
}

/// The real-time selector state machine.
///
/// Owns its topology view (latency map + per-DC health) so the chaos engine
/// can swap it mid-replay as faults hit and recover. All methods take
/// `&self` and are thread-safe; see the module docs for the sharding model
/// and [`RealtimeSelector::shard`] for the batched-stats worker handle.
pub struct RealtimeSelector {
    topo: RwLock<Arc<TopologyView>>,
    plan_valid: AtomicBool,
    plan: RwLock<Arc<QuotaTable>>,
    quota_initial: AtomicU64,
    active: ShardedMap<u64, ActiveCall>,
    dc_tally: Vec<AtomicU64>,
    stats: StatsSink,
    shard_seq: AtomicUsize,
}

impl RealtimeSelector {
    /// Build a selector from a plan artifact: the boot plan is the same
    /// first-class [`PlanArtifact`] that [`RealtimeSelector::install_plan`]
    /// swaps in later, so the epoch-0 state needs no special case. All DCs
    /// start healthy and the plan starts valid, at the artifact's epoch.
    ///
    /// [`PlanArtifact`]: crate::plan::PlanArtifact
    pub fn from_artifact(
        latmap: &LatencyMap,
        artifact: &crate::plan::PlanArtifact,
    ) -> RealtimeSelector {
        Self::from_quotas(latmap, artifact.epoch, &artifact.quotas)
    }

    fn from_quotas(latmap: &LatencyMap, epoch: u64, quotas: &PlannedQuotas) -> RealtimeSelector {
        let dc_up = vec![true; latmap.num_dcs()];
        let view = TopologyView::build(latmap, &dc_up);
        let built = QuotaTable::build(epoch, quotas, None);
        RealtimeSelector {
            topo: RwLock::new(Arc::new(view)),
            plan_valid: AtomicBool::new(true),
            plan: RwLock::new(Arc::new(built.table)),
            quota_initial: AtomicU64::new(built.quota_initial),
            active: ShardedMap::new(CALL_SHARDS),
            dc_tally: (0..latmap.num_dcs()).map(|_| AtomicU64::new(0)).collect(),
            stats: StatsSink::default(),
            shard_seq: AtomicUsize::new(0),
        }
    }

    /// Atomically swap in a new allocation plan, carrying already-consumed
    /// quota tallies into the new pools.
    ///
    /// Swap semantics, for each `(config, slot, dc)` entry of the new plan:
    ///
    /// * `consumed` freezes already debited in the old plan stay debited —
    ///   the entry starts with `remaining = new_quota - min(consumed,
    ///   new_quota)`, so a freeze is never double-counted and shrinking a
    ///   quota below what was already used cannot go negative;
    /// * consumption beyond the new quota is remembered in full, so a later
    ///   plan that re-grows the quota does not resurrect spent capacity;
    /// * pools absent from the new plan are dropped outright (their quota is
    ///   not resurrected elsewhere).
    ///
    /// Installing a byte-identical artifact is a behavioral no-op: every
    /// entry rebuilds to exactly its pre-swap state, in the same order (entry
    /// order is tie-breaking-relevant).
    ///
    /// The swap follows the same discipline as
    /// [`RealtimeSelector::update_topology`]: concurrent drivers must only
    /// call it at a window barrier with no in-flight shard operations. It
    /// also marks the plan valid — installing a plan is what ends a
    /// stale-plan window.
    pub fn install_plan(&self, artifact: &crate::plan::PlanArtifact) -> PlanSwapStats {
        let m = crate::metrics::plan_metrics();
        let _t = m.swap_ns.start_timer();
        // Build the new table from the old one's consumed tallies (barrier
        // contract: no concurrent freeze can race this), then swap the Arc.
        let old = self.table();
        let from_epoch = old.geom.epoch;
        let quota_before = old.remaining_total();
        let built = QuotaTable::build(artifact.epoch, &artifact.quotas, Some(&old));
        let pools_n = built.table.index.len();
        self.quota_initial
            .store(built.quota_initial, Ordering::Relaxed);
        *self.plan.write() = Arc::new(built.table);
        self.plan_valid.store(true, Ordering::Relaxed);
        m.epochs_installed.inc();
        m.carryover_quota.add(built.carried);
        PlanSwapStats {
            from_epoch,
            to_epoch: artifact.epoch,
            carried_consumed: built.carried,
            quota_before,
            quota_after: built.quota_after,
            pools: pools_n,
        }
    }

    /// Epoch of the currently installed plan (the boot artifact's epoch
    /// until the first [`RealtimeSelector::install_plan`]).
    pub fn plan_epoch(&self) -> u64 {
        self.table().geom.epoch
    }

    fn topo_view(&self) -> Arc<TopologyView> {
        self.topo.read().clone()
    }

    fn table(&self) -> Arc<QuotaTable> {
        self.plan.read().clone()
    }

    /// Swap in a new topology view (latency map + per-DC health), e.g. after
    /// a fault or a recovery. Existing placements are untouched; call
    /// [`rehome_call`] for calls hosted at DCs that just went down.
    ///
    /// Concurrent drivers must only call this at a window barrier (no
    /// in-flight shard ops): live [`SelectorShard`]s keep serving their
    /// cached snapshot until [`SelectorShard::refresh_topology`].
    ///
    /// [`rehome_call`]: RealtimeSelector::rehome_call
    pub fn update_topology(&self, latmap: &LatencyMap, dc_up: &[bool]) {
        debug_assert_eq!(latmap.num_dcs(), dc_up.len());
        *self.topo.write() = Arc::new(TopologyView::build(latmap, dc_up));
    }

    /// Mark the allocation plan stale (`false`) or valid again (`true`). A
    /// stale plan takes the plan rung out of the ladder: freezes degrade to
    /// [`FreezeDecision::Unplanned`] instead of consulting quotas.
    pub fn set_plan_valid(&self, valid: bool) {
        self.plan_valid.store(valid, Ordering::Relaxed);
    }

    /// Is the plan currently trusted?
    pub fn plan_valid(&self) -> bool {
        self.plan_valid.load(Ordering::Relaxed)
    }

    /// Is `dc` currently considered up?
    pub fn dc_up(&self, dc: DcId) -> bool {
        self.topo.read().dc_up[dc.index()]
    }

    /// Slot of the quota plan containing `minute` (replay drivers use this
    /// to group freeze events by the quota pool they will debit).
    pub fn plan_slot_of_minute(&self, minute: u64) -> Option<usize> {
        self.table().geom.slot_of_minute(minute)
    }

    /// Stable token of the quota pool a freeze for `(cfg, call_start_minute)`
    /// would debit under the current plan, or `None` when such a freeze
    /// resolves without touching quota (no slot for the minute, or the pool
    /// is absent from the plan → [`FreezeDecision::Unplanned`]).
    ///
    /// Concurrent drivers partition call lifecycles by this token so every
    /// pool's freeze sequence is driven by one worker in trace order — the
    /// serial-equivalence requirement — without any cross-worker barrier.
    /// Tokens are only comparable within one plan epoch; re-resolve after
    /// [`RealtimeSelector::install_plan`].
    pub fn quota_pool_token(&self, cfg: ConfigId, call_start_minute: u64) -> Option<u64> {
        let t = self.table();
        let slot = t.geom.slot_of_minute(call_start_minute)?;
        t.index.get(&(cfg, slot)).map(|p| p.start as u64)
    }

    /// Total planned quota across all pools of the current plan epoch.
    pub fn quota_initial_total(&self) -> u64 {
        self.quota_initial.load(Ordering::Relaxed)
    }

    /// Quota not yet debited, summed across all pools.
    pub fn quota_remaining_total(&self) -> u64 {
        self.table().remaining_total()
    }

    /// Freezes debited against the current plan epoch and recognized by it
    /// (Σ min(consumed, quota) per entry): equals `quota_initial_total() -
    /// quota_remaining_total()` at all times.
    pub fn quota_consumed_total(&self) -> u64 {
        self.quota_initial_total() - self.quota_remaining_total()
    }

    /// Completed config-freeze tallies per DC (index = DC id): how many
    /// calls finalized at each DC. `sum(per_dc_tallies) == stats().freezes`
    /// under any interleaving — the invariant the concurrent property tests
    /// pin down.
    pub fn per_dc_tallies(&self) -> Vec<u64> {
        self.dc_tally
            .iter()
            .map(|t| t.load(Ordering::Relaxed))
            .collect()
    }

    /// Best live candidate cell of `pool` that passes `keep`: maximum
    /// `remaining`, later cells winning ties (exactly `max_by_key` over the
    /// old striped entries, whose `max` kept the *last* maximum).
    fn best_cell(
        table: &QuotaTable,
        topo: &TopologyView,
        pool: Range<usize>,
        keep: impl Fn(DcId) -> bool,
    ) -> Option<(usize, u32)> {
        let mut best: Option<(usize, u32)> = None;
        for i in pool {
            let dc = table.dcs[i];
            if !topo.dc_up[dc.index()] || !keep(dc) {
                continue;
            }
            let r = table.remaining[i].load(Ordering::Relaxed);
            if r > 0 && best.is_none_or(|(_, br)| r >= br) {
                best = Some((i, r));
            }
        }
        best
    }

    /// CAS-debit the best candidate of `pool`, rescanning when a racing
    /// debit wins the cell first. Returns the debited DC, or `None` when no
    /// candidate has quota left.
    fn debit_best(
        table: &QuotaTable,
        topo: &TopologyView,
        pool: Range<usize>,
        keep: impl Fn(DcId) -> bool,
    ) -> Option<DcId> {
        loop {
            let (i, r) = Self::best_cell(table, topo, pool.clone(), &keep)?;
            if table.remaining[i]
                .compare_exchange(r, r - 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                table.consumed[i].fetch_add(1, Ordering::Relaxed);
                return Some(table.dcs[i]);
            }
            // lost the cell to a concurrent debit: re-rank and retry
            crate::metrics::realtime_metrics().pool_contention.inc();
        }
    }

    fn record_rung(st: &mut SelectorStats, rung: SelectorRung) {
        let m = crate::metrics::realtime_metrics();
        match rung {
            SelectorRung::Plan => st.rehomed_plan += 1,
            SelectorRung::Locality => {}
            SelectorRung::AnyReachable => {
                st.degraded_any += 1;
                m.degraded_any.inc();
            }
        }
    }

    fn start_core(
        &self,
        topo: &TopologyView,
        st: &mut SelectorStats,
        call_id: u64,
        first_joiner: CountryId,
    ) -> (SelectorOutcome, Option<DcId>) {
        let m = crate::metrics::realtime_metrics();
        let _t = m.selection_ns.start_timer();
        st.calls += 1;
        let outcome = topo.place(first_joiner);
        let mut moved_from = None;
        match outcome {
            SelectorOutcome::Placed { dc, rung } => {
                m.assignments.inc();
                Self::record_rung(st, rung);
                let prev = self.active.insert(
                    call_id,
                    ActiveCall {
                        dc,
                        country: first_joiner,
                        frozen: None,
                    },
                );
                moved_from = prev.map(|p| p.dc).filter(|&old| old != dc);
            }
            SelectorOutcome::Stranded => {
                st.stranded += 1;
                m.stranded.inc();
            }
        }
        (outcome, moved_from)
    }

    /// Quota consultation for one freeze. Caller holds the call's shard
    /// lock; quota cells are debited lock-free by CAS, so there is no pool
    /// lock to order against.
    fn decide_freeze(
        &self,
        topo: &TopologyView,
        table: &QuotaTable,
        st: &mut SelectorStats,
        current: DcId,
        cfg: ConfigId,
        slot: Option<usize>,
    ) -> FreezeDecision {
        let m = crate::metrics::realtime_metrics();
        if !self.plan_valid.load(Ordering::Relaxed) {
            st.plan_stale += 1;
            st.unplanned += 1;
            m.unplanned.inc();
            return FreezeDecision::Unplanned(current);
        }
        let Some(slot) = slot else {
            st.unplanned += 1;
            m.unplanned.inc();
            return FreezeDecision::Unplanned(current);
        };
        let Some(pool) = table.range(cfg, slot) else {
            st.unplanned += 1;
            m.unplanned.inc();
            return FreezeDecision::Unplanned(current);
        };
        // current DC still has quota → debit and stay (first cell of the
        // current DC with quota, in plan-entry order, as before)
        if topo.dc_up[current.index()] {
            for i in pool.clone() {
                if table.dcs[i] == current && table.try_debit(i) {
                    return FreezeDecision::Stay(current);
                }
            }
        }
        // otherwise migrate to the up planned DC with the most remaining
        // quota (failed DCs hold dead quota — skip them)
        if let Some(to) = Self::debit_best(table, topo, pool, |_| true) {
            st.migrations += 1;
            m.migrations.inc();
            return FreezeDecision::Migrate { from: current, to };
        }
        st.overflow += 1;
        m.overflow.inc();
        FreezeDecision::Overflow(current)
    }

    fn freeze_core(
        &self,
        topo: &TopologyView,
        table: &QuotaTable,
        st: &mut SelectorStats,
        call_id: u64,
        cfg: ConfigId,
        call_start_minute: u64,
    ) -> FreezeDecision {
        let m = crate::metrics::realtime_metrics();
        let _t = m.selection_ns.start_timer();
        m.freezes.inc();
        let slot = table.geom.slot_of_minute(call_start_minute);
        let mut decision = None;
        let known = self.active.update(&call_id, |call| {
            if call.frozen.is_some() {
                decision = Some(FreezeDecision::AlreadyFrozen(call.dc));
                return;
            }
            let current = call.dc;
            if let Some(s) = slot {
                call.frozen = Some((cfg, s));
            }
            let d = self.decide_freeze(topo, table, st, current, cfg, slot);
            if let FreezeDecision::Migrate { to, .. } = d {
                call.dc = to;
            }
            decision = Some(d);
        });
        if !known {
            st.unknown_freezes += 1;
            m.unknown_events.inc();
            return FreezeDecision::UnknownCall;
        }
        // `known` implies the closure ran and set `decision`; stay
        // panic-free regardless.
        let d = decision.unwrap_or(FreezeDecision::UnknownCall);
        match d {
            FreezeDecision::AlreadyFrozen(_) => {
                st.duplicate_freezes += 1;
                m.duplicate_freezes.inc();
            }
            FreezeDecision::UnknownCall => {}
            _ => {
                st.freezes += 1;
                if let Some(dc) = d.final_dc() {
                    self.dc_tally[dc.index()].fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        d
    }

    fn rehome_core(
        &self,
        topo: &TopologyView,
        table: &QuotaTable,
        st: &mut SelectorStats,
        call_id: u64,
    ) -> SelectorOutcome {
        let m = crate::metrics::realtime_metrics();
        let _t = m.selection_ns.start_timer();
        let mut outcome = None;
        let mut old_dc = None;
        let known = self.active.update(&call_id, |call| {
            let (old, country, frozen) = (call.dc, call.country, call.frozen);
            old_dc = Some(old);
            // plan rung: only for frozen calls with live quota at an up DC
            let mut out = None;
            if self.plan_valid.load(Ordering::Relaxed) {
                if let Some(pool) = frozen.and_then(|key| table.range(key.0, key.1)) {
                    if let Some(dc) = Self::debit_best(table, topo, pool, |dc| dc != old) {
                        out = Some(SelectorOutcome::Placed {
                            dc,
                            rung: SelectorRung::Plan,
                        });
                    }
                }
            }
            let out = out.unwrap_or_else(|| topo.place(country));
            if let SelectorOutcome::Placed { dc, .. } = out {
                call.dc = dc;
            }
            outcome = Some(out);
        });
        if !known {
            st.unknown_rehomes += 1;
            m.unknown_events.inc();
            return SelectorOutcome::Stranded;
        }
        let outcome = outcome.unwrap_or(SelectorOutcome::Stranded);
        match outcome {
            SelectorOutcome::Placed { dc, rung } => {
                Self::record_rung(st, rung);
                if old_dc != Some(dc) {
                    st.forced_migrations += 1;
                    m.forced_migrations.inc();
                }
            }
            SelectorOutcome::Stranded => {
                st.stranded += 1;
                m.stranded.inc();
                self.active.remove(&call_id);
            }
        }
        outcome
    }

    fn end_core(&self, st: &mut SelectorStats, call_id: u64) {
        if self.active.remove(&call_id).is_none() {
            st.unknown_ends += 1;
            crate::metrics::realtime_metrics().unknown_events.inc();
        }
    }

    /// First participant joined: assign the DC closest to them (§5.4(a)),
    /// falling down the ladder when locality cannot serve. Never panics: a
    /// country with no reachable DC yields [`SelectorOutcome::Stranded`]
    /// and the call is not tracked.
    pub fn call_start(&self, call_id: u64, first_joiner: CountryId) -> SelectorOutcome {
        let topo = self.topo_view();
        let mut st = SelectorStats::default();
        let (out, _) = self.start_core(&topo, &mut st, call_id, first_joiner);
        self.stats.merge(&st);
        out
    }

    /// The call's config froze (A minutes in): tally against the plan and
    /// decide whether to migrate (§5.4(b)(c)).
    ///
    /// Never panics: an unknown `call_id` returns
    /// [`FreezeDecision::UnknownCall`] (counted), a repeat freeze returns
    /// [`FreezeDecision::AlreadyFrozen`] (counted, no second debit), a stale
    /// plan degrades to [`FreezeDecision::Unplanned`], and quota held only
    /// by failed DCs degrades to [`FreezeDecision::Overflow`].
    pub fn config_frozen(
        &self,
        call_id: u64,
        cfg: ConfigId,
        call_start_minute: u64,
    ) -> FreezeDecision {
        let topo = self.topo_view();
        let table = self.table();
        let mut st = SelectorStats::default();
        let d = self.freeze_core(&topo, &table, &mut st, call_id, cfg, call_start_minute);
        self.stats.merge(&st);
        d
    }

    /// A failure displaced this call (its hosting DC went down): re-home it
    /// down the full ladder — plan (if the config froze and quota remains at
    /// an up DC) → locality → any-reachable. A successful re-home counts as
    /// a *forced* migration; [`SelectorOutcome::Stranded`] drops the call.
    pub fn rehome_call(&self, call_id: u64) -> SelectorOutcome {
        let topo = self.topo_view();
        let table = self.table();
        let mut st = SelectorStats::default();
        let out = self.rehome_core(&topo, &table, &mut st, call_id);
        self.stats.merge(&st);
        out
    }

    /// The call ended; release its bookkeeping. Unknown ids are counted
    /// no-ops (the call may have been stranded and dropped mid-flight).
    pub fn call_end(&self, call_id: u64) {
        let mut st = SelectorStats::default();
        self.end_core(&mut st, call_id);
        self.stats.merge(&st);
    }

    /// DC currently hosting a call.
    pub fn current_dc(&self, call_id: u64) -> Option<DcId> {
        self.active.get(&call_id).map(|c| c.dc)
    }

    /// Ids of calls currently hosted at `dc` (chaos engine: the blast
    /// radius of a DC failure).
    pub fn calls_at(&self, dc: DcId) -> Vec<u64> {
        let mut ids = Vec::new();
        self.active.for_each(|&id, c| {
            if c.dc == dc {
                ids.push(id);
            }
        });
        ids.sort_unstable();
        ids
    }

    /// Number of currently-active calls.
    pub fn active_calls(&self) -> usize {
        self.active.len()
    }

    /// Snapshot of the statistics so far (shared totals; un-flushed
    /// [`SelectorShard`] deltas are not yet included).
    pub fn stats(&self) -> SelectorStats {
        self.stats.snapshot()
    }

    /// Export a deterministic snapshot of the selector's entire mutable
    /// state (see [`SelectorStateExport`]). Not linearizable under
    /// concurrent mutation — call it quiesced, as recovery cross-checks do.
    pub fn export_state(&self) -> SelectorStateExport {
        let table = self.table();
        let mut calls: Vec<CallExport> = Vec::new();
        self.active.for_each(|&id, c| {
            calls.push(CallExport {
                id,
                dc: c.dc,
                country: c.country,
                frozen: c.frozen,
            });
        });
        calls.sort_unstable_by_key(|c| c.id);
        let mut pools: Vec<(ConfigId, usize)> = table.index.keys().copied().collect();
        pools.sort_unstable_by_key(|&(cfg, slot)| (cfg.index(), slot));
        let mut cells = Vec::new();
        for (cfg, slot) in pools {
            if let Some(range) = table.range(cfg, slot) {
                for i in range {
                    cells.push(QuotaCellExport {
                        config: cfg,
                        slot,
                        dc: table.dcs[i],
                        remaining: table.remaining[i].load(Ordering::Relaxed),
                        consumed: table.consumed[i].load(Ordering::Relaxed),
                    });
                }
            }
        }
        SelectorStateExport {
            plan_epoch: table.geom.epoch,
            plan_valid: self.plan_valid(),
            calls,
            cells,
            per_dc_tallies: self.per_dc_tallies(),
            stats: self.stats(),
        }
    }

    /// Recovery: insert a call that survived the journal exactly as the
    /// journaled decisions left it — hosted at `dc`, frozen at `frozen` —
    /// with no placement logic run and no statistics moved (the recovery
    /// driver replays the recorded decisions and accounts stats separately).
    pub fn restore_call(
        &self,
        call_id: u64,
        first_joiner: CountryId,
        dc: DcId,
        frozen: Option<(ConfigId, usize)>,
    ) {
        self.active.insert(
            call_id,
            ActiveCall {
                dc,
                country: first_joiner,
                frozen,
            },
        );
    }

    /// Recovery: re-apply the quota half of a journaled decision in log
    /// order — debit `frozen`'s pool at `dc` per `debit` against the plan
    /// installed now, and bump `dc`'s per-DC tally when `tally`. No call is
    /// touched and no statistics move.
    pub fn restore_debit(
        &self,
        frozen: Option<(ConfigId, usize)>,
        dc: DcId,
        debit: RestoreDebit,
        tally: bool,
    ) {
        let table = self.table();
        if let Some(pool) = frozen.and_then(|(cfg, s)| table.range(cfg, s)) {
            match debit {
                RestoreDebit::None => {}
                RestoreDebit::FirstOf => {
                    for i in pool {
                        if table.dcs[i] == dc && table.try_debit(i) {
                            break;
                        }
                    }
                }
                RestoreDebit::BestOf => {
                    let mut best: Option<(usize, u32)> = None;
                    for i in pool {
                        if table.dcs[i] != dc {
                            continue;
                        }
                        let r = table.remaining[i].load(Ordering::Relaxed);
                        if r > 0 && best.is_none_or(|(_, br)| r >= br) {
                            best = Some((i, r));
                        }
                    }
                    if let Some((i, _)) = best {
                        table.try_debit(i);
                    }
                }
            }
        }
        if tally {
            self.dc_tally[dc.index()].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Merge a statistics delta straight into the aggregate counters —
    /// recovery drivers rebuild stats from journaled decisions and land
    /// them here in one shot.
    pub fn add_stats(&self, delta: &SelectorStats) {
        self.stats.merge(delta);
    }

    /// A worker handle for one replay thread: caches the topology and
    /// quota-table snapshots and batches statistics locally so per-event
    /// work never touches shared selector state beyond the CAS cells it
    /// debits. Merge explicitly with [`SelectorShard::flush`]; dropping the
    /// shard flushes too.
    pub fn shard(&self) -> SelectorShard<'_> {
        SelectorShard {
            sel: self,
            topo: self.topo_view(),
            table: self.table(),
            stats: SelectorStats::default(),
            id: self.shard_seq.fetch_add(1, Ordering::Relaxed),
        }
    }
}

/// A per-worker view of a [`RealtimeSelector`].
///
/// Shares the selector's call map, quota pools, and tallies; keeps its own
/// [`SelectorStats`] delta and topology snapshot. Serial-equivalence rules
/// for concurrent drivers (see `sb-sim::replay_concurrent`):
///
/// * one call's events must be driven in trace order (start → freeze → end);
/// * freezes debiting the same `(config, slot)` pool must be driven in
///   trace order relative to each other (partition calls by
///   [`RealtimeSelector::quota_pool_token`]);
/// * topology updates, plan swaps, and plan validity flips must happen at
///   barriers, with [`SelectorShard::refresh_topology`] called (or fresh
///   shards created) before the next segment.
pub struct SelectorShard<'a> {
    sel: &'a RealtimeSelector,
    topo: Arc<TopologyView>,
    table: Arc<QuotaTable>,
    stats: SelectorStats,
    id: usize,
}

impl SelectorShard<'_> {
    fn metric_slot(&self) -> usize {
        self.id % SELECTOR_SHARD_METRICS
    }

    /// Re-read the selector's topology and quota-table snapshots (call
    /// after [`RealtimeSelector::update_topology`] or
    /// [`RealtimeSelector::install_plan`], at a segment barrier).
    pub fn refresh_topology(&mut self) {
        self.topo = self.sel.topo_view();
        self.table = self.sel.table();
    }

    /// Shard-local [`RealtimeSelector::call_start`].
    pub fn call_start(&mut self, call_id: u64, first_joiner: CountryId) -> SelectorOutcome {
        self.call_start_replacing(call_id, first_joiner).0
    }

    /// [`SelectorShard::call_start`], also returning the DC a duplicate
    /// start moved an already-live call away from (`None` for a new call,
    /// a call placed where it already was, or a stranded start, which
    /// leaves a live call where it is) — the DC whose resources the caller
    /// must free.
    pub fn call_start_replacing(
        &mut self,
        call_id: u64,
        first_joiner: CountryId,
    ) -> (SelectorOutcome, Option<DcId>) {
        let m = crate::metrics::realtime_metrics();
        m.shard_ops[self.metric_slot()].inc();
        let _t = m.shard_selection_ns[self.metric_slot()].start_timer();
        self.sel
            .start_core(&self.topo, &mut self.stats, call_id, first_joiner)
    }

    /// Shard-local [`RealtimeSelector::config_frozen`].
    pub fn config_frozen(
        &mut self,
        call_id: u64,
        cfg: ConfigId,
        call_start_minute: u64,
    ) -> FreezeDecision {
        let m = crate::metrics::realtime_metrics();
        m.shard_ops[self.metric_slot()].inc();
        let _t = m.shard_selection_ns[self.metric_slot()].start_timer();
        self.sel.freeze_core(
            &self.topo,
            &self.table,
            &mut self.stats,
            call_id,
            cfg,
            call_start_minute,
        )
    }

    /// Shard-local [`RealtimeSelector::rehome_call`].
    pub fn rehome_call(&mut self, call_id: u64) -> SelectorOutcome {
        let m = crate::metrics::realtime_metrics();
        m.shard_ops[self.metric_slot()].inc();
        let _t = m.shard_selection_ns[self.metric_slot()].start_timer();
        self.sel
            .rehome_core(&self.topo, &self.table, &mut self.stats, call_id)
    }

    /// Shard-local [`RealtimeSelector::call_end`].
    pub fn call_end(&mut self, call_id: u64) {
        let m = crate::metrics::realtime_metrics();
        m.shard_ops[self.metric_slot()].inc();
        self.sel.end_core(&mut self.stats, call_id)
    }

    /// Current DC of a call (reads the shared map).
    pub fn current_dc(&self, call_id: u64) -> Option<DcId> {
        self.sel.current_dc(call_id)
    }

    /// Merge this shard's batched stats into the selector's shared totals
    /// (per-field atomic adds; no lock).
    pub fn flush(&mut self) {
        let local = std::mem::take(&mut self.stats);
        if local != SelectorStats::default() {
            crate::metrics::realtime_metrics().shard_flushes.inc();
            self.sel.stats.merge(&local);
        }
    }
}

impl Drop for SelectorShard<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_workload::{CallConfig, ConfigCatalog, MediaType};

    /// 2 countries × 2 DCs; country 0 → DC 0, country 1 → DC 1.
    fn latmap() -> LatencyMap {
        LatencyMap::from_matrix(vec![
            vec![Some(5.0), Some(50.0)],
            vec![Some(50.0), Some(5.0)],
        ])
    }

    fn catalog() -> (ConfigCatalog, ConfigId) {
        let mut cat = ConfigCatalog::new();
        let id = cat.intern(CallConfig::new(vec![(CountryId(0), 2)], MediaType::Audio));
        (cat, id)
    }

    fn quotas_for(cfg: ConfigId, fracs: Vec<(DcId, f64)>, demand_count: f64) -> PlannedQuotas {
        let mut shares = AllocationShares::new(1);
        shares.set(cfg, 0, fracs);
        let mut demand = DemandMatrix::zero(cfg.index() + 1, 1, 30, 0);
        demand.set(cfg, 0, demand_count);
        PlannedQuotas::from_plan(&shares, &demand)
    }

    fn selector_of(lm: &LatencyMap, q: PlannedQuotas) -> RealtimeSelector {
        RealtimeSelector::from_artifact(lm, &crate::plan::PlanArtifact::seed(q))
    }

    #[test]
    fn largest_remainder_preserves_total() {
        let (_, cfg) = catalog();
        let q = quotas_for(
            cfg,
            vec![(DcId(0), 0.8), (DcId(1), 0.1), (DcId(0), 0.0)],
            100.0,
        );
        // 0.9 placed fraction: totals round to 90
        assert_eq!(q.total(cfg, 0), 90);
        let q = quotas_for(cfg, vec![(DcId(0), 1.0 / 3.0), (DcId(1), 2.0 / 3.0)], 10.0);
        assert_eq!(q.total(cfg, 0), 10);
    }

    #[test]
    fn stay_when_quota_available() {
        let lm = latmap();
        let (_, cfg) = catalog();
        let q = quotas_for(cfg, vec![(DcId(0), 1.0)], 2.0);
        let sel = selector_of(&lm, q);
        assert_eq!(sel.quota_initial_total(), 2);
        let out = sel.call_start(1, CountryId(0));
        assert_eq!(
            out,
            SelectorOutcome::Placed {
                dc: DcId(0),
                rung: SelectorRung::Locality
            }
        );
        let d = sel.config_frozen(1, cfg, 0);
        assert_eq!(d, FreezeDecision::Stay(DcId(0)));
        assert_eq!(sel.stats().migrations, 0);
        assert_eq!(sel.stats().freezes, 1);
        assert_eq!(sel.quota_remaining_total(), 1);
        assert_eq!(sel.per_dc_tallies(), vec![1, 0]);
    }

    #[test]
    fn migrate_when_plan_disagrees() {
        let lm = latmap();
        let (_, cfg) = catalog();
        // plan puts everything on DC1 but the first joiner is closest to DC0
        let q = quotas_for(cfg, vec![(DcId(1), 1.0)], 5.0);
        let sel = selector_of(&lm, q);
        sel.call_start(7, CountryId(0));
        let d = sel.config_frozen(7, cfg, 10);
        assert_eq!(
            d,
            FreezeDecision::Migrate {
                from: DcId(0),
                to: DcId(1)
            }
        );
        assert!(d.migrated());
        assert_eq!(sel.current_dc(7), Some(DcId(1)));
        assert_eq!(sel.stats().migrations, 1);
        assert_eq!(sel.per_dc_tallies(), vec![0, 1]);
    }

    #[test]
    fn quota_exhaustion_forces_migration_of_later_calls() {
        let lm = latmap();
        let (_, cfg) = catalog();
        // plan: 2 calls at DC0, 1 at DC1
        let q = quotas_for(cfg, vec![(DcId(0), 2.0 / 3.0), (DcId(1), 1.0 / 3.0)], 3.0);
        let sel = selector_of(&lm, q);
        for id in 0..3u64 {
            sel.call_start(id, CountryId(0));
        }
        assert_eq!(sel.config_frozen(0, cfg, 0), FreezeDecision::Stay(DcId(0)));
        assert_eq!(sel.config_frozen(1, cfg, 0), FreezeDecision::Stay(DcId(0)));
        // third call: DC0 exhausted → migrate to DC1
        assert!(sel.config_frozen(2, cfg, 0).migrated());
        // a fourth call overflows
        sel.call_start(3, CountryId(0));
        assert!(matches!(
            sel.config_frozen(3, cfg, 0),
            FreezeDecision::Overflow(_)
        ));
        assert_eq!(sel.stats().overflow, 1);
        assert!((sel.stats().migration_rate() - 0.25).abs() < 1e-12);
        // quota conservation: debits == freezes - unplanned - overflow
        let st = sel.stats();
        assert_eq!(
            sel.quota_initial_total() - sel.quota_remaining_total(),
            st.freezes - st.unplanned - st.overflow
        );
    }

    #[test]
    fn unplanned_config_stays_closest() {
        let lm = latmap();
        let (_, cfg) = catalog();
        let q = quotas_for(cfg, vec![(DcId(0), 1.0)], 1.0);
        let sel = selector_of(&lm, q);
        sel.call_start(1, CountryId(1));
        // a config id the plan never saw
        let other = ConfigId(42);
        let d = sel.config_frozen(1, other, 0);
        assert!(matches!(d, FreezeDecision::Unplanned(_)));
        assert_eq!(d.final_dc(), Some(DcId(1)));
        sel.call_end(1);
        assert_eq!(sel.current_dc(1), None);
    }

    #[test]
    fn unknown_ids_are_counted_noops_not_panics() {
        let lm = latmap();
        let (_, cfg) = catalog();
        let q = quotas_for(cfg, vec![(DcId(0), 1.0)], 1.0);
        let sel = selector_of(&lm, q);
        assert_eq!(sel.config_frozen(99, cfg, 0), FreezeDecision::UnknownCall);
        assert_eq!(sel.config_frozen(99, cfg, 0).final_dc(), None);
        sel.call_end(99);
        sel.call_end(99);
        assert_eq!(sel.stats().unknown_freezes, 2);
        assert_eq!(sel.stats().unknown_ends, 2);
        assert_eq!(sel.stats().freezes, 0);
    }

    #[test]
    fn double_freeze_tallies_once() {
        let lm = latmap();
        let (_, cfg) = catalog();
        // plan on DC1: the first freeze migrates, the duplicate must not
        // debit quota, tally, or migrate again
        let q = quotas_for(cfg, vec![(DcId(1), 1.0)], 5.0);
        let sel = selector_of(&lm, q);
        sel.call_start(1, CountryId(0));
        assert!(sel.config_frozen(1, cfg, 0).migrated());
        let remaining = sel.quota_remaining_total();
        let d = sel.config_frozen(1, cfg, 0);
        assert_eq!(d, FreezeDecision::AlreadyFrozen(DcId(1)));
        assert_eq!(d.final_dc(), Some(DcId(1)));
        assert!(!d.migrated());
        let st = sel.stats();
        assert_eq!(st.freezes, 1, "duplicate freeze must not tally");
        assert_eq!(st.duplicate_freezes, 1);
        assert_eq!(st.migrations, 1);
        assert_eq!(sel.quota_remaining_total(), remaining, "no second debit");
        assert_eq!(sel.per_dc_tallies().iter().sum::<u64>(), 1);
    }

    #[test]
    fn rehome_after_call_end_is_counted_noop() {
        let lm = latmap();
        let (_, cfg) = catalog();
        let q = quotas_for(cfg, vec![(DcId(0), 1.0)], 2.0);
        let sel = selector_of(&lm, q);
        sel.call_start(1, CountryId(0));
        sel.config_frozen(1, cfg, 0);
        sel.call_end(1);
        // the DC fails after the call already ended; the stale re-home
        // request must not count as stranded or as a forced migration
        let out = sel.rehome_call(1);
        assert!(out.is_stranded());
        let st = sel.stats();
        assert_eq!(st.unknown_rehomes, 1);
        assert_eq!(st.stranded, 0);
        assert_eq!(st.forced_migrations, 0);
    }

    #[test]
    fn dc_down_between_start_and_freeze_migrates_off_failed_dc() {
        let lm = latmap();
        let (_, cfg) = catalog();
        // quota at both DCs, slightly more at DC0
        let q = quotas_for(cfg, vec![(DcId(0), 0.6), (DcId(1), 0.4)], 10.0);
        let sel = selector_of(&lm, q);
        sel.call_start(1, CountryId(0));
        assert_eq!(sel.current_dc(1), Some(DcId(0)));
        // DC0 fails between start and freeze: the freeze must skip DC0's
        // quota (even though the call sits there) and migrate to DC1
        sel.update_topology(&lm, &[false, true]);
        let d = sel.config_frozen(1, cfg, 0);
        assert_eq!(
            d,
            FreezeDecision::Migrate {
                from: DcId(0),
                to: DcId(1)
            }
        );
        assert_eq!(sel.per_dc_tallies(), vec![0, 1]);
    }

    #[test]
    fn stale_plan_degrades_to_unplanned() {
        let lm = latmap();
        let (_, cfg) = catalog();
        // the plan would migrate this call to DC1 — but it is stale
        let q = quotas_for(cfg, vec![(DcId(1), 1.0)], 5.0);
        let sel = selector_of(&lm, q);
        sel.set_plan_valid(false);
        assert!(!sel.plan_valid());
        sel.call_start(1, CountryId(0));
        let d = sel.config_frozen(1, cfg, 0);
        assert_eq!(d, FreezeDecision::Unplanned(DcId(0)));
        assert_eq!(sel.stats().plan_stale, 1);
        assert_eq!(sel.stats().migrations, 0);
        // plan restored: the next call migrates again
        sel.set_plan_valid(true);
        sel.call_start(2, CountryId(0));
        assert!(sel.config_frozen(2, cfg, 0).migrated());
    }

    #[test]
    fn failed_dc_quota_is_skipped_at_freeze() {
        let lm = latmap();
        let (_, cfg) = catalog();
        // all quota on DC1, which is down → freeze overflows in place
        let q = quotas_for(cfg, vec![(DcId(1), 1.0)], 5.0);
        let sel = selector_of(&lm, q);
        sel.update_topology(&lm, &[true, false]);
        sel.call_start(1, CountryId(0));
        let d = sel.config_frozen(1, cfg, 0);
        assert_eq!(d, FreezeDecision::Overflow(DcId(0)));
        assert_eq!(sel.stats().migrations, 0);
    }

    #[test]
    fn ladder_falls_to_any_reachable_then_strands() {
        let (_, cfg) = catalog();
        // country 1 can only reach DC1
        let lm = LatencyMap::from_matrix(vec![vec![Some(5.0), Some(50.0)], vec![None, Some(5.0)]]);
        let q = quotas_for(cfg, vec![(DcId(0), 1.0)], 1.0);
        let sel = selector_of(&lm, q);
        // DC1 down: country 1 has no latency row to an up DC → any-reachable
        sel.update_topology(&lm, &[true, false]);
        let out = sel.call_start(1, CountryId(1));
        assert_eq!(
            out,
            SelectorOutcome::Placed {
                dc: DcId(0),
                rung: SelectorRung::AnyReachable
            }
        );
        assert_eq!(sel.stats().degraded_any, 1);
        // both DCs down → stranded, call not tracked
        sel.update_topology(&lm, &[false, false]);
        let out = sel.call_start(2, CountryId(1));
        assert!(out.is_stranded());
        assert_eq!(out.dc(), None);
        assert_eq!(sel.current_dc(2), None);
        assert_eq!(sel.stats().stranded, 1);
    }

    #[test]
    fn rehome_prefers_plan_quota_then_locality() {
        let lm = LatencyMap::from_matrix(vec![vec![Some(5.0), Some(20.0), Some(50.0)]]);
        let (_, cfg) = catalog();
        // plan: quota at DC0 (closest) and DC2 (far)
        let q = quotas_for(cfg, vec![(DcId(0), 0.5), (DcId(2), 0.5)], 4.0);
        let sel = selector_of(&lm, q);
        sel.call_start(1, CountryId(0));
        assert_eq!(sel.config_frozen(1, cfg, 0), FreezeDecision::Stay(DcId(0)));
        // DC0 fails → plan rung re-homes to DC2 (has quota), not DC1
        sel.update_topology(&lm, &[false, true, true]);
        let out = sel.rehome_call(1);
        assert_eq!(
            out,
            SelectorOutcome::Placed {
                dc: DcId(2),
                rung: SelectorRung::Plan
            }
        );
        assert_eq!(sel.stats().forced_migrations, 1);
        assert_eq!(sel.stats().rehomed_plan, 1);
        assert_eq!(sel.calls_at(DcId(2)), vec![1]);
        // a pre-freeze call has no plan info → locality rung (DC1 now
        // closest among up DCs)
        sel.update_topology(&lm, &[true, true, true]);
        sel.call_start(2, CountryId(0));
        sel.update_topology(&lm, &[false, true, true]);
        let out = sel.rehome_call(2);
        assert_eq!(
            out,
            SelectorOutcome::Placed {
                dc: DcId(1),
                rung: SelectorRung::Locality
            }
        );
        assert_eq!(sel.stats().forced_migrations, 2);
    }

    #[test]
    fn rehome_strands_when_nothing_up_and_drops_call() {
        let lm = latmap();
        let (_, cfg) = catalog();
        let q = quotas_for(cfg, vec![(DcId(0), 1.0)], 1.0);
        let sel = selector_of(&lm, q);
        sel.call_start(1, CountryId(0));
        sel.update_topology(&lm, &[false, false]);
        assert!(sel.rehome_call(1).is_stranded());
        assert_eq!(sel.active_calls(), 0);
        // the trace's later End event for the dropped call is a counted no-op
        sel.call_end(1);
        assert_eq!(sel.stats().unknown_ends, 1);
    }

    #[test]
    fn recovery_restores_locality_placement() {
        let lm = latmap();
        let (_, cfg) = catalog();
        let q = quotas_for(cfg, vec![(DcId(0), 1.0)], 8.0);
        let sel = selector_of(&lm, q);
        // DC0 down: country 0's calls land on DC1
        sel.update_topology(&lm, &[false, true]);
        assert_eq!(sel.call_start(1, CountryId(0)).dc(), Some(DcId(1)));
        // DC0 recovers: new calls return to it
        sel.update_topology(&lm, &[true, true]);
        assert_eq!(sel.call_start(2, CountryId(0)).dc(), Some(DcId(0)));
        let _ = cfg;
    }

    #[test]
    fn shards_merge_to_serial_totals() {
        let lm = latmap();
        let (_, cfg) = catalog();
        let q = quotas_for(cfg, vec![(DcId(0), 0.5), (DcId(1), 0.5)], 8.0);
        let sel = selector_of(&lm, q);
        {
            let mut a = sel.shard();
            let mut b = sel.shard();
            // four calls driven through two shards
            for id in 0..2u64 {
                a.call_start(id, CountryId(0));
            }
            for id in 2..4u64 {
                b.call_start(id, CountryId(1));
            }
            // shard-local stats are not yet visible on the selector
            assert_eq!(sel.stats().calls, 0);
            for id in 0..2u64 {
                a.config_frozen(id, cfg, 0);
            }
            for id in 2..4u64 {
                b.config_frozen(id, cfg, 0);
            }
            a.call_end(0);
            b.call_end(2);
            a.flush();
            b.flush();
        }
        let st = sel.stats();
        assert_eq!(st.calls, 4);
        assert_eq!(st.freezes, 4);
        assert_eq!(sel.per_dc_tallies().iter().sum::<u64>(), 4);
        assert_eq!(sel.active_calls(), 2);
        // quota conservation across shards
        assert_eq!(
            sel.quota_initial_total() - sel.quota_remaining_total(),
            st.freezes - st.unplanned - st.overflow
        );
    }

    #[test]
    fn shard_topology_refresh_sees_update() {
        let lm = latmap();
        let (_, cfg) = catalog();
        let q = quotas_for(cfg, vec![(DcId(0), 1.0)], 4.0);
        let sel = selector_of(&lm, q);
        let mut shard = sel.shard();
        assert_eq!(shard.call_start(1, CountryId(0)).dc(), Some(DcId(0)));
        sel.update_topology(&lm, &[false, true]);
        // stale snapshot until refreshed (barrier discipline)
        assert_eq!(shard.call_start(2, CountryId(0)).dc(), Some(DcId(0)));
        shard.refresh_topology();
        assert_eq!(shard.call_start(3, CountryId(0)).dc(), Some(DcId(1)));
    }

    #[test]
    fn from_artifact_boots_at_artifact_epoch() {
        let lm = latmap();
        let (_, cfg) = catalog();
        let q = quotas_for(cfg, vec![(DcId(0), 1.0)], 3.0);
        let art = crate::plan::PlanArtifact::seed(q).with_epoch(7);
        let sel = RealtimeSelector::from_artifact(&lm, &art);
        assert_eq!(sel.plan_epoch(), 7);
        assert_eq!(sel.quota_initial_total(), 3);
        assert!(sel.plan_valid());
        // the boot plan behaves exactly like an installed one
        sel.call_start(1, CountryId(0));
        assert_eq!(sel.config_frozen(1, cfg, 0), FreezeDecision::Stay(DcId(0)));
        assert_eq!(sel.quota_remaining_total(), 2);
    }

    #[test]
    fn pool_tokens_identify_pools_and_unplanned_freezes() {
        let lm = latmap();
        let (_, cfg) = catalog();
        let q = quotas_for(cfg, vec![(DcId(0), 0.5), (DcId(1), 0.5)], 4.0);
        let sel = selector_of(&lm, q);
        let tok = sel.quota_pool_token(cfg, 0);
        assert!(tok.is_some());
        // same pool → same token; both freezes of slot 0 debit it
        assert_eq!(sel.quota_pool_token(cfg, 29), tok);
        // outside the horizon or an unplanned config → no pool
        assert_eq!(sel.quota_pool_token(cfg, 10_000), None);
        assert_eq!(sel.quota_pool_token(ConfigId(999), 0), None);
    }

    #[test]
    fn shard_sees_new_plan_after_refresh() {
        let lm = latmap();
        let (_, cfg) = catalog();
        let sel = selector_of(&lm, quotas_for(cfg, vec![(DcId(0), 1.0)], 2.0));
        let mut shard = sel.shard();
        shard.call_start(1, CountryId(0));
        // swap in a plan that forces a migration to DC1
        let art = crate::plan::PlanArtifact::seed(quotas_for(cfg, vec![(DcId(1), 1.0)], 2.0))
            .with_epoch(1);
        sel.install_plan(&art);
        shard.refresh_topology();
        assert!(shard.config_frozen(1, cfg, 0).migrated());
        shard.flush();
        assert_eq!(sel.stats().migrations, 1);
    }

    #[test]
    fn restore_apis_rebuild_an_identical_export() {
        let lm = latmap();
        let (_, cfg) = catalog();
        // DC0 quota 1, DC1 quota 2: call 1 stays, call 2 must migrate
        let mk = || quotas_for(cfg, vec![(DcId(0), 1.0 / 3.0), (DcId(1), 2.0 / 3.0)], 3.0);
        let live = selector_of(&lm, mk());
        live.call_start(1, CountryId(0));
        live.call_start(2, CountryId(0));
        live.call_start(3, CountryId(1));
        assert_eq!(live.config_frozen(1, cfg, 0), FreezeDecision::Stay(DcId(0)));
        assert_eq!(
            live.config_frozen(2, cfg, 0),
            FreezeDecision::Migrate {
                from: DcId(0),
                to: DcId(1)
            }
        );
        live.call_end(3);
        live.call_end(98);
        assert_eq!(live.config_frozen(99, cfg, 0), FreezeDecision::UnknownCall);

        // recovery: re-apply the recorded debits in log order, land the
        // survivors once, stats in one delta
        let rec = selector_of(&lm, mk());
        rec.restore_debit(Some((cfg, 0)), DcId(0), RestoreDebit::FirstOf, true);
        rec.restore_debit(Some((cfg, 0)), DcId(1), RestoreDebit::BestOf, true);
        rec.restore_call(1, CountryId(0), DcId(0), Some((cfg, 0)));
        rec.restore_call(2, CountryId(0), DcId(1), Some((cfg, 0)));
        rec.call_end(98); // an unknown end counts itself, as live
        let delta = SelectorStats {
            calls: 3,
            freezes: 2,
            migrations: 1,
            unknown_freezes: 1,
            ..SelectorStats::default()
        };
        rec.add_stats(&delta);

        let (a, b) = (live.export_state(), rec.export_state());
        assert_eq!(a.stats, b.stats);
        assert_eq!(a, b);
        assert_eq!(a.calls.len(), 2);
        assert_eq!(a.per_dc_tallies, vec![1, 1]);
    }
}
