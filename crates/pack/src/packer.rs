//! The intra-DC call packer: best-fit and growth-aware server scoring,
//! re-pack-on-growth with hysteresis, frozen-call eviction, server death
//! drains, and the restore-mode operations recovery uses to rebuild packing
//! state from a WAL without re-running any placement decision.
//!
//! # Determinism contract
//!
//! Every decision in this module is a pure function of the packer's current
//! integer state and the op's integer arguments: costs are millicores
//! (`u32`), scores are integer leftovers, and every tie breaks toward the
//! lowest server index or lowest call id. Given the same op sequence the
//! packer reproduces the same placements and [`PackStats`] bit for bit —
//! the property the serial-oracle differential harness checks.
//!
//! # Hard vs soft state
//!
//! `used` (actual cost) is hard: no op ever leaves a live server with
//! `used > capacity`. `reserved` (predicted cost) is soft: reservations
//! guide scoring and proactive moves but may overshoot capacity freely.

use std::collections::btree_map::{BTreeMap, Entry};

use parking_lot::Mutex;
use sb_net::DcId;

use crate::fleet::{FleetSpec, ServerId, NO_SERVER};

/// Server-scoring policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackPolicy {
    /// Classic best-fit on **actual** cost: tightest feasible server wins.
    BestFit,
    /// Tetris-style growth-aware score: among servers that fit the actual
    /// cost, prefer the tightest fit on **reserved** (predicted) cost; if
    /// every server is predicted-overcommitted, pick the one with the most
    /// predicted headroom. Pairs with proactive re-packs under hysteresis.
    GrowthAware,
}

/// Packer tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackerConfig {
    /// Scoring policy.
    pub policy: PackPolicy,
    /// A growth-aware proactive move fires only once a server's reserved
    /// total exceeds capacity by more than this margin — the hysteresis
    /// band that stops a call from ping-ponging between two near-full
    /// servers on every join.
    pub hysteresis_mcpu: u32,
    /// Max unfrozen victims evicted to make room for one frozen call's
    /// growth before the growth is rejected instead.
    pub max_evictions: usize,
}

impl Default for PackerConfig {
    fn default() -> Self {
        Self {
            policy: PackPolicy::GrowthAware,
            hysteresis_mcpu: 512,
            max_evictions: 4,
        }
    }
}

/// Integer op counters, summed across DCs. Bitwise-comparable between
/// serial and concurrent drivers (all fields are exact counts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PackStats {
    /// Successful initial placements.
    pub placed: u64,
    /// Placements (initial or after a DC move) that found no feasible server.
    pub placement_failures: u64,
    /// Growth ops processed.
    pub grow_events: u64,
    /// Growth ops refused because no server could absorb the new cost.
    pub grow_rejections: u64,
    /// Forced moves: the grown call no longer fit its server.
    pub repacks: u64,
    /// Proactive growth-aware moves off predicted-overcommitted servers.
    pub proactive_repacks: u64,
    /// Unfrozen calls evicted to make room for a frozen call's growth.
    pub evictions: u64,
    /// Calls moved between DCs (selector migrations at freeze).
    pub dc_moves: u64,
    /// Calls removed at end-of-call.
    pub removed: u64,
    /// Servers killed.
    pub server_deaths: u64,
    /// Calls re-homed inside the DC after their server died.
    pub death_rehomes: u64,
    /// Calls that found no in-DC server after a death (escalated to the
    /// caller's degradation ladder).
    pub death_spills: u64,
}

impl PackStats {
    fn add(&mut self, o: &PackStats) {
        self.placed += o.placed;
        self.placement_failures += o.placement_failures;
        self.grow_events += o.grow_events;
        self.grow_rejections += o.grow_rejections;
        self.repacks += o.repacks;
        self.proactive_repacks += o.proactive_repacks;
        self.evictions += o.evictions;
        self.dc_moves += o.dc_moves;
        self.removed += o.removed;
        self.server_deaths += o.server_deaths;
        self.death_rehomes += o.death_rehomes;
        self.death_spills += o.death_spills;
    }

    /// Total intra-DC migrations (forced + proactive + evictions).
    pub fn intra_dc_migrations(&self) -> u64 {
        self.repacks + self.proactive_repacks + self.evictions
    }
}

/// How a [`FleetPacker::grow`] call resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrowKind {
    /// The call grew in place.
    Stayed,
    /// The call moved to another server in the DC.
    Moved {
        /// Server index the call left.
        from: u16,
        /// Server index the call now occupies.
        to: u16,
        /// `true` for a hysteresis-gated growth-aware move (the call still
        /// fit, but its server was predicted-overcommitted); `false` for a
        /// forced move (the call no longer fit).
        proactive: bool,
    },
    /// The call was frozen; unfrozen victims were evicted to make room and
    /// the call grew in place.
    Evicted {
        /// Number of victims moved off the call's server.
        victims: u16,
    },
    /// No server could absorb the growth: the call keeps its previous cost
    /// and the caller should refuse the join.
    Rejected,
    /// The call is not tracked by this DC's packer.
    Unknown,
}

/// Result of a growth op: the resolution plus the resulting
/// `(call, server, cost)` of every call whose placement or cost changed
/// (the grown call itself and any evicted victims) — exactly what a WAL
/// needs to journal to make the op replayable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrowOutcome {
    /// Resolution.
    pub kind: GrowKind,
    /// Resulting `(call, server index, cost_mcpu)` per touched call.
    pub changed: Vec<(u64, u16, u32)>,
}

/// A call that could not be re-homed inside its DC after a server death.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpilledCall {
    /// Call id.
    pub call: u64,
    /// Participant count at spill time.
    pub participants: u32,
    /// Actual cost at spill time.
    pub cost_mcpu: u32,
    /// Reserved cost at spill time.
    pub reserve_mcpu: u32,
    /// Whether the call had already frozen.
    pub frozen: bool,
}

/// Result of killing one server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KillResult {
    /// The server was already dead; nothing was done or counted.
    pub already_dead: bool,
    /// The server hosted no calls (the death is still counted).
    pub was_empty: bool,
    /// Calls re-homed inside the DC: `(call, new server index, cost)`.
    pub rehomed: Vec<(u64, u16, u32)>,
    /// Calls the DC could not absorb; the caller owns their fate.
    pub spilled: Vec<SpilledCall>,
}

/// Everything the packer knows about one tracked call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallInfo {
    /// Hosting server.
    pub server: ServerId,
    /// Charged participant count.
    pub participants: u32,
    /// Actual cost.
    pub cost_mcpu: u32,
    /// Reserved (predicted) cost.
    pub reserve_mcpu: u32,
    /// Whether the call's config has frozen.
    pub frozen: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CallSlot {
    server: u16,
    participants: u32,
    cost: u32,
    reserve: u32,
    frozen: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Srv {
    cap: u32,
    used: u32,
    reserved: u32,
    live: bool,
    peak_used: u32,
    placed: u64,
}

impl Srv {
    /// Add a slot's charge to the tallies and the observed peak.
    fn charge(&mut self, slot: &CallSlot) {
        self.restore(slot);
        self.peak_used = self.peak_used.max(self.used);
    }

    /// Add a slot's charge to the tallies alone (restore mode tracks no
    /// peaks).
    fn restore(&mut self, slot: &CallSlot) {
        self.used += slot.cost;
        self.reserved = self.reserved.saturating_add(slot.reserve);
    }

    /// Take a slot's charge off the tallies.
    fn release(&mut self, slot: &CallSlot) {
        self.used -= slot.cost;
        self.reserved = self.reserved.saturating_sub(slot.reserve);
    }
}

/// One server's occupancy snapshot in a [`PackStateExport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerExport {
    /// Capacity in millicores.
    pub capacity_mcpu: u32,
    /// Actual occupancy in millicores.
    pub used_mcpu: u32,
    /// Reserved occupancy in millicores.
    pub reserved_mcpu: u32,
    /// Liveness.
    pub live: bool,
}

/// One call's slot in a [`PackStateExport`]:
/// `(id, server, participants, cost, reserve, frozen)`.
pub type CallExport = (u64, u16, u32, u32, u32, bool);

/// Deterministic packing-state snapshot: the recovery equality witness.
///
/// Excludes runtime counters (stats, peaks) on purpose — those are
/// observability, not state, and are not journaled.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PackStateExport {
    /// Per-DC, per-server occupancy in `(dc, index)` order.
    pub servers: Vec<Vec<ServerExport>>,
    /// Per-DC call slots sorted by call id.
    pub calls: Vec<Vec<CallExport>>,
}

struct DcPacker {
    cfg: PackerConfig,
    servers: Vec<Srv>,
    calls: BTreeMap<u64, CallSlot>,
    stats: PackStats,
}

impl DcPacker {
    fn new(capacities: &[u32], cfg: PackerConfig) -> Self {
        Self {
            cfg,
            servers: capacities
                .iter()
                .map(|&cap| Srv {
                    cap,
                    used: 0,
                    reserved: 0,
                    live: true,
                    peak_used: 0,
                    placed: 0,
                })
                .collect(),
            calls: BTreeMap::new(),
            stats: PackStats::default(),
        }
    }

    /// Choose a server from the feasible set: live servers (minus `exclude`)
    /// where the actual cost fits. Best-fit takes the tightest fit on actual
    /// cost. Growth-aware (and the `preferred_only` probe, which only makes
    /// sense growth-aware) takes the tightest fit on reserved cost among
    /// servers whose reservations also fit; if every feasible server is
    /// predicted-overcommitted it falls back to the one with the most
    /// predicted headroom, unless `preferred_only`. One scan tracks both
    /// candidates; ties go to the lowest server index.
    fn fit(
        &self,
        cost: u32,
        reserve: u32,
        exclude: Option<u16>,
        preferred_only: bool,
    ) -> Option<u16> {
        let best_fit = self.cfg.policy == PackPolicy::BestFit && !preferred_only;
        // (leftover, index) of the tightest fit; (headroom, index) of the
        // roomiest predicted-overcommitted server
        let mut tightest: Option<(u32, u16)> = None;
        let mut roomiest: Option<(u32, u16)> = None;
        for (i, s) in self.servers.iter().enumerate() {
            let i = i as u16;
            if !s.live || Some(i) == exclude || s.used.saturating_add(cost) > s.cap {
                continue;
            }
            let leftover = if best_fit {
                Some(s.cap - s.used - cost)
            } else {
                s.cap.checked_sub(s.reserved.saturating_add(reserve))
            };
            match leftover {
                Some(l) if tightest.is_none_or(|(t, _)| l < t) => tightest = Some((l, i)),
                Some(_) => {}
                None => {
                    let headroom = s.cap.saturating_sub(s.reserved);
                    if roomiest.is_none_or(|(r, _)| headroom > r) {
                        roomiest = Some((headroom, i));
                    }
                }
            }
        }
        let choice = if preferred_only {
            tightest
        } else {
            tightest.or(roomiest)
        }
        .map(|(_, i)| i);
        #[cfg(test)]
        assert_eq!(
            choice,
            self.fit_two_pass(cost, reserve, exclude, preferred_only),
            "one-pass fit disagrees with the two-pass reference"
        );
        choice
    }

    /// The two-scan form [`DcPacker::fit`] replaced (a preferred pass, then
    /// the most-headroom fallback), kept as the reference every `fit` call
    /// is checked against in this crate's tests.
    #[cfg(test)]
    fn fit_two_pass(
        &self,
        cost: u32,
        reserve: u32,
        exclude: Option<u16>,
        preferred_only: bool,
    ) -> Option<u16> {
        let feasible = |i: usize, s: &Srv| {
            s.live && Some(i as u16) != exclude && s.used.saturating_add(cost) <= s.cap
        };
        match self.cfg.policy {
            PackPolicy::BestFit if !preferred_only => self
                .servers
                .iter()
                .enumerate()
                .filter(|&(i, s)| feasible(i, s))
                .min_by_key(|&(i, s)| (s.cap - s.used - cost, i))
                .map(|(i, _)| i as u16),
            _ => {
                // growth-aware (and the preferred-only probe, which only
                // makes sense growth-aware): tightest reserved fit first
                let preferred = self
                    .servers
                    .iter()
                    .enumerate()
                    .filter(|&(i, s)| feasible(i, s) && s.reserved.saturating_add(reserve) <= s.cap)
                    .min_by_key(|&(i, s)| (s.cap - s.reserved - reserve, i))
                    .map(|(i, _)| i as u16);
                if preferred.is_some() || preferred_only {
                    return preferred;
                }
                // every feasible server is predicted-overcommitted: take
                // the one with the most predicted headroom
                self.servers
                    .iter()
                    .enumerate()
                    .filter(|&(i, s)| feasible(i, s))
                    .max_by_key(|&(i, s)| (s.cap.saturating_sub(s.reserved), usize::MAX - i))
                    .map(|(i, _)| i as u16)
            }
        }
    }

    fn attach(&mut self, call: u64, slot: CallSlot) {
        self.servers[slot.server as usize].charge(&slot);
        let prev = self.calls.insert(call, slot);
        debug_assert!(prev.is_none(), "call {call} attached twice");
    }

    fn detach(&mut self, call: u64) -> Option<CallSlot> {
        let slot = self.calls.remove(&call)?;
        self.servers[slot.server as usize].release(&slot);
        Some(slot)
    }

    /// Place a new call; a call already placed here stays on its server,
    /// which is returned, and nothing is charged or counted again.
    fn place(&mut self, call: u64, participants: u32, cost: u32, reserve: u32) -> Option<u16> {
        if let Some(slot) = self.calls.get(&call) {
            return Some(slot.server);
        }
        let reserve = reserve.max(cost);
        match self.fit(cost, reserve, None, false) {
            Some(i) => {
                self.attach(
                    call,
                    CallSlot {
                        server: i,
                        participants,
                        cost,
                        reserve,
                        frozen: false,
                    },
                );
                self.servers[i as usize].placed += 1;
                self.stats.placed += 1;
                Some(i)
            }
            None => {
                self.stats.placement_failures += 1;
                None
            }
        }
    }

    fn grow(&mut self, call: u64, participants: u32, cost: u32, reserve: u32) -> GrowOutcome {
        let Some(entry) = self.calls.get_mut(&call) else {
            return GrowOutcome {
                kind: GrowKind::Unknown,
                changed: Vec::new(),
            };
        };
        let slot = *entry;
        self.stats.grow_events += 1;
        let reserve = reserve.max(cost);
        let from = slot.server;
        let fi = from as usize;
        let next = CallSlot {
            server: from,
            participants,
            cost,
            reserve,
            frozen: slot.frozen,
        };
        let fits_in_place = self.servers[fi].live
            && (self.servers[fi].used - slot.cost).saturating_add(cost) <= self.servers[fi].cap;
        if fits_in_place {
            // same key, same server: rewrite the slot and the tallies where
            // they are instead of a tree remove + insert
            *entry = next;
            self.servers[fi].release(&slot);
            self.servers[fi].charge(&next);
            // proactive re-pack: growth-aware, unfrozen, and the server's
            // reservations overshoot capacity past the hysteresis band
            if self.cfg.policy == PackPolicy::GrowthAware && !slot.frozen {
                let s = &self.servers[fi];
                if s.reserved > s.cap.saturating_add(self.cfg.hysteresis_mcpu) {
                    if let Some(to) = self.fit(cost, reserve, Some(from), true) {
                        self.detach(call);
                        self.attach(call, CallSlot { server: to, ..next });
                        self.stats.proactive_repacks += 1;
                        return GrowOutcome {
                            kind: GrowKind::Moved {
                                from,
                                to,
                                proactive: true,
                            },
                            changed: vec![(call, to, cost)],
                        };
                    }
                }
            }
            return GrowOutcome {
                kind: GrowKind::Stayed,
                changed: vec![(call, from, cost)],
            };
        }
        if !slot.frozen {
            // forced move: the grown call no longer fits where it is
            return match self.fit(cost, reserve, Some(from), false) {
                Some(to) => {
                    self.detach(call);
                    self.attach(call, CallSlot { server: to, ..next });
                    self.stats.repacks += 1;
                    GrowOutcome {
                        kind: GrowKind::Moved {
                            from,
                            to,
                            proactive: false,
                        },
                        changed: vec![(call, to, cost)],
                    }
                }
                None => {
                    self.stats.grow_rejections += 1;
                    GrowOutcome {
                        kind: GrowKind::Rejected,
                        changed: Vec::new(),
                    }
                }
            };
        }
        // frozen call outgrew its server: evict unfrozen victims (largest
        // first, id as tie-break) until the growth fits or we give up.
        // Victims that already moved stay moved — each move was legal.
        let mut changed = Vec::new();
        let mut victims = 0u16;
        loop {
            let s = &self.servers[fi];
            if s.live && (s.used - slot.cost).saturating_add(cost) <= s.cap {
                self.detach(call);
                self.attach(call, next);
                self.stats.evictions += victims as u64;
                changed.push((call, from, cost));
                return GrowOutcome {
                    kind: GrowKind::Evicted { victims },
                    changed,
                };
            }
            if victims as usize >= self.cfg.max_evictions {
                break;
            }
            let mut candidates: Vec<(u32, u64)> = self
                .calls
                .iter()
                .filter(|&(&id, c)| id != call && c.server == from && !c.frozen)
                .map(|(&id, c)| (c.cost, id))
                .collect();
            candidates.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            let Some((victim, to)) = candidates.iter().find_map(|&(_, id)| {
                let c = self.calls[&id];
                self.fit(c.cost, c.reserve, Some(from), false)
                    .map(|to| (id, to))
            }) else {
                break;
            };
            let Some(v) = self.detach(victim) else {
                break;
            };
            self.attach(victim, CallSlot { server: to, ..v });
            changed.push((victim, to, v.cost));
            victims += 1;
        }
        self.stats.evictions += victims as u64;
        self.stats.grow_rejections += 1;
        GrowOutcome {
            kind: GrowKind::Rejected,
            changed,
        }
    }

    fn freeze(&mut self, call: u64) -> bool {
        match self.calls.get_mut(&call) {
            Some(slot) => {
                slot.frozen = true;
                true
            }
            None => false,
        }
    }

    fn remove(&mut self, call: u64) -> Option<u16> {
        let slot = self.detach(call)?;
        self.stats.removed += 1;
        Some(slot.server)
    }

    fn kill(&mut self, server: u16) -> KillResult {
        let i = server as usize;
        if !self.servers[i].live {
            return KillResult {
                already_dead: true,
                was_empty: true,
                rehomed: Vec::new(),
                spilled: Vec::new(),
            };
        }
        self.servers[i].live = false;
        self.stats.server_deaths += 1;
        // BTreeMap iteration → calls drain in ascending id order
        let on_server: Vec<u64> = self
            .calls
            .iter()
            .filter(|&(_, c)| c.server == server)
            .map(|(&id, _)| id)
            .collect();
        let was_empty = on_server.is_empty();
        let mut rehomed = Vec::new();
        let mut spilled = Vec::new();
        for id in on_server {
            let Some(c) = self.detach(id) else {
                continue;
            };
            match self.fit(c.cost, c.reserve, None, false) {
                Some(to) => {
                    self.attach(id, CallSlot { server: to, ..c });
                    self.stats.death_rehomes += 1;
                    rehomed.push((id, to, c.cost));
                }
                None => {
                    self.stats.death_spills += 1;
                    spilled.push(SpilledCall {
                        call: id,
                        participants: c.participants,
                        cost_mcpu: c.cost,
                        reserve_mcpu: c.reserve,
                        frozen: c.frozen,
                    });
                }
            }
        }
        KillResult {
            already_dead: false,
            was_empty,
            rehomed,
            spilled,
        }
    }

    /// Restore-mode absolute set: no scoring, no stats, no peak tracking.
    fn restore_set(
        &mut self,
        call: u64,
        server: u16,
        participants: u32,
        cost: u32,
        reserve: u32,
        frozen: bool,
    ) {
        if server == NO_SERVER {
            self.detach(call);
            return;
        }
        let next = CallSlot {
            server,
            participants,
            cost,
            reserve,
            frozen,
        };
        // a known call is rewritten where it sits in the tree
        match self.calls.entry(call) {
            Entry::Occupied(mut e) => {
                let old = e.insert(next);
                self.servers[old.server as usize].release(&old);
            }
            Entry::Vacant(e) => {
                e.insert(next);
            }
        }
        self.servers[server as usize].restore(&next);
    }

    fn export(&self) -> (Vec<ServerExport>, Vec<CallExport>) {
        let servers = self
            .servers
            .iter()
            .map(|s| ServerExport {
                capacity_mcpu: s.cap,
                used_mcpu: s.used,
                reserved_mcpu: s.reserved,
                live: s.live,
            })
            .collect();
        let calls = self
            .calls
            .iter()
            .map(|(&id, c)| (id, c.server, c.participants, c.cost, c.reserve, c.frozen))
            .collect();
        (servers, calls)
    }

    /// Hard-invariant audit: live servers within capacity, dead servers
    /// hosting nothing, tallies consistent with the call map.
    fn violations(&self) -> u64 {
        let mut used = vec![0u32; self.servers.len()];
        for c in self.calls.values() {
            used[c.server as usize] += c.cost;
        }
        let mut v = 0;
        for (i, s) in self.servers.iter().enumerate() {
            debug_assert_eq!(s.used, used[i], "used tally drift on server {i}");
            if s.live && s.used > s.cap {
                v += 1;
            }
            if !s.live && s.used > 0 {
                v += 1;
            }
        }
        v
    }
}

/// Metrics handles registered once against the global `sb-obs` registry.
struct PackMetrics {
    placed: sb_obs::Counter,
    placement_failures: sb_obs::Counter,
    migrations: sb_obs::Counter,
    grow_rejections: sb_obs::Counter,
    dc_moves: sb_obs::Counter,
    server_deaths: sb_obs::Counter,
    death_spills: sb_obs::Counter,
    violations: sb_obs::Counter,
    utilization_pct: sb_obs::Gauge,
}

fn pack_metrics() -> &'static PackMetrics {
    static METRICS: std::sync::OnceLock<PackMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = sb_obs::global();
        PackMetrics {
            placed: reg.counter("pack.placed"),
            placement_failures: reg.counter("pack.placement_failures"),
            migrations: reg.counter("pack.intra_dc_migrations"),
            grow_rejections: reg.counter("pack.grow_rejections"),
            dc_moves: reg.counter("pack.dc_moves"),
            server_deaths: reg.counter("pack.server_deaths"),
            death_spills: reg.counter("pack.death_spills"),
            violations: reg.counter("pack.capacity_violations"),
            utilization_pct: reg.gauge("pack.utilization_pct"),
        }
    })
}

/// Outcome of [`FleetPacker::move_dc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveDcOutcome {
    /// The call now occupies this server in the destination DC.
    Moved(ServerId),
    /// The destination DC had no feasible server; the call is no longer
    /// packed anywhere (the DC-level selector still tracks it).
    Unpacked,
    /// The call was not packed in the source DC.
    Unknown,
}

/// Thread-safe fleet-wide packer: one [`Mutex`]-guarded per-DC packer per
/// data center, so ops on different DCs never contend and ops inside one
/// DC serialize — the same sharding discipline the selector uses.
pub struct FleetPacker {
    spec: FleetSpec,
    dcs: Vec<Mutex<DcPacker>>,
}

impl FleetPacker {
    /// Build a packer over `spec` with every server live and empty.
    pub fn new(spec: FleetSpec, cfg: PackerConfig) -> Self {
        let dcs = (0..spec.num_dcs())
            .map(|d| Mutex::new(DcPacker::new(spec.capacities(DcId(d as u16)), cfg)))
            .collect();
        Self { spec, dcs }
    }

    /// The static fleet description.
    pub fn spec(&self) -> &FleetSpec {
        &self.spec
    }

    /// Place a new call in `dc`. Returns the chosen server, or `None` if no
    /// live server fits (the call stays DC-placed but unpacked). A call
    /// already placed in `dc` stays where it is and its server is returned.
    pub fn place(
        &self,
        dc: DcId,
        call: u64,
        participants: u32,
        cost_mcpu: u32,
        reserve_mcpu: u32,
    ) -> Option<ServerId> {
        let m = pack_metrics();
        match self.dcs[dc.0 as usize]
            .lock()
            .place(call, participants, cost_mcpu, reserve_mcpu)
        {
            Some(i) => {
                m.placed.inc();
                Some(ServerId { dc, index: i })
            }
            None => {
                m.placement_failures.inc();
                None
            }
        }
    }

    /// Apply participant growth to a packed call.
    pub fn grow(
        &self,
        dc: DcId,
        call: u64,
        participants: u32,
        cost_mcpu: u32,
        reserve_mcpu: u32,
    ) -> GrowOutcome {
        let out = self.dcs[dc.0 as usize]
            .lock()
            .grow(call, participants, cost_mcpu, reserve_mcpu);
        let m = pack_metrics();
        match out.kind {
            GrowKind::Moved { .. } => m.migrations.inc(),
            GrowKind::Evicted { victims } => m.migrations.add(victims as u64),
            GrowKind::Rejected => m.grow_rejections.inc(),
            GrowKind::Stayed | GrowKind::Unknown => {}
        }
        out
    }

    /// Mark a packed call's config frozen (it can no longer be moved by
    /// growth re-packs). Returns `false` for untracked calls.
    pub fn freeze(&self, dc: DcId, call: u64) -> bool {
        self.dcs[dc.0 as usize].lock().freeze(call)
    }

    /// Remove a call at end-of-call. Returns the server it occupied.
    pub fn remove(&self, dc: DcId, call: u64) -> Option<ServerId> {
        self.dcs[dc.0 as usize]
            .lock()
            .remove(call)
            .map(|i| ServerId { dc, index: i })
    }

    /// Move a call between DCs (a selector freeze-time migration),
    /// preserving its frozen flag and charged size.
    pub fn move_dc(&self, from: DcId, to: DcId, call: u64) -> MoveDcOutcome {
        let Some(slot) = self.dcs[from.0 as usize].lock().detach(call) else {
            return MoveDcOutcome::Unknown;
        };
        let m = pack_metrics();
        m.dc_moves.inc();
        let mut dst = self.dcs[to.0 as usize].lock();
        dst.stats.dc_moves += 1;
        match dst.fit(slot.cost, slot.reserve, None, false) {
            Some(i) => {
                dst.attach(call, CallSlot { server: i, ..slot });
                MoveDcOutcome::Moved(ServerId { dc: to, index: i })
            }
            None => {
                dst.stats.placement_failures += 1;
                m.placement_failures.inc();
                MoveDcOutcome::Unpacked
            }
        }
    }

    /// Kill one server: drain its calls onto surviving in-DC servers,
    /// spilling whatever does not fit back to the caller.
    pub fn kill_server(&self, server: ServerId) -> KillResult {
        let r = self.dcs[server.dc.0 as usize].lock().kill(server.index);
        if !r.already_dead {
            let m = pack_metrics();
            m.server_deaths.inc();
            m.migrations.add(r.rehomed.len() as u64);
            m.death_spills.add(r.spilled.len() as u64);
        }
        r
    }

    /// The server currently hosting `call` in `dc`, if packed.
    pub fn server_of(&self, dc: DcId, call: u64) -> Option<ServerId> {
        self.dcs[dc.0 as usize]
            .lock()
            .calls
            .get(&call)
            .map(|c| ServerId {
                dc,
                index: c.server,
            })
    }

    /// Full slot info for `call` in `dc`, if packed.
    pub fn call_info(&self, dc: DcId, call: u64) -> Option<CallInfo> {
        self.dcs[dc.0 as usize]
            .lock()
            .calls
            .get(&call)
            .map(|c| CallInfo {
                server: ServerId {
                    dc,
                    index: c.server,
                },
                participants: c.participants,
                cost_mcpu: c.cost,
                reserve_mcpu: c.reserve,
                frozen: c.frozen,
            })
    }

    /// Op counters summed across DCs.
    pub fn stats(&self) -> PackStats {
        let mut total = PackStats::default();
        for dc in &self.dcs {
            total.add(&dc.lock().stats);
        }
        total
    }

    /// Deterministic occupancy snapshot (recovery equality witness).
    pub fn export_state(&self) -> PackStateExport {
        let mut out = PackStateExport::default();
        for dc in &self.dcs {
            let (servers, calls) = dc.lock().export();
            out.servers.push(servers);
            out.calls.push(calls);
        }
        out
    }

    /// Peak observed `used` per server, flattened in `(dc, index)` order.
    pub fn per_server_peak_mcpu(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.spec.num_servers());
        for dc in &self.dcs {
            out.extend(dc.lock().servers.iter().map(|s| s.peak_used));
        }
        out
    }

    /// Total initial placements per server, flattened in `(dc, index)` order.
    pub fn per_server_placed(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.spec.num_servers());
        for dc in &self.dcs {
            out.extend(dc.lock().servers.iter().map(|s| s.placed));
        }
        out
    }

    /// Count of hard-invariant violations (live server over capacity, or a
    /// dead server still hosting load). Always 0 unless restore-mode ops
    /// were fed an inconsistent journal. Also published as
    /// `pack.capacity_violations`.
    pub fn capacity_violations(&self) -> u64 {
        let v: u64 = self.dcs.iter().map(|d| d.lock().violations()).sum();
        pack_metrics().violations.add(v);
        v
    }

    /// Fleet-wide utilization: total used over total live capacity, in
    /// `[0, 1]`. Also published as the `pack.utilization_pct` gauge.
    pub fn utilization(&self) -> f64 {
        let mut used = 0u64;
        let mut cap = 0u64;
        for dc in &self.dcs {
            for s in dc.lock().servers.iter() {
                if s.live {
                    used += s.used as u64;
                    cap += s.cap as u64;
                }
            }
        }
        let u = if cap == 0 {
            0.0
        } else {
            used as f64 / cap as f64
        };
        pack_metrics().utilization_pct.set(u * 100.0);
        u
    }

    /// Restore-mode absolute placement (recovery only): force `call` onto
    /// `server` with the given charge, updating tallies but no stats, no
    /// peaks, and no scoring. `server == NO_SERVER` clears the slot.
    #[allow(clippy::too_many_arguments)]
    pub fn restore_set(
        &self,
        dc: DcId,
        call: u64,
        server: u16,
        participants: u32,
        cost_mcpu: u32,
        reserve_mcpu: u32,
        frozen: bool,
    ) {
        self.dcs[dc.0 as usize].lock().restore_set(
            call,
            server,
            participants,
            cost_mcpu,
            reserve_mcpu,
            frozen,
        );
    }

    /// Restore-mode removal (recovery only): drop `call`'s slot without
    /// touching stats.
    pub fn restore_remove(&self, dc: DcId, call: u64) {
        self.dcs[dc.0 as usize]
            .lock()
            .restore_set(call, NO_SERVER, 0, 0, 0, false);
    }

    /// Restore-mode server death (recovery only): mark the server dead and
    /// leave its calls in place — the journal's subsequent pack records
    /// carry where each call went.
    pub fn restore_kill(&self, server: ServerId) {
        self.dcs[server.dc.0 as usize].lock().servers[server.index as usize].live = false;
    }
}

impl std::fmt::Debug for FleetPacker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetPacker")
            .field("spec", &self.spec)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Offline best-fit-decreasing bin packing of `costs_mcpu` onto
/// `capacities_mcpu`: returns how many servers end up non-empty, a static
/// lower-bound baseline for the online packers in the efficiency bench.
/// Items that fit nowhere are skipped (and reported in the second tuple
/// element).
pub fn best_fit_decreasing(capacities_mcpu: &[u32], costs_mcpu: &[u32]) -> (usize, usize) {
    let mut items: Vec<u32> = costs_mcpu.to_vec();
    items.sort_unstable_by(|a, b| b.cmp(a));
    let mut free: Vec<u32> = capacities_mcpu.to_vec();
    let mut touched = vec![false; free.len()];
    let mut dropped = 0;
    for item in items {
        let best = free
            .iter()
            .enumerate()
            .filter(|&(_, &f)| f >= item)
            .min_by_key(|&(i, &f)| (f - item, i))
            .map(|(i, _)| i);
        match best {
            Some(i) => {
                free[i] -= item;
                touched[i] = true;
            }
            None => dropped += 1,
        }
    }
    (touched.iter().filter(|&&t| t).count(), dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::CostModel;

    fn packer(caps: &[u32], policy: PackPolicy) -> FleetPacker {
        let mut spec = FleetSpec::empty(1);
        for &c in caps {
            spec.push_server(DcId(0), c);
        }
        FleetPacker::new(
            spec,
            PackerConfig {
                policy,
                ..PackerConfig::default()
            },
        )
    }

    const D0: DcId = DcId(0);

    #[test]
    fn best_fit_picks_tightest_server() {
        let p = packer(&[1_000, 400, 600], PackPolicy::BestFit);
        // cost 350 fits all; tightest is the 400
        let s = p.place(D0, 1, 1, 350, 350).unwrap();
        assert_eq!(s.index, 1);
        // next 350: server 1 has 50 left (no fit); 600 is tighter than 1000
        let s = p.place(D0, 2, 1, 350, 350).unwrap();
        assert_eq!(s.index, 2);
    }

    #[test]
    fn growth_aware_prefers_reserved_fit() {
        let p = packer(&[1_000, 1_000], PackPolicy::GrowthAware);
        // call 1: cost 200, reserve 900 → server 0
        assert_eq!(p.place(D0, 1, 1, 200, 900).unwrap().index, 0);
        // call 2: cost 200, reserve 900: server 0 fits the cost but its
        // reservations (900+900) overshoot; server 1 is the preferred fit
        assert_eq!(p.place(D0, 2, 1, 200, 900).unwrap().index, 1);
        // call 3: no server has reserved headroom → fall back to the most
        // predicted headroom (both equal at 100 → still deterministic)
        let s = p.place(D0, 3, 1, 200, 900).unwrap();
        assert_eq!(s.index, 0);
    }

    #[test]
    fn place_fails_when_nothing_fits() {
        let p = packer(&[500], PackPolicy::BestFit);
        assert!(p.place(D0, 1, 1, 501, 501).is_none());
        assert_eq!(p.stats().placement_failures, 1);
        assert_eq!(p.stats().placed, 0);
    }

    #[test]
    fn grow_in_place_then_forced_move() {
        let p = packer(&[1_000, 2_000], PackPolicy::BestFit);
        assert_eq!(p.place(D0, 1, 1, 800, 800).unwrap().index, 0);
        // grows to 950: still fits server 0
        assert!(matches!(p.grow(D0, 1, 2, 950, 950).kind, GrowKind::Stayed));
        // grows to 1_100: must move to server 1
        let out = p.grow(D0, 1, 3, 1_100, 1_100);
        assert_eq!(
            out.kind,
            GrowKind::Moved {
                from: 0,
                to: 1,
                proactive: false
            }
        );
        assert_eq!(out.changed, vec![(1, 1, 1_100)]);
        assert_eq!(p.stats().repacks, 1);
        assert_eq!(p.server_of(D0, 1).unwrap().index, 1);
    }

    #[test]
    fn grow_rejected_when_nothing_fits_keeps_old_cost() {
        let p = packer(&[1_000], PackPolicy::BestFit);
        p.place(D0, 1, 1, 800, 800).unwrap();
        let out = p.grow(D0, 1, 2, 1_200, 1_200);
        assert_eq!(out.kind, GrowKind::Rejected);
        assert_eq!(p.call_info(D0, 1).unwrap().cost_mcpu, 800);
        assert_eq!(p.stats().grow_rejections, 1);
    }

    #[test]
    fn frozen_growth_evicts_unfrozen_victims() {
        let p = packer(&[1_000, 1_000], PackPolicy::BestFit);
        p.place(D0, 1, 1, 600, 600).unwrap(); // server 0
        p.place(D0, 2, 1, 300, 300).unwrap(); // server 0 (tight fit: 400 left → best fit picks 0)
        assert_eq!(p.server_of(D0, 2).unwrap().index, 0);
        p.freeze(D0, 1);
        // frozen call 1 grows to 900: victim 2 must be evicted to server 1
        let out = p.grow(D0, 1, 2, 900, 900);
        assert_eq!(out.kind, GrowKind::Evicted { victims: 1 });
        assert_eq!(p.server_of(D0, 2).unwrap().index, 1);
        assert_eq!(p.server_of(D0, 1).unwrap().index, 0);
        assert_eq!(p.stats().evictions, 1);
    }

    #[test]
    fn frozen_growth_never_moves_the_frozen_call() {
        let p = packer(&[1_000, 5_000], PackPolicy::BestFit);
        p.place(D0, 1, 1, 900, 900).unwrap(); // server 0
        p.freeze(D0, 1);
        // 1_200 can never fit server 0, and frozen calls don't move
        let out = p.grow(D0, 1, 2, 1_200, 1_200);
        assert_eq!(out.kind, GrowKind::Rejected);
        assert_eq!(p.server_of(D0, 1).unwrap().index, 0);
    }

    #[test]
    fn proactive_repack_respects_hysteresis() {
        let mut spec = FleetSpec::empty(1);
        spec.push_server(D0, 1_000);
        spec.push_server(D0, 1_000);
        spec.push_server(D0, 2_000);
        let p = FleetPacker::new(
            spec,
            PackerConfig {
                policy: PackPolicy::GrowthAware,
                hysteresis_mcpu: 300,
                max_evictions: 4,
            },
        );
        p.place(D0, 1, 1, 300, 700).unwrap(); // s0 (tightest reserved fit)
        p.place(D0, 2, 1, 300, 700).unwrap(); // s1
        p.place(D0, 3, 1, 100, 200).unwrap(); // s0 (leftover 100 beats s2's 1800)
        assert_eq!(p.server_of(D0, 3).unwrap().index, 0);
        // call 3 grows: s0 reserved 700-200+500 = 1_200, within
        // cap + hysteresis (1_300) → stays put
        assert!(matches!(p.grow(D0, 3, 2, 200, 500).kind, GrowKind::Stayed));
        // grows again: s0 reserved 1_200-500+700 = 1_400 > 1_300 → the
        // hysteresis band is breached; s2 has reserved headroom → move
        let out = p.grow(D0, 3, 3, 300, 700);
        assert_eq!(
            out.kind,
            GrowKind::Moved {
                from: 0,
                to: 2,
                proactive: true
            }
        );
        assert_eq!(p.stats().proactive_repacks, 1);
        assert_eq!(p.stats().repacks, 0);
    }

    #[test]
    fn kill_server_rehomes_in_dc_and_spills_rest() {
        let p = packer(&[1_000, 500], PackPolicy::BestFit);
        // best fit: 400 → server 1 (100 left beats 600 left)
        p.place(D0, 1, 1, 400, 400).unwrap();
        assert_eq!(p.server_of(D0, 1).unwrap().index, 1);
        p.place(D0, 2, 1, 450, 450).unwrap(); // only server 0 fits
        p.place(D0, 3, 1, 500, 500).unwrap(); // server 0 again (550 free)
        let r = p.kill_server(ServerId { dc: D0, index: 0 });
        assert!(!r.already_dead && !r.was_empty);
        // drain in id order: server 1 has 100 free → calls 2 and 3 spill
        assert!(r.rehomed.is_empty());
        assert_eq!(
            r.spilled.iter().map(|s| s.call).collect::<Vec<_>>(),
            vec![2, 3]
        );
        assert_eq!(p.stats().server_deaths, 1);
        assert_eq!(p.stats().death_spills, 2);
        assert_eq!(p.capacity_violations(), 0);
        // dead server takes no new placements
        let s = p.place(D0, 4, 1, 100, 100).unwrap();
        assert_eq!(s.index, 1);
    }

    #[test]
    fn kill_empty_server_is_counted_noop() {
        let p = packer(&[1_000, 1_000], PackPolicy::BestFit);
        p.place(D0, 1, 1, 100, 100).unwrap();
        let r = p.kill_server(ServerId { dc: D0, index: 1 });
        assert!(!r.already_dead);
        assert!(r.was_empty);
        assert!(r.rehomed.is_empty() && r.spilled.is_empty());
        assert_eq!(p.stats().server_deaths, 1);
        // killing it again is a pure no-op
        let r = p.kill_server(ServerId { dc: D0, index: 1 });
        assert!(r.already_dead);
        assert_eq!(p.stats().server_deaths, 1);
    }

    #[test]
    fn move_dc_preserves_frozen_flag() {
        let mut spec = FleetSpec::empty(2);
        spec.push_server(DcId(0), 1_000);
        spec.push_server(DcId(1), 1_000);
        let p = FleetPacker::new(spec, PackerConfig::default());
        p.place(DcId(0), 1, 2, 500, 500).unwrap();
        p.freeze(DcId(0), 1);
        let out = p.move_dc(DcId(0), DcId(1), 1);
        assert!(matches!(out, MoveDcOutcome::Moved(s) if s.dc == DcId(1)));
        let info = p.call_info(DcId(1), 1).unwrap();
        assert!(info.frozen);
        assert_eq!(info.cost_mcpu, 500);
        assert_eq!(p.stats().dc_moves, 1);
        assert!(p.server_of(DcId(0), 1).is_none());
    }

    #[test]
    fn restore_round_trip_matches_live_state() {
        let p = packer(&[1_000, 800], PackPolicy::GrowthAware);
        p.place(D0, 1, 1, 300, 600).unwrap();
        p.place(D0, 2, 1, 400, 500).unwrap();
        p.freeze(D0, 2);
        p.grow(D0, 1, 2, 500, 700);
        let live = p.export_state();

        let q = packer(&[1_000, 800], PackPolicy::GrowthAware);
        for (dc, calls) in live.calls.iter().enumerate() {
            for &(id, server, participants, cost, reserve, frozen) in calls {
                q.restore_set(
                    DcId(dc as u16),
                    id,
                    server,
                    participants,
                    cost,
                    reserve,
                    frozen,
                );
            }
        }
        assert_eq!(q.export_state(), live);
        assert_eq!(q.capacity_violations(), 0);
    }

    #[test]
    fn stats_and_tallies_accumulate() {
        let p = packer(&[1_000], PackPolicy::BestFit);
        p.place(D0, 1, 1, 300, 300).unwrap();
        p.place(D0, 2, 1, 300, 300).unwrap();
        p.remove(D0, 1);
        p.place(D0, 3, 1, 300, 300).unwrap();
        let s = p.stats();
        assert_eq!(s.placed, 3);
        assert_eq!(s.removed, 1);
        assert_eq!(p.per_server_placed(), vec![3]);
        assert_eq!(p.per_server_peak_mcpu(), vec![600]);
        assert!(p.utilization() > 0.0);
    }

    #[test]
    fn restore_set_rewrites_a_known_call_in_place() {
        let p = packer(&[1_000, 1_000], PackPolicy::GrowthAware);
        p.restore_set(D0, 1, 0, 2, 300, 500, false);
        // same server, new charge; then another server; then cleared
        p.restore_set(D0, 1, 0, 3, 400, 700, true);
        let ex = p.export_state();
        assert_eq!(ex.calls[0], vec![(1, 0, 3, 400, 700, true)]);
        assert_eq!(
            (ex.servers[0][0].used_mcpu, ex.servers[0][0].reserved_mcpu),
            (400, 700)
        );
        p.restore_set(D0, 1, 1, 3, 450, 800, true);
        let ex = p.export_state();
        assert_eq!(ex.calls[0], vec![(1, 1, 3, 450, 800, true)]);
        assert_eq!(
            (ex.servers[0][0].used_mcpu, ex.servers[0][0].reserved_mcpu),
            (0, 0)
        );
        assert_eq!(
            (ex.servers[0][1].used_mcpu, ex.servers[0][1].reserved_mcpu),
            (450, 800)
        );
        p.restore_remove(D0, 1);
        assert_eq!(
            p.export_state(),
            packer(&[1_000, 1_000], PackPolicy::GrowthAware).export_state()
        );
        // restore mode tracks no peaks
        assert_eq!(p.per_server_peak_mcpu(), vec![0, 0]);
    }

    #[test]
    fn one_pass_fit_matches_two_pass_reference_over_random_ops() {
        // `fit` asserts against `fit_two_pass` on every call under
        // cfg(test); this drives it through placements, forced and
        // proactive moves (`exclude`, `preferred_only`), evictions, DC
        // moves and death drains on crowded two-DC fleets.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut seen = PackStats::default();
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut spec = FleetSpec::empty(2);
            for d in 0..2 {
                for _ in 0..rng.gen_range(2..9) {
                    spec.push_server(DcId(d), rng.gen_range(600..6_000u32));
                }
            }
            let policy = if seed % 2 == 0 {
                PackPolicy::GrowthAware
            } else {
                PackPolicy::BestFit
            };
            let p = FleetPacker::new(
                spec,
                PackerConfig {
                    policy,
                    hysteresis_mcpu: 200,
                    max_evictions: 3,
                },
            );
            let cost = CostModel::default();
            let mut live: Vec<(u64, DcId, u32)> = Vec::new();
            for call in 0..400u64 {
                let dc = DcId(rng.gen_range(0..2));
                let parts = rng.gen_range(1..6);
                let c = cost.cost_mcpu(parts);
                if p.place(dc, call, parts, c, c + rng.gen_range(0..1_500u32))
                    .is_some()
                {
                    live.push((call, dc, parts));
                }
                if live.is_empty() {
                    continue;
                }
                let pick = rng.gen_range(0..live.len());
                let (id, at, parts) = live[pick];
                match rng.gen_range(0..10) {
                    0..=4 => {
                        let c = cost.cost_mcpu(parts + 1);
                        let out = p.grow(at, id, parts + 1, c, c + rng.gen_range(0..1_500u32));
                        if !matches!(out.kind, GrowKind::Rejected) {
                            live[pick].2 = parts + 1;
                        }
                    }
                    5 | 6 => {
                        p.freeze(at, id);
                    }
                    7 => {
                        let to = DcId(1 - at.0);
                        match p.move_dc(at, to, id) {
                            MoveDcOutcome::Moved(_) => live[pick].1 = to,
                            _ => {
                                live.swap_remove(pick);
                            }
                        }
                    }
                    8 => {
                        p.remove(at, id);
                        live.swap_remove(pick);
                    }
                    _ if call % 40 == 0 => {
                        let index = rng.gen_range(0..p.spec().servers_in(at)) as u16;
                        let r = p.kill_server(ServerId { dc: at, index });
                        live.retain(|&(c, _, _)| r.spilled.iter().all(|s| s.call != c));
                    }
                    _ => {}
                }
            }
            assert_eq!(p.capacity_violations(), 0);
            seen.add(&p.stats());
        }
        // every caller of `fit` was reached
        assert!(seen.placed > 0 && seen.placement_failures > 0);
        assert!(seen.repacks > 0 && seen.proactive_repacks > 0 && seen.evictions > 0);
        assert!(seen.dc_moves > 0 && seen.death_rehomes > 0 && seen.grow_rejections > 0);
    }

    #[test]
    fn best_fit_decreasing_baseline() {
        // items 6,5,4,3 onto caps 10,10,10 → BFD: 6+4, 5+3 → 2 servers
        let (servers, dropped) = best_fit_decreasing(&[10, 10, 10], &[4, 6, 3, 5]);
        assert_eq!((servers, dropped), (2, 0));
        let (_, dropped) = best_fit_decreasing(&[4], &[5, 3]);
        assert_eq!(dropped, 1);
    }
}
