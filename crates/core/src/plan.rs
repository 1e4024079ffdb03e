//! Versioned allocation-plan lifecycle: plan **artifacts**, plan **deltas**,
//! and warm incremental **re-planning**.
//!
//! The paper's controller is a loop (§5.3 → §5.4 → §6.3): a daily allocation
//! plan feeds the real-time selector, and the plan is refreshed when
//! forecasts drift or failures change the topology. This module makes a plan
//! a first-class value:
//!
//! * [`PlanArtifact`] — an immutable, versioned snapshot of one plan epoch:
//!   the fractional shares, the rounded per-DC quotas, and provenance
//!   (scenario planned against, solve statistics, the slot the re-plan
//!   started from). Installed into a selector with
//!   [`crate::RealtimeSelector::install_plan`], persisted with
//!   [`PlanArtifact::to_ndjson`] — the one plan format, which the engine's
//!   journal, its recovery and its operator `install` all read.
//! * [`PlanDelta`] — the per-`(config, slot, DC)` quota diff between two
//!   artifacts, and the migration set it implies.
//! * [`SlotPlanner`] — the incremental re-planner. The allocation LP (Eq.
//!   10) decomposes per slot because capacities are constants; the planner
//!   keeps one patch-in-place LP per slot (the `SweepModel` idiom from the
//!   provisioning sweep) plus each slot's last solve — its inputs, its
//!   shares and the optimal [`Basis`] it ended on. So
//!   [`SlotPlanner::replan_from`] re-solves **only the remaining slots
//!   whose LP changed** (their demand moved, or the scenario did),
//!   warm-starting each from its last basis and recording per-slot
//!   [`SolveRung`] / warm-hit statistics; an unchanged slot takes the
//!   shares its last solve returned, which a re-solve would repeat bit for
//!   bit.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sb_lp::{Basis, GuardedSimplex, LpProblem, PreparedProblem, SolveRung, Var};
use sb_net::{DcId, LinkId, ProvisionedCapacity};
use sb_obs::Value;
use sb_workload::{ConfigId, DemandMatrix};

use crate::formulation::{
    placement_grid, placements_under, NetworkRow, Placement, PlacementGrid, PlanningInputs,
    ProvisionError, ScenarioData, SolveOptions,
};
use crate::realtime::PlannedQuotas;
use crate::shares::AllocationShares;
use crate::usage::for_each_link_load;

/// Where a plan came from: the scenario it was solved against and the
/// solve-effort statistics of the (re-)plan that produced it. Every field is
/// a function of the solve's inputs, so the same re-plan persists to the
/// same bytes; its wall time is [`ReplanReport::wall`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanProvenance {
    /// Debug rendering of the [`sb_net::FailureScenario`] planned against.
    pub scenario: String,
    /// First slot re-solved by the producing re-plan (0 for a full plan).
    pub built_at_slot: usize,
    /// Slots whose warm start was accepted by the engine.
    pub warm_slots: u32,
    /// Slots solved cold (no basis, or basis rejected).
    pub cold_slots: u32,
    /// Slots not re-solved: copied from the previous epoch (before
    /// `built_at_slot`) or from their unchanged last solve.
    pub copied_slots: u32,
    /// Total simplex iterations across re-solved slots.
    pub total_iterations: u64,
}

impl Default for PlanProvenance {
    fn default() -> Self {
        PlanProvenance {
            scenario: "None".to_string(),
            built_at_slot: 0,
            warm_slots: 0,
            cold_slots: 0,
            copied_slots: 0,
            total_iterations: 0,
        }
    }
}

/// One immutable, versioned allocation plan: what the selector consumes
/// ([`PlanArtifact::quotas`]), what produced it ([`PlanArtifact::shares`]
/// and [`PlanArtifact::provenance`]), and its position in the epoch
/// sequence.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanArtifact {
    /// Monotone plan version; selectors start at epoch 0.
    pub epoch: u64,
    /// The fractional `S_tcx` this plan was rounded from.
    pub shares: AllocationShares,
    /// Integer per-DC quotas per `(config, slot)` (largest-remainder
    /// rounding of `shares × demand`).
    pub quotas: PlannedQuotas,
    /// Scenario + solve-stats provenance.
    pub provenance: PlanProvenance,
}

impl PlanArtifact {
    /// Assemble an artifact from parts.
    pub fn new(
        epoch: u64,
        shares: AllocationShares,
        quotas: PlannedQuotas,
        provenance: PlanProvenance,
    ) -> PlanArtifact {
        PlanArtifact {
            epoch,
            shares,
            quotas,
            provenance,
        }
    }

    /// The same plan stamped with a different epoch.
    pub fn with_epoch(mut self, epoch: u64) -> PlanArtifact {
        self.epoch = epoch;
        self
    }

    /// Wrap bare quotas as an epoch-0 artifact with empty shares and
    /// default provenance — the seed plan a selector boots from when no LP
    /// solve produced the quotas (tests, baselines, hand-written plans).
    pub fn seed(quotas: PlannedQuotas) -> PlanArtifact {
        PlanArtifact::new(
            0,
            AllocationShares::new(quotas.num_slots()),
            quotas,
            PlanProvenance::default(),
        )
    }
}

/// One quota change between two plan epochs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuotaChange {
    /// Config whose pool changed.
    pub config: ConfigId,
    /// Slot whose pool changed.
    pub slot: usize,
    /// DC whose quota changed.
    pub dc: DcId,
    /// Quota in the old plan (0 when the entry is new).
    pub before: u32,
    /// Quota in the new plan (0 when the entry was dropped).
    pub after: u32,
}

/// Per-`(config, slot, DC)` quota diff between two [`PlanArtifact`]s,
/// sorted by `(config, slot, dc)`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PlanDelta {
    /// Entries whose quota differs between the two plans.
    pub changes: Vec<QuotaChange>,
}

impl PlanDelta {
    /// Diff two artifacts' quotas.
    pub fn between(old: &PlanArtifact, new: &PlanArtifact) -> PlanDelta {
        let mut merged: HashMap<(ConfigId, usize, DcId), (u32, u32)> = HashMap::new();
        for (key, entries) in old.quotas.iter() {
            for &(dc, n) in entries {
                merged.entry((key.0, key.1, dc)).or_insert((0, 0)).0 += n;
            }
        }
        for (key, entries) in new.quotas.iter() {
            for &(dc, n) in entries {
                merged.entry((key.0, key.1, dc)).or_insert((0, 0)).1 += n;
            }
        }
        let mut changes: Vec<QuotaChange> = merged
            .into_iter()
            .filter(|&(_, (b, a))| b != a)
            .map(|((config, slot, dc), (before, after))| QuotaChange {
                config,
                slot,
                dc,
                before,
                after,
            })
            .collect();
        changes.sort_unstable_by_key(|c| (c.config.index(), c.slot, c.dc.index()));
        PlanDelta { changes }
    }

    /// No quota changed.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// Number of changed entries.
    pub fn len(&self) -> usize {
        self.changes.len()
    }

    /// Calls the delta implies must move: for every entry whose quota
    /// shrank, the lost quota is demand the new plan places elsewhere
    /// (Σ max(0, before − after)).
    pub fn implied_migrations(&self) -> u64 {
        self.changes
            .iter()
            .map(|c| c.before.saturating_sub(c.after) as u64)
            .sum()
    }

    /// Record this delta's implied migration count into the `plan.*`
    /// metrics (`plan.delta_migrations`).
    pub fn record(&self) {
        crate::metrics::plan_metrics()
            .delta_migrations
            .add(self.implied_migrations());
    }
}

// ---------------------------------------------------------------------------
// Incremental re-planner
// ---------------------------------------------------------------------------

/// Per-slot solve outcome of one (re-)plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotSolveInfo {
    /// Slot index.
    pub slot: usize,
    /// Not re-solved: copied from the previous epoch (slot < `from_slot`),
    /// or taken from the slot's last solve because its LP is unchanged.
    pub copied: bool,
    /// Warm start accepted by the engine (re-solved slots only).
    pub warm_started: bool,
    /// Engine rung that produced the solve; `None` for copied slots.
    pub rung: Option<SolveRung>,
    /// Simplex iterations (0 for copied slots).
    pub iterations: u64,
    /// Wall time of this slot's patch + solve, nanoseconds (0 for copied
    /// slots).
    pub wall_ns: u64,
}

impl SlotSolveInfo {
    /// A slot this (re-)plan did not re-solve.
    fn not_solved(slot: usize) -> SlotSolveInfo {
        SlotSolveInfo {
            slot,
            copied: true,
            warm_started: false,
            rung: None,
            iterations: 0,
            wall_ns: 0,
        }
    }
}

/// What one [`SlotPlanner::replan_from`] (or
/// [`SlotPlanner::plan_initial`]) did: the artifact plus per-slot solve
/// statistics.
#[derive(Clone, Debug)]
pub struct ReplanReport {
    /// The plan produced.
    pub artifact: Arc<PlanArtifact>,
    /// One entry per slot touched (copied or re-solved).
    pub slots: Vec<SlotSolveInfo>,
    /// End-to-end wall time.
    pub wall: Duration,
}

impl ReplanReport {
    /// Slots not re-solved (copied from the previous epoch or from their
    /// unchanged last solve).
    pub fn copied_slots(&self) -> usize {
        self.slots.iter().filter(|s| s.copied).count()
    }

    /// Slots actually re-solved.
    pub fn solved_slots(&self) -> usize {
        self.slots.len() - self.copied_slots()
    }

    /// Re-solved slots whose warm start was accepted.
    pub fn warm_hits(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| !s.copied && s.warm_started)
            .count()
    }

    /// Warm hits over re-solved slots (0.0 when nothing was re-solved).
    pub fn warm_hit_rate(&self) -> f64 {
        let solved = self.solved_slots();
        if solved == 0 {
            0.0
        } else {
            self.warm_hits() as f64 / solved as f64
        }
    }
}

/// Capacity-row right-hand side: the provisioned value plus headroom against
/// round-off between the provisioning LP that produced it and the slot LPs.
fn slack(v: f64) -> f64 {
    v * (1.0 + 1e-7) + 1e-7
}

/// The two placement tables hold the same bits: every ACL, link and link
/// load equal, `-0.0` and `0.0` told apart.
fn same_placements(a: &[Vec<Option<Placement>>], b: &[Vec<Option<Placement>>]) -> bool {
    let same = |a: &Option<Placement>, b: &Option<Placement>| match (a, b) {
        (None, None) => true,
        (Some((acl_a, loads_a)), Some((acl_b, loads_b))) => {
            acl_a.to_bits() == acl_b.to_bits()
                && loads_a.len() == loads_b.len()
                && (loads_a.iter().zip(loads_b))
                    .all(|((la, wa), (lb, wb))| la == lb && wa.to_bits() == wb.to_bits())
        }
        _ => false,
    };
    a.len() == b.len()
        && (a.iter().zip(b))
            .all(|(a, b)| a.len() == b.len() && a.iter().zip(b).all(|(a, b)| same(a, b)))
}

/// Set one slot's shares from their flat form (`(config position, DC,
/// fraction)` in variable order, so each config's entries are adjacent).
fn set_slot_shares(
    shares: &mut AllocationShares,
    active: &PlacementGrid,
    slot: usize,
    flat: &[(usize, DcId, f64)],
) {
    for cfg in flat.chunk_by(|a, b| a.0 == b.0) {
        let fr = cfg.iter().map(|&(_, dc, f)| (dc, f)).collect();
        shares.set(active[cfg[0].0].0, slot, fr);
    }
}

/// One share variable of a slot LP.
#[derive(Clone, Copy, Debug)]
struct SlotVar {
    cfg_pos: usize,
    dc_pos: usize,
    var: Var,
}

/// The patch-in-place LP of one slot (the per-slot decomposition of Eq. 10
/// under fixed capacity). Structure — variables for every `(active config,
/// union-allowed DC)` pair, completeness rows, per-DC compute rows, per-link
/// network rows — is scenario-independent; a re-plan only patches numbers.
struct SlotModel {
    lp: LpProblem,
    prep: PreparedProblem,
    vars: Vec<SlotVar>,
    /// `(row, cfg_pos)` completeness equality per config in this slot.
    completeness: Vec<(usize, usize)>,
    /// `(row, dc)` compute-capacity rows.
    compute_rows: Vec<(usize, DcId)>,
    /// `(row, link)` network-capacity rows (coefficients patched per
    /// scenario routing).
    network_rows: Vec<(usize, LinkId)>,
    /// `link.index()` → position in `network_rows`, `usize::MAX` if the
    /// link is outside the modeled union.
    net_pos: Vec<usize>,
    /// The basis the slot's last successful solve exported: the next
    /// solve's warm start. Kept when `last` is dropped.
    basis: Option<Basis>,
    /// The last successful solve, while the LP still holds its inputs:
    /// `None` before the first solve, after a failed one, and after a
    /// scenario change.
    last: Option<LastSolve>,
}

/// What a slot LP's last successful solve was given and what it returned.
/// A re-plan whose inputs match `demand` (under unchanged placements) takes
/// `shares` instead of re-solving: a re-solve would patch in the same
/// numbers, start from the basis that solve ended on and end there again
/// after 0 iterations, extracting the same bits. Without warm starts, the
/// same inputs alone make the (deterministic) cold solve repeat itself.
#[derive(Default)]
struct LastSolve {
    /// Demand of each of the slot's configs, in `completeness` order. With
    /// the re-plan's placements and the fixed capacity, these fix every
    /// bound, cost, right-hand side and coefficient the patch writes.
    demand: Vec<f64>,
    /// The shares extracted, in variable order: `(config position, DC,
    /// fraction of the config's demand)`.
    shares: Vec<(usize, DcId, f64)>,
}

/// Incremental re-planner for the per-slot allocation LP.
///
/// Built once per planning horizon from the scenarios you intend to re-plan
/// against (their union defines the modeled placements and network links —
/// pass at least the healthy scenario plus every failure you may re-plan
/// under; a healthy scenario's allowed sets are supersets of any failure's,
/// so including it covers latency-driven placements). Each
/// [`SlotPlanner::replan_from`] copies the shares of slots before
/// `from_slot` from the previous artifact. Of the slots from `from_slot`
/// on, it re-solves only those whose LP differs from the one it last
/// solved: their demand moved, or the scenario's placements did (which
/// makes every slot's last solve stale). Those are patched for the given
/// scenario and demand and warm-started from the basis their last solve
/// exported; every other slot takes its last solve's shares, which a
/// re-solve would return bit for bit.
pub struct SlotPlanner<'a> {
    inputs: PlanningInputs<'a>,
    capacity: ProvisionedCapacity,
    solver: GuardedSimplex,
    warm_start: bool,
    min_demand: f64,
    /// Configs with any demand: `(config, union allowed DCs)` in catalog
    /// order; DC order is first-seen across the build scenarios (stable).
    active: PlacementGrid,
    models: Vec<Option<SlotModel>>,
    /// Per `active` row, the placements the last (re-)plan patched under.
    placements: Vec<Vec<Option<Placement>>>,
}

impl<'a> SlotPlanner<'a> {
    /// Build the per-slot models over the union of `sds`' allowed
    /// placements. `capacity` is the fixed provisioned capacity every slot
    /// must fit in.
    pub fn new(
        inputs: &PlanningInputs<'a>,
        sds: &[ScenarioData],
        capacity: &ProvisionedCapacity,
        opts: &SolveOptions,
    ) -> SlotPlanner<'a> {
        let topo = inputs.topo;
        let demand = inputs.demand;
        let (active, _) = placement_grid(inputs, sds, opts.min_demand);
        // union of links any modeled placement can load under any scenario
        let mut link_used = vec![false; topo.links.len()];
        for sd in sds {
            for (cfg_id, dcs) in &active {
                let cfg = inputs.catalog.config(*cfg_id);
                for &dc in dcs {
                    for_each_link_load(&sd.routing, cfg, dc, 1.0, |l, _| {
                        link_used[l.index()] = true;
                    });
                }
            }
        }
        let mut models: Vec<Option<SlotModel>> = Vec::with_capacity(demand.num_slots());
        for slot in 0..demand.num_slots() {
            let slot_cfgs: Vec<usize> = active
                .iter()
                .enumerate()
                .filter(|(_, (cfg_id, _))| demand.get(*cfg_id, slot) > opts.min_demand)
                .map(|(i, _)| i)
                .collect();
            if slot_cfgs.is_empty() {
                models.push(None);
                continue;
            }
            let mut lp = LpProblem::new();
            let mut vars: Vec<SlotVar> = Vec::new();
            let mut completeness: Vec<(usize, usize)> = Vec::new();
            let mut compute_acc: Vec<Vec<(Var, f64)>> = vec![Vec::new(); topo.dcs.len()];
            for &cfg_pos in &slot_cfgs {
                let (cfg_id, dcs) = &active[cfg_pos];
                let cfg = inputs.catalog.config(*cfg_id);
                let cl = cfg.compute_load();
                let d = demand.get(*cfg_id, slot);
                let mut comp = Vec::with_capacity(dcs.len());
                for (dc_pos, &dc) in dcs.iter().enumerate() {
                    // no box of its own: the completeness row below with
                    // `S ≥ 0` already bounds the share by `d`
                    let v = lp.add_nonneg(format!("S_{}_{}", cfg_id.index(), dc.index()), 0.0);
                    comp.push((v, 1.0));
                    compute_acc[dc.index()].push((v, cl));
                    vars.push(SlotVar {
                        cfg_pos,
                        dc_pos,
                        var: v,
                    });
                }
                let row = lp.add_eq(comp, d);
                completeness.push((row, cfg_pos));
            }
            let mut compute_rows: Vec<(usize, DcId)> = Vec::new();
            for dc in topo.dc_ids() {
                let acc = std::mem::take(&mut compute_acc[dc.index()]);
                if !acc.is_empty() {
                    let row = lp.add_le(acc, slack(capacity.cores[dc.index()]));
                    compute_rows.push((row, dc));
                }
            }
            let mut network_rows: Vec<(usize, LinkId)> = Vec::new();
            let mut net_pos = vec![usize::MAX; topo.links.len()];
            for l in topo.link_ids() {
                if !link_used[l.index()] {
                    continue;
                }
                // coefficients are scenario-routing-dependent and patched
                // before every solve; start empty
                let row = lp.add_le(Vec::new(), slack(capacity.gbps[l.index()]));
                net_pos[l.index()] = network_rows.len();
                network_rows.push((row, l));
            }
            let prep = PreparedProblem::new(&lp);
            models.push(Some(SlotModel {
                lp,
                prep,
                vars,
                completeness,
                compute_rows,
                network_rows,
                net_pos,
                basis: None,
                last: None,
            }));
        }
        SlotPlanner {
            inputs: *inputs,
            capacity: capacity.clone(),
            solver: opts.guarded(),
            warm_start: opts.warm_start,
            min_demand: opts.min_demand,
            active,
            models,
            placements: Vec::new(),
        }
    }

    /// Eq. 6 as the slot LPs state it for the scenario last planned: every
    /// modeled `(slot, link)` row with the Gbps it charges per call of each
    /// `(config, DC)` placement. A model-inspection view: tests hold it
    /// against [`crate::usage::compute_usage`] of the plan's shares.
    pub fn network_rows(&self) -> Vec<NetworkRow> {
        let mut rows = Vec::new();
        for (slot, m) in self.models.iter().enumerate() {
            let Some(m) = m else { continue };
            for &(row, link) in &m.network_rows {
                let terms = m.lp.rows()[row].coeffs.iter().map(|&(v, w)| {
                    let sv = m.vars[v.index()];
                    let (cfg, dcs) = &self.active[sv.cfg_pos];
                    (*cfg, dcs[sv.dc_pos], w)
                });
                rows.push((slot, link, terms.collect()));
            }
        }
        rows
    }

    /// Full plan for `sd` (epoch 1, all slots solved cold on the first
    /// call). Seeds the per-slot last solves for later incremental
    /// re-plans.
    pub fn plan_initial(&mut self, sd: &ScenarioData) -> Result<ReplanReport, ProvisionError> {
        self.replan(None, 0, sd, None)
    }

    /// Incrementally re-plan from `prev`: slots before `from_slot` are
    /// copied verbatim. Each slot `from_slot..` whose LP under `sd` (and
    /// `demand_override` if the forecast drifted — must share the base
    /// demand's slot geometry) differs from the one it last solved is
    /// patched and re-solved warm from that solve's exported basis; the
    /// others keep their last solve's shares and count as copied. The
    /// result carries epoch `prev.epoch + 1`.
    pub fn replan_from(
        &mut self,
        prev: &PlanArtifact,
        from_slot: usize,
        sd: &ScenarioData,
        demand_override: Option<&DemandMatrix>,
    ) -> Result<ReplanReport, ProvisionError> {
        self.replan(Some(prev), from_slot, sd, demand_override)
    }

    fn replan(
        &mut self,
        prev: Option<&PlanArtifact>,
        from_slot: usize,
        sd: &ScenarioData,
        demand_override: Option<&DemandMatrix>,
    ) -> Result<ReplanReport, ProvisionError> {
        let m = crate::metrics::plan_metrics();
        let wall_start = Instant::now();
        let demand = demand_override.unwrap_or(self.inputs.demand);
        let epoch = prev.map(|p| p.epoch + 1).unwrap_or(1);
        let num_slots = self.inputs.demand.num_slots();
        let from_slot = from_slot.min(num_slots);
        let mut shares = AllocationShares::new(num_slots);
        let mut slots_info: Vec<SlotSolveInfo> = Vec::new();

        // copy the already-elapsed slots from the previous epoch
        if let Some(prev) = prev {
            for (cfg, slot, fr) in prev.shares.iter() {
                if slot < from_slot {
                    shares.set(cfg, slot, fr.to_vec());
                }
            }
            slots_info.extend((0..from_slot).map(SlotSolveInfo::not_solved));
        }

        // scenario-dependent data shared by every slot: per (config, DC)
        // ACL and link loads under sd. Placements that differ from the
        // last re-plan's change every slot's LP.
        let placements: Vec<_> = (self.active.iter())
            .map(|(cfg_id, dcs)| {
                let cfg = self.inputs.catalog.config(*cfg_id);
                placements_under(sd, cfg, dcs, self.inputs.latency_threshold_ms)
            })
            .collect();
        if !same_placements(&placements, &self.placements) {
            for model in self.models.iter_mut().flatten() {
                model.last = None;
            }
            self.placements = placements;
        }
        let placements = &self.placements;

        let obs_on = sb_obs::global().enabled();
        for slot in from_slot..num_slots {
            let Some(model) = self.models[slot].as_mut() else {
                continue; // no demand in this slot at build time
            };
            let slot_demand =
                |&(_, cfg_pos): &(usize, usize)| demand.get(self.active[cfg_pos].0, slot);
            let unchanged = |last: &&LastSolve| {
                (model.completeness.iter().map(slot_demand))
                    .zip(&last.demand)
                    .all(|(d, last_d)| d.to_bits() == last_d.to_bits())
            };
            if let Some(last) = model.last.as_ref().filter(unchanged) {
                set_slot_shares(&mut shares, &self.active, slot, &last.shares);
                slots_info.push(SlotSolveInfo::not_solved(slot));
                continue;
            }
            // taken: a failed solve leaves the slot without a last solve,
            // so the next re-plan solves it again
            let mut last = model.last.take().unwrap_or_default();
            last.demand.clear();
            last.demand
                .extend(model.completeness.iter().map(slot_demand));
            let slot_start = Instant::now();
            // patch share variables and collect network coefficients
            let mut net_coeffs: Vec<Vec<(Var, f64)>> = vec![Vec::new(); model.network_rows.len()];
            let mut cfg_rhs = vec![0.0f64; self.active.len()];
            for v in &model.vars {
                let (cfg_id, _) = self.active[v.cfg_pos];
                let d = demand.get(cfg_id, slot);
                match &placements[v.cfg_pos][v.dc_pos] {
                    Some((acl, loads)) if d > self.min_demand => {
                        // Eq. 9 bounds the share by `d`; only a forbidden
                        // placement gets a box (the 0-pin below)
                        model.lp.set_var_upper(v.var, f64::INFINITY);
                        model.lp.set_var_cost(v.var, *acl);
                        cfg_rhs[v.cfg_pos] = d;
                        for &(l, w) in loads {
                            let pos = model.net_pos[l.index()];
                            // links outside the build-time union are not
                            // modeled (pass every re-plan scenario to
                            // `SlotPlanner::new` to avoid this)
                            if pos != usize::MAX {
                                net_coeffs[pos].push((v.var, w));
                            }
                        }
                    }
                    _ => {
                        model.lp.set_var_upper(v.var, 0.0);
                        model.lp.set_var_cost(v.var, 0.0);
                    }
                }
            }
            for &(row, cfg_pos) in &model.completeness {
                model.lp.set_rhs(row, cfg_rhs[cfg_pos]);
            }
            for &(row, dc) in &model.compute_rows {
                model
                    .lp
                    .set_rhs(row, slack(self.capacity.cores[dc.index()]));
            }
            for (pos, &(row, l)) in model.network_rows.iter().enumerate() {
                model
                    .lp
                    .set_row_coeffs(row, std::mem::take(&mut net_coeffs[pos]));
                model.lp.set_rhs(row, slack(self.capacity.gbps[l.index()]));
            }
            let _ = model.prep.refresh(&model.lp);
            let warm = if self.warm_start {
                model.basis.as_ref()
            } else {
                None
            };
            let sol = self
                .solver
                .solve_prepared(&model.lp, &model.prep, warm)
                .map_err(|source| {
                    m.replan_failures.inc();
                    ProvisionError::Lp {
                        scenario: sd.scenario,
                        source,
                    }
                })?;
            // extract shares in variable order (stable across identical
            // re-plans — entry order is selector-tie-breaking-relevant)
            last.shares.clear();
            for v in &model.vars {
                let d = cfg_rhs[v.cfg_pos];
                if d <= 0.0 {
                    continue;
                }
                let val = sol.value(v.var).max(0.0);
                if val > 1e-9 * d.max(1.0) {
                    let dc = self.active[v.cfg_pos].1[v.dc_pos];
                    last.shares.push((v.cfg_pos, dc, val / d));
                }
            }
            set_slot_shares(&mut shares, &self.active, slot, &last.shares);
            let stats = sol.stats();
            model.basis = sol.basis().cloned();
            model.last = Some(last);
            let wall_ns = u64::try_from(slot_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            if stats.warm_started {
                m.warm_slots.inc();
            } else {
                m.cold_slots.inc();
            }
            if obs_on {
                m.slot_solves.push(vec![
                    Value::from(epoch),
                    Value::from(slot),
                    Value::from(u64::from(stats.warm_started)),
                    Value::from(stats.rung.to_string()),
                    Value::from(wall_ns),
                ]);
            }
            slots_info.push(SlotSolveInfo {
                slot,
                copied: false,
                warm_started: stats.warm_started,
                rung: Some(stats.rung),
                iterations: sol.iterations(),
                wall_ns,
            });
        }

        let quotas = PlannedQuotas::from_plan(&shares, demand);
        let wall = wall_start.elapsed();
        m.replan_wall_ns.record_duration(wall);
        let provenance = PlanProvenance {
            scenario: format!("{:?}", sd.scenario),
            built_at_slot: from_slot,
            warm_slots: slots_info
                .iter()
                .filter(|s| !s.copied && s.warm_started)
                .count() as u32,
            cold_slots: slots_info
                .iter()
                .filter(|s| !s.copied && !s.warm_started)
                .count() as u32,
            copied_slots: slots_info.iter().filter(|s| s.copied).count() as u32,
            total_iterations: slots_info.iter().map(|s| s.iterations).sum(),
        };
        let artifact = Arc::new(PlanArtifact {
            epoch,
            shares,
            quotas,
            provenance,
        });
        Ok(ReplanReport {
            artifact,
            slots: slots_info,
            wall,
        })
    }
}

// ---------------------------------------------------------------------------
// Persistence (NDJSON)
// ---------------------------------------------------------------------------

/// A persisted plan failed to parse, or names a DC its topology lacks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanParseError(pub String);

impl std::fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed plan artifact: {}", self.0)
    }
}

impl std::error::Error for PlanParseError {}

/// The most slots a parsed plan may span. A share table keeps one list per
/// slot for every config it names, so an unchecked `num_slots` from outside
/// the process sizes an allocation. The longest plan the workspace writes
/// spans 336 slots (28 days of two-hour slots, or 7 days of 30-minute
/// ones); 4096 leaves 12× headroom.
pub const MAX_PLAN_SLOTS: usize = 4096;

fn err(msg: impl Into<String>) -> PlanParseError {
    PlanParseError(msg.into())
}

/// One export row: `(config, slot, dc, share, quota)`, one per
/// `(config, slot, dc)` entry in plan order — share is `None` for
/// quota-only pools, quota is `None` where the slot's demand rounded to zero
/// and no quota pool exists (both are written as `-`).
type PlanRow = (usize, usize, usize, Option<f64>, Option<u32>);

/// Visit the export rows. Row order: pools sorted by `(config, slot)`,
/// entries within a pool in plan order (the order is part of the selector's
/// tie-breaking behavior and must survive a round-trip).
fn for_each_export_row<R: FnMut(PlanRow)>(artifact: &PlanArtifact, mut row: R) {
    type Pool<'a> = (ConfigId, usize, &'a [(DcId, f64)]);
    let mut pools: Vec<Pool<'_>> = artifact.shares.iter().collect();
    pools.sort_by_key(|&(cfg, slot, _)| (cfg.index(), slot));
    // Pools that exist only as quotas (seed artifacts carry no shares) are
    // exported as quota-only rows (`share` = "-"), so a round-trip never
    // silently drops quota.
    let mut quota_only: Vec<(ConfigId, usize)> = artifact
        .quotas
        .iter()
        .filter(|&((cfg, slot), _)| artifact.shares.get(cfg, slot).is_empty())
        .map(|(k, _)| k)
        .collect();
    quota_only.sort_by_key(|&(cfg, slot)| (cfg.index(), slot));
    let mut quota_only = quota_only.into_iter().peekable();
    let emit_quota_only = |row: &mut R, cfg: ConfigId, slot: usize| {
        for &(dc, n) in artifact.quotas.get(cfg, slot) {
            row((cfg.index(), slot, dc.index(), None, Some(n)));
        }
    };
    for (cfg, slot, fracs) in pools {
        // interleave pending quota-only pools that sort before this one so
        // row order stays sorted by (config, slot)
        while quota_only
            .peek()
            .is_some_and(|&(qc, qs)| (qc.index(), qs) < (cfg.index(), slot))
        {
            let (qc, qs) = quota_only.next().unwrap_or((cfg, slot));
            emit_quota_only(&mut row, qc, qs);
        }
        let counts = artifact.quotas.get(cfg, slot);
        for (i, &(dc, share)) in fracs.iter().enumerate() {
            let quota = counts
                .iter()
                .enumerate()
                .find(|&(j, &(qdc, _))| qdc == dc && (counts.len() != fracs.len() || j == i))
                .map(|(_, &(_, n))| n);
            row((cfg.index(), slot, dc.index(), Some(share), quota));
        }
    }
    for (qc, qs) in quota_only {
        emit_quota_only(&mut row, qc, qs);
    }
}

struct MetaFields {
    epoch: u64,
    slot_minutes: u32,
    start_minute: u64,
    num_slots: usize,
    provenance: PlanProvenance,
}

fn rebuild(meta: MetaFields, rows: Vec<PlanRow>) -> Result<PlanArtifact, PlanParseError> {
    let mut shares = AllocationShares::new(meta.num_slots);
    let mut quotas: HashMap<(ConfigId, usize), Vec<(DcId, u32)>> = HashMap::new();
    let mut i = 0usize;
    while i < rows.len() {
        let (cfg, slot, _, _, _) = rows[i];
        if slot >= meta.num_slots {
            return Err(err(format!("slot {slot} out of range")));
        }
        let cfg_id = ConfigId(u32::try_from(cfg).map_err(|_| err("config id out of range"))?);
        let mut fracs: Vec<(DcId, f64)> = Vec::new();
        let mut counts: Vec<(DcId, u32)> = Vec::new();
        let mut in_plan = false;
        while i < rows.len() && rows[i].0 == cfg && rows[i].1 == slot {
            let (_, _, dc, share, quota) = rows[i];
            let dc = DcId(u16::try_from(dc).map_err(|_| err("dc id out of range"))?);
            if let Some(s) = share {
                fracs.push((dc, s));
            }
            if let Some(q) = quota {
                in_plan = true;
                counts.push((dc, q));
            } else {
                counts.push((dc, 0));
            }
            i += 1;
        }
        if !fracs.is_empty() {
            shares.set(cfg_id, slot, fracs);
        }
        if in_plan {
            quotas.insert((cfg_id, slot), counts);
        }
    }
    let quotas =
        PlannedQuotas::from_parts(meta.slot_minutes, meta.start_minute, meta.num_slots, quotas);
    Ok(PlanArtifact {
        epoch: meta.epoch,
        shares,
        quotas,
        provenance: meta.provenance,
    })
}

impl PlanArtifact {
    /// This plan, if every DC it names — in its quotas and its shares — is
    /// one of the `num_dcs` DCs of the topology it is about to serve. A plan
    /// from outside the process (an operator's `install`, a recovered
    /// journal) passes this one range check before a selector indexes
    /// per-DC state by its entries.
    pub fn check_dcs(self, num_dcs: usize) -> Result<PlanArtifact, PlanParseError> {
        let quota_dcs = (self.quotas.iter()).flat_map(|(_, e)| e.iter().map(|&(dc, _)| dc));
        let share_dcs = (self.shares.iter()).flat_map(|(_, _, f)| f.iter().map(|&(dc, _)| dc));
        let unknown = quota_dcs.chain(share_dcs).find(|dc| dc.index() >= num_dcs);
        match unknown {
            Some(dc) => Err(err(format!(
                "dc {} is not one of the topology's {num_dcs} DCs",
                dc.index()
            ))),
            None => Ok(self),
        }
    }

    /// The `{"plan":{…}}` metadata line of the NDJSON form.
    fn ndjson_meta_line(&self) -> String {
        let (q, p) = (&self.quotas, &self.provenance);
        let scenario = p.scenario.replace('\\', "\\\\").replace('"', "\\\"");
        format!(
            concat!(
                r#"{{"plan":{{"epoch":{},"slot_minutes":{},"start_minute":{},"#,
                r#""num_slots":{},"built_at_slot":{},"#,
                r#""warm_slots":{},"cold_slots":{},"copied_slots":{},"#,
                r#""total_iterations":{},"scenario":"{}"}}}}"#,
                "\n"
            ),
            self.epoch,
            q.slot_minutes(),
            q.start_minute(),
            q.num_slots(),
            p.built_at_slot,
            p.warm_slots,
            p.cold_slots,
            p.copied_slots,
            p.total_iterations,
            scenario,
        )
    }

    /// Serialize as NDJSON: a `{"plan":{…}}` metadata object followed by
    /// one `{"config","slot","dc","share","quota"}` object per export row.
    /// Shares use Rust's shortest round-trip float formatting, so
    /// [`PlanArtifact::from_ndjson`] reconstructs them exactly. The rows are
    /// written straight into the output — byte for byte what the sb-obs
    /// table renderer produces for them, without a `Vec<Value>` per row and
    /// a `String` per cell.
    pub fn to_ndjson(&self) -> String {
        let mut out = Vec::new();
        self.write_ndjson(&mut out);
        String::from_utf8(out).expect("the NDJSON writer writes only `str` pieces")
    }

    /// Append [`PlanArtifact::to_ndjson`]'s bytes to `out`. An engine frames
    /// a plan install's journal record this way, with no `String` between
    /// the plan and the frame.
    pub fn write_ndjson(&self, out: &mut Vec<u8>) {
        use std::io::Write;
        out.extend_from_slice(self.ndjson_meta_line().as_bytes());
        for_each_export_row(self, |(cfg, slot, dc, share, quota)| {
            // writing to a Vec cannot fail
            let _ = write!(out, r#"{{"config":{cfg},"slot":{slot},"dc":{dc},"share":"#);
            let _ = match share {
                Some(x) if x.is_finite() => write!(out, "{x}"),
                Some(_) => out.write_all(b"null"),
                None => out.write_all(br#""-""#),
            };
            out.extend_from_slice(br#","quota":"#);
            let _ = match quota {
                Some(n) => write!(out, "{n}"),
                None => out.write_all(br#""-""#),
            };
            out.extend_from_slice(b"}\n");
        });
    }

    /// Parse an artifact previously written by [`PlanArtifact::to_ndjson`].
    /// Keys the writer no longer emits (`solve_wall_ns`) are ignored. A zero
    /// slot width, more than [`MAX_PLAN_SLOTS`] slots and a non-finite share
    /// are refused before anything is built; DC ids are checked
    /// against a topology by [`PlanArtifact::check_dcs`].
    pub fn from_ndjson(s: &str) -> Result<PlanArtifact, PlanParseError> {
        let mut lines = s.lines();
        let meta_line = lines.next().ok_or_else(|| err("empty input"))?;
        if !meta_line.starts_with(r#"{"plan":"#) {
            return Err(err("missing {\"plan\":…} metadata line"));
        }
        fn raw_field(line: &str, key: &str) -> Result<String, PlanParseError> {
            let pat = format!("\"{key}\":");
            let at = line
                .find(&pat)
                .ok_or_else(|| err(format!("missing field {key}")))?;
            let rest = &line[at + pat.len()..];
            if let Some(body) = rest.strip_prefix('"') {
                // string value with \" and \\ escapes
                let mut out = String::new();
                let mut chars = body.chars();
                while let Some(c) = chars.next() {
                    match c {
                        '\\' => match chars.next() {
                            Some(e) => out.push(e),
                            None => return Err(err(format!("unterminated string for {key}"))),
                        },
                        '"' => return Ok(out),
                        c => out.push(c),
                    }
                }
                Err(err(format!("unterminated string for {key}")))
            } else {
                let end = rest
                    .find([',', '}'])
                    .ok_or_else(|| err(format!("unterminated value for {key}")))?;
                Ok(rest[..end].to_string())
            }
        }
        fn num_field<T: std::str::FromStr>(line: &str, key: &str) -> Result<T, PlanParseError> {
            raw_field(line, key)?
                .parse()
                .map_err(|_| err(format!("bad value for field {key}")))
        }
        let meta = MetaFields {
            epoch: num_field(meta_line, "epoch")?,
            slot_minutes: num_field(meta_line, "slot_minutes")?,
            start_minute: num_field(meta_line, "start_minute")?,
            num_slots: num_field(meta_line, "num_slots")?,
            provenance: PlanProvenance {
                scenario: raw_field(meta_line, "scenario")?,
                built_at_slot: num_field(meta_line, "built_at_slot")?,
                warm_slots: num_field(meta_line, "warm_slots")?,
                cold_slots: num_field(meta_line, "cold_slots")?,
                copied_slots: num_field(meta_line, "copied_slots")?,
                total_iterations: num_field(meta_line, "total_iterations")?,
            },
        };
        if meta.slot_minutes == 0 {
            // every minute → slot lookup divides by it
            return Err(err("slot_minutes must be positive"));
        }
        if meta.num_slots > MAX_PLAN_SLOTS {
            return Err(err(format!(
                "num_slots {} exceeds {MAX_PLAN_SLOTS}",
                meta.num_slots
            )));
        }
        let mut rows = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let quota = match raw_field(line, "quota")?.as_str() {
                "-" => None,
                q => Some(q.parse().map_err(|_| err(format!("bad quota {q:?}")))?),
            };
            let share = match raw_field(line, "share")?.as_str() {
                "-" => None,
                s => match s.parse::<f64>() {
                    Ok(x) if x.is_finite() => Some(x),
                    _ => return Err(err(format!("bad share {s:?}"))),
                },
            };
            rows.push((
                num_field(line, "config")?,
                num_field(line, "slot")?,
                num_field(line, "dc")?,
                share,
                quota,
            ));
        }
        rebuild(meta, rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formulation::solve_scenario;
    use crate::usage::{compute_usage, placed_fraction};
    use sb_net::{FailureScenario, Topology};
    use sb_workload::{CallConfig, ConfigCatalog, MediaType};

    fn instance() -> (Topology, ConfigCatalog, DemandMatrix) {
        let topo = sb_net::presets::toy_three_dc();
        let jp = topo.country_by_name("JP");
        let iin = topo.country_by_name("IN");
        let mut cat = ConfigCatalog::new();
        let c_jp = cat.intern(CallConfig::new(vec![(jp, 2)], MediaType::Audio));
        let c_in = cat.intern(CallConfig::new(vec![(iin, 2)], MediaType::Audio));
        let mut demand = DemandMatrix::zero(2, 3, 30, 0);
        demand.set(c_jp, 0, 100.0);
        demand.set(c_jp, 1, 10.0);
        demand.set(c_jp, 2, 40.0);
        demand.set(c_in, 0, 10.0);
        demand.set(c_in, 1, 100.0);
        demand.set(c_in, 2, 40.0);
        (topo, cat, demand)
    }

    fn planner_world(
        topo: &Topology,
        cat: &ConfigCatalog,
        demand: &DemandMatrix,
    ) -> (ProvisionedCapacity, ScenarioData, ScenarioData) {
        let inputs = PlanningInputs::new(topo, cat, demand);
        let healthy = ScenarioData::compute(topo, FailureScenario::None);
        let prov = solve_scenario(&inputs, &healthy, None, &SolveOptions::default()).unwrap();
        // headroom so the DC-down re-plan stays feasible
        let capacity = ProvisionedCapacity {
            cores: prov.capacity.cores.iter().map(|c| c * 3.0 + 10.0).collect(),
            gbps: prov.capacity.gbps.iter().map(|g| g * 3.0 + 10.0).collect(),
        };
        let down = ScenarioData::compute(topo, FailureScenario::DcDown(DcId(0)));
        (capacity, healthy, down)
    }

    #[test]
    fn initial_plan_places_everything_within_capacity() {
        let (topo, cat, demand) = instance();
        let (capacity, healthy, down) = planner_world(&topo, &cat, &demand);
        let inputs = PlanningInputs::new(&topo, &cat, &demand);
        let mut planner = SlotPlanner::new(
            &inputs,
            &[healthy.clone(), down],
            &capacity,
            &SolveOptions::default(),
        );
        let report = planner.plan_initial(&healthy).unwrap();
        let plan = &report.artifact;
        assert_eq!(plan.epoch, 1);
        assert_eq!(report.copied_slots(), 0);
        assert_eq!(report.solved_slots(), 3);
        assert!((placed_fraction(&demand, &plan.shares) - 1.0).abs() < 1e-6);
        let usage = compute_usage(&topo, &healthy.routing, &cat, &demand, &plan.shares);
        assert!(usage.fits_within(&capacity, 1e-3));
        assert_eq!(plan.quotas.num_slots(), 3);
        assert_eq!(plan.provenance.built_at_slot, 0);
    }

    #[test]
    fn replan_is_incremental_and_warm() {
        let (topo, cat, demand) = instance();
        let (capacity, healthy, down) = planner_world(&topo, &cat, &demand);
        let inputs = PlanningInputs::new(&topo, &cat, &demand);
        let mut planner = SlotPlanner::new(
            &inputs,
            &[healthy.clone(), down.clone()],
            &capacity,
            &SolveOptions::default(),
        );
        let first = planner.plan_initial(&healthy).unwrap();
        // re-plan from slot 1 under the same scenario and demand: slot 0 is
        // copied from the previous epoch, slots 1.. from their last solves
        let second = planner
            .replan_from(&first.artifact, 1, &healthy, None)
            .unwrap();
        assert_eq!(second.artifact.epoch, 2);
        assert_eq!(second.copied_slots(), 3);
        assert_eq!(second.solved_slots(), 0);
        assert_eq!(second.warm_hit_rate(), 0.0);
        assert_eq!(second.artifact.provenance.copied_slots, 3);
        assert_eq!(second.artifact.shares, first.artifact.shares);
        assert_eq!(second.artifact.quotas, first.artifact.quotas);
        // forced to re-solve, slots 1.. warm-start to the same optimum
        planner.forget_last_solves();
        let third = planner
            .replan_from(&second.artifact, 1, &healthy, None)
            .unwrap();
        assert_eq!(third.copied_slots(), 1);
        assert_eq!(third.solved_slots(), 2);
        assert_eq!(
            third.warm_hits(),
            2,
            "unchanged scenario must warm-start every re-solved slot: {:?}",
            third.slots
        );
        assert!((third.warm_hit_rate() - 1.0).abs() < 1e-12);
        assert_eq!(third.artifact.shares, first.artifact.shares);
        assert_eq!(third.artifact.quotas, first.artifact.quotas);
        assert!(PlanDelta::between(&first.artifact, &third.artifact).is_empty());
    }

    impl SlotPlanner<'_> {
        /// Drop every slot's last solve but keep its basis: the next
        /// (re-)plan re-solves every slot it reaches, warm from the same
        /// bases. The always-solve oracle the skip is held to.
        fn forget_last_solves(&mut self) {
            for model in self.models.iter_mut().flatten() {
                model.last = None;
            }
        }

        /// Each slot's warm-start basis.
        fn bases(&self) -> Vec<Option<Basis>> {
            let basis = |m: &Option<SlotModel>| m.as_ref().and_then(|m| m.basis.clone());
            self.models.iter().map(basis).collect()
        }
    }

    /// Ten days of four slots, three configs (JP, IN, JP+IN video) with a
    /// demand that varies by slot.
    fn daily_instance() -> (Topology, ConfigCatalog, DemandMatrix) {
        let topo = sb_net::presets::toy_three_dc();
        let jp = topo.country_by_name("JP");
        let iin = topo.country_by_name("IN");
        let mut cat = ConfigCatalog::new();
        let cfgs = [
            cat.intern(CallConfig::new(vec![(jp, 2)], MediaType::Audio)),
            cat.intern(CallConfig::new(vec![(iin, 2)], MediaType::Audio)),
            cat.intern(CallConfig::new(vec![(jp, 1), (iin, 1)], MediaType::Video)),
        ];
        let slots = 44;
        let mut demand = DemandMatrix::zero(3, slots, 30, 0);
        for slot in 0..slots {
            for (k, &cfg) in cfgs.iter().enumerate() {
                let phase = (slot * (k + 2) % 7) as f64;
                demand.set(cfg, slot, 20.0 + 15.0 * phase + 7.0 * k as f64);
            }
        }
        (topo, cat, demand)
    }

    /// The bytes a plan's shares and quotas persist to: its NDJSON rows
    /// without the meta line (whose provenance counts solves).
    fn plan_rows(r: &Result<ReplanReport, ProvisionError>) -> Option<String> {
        let nd = r.as_ref().ok()?.artifact.to_ndjson();
        Some(
            nd.split_once('\n')
                .map_or(String::new(), |(_, rows)| rows.to_string()),
        )
    }

    /// Run one re-plan script on a planner that skips unchanged slots and on
    /// the always-solve oracle: every re-plan's shares and quotas, and every
    /// slot's basis, must be the same. Returns the skipping planner's
    /// reports, one per step.
    fn skip_matches_always_solving(opts: &SolveOptions) -> Vec<ReplanReport> {
        const SPD: usize = 4;
        let (topo, cat, demand) = daily_instance();
        let (capacity, healthy, down) = planner_world(&topo, &cat, &demand);
        let inputs = PlanningInputs::new(&topo, &cat, &demand);
        let sds = [healthy.clone(), down.clone()];
        let mut fast = SlotPlanner::new(&inputs, &sds, &capacity, opts);
        let mut oracle = SlotPlanner::new(&inputs, &sds, &capacity, opts);
        let a = fast.plan_initial(&healthy);
        let b = oracle.plan_initial(&healthy);
        assert_eq!(plan_rows(&a), plan_rows(&b));
        let mut prev = (a.unwrap().artifact, b.unwrap().artifact);
        let mut reports = Vec::new();
        // a forecast-style override: the base demand, raised on the next
        // day's slots only
        let raised = |from: usize, factor: f64| {
            let mut dm = demand.clone();
            for (cfg, _) in cat.iter() {
                for slot in from..(from + SPD).min(demand.num_slots()) {
                    let f = factor + 0.01 * ((slot + cfg.index()) % 3) as f64;
                    dm.set(cfg, slot, demand.get(cfg, slot) * f);
                }
            }
            dm
        };
        let mut step = |from: usize, sd: &ScenarioData, dm: Option<&DemandMatrix>| {
            let a = fast.replan_from(&prev.0, from, sd, dm);
            oracle.forget_last_solves();
            let b = oracle.replan_from(&prev.1, from, sd, dm);
            assert_eq!(plan_rows(&a), plan_rows(&b), "from slot {from}");
            assert_eq!(fast.bases(), oracle.bases(), "from slot {from}");
            let solved = |r: &Result<ReplanReport, ProvisionError>| {
                r.as_ref().map_or(0, |r| r.solved_slots())
            };
            assert!(solved(&a) <= solved(&b));
            match (a, b) {
                (Ok(a), Ok(b)) => {
                    prev = (a.artifact.clone(), b.artifact.clone());
                    reports.push(a);
                    true
                }
                _ => false,
            }
        };
        // ten daily re-plans, each raising the next day
        for day in 1..=10 {
            let from = day * SPD;
            assert!(step(
                from,
                &healthy,
                Some(&raised(from, 1.1 + 0.02 * day as f64))
            ));
        }
        // a DC outage and the return to health re-solve every slot left
        assert!(step(10, &down, None));
        assert!(step(10, &healthy, None));
        // an override one slot cannot fit fails the re-plan; the planned
        // demand is the fallback
        let mut dm = demand.clone();
        dm.set(ConfigId(0), 30, 1e9);
        dm.set(ConfigId(1), 20, 80.0);
        assert!(!step(12, &healthy, Some(&dm)));
        assert!(step(12, &healthy, None));
        assert!(step(12, &healthy, None));
        // an override touching one slot
        let mut dm = demand.clone();
        dm.set(ConfigId(2), 25, 33.0);
        assert!(step(12, &healthy, Some(&dm)));
        assert!(step(12, &healthy, None));
        reports
    }

    #[test]
    fn skipping_unchanged_slots_matches_always_solving() {
        let (_, _, demand) = daily_instance();
        let slots = demand.num_slots();
        let r = skip_matches_always_solving(&SolveOptions::default());
        // each daily re-plan re-solves the raised next day only (the
        // previous raise is in the past by then)
        for r in &r[..10] {
            assert_eq!(r.solved_slots(), 4, "{:?}", r.slots);
            assert_eq!(r.artifact.provenance.copied_slots as usize, slots - 4);
        }
        // the outage and the return re-solve every remaining slot
        for r in &r[10..12] {
            assert_eq!(r.solved_slots(), slots - 10, "{:?}", r.slots);
        }
        // the fallback re-solves what the failed override patched: slot 20
        // (solved at 80) and slot 30 (failed); the next identical re-plan
        // nothing
        let solved = |r: &ReplanReport| -> Vec<usize> {
            r.slots
                .iter()
                .filter(|s| !s.copied)
                .map(|s| s.slot)
                .collect()
        };
        assert_eq!(solved(&r[12]), [20, 30]);
        assert_eq!(r[13].solved_slots(), 0);
        // one touched slot re-solves exactly that slot, and back
        assert_eq!(solved(&r[14]), [25]);
        assert_eq!(solved(&r[15]), [25]);
        // every skipped slot reports no solve
        for s in r.iter().flat_map(|r| &r.slots).filter(|s| s.copied) {
            assert_eq!((s.warm_started, s.rung, s.iterations), (false, None, 0));
        }
    }

    #[test]
    fn skipping_unchanged_slots_matches_always_solving_cold() {
        let cold = SolveOptions {
            warm_start: false,
            ..SolveOptions::default()
        };
        let r = skip_matches_always_solving(&cold);
        assert_eq!(r[13].solved_slots(), 0);
        assert!(r.iter().flat_map(|r| &r.slots).all(|s| !s.warm_started));
    }

    #[test]
    fn replan_under_dc_down_moves_quota_off_the_failed_dc() {
        let (topo, cat, demand) = instance();
        let (capacity, healthy, down) = planner_world(&topo, &cat, &demand);
        let inputs = PlanningInputs::new(&topo, &cat, &demand);
        let mut planner = SlotPlanner::new(
            &inputs,
            &[healthy.clone(), down.clone()],
            &capacity,
            &SolveOptions::default(),
        );
        let first = planner.plan_initial(&healthy).unwrap();
        let second = planner
            .replan_from(&first.artifact, 1, &down, None)
            .unwrap();
        // slots ≥ 1 place nothing at the failed DC
        for (key, entries) in second.artifact.quotas.iter() {
            if key.1 >= 1 {
                for &(dc, n) in entries {
                    assert!(
                        dc != DcId(0) || n == 0,
                        "slot {} still plans {} calls at the failed DC",
                        key.1,
                        n
                    );
                }
            }
        }
        let delta = PlanDelta::between(&first.artifact, &second.artifact);
        // the healthy plan used DC0 (it hosts JP's closest DC), so the
        // re-plan must move quota
        assert!(!delta.is_empty());
        assert!(delta.implied_migrations() > 0);
        // delta is sorted and only covers slots ≥ 1 (slot 0 was copied)
        assert!(delta.changes.iter().all(|c| c.slot >= 1));
    }

    #[test]
    fn ndjson_round_trip_is_exact() {
        let (topo, cat, demand) = instance();
        let (capacity, healthy, down) = planner_world(&topo, &cat, &demand);
        let inputs = PlanningInputs::new(&topo, &cat, &demand);
        let mut planner = SlotPlanner::new(
            &inputs,
            &[healthy.clone(), down.clone()],
            &capacity,
            &SolveOptions::default(),
        );
        let first = planner.plan_initial(&healthy).unwrap();
        // exercise a scenario string with structure in it
        let report = planner
            .replan_from(&first.artifact, 1, &down, None)
            .unwrap();
        let nd = report.artifact.to_ndjson();
        let back = PlanArtifact::from_ndjson(&nd).unwrap();
        assert_eq!(back, *report.artifact);
        assert_eq!(back.provenance.scenario, format!("{:?}", down.scenario));
        // quota entry order survives (tie-breaking-relevant)
        for (key, entries) in report.artifact.quotas.iter() {
            assert_eq!(back.quotas.get(key.0, key.1), entries);
        }
    }

    /// Two runs of the same re-plan persist to the same bytes: a plan's
    /// journal record carries nothing measured on the clock.
    #[test]
    fn identical_replans_persist_byte_identically() {
        let (topo, cat, demand) = instance();
        let (capacity, healthy, down) = planner_world(&topo, &cat, &demand);
        let inputs = PlanningInputs::new(&topo, &cat, &demand);
        let run = || {
            let sds = [healthy.clone(), down.clone()];
            let mut planner = SlotPlanner::new(&inputs, &sds, &capacity, &SolveOptions::default());
            let first = planner.plan_initial(&healthy).unwrap();
            let second = planner
                .replan_from(&first.artifact, 1, &down, None)
                .unwrap();
            (first.artifact.to_ndjson(), second.artifact.to_ndjson())
        };
        assert_eq!(run(), run());
    }

    /// The meta line written before provenance dropped its wall time still
    /// parses: journals recorded then recover.
    #[test]
    fn a_meta_line_carrying_solve_wall_ns_still_parses() {
        let nd = concat!(
            r#"{"plan":{"epoch":3,"slot_minutes":30,"start_minute":60,"num_slots":2,"#,
            r#""built_at_slot":1,"solve_wall_ns":987654,"warm_slots":1,"cold_slots":0,"#,
            r#""copied_slots":1,"total_iterations":12,"scenario":"None"}}"#,
            "\n",
            r#"{"config":0,"slot":1,"dc":2,"share":"-","quota":4}"#,
            "\n"
        );
        let a = PlanArtifact::from_ndjson(nd).unwrap();
        assert_eq!((a.epoch, a.provenance.total_iterations), (3, 12));
        assert_eq!(a.quotas.get(ConfigId(0), 1), &[(DcId(2), 4)]);
        assert_eq!(PlanArtifact::from_ndjson(&a.to_ndjson()).unwrap(), a);
        assert!(!a.to_ndjson().contains("solve_wall_ns"));
    }

    /// The reference renderer `to_ndjson` is held to: the export rows as an
    /// sb-obs table.
    fn export_table(artifact: &PlanArtifact) -> sb_obs::Table {
        let t = sb_obs::Table::standalone(&["config", "slot", "dc", "share", "quota"]);
        let dash = || Value::from("-");
        for_each_export_row(artifact, |(cfg, slot, dc, share, quota)| {
            t.push(vec![
                Value::from(cfg),
                Value::from(slot),
                Value::from(dc),
                share.map_or_else(dash, Value::from),
                quota.map_or_else(dash, Value::from),
            ]);
        });
        t
    }

    #[test]
    fn ndjson_writer_is_byte_equal_to_the_table_renderer() {
        // three slots, two configs: shares with quotas, a pool whose demand
        // rounded to zero (share rows, quota "-"), a quota-only pool that
        // sorts between share pools, awkward floats, and a scenario string
        // that needs both escapes
        let (a, b) = (ConfigId(0), ConfigId(3));
        let slots = 3;
        let mut shares = AllocationShares::new(slots);
        shares.set(a, 0, vec![(DcId(2), 1.0 / 3.0), (DcId(0), 2.0 / 3.0)]);
        shares.set(a, 2, vec![(DcId(1), 1e-7), (DcId(2), 1.0 - 1e-7)]);
        shares.set(b, 1, vec![(DcId(0), 0.25), (DcId(1), 0.75)]);
        let mut quotas = HashMap::new();
        quotas.insert((a, 0), vec![(DcId(2), 4), (DcId(0), 7)]);
        quotas.insert((a, 1), vec![(DcId(1), 9)]);
        quotas.insert((b, 1), vec![(DcId(0), 1), (DcId(1), 2)]);
        let artifact = PlanArtifact::new(
            5,
            shares,
            PlannedQuotas::from_parts(30, 60, slots, quotas),
            PlanProvenance {
                scenario: r#"LinkDown("a\b", "c")"#.to_string(),
                built_at_slot: 1,
                warm_slots: 2,
                cold_slots: 1,
                copied_slots: 0,
                total_iterations: 77,
            },
        );
        let nd = artifact.to_ndjson();
        let rendered = artifact.ndjson_meta_line() + &export_table(&artifact).render_ndjson();
        assert_eq!(nd, rendered);
        assert_eq!(nd.lines().count(), 1 + 7);
        assert!(nd.contains(r#""scenario":"LinkDown(\"a\\b\", \"c\")""#));
        assert!(nd.contains(r#"{"config":0,"slot":1,"dc":1,"share":"-","quota":9}"#));
        assert!(nd.contains(r#"{"config":0,"slot":2,"dc":1,"share":0.0000001,"quota":"-"}"#));
        assert_eq!(PlanArtifact::from_ndjson(&nd).unwrap(), artifact);
    }

    /// Regression: seed artifacts carry quotas with *no* shares; the export
    /// used to iterate shares pools only, so a round-trip silently dropped
    /// every quota. Quota-only pools now persist as `share`="-" rows.
    #[test]
    fn seed_artifact_round_trips_quota_only_pools() {
        let cfg = ConfigId(0);
        let slots = 4;
        let mut shares = AllocationShares::new(slots);
        let mut demand = DemandMatrix::zero(1, slots, 30, 0);
        for s in 0..slots {
            shares.set(cfg, s, vec![(DcId(0), 1.0)]);
            demand.set(cfg, s, 10.0);
        }
        let artifact = PlanArtifact::seed(PlannedQuotas::from_plan(&shares, &demand));
        assert_eq!(artifact.shares.iter().count(), 0, "seed drops shares");
        let nd_back = PlanArtifact::from_ndjson(&artifact.to_ndjson()).unwrap();
        assert_eq!(nd_back, artifact);
        assert_eq!(nd_back.quotas.get(cfg, 0), &[(DcId(0), 10)]);
    }

    /// A one-slot plan's meta line with slot width `slot_minutes`, followed
    /// by `row`.
    fn plan_text(slot_minutes: u32, row: &str) -> String {
        format!(
            concat!(
                r#"{{"plan":{{"epoch":1,"slot_minutes":{},"start_minute":0,"num_slots":1,"#,
                r#""built_at_slot":0,"warm_slots":0,"cold_slots":0,"copied_slots":0,"#,
                r#""total_iterations":0,"scenario":"None"}}}}"#,
                "\n{}\n"
            ),
            slot_minutes, row
        )
    }

    #[test]
    fn malformed_artifacts_are_rejected() {
        assert!(PlanArtifact::from_ndjson("").is_err());
        assert!(PlanArtifact::from_ndjson("not a plan\n").is_err());
        assert!(PlanArtifact::from_ndjson("{\"plan\":{\"epoch\":1}}\n").is_err());
        let good = r#"{"config":0,"slot":0,"dc":0,"share":1,"quota":3}"#;
        assert!(PlanArtifact::from_ndjson(&plan_text(30, good)).is_ok());
        for row in [
            // bad row arity: a row missing its share and quota
            r#"{"config":0,"slot":0,"dc":0}"#,
            // non-numeric fields
            r#"{"config":x,"slot":0,"dc":0,"share":1,"quota":3}"#,
            r#"{"config":0,"slot":0,"dc":0,"share":1,"quota":"three"}"#,
            r#"{"config":0,"slot":0,"dc":0,"share":one,"quota":3}"#,
            // a share the selector cannot hold, and a slot past the horizon
            r#"{"config":0,"slot":0,"dc":0,"share":inf,"quota":3}"#,
            r#"{"config":0,"slot":1,"dc":0,"share":1,"quota":3}"#,
        ] {
            assert!(
                PlanArtifact::from_ndjson(&plan_text(30, row)).is_err(),
                "{row}"
            );
        }
    }

    /// Regression: `"num_slots":1099511627776` parsed, and the first share
    /// row sized a per-slot list by it — an abort, not an error.
    #[test]
    fn a_horizon_past_max_plan_slots_is_refused_before_anything_is_built() {
        let row = r#"{"config":0,"slot":0,"dc":0,"share":1,"quota":3}"#;
        let with_slots = |n: usize| {
            plan_text(30, row).replacen(r#""num_slots":1,"#, &format!(r#""num_slots":{n},"#), 1)
        };
        let a = PlanArtifact::from_ndjson(&with_slots(MAX_PLAN_SLOTS)).unwrap();
        assert_eq!(a.quotas.num_slots(), MAX_PLAN_SLOTS);
        for hostile in [MAX_PLAN_SLOTS + 1, 1 << 40] {
            let e = PlanArtifact::from_ndjson(&with_slots(hostile)).unwrap_err();
            assert!(e.0.contains("num_slots"), "{e}");
        }
    }

    /// Regression: a zero slot width parsed, and the first freeze after the
    /// install divided by it.
    #[test]
    fn zero_slot_width_is_rejected() {
        let row = r#"{"config":0,"slot":0,"dc":0,"share":1,"quota":3}"#;
        assert!(PlanArtifact::from_ndjson(&plan_text(30, row)).is_ok());
        let e = PlanArtifact::from_ndjson(&plan_text(0, row)).unwrap_err();
        assert!(e.0.contains("slot_minutes"), "{e}");
    }

    #[test]
    fn dcs_are_checked_against_the_topology() {
        let row = |dc: u32| format!(r#"{{"config":0,"slot":0,"dc":{dc},"share":1,"quota":3}}"#);
        let plan = |dc| PlanArtifact::from_ndjson(&plan_text(30, &row(dc))).unwrap();
        assert!(plan(2).check_dcs(3).is_ok());
        let e = plan(999).check_dcs(3).unwrap_err();
        assert!(e.0.contains("dc 999"), "{e}");
        // a share-only entry is checked too
        let mut shares = AllocationShares::new(1);
        shares.set(ConfigId(0), 0, vec![(DcId(3), 1.0)]);
        let q = PlannedQuotas::from_parts(30, 0, 1, HashMap::new());
        let a = PlanArtifact::new(1, shares, q, PlanProvenance::default());
        assert!(a.check_dcs(3).is_err());
    }

    #[test]
    fn delta_between_identical_plans_is_empty() {
        let mut shares = AllocationShares::new(1);
        shares.set(ConfigId(0), 0, vec![(DcId(0), 0.5), (DcId(1), 0.5)]);
        let mut demand = DemandMatrix::zero(1, 1, 30, 0);
        demand.set(ConfigId(0), 0, 10.0);
        let quotas = PlannedQuotas::from_plan(&shares, &demand);
        let a = PlanArtifact::new(1, shares.clone(), quotas.clone(), PlanProvenance::default());
        let b = a.clone().with_epoch(2);
        assert!(PlanDelta::between(&a, &b).is_empty());
        assert_eq!(PlanDelta::between(&a, &b).implied_migrations(), 0);
        // shrink one entry by 3 → 3 implied migrations
        let mut shares2 = AllocationShares::new(1);
        shares2.set(ConfigId(0), 0, vec![(DcId(0), 0.2), (DcId(1), 0.8)]);
        let quotas2 = PlannedQuotas::from_plan(&shares2, &demand);
        let c = PlanArtifact::new(3, shares2, quotas2, PlanProvenance::default());
        let d = PlanDelta::between(&a, &c);
        assert_eq!(d.len(), 2);
        assert_eq!(d.implied_migrations(), 3);
    }
}
