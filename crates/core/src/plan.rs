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
//!   [`PlanArtifact::to_tsv`] / [`PlanArtifact::to_ndjson`].
//! * [`PlanDelta`] — the per-`(config, slot, DC)` quota diff between two
//!   artifacts, and the migration set it implies.
//! * [`SlotPlanner`] — the incremental re-planner. The allocation LP (Eq.
//!   10) decomposes per slot because capacities are constants; the planner
//!   keeps one patch-in-place LP per slot (the `SweepModel` idiom from the
//!   provisioning sweep) plus the last optimal [`Basis`] per slot, so
//!   [`SlotPlanner::replan_from`] re-solves **only the remaining slots**,
//!   warm-starting each from the previous epoch's basis and recording
//!   per-slot [`SolveRung`] / warm-hit statistics.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sb_lp::{Basis, GuardedSimplex, LpProblem, PreparedProblem, SolveRung, Var};
use sb_net::{DcId, LinkId, ProvisionedCapacity};
use sb_obs::{Table, Value};
use sb_workload::{ConfigId, DemandMatrix};

use crate::formulation::{
    placement_grid, placements_under, NetworkRow, PlacementGrid, PlanningInputs, ProvisionError,
    ScenarioData, SolveOptions,
};
use crate::realtime::PlannedQuotas;
use crate::shares::AllocationShares;
use crate::usage::for_each_link_load;

/// Where a plan came from: the scenario it was solved against and the
/// solve-effort statistics of the (re-)plan that produced it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanProvenance {
    /// Debug rendering of the [`sb_net::FailureScenario`] planned against.
    pub scenario: String,
    /// First slot re-solved by the producing re-plan (0 for a full plan).
    pub built_at_slot: usize,
    /// Wall time of the producing (re-)plan, nanoseconds.
    pub solve_wall_ns: u64,
    /// Slots whose warm start was accepted by the engine.
    pub warm_slots: u32,
    /// Slots solved cold (no basis, or basis rejected).
    pub cold_slots: u32,
    /// Slots copied verbatim from the previous epoch.
    pub copied_slots: u32,
    /// Total simplex iterations across re-solved slots.
    pub total_iterations: u64,
}

impl Default for PlanProvenance {
    fn default() -> Self {
        PlanProvenance {
            scenario: "None".to_string(),
            built_at_slot: 0,
            solve_wall_ns: 0,
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
    /// Copied verbatim from the previous epoch (slot < `from_slot`).
    pub copied: bool,
    /// Warm start accepted by the engine (re-solved slots only).
    pub warm_started: bool,
    /// Engine rung that produced the solve; `None` for copied slots.
    pub rung: Option<SolveRung>,
    /// Simplex iterations (0 for copied slots).
    pub iterations: u64,
    /// Wall time of this slot's patch + solve, nanoseconds.
    pub wall_ns: u64,
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
    /// Slots copied from the previous epoch.
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
}

/// Incremental re-planner for the per-slot allocation LP.
///
/// Built once per planning horizon from the scenarios you intend to re-plan
/// against (their union defines the modeled placements and network links —
/// pass at least the healthy scenario plus every failure you may re-plan
/// under; a healthy scenario's allowed sets are supersets of any failure's,
/// so including it covers latency-driven placements). Each
/// [`SlotPlanner::replan_from`] patches the slot LPs for the given scenario
/// and demand, re-solves only slots ≥ `from_slot` warm-started from the
/// previous solve's exported basis, and copies earlier slots' shares from
/// the previous artifact.
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
    bases: Vec<Option<Basis>>,
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
                    let v = lp.add_var(format!("S_{}_{}", cfg_id.index(), dc.index()), 0.0, 0.0, d);
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
            }));
        }
        let num_slots = demand.num_slots();
        SlotPlanner {
            inputs: *inputs,
            capacity: capacity.clone(),
            solver: opts.guarded(),
            warm_start: opts.warm_start,
            min_demand: opts.min_demand,
            active,
            models,
            bases: (0..num_slots).map(|_| None).collect(),
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
    /// call). Seeds the per-slot basis cache for later incremental
    /// re-plans.
    pub fn plan_initial(&mut self, sd: &ScenarioData) -> Result<ReplanReport, ProvisionError> {
        self.replan(None, 0, sd, None)
    }

    /// Incrementally re-plan from `prev`: slots before `from_slot` are
    /// copied verbatim, slots `from_slot..` are patched for `sd` (and
    /// `demand_override` if the forecast drifted — must share the base
    /// demand's slot geometry) and re-solved warm from the last solve's
    /// exported basis. The result carries epoch `prev.epoch + 1`.
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
            for slot in 0..from_slot {
                slots_info.push(SlotSolveInfo {
                    slot,
                    copied: true,
                    warm_started: false,
                    rung: None,
                    iterations: 0,
                    wall_ns: 0,
                });
            }
        }

        // scenario-dependent data shared by every slot: per (config, DC)
        // ACL and link loads under sd
        let placements: Vec<_> = (self.active.iter())
            .map(|(cfg_id, dcs)| {
                let cfg = self.inputs.catalog.config(*cfg_id);
                placements_under(sd, cfg, dcs, self.inputs.latency_threshold_ms)
            })
            .collect();

        let obs_on = sb_obs::global().enabled();
        for slot in from_slot..num_slots {
            let Some(model) = self.models[slot].as_mut() else {
                continue; // no demand in this slot at build time
            };
            let slot_start = Instant::now();
            // patch share variables and collect network coefficients
            let mut net_coeffs: Vec<Vec<(Var, f64)>> = vec![Vec::new(); model.network_rows.len()];
            let mut cfg_rhs = vec![0.0f64; self.active.len()];
            for v in &model.vars {
                let (cfg_id, _) = self.active[v.cfg_pos];
                let d = demand.get(cfg_id, slot);
                match &placements[v.cfg_pos][v.dc_pos] {
                    Some((acl, loads)) if d > self.min_demand => {
                        model.lp.set_var_upper(v.var, d);
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
                self.bases[slot].as_ref()
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
            let mut per_cfg: Vec<Vec<(DcId, f64)>> = vec![Vec::new(); self.active.len()];
            for v in &model.vars {
                let d = cfg_rhs[v.cfg_pos];
                if d <= 0.0 {
                    continue;
                }
                let val = sol.value(v.var).max(0.0);
                if val > 1e-9 * d.max(1.0) {
                    per_cfg[v.cfg_pos].push((self.active[v.cfg_pos].1[v.dc_pos], val / d));
                }
            }
            for (cfg_pos, fr) in per_cfg.into_iter().enumerate() {
                if !fr.is_empty() {
                    shares.set(self.active[cfg_pos].0, slot, fr);
                }
            }
            let stats = sol.stats();
            self.bases[slot] = sol.basis().cloned();
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
                    Value::from(0u64),
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
            solve_wall_ns: u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX),
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
// Persistence (TSV / NDJSON via the sb-obs table writer)
// ---------------------------------------------------------------------------

/// Columns of the persisted plan table: one row per `(config, slot, dc)`
/// share entry, in plan order (`quota` is `-` when the slot's demand
/// rounded to zero and no quota pool exists).
pub const PLAN_EXPORT_COLUMNS: [&str; 5] = ["config", "slot", "dc", "share", "quota"];

/// A persisted plan failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanParseError(pub String);

impl std::fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed plan artifact: {}", self.0)
    }
}

impl std::error::Error for PlanParseError {}

fn err(msg: impl Into<String>) -> PlanParseError {
    PlanParseError(msg.into())
}

/// One export row: `(config, slot, dc, share, quota)` — share is `None` for
/// quota-only pools, quota is `None` where no quota pool exists (both are
/// written as `-`).
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

/// The export rows as an sb-obs [`Table`] (the TSV form's writer).
fn export_table(artifact: &PlanArtifact) -> Table {
    let t = Table::standalone(&PLAN_EXPORT_COLUMNS);
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

struct MetaFields {
    epoch: u64,
    slot_minutes: u32,
    start_minute: u64,
    num_slots: usize,
    provenance: PlanProvenance,
}

fn meta_of(artifact: &PlanArtifact) -> MetaFields {
    MetaFields {
        epoch: artifact.epoch,
        slot_minutes: artifact.quotas.slot_minutes(),
        start_minute: artifact.quotas.start_minute(),
        num_slots: artifact.quotas.num_slots(),
        provenance: artifact.provenance.clone(),
    }
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
    /// Serialize as TSV: a `#plan` metadata line (tab-separated `key=value`
    /// pairs) followed by the [`PLAN_EXPORT_COLUMNS`] table rendered by the
    /// sb-obs table writer. Shares use Rust's shortest round-trip float
    /// formatting, so [`PlanArtifact::from_tsv`] reconstructs them exactly.
    pub fn to_tsv(&self) -> String {
        let m = meta_of(self);
        let p = &m.provenance;
        let mut out = format!(
            "#plan\tepoch={}\tslot_minutes={}\tstart_minute={}\tnum_slots={}\t\
             built_at_slot={}\tsolve_wall_ns={}\twarm_slots={}\tcold_slots={}\t\
             copied_slots={}\ttotal_iterations={}\tscenario={}\n",
            m.epoch,
            m.slot_minutes,
            m.start_minute,
            m.num_slots,
            p.built_at_slot,
            p.solve_wall_ns,
            p.warm_slots,
            p.cold_slots,
            p.copied_slots,
            p.total_iterations,
            p.scenario,
        );
        out.push_str(&export_table(self).render_tsv());
        out
    }

    /// Parse an artifact previously written by [`PlanArtifact::to_tsv`].
    pub fn from_tsv(s: &str) -> Result<PlanArtifact, PlanParseError> {
        let mut lines = s.lines();
        let meta_line = lines.next().ok_or_else(|| err("empty input"))?;
        let rest = meta_line
            .strip_prefix("#plan\t")
            .ok_or_else(|| err("missing #plan metadata line"))?;
        let mut kv: HashMap<&str, &str> = HashMap::new();
        for field in rest.split('\t') {
            let (k, v) = field
                .split_once('=')
                .ok_or_else(|| err(format!("bad metadata field {field:?}")))?;
            kv.insert(k, v);
        }
        fn get<T: std::str::FromStr>(
            kv: &HashMap<&str, &str>,
            key: &str,
        ) -> Result<T, PlanParseError> {
            kv.get(key)
                .ok_or_else(|| err(format!("missing metadata key {key}")))?
                .parse()
                .map_err(|_| err(format!("bad value for metadata key {key}")))
        }
        let meta = MetaFields {
            epoch: get(&kv, "epoch")?,
            slot_minutes: get(&kv, "slot_minutes")?,
            start_minute: get(&kv, "start_minute")?,
            num_slots: get(&kv, "num_slots")?,
            provenance: PlanProvenance {
                scenario: kv
                    .get("scenario")
                    .ok_or_else(|| err("missing metadata key scenario"))?
                    .to_string(),
                built_at_slot: get(&kv, "built_at_slot")?,
                solve_wall_ns: get(&kv, "solve_wall_ns")?,
                warm_slots: get(&kv, "warm_slots")?,
                cold_slots: get(&kv, "cold_slots")?,
                copied_slots: get(&kv, "copied_slots")?,
                total_iterations: get(&kv, "total_iterations")?,
            },
        };
        let header = lines.next().ok_or_else(|| err("missing header line"))?;
        if header != PLAN_EXPORT_COLUMNS.join("\t") {
            return Err(err(format!("unexpected header {header:?}")));
        }
        let mut rows = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let cells: Vec<&str> = line.split('\t').collect();
            if cells.len() != PLAN_EXPORT_COLUMNS.len() {
                return Err(err(format!("bad row arity in {line:?}")));
            }
            let quota = match cells[4] {
                "-" => None,
                q => Some(q.parse().map_err(|_| err(format!("bad quota {q:?}")))?),
            };
            let share = match cells[3] {
                "-" => None,
                s => Some(s.parse().map_err(|_| err(format!("bad share {s:?}")))?),
            };
            rows.push((
                cells[0]
                    .parse()
                    .map_err(|_| err(format!("bad config {:?}", cells[0])))?,
                cells[1]
                    .parse()
                    .map_err(|_| err(format!("bad slot {:?}", cells[1])))?,
                cells[2]
                    .parse()
                    .map_err(|_| err(format!("bad dc {:?}", cells[2])))?,
                share,
                quota,
            ));
        }
        rebuild(meta, rows)
    }

    /// The `{"plan":{…}}` metadata line of the NDJSON form.
    fn ndjson_meta_line(&self) -> String {
        let m = meta_of(self);
        let p = &m.provenance;
        let scenario = p.scenario.replace('\\', "\\\\").replace('"', "\\\"");
        format!(
            concat!(
                r#"{{"plan":{{"epoch":{},"slot_minutes":{},"start_minute":{},"#,
                r#""num_slots":{},"built_at_slot":{},"solve_wall_ns":{},"#,
                r#""warm_slots":{},"cold_slots":{},"copied_slots":{},"#,
                r#""total_iterations":{},"scenario":"{}"}}}}"#,
                "\n"
            ),
            m.epoch,
            m.slot_minutes,
            m.start_minute,
            m.num_slots,
            p.built_at_slot,
            p.solve_wall_ns,
            p.warm_slots,
            p.cold_slots,
            p.copied_slots,
            p.total_iterations,
            scenario,
        )
    }

    /// Serialize as NDJSON: a `{"plan":{…}}` metadata object followed by
    /// one object per table row (same rows as the TSV form). The rows are
    /// written straight into the output — byte for byte what the sb-obs
    /// table renderer produces for them, without a `Vec<Value>` per row and
    /// a `String` per cell; an engine journals this on every plan install.
    pub fn to_ndjson(&self) -> String {
        use std::fmt::Write;
        let mut out = self.ndjson_meta_line();
        for_each_export_row(self, |(cfg, slot, dc, share, quota)| {
            // writing to a String cannot fail
            let _ = write!(out, r#"{{"config":{cfg},"slot":{slot},"dc":{dc},"share":"#);
            let _ = match share {
                Some(x) if x.is_finite() => write!(out, "{x}"),
                Some(_) => out.write_str("null"),
                None => out.write_str(r#""-""#),
            };
            out.push_str(r#","quota":"#);
            let _ = match quota {
                Some(n) => write!(out, "{n}"),
                None => out.write_str(r#""-""#),
            };
            out.push_str("}\n");
        });
        out
    }

    /// Parse an artifact previously written by [`PlanArtifact::to_ndjson`].
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
                solve_wall_ns: num_field(meta_line, "solve_wall_ns")?,
                warm_slots: num_field(meta_line, "warm_slots")?,
                cold_slots: num_field(meta_line, "cold_slots")?,
                copied_slots: num_field(meta_line, "copied_slots")?,
                total_iterations: num_field(meta_line, "total_iterations")?,
            },
        };
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
                s => Some(s.parse().map_err(|_| err(format!("bad share {s:?}")))?),
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
        // re-plan from slot 1 under the same scenario: slot 0 copied, the
        // rest re-solved warm to the same optimum
        let second = planner
            .replan_from(&first.artifact, 1, &healthy, None)
            .unwrap();
        assert_eq!(second.artifact.epoch, 2);
        assert_eq!(second.copied_slots(), 1);
        assert_eq!(second.solved_slots(), 2);
        assert_eq!(
            second.warm_hits(),
            2,
            "unchanged scenario must warm-start every re-solved slot: {:?}",
            second.slots
        );
        assert!((second.warm_hit_rate() - 1.0).abs() < 1e-12);
        assert_eq!(second.artifact.shares, first.artifact.shares);
        assert_eq!(second.artifact.quotas, first.artifact.quotas);
        assert!(PlanDelta::between(&first.artifact, &second.artifact).is_empty());
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
    fn tsv_round_trip_is_exact() {
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
        let tsv = report.artifact.to_tsv();
        let back = PlanArtifact::from_tsv(&tsv).unwrap();
        assert_eq!(back, *report.artifact);
        // quota entry order survives (tie-breaking-relevant)
        for (key, entries) in report.artifact.quotas.iter() {
            assert_eq!(back.quotas.get(key.0, key.1), entries);
        }
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
                solve_wall_ns: 123_456,
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
        let tsv_back = PlanArtifact::from_tsv(&artifact.to_tsv()).unwrap();
        assert_eq!(tsv_back, artifact);
        assert_eq!(nd_back.quotas.get(cfg, 0), &[(DcId(0), 10)]);
    }

    #[test]
    fn malformed_artifacts_are_rejected() {
        assert!(PlanArtifact::from_tsv("").is_err());
        assert!(PlanArtifact::from_tsv("not a plan\n").is_err());
        assert!(PlanArtifact::from_tsv("#plan\tepoch=1\n").is_err());
        assert!(PlanArtifact::from_ndjson("").is_err());
        assert!(PlanArtifact::from_ndjson("{\"plan\":{\"epoch\":1}}\n").is_err());
        // bad row arity
        let bad = "#plan\tepoch=1\tslot_minutes=30\tstart_minute=0\tnum_slots=1\t\
                   built_at_slot=0\tsolve_wall_ns=0\twarm_slots=0\tcold_slots=0\t\
                   copied_slots=0\ttotal_iterations=0\tscenario=None\n\
                   config\tslot\tdc\tshare\tquota\n0\t0\t0\n";
        assert!(PlanArtifact::from_tsv(bad).is_err());
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
