//! LP formulation of MP capacity provisioning (§5.3, Eq. 3–9), built per
//! failure scenario and solved with `sb-lp`'s revised simplex.
//!
//! Variables (Table 2): `S_tcx` (share of config `c`'s calls in slot `t`
//! hosted at DC `x`, bounded by the demand `D_tc`), `CP_x` (peak cores at DC
//! `x`), `NP_l` (peak Gbps on link `l`). The Eq. 4 latency filter is applied
//! structurally: `S_tcx` variables are only created for DCs whose
//! `ACL(x,c) ≤ LAT_th` (with the single-best-DC fallback of Eq. 9's note).

use sb_lp::{Basis, GuardedSimplex, LpError, LpProblem, PreparedProblem, RevisedSimplex, Var};
use sb_net::{DcId, FailureScenario, LinkId, ProvisionedCapacity, RoutingTable, Topology};
use sb_workload::{CallConfig, ConfigCatalog, ConfigId, DemandMatrix};

use crate::latency::LatencyMap;
use crate::shares::AllocationShares;
use crate::usage::{for_each_link_load, link_loads};

/// Everything the planner needs to know about the problem instance.
#[derive(Copy, Clone)]
pub struct PlanningInputs<'a> {
    /// Provider topology (DCs, links, costs).
    pub topo: &'a Topology,
    /// Call-config catalog.
    pub catalog: &'a ConfigCatalog,
    /// `D_tc`: demand per (config, slot). Configs with zero demand are
    /// ignored; pass the top-coverage selection here (§5.2).
    pub demand: &'a DemandMatrix,
    /// `LAT_th`, 120 ms in the paper.
    pub latency_threshold_ms: f64,
}

impl<'a> PlanningInputs<'a> {
    /// Inputs with the paper's default latency threshold (120 ms, §5.3).
    pub fn new(topo: &'a Topology, catalog: &'a ConfigCatalog, demand: &'a DemandMatrix) -> Self {
        PlanningInputs {
            topo,
            catalog,
            demand,
            latency_threshold_ms: 120.0,
        }
    }

    /// Same inputs with a different `LAT_th`.
    pub fn with_latency_threshold(self, latency_threshold_ms: f64) -> Self {
        PlanningInputs {
            latency_threshold_ms,
            ..self
        }
    }
}

/// Scenario-specific derived data (routing and latency under the failure).
#[derive(Clone, Debug)]
pub struct ScenarioData {
    /// The failure scenario.
    pub scenario: FailureScenario,
    /// Shortest-path routing under the scenario.
    pub routing: RoutingTable,
    /// `Lat(x,u)` under the scenario.
    pub latmap: LatencyMap,
}

impl ScenarioData {
    /// Compute routing + latency for `scenario`.
    pub fn compute(topo: &Topology, scenario: FailureScenario) -> ScenarioData {
        let routing = RoutingTable::compute(topo, scenario);
        let latmap = LatencyMap::from_routing(topo, &routing);
        ScenarioData {
            scenario,
            routing,
            latmap,
        }
    }
}

/// Result of one scenario solve.
#[derive(Clone, Debug)]
pub struct ScenarioSolution {
    /// Scenario solved.
    pub scenario: FailureScenario,
    /// Required capacity under this scenario (`CP`, `NP`).
    pub capacity: ProvisionedCapacity,
    /// The optimal shares `S_tcx / D_tc`.
    pub shares: AllocationShares,
    /// LP objective (provisioning cost under this scenario).
    pub objective: f64,
    /// Configs that could not be hosted anywhere under this scenario
    /// (no reachable DC for some participant country).
    pub dropped: Vec<ConfigId>,
    /// Simplex iterations the scenario LP took (deterministic per model).
    pub iterations: u64,
    /// Constraint rows in the scenario LP.
    pub lp_rows: usize,
    /// Variables (columns) in the scenario LP.
    pub lp_cols: usize,
    /// Cost of capacity purchased *above* the base handed to the solve
    /// (equals the full capacity cost when there was no base).
    pub increment_cost: f64,
    /// Engine statistics for the scenario LP (warm start, pricing, rung).
    pub stats: sb_lp::SolveStats,
}

/// Why provisioning failed.
#[derive(Debug)]
pub enum ProvisionError {
    /// The scenario LP failed.
    Lp {
        /// Scenario being solved.
        scenario: FailureScenario,
        /// Underlying solver error.
        source: LpError,
    },
    /// No demand at all.
    EmptyDemand,
}

impl std::fmt::Display for ProvisionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProvisionError::Lp { scenario, source } => {
                write!(f, "LP failed under scenario {scenario:?}: {source}")
            }
            ProvisionError::EmptyDemand => write!(f, "demand matrix is empty"),
        }
    }
}

impl std::error::Error for ProvisionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProvisionError::Lp { source, .. } => Some(source),
            ProvisionError::EmptyDemand => None,
        }
    }
}

impl From<ProvisionError> for LpError {
    /// Forget the scenario context, keeping the solver error (`EmptyDemand`
    /// maps to `BadModel`). Useful when a caller funnels everything into
    /// `LpError`-shaped plumbing.
    fn from(e: ProvisionError) -> LpError {
        match e {
            ProvisionError::Lp { source, .. } => source,
            ProvisionError::EmptyDemand => LpError::BadModel("demand matrix is empty".into()),
        }
    }
}

/// Knobs for the scenario solve.
#[derive(Clone, Debug)]
pub struct SolveOptions {
    /// Demands below this are treated as zero. Besides shrinking the LP,
    /// this keeps near-zero rows out of the model — sub-milli-call demand is
    /// forecast noise, and rows with b ≈ 1e−6 are numerically hostile.
    pub min_demand: f64,
    /// Secondary-objective weight on `Σ S·ACL` relative to the cost
    /// objective (Eq. 10 as a tie-break; keep ≪ 1 so cost optimality is not
    /// compromised).
    pub acl_epsilon: f64,
    /// Tiny *fraction of the real resource price* charged on peak usage (as
    /// opposed to purchased increments). Among equal-increment optima this
    /// prefers lean usage priced consistently across scenarios, so a
    /// scenario neither free-rides across all of the base capacity nor
    /// reports inflated requirements to the cross-scenario union. Must
    /// dominate `acl_epsilon`'s term and stay ≪ 1.
    pub usage_epsilon: f64,
    /// Simplex engine configuration (the primary engine, including any
    /// iteration/time budget).
    pub solver: RevisedSimplex,
    /// When the primary engine exhausts its budget or hits a numerical
    /// wall, retry with the dense tableau engine instead of failing the
    /// scenario (see [`sb_lp::GuardedSimplex`]). On by default: a degraded
    /// solve beats a provisioning outage.
    pub fallback_to_dense: bool,
    /// Warm-start scenario solves from a previously exported basis where one
    /// is available (the scenario sweep seeds every failure scenario with
    /// the `F₀` optimal basis). An unusable basis silently downgrades to a
    /// cold solve, so this is purely a performance knob.
    pub warm_start: bool,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            min_demand: 1e-3,
            acl_epsilon: 1e-6,
            usage_epsilon: 1e-3,
            solver: RevisedSimplex::new(),
            fallback_to_dense: true,
            warm_start: true,
        }
    }
}

impl SolveOptions {
    /// The engine both planning LPs (the Eq. 3–9 sweep and the Eq. 10 slot
    /// planner) solve with: the primary under its budget, with the dense
    /// retry `fallback_to_dense` asks for.
    pub(crate) fn guarded(&self) -> GuardedSimplex {
        GuardedSimplex {
            primary: self.solver.clone(),
            fallback_to_dense: self.fallback_to_dense,
        }
    }
}

/// One Eq. 6 row of a planning LP, as `(slot, link, terms)`: each term is a
/// `(config, DC)` placement with the Gbps the row charges it per call.
pub type NetworkRow = (usize, LinkId, Vec<(ConfigId, DcId, f64)>);

/// Rows of a planning LP's placement grid: each demand-active config with the
/// union of DCs the Eq. 4 latency filter allows it under *any* of `sds`, in
/// first-seen order.
pub(crate) type PlacementGrid = Vec<(ConfigId, Vec<DcId>)>;

/// The placement grid over `sds`, plus the demand-active configs no scenario
/// can host at all. Configs are in catalog order; one whose demand never
/// exceeds `min_demand`, or that the demand matrix does not cover, has no row.
pub(crate) fn placement_grid(
    inputs: &PlanningInputs<'_>,
    sds: &[ScenarioData],
    min_demand: f64,
) -> (PlacementGrid, Vec<ConfigId>) {
    let demand = inputs.demand;
    let mut grid = PlacementGrid::new();
    let mut never_hostable = Vec::new();
    for (cfg_id, cfg) in inputs.catalog.iter() {
        if cfg_id.index() >= demand.num_configs()
            || demand.series(cfg_id).iter().all(|&d| d <= min_demand)
        {
            continue;
        }
        let mut union: Vec<DcId> = Vec::new();
        for sd in sds {
            for (dc, _) in sd.latmap.allowed_dcs(cfg, inputs.latency_threshold_ms) {
                if !union.contains(&dc) {
                    union.push(dc);
                }
            }
        }
        if union.is_empty() {
            never_hostable.push(cfg_id);
        } else {
            grid.push((cfg_id, union));
        }
    }
    (grid, never_hostable)
}

/// One `(config, DC)` placement under a scenario: its ACL and the Gbps one
/// call puts on each link ([`link_loads`]).
pub(crate) type Placement = (f64, Vec<(LinkId, f64)>);

/// What scenario `sd` makes of one grid row: per DC of `dcs`, the placement
/// of `cfg` there, or `None` where the latency filter forbids it under `sd`.
pub(crate) fn placements_under(
    sd: &ScenarioData,
    cfg: &CallConfig,
    dcs: &[DcId],
    latency_threshold_ms: f64,
) -> Vec<Option<Placement>> {
    let allowed = sd.latmap.allowed_dcs(cfg, latency_threshold_ms);
    dcs.iter()
        .map(|&dc| {
            let &(_, acl) = allowed.iter().find(|&&(a, _)| a == dc)?;
            Some((acl, link_loads(&sd.routing, cfg, dc)))
        })
        .collect()
}

/// One share variable `S_tcx` of the sweep model.
#[derive(Clone, Debug)]
struct ShareVar {
    cfg: ConfigId,
    slot: usize,
    dc: DcId,
    var: Var,
    demand: f64,
}

/// The scenario-sweep master LP: one model built over the **union** of every
/// scenario's allowed `(config, slot, DC)` placements, then patched in place
/// per scenario instead of rebuilt.
///
/// Structure (rows, columns, their order) is scenario-independent; what a
/// scenario changes is only numbers: share-variable bounds (disallowed
/// placements and failed resources pin to 0), ACL tie-break costs, network
/// row coefficients (routing changes under failures), completeness
/// right-hand sides (dropped configs), and capacity-row right-hand sides
/// (the base handed to incremental solves). That stability is what makes a
/// basis exported from one scenario's solve injectable into the next — the
/// standard-form column layout is identical — so a sweep collapses to one
/// cold solve plus cheap warm re-optimizations.
///
/// Extra columns a scenario pins to 0 never enter the basis (pricing skips
/// them) and extra all-slack rows keep zero duals, so a single-scenario
/// `SweepModel` solves exactly the LP [`solve_scenario`] used to build
/// directly.
#[derive(Clone, Debug)]
pub struct SweepModel {
    lp: LpProblem,
    prep: PreparedProblem,
    solver: GuardedSimplex,
    warm_start: bool,
    acl_epsilon: f64,
    min_demand: f64,
    latency_threshold_ms: f64,
    t_slots: usize,
    dominator: Vec<usize>,
    /// Demand-active configs hostable under ≥ 1 scenario, each with the
    /// union of allowed DCs across scenarios (first-seen order).
    active: PlacementGrid,
    /// `share_vars` range per `active` entry (configs are contiguous).
    share_range: Vec<(usize, usize)>,
    /// Demand-active configs unreachable under *every* scenario.
    never_hostable: Vec<ConfigId>,
    share_vars: Vec<ShareVar>,
    /// `(UP, CP)` capacity-variable pair per DC (DCs down in all scenarios
    /// have none).
    cp: Vec<Option<(Var, Var)>>,
    /// `(UN, NP)` pair per link (links unused by all scenarios have none).
    np: Vec<Option<(Var, Var)>>,
    /// Row index of `UP − CP ≤ base` per DC.
    cp_row: Vec<usize>,
    /// Row index of `UN − NP ≤ base` per link.
    np_row: Vec<usize>,
    /// `(row, active idx, demand)` per Eq. 9 completeness row.
    completeness_rows: Vec<(usize, usize, f64)>,
    /// `(row, slot, link)` per Eq. 6 network row.
    network_rows: Vec<(usize, usize, LinkId)>,
    /// `(slot, link)` → index into `network_rows` (`usize::MAX` = no row).
    net_pos: Vec<usize>,
}

impl SweepModel {
    /// Build the master LP for a sweep over `sds`. The model's structure is
    /// the union over all scenarios; [`solve_one`](Self::solve_one) patches
    /// it down to a concrete scenario. `inputs` must be the same value later
    /// passed to `solve_one`.
    pub fn new(
        inputs: &PlanningInputs<'_>,
        sds: &[ScenarioData],
        opts: &SolveOptions,
    ) -> Result<SweepModel, ProvisionError> {
        assert!(!sds.is_empty(), "sweep needs at least one scenario");
        let topo = inputs.topo;
        let demand = inputs.demand;
        let t_slots = demand.num_slots();
        if demand.total_calls() <= 0.0 {
            return Err(ProvisionError::EmptyDemand);
        }

        let (active, never_hostable) = placement_grid(inputs, sds, opts.min_demand);

        // Dominated-slot reduction (exact): if slot s's demand vector is
        // component-wise ≤ slot s''s, any feasible allocation for s' scaled
        // down per config also serves s within the same peaks — so s adds no
        // binding constraint. Solve only the Pareto-maximal slots and copy
        // shares to the dominated ones. Processing by descending total
        // demand guarantees every dominator is itself a kept slot
        // (domination implies total ≤).
        let mut dominator: Vec<usize> = (0..t_slots).collect();
        let kept_slots: Vec<usize> = {
            let cfg_ids: Vec<ConfigId> = active.iter().map(|(id, _)| *id).collect();
            let cols: Vec<Vec<f64>> = (0..t_slots)
                .map(|s| cfg_ids.iter().map(|&id| demand.get(id, s)).collect())
                .collect();
            let mut order: Vec<usize> = (0..t_slots).collect();
            let totals: Vec<f64> = cols.iter().map(|c| c.iter().sum()).collect();
            order.sort_by(|&a, &b| totals[b].total_cmp(&totals[a]).then(a.cmp(&b)));
            let mut kept: Vec<usize> = Vec::new();
            for &s in &order {
                match kept
                    .iter()
                    .find(|&&k| cols[s].iter().zip(&cols[k]).all(|(a, b)| a <= b))
                {
                    Some(&k) => dominator[s] = k,
                    None => kept.push(s),
                }
            }
            kept.sort_unstable();
            kept
        };

        let mut lp = LpProblem::new();

        // Capacity variables come in pairs: `UP` tracks the scenario's peak
        // *usage* (tiny price, keeps requirements lean) and `CP` the
        // purchased *increment* above the base (real price): `usage ≤ UP`,
        // `UP − CP ≤ base`. Bounds and rhs are patched per scenario.
        let mut cp: Vec<Option<(Var, Var)>> = vec![None; topo.dcs.len()];
        let mut cp_row = vec![usize::MAX; topo.dcs.len()];
        for dc in topo.dc_ids() {
            if sds.iter().any(|sd| sd.scenario.dc_up(dc)) {
                let up = lp.add_nonneg(
                    format!("UP_{}", dc.index()),
                    opts.usage_epsilon * topo.dcs[dc.index()].core_cost,
                );
                let inc =
                    lp.add_nonneg(format!("CP_{}", dc.index()), topo.dcs[dc.index()].core_cost);
                lp.add_le(vec![(up, 1.0), (inc, -1.0)], 0.0);
                cp_row[dc.index()] = lp.num_constraints() - 1;
                cp[dc.index()] = Some((up, inc));
            }
        }
        let mut np: Vec<Option<(Var, Var)>> = vec![None; topo.links.len()];
        let mut np_row = vec![usize::MAX; topo.links.len()];
        // only links on some allowed route under some scenario need
        // variables; created lazily below
        let link_var = |lp: &mut LpProblem,
                        np: &mut Vec<Option<(Var, Var)>>,
                        np_row: &mut Vec<usize>,
                        l: LinkId| {
            if np[l.index()].is_some() {
                return;
            }
            let up = lp.add_nonneg(
                format!("UN_{}", l.index()),
                opts.usage_epsilon * topo.links[l.index()].cost_per_gbps,
            );
            let inc = lp.add_nonneg(
                format!("NP_{}", l.index()),
                topo.links[l.index()].cost_per_gbps,
            );
            lp.add_le(vec![(up, 1.0), (inc, -1.0)], 0.0);
            np_row[l.index()] = lp.num_constraints() - 1;
            np[l.index()] = Some((up, inc));
        };

        // per-slot accumulation rows: compute[(t, dc)] and network[(t, link)]
        let mut compute_rows: Vec<Vec<(Var, f64)>> = vec![Vec::new(); t_slots * topo.dcs.len()];
        let mut network_acc: Vec<Vec<(Var, f64)>> = vec![Vec::new(); t_slots * topo.links.len()];

        let mut share_vars: Vec<ShareVar> = Vec::new();
        let mut share_range = Vec::with_capacity(active.len());
        let mut completeness_rows = Vec::new();

        for (ai, (cfg_id, union_dcs)) in active.iter().enumerate() {
            let cfg = inputs.catalog.config(*cfg_id);
            let call_cl = cfg.compute_load();
            // per union DC: links this placement can load under *some*
            // scenario (structure only; weights are patched per scenario)
            let per_dc_links: Vec<Vec<LinkId>> = union_dcs
                .iter()
                .map(|&dc| {
                    let mut links: Vec<LinkId> = Vec::new();
                    for sd in sds {
                        for_each_link_load(&sd.routing, cfg, dc, 1.0, |l, _| {
                            if !links.contains(&l) {
                                links.push(l);
                            }
                        });
                    }
                    links
                })
                .collect();

            let start = share_vars.len();
            for &slot in &kept_slots {
                let d = demand.get(*cfg_id, slot);
                if d <= opts.min_demand {
                    continue;
                }
                let mut completeness: Vec<(Var, f64)> = Vec::with_capacity(union_dcs.len());
                for (k, &dc) in union_dcs.iter().enumerate() {
                    let v = lp.add_var(
                        format!("S_{}_{}_{}", cfg_id.index(), slot, dc.index()),
                        0.0, // ACL tie-break cost patched per scenario
                        0.0,
                        d,
                    );
                    completeness.push((v, 1.0));
                    compute_rows[slot * topo.dcs.len() + dc.index()].push((v, call_cl));
                    for &l in &per_dc_links[k] {
                        link_var(&mut lp, &mut np, &mut np_row, l);
                        // placeholder weight; real loads patched per scenario
                        network_acc[slot * topo.links.len() + l.index()].push((v, 1.0));
                    }
                    share_vars.push(ShareVar {
                        cfg: *cfg_id,
                        slot,
                        dc,
                        var: v,
                        demand: d,
                    });
                }
                // Eq. 9 completeness (rhs patched to 0 when a scenario drops
                // the config)
                lp.add_eq(completeness, d);
                completeness_rows.push((lp.num_constraints() - 1, ai, d));
            }
            share_range.push((start, share_vars.len()));
        }

        // Eq. 5: Σ_c CL·S_tcx ≤ UP_x — compute loads are routing-independent,
        // so these rows are never patched.
        for &slot in &kept_slots {
            for dc in topo.dc_ids() {
                let row = std::mem::take(&mut compute_rows[slot * topo.dcs.len() + dc.index()]);
                if row.is_empty() {
                    continue;
                }
                let mut coeffs = row;
                let (up, _) = cp[dc.index()].expect("S var exists only for sometimes-up DCs");
                coeffs.push((up, -1.0));
                lp.add_le(coeffs, 0.0);
            }
        }
        // Eq. 6: Σ traffic ≤ UN_l — coefficients follow the scenario's
        // routing and are patched per scenario.
        let mut network_rows = Vec::new();
        let mut net_pos = vec![usize::MAX; t_slots * topo.links.len()];
        for &slot in &kept_slots {
            for l in topo.link_ids() {
                let acc = std::mem::take(&mut network_acc[slot * topo.links.len() + l.index()]);
                if acc.is_empty() {
                    continue;
                }
                let mut coeffs = acc;
                let (up, _) = np[l.index()].expect("link var created with usage");
                coeffs.push((up, -1.0));
                lp.add_le(coeffs, 0.0);
                net_pos[slot * topo.links.len() + l.index()] = network_rows.len();
                network_rows.push((lp.num_constraints() - 1, slot, l));
            }
        }

        let prep = PreparedProblem::new(&lp);
        Ok(SweepModel {
            lp,
            prep,
            solver: opts.guarded(),
            warm_start: opts.warm_start,
            acl_epsilon: opts.acl_epsilon,
            min_demand: opts.min_demand,
            latency_threshold_ms: inputs.latency_threshold_ms,
            t_slots,
            dominator,
            active,
            share_range,
            never_hostable,
            share_vars,
            cp,
            np,
            cp_row,
            np_row,
            completeness_rows,
            network_rows,
            net_pos,
        })
    }

    /// Rows in the master LP.
    pub fn lp_rows(&self) -> usize {
        self.lp.num_constraints()
    }

    /// Columns (variables) in the master LP.
    pub fn lp_cols(&self) -> usize {
        self.lp.num_vars()
    }

    /// Eq. 6 as the master LP states it for the scenario last solved: every
    /// modeled `(slot, link)` row with the Gbps it charges per call of each
    /// `(config, DC)` placement. A model-inspection view: tests hold it
    /// against [`crate::usage::compute_usage`] of the solution's shares.
    pub fn network_rows(&self) -> Vec<NetworkRow> {
        // `share_vars` is in variable-creation order; a row's one column that
        // is not a share variable is its link's `UN`
        let share_var = |v: Var| {
            let found = (self.share_vars).binary_search_by_key(&v.index(), |sv| sv.var.index());
            found.ok().map(|i| &self.share_vars[i])
        };
        let rows = self.network_rows.iter().map(|&(row, slot, link)| {
            let coeffs = self.lp.rows()[row].coeffs.iter();
            let terms = coeffs.filter_map(|&(v, w)| share_var(v).map(|sv| (sv.cfg, sv.dc, w)));
            (slot, link, terms.collect())
        });
        rows.collect()
    }

    /// Patch every scenario-dependent number in the master LP for `sd` /
    /// `base`. Full-overwrite: correct regardless of which scenario was
    /// patched in before. Returns the configs dropped under this scenario.
    fn patch(
        &mut self,
        inputs: &PlanningInputs<'_>,
        sd: &ScenarioData,
        base: Option<&ProvisionedCapacity>,
    ) -> Vec<ConfigId> {
        let topo = inputs.topo;
        // capacity pairs: pin failed resources to 0, set base rhs
        for dc in topo.dc_ids() {
            let Some((up, inc)) = self.cp[dc.index()] else {
                continue;
            };
            let live = sd.scenario.dc_up(dc);
            let ub = if live { f64::INFINITY } else { 0.0 };
            self.lp.set_var_upper(up, ub);
            self.lp.set_var_upper(inc, ub);
            let rhs = if live {
                base.map(|b| b.cores[dc.index()]).unwrap_or(0.0)
            } else {
                0.0
            };
            self.lp.set_rhs(self.cp_row[dc.index()], rhs);
        }
        for l in topo.link_ids() {
            let Some((up, inc)) = self.np[l.index()] else {
                continue;
            };
            let live = sd.scenario.link_up(topo, l);
            let ub = if live { f64::INFINITY } else { 0.0 };
            self.lp.set_var_upper(up, ub);
            self.lp.set_var_upper(inc, ub);
            let rhs = if live {
                base.map(|b| b.gbps[l.index()]).unwrap_or(0.0)
            } else {
                0.0
            };
            self.lp.set_rhs(self.np_row[l.index()], rhs);
        }

        // share variables, completeness rhs and network-row coefficients
        let mut dropped: Vec<ConfigId> = self.never_hostable.clone();
        let mut hostable = vec![false; self.active.len()];
        let mut net_coeffs: Vec<Vec<(Var, f64)>> = vec![Vec::new(); self.network_rows.len()];
        for (ai, (cfg_id, union_dcs)) in self.active.iter().enumerate() {
            let cfg = inputs.catalog.config(*cfg_id);
            let placements = placements_under(sd, cfg, union_dcs, self.latency_threshold_ms);
            hostable[ai] = placements.iter().any(Option::is_some);
            if !hostable[ai] {
                dropped.push(*cfg_id);
            }
            let (s0, s1) = self.share_range[ai];
            for sv in &self.share_vars[s0..s1] {
                let k = union_dcs
                    .iter()
                    .position(|&dc| dc == sv.dc)
                    .expect("share var DC is in the union");
                match &placements[k] {
                    Some((acl, loads)) => {
                        self.lp.set_var_upper(sv.var, sv.demand);
                        self.lp.set_var_cost(sv.var, self.acl_epsilon * acl);
                        for &(l, w) in loads {
                            let pos = self.net_pos[sv.slot * topo.links.len() + l.index()];
                            net_coeffs[pos].push((sv.var, w));
                        }
                    }
                    None => {
                        // placement not allowed here: pin to 0
                        self.lp.set_var_upper(sv.var, 0.0);
                        self.lp.set_var_cost(sv.var, 0.0);
                    }
                }
            }
        }
        for &(row, ai, d) in &self.completeness_rows {
            self.lp.set_rhs(row, if hostable[ai] { d } else { 0.0 });
        }
        for (pos, &(row, _slot, l)) in self.network_rows.iter().enumerate() {
            let mut coeffs = std::mem::take(&mut net_coeffs[pos]);
            let (up, _) = self.np[l.index()].expect("network row implies link pair");
            coeffs.push((up, -1.0));
            self.lp.set_row_coeffs(row, coeffs);
        }
        dropped.sort_unstable_by_key(|c| c.index());
        dropped
    }

    /// Patch the master LP for `sd` and solve it, optionally warm-starting
    /// from `warm` (a basis returned by a previous `solve_one` on this
    /// model). Returns the scenario solution and the optimal basis for
    /// seeding later solves.
    pub fn solve_one(
        &mut self,
        inputs: &PlanningInputs<'_>,
        sd: &ScenarioData,
        base: Option<&ProvisionedCapacity>,
        warm: Option<&Basis>,
    ) -> Result<(ScenarioSolution, Option<Basis>), ProvisionError> {
        let topo = inputs.topo;
        let build_start = std::time::Instant::now();
        let dropped = self.patch(inputs, sd, base);
        let outcome = self.prep.refresh(&self.lp);
        debug_assert_eq!(
            outcome,
            sb_lp::PatchOutcome::Patched,
            "scenario patches must be layout-stable"
        );
        let build_wall = build_start.elapsed();

        let warm = if self.warm_start { warm } else { None };
        let sol = self
            .solver
            .solve_prepared(&self.lp, &self.prep, warm)
            .map_err(|source| ProvisionError::Lp {
                scenario: sd.scenario,
                source,
            })?;

        // extract capacity: base plus purchased increment (base counts only
        // where the resource is actually usable under this scenario)
        let mut capacity = ProvisionedCapacity::zero(topo);
        let mut increment_cost = 0.0;
        for dc in topo.dc_ids() {
            if let Some((_, inc)) = self.cp[dc.index()] {
                if sd.scenario.dc_up(dc) {
                    let b = base.map(|b| b.cores[dc.index()]).unwrap_or(0.0);
                    let bought = sol.value(inc).max(0.0);
                    capacity.cores[dc.index()] = b + bought;
                    increment_cost += bought * topo.dcs[dc.index()].core_cost;
                }
            }
        }
        for l in topo.link_ids() {
            if let Some((_, inc)) = self.np[l.index()] {
                if sd.scenario.link_up(topo, l) {
                    let b = base.map(|b| b.gbps[l.index()]).unwrap_or(0.0);
                    let bought = sol.value(inc).max(0.0);
                    capacity.gbps[l.index()] = b + bought;
                    increment_cost += bought * topo.links[l.index()].cost_per_gbps;
                }
            }
        }

        // extract shares (normalized); pinned placements read back as 0
        let mut shares = AllocationShares::new(self.t_slots);
        {
            use std::collections::HashMap;
            let mut grouped: HashMap<(ConfigId, usize), Vec<(DcId, f64)>> = HashMap::new();
            for sv in &self.share_vars {
                let val = sol.value(sv.var).max(0.0);
                if val > 1e-9 * sv.demand.max(1.0) {
                    grouped
                        .entry((sv.cfg, sv.slot))
                        .or_default()
                        .push((sv.dc, val / sv.demand));
                }
            }
            for ((cfg, slot), fracs) in grouped {
                shares.set(cfg, slot, fracs);
            }
            // dominated slots reuse their dominator's shares (see above:
            // demand is component-wise smaller, so the scaled allocation
            // stays feasible)
            for slot in 0..self.t_slots {
                let dom = self.dominator[slot];
                if dom == slot {
                    continue;
                }
                for (cfg_id, _) in &self.active {
                    if inputs.demand.get(*cfg_id, slot) <= self.min_demand {
                        continue;
                    }
                    let fr = shares.get(*cfg_id, dom).to_vec();
                    if !fr.is_empty() {
                        shares.set(*cfg_id, slot, fr);
                    }
                }
            }
        }

        // objective without the ACL tie-break term
        let objective = capacity.cost(topo);

        crate::metrics::provision_metrics().record_scenario(
            sd.scenario,
            self.lp.num_constraints(),
            self.lp.num_vars(),
            &sol,
            build_wall,
            increment_cost,
            dropped.len(),
        );

        let basis = sol.basis().cloned();
        let stats = sol.stats();
        Ok((
            ScenarioSolution {
                scenario: sd.scenario,
                capacity,
                shares,
                objective,
                dropped,
                iterations: sol.iterations(),
                lp_rows: self.lp.num_constraints(),
                lp_cols: self.lp.num_vars(),
                increment_cost,
                stats,
            },
            basis,
        ))
    }
}

/// Build and solve the provisioning LP for one scenario.
///
/// With `base = None` this is the serving-capacity LP (`F₀`, Eq. 3–6 + 9).
/// With `base = Some(serving)` the LP prices only capacity *increments* above
/// the already-provisioned base — the §4.2 joint serving+backup idea: a DC's
/// off-peak serving capacity doubles as backup for free, and only genuinely
/// new cores/Gbps cost money. The returned capacity is `base + increment`.
///
/// This is the single-scenario form of [`SweepModel`]; sweeps over many
/// scenarios should build one `SweepModel` and warm-start instead.
pub fn solve_scenario(
    inputs: &PlanningInputs<'_>,
    sd: &ScenarioData,
    base: Option<&ProvisionedCapacity>,
    opts: &SolveOptions,
) -> Result<ScenarioSolution, ProvisionError> {
    let mut model = SweepModel::new(inputs, std::slice::from_ref(sd), opts)?;
    Ok(model.solve_one(inputs, sd, base, None)?.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_workload::{CallConfig, MediaType};

    /// Two-slot instance on the toy topology: JP-heavy demand in slot 0,
    /// IN-heavy in slot 1 — the peak-shaving structure of §4.1.
    fn instance() -> (Topology, ConfigCatalog, DemandMatrix) {
        let topo = sb_net::presets::toy_three_dc();
        let jp = topo.country_by_name("JP");
        let iin = topo.country_by_name("IN");
        let mut cat = ConfigCatalog::new();
        let c_jp = cat.intern(CallConfig::new(vec![(jp, 2)], MediaType::Audio));
        let c_in = cat.intern(CallConfig::new(vec![(iin, 2)], MediaType::Audio));
        let mut demand = DemandMatrix::zero(2, 2, 30, 0);
        demand.set(c_jp, 0, 100.0);
        demand.set(c_jp, 1, 10.0);
        demand.set(c_in, 0, 10.0);
        demand.set(c_in, 1, 100.0);
        (topo, cat, demand)
    }

    #[test]
    fn f0_solve_places_all_demand() {
        let (topo, cat, demand) = instance();
        let inputs = PlanningInputs {
            topo: &topo,
            catalog: &cat,
            demand: &demand,
            latency_threshold_ms: 120.0,
        };
        let sd = ScenarioData::compute(&topo, FailureScenario::None);
        let sol = solve_scenario(&inputs, &sd, None, &SolveOptions::default()).unwrap();
        assert!(sol.dropped.is_empty());
        let placed = crate::usage::placed_fraction(&demand, &sol.shares);
        assert!((placed - 1.0).abs() < 1e-6, "placed {placed}");
        // capacity must cover the usage implied by the shares
        let usage = crate::usage::compute_usage(&topo, &sd.routing, &cat, &demand, &sol.shares);
        assert!(usage.fits_within(&sol.capacity, 1e-6));
        assert!(sol.objective > 0.0);
    }

    #[test]
    fn tight_latency_forces_local_hosting() {
        let (topo, cat, demand) = instance();
        // threshold below any cross-country ACL: each config must stay home
        let inputs = PlanningInputs {
            topo: &topo,
            catalog: &cat,
            demand: &demand,
            latency_threshold_ms: 10.0,
        };
        let sd = ScenarioData::compute(&topo, FailureScenario::None);
        let sol = solve_scenario(&inputs, &sd, None, &SolveOptions::default()).unwrap();
        let tokyo = topo.dc_by_name("Tokyo");
        let pune = topo.dc_by_name("Pune");
        // JP config slot 0 entirely in Tokyo
        let s = sol.shares.get(sb_workload::ConfigId(0), 0);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].0, tokyo);
        let s = sol.shares.get(sb_workload::ConfigId(1), 1);
        assert_eq!(s[0].0, pune);
    }

    #[test]
    fn loose_latency_shaves_peaks() {
        let (topo, cat, demand) = instance();
        let inputs = PlanningInputs {
            topo: &topo,
            catalog: &cat,
            demand: &demand,
            latency_threshold_ms: 120.0,
        };
        let sd = ScenarioData::compute(&topo, FailureScenario::None);
        let loose = solve_scenario(&inputs, &sd, None, &SolveOptions::default()).unwrap();
        let tight_inputs = PlanningInputs {
            latency_threshold_ms: 10.0,
            ..inputs
        };
        let tight = solve_scenario(&tight_inputs, &sd, None, &SolveOptions::default()).unwrap();
        // more freedom can only reduce cost
        assert!(loose.objective <= tight.objective + 1e-6);
    }

    #[test]
    fn dc_failure_scenario_shifts_load() {
        let (topo, cat, demand) = instance();
        let inputs = PlanningInputs {
            topo: &topo,
            catalog: &cat,
            demand: &demand,
            latency_threshold_ms: 120.0,
        };
        let tokyo = topo.dc_by_name("Tokyo");
        let sd = ScenarioData::compute(&topo, FailureScenario::DcDown(tokyo));
        let sol = solve_scenario(&inputs, &sd, None, &SolveOptions::default()).unwrap();
        assert_eq!(sol.capacity.cores[tokyo.index()], 0.0);
        // all demand still placed (JP calls go to HK/Pune)
        let placed = crate::usage::placed_fraction(&demand, &sol.shares);
        assert!((placed - 1.0).abs() < 1e-6);
        // any usage on Tokyo's links is impossible
        for (i, l) in topo.links.iter().enumerate() {
            let touches_tokyo = l.a == sb_net::Node::Dc(tokyo) || l.b == sb_net::Node::Dc(tokyo);
            if touches_tokyo {
                assert_eq!(sol.capacity.gbps[i], 0.0);
            }
        }
    }

    #[test]
    fn peak_aware_beats_sum_of_local_peaks() {
        // §4.1: shifted peaks let the LP provision less than locality-first
        let (topo, cat, demand) = instance();
        let inputs = PlanningInputs {
            topo: &topo,
            catalog: &cat,
            demand: &demand,
            latency_threshold_ms: 120.0,
        };
        let sd = ScenarioData::compute(&topo, FailureScenario::None);
        let sol = solve_scenario(&inputs, &sd, None, &SolveOptions::default()).unwrap();
        // Locality-first would provision each local peak (100 calls × 2
        // participants × CL) at both Tokyo and Pune; the LP can exploit the
        // shifted peaks and land strictly below that sum (and no lower than
        // the global per-slot peak).
        let cl = MediaType::Audio.compute_load();
        let lf_total = 2.0 * (100.0 * 2.0 * cl);
        let global_peak = 110.0 * 2.0 * cl;
        let got = sol.capacity.total_cores();
        assert!(
            got < lf_total - 0.05 * lf_total,
            "LP total {got} not meaningfully below LF {lf_total}"
        );
        assert!(
            got >= global_peak - 1e-6,
            "LP total {got} below global peak {global_peak}"
        );
    }

    #[test]
    fn dc_outside_the_latency_filter_yields_no_placement() {
        let (topo, cat, _) = instance();
        let sd = ScenarioData::compute(&topo, FailureScenario::None);
        let cfg = cat.config(ConfigId(0)); // two JP participants
        let all: Vec<DcId> = topo.dc_ids().collect();
        // a threshold only the home DC meets
        let allowed = sd.latmap.allowed_dcs(cfg, 10.0);
        assert_eq!(allowed.len(), 1);
        let placed = placements_under(&sd, cfg, &all, 10.0);
        for (&dc, p) in all.iter().zip(&placed) {
            match p {
                Some((acl, loads)) => {
                    assert_eq!((dc, *acl), allowed[0]);
                    assert_eq!(*loads, link_loads(&sd.routing, cfg, dc));
                    assert!(!loads.is_empty());
                }
                None => assert_ne!(dc, allowed[0].0, "routable, but filtered out"),
            }
        }
        assert_eq!(placed.iter().flatten().count(), 1);
    }

    #[test]
    fn placement_grid_unions_scenarios_in_first_seen_order() {
        let (topo, cat, mut demand) = instance();
        let tokyo = topo.dc_by_name("Tokyo");
        let inputs = PlanningInputs::new(&topo, &cat, &demand).with_latency_threshold(10.0);
        let sds = [
            ScenarioData::compute(&topo, FailureScenario::DcDown(tokyo)),
            ScenarioData::compute(&topo, FailureScenario::None),
        ];
        // JP's row: the failover DC the first scenario falls back to, then
        // Tokyo from the healthy one; a single scenario sees only its own
        let (grid, never) = placement_grid(&inputs, &sds, 1e-3);
        assert!(never.is_empty());
        let fallback = sds[0].latmap.allowed_dcs(cat.config(ConfigId(0)), 10.0)[0].0;
        assert_eq!(grid[0], (ConfigId(0), vec![fallback, tokyo]));
        let (healthy, _) = placement_grid(&inputs, &sds[1..], 1e-3);
        assert_eq!(healthy[0], (ConfigId(0), vec![tokyo]));
        // a config whose demand never exceeds the floor has no row
        demand.set(ConfigId(1), 0, 0.0);
        demand.set(ConfigId(1), 1, 1e-4);
        let inputs = PlanningInputs::new(&topo, &cat, &demand);
        let (grid, _) = placement_grid(&inputs, &sds, 1e-3);
        assert_eq!(grid.len(), 1);
    }

    #[test]
    fn empty_demand_rejected() {
        let (topo, cat, _) = instance();
        let demand = DemandMatrix::zero(2, 2, 30, 0);
        let inputs = PlanningInputs {
            topo: &topo,
            catalog: &cat,
            demand: &demand,
            latency_threshold_ms: 120.0,
        };
        let sd = ScenarioData::compute(&topo, FailureScenario::None);
        assert!(matches!(
            solve_scenario(&inputs, &sd, None, &SolveOptions::default()),
            Err(ProvisionError::EmptyDemand)
        ));
    }
}
