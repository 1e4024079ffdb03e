//! Production engine: revised simplex with implicit variable bounds.
//!
//! Differences from the dense tableau engine:
//!
//! * upper bounds `0 ≤ x ≤ u` are handled natively (bound flips instead of
//!   extra rows), which matters for the provisioning LPs where most
//!   allocation-share variables carry a demand upper bound;
//! * the basis is represented by a [`Factorization`] backend — sparse LU
//!   with product-form eta updates by default, an explicit dense `B⁻¹` as
//!   the differential oracle — refactorized periodically and whenever the
//!   backend's fill/accuracy triggers fire;
//! * the constraint matrix stays sparse (CSC for columns, a CSR view for
//!   rows) and the reduced costs are *maintained*: each pivot updates them
//!   from the pivot row `α_r = ρᵀA_N`, `ρ = B⁻ᵀe_r`, which touches only the
//!   columns meeting the few nonzero rows of `ρ`. They are recomputed by
//!   dot product only where the factorization is (every refactorization,
//!   each phase's cost change) and before optimality is declared, so an
//!   iteration costs two sparse solves, one partial row pass and an array
//!   scan — no `O(nnz(A))` sweep;
//! * both solves come back with the ascending list of their nonzeros
//!   ([`SolveVec`]), and everything that consumes one — the exact `d_q`, the
//!   ratio test, the move of `x_B`, the eta, the pivot row — walks the list
//!   instead of `0..m`. Ascending order keeps every sum and every candidate
//!   list as a full pass would form it, so this skips zeros and changes no
//!   pivot.
//!
//! Anti-cycling: Dantzig pricing normally, switching to Bland's rule after a
//! run of degenerate pivots; this guarantees termination.

use crate::factor::{make_factor, FactorKind, Factorization, SolveVec};
use crate::metrics::{lp_metrics, RestoreGiveup};
use crate::problem::{
    Basis, IterationTimes, LpError, LpProblem, Solution, SolveRung, SolveStats, Solver, VarStatus,
};
use crate::ratio::{harris_ratio, relaxed_ratio, RatioCandidate, RatioChoice};
use crate::standard::{PreparedProblem, StandardForm};
use std::time::{Duration, Instant};

/// A ratio-test pivot below this fraction of the entering column's largest
/// `|w_i|` is not trusted until the basis has been refactorized (see `step`).
/// The value mirrors the `1e-7` tiny-pivot refactorization latch in
/// `factor.rs`: both mark the point where a pivot stops carrying trustworthy
/// information.
const PIVOT_STABILITY_REL: f64 = 1e-7;

/// Relative disagreement between the entering column's maintained reduced
/// cost and its exact value beyond which the whole maintained vector is
/// recomputed (see `step`). Loose enough that healthy solves never trip it
/// between two scheduled resyncs — both planet LPs stay below it throughout —
/// and tight enough that pivot choices are never made on garbage.
const D_DRIFT_REL: f64 = 1e-6;

/// Bound relaxation of the fallback ratio test (see `step`): how far a basic
/// variable may be pushed past its bound to buy a trustworthy pivot. Sits at
/// the default primal feasibility tolerance, which the end-of-solve guard
/// enforces on exact values.
const HARRIS_RELAX: f64 = 1e-7;

/// Column-selection strategy for the entering variable.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Pricing {
    /// Scan every column's maintained reduced cost, pick the largest in
    /// magnitude (lowest index on ties). Simple and steep; the scan is one
    /// pass over two `f64` arrays.
    Dantzig,
    /// Devex pricing (Forrest–Goldfarb): columns are scored by
    /// `d_j² / γ_j`, where the reference weight `γ_j` approximates the
    /// steepest-edge norm `‖B⁻¹A_j‖²` and is maintained from the same
    /// pivot row that updates the reduced costs. A full sweep harvests the
    /// 64 best-scored columns, then subsequent iterations price only that
    /// short list (dropping entries that turn unfavorable) until it runs
    /// dry or 64 iterations have passed, whichever comes first. Optimality
    /// is only ever declared by a *full* sweep over freshly recomputed
    /// reduced costs, so the strategy trades per-iteration cost for pivot
    /// count — never correctness; on the with-backup planet LP the devex
    /// score cuts the pivot count well below Dantzig's.
    Devex,
}

/// Candidate columns a devex full sweep keeps. Retuning it or
/// [`DEVEX_FULL_SWEEP_EVERY`] moved the provisioning LPs' pivot counts
/// chaotically with no stable optimum (EXPERIMENTS.md), so both are
/// constants.
const DEVEX_LIST_SIZE: usize = 64;
/// Devex forces a full sweep after this many candidate-list iterations
/// (keeps the list from going stale on degenerate stretches).
const DEVEX_FULL_SWEEP_EVERY: u64 = 64;

/// Revised simplex with bounded variables.
#[derive(Clone, Debug)]
pub struct RevisedSimplex {
    /// Hard iteration cap across both phases (`0` = automatic).
    pub max_iterations: u64,
    /// Wall-clock budget across both phases (`None` = unlimited). Exceeding
    /// it aborts the solve with [`LpError::TimeLimit`]; checked every few
    /// iterations so the overhead is negligible.
    pub time_budget: Option<Duration>,
    /// Reduced-cost / pivot tolerance.
    pub eps: f64,
    /// Primal feasibility tolerance used for the phase-1 decision and for
    /// accepting a warm-started basis.
    pub feas_eps: f64,
    /// Refactorize (recompute the basis factorization from scratch) at least
    /// every this many pivots; the sparse backend additionally refactorizes
    /// when its own fill/accuracy triggers fire.
    pub refactor_every: u64,
    /// Entering-column selection strategy.
    pub pricing: Pricing,
    /// Basis-factorization backend.
    pub factorization: FactorKind,
}

impl Default for RevisedSimplex {
    fn default() -> Self {
        RevisedSimplex {
            max_iterations: 0,
            time_budget: None,
            eps: 1e-9,
            feas_eps: 1e-7,
            refactor_every: 2_000,
            pricing: Pricing::Dantzig,
            factorization: FactorKind::default(),
        }
    }
}

impl RevisedSimplex {
    /// Engine with default tolerances.
    pub fn new() -> Self {
        Self::default()
    }

    /// Same engine with a wall-clock budget.
    pub fn with_time_budget(budget: Duration) -> Self {
        RevisedSimplex {
            time_budget: Some(budget),
            ..Self::default()
        }
    }

    /// Same engine with devex pricing.
    pub fn with_devex_pricing() -> Self {
        RevisedSimplex {
            pricing: Pricing::Devex,
            ..Self::default()
        }
    }

    /// Same engine with an explicit factorization backend.
    pub fn with_factorization(kind: FactorKind) -> Self {
        RevisedSimplex {
            factorization: kind,
            ..Self::default()
        }
    }
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum VStat {
    Basic(u32),
    Lower,
    Upper,
}

struct Engine<'a> {
    sf: &'a StandardForm,
    /// Effective upper bound per column (artificials pinned to 0 in phase 2).
    upper: Vec<f64>,
    /// Current objective coefficients (phase 1 or phase 2).
    cost: Vec<f64>,
    status: Vec<VStat>,
    basis: Vec<usize>,
    /// Basis factorization backend (sparse LU or dense inverse).
    factor: Box<dyn Factorization>,
    /// Values of basic variables, `xb[i]` belongs to column `basis[i]`.
    xb: Vec<f64>,
    /// Maintained reduced costs `d_j = c_j − yᵀA_j` of the nonbasic columns
    /// (a basic column's entry is meaningless and masked by `dir`). Updated
    /// from the pivot row on every basis change, recomputed from scratch by
    /// [`resync_d`](Self::resync_d).
    d: Vec<f64>,
    /// The way a nonbasic column may move: `+1` up from its lower bound,
    /// `−1` down from its upper bound, `0` for basic and fixed columns.
    /// `−dir[j]·d[j]` is the column's attractiveness.
    dir: Vec<f64>,
    /// No basis change since `d` was last recomputed from scratch. Optimality
    /// and unboundedness are only ever declared while this holds.
    d_fresh: bool,
    m: usize,
    eps: f64,
    /// Primal feasibility tolerance (row-relative).
    feas_eps: f64,
    iterations: u64,
    pivots_since_refactor: u64,
    /// `iterations` at the last refactorization: while the two are equal the
    /// factorization, `xb` and `d` are exactly what a refactorization would
    /// recompute.
    refactored_at: u64,
    refactor_every: u64,
    refactorizations: u64,
    pricing: Pricing,
    /// Candidate columns harvested by the last full pricing sweep (devex
    /// pricing only).
    cand: Vec<usize>,
    /// Candidate-list iterations since the last full sweep.
    iters_since_full_sweep: u64,
    pricing_scans: u64,
    pricing_cols_scanned: u64,
    full_pricing_sweeps: u64,
    /// Basis updates applied since the last refactorization (summed across
    /// the whole solve for stats).
    eta_updates: u64,
    /// Devex reference weights `γ_j` (1.0 outside devex pricing).
    devex_w: Vec<f64>,
    /// Times the devex reference framework was reset to all-ones.
    devex_resets: u64,
    times: IterationTimes,
    /// Start of the interval the next [`lap`](Self::lap) attributes.
    lap_start: Instant,
    /// Scratch: duals `y = B⁻ᵀc_B` of the last resync.
    y: Vec<f64>,
    /// Basic costs `c_B`, `cb[i] = cost[basis[i]]`: gathered by every
    /// resync, kept current across pivots.
    cb: Vec<f64>,
    /// Scratch: `w = B⁻¹A_q` of the entering column.
    w: SolveVec,
    /// Scratch: `ρ = B⁻ᵀe_r` of the pivot row.
    rho: SolveVec,
    /// Entering-column ftrans, pivot-row btrans, and the listed entries of
    /// the `w`s and `ρ`s they produced (for the stats' means).
    ftrans: u64,
    btrans: u64,
    w_listed: u64,
    rho_listed: u64,
    /// Scratch: the pivot row `α_r`, empty between pivots.
    row: PivotRow,
    /// Scratch: rows limiting the entering step.
    ratio_cands: Vec<RatioCandidate>,
    /// Scratch: `(score, column)` of the favorable columns of a collecting
    /// sweep.
    favorable: Vec<(f64, usize)>,
    /// Scratch: right-hand side of `recompute_xb`.
    rhs: Vec<f64>,
}

enum StepOutcome {
    Optimal,
    Unbounded,
    /// An iteration happened (pivot or bound flip) and improved the
    /// objective by `gain ≥ 0`.
    Moved {
        gain: f64,
    },
    /// The factorization or the maintained reduced costs are not to be
    /// trusted — the selected pivot is too small relative to its column
    /// under the accumulated eta updates, the entering column's exact reduced
    /// cost contradicts the maintained one, or a ray looks unbounded on
    /// reduced costs that have been updated. Refactorize, which recomputes
    /// both, and redo the iteration.
    NeedsRefactor,
}

/// Why an injected warm basis could not be used.
enum WarmReject {
    /// Wrong shape for this standard form, duplicate basic column, or a
    /// numerically singular basis matrix.
    Singular,
    /// The basis factorized fine but the implied point violates bounds
    /// beyond tolerance.
    Infeasible,
}

/// Keep the `k ≥ 1` best-scored entries of `favorable`, best first (lowest
/// column on ties). `total_cmp` gives NaN scores a place in the order (above
/// every number) instead of a panic; the candidate-list pass re-checks every
/// entry against its reduced cost anyway.
fn keep_top(favorable: &mut Vec<(f64, usize)>, k: usize) {
    let best_first = |a: &(f64, usize), b: &(f64, usize)| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1));
    if favorable.len() > k {
        favorable.select_nth_unstable_by(k - 1, best_first);
        favorable.truncate(k);
    }
    favorable.sort_unstable_by(best_first);
}

/// A simplex pivot row `α_r` over all columns, stored sparse: `val[j]` is
/// `α_rj` (zero for every column not listed) and `cols[..len]` lists the
/// columns that received an entry.
struct PivotRow {
    val: Vec<f64>,
    cols: Vec<usize>,
    len: usize,
}

impl PivotRow {
    /// An empty row over `n` columns that at most `max_adds` calls to
    /// [`add`](Self::add) fill before it is emptied again.
    fn new(n: usize, max_adds: usize) -> PivotRow {
        PivotRow {
            val: vec![0.0; n],
            cols: vec![0; max_adds + 1],
            len: 0,
        }
    }

    /// `α_rj += x`. The listing is branch-free (the first-touch test is a
    /// coin flip the predictor loses): the slot past the list is always
    /// written and only kept when the entry was zero before. An entry that
    /// cancels to exactly 0 and is added to again is therefore listed twice;
    /// consumers zero an entry as they take it, so the repeat reads 0.
    #[inline]
    fn add(&mut self, j: usize, x: f64) {
        let a = self.val[j];
        self.cols[self.len] = j;
        self.len += usize::from(a == 0.0);
        self.val[j] = a + x;
    }

    /// Columns holding an entry.
    fn cols(&self) -> &[usize] {
        &self.cols[..self.len]
    }

    /// Empty the row.
    fn clear(&mut self) {
        for &j in &self.cols[..self.len] {
            self.val[j] = 0.0;
        }
        self.len = 0;
    }
}

/// First index of the largest attractiveness `−dir[j]·d[j]` above `eps`.
/// Two passes so that the first is a plain lane-wise maximum the compiler
/// vectorizes (an index-carrying argmax is not); the second stops at the
/// first column that attains it.
fn dantzig_argmax(d: &[f64], dir: &[f64], eps: f64) -> Option<usize> {
    const LANES: usize = 8;
    let mut lanes = [eps; LANES];
    let (d_chunks, dir_chunks) = (d.chunks_exact(LANES), dir.chunks_exact(LANES));
    let tail = d_chunks
        .remainder()
        .iter()
        .zip(dir_chunks.remainder())
        .fold(eps, |best, (&d, &dir)| best.max(-dir * d));
    for (dc, sc) in d_chunks.zip(dir_chunks) {
        for k in 0..LANES {
            let a = -sc[k] * dc[k];
            if a > lanes[k] {
                lanes[k] = a;
            }
        }
    }
    let best = lanes.iter().fold(tail, |best, &a| best.max(a));
    if best <= eps {
        return None;
    }
    d.iter().zip(dir).position(|(&d, &dir)| -dir * d == best)
}

impl<'a> Engine<'a> {
    fn new(sf: &'a StandardForm, opts: &RevisedSimplex) -> Engine<'a> {
        let (m, n) = (sf.m, sf.n);
        let mut status = vec![VStat::Lower; n];
        for (i, &b) in sf.basis0.iter().enumerate() {
            status[b] = VStat::Basic(i as u32);
        }
        // `basis0` is one unit column per row, so B = I exactly: the backend
        // starts at its identity state without a factorization pass.
        Engine {
            sf,
            upper: sf.upper.clone(),
            cost: vec![0.0; n],
            status,
            basis: sf.basis0.clone(),
            factor: make_factor(opts.factorization, m),
            xb: sf.b.clone(),
            d: vec![0.0; n],
            dir: vec![0.0; n],
            d_fresh: false,
            m,
            eps: opts.eps,
            feas_eps: opts.feas_eps,
            iterations: 0,
            pivots_since_refactor: 0,
            refactored_at: 0,
            refactor_every: opts.refactor_every,
            refactorizations: 0,
            pricing: opts.pricing,
            cand: Vec::new(),
            iters_since_full_sweep: 0,
            pricing_scans: 0,
            pricing_cols_scanned: 0,
            full_pricing_sweeps: 0,
            eta_updates: 0,
            devex_w: vec![1.0; n],
            devex_resets: 0,
            times: IterationTimes::default(),
            lap_start: Instant::now(),
            y: vec![0.0; m],
            cb: vec![0.0; m],
            w: SolveVec::zeros(m),
            rho: SolveVec::zeros(m),
            ftrans: 0,
            btrans: 0,
            w_listed: 0,
            rho_listed: 0,
            row: PivotRow::new(n, sf.cols.nnz()),
            ratio_cands: Vec::new(),
            favorable: Vec::new(),
            rhs: vec![0.0; m],
        }
    }

    /// Build an engine positioned at `warm` with artificials already pinned,
    /// ready for phase 2. Rejects bases that don't match the standard form,
    /// fail to factorize, or imply a primal-infeasible point.
    fn from_basis(
        sf: &'a StandardForm,
        opts: &RevisedSimplex,
        warm: &Basis,
    ) -> Result<Engine<'a>, WarmReject> {
        if warm.basic.len() != sf.m || warm.status.len() != sf.n {
            return Err(WarmReject::Singular);
        }
        let mut eng = Engine::new(sf, opts);
        // Pin artificials before positioning: a warm basis comes from a
        // finished solve, so any artificial it still carries must stay at 0.
        for j in sf.first_artificial..sf.n {
            eng.upper[j] = 0.0;
        }
        let mut status = vec![VStat::Lower; sf.n];
        for (i, &j) in warm.basic.iter().enumerate() {
            if j >= sf.n || matches!(status[j], VStat::Basic(_)) {
                return Err(WarmReject::Singular);
            }
            status[j] = VStat::Basic(i as u32);
        }
        for (j, st) in status.iter_mut().enumerate() {
            if matches!(st, VStat::Basic(_)) {
                continue;
            }
            // `AtUpper` only survives where the (current) bound is finite
            // and positive — a patched bound may have turned
            // finite↔infinite since the basis was exported, and on a pinned
            // column (upper 0) the two bounds coincide.
            *st = match warm.status[j] {
                VarStatus::AtUpper if eng.upper[j].is_finite() && eng.upper[j] > 0.0 => {
                    VStat::Upper
                }
                _ => VStat::Lower,
            };
        }
        eng.status = status;
        eng.basis = warm.basic.clone();
        // Phase-2 costs: a warm start skips phase 1, and the reduced costs
        // the refactorization recomputes feed the dual ratio test below.
        eng.cost.copy_from_slice(&sf.cost);
        if eng.refactorize_repair().is_err() {
            return Err(WarmReject::Singular);
        }
        // Primal feasibility of the implied point, row-relative tolerance. A
        // patched problem (new bounds / rhs) usually pushes the old optimal
        // point slightly out of bounds — repair with dual-simplex pivots
        // before giving up on the basis.
        if !eng.primal_feasible() && !eng.dual_restore() {
            return Err(WarmReject::Infeasible);
        }
        Ok(eng)
    }

    /// Attribute the time since the previous lap (or since `lap_start` was
    /// last set) to one slot of the iteration-time split.
    fn lap(&mut self, slot: impl FnOnce(&mut IterationTimes) -> &mut Duration) {
        let now = Instant::now();
        *slot(&mut self.times) += now - self.lap_start;
        self.lap_start = now;
    }

    /// Does the current basic point satisfy all bounds within `feas_eps`
    /// (row-relative)?
    fn primal_feasible(&self) -> bool {
        (0..self.m).all(|i| {
            let x = self.xb[i];
            let tol = self.feas_eps * (1.0 + self.sf.b[i].abs());
            if x < -tol {
                return false;
            }
            let ub = self.upper[self.basis[i]];
            !ub.is_finite() || x <= ub + tol
        })
    }

    /// Dual-simplex feasibility restoration. Starting from a factorized
    /// basis whose implied point violates bounds (the typical fate of a warm
    /// basis after a scenario patch pins columns or moves the rhs), pivot
    /// each violated basic variable out to its nearest bound, selecting the
    /// entering column by the bounded-variable dual ratio test so the basis
    /// stays close to dual feasibility. The pivot row that test reads is the
    /// same one that then updates the reduced costs.
    ///
    /// This is purely a restoration pass: it never declares optimality (the
    /// primal phase 2 that follows has the full pricing-based test), so any
    /// failure — iteration cap, no sign-eligible entering column, singular
    /// refactorization — just returns `false` and the caller falls back to a
    /// cold two-phase solve. Pivots performed here are counted as phase-1
    /// iterations: they are the warm path's "get feasible" work.
    fn dual_restore(&mut self) -> bool {
        let start = self.iterations;
        let giveup = self.dual_restore_pivots();
        lp_metrics().record_restore(self.iterations - start, giveup);
        giveup.is_none()
    }

    fn dual_restore_pivots(&mut self) -> Option<RestoreGiveup> {
        let m = self.m;
        let cap = 2 * (m as u64) + 100;
        let start = self.iterations;
        self.lap_start = Instant::now();
        loop {
            // leaving row: the most-violated basic variable
            let mut leave_row = usize::MAX;
            let mut worst = 0.0f64;
            let mut above = false;
            for i in 0..m {
                let x = self.xb[i];
                let tol = self.feas_eps * (1.0 + self.sf.b[i].abs());
                if x < -tol {
                    if -x > worst {
                        worst = -x;
                        leave_row = i;
                        above = false;
                    }
                } else {
                    let ub = self.upper[self.basis[i]];
                    if ub.is_finite() && x > ub + tol && x - ub > worst {
                        worst = x - ub;
                        leave_row = i;
                        above = true;
                    }
                }
            }
            if leave_row == usize::MAX {
                return None; // primal feasible — basis usable for phase 2
            }
            if self.iterations - start >= cap {
                return Some(RestoreGiveup::Cap);
            }
            if (self.pivots_since_refactor >= self.refactor_every || self.factor.wants_refactor())
                && self.refactorize().is_err()
            {
                return Some(RestoreGiveup::Singular);
            }
            self.lap(|t| &mut t.pricing);
            self.pivot_row(leave_row);
            self.lap(|t| &mut t.pivot_row);
            let mut enter = usize::MAX;
            let mut best_ratio = f64::INFINITY;
            let mut best_alpha = 0.0f64;
            for &j in self.row.cols() {
                let dir = self.dir[j];
                if dir == 0.0 {
                    continue; // basic, or fixed (pinned artificial or u = 0)
                }
                let alpha = self.row.val[j];
                if alpha.abs() <= 1e-9 {
                    continue;
                }
                // The entering move (up from lower / down from upper) must
                // push the leaving variable toward its violated bound.
                let at_upper = dir < 0.0;
                let eligible = if above {
                    (alpha > 0.0) != at_upper
                } else {
                    (alpha < 0.0) != at_upper
                };
                if !eligible {
                    continue;
                }
                let ratio = self.d[j].abs() / alpha.abs();
                if ratio < best_ratio - 1e-12
                    || (ratio < best_ratio + 1e-12 && alpha.abs() > best_alpha.abs())
                {
                    best_ratio = ratio;
                    best_alpha = alpha;
                    enter = j;
                }
            }
            self.lap(|t| &mut t.ratio);
            if enter == usize::MAX {
                self.row.clear();
                return Some(RestoreGiveup::NoColumn); // solve cold instead
            }
            self.ftran(enter);
            self.lap(|t| &mut t.ftran);
            self.update_reduced_costs(enter, leave_row);
            self.lap(|t| &mut t.pivot_row);
            // Pivot: the leaving variable exits exactly at its violated
            // bound; the entering variable absorbs the difference (possibly
            // overshooting its own bound, which a later round then repairs).
            let leaving = self.basis[leave_row];
            let target = if above { self.upper[leaving] } else { 0.0 };
            let delta = (self.xb[leave_row] - target) / best_alpha;
            for (i, wi) in self.w.iter() {
                if i != leave_row {
                    self.xb[i] -= delta * wi;
                }
            }
            let enter_from = if self.status[enter] == VStat::Upper {
                self.upper[enter]
            } else {
                0.0
            };
            self.xb[leave_row] = enter_from + delta;
            self.change_basis(enter, leave_row, above);
            self.iterations += 1;
            self.lap(|t| &mut t.update);
            #[cfg(test)]
            self.audit_d();
        }
    }

    /// Snapshot the current basis for reuse by a warm-started solve.
    fn export_basis(&self) -> Basis {
        Basis {
            basic: self.basis.clone(),
            status: self
                .status
                .iter()
                .map(|st| match st {
                    VStat::Basic(_) => VarStatus::Basic,
                    VStat::Lower => VarStatus::AtLower,
                    VStat::Upper => VarStatus::AtUpper,
                })
                .collect(),
        }
    }

    /// `y := c_Bᵀ B⁻¹`
    fn compute_duals(&mut self) {
        for (c, &b) in self.cb.iter_mut().zip(&self.basis) {
            *c = self.cost[b];
        }
        self.factor.btran_dense(&self.cb, &mut self.y);
    }

    /// Recompute every nonbasic reduced cost by dot product against fresh
    /// duals, and every move direction from status and bounds. This is the
    /// only place reduced costs are computed rather than maintained; it runs
    /// after each refactorization and cost change, and before optimality is
    /// declared on reduced costs that have been updated since.
    fn resync_d(&mut self) {
        self.compute_duals();
        for j in 0..self.sf.n {
            let at_upper = match self.status[j] {
                VStat::Basic(_) => {
                    self.dir[j] = 0.0;
                    continue;
                }
                VStat::Lower => false,
                VStat::Upper => true,
            };
            let mut d = self.cost[j];
            for (r, v) in self.sf.cols.iter_col(j) {
                d -= self.y[r] * v;
            }
            self.d[j] = d;
            self.dir[j] = self.nonbasic_dir(j, at_upper);
        }
        self.pricing_cols_scanned += (self.sf.n - self.m) as u64;
        self.d_fresh = true;
    }

    /// Move direction of nonbasic column `j`: none when its bounds coincide
    /// (an artificial after phase 1, or `u = 0`).
    fn nonbasic_dir(&self, j: usize, at_upper: bool) -> f64 {
        if self.upper[j] <= self.eps {
            0.0
        } else if at_upper {
            -1.0
        } else {
            1.0
        }
    }

    /// `w := B⁻¹ A_j`
    fn ftran(&mut self, j: usize) {
        let (rows, vals) = self.sf.cols.col(j);
        self.factor.ftran_sparse(rows, vals, &mut self.w);
        self.ftrans += 1;
        self.w_listed += self.w.nz.len() as u64;
    }

    /// Exact reduced cost `c_q − c_Bᵀw` of the column whose ftran image is
    /// in `w`.
    fn entering_reduced_cost(&self, enter: usize) -> f64 {
        let cbw: f64 = self.w.iter().map(|(i, w)| self.cb[i] * w).sum();
        self.cost[enter] - cbw
    }

    fn current_objective(&self) -> f64 {
        let mut obj = 0.0;
        for (i, &b) in self.basis.iter().enumerate() {
            obj += self.cost[b] * self.xb[i];
        }
        for j in 0..self.sf.n {
            if self.status[j] == VStat::Upper {
                obj += self.cost[j] * self.upper[j];
            }
        }
        obj
    }

    /// Recompute the basis factorization, `xb` and the reduced costs from
    /// scratch (numerical hygiene). Commits only on success — a singular
    /// basis leaves the previous factorization in place.
    fn refactorize(&mut self) -> Result<(), LpError> {
        self.lap_start = Instant::now();
        self.factor.refactorize(&self.sf.cols, &self.basis)?;
        self.refactorized();
        Ok(())
    }

    /// Like [`refactorize`](Self::refactorize), but instead of failing on a
    /// rank-deficient basis it *repairs* it: a basis column that turns out
    /// linearly dependent (the typical fate of a warm basis after a patch
    /// rewrote matrix coefficients) is kicked out and replaced by the unit
    /// column — slack or artificial — of a row the basis no longer covers.
    /// The repaired point may violate bounds (an artificial forced in is
    /// pinned at 0); callers follow up with [`dual_restore`](Self::dual_restore).
    fn refactorize_repair(&mut self) -> Result<usize, LpError> {
        self.lap_start = Instant::now();
        let old_basis = self.basis.clone();
        let replacements = {
            let Engine {
                factor,
                basis,
                status,
                sf,
                ..
            } = self;
            let mut may_use = |col: usize| !matches!(status[col], VStat::Basic(_));
            factor.refactorize_repair(&sf.cols, basis, &sf.basis0, &mut may_use)?
        };
        let repaired = replacements.len();
        for (pos, unit) in replacements {
            self.status[old_basis[pos]] = VStat::Lower;
            self.status[unit] = VStat::Basic(pos as u32);
        }
        self.refactorized();
        Ok(repaired)
    }

    /// Bring everything derived from the factorization back in line with a
    /// fresh one.
    fn refactorized(&mut self) {
        self.recompute_xb();
        self.pivots_since_refactor = 0;
        self.refactored_at = self.iterations;
        self.refactorizations += 1;
        self.lap(|t| &mut t.refactor);
        self.resync_d();
        self.lap(|t| &mut t.pricing);
    }

    /// `xb = B⁻¹ (b − Σ_{j at upper} A_j u_j)`
    fn recompute_xb(&mut self) {
        self.rhs.copy_from_slice(&self.sf.b);
        for j in 0..self.sf.n {
            if self.status[j] == VStat::Upper {
                let u = self.upper[j];
                if u != 0.0 {
                    for (r, v) in self.sf.cols.iter_col(j) {
                        self.rhs[r] -= v * u;
                    }
                }
            }
        }
        self.factor.ftran_dense(&self.rhs, &mut self.xb);
    }

    /// Attractiveness of column `j` under the maintained reduced costs:
    /// above `eps` when moving it the way `dir[j]` allows improves the
    /// objective, `0` for basic and fixed columns.
    fn attractiveness(&self, j: usize) -> f64 {
        -self.dir[j] * self.d[j]
    }

    /// Devex score `d²/γ_j` of a favorable column.
    fn devex_score(&self, j: usize, d_abs: f64) -> f64 {
        d_abs * d_abs / self.devex_w[j]
    }

    /// Full pricing sweep over every column's maintained reduced cost. Under
    /// devex pricing it also repopulates the candidate list with the
    /// [`DEVEX_LIST_SIZE`] best-scored columns. Returns the entering column
    /// and its direction.
    fn price_full(&mut self, bland: bool) -> Option<(usize, f64)> {
        self.full_pricing_sweeps += 1;
        self.iters_since_full_sweep = 0;
        self.cand.clear();
        let n = self.sf.n;
        let enter = if bland {
            // Bland: first favorable column by index.
            (0..n).find(|&j| self.attractiveness(j) > self.eps)
        } else if matches!(self.pricing, Pricing::Dantzig) {
            // Dantzig: largest |d_j|, lowest index on ties.
            dantzig_argmax(&self.d, &self.dir, self.eps)
        } else {
            self.favorable.clear();
            let mut best = 0.0f64;
            let mut enter = None;
            for j in 0..n {
                let a = self.attractiveness(j);
                if a > self.eps {
                    let score = self.devex_score(j, a);
                    self.favorable.push((score, j));
                    if score > best {
                        best = score;
                        enter = Some(j);
                    }
                }
            }
            keep_top(&mut self.favorable, DEVEX_LIST_SIZE);
            self.cand.extend(self.favorable.iter().map(|&(_, j)| j));
            enter
        };
        enter.map(|j| (j, self.dir[j]))
    }

    /// Select the entering column from the maintained reduced costs. Dantzig
    /// (and Bland) always scan every column; devex prices the candidate list
    /// and falls back to a full sweep when the list runs dry, goes stale, or
    /// fails to produce a favorable column.
    fn select(&mut self, bland: bool) -> Option<(usize, f64)> {
        if bland
            || self.pricing == Pricing::Dantzig
            || self.cand.is_empty()
            || self.iters_since_full_sweep >= DEVEX_FULL_SWEEP_EVERY
        {
            return self.price_full(bland);
        }
        // price the list in place, dropping entries that turned unfavorable
        let mut enter = None;
        let mut best = 0.0f64;
        let mut kept = 0;
        for idx in 0..self.cand.len() {
            let j = self.cand[idx];
            let a = self.attractiveness(j);
            if a <= self.eps {
                continue;
            }
            self.cand[kept] = j;
            kept += 1;
            let score = self.devex_score(j, a);
            if score > best {
                best = score;
                enter = Some(j);
            }
        }
        self.cand.truncate(kept);
        let Some(enter) = enter else {
            return self.price_full(bland);
        };
        self.iters_since_full_sweep += 1;
        Some((enter, self.dir[enter]))
    }

    /// Entering column and direction, or `None` at optimality — which is
    /// only ever declared by a full sweep over reduced costs recomputed from
    /// scratch: when the maintained ones show no favorable column after
    /// having been updated, they are resynced and priced once more.
    fn price(&mut self, bland: bool) -> Option<(usize, f64)> {
        self.pricing_scans += 1;
        let choice = self.select(bland);
        if choice.is_some() || self.d_fresh {
            return choice;
        }
        self.resync_d();
        self.select(bland)
    }

    /// One simplex step. `bland` selects Bland's rule.
    fn step(&mut self, bland: bool) -> StepOutcome {
        let choice = self.price(bland);
        self.lap(|t| &mut t.pricing);
        let Some((enter, sigma)) = choice else {
            return StepOutcome::Optimal;
        };
        self.ftran(enter);
        // The maintained d_q chose the column; its exact value — one dot
        // product against the ftran image — audits the choice. If it says
        // the column does not improve the objective after all, or disagrees
        // with the maintained value beyond `D_DRIFT_REL`, the update errors
        // have compounded (every update multiplies the error in d_q into the
        // rest of d): recompute d before it misleads more pivots.
        let d_q = self.d[enter];
        let exact = self.entering_reduced_cost(enter);
        self.lap(|t| &mut t.ftran);
        if !self.d_fresh
            && (-sigma * exact <= self.eps
                || (d_q - exact).abs() > D_DRIFT_REL * (1.0 + exact.abs()))
        {
            return StepOutcome::NeedsRefactor;
        }

        // --- ratio test (shared two-pass Harris implementation) -------------
        let winf = self.w.iter().fold(0.0f64, |acc, (_, v)| acc.max(v.abs()));
        // entering var moves by t >= 0 in direction sigma; basic values
        // change by −t·σ·w.
        let bound_flip_t = if self.upper[enter].is_finite() {
            self.upper[enter] // bound-to-bound distance (lower is 0)
        } else {
            f64::INFINITY
        };
        self.ratio_cands.clear();
        for (i, wi) in self.w.iter() {
            let wi = sigma * wi;
            let bi = self.basis[i];
            if wi > self.eps {
                self.ratio_cands.push(RatioCandidate {
                    row: i,
                    limit: self.xb[i].max(0.0) / wi,
                    pivot_abs: wi.abs(),
                    basis_col: bi,
                    to_upper: false,
                });
            } else if wi < -self.eps {
                let ub = self.upper[bi];
                if ub.is_finite() {
                    self.ratio_cands.push(RatioCandidate {
                        row: i,
                        limit: (ub - self.xb[i]).max(0.0) / (-wi),
                        pivot_abs: wi.abs(),
                        basis_col: bi,
                        to_upper: true,
                    });
                }
            }
        }
        let mut choice = harris_ratio(&self.ratio_cands, bound_flip_t, self.eps, bland);
        if let RatioChoice::Leave { row, .. } = choice {
            // Pivot-stability guard: an entry that clears the absolute eps
            // but is tiny relative to the column's largest magnitude may be
            // rounding noise from the eta chain (true coefficient exactly
            // zero) — pivoting on it on a degenerate row would make the next
            // basis exactly singular. Rather than second-guess the candidate
            // first, distrust the *factorization*: refactorize and redo the
            // iteration. A fresh factor reproduces true zeros below eps, so
            // noise rows stop being candidates. A pivot still that small
            // under a fresh factor is genuine, and taking it would leave a
            // basis too ill-conditioned to carry `xb`: re-run the ratio test
            // with Harris's bound relaxation, which gives up at most
            // `HARRIS_RELAX` of feasibility for the largest pivot in reach.
            if self.w.val[row].abs() < self.eps.max(PIVOT_STABILITY_REL * winf) {
                if self.pivots_since_refactor > 0 {
                    self.lap(|t| &mut t.ratio);
                    return StepOutcome::NeedsRefactor;
                }
                choice = relaxed_ratio(&self.ratio_cands, bound_flip_t, HARRIS_RELAX);
            }
        }
        self.lap(|t| &mut t.ratio);
        let d_abs = d_q.abs();
        let (leave_row, leave_to_upper, t) = match choice {
            // Like optimality, unboundedness is only declared on reduced
            // costs recomputed from scratch.
            RatioChoice::Unbounded if !self.d_fresh => return StepOutcome::NeedsRefactor,
            RatioChoice::Unbounded => return StepOutcome::Unbounded,
            RatioChoice::BoundFlip(t) => {
                // bound flip: entering var runs to its other bound; the basis
                // and therefore every reduced cost stay as they are
                let t = t.max(0.0);
                for (i, wi) in self.w.iter() {
                    self.xb[i] -= t * sigma * wi;
                }
                self.status[enter] = if sigma > 0.0 {
                    VStat::Upper
                } else {
                    VStat::Lower
                };
                self.dir[enter] = -sigma;
                self.lap(|t| &mut t.update);
                return StepOutcome::Moved { gain: t * d_abs };
            }
            RatioChoice::Leave { row, to_upper, t } => (row, to_upper, t),
        };

        // the pivot row reads the pre-pivot basis: reduced costs (and devex
        // weights) move before any state changes
        self.pivot_row(leave_row);
        self.update_reduced_costs(enter, leave_row);
        self.lap(|t| &mut t.pivot_row);

        // basis change
        for (i, wi) in self.w.iter() {
            if i != leave_row {
                self.xb[i] -= t * sigma * wi;
            }
        }
        // The clamp reaches entries this pivot did not move (set by a bound
        // flip or a refactorization since), so it stays a pass over all of
        // `xb`; the leaving row's slot is overwritten right below.
        for x in &mut self.xb {
            if *x < 0.0 && *x > -1e-9 {
                *x = 0.0;
            }
        }
        // entering variable's new value
        self.xb[leave_row] = if sigma > 0.0 {
            t
        } else {
            self.upper[enter] - t
        };
        self.change_basis(enter, leave_row, leave_to_upper);
        self.lap(|t| &mut t.update);
        StepOutcome::Moved { gain: t * d_abs }
    }

    /// Swap column `enter` into the basis at `leave_row` (its ftran image is
    /// in `w`); the column it replaces leaves at its upper or lower bound.
    fn change_basis(&mut self, enter: usize, leave_row: usize, leave_to_upper: bool) {
        let leaving = self.basis[leave_row];
        // A fixed column (pinned artificial, u = 0) that leaves "above" sits
        // where lower == upper: keep it at Lower.
        let at_upper = leave_to_upper && self.upper[leaving] > self.eps;
        self.status[leaving] = if at_upper { VStat::Upper } else { VStat::Lower };
        self.dir[leaving] = self.nonbasic_dir(leaving, at_upper);
        self.basis[leave_row] = enter;
        self.cb[leave_row] = self.cost[enter];
        self.status[enter] = VStat::Basic(leave_row as u32);
        self.dir[enter] = 0.0;
        self.factor.update(leave_row, &self.w);
        self.pivots_since_refactor += 1;
        self.eta_updates += 1;
    }

    /// The one pivot-row kernel. With `ρ = B⁻ᵀe_r` (one `btran_unit`), form
    /// `α_rj = ρᵀA_j` for every column with support in the nonzero rows of
    /// `ρ`, row by row through the CSR view. The row is left in `row` for
    /// [`update_reduced_costs`](Self::update_reduced_costs) to consume; the
    /// dual ratio test reads it in between.
    fn pivot_row(&mut self, r: usize) {
        self.factor.btran_unit(r, &mut self.rho);
        self.btrans += 1;
        self.rho_listed += self.rho.nz.len() as u64;
        self.lap(|t| &mut t.btran);
        for (i, rv) in self.rho.iter() {
            if rv == 0.0 {
                continue;
            }
            let (cols, vals) = self.sf.rows.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                self.row.add(j as usize, rv * v);
            }
        }
    }

    /// Consume the pivot row of `leave_row` for the pivot that brings
    /// `enter` in (`w` holds its ftran image): every nonbasic reduced cost
    /// moves by `d_j -= (d_q/α_rq)·α_rj`, the leaving variable's becomes
    /// `−d_q/α_rq`. Must run against the *pre-pivot* basis.
    ///
    /// Under devex pricing the same row carries the Forrest–Goldfarb weight
    /// update: every nonbasic `j` gets `γ_j := max(γ_j, α_rj²·γ_q/α_rq²)`,
    /// the leaving variable inherits `max(γ_q/α_rq², 1)`, and when any
    /// weight blows past 1e10 the reference framework is reset to all-ones
    /// (counted in `devex_resets`).
    fn update_reduced_costs(&mut self, enter: usize, leave_row: usize) {
        let alpha_rq = self.w.val[leave_row];
        let theta = self.d[enter] / alpha_rq;
        let devex = self.pricing == Pricing::Devex && alpha_rq.abs() > self.eps;
        let ratio_base = self.devex_w[enter] / (alpha_rq * alpha_rq);
        let mut blown = false;
        for k in 0..self.row.len {
            let j = self.row.cols[k];
            let a = self.row.val[j];
            self.row.val[j] = 0.0;
            self.d[j] -= theta * a;
            if devex && j != enter && !matches!(self.status[j], VStat::Basic(_)) {
                let cand = a * a * ratio_base;
                if cand > self.devex_w[j] {
                    self.devex_w[j] = cand;
                }
                if self.devex_w[j] > 1e10 {
                    blown = true;
                }
            }
        }
        self.row.len = 0;
        let leaving = self.basis[leave_row];
        self.d[leaving] = -theta;
        self.d_fresh = false;
        if devex {
            // the leaving variable joins the nonbasic set with the pivot-row
            // weight; the entering one is basic (weight reset for its next
            // exit)
            self.devex_w[leaving] = ratio_base.max(1.0);
            self.devex_w[enter] = 1.0;
            if blown {
                self.devex_w.fill(1.0);
                self.devex_resets += 1;
            }
        }
    }

    /// The maintained reduced costs and directions must match a from-scratch
    /// recomputation after every pivot of every unit test.
    #[cfg(test)]
    fn audit_d(&mut self) {
        let (d, dir) = (self.d.clone(), self.dir.clone());
        let (fresh, scanned) = (self.d_fresh, self.pricing_cols_scanned);
        self.resync_d();
        let ynorm = self.y.iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
        for j in 0..self.sf.n {
            assert_eq!(dir[j], self.dir[j], "direction of column {j}");
            if !matches!(self.status[j], VStat::Basic(_)) {
                let tol = 1e-9 * (1.0 + self.cost[j].abs() + ynorm);
                assert!(
                    (d[j] - self.d[j]).abs() <= tol,
                    "column {j}: maintained d {} vs recomputed {} (tol {tol:e}, iteration {})",
                    d[j],
                    self.d[j],
                    self.iterations
                );
            }
        }
        // the audit observes: the solve continues on the maintained values
        self.d = d;
        self.dir = dir;
        self.d_fresh = fresh;
        self.pricing_cols_scanned = scanned;
    }

    /// Refactorize inside a phase. The exact `xb` this recomputes can sit
    /// outside its bounds when the updates it replaces ran through an
    /// ill-conditioned basis; primal pivots from an infeasible point chase a
    /// meaningless objective, so put the point back (best effort — if the
    /// restoration gives up, the end-of-solve guard gets another go) and
    /// re-read the objective the stall detector tracks.
    fn refactorize_and_repair(&mut self, obj: &mut f64) -> Result<(), LpError> {
        self.refactorize()?;
        if !self.primal_feasible() {
            self.dual_restore();
            *obj = self.current_objective();
        }
        Ok(())
    }

    fn run_phase(&mut self, max_iter: u64, deadline: Option<Instant>) -> Result<(), LpError> {
        let mut stalled: u64 = 0;
        let stall_limit = 4 * (self.m as u64 + self.sf.n as u64) + 64;
        // tracked as `obj -= t·|d_q|` from here on
        let mut obj = self.current_objective();
        self.lap_start = Instant::now();
        loop {
            if self.iterations >= max_iter {
                return Err(LpError::IterationLimit);
            }
            // amortize the clock read over a batch of pivots
            if self.iterations.is_multiple_of(32) {
                if let Some(dl) = deadline {
                    if Instant::now() >= dl {
                        return Err(LpError::TimeLimit);
                    }
                }
            }
            if self.pivots_since_refactor >= self.refactor_every || self.factor.wants_refactor() {
                self.refactorize_and_repair(&mut obj)?;
            }
            let bland = stalled > stall_limit;
            let gain = match self.step(bland) {
                StepOutcome::Optimal => return Ok(()),
                StepOutcome::Unbounded => return Err(LpError::Unbounded),
                StepOutcome::NeedsRefactor => {
                    // No pivot was applied. Under a fresh factor and fresh
                    // reduced costs the step takes none of the exits that
                    // lead here, so this cannot loop (a repair in between
                    // spends iterations, which are capped).
                    self.refactorize_and_repair(&mut obj)?;
                    continue;
                }
                StepOutcome::Moved { gain } => gain,
            };
            self.iterations += 1;
            #[cfg(test)]
            self.audit_d();
            if gain > self.eps * (1.0 + obj.abs()) {
                stalled = 0;
            } else {
                stalled += 1;
            }
            obj -= gain;
        }
    }

    /// Full standard-form assignment.
    fn extract(&self) -> Vec<f64> {
        let mut x = vec![0.0f64; self.sf.n];
        for j in 0..self.sf.n {
            match self.status[j] {
                VStat::Basic(i) => x[j] = self.xb[i as usize].max(0.0),
                VStat::Lower => x[j] = 0.0,
                VStat::Upper => x[j] = self.upper[j],
            }
        }
        x
    }
}

impl RevisedSimplex {
    /// Solve `lp`, optionally warm-starting from `warm` (a basis exported by
    /// a previous [`Solution::basis`] on a layout-identical problem). An
    /// unusable warm basis (wrong shape, singular, or primal-infeasible
    /// beyond `feas_eps`) silently falls back to a cold two-phase solve.
    pub fn solve_with_basis(
        &self,
        lp: &LpProblem,
        warm: Option<&Basis>,
    ) -> Result<Solution, LpError> {
        if lp.num_vars() == 0 {
            return Err(LpError::BadModel("no variables".into()));
        }
        let sf = StandardForm::build(lp);
        self.solve_standard(lp, &sf, warm)
    }

    /// Like [`solve_with_basis`](Self::solve_with_basis) but reuses a cached
    /// `LpProblem → StandardForm` conversion (see [`PreparedProblem`]).
    pub fn solve_prepared(
        &self,
        lp: &LpProblem,
        prep: &PreparedProblem,
        warm: Option<&Basis>,
    ) -> Result<Solution, LpError> {
        if lp.num_vars() == 0 {
            return Err(LpError::BadModel("no variables".into()));
        }
        self.solve_standard(lp, &prep.sf, warm)
    }

    fn solve_standard(
        &self,
        lp: &LpProblem,
        sf: &StandardForm,
        warm: Option<&Basis>,
    ) -> Result<Solution, LpError> {
        let wall_start = Instant::now();
        let deadline = self.time_budget.map(|b| wall_start + b);
        let max_iter = if self.max_iterations > 0 {
            self.max_iterations
        } else {
            50_000 + 40 * (sf.m as u64 + sf.n as u64)
        };

        // ---- warm start: try to skip phase 1 entirely -----------------------
        let mut warm_started = false;
        let mut eng = match warm {
            Some(basis) => match Engine::from_basis(sf, self, basis) {
                Ok(eng) => {
                    warm_started = true;
                    lp_metrics().record_warm_accepted();
                    eng
                }
                Err(reject) => {
                    lp_metrics().record_warm_rejected(matches!(reject, WarmReject::Singular));
                    Engine::new(sf, self)
                }
            },
            None => Engine::new(sf, self),
        };

        // ---- phase 1 (cold starts only) -------------------------------------
        if !warm_started && sf.first_artificial < sf.n {
            // The phase-1 objective reshapes reduced costs on nearly every
            // pivot, so a candidate list harvested by one sweep is stale by
            // the next — measured on the provisioning LPs, candidate-list
            // pricing more than tripled phase-1 iterations. Phase 1 therefore always
            // prices with full Dantzig sweeps; the requested strategy is
            // restored for phase 2.
            eng.pricing = Pricing::Dantzig;
            for j in sf.first_artificial..sf.n {
                eng.cost[j] = 1.0;
            }
            eng.resync_d();
            // Per-artificial feasibility test: an artificial's column is a
            // unit vector on its original row, so a basic artificial at value
            // v means that row is violated by v. Compare v against the row's
            // own scale — an aggregate Σb-scaled test would let a huge-RHS
            // row mask a real violation on a small-RHS row.
            let residual_violation = |eng: &Engine<'_>| -> bool {
                (0..sf.m).any(|i| {
                    let j = eng.basis[i];
                    j >= sf.first_artificial && {
                        let row = sf.cols.col(j).0[0] as usize;
                        eng.xb[i] > self.feas_eps * (1.0 + sf.b[row].abs())
                    }
                })
            };
            // Numerical drift can make phase 1 stop early with artificials
            // still carrying value; refactorize (exact recompute of B⁻¹ and
            // x_B) and resume before declaring the model infeasible.
            let mut attempts = 0;
            loop {
                match eng.run_phase(max_iter, deadline) {
                    Ok(()) => {}
                    Err(LpError::Unbounded) => {
                        return Err(LpError::BadModel(
                            "phase-1 objective unbounded (internal error)".into(),
                        ))
                    }
                    Err(e) => return Err(e),
                }
                if !residual_violation(&eng) {
                    break;
                }
                if attempts >= 2 || eng.refactorize().is_err() {
                    return Err(LpError::Infeasible);
                }
                if !residual_violation(&eng) {
                    break;
                }
                attempts += 1;
            }
            // pin artificials to zero
            for j in sf.first_artificial..sf.n {
                eng.upper[j] = 0.0;
                if eng.status[j] == VStat::Upper {
                    eng.status[j] = VStat::Lower;
                }
            }
        }

        // ---- phase 2 --------------------------------------------------------
        let phase1_iterations = eng.iterations;
        eng.pricing = self.pricing;
        if !warm_started {
            // (a warm start was positioned under these costs already)
            eng.cost.copy_from_slice(&sf.cost);
            eng.resync_d();
        }
        // Phase-2 costs invalidate any phase-1 candidate list.
        eng.cand.clear();
        eng.run_phase(max_iter, deadline)?;

        // Drift guard: the incrementally-updated B⁻¹ accumulates error, so
        // the point `run_phase` stopped at can be subtly wrong in two ways —
        // a basic variable's *exact* value (recomputed below) may sit outside
        // its bounds, or a favorable reduced cost may have been masked by
        // noise. Either would silently corrupt the extracted solution (the
        // clamp in `extract` turns an out-of-bounds basic into an `Ax = b`
        // violation). Refactorize to exact values, repair any bound
        // violations with dual-simplex pivots, and re-price; repeat until a
        // clean round. A (rare) singular refactorization means the
        // incrementally-maintained inverse is still the best state we have —
        // keep it; `refactorize` only commits on success. When nothing has
        // moved since the last refactorization (the usual end of a warm
        // re-solve) the state already is exact and the round costs nothing.
        let mut clean = false;
        for _ in 0..6 {
            if eng.iterations != eng.refactored_at && eng.refactorize().is_err() {
                break;
            }
            let mut progressed = false;
            if !eng.primal_feasible() {
                if !eng.dual_restore() {
                    return Err(LpError::BadModel(
                        "numerical: primal feasibility lost and not restorable".into(),
                    ));
                }
                progressed = true;
            }
            eng.cand.clear();
            let before = eng.iterations;
            eng.run_phase(max_iter, deadline)?;
            if eng.iterations != before {
                progressed = true;
            }
            if !progressed {
                clean = true;
                break;
            }
        }
        if !clean && !eng.primal_feasible() {
            return Err(LpError::BadModel(
                "numerical: drift guard failed to converge".into(),
            ));
        }
        let x = eng.extract();
        let mean = |total: u64, over: u64| total as f64 / over.max(1) as f64;
        let values = sf.recover(&x);
        let objective = lp.objective_at(&values);
        eng.compute_duals();
        let duals = Some(sf.recover_duals(&eng.y));
        let basis = eng.export_basis();
        let stats = SolveStats {
            phase1_iterations,
            phase2_iterations: eng.iterations - phase1_iterations,
            refactorizations: eng.refactorizations,
            wall: wall_start.elapsed(),
            times: eng.times,
            warm_started,
            // Proxy for avoided phase-1 work: every row whose cold start
            // would begin on an artificial column needs at least one phase-1
            // pivot to drive it out.
            phase1_iterations_saved: if warm_started {
                sf.basis0
                    .iter()
                    .filter(|&&j| j >= sf.first_artificial)
                    .count() as u64
            } else {
                0
            },
            pricing_scans: eng.pricing_scans,
            pricing_cols_scanned: eng.pricing_cols_scanned,
            full_pricing_sweeps: eng.full_pricing_sweeps,
            rung: if warm_started {
                SolveRung::WarmPrimary
            } else {
                SolveRung::ColdPrimary
            },
            basis_nnz: eng.factor.nnz() as u64,
            fill_ratio: {
                let input_nnz: usize = eng.basis.iter().map(|&j| sf.cols.col_nnz(j)).sum();
                eng.factor.nnz() as f64 / input_nnz.max(1) as f64
            },
            eta_updates: eng.eta_updates,
            devex_resets: eng.devex_resets,
            ftran_steps_visited: mean(eng.factor.steps_visited().0, eng.ftrans),
            btran_steps_visited: mean(eng.factor.steps_visited().1, eng.btrans),
            w_nnz: mean(eng.w_listed, eng.ftrans),
            rho_nnz: mean(eng.rho_listed, eng.btrans),
        };
        lp_metrics().record_solve(&stats);
        Ok(Solution {
            values,
            objective,
            duals,
            iterations: eng.iterations,
            stats,
            basis: Some(basis),
        })
    }
}

impl Solver for RevisedSimplex {
    fn solve(&self, lp: &LpProblem) -> Result<Solution, LpError> {
        self.solve_with_basis(lp, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseSimplex;
    use crate::problem::LpProblem;

    fn solve(lp: &LpProblem) -> Result<Solution, LpError> {
        RevisedSimplex::new().solve(lp)
    }

    #[test]
    fn classic_two_var() {
        let mut lp = LpProblem::new();
        let x = lp.add_nonneg("x", -3.0);
        let y = lp.add_nonneg("y", -5.0);
        lp.add_le(vec![(x, 1.0)], 4.0);
        lp.add_le(vec![(y, 2.0)], 12.0);
        lp.add_le(vec![(x, 3.0), (y, 2.0)], 18.0);
        let s = solve(&lp).unwrap();
        assert!((s.objective() + 36.0).abs() < 1e-8);
    }

    #[test]
    fn bound_flip_path() {
        // min -x - y with x <= 1, y <= 1 as *bounds* and x + y <= 1.5 as a row
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", -1.0, 0.0, 1.0);
        let y = lp.add_var("y", -1.0, 0.0, 1.0);
        lp.add_le(vec![(x, 1.0), (y, 1.0)], 1.5);
        let s = solve(&lp).unwrap();
        assert!((s.objective() + 1.5).abs() < 1e-8);
        assert!(lp.max_violation(s.values()) < 1e-9);
    }

    #[test]
    fn infeasible() {
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", 1.0, 0.0, 1.0);
        lp.add_ge(vec![(x, 1.0)], 2.0);
        assert_eq!(solve(&lp).unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded() {
        let mut lp = LpProblem::new();
        let x = lp.add_nonneg("x", -1.0);
        let y = lp.add_nonneg("y", 0.0);
        lp.add_ge(vec![(x, 1.0), (y, -1.0)], 0.0);
        assert_eq!(solve(&lp).unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn equality_with_bounds() {
        // min 2a + b  s.t. a + b = 5, a <= 2
        let mut lp = LpProblem::new();
        let a = lp.add_var("a", 2.0, 0.0, 2.0);
        let b = lp.add_nonneg("b", 1.0);
        lp.add_eq(vec![(a, 1.0), (b, 1.0)], 5.0);
        let s = solve(&lp).unwrap();
        assert!((s.objective() - 5.0).abs() < 1e-8);
        assert!((s.value(a) - 0.0).abs() < 1e-8);
    }

    #[test]
    fn agrees_with_dense_on_mixed_model() {
        let mut lp = LpProblem::new();
        let a = lp.add_var("a", 3.0, 0.0, 10.0);
        let b = lp.add_var("b", 1.0, 0.5, 10.0);
        let c = lp.add_var("c", 2.0, 0.0, 4.0);
        let d = lp.add_var("d", -1.0, 0.0, 2.0);
        lp.add_ge(vec![(a, 1.0), (b, 1.0)], 6.0);
        lp.add_ge(vec![(b, 1.0), (c, 1.0)], 8.0);
        lp.add_le(vec![(a, 1.0), (c, 2.0), (d, 1.0)], 14.0);
        lp.add_eq(vec![(d, 1.0), (a, 0.5)], 2.0);
        let s1 = solve(&lp).unwrap();
        let s2 = DenseSimplex::new().solve(&lp).unwrap();
        assert!((s1.objective() - s2.objective()).abs() < 1e-7);
        assert!(lp.max_violation(s1.values()) < 1e-7);
    }

    #[test]
    fn duals_reconstruct_objective_for_tight_lp() {
        // A pure ≤ model with optimum away from bounds: strong duality gives
        // obj = yᵀb.
        let mut lp = LpProblem::new();
        let x = lp.add_nonneg("x", -3.0);
        let y = lp.add_nonneg("y", -5.0);
        lp.add_le(vec![(x, 1.0)], 4.0);
        lp.add_le(vec![(y, 2.0)], 12.0);
        lp.add_le(vec![(x, 3.0), (y, 2.0)], 18.0);
        let s = solve(&lp).unwrap();
        let yb: f64 = (0..3)
            .map(|i| s.dual(i).unwrap() * [4.0, 12.0, 18.0][i])
            .sum();
        assert!((yb - s.objective()).abs() < 1e-7);
    }

    #[test]
    fn degenerate_terminates() {
        let mut lp = LpProblem::new();
        let x1 = lp.add_nonneg("x1", -0.75);
        let x2 = lp.add_nonneg("x2", 150.0);
        let x3 = lp.add_nonneg("x3", -0.02);
        let x4 = lp.add_nonneg("x4", 6.0);
        lp.add_le(vec![(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)], 0.0);
        lp.add_le(vec![(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)], 0.0);
        lp.add_le(vec![(x3, 1.0)], 1.0);
        let s = solve(&lp).unwrap();
        assert!((s.objective() + 0.05).abs() < 1e-8);
    }

    #[test]
    fn moderately_sized_transport_problem() {
        // 12 sources × 15 sinks transportation LP with known optimum
        // (verified against the dense engine).
        let ns = 12;
        let nd = 15;
        let mut lp = LpProblem::new();
        let mut xs = Vec::new();
        for i in 0..ns {
            for j in 0..nd {
                let cost = ((i * 7 + j * 13) % 10 + 1) as f64;
                xs.push(lp.add_nonneg(format!("x{i}_{j}"), cost));
            }
        }
        let supply = 10.0;
        let demand = supply * ns as f64 / nd as f64;
        for i in 0..ns {
            let coeffs = (0..nd).map(|j| (xs[i * nd + j], 1.0)).collect();
            lp.add_eq(coeffs, supply);
        }
        for j in 0..nd {
            let coeffs = (0..ns).map(|i| (xs[i * nd + j], 1.0)).collect();
            lp.add_eq(coeffs, demand);
        }
        let s1 = solve(&lp).unwrap();
        let s2 = DenseSimplex::new().solve(&lp).unwrap();
        assert!((s1.objective() - s2.objective()).abs() < 1e-6 * (1.0 + s2.objective().abs()));
        assert!(lp.max_violation(s1.values()) < 1e-6);
    }

    #[test]
    fn peak_minimization_structure() {
        // miniature of the provisioning LP: two slots, two sites, one config;
        // min peak subject to demand split per slot
        let mut lp = LpProblem::new();
        let p1 = lp.add_nonneg("peak1", 1.0);
        let p2 = lp.add_nonneg("peak2", 1.0);
        // slot 0 demand 10, slot 1 demand 10, shares s_tx
        let mut s = Vec::new();
        for t in 0..2 {
            for x in 0..2 {
                s.push(lp.add_var(format!("s{t}{x}"), 0.0, 0.0, 10.0));
            }
        }
        for t in 0..2 {
            lp.add_eq(vec![(s[t * 2], 1.0), (s[t * 2 + 1], 1.0)], 10.0);
            lp.add_le(vec![(s[t * 2], 1.0), (p1, -1.0)], 0.0);
            lp.add_le(vec![(s[t * 2 + 1], 1.0), (p2, -1.0)], 0.0);
        }
        let sol = solve(&lp).unwrap();
        // optimal: split 5/5 each slot → total peak 10
        assert!((sol.objective() - 10.0).abs() < 1e-7);
    }

    #[test]
    fn fixed_variable_is_respected() {
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", -5.0, 2.0, 2.0); // fixed at 2
        let y = lp.add_var("y", 1.0, 0.0, f64::INFINITY);
        lp.add_ge(vec![(x, 1.0), (y, 1.0)], 3.0);
        let s = solve(&lp).unwrap();
        assert!((s.value(x) - 2.0).abs() < 1e-9);
        assert!((s.value(y) - 1.0).abs() < 1e-8);
    }

    fn transport_lp(ns: usize, nd: usize) -> LpProblem {
        let mut lp = LpProblem::new();
        let mut xs = Vec::new();
        for i in 0..ns {
            for j in 0..nd {
                let cost = ((i * 7 + j * 13) % 10 + 1) as f64;
                xs.push(lp.add_nonneg(format!("x{i}_{j}"), cost));
            }
        }
        let supply = 10.0;
        let demand = supply * ns as f64 / nd as f64;
        for i in 0..ns {
            lp.add_eq((0..nd).map(|j| (xs[i * nd + j], 1.0)).collect(), supply);
        }
        for j in 0..nd {
            lp.add_eq((0..ns).map(|i| (xs[i * nd + j], 1.0)).collect(), demand);
        }
        lp
    }

    #[test]
    fn warm_restart_on_same_problem_skips_phase1() {
        let lp = transport_lp(8, 9);
        let cold = solve(&lp).unwrap();
        assert!(!cold.stats().warm_started);
        assert!(cold.stats().phase1_iterations > 0);
        let warm = RevisedSimplex::new()
            .solve_with_basis(&lp, cold.basis())
            .unwrap();
        assert!(warm.stats().warm_started);
        assert_eq!(warm.stats().phase1_iterations, 0);
        // re-solving at the optimum should take (near) zero pivots
        assert!(warm.iterations() <= 2, "iterations = {}", warm.iterations());
        assert!((warm.objective() - cold.objective()).abs() < 1e-7);
        assert!(warm.stats().phase1_iterations_saved > 0);
    }

    #[test]
    fn warm_start_after_rhs_patch_agrees_with_cold() {
        let mut lp = transport_lp(6, 5);
        let mut prep = crate::standard::PreparedProblem::new(&lp);
        let base = RevisedSimplex::new()
            .solve_prepared(&lp, &prep, None)
            .unwrap();
        // perturb one equality rhs pair (keep the transport balance intact)
        lp.set_rhs(0, 12.0);
        lp.set_rhs(6, 14.0); // first demand row: 12 + 5*10 - 4*12 = 14
        lp.set_rhs(7, 12.0);
        assert_eq!(
            prep.refresh(&lp),
            crate::standard::PatchOutcome::Patched,
            "rhs-only change must not change the layout"
        );
        let warm = RevisedSimplex::new()
            .solve_prepared(&lp, &prep, base.basis())
            .unwrap();
        let cold = solve(&lp).unwrap();
        assert!(warm.stats().warm_started);
        assert!((warm.objective() - cold.objective()).abs() < 1e-6);
        assert!(lp.max_violation(warm.values()) < 1e-6);
        assert!(warm.iterations() < cold.iterations());
    }

    #[test]
    fn garbage_basis_falls_back_to_cold_solve() {
        let lp = transport_lp(5, 6);
        let cold = solve(&lp).unwrap();
        // a basis from a structurally different problem: wrong shape
        let other = solve(&transport_lp(3, 4)).unwrap();
        let s = RevisedSimplex::new()
            .solve_with_basis(&lp, other.basis())
            .unwrap();
        assert!(!s.stats().warm_started);
        assert!((s.objective() - cold.objective()).abs() < 1e-7);
    }

    #[test]
    fn devex_pricing_agrees_with_dantzig() {
        for (ns, nd) in [(8, 9), (12, 15), (4, 17)] {
            let lp = transport_lp(ns, nd);
            let dantzig = solve(&lp).unwrap();
            let devex = RevisedSimplex::with_devex_pricing().solve(&lp).unwrap();
            assert!(
                (dantzig.objective() - devex.objective()).abs()
                    < 1e-6 * (1.0 + dantzig.objective().abs())
            );
            assert!(lp.max_violation(devex.values()) < 1e-6);
            // the whole point: phase-2 passes price the short list, while
            // every Dantzig pass scans all columns; and maintaining the
            // reduced costs means neither evaluates them by dot product per
            // pass
            let (p, d) = (devex.stats(), dantzig.stats());
            assert!(
                p.full_pricing_sweeps < p.pricing_scans,
                "devex: {} full sweeps in {} passes",
                p.full_pricing_sweeps,
                p.pricing_scans
            );
            assert!(d.full_pricing_sweeps >= d.pricing_scans);
            let n = (ns * nd + 2 * (ns + nd)) as u64;
            for st in [p, d] {
                assert!(
                    st.pricing_cols_scanned < n * st.pricing_scans / 4,
                    "{} dot products in {} passes over {n} columns",
                    st.pricing_cols_scanned,
                    st.pricing_scans
                );
            }
        }
    }

    #[test]
    fn candidate_ranking_survives_a_nan_score() {
        let mut favorable = vec![
            (0.5, 4),
            (f64::NAN, 1),
            (3.0, 7),
            (3.0, 2),
            (1.0, 9),
            (f64::INFINITY, 5),
        ];
        keep_top(&mut favorable, 4);
        let cols: Vec<usize> = favorable.iter().map(|&(_, j)| j).collect();
        // total order: NaN above +∞ above the numbers; lowest column on ties
        assert_eq!(cols, [1, 5, 2, 7]);
        // asking for more than there are keeps (and orders) everything
        keep_top(&mut favorable, 10);
        assert_eq!(favorable.len(), 4);
    }

    #[test]
    fn dantzig_argmax_picks_the_first_largest() {
        let eps = 1e-9;
        // 19 columns: one full lane chunk twice over plus a tail
        let mut d = vec![0.0; 19];
        let mut dir = vec![1.0; 19];
        assert_eq!(dantzig_argmax(&d, &dir, eps), None);
        d[3] = -2.0; // attractive going up
        d[11] = 2.0;
        dir[11] = -1.0; // equally attractive going down: first index wins
        d[17] = -1.0;
        assert_eq!(dantzig_argmax(&d, &dir, eps), Some(3));
        d[18] = -5.0; // the tail is searched too
        assert_eq!(dantzig_argmax(&d, &dir, eps), Some(18));
        dir[18] = 0.0; // fixed or basic: never a candidate
        d[3] = f64::NAN; // neither is a NaN
        assert_eq!(dantzig_argmax(&d, &dir, eps), Some(11));
        d[11] = eps / 2.0; // below tolerance
        d[17] = 0.0;
        assert_eq!(dantzig_argmax(&d, &dir, eps), None);
    }

    /// Engine on `sf` under phase-1 costs when it has artificials, phase-2
    /// costs otherwise, ready for `step`.
    fn engine_at_start(sf: &StandardForm, pricing: Pricing) -> Engine<'_> {
        let opts = RevisedSimplex {
            pricing,
            ..RevisedSimplex::new()
        };
        let mut eng = Engine::new(sf, &opts);
        if sf.first_artificial < sf.n {
            eng.cost[sf.first_artificial..].fill(1.0);
        } else {
            eng.cost.copy_from_slice(&sf.cost);
        }
        eng.resync_d();
        eng
    }

    #[test]
    fn bound_flip_leaves_reduced_costs_bit_identical() {
        // min -x - y, x,y in [0,1], x + y <= 1.5: x enters first and runs to
        // its own bound before the row binds
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", -1.0, 0.0, 1.0);
        let y = lp.add_var("y", -1.0, 0.0, 1.0);
        lp.add_le(vec![(x, 1.0), (y, 1.0)], 1.5);
        let sf = StandardForm::build(&lp);
        let mut eng = engine_at_start(&sf, Pricing::Dantzig);
        let bits = |eng: &Engine<'_>| eng.d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (d0, basis0) = (bits(&eng), eng.basis.clone());
        assert!(matches!(eng.step(false), StepOutcome::Moved { gain } if gain == 1.0));
        assert_eq!(eng.status[0], VStat::Upper, "x flipped to its upper bound");
        assert_eq!(eng.basis, basis0, "no basis change");
        assert_eq!(bits(&eng), d0, "a bound flip must not touch d");
        assert!(eng.d_fresh);
        assert_eq!(eng.dir[0], -1.0);
        eng.audit_d();
        // the next step is a real pivot and does move d
        assert!(matches!(eng.step(false), StepOutcome::Moved { .. }));
        assert_ne!(eng.basis, basis0);
        assert_ne!(bits(&eng), d0);
        assert!(!eng.d_fresh);
    }

    #[test]
    fn devex_weights_from_the_shared_row_match_a_columnwise_reference() {
        // The reference is the pre-refactor `devex_update`, computed the slow
        // way: ρ from a fresh dense inverse of the pre-pivot basis, α_rj by
        // one dot product per column.
        let mut lp = LpProblem::new();
        let vars: Vec<_> = [-3.0, -2.0, -4.0, -1.0, -2.5]
            .iter()
            .enumerate()
            .map(|(k, &c)| lp.add_nonneg(format!("x{k}"), c))
            .collect();
        for (coeffs, rhs) in [
            ([2.0, 1.0, 3.0, 1.0, 0.5], 10.0),
            ([1.0, 3.0, 1.0, 2.0, 4.0], 12.0),
            ([3.0, 2.0, 2.0, 4.0, 1.0], 15.0),
            ([1.0, 1.0, 1.0, 1.0, 1.0], 6.0),
        ] {
            lp.add_le(vars.iter().copied().zip(coeffs).collect(), rhs);
        }
        let sf = StandardForm::build(&lp);
        let mut eng = engine_at_start(&sf, Pricing::Devex);
        let (m, n) = (sf.m, sf.n);
        let (mut pivots, mut largest) = (0, 1.0f64);
        loop {
            let (basis, status, weights) =
                (eng.basis.clone(), eng.status.clone(), eng.devex_w.clone());
            match eng.step(false) {
                StepOutcome::Optimal => break,
                StepOutcome::Moved { .. } => {}
                _ => panic!("a bounded, well-conditioned LP only moves"),
            }
            let r = (0..m)
                .find(|&i| eng.basis[i] != basis[i])
                .expect("no finite upper bounds, so no bound flips");
            pivots += 1;
            assert!(pivots < 50, "cycling");
            eng.audit_d();
            let (enter, leaving) = (eng.basis[r], basis[r]);
            let mut dense = make_factor(FactorKind::Dense, m);
            dense.refactorize(&sf.cols, &basis).unwrap();
            let mut rho = SolveVec::zeros(m);
            dense.btran_unit(r, &mut rho);
            let alpha = |j: usize| {
                sf.cols
                    .iter_col(j)
                    .map(|(i, v)| rho.val[i] * v)
                    .sum::<f64>()
            };
            let ratio_base = weights[enter] / (alpha(enter) * alpha(enter));
            let mut expect = weights;
            for j in 0..n {
                if j != enter && !matches!(status[j], VStat::Basic(_)) {
                    expect[j] = expect[j].max(alpha(j) * alpha(j) * ratio_base);
                }
            }
            expect[leaving] = ratio_base.max(1.0);
            expect[enter] = 1.0;
            for j in 0..n {
                assert!(
                    (eng.devex_w[j] - expect[j]).abs() <= 1e-9 * expect[j],
                    "pivot {pivots}, column {j}: weight {} vs reference {}",
                    eng.devex_w[j],
                    expect[j]
                );
                largest = largest.max(expect[j]);
            }
        }
        assert!(pivots >= 3, "only {pivots} pivots");
        assert!(largest > 1.5, "the pivots exercised non-trivial weights");
    }

    #[test]
    fn in_phase_refactorization_repairs_a_point_it_finds_out_of_bounds() {
        let lp = transport_lp(6, 5);
        let sf = StandardForm::build(&lp);
        let opts = RevisedSimplex::new();
        let optimum = opts.solve(&lp).unwrap();
        let mut eng = Engine::from_basis(&sf, &opts, optimum.basis().unwrap())
            .unwrap_or_else(|_| panic!("the optimal basis warm-starts its own problem"));
        assert!(eng.primal_feasible());
        // what drift through an ill-conditioned basis does, done by hand: a
        // basic variable sits well beyond a bound
        let row = (0..sf.m)
            .find(|&i| eng.xb[i] > 1.0)
            .expect("a transport optimum ships something");
        eng.upper[eng.basis[row]] = eng.xb[row] / 2.0;
        assert!(!eng.primal_feasible());
        let pivots = eng.iterations;
        let mut obj = f64::NAN;
        eng.refactorize_and_repair(&mut obj).unwrap();
        assert!(
            eng.primal_feasible(),
            "restoration pivots the violation out"
        );
        assert!(eng.iterations > pivots);
        assert_eq!(obj, eng.current_objective());
    }

    /// Every pivot of every solve in this module is followed by
    /// [`Engine::audit_d`] (maintained `d` equals a freshly computed one
    /// within `1e-9·(1+|c_j|+‖y‖∞)`); these drive it through the cold, warm
    /// and `dual_restore` paths on the `proptest_warm_start` generator.
    mod maintained_d {
        use super::*;
        use crate::standard::{PatchOutcome, PreparedProblem};
        use crate::sweep_gen::{build, patch, sweep_lp, SweepLp};
        use proptest::prelude::*;

        /// Cold base solve, then the patched problem warm (through
        /// `dual_restore` whenever the patch broke feasibility) and cold.
        /// Returns the warm solve's stats.
        fn sweep(r: &SweepLp, solver: &RevisedSimplex) -> SolveStats {
            let mut b = build(r);
            let mut prep = PreparedProblem::new(&b.lp);
            let base = solver.solve_prepared(&b.lp, &prep, None).expect("base");
            patch(&mut b, r);
            assert_eq!(prep.refresh(&b.lp), PatchOutcome::Patched);
            let warm = solver
                .solve_prepared(&b.lp, &prep, base.basis())
                .expect("warm");
            let cold = solver.solve_prepared(&b.lp, &prep, None).expect("cold");
            assert!(
                (warm.objective() - cold.objective()).abs() < 1e-6 * (1.0 + cold.objective().abs())
            );
            warm.stats()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn holds_on_cold_warm_and_restore_paths(r in sweep_lp()) {
                for pricing in [Pricing::Dantzig, Pricing::Devex] {
                    for factorization in [FactorKind::SparseLu, FactorKind::Dense] {
                        sweep(&r, &RevisedSimplex { pricing, factorization, ..RevisedSimplex::new() });
                    }
                }
            }
        }

        #[test]
        fn restore_pivots_are_audited() {
            // one pinned site under equal demands: the warm basis holds the
            // pinned shares at positive values, so `dual_restore` must pivot
            let r = SweepLp {
                slots: 6,
                sites: 5,
                demand0: vec![8; 6],
                demand1: vec![8; 6],
                cap_cost: vec![1; 5],
                share_cost: vec![0; 30],
                fail_site: Some(0),
            };
            let warm = sweep(&r, &RevisedSimplex::new());
            assert!(warm.warm_started);
            assert!(warm.phase1_iterations > 0, "no restore pivot ran");
        }
    }
}
