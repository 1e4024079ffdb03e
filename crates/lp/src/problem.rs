//! Linear-program model: variables with bounds, sparse constraints, a linear
//! objective to **minimize**.
//!
//! The model is solver-agnostic; see [`crate::dense::DenseSimplex`] and
//! [`crate::revised::RevisedSimplex`] for the two engines that consume it.

use std::fmt;

/// Handle to a decision variable inside one [`LpProblem`].
///
/// Handles are plain indices; using a handle from one problem with another
/// problem is a logic error and panics at solve time if out of range.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Var(pub(crate) u32);

impl Var {
    /// Index of the variable in problem order (the order of `add_var` calls).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Constraint relation.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Relation {
    /// `Σ aᵢxᵢ ≤ b`
    Le,
    /// `Σ aᵢxᵢ ≥ b`
    Ge,
    /// `Σ aᵢxᵢ = b`
    Eq,
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Relation::Le => "<=",
            Relation::Ge => ">=",
            Relation::Eq => "=",
        })
    }
}

/// A single linear constraint in sparse form.
#[derive(Clone, Debug)]
pub struct Constraint {
    /// Sparse coefficient list. Duplicate variables are summed.
    pub coeffs: Vec<(Var, f64)>,
    /// Relation between the linear form and `rhs`.
    pub rel: Relation,
    /// Right-hand side.
    pub rhs: f64,
}

impl Constraint {
    /// `Σ coeffs ≤ rhs`
    pub fn le(coeffs: Vec<(Var, f64)>, rhs: f64) -> Self {
        Constraint {
            coeffs,
            rel: Relation::Le,
            rhs,
        }
    }

    /// `Σ coeffs ≥ rhs`
    pub fn ge(coeffs: Vec<(Var, f64)>, rhs: f64) -> Self {
        Constraint {
            coeffs,
            rel: Relation::Ge,
            rhs,
        }
    }

    /// `Σ coeffs = rhs`
    pub fn eq(coeffs: Vec<(Var, f64)>, rhs: f64) -> Self {
        Constraint {
            coeffs,
            rel: Relation::Eq,
            rhs,
        }
    }
}

/// A linear program `minimize cᵀx  s.t.  A x {≤,≥,=} b,  l ≤ x ≤ u`.
///
/// # Example
/// ```
/// use sb_lp::{LpProblem, Constraint, DenseSimplex, Solver};
///
/// // minimize -x - 2y  s.t.  x + y <= 4, y <= 3, x,y >= 0
/// let mut lp = LpProblem::new();
/// let x = lp.add_var("x", -1.0, 0.0, f64::INFINITY);
/// let y = lp.add_var("y", -2.0, 0.0, f64::INFINITY);
/// lp.add_constraint(Constraint::le(vec![(x, 1.0), (y, 1.0)], 4.0));
/// lp.add_constraint(Constraint::le(vec![(y, 1.0)], 3.0));
/// let sol = DenseSimplex::new().solve(&lp).unwrap();
/// assert!((sol.objective() - (-7.0)).abs() < 1e-9);
/// assert!((sol.value(x) - 1.0).abs() < 1e-9);
/// assert!((sol.value(y) - 3.0).abs() < 1e-9);
/// ```
#[derive(Clone, Debug, Default)]
pub struct LpProblem {
    pub(crate) names: Vec<String>,
    pub(crate) cost: Vec<f64>,
    pub(crate) lower: Vec<f64>,
    pub(crate) upper: Vec<f64>,
    pub(crate) rows: Vec<Constraint>,
}

impl LpProblem {
    /// Empty minimization problem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a variable with objective coefficient `cost` and bounds
    /// `[lower, upper]`. `lower` may be `f64::NEG_INFINITY` (free below) and
    /// `upper` may be `f64::INFINITY`.
    ///
    /// Panics if `lower > upper` or either bound is NaN.
    pub fn add_var(&mut self, name: impl Into<String>, cost: f64, lower: f64, upper: f64) -> Var {
        assert!(
            !lower.is_nan() && !upper.is_nan(),
            "variable bounds must not be NaN"
        );
        assert!(lower <= upper, "variable lower bound exceeds upper bound");
        assert!(
            self.names.len() < u32::MAX as usize,
            "too many variables in one LpProblem"
        );
        let v = Var(self.names.len() as u32);
        self.names.push(name.into());
        self.cost.push(cost);
        self.lower.push(lower);
        self.upper.push(upper);
        v
    }

    /// Convenience: non-negative continuous variable with no upper bound.
    pub fn add_nonneg(&mut self, name: impl Into<String>, cost: f64) -> Var {
        self.add_var(name, cost, 0.0, f64::INFINITY)
    }

    /// Append a constraint; returns its row index.
    ///
    /// # Panics
    ///
    /// Panics if the constraint references a [`Var`] that was not created by
    /// `add_var` on **this** problem, or if `c.rhs` is NaN. Both are logic
    /// errors in the calling code (handles are only obtainable from
    /// `add_var`, and a NaN rhs silently corrupts every simplex ratio test),
    /// so they fail fast here rather than during the solve. Data-driven
    /// callers building constraints from external input should validate the
    /// rhs before calling.
    pub fn add_constraint(&mut self, c: Constraint) -> usize {
        for &(v, _) in &c.coeffs {
            assert!(
                (v.0 as usize) < self.names.len(),
                "constraint references unknown variable"
            );
        }
        assert!(!c.rhs.is_nan(), "constraint rhs must not be NaN");
        self.rows.push(c);
        self.rows.len() - 1
    }

    /// Shorthand for `add_constraint(Constraint::le(..))`.
    pub fn add_le(&mut self, coeffs: Vec<(Var, f64)>, rhs: f64) -> usize {
        self.add_constraint(Constraint::le(coeffs, rhs))
    }

    /// Shorthand for `add_constraint(Constraint::ge(..))`.
    pub fn add_ge(&mut self, coeffs: Vec<(Var, f64)>, rhs: f64) -> usize {
        self.add_constraint(Constraint::ge(coeffs, rhs))
    }

    /// Shorthand for `add_constraint(Constraint::eq(..))`.
    pub fn add_eq(&mut self, coeffs: Vec<(Var, f64)>, rhs: f64) -> usize {
        self.add_constraint(Constraint::eq(coeffs, rhs))
    }

    /// Replace the upper bound of `v` (the lower bound is unchanged).
    ///
    /// This is the patch entry point for scenario sweeps: forcing a variable
    /// to `0` (upper = 0) removes it from the model without disturbing the
    /// column layout, so a [`Basis`] exported from a previous solve stays
    /// structurally valid. Panics if the new bound is NaN or below the lower
    /// bound.
    pub fn set_var_upper(&mut self, v: Var, upper: f64) {
        assert!(!upper.is_nan(), "variable bounds must not be NaN");
        assert!(
            self.lower[v.index()] <= upper,
            "variable lower bound exceeds upper bound"
        );
        self.upper[v.index()] = upper;
    }

    /// Replace the objective coefficient of `v`.
    pub fn set_var_cost(&mut self, v: Var, cost: f64) {
        assert!(!cost.is_nan(), "objective coefficient must not be NaN");
        self.cost[v.index()] = cost;
    }

    /// Replace the right-hand side of constraint `row`. Panics on NaN or an
    /// out-of-range row.
    pub fn set_rhs(&mut self, row: usize, rhs: f64) {
        assert!(!rhs.is_nan(), "constraint rhs must not be NaN");
        self.rows[row].rhs = rhs;
    }

    /// Replace the coefficient list of constraint `row` (relation and rhs are
    /// kept). Panics if a coefficient references an unknown variable.
    pub fn set_row_coeffs(&mut self, row: usize, coeffs: Vec<(Var, f64)>) {
        for &(v, _) in &coeffs {
            assert!(
                (v.0 as usize) < self.names.len(),
                "constraint references unknown variable"
            );
        }
        self.rows[row].coeffs = coeffs;
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.names.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.rows.len()
    }

    /// All constraints, in insertion order.
    pub fn rows(&self) -> &[Constraint] {
        &self.rows
    }

    /// Variable name (as passed to `add_var`).
    pub fn var_name(&self, v: Var) -> &str {
        &self.names[v.index()]
    }

    /// Objective coefficient of `v`.
    pub fn var_cost(&self, v: Var) -> f64 {
        self.cost[v.index()]
    }

    /// Bounds `[lower, upper]` of `v`.
    pub fn var_bounds(&self, v: Var) -> (f64, f64) {
        (self.lower[v.index()], self.upper[v.index()])
    }

    /// Iterate over all variable handles in index order.
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        (0..self.names.len() as u32).map(Var)
    }

    /// Evaluate the objective at a full assignment (one value per variable).
    pub fn objective_at(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.num_vars());
        self.cost.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    /// Maximum constraint violation of `x` (0.0 when feasible), considering
    /// rows and bounds. Useful for tests and post-solve verification.
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.num_vars());
        let mut worst = 0.0f64;
        for (j, &v) in x.iter().enumerate() {
            worst = worst.max(self.lower[j] - v).max(v - self.upper[j]);
        }
        for row in &self.rows {
            let lhs: f64 = row.coeffs.iter().map(|&(v, a)| a * x[v.index()]).sum();
            let viol = match row.rel {
                Relation::Le => lhs - row.rhs,
                Relation::Ge => row.rhs - lhs,
                Relation::Eq => (lhs - row.rhs).abs(),
            };
            worst = worst.max(viol);
        }
        worst.max(0.0)
    }
}

/// Why a solve did not return an optimal solution.
#[derive(Clone, Debug, PartialEq)]
pub enum LpError {
    /// No point satisfies all constraints and bounds.
    Infeasible,
    /// The objective can be driven to −∞.
    Unbounded,
    /// The iteration budget was exhausted (numerical trouble or a budget set
    /// too low for the problem size).
    IterationLimit,
    /// The wall-clock budget was exhausted before reaching the optimum.
    TimeLimit,
    /// The model was malformed (e.g. empty, or NaN coefficients).
    BadModel(String),
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "LP is infeasible"),
            LpError::Unbounded => write!(f, "LP is unbounded below"),
            LpError::IterationLimit => write!(f, "simplex iteration limit reached"),
            LpError::TimeLimit => write!(f, "simplex time budget exhausted"),
            LpError::BadModel(m) => write!(f, "malformed LP model: {m}"),
        }
    }
}

impl std::error::Error for LpError {}

/// Status of one standard-form column in a [`Basis`].
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum VarStatus {
    /// In the basis.
    Basic,
    /// Nonbasic at its lower bound (0 in standard form).
    AtLower,
    /// Nonbasic at its (finite) upper bound.
    AtUpper,
}

/// A simplex basis snapshot: the basic column per row plus the bound status
/// of every column, in the engine's internal standard-form column space.
///
/// Export one from a [`Solution`] via [`Solution::basis`] and inject it into
/// a later solve of a *structurally identical* problem (same variables in
/// the same order, same constraint rows/relations — bounds, costs, rhs and
/// coefficients may differ) via [`crate::RevisedSimplex::solve_with_basis`].
/// The engine validates the basis before trusting it: a singular or
/// primal-infeasible warm basis silently falls back to a cold phase-1 start,
/// so a stale basis can cost time but never correctness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Basis {
    /// Basic column per row. Public so callers can persist or transform a
    /// snapshot; the engine re-validates (and repairs) any injected basis,
    /// so arbitrary contents degrade a solve to a cold start, never corrupt
    /// it.
    pub basic: Vec<usize>,
    /// Status per standard-form column.
    pub status: Vec<VarStatus>,
}

impl Basis {
    /// Number of rows (basic columns) in the snapshot.
    pub fn num_rows(&self) -> usize {
        self.basic.len()
    }

    /// Number of standard-form columns covered by the snapshot.
    pub fn num_cols(&self) -> usize {
        self.status.len()
    }
}

/// Which rung of the guarded solve ladder produced a solution (see
/// [`crate::GuardedSimplex`]).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum SolveRung {
    /// The primary engine, started cold (phase 1 + phase 2).
    #[default]
    ColdPrimary,
    /// The primary engine, warm-started from an injected basis (phase 2
    /// only).
    WarmPrimary,
    /// The primary engine, re-run cold after a warm-started attempt failed
    /// for a recoverable reason.
    ColdRetry,
    /// The dense tableau fallback engine.
    DenseFallback,
}

impl std::fmt::Display for SolveRung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SolveRung::ColdPrimary => "cold_primary",
            SolveRung::WarmPrimary => "warm_primary",
            SolveRung::ColdRetry => "cold_retry",
            SolveRung::DenseFallback => "dense_fallback",
        })
    }
}

/// Where the revised engine's iteration time went: `wall` split by the step
/// of the simplex loop that spent it. The seven sum to the time inside the
/// pivot loops (the rest of `wall` is set-up and extraction). All zero for
/// the dense tableau engine.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IterationTimes {
    /// Choosing the entering column: the scan of the maintained reduced
    /// costs, plus every from-scratch recomputation of them (duals and the
    /// dot-product sweep).
    pub pricing: std::time::Duration,
    /// `ρ = B⁻ᵀe_r` for the leaving row, the seed of the pivot-row kernel.
    pub btran: std::time::Duration,
    /// The rest of the pivot-row kernel: `α_r = ρᵀA_N` and the reduced-cost
    /// (and devex weight) update it feeds.
    pub pivot_row: std::time::Duration,
    /// `B⁻¹A_q` for the entering column.
    pub ftran: std::time::Duration,
    /// The primal (Harris) ratio test, or the dual one during feasibility
    /// restoration.
    pub ratio: std::time::Duration,
    /// Moving the basic point and absorbing the basis change into the
    /// factorization.
    pub update: std::time::Duration,
    /// From-scratch refactorizations, including the recomputed basic point.
    pub refactor: std::time::Duration,
}

/// Per-solve engine statistics: how the simplex got to the optimum.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SolveStats {
    /// Iterations spent driving artificials out (0 when no phase 1 ran).
    pub phase1_iterations: u64,
    /// Iterations spent optimizing the real objective.
    pub phase2_iterations: u64,
    /// Number of from-scratch basis refactorizations.
    pub refactorizations: u64,
    /// Wall-clock time of the whole solve.
    pub wall: std::time::Duration,
    /// `wall` attributed to the steps of the simplex loop.
    pub times: IterationTimes,
    /// Whether an injected warm basis was accepted and phase 1 skipped.
    pub warm_started: bool,
    /// Estimated phase-1 work the warm start avoided: the number of rows
    /// whose cold start would have begun on an artificial column (each needs
    /// at least one phase-1 pivot to leave the basis). 0 on cold solves.
    pub phase1_iterations_saved: u64,
    /// Pricing passes performed (one per simplex iteration attempt).
    pub pricing_scans: u64,
    /// Reduced costs evaluated by dot product, i.e. recomputed from scratch
    /// (after a refactorization, a cost change, or before optimality is
    /// declared) rather than maintained from the pivot row.
    pub pricing_cols_scanned: u64,
    /// Pricing passes that scanned every column's maintained reduced cost
    /// (all of them under Dantzig pricing; devex pricing's candidate list
    /// exists to shrink this number).
    pub full_pricing_sweeps: u64,
    /// Which solve-ladder rung produced this solution.
    pub rung: SolveRung,
    /// Nonzeros held by the final basis factorization (`nnz(L)+nnz(U)+m`
    /// plus the eta file for the sparse backend; `m²` for the dense
    /// inverse; 0 for the dense tableau engine, which keeps no basis).
    pub basis_nnz: u64,
    /// Fill-in ratio of the final factorization: factorization nonzeros over
    /// the nonzeros of the basis columns it was built from (≈1 means the LU
    /// caused no fill; the dense inverse reports `m²/nnz(B)`).
    pub fill_ratio: f64,
    /// Basis updates (product-form etas / rank-1 inverse updates) applied
    /// across the whole solve.
    pub eta_updates: u64,
    /// Times devex pricing reset its reference weights to all-ones after a
    /// weight overflowed.
    pub devex_resets: u64,
    /// Mean elimination steps an entering-column ftran visited, of the
    /// basis's `m` (0 for the dense inverse, which has no elimination order,
    /// and when no ftran ran).
    pub ftran_steps_visited: f64,
    /// Mean elimination steps a pivot-row btran visited, likewise.
    pub btran_steps_visited: f64,
    /// Mean entries of `w = B⁻¹A_q` the ftran listed as possibly nonzero.
    pub w_nnz: f64,
    /// Mean entries of `ρ = B⁻ᵀe_r` the btran listed as possibly nonzero.
    pub rho_nnz: f64,
}

impl SolveStats {
    /// Total simplex iterations across both phases.
    pub fn total_iterations(&self) -> u64 {
        self.phase1_iterations + self.phase2_iterations
    }
}

/// An optimal solution.
#[derive(Clone, Debug)]
pub struct Solution {
    pub(crate) values: Vec<f64>,
    pub(crate) objective: f64,
    /// Dual values per constraint row, when the engine produces them.
    pub(crate) duals: Option<Vec<f64>>,
    /// Simplex iterations spent.
    pub(crate) iterations: u64,
    /// Detailed engine statistics.
    pub(crate) stats: SolveStats,
    /// Final basis, when the engine maintains one (the revised engine does,
    /// the dense tableau does not).
    pub(crate) basis: Option<Basis>,
}

impl Solution {
    /// Optimal value of variable `v`.
    pub fn value(&self, v: Var) -> f64 {
        self.values[v.index()]
    }

    /// Full primal assignment in variable index order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Optimal objective value.
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Dual value (shadow price) of constraint `row`, if the engine exposes
    /// duals. Signs follow the minimization convention: for a binding `≤` row
    /// the dual is ≤ 0 contribution-wise as `y·b` reconstructs the objective.
    pub fn dual(&self, row: usize) -> Option<f64> {
        self.duals.as_ref().map(|d| d[row])
    }

    /// Simplex iterations used.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Detailed engine statistics (phase split, refactorizations, wall time).
    pub fn stats(&self) -> SolveStats {
        self.stats
    }

    /// The optimal basis, exportable for warm-starting a structurally
    /// identical problem. `None` when the engine does not maintain one
    /// (e.g. [`crate::DenseSimplex`]).
    pub fn basis(&self) -> Option<&Basis> {
        self.basis.as_ref()
    }
}

/// A linear-programming engine.
pub trait Solver {
    /// Solve to optimality or report why that is impossible.
    fn solve(&self, lp: &LpProblem) -> Result<Solution, LpError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_inspect() {
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", 2.0, 0.0, 5.0);
        let y = lp.add_nonneg("y", -1.0);
        assert_eq!(lp.num_vars(), 2);
        assert_eq!(lp.var_name(x), "x");
        assert_eq!(lp.var_cost(y), -1.0);
        assert_eq!(lp.var_bounds(x), (0.0, 5.0));
        let r = lp.add_le(vec![(x, 1.0), (y, 2.0)], 10.0);
        assert_eq!(r, 0);
        assert_eq!(lp.num_constraints(), 1);
    }

    #[test]
    fn objective_and_violation() {
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", 1.0, 0.0, 2.0);
        let y = lp.add_var("y", 3.0, 0.0, f64::INFINITY);
        lp.add_ge(vec![(x, 1.0), (y, 1.0)], 4.0);
        assert_eq!(lp.objective_at(&[1.0, 2.0]), 7.0);
        // x=1, y=2 violates x+y>=4 by 1
        assert!((lp.max_violation(&[1.0, 2.0]) - 1.0).abs() < 1e-12);
        // feasible point
        assert_eq!(lp.max_violation(&[2.0, 2.0]), 0.0);
        // bound violation
        assert!((lp.max_violation(&[3.0, 4.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "lower bound exceeds")]
    fn bad_bounds_panic() {
        let mut lp = LpProblem::new();
        lp.add_var("x", 0.0, 1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn foreign_var_panics() {
        let mut lp = LpProblem::new();
        lp.add_var("x", 0.0, 0.0, 1.0);
        lp.add_constraint(Constraint::le(vec![(Var(7), 1.0)], 1.0));
    }

    #[test]
    fn duplicate_coeffs_allowed_in_model() {
        let mut lp = LpProblem::new();
        let x = lp.add_nonneg("x", 1.0);
        // duplicates are legal; engines must sum them
        lp.add_le(vec![(x, 1.0), (x, 1.0)], 4.0);
        assert_eq!(lp.num_constraints(), 1);
    }
}
