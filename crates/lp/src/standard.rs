//! Conversion of an [`LpProblem`](crate::LpProblem) into the computational
//! standard form shared by both simplex engines:
//!
//! ```text
//! minimize  cᵀx + k      s.t.  A x = b,   0 ≤ x ≤ u,   b ≥ 0
//! ```
//!
//! * variables with a finite lower bound are shifted (`x = l + x'`),
//! * variables bounded only above are mirrored (`x = u − x'`),
//! * fully free variables are split (`x = x⁺ − x⁻`),
//! * `≤` rows gain a slack, `≥` rows a surplus + artificial, `=` rows an
//!   artificial; rows are sign-normalized so every `bᵢ ≥ 0`,
//! * the initial basis (one column per row) is the slack where available and
//!   the artificial otherwise, so `B = I` at the start of phase 1.

use crate::problem::{LpProblem, Relation};
use crate::sparse::{CscMatrix, CsrView};

/// How one user variable maps onto standard-form columns.
#[derive(Clone, Debug)]
pub(crate) enum VarMap {
    /// `x = lower + col`
    Shifted { col: usize, lower: f64 },
    /// `x = upper − col`
    Mirrored { col: usize, upper: f64 },
    /// `x = pos − neg`
    Split { pos: usize, neg: usize },
}

/// Standard-form data consumed by the engines.
#[derive(Clone, Debug)]
pub(crate) struct StandardForm {
    /// Number of rows.
    pub m: usize,
    /// Total number of columns (structural + slack/surplus + artificial).
    pub n: usize,
    /// Column-compressed sparse constraint matrix (structural columns first,
    /// then slack/surplus in row order, then artificials in row order).
    pub cols: CscMatrix,
    /// Row-major view of `cols` for the simplex pivot-row kernel; built with
    /// the columns and refreshed with them, never per solve.
    pub rows: CsrView,
    /// Phase-2 objective per column (0 for slacks and artificials).
    pub cost: Vec<f64>,
    /// Upper bound per column (∞ allowed; artificials get `0` after phase 1
    /// by the engines, here they carry ∞ like slacks).
    pub upper: Vec<f64>,
    /// Right-hand side, all entries ≥ 0.
    pub b: Vec<f64>,
    /// Constant added to the standard-form objective to recover the user
    /// objective. (Engines recover the objective by evaluating the original
    /// cost vector instead, so this is informational / test-only.)
    #[cfg_attr(not(test), allow(dead_code))]
    pub obj_offset: f64,
    /// Mapping from user variable index to standard columns.
    pub var_map: Vec<VarMap>,
    /// First artificial column index (`n` if there are none).
    pub first_artificial: usize,
    /// Initial basis: one column per row.
    pub basis0: Vec<usize>,
    /// Whether user row `i` was negated during normalization (for duals).
    pub row_flip: Vec<bool>,
    /// Normalized relation per row (after any sign flip). Together with the
    /// per-variable mapping class this determines the whole column layout,
    /// so it doubles as the layout fingerprint for in-place patching.
    pub row_rel: Vec<Relation>,
}

/// Right-hand side and relation of one user row after the variable mapping
/// and sign normalization: `(rhs ≥ 0, normalized relation, flipped)`. The
/// relations fix the slack/artificial column layout, so they are settled
/// before any entry is stored.
fn row_shape(row: &crate::problem::Constraint, var_map: &[VarMap]) -> (f64, Relation, bool) {
    let mut rhs = row.rhs;
    for &(v, a) in &row.coeffs {
        if a == 0.0 {
            continue;
        }
        match var_map[v.index()] {
            VarMap::Shifted { lower, .. } => rhs -= a * lower,
            VarMap::Mirrored { upper, .. } => rhs -= a * upper,
            VarMap::Split { .. } => {}
        }
    }
    if rhs < 0.0 {
        let rel = match row.rel {
            Relation::Le => Relation::Ge,
            Relation::Ge => Relation::Le,
            Relation::Eq => Relation::Eq,
        };
        (-rhs, rel, true)
    } else {
        (rhs, row.rel, false)
    }
}

/// One user row's entries over the structural columns, into `entries`
/// (cleared first): variable mapping applied, duplicates merged, zeros
/// dropped, ascending by column, negated when the row is `flip`ped.
fn map_entries(
    row: &crate::problem::Constraint,
    var_map: &[VarMap],
    flip: bool,
    entries: &mut Vec<(usize, f64)>,
) {
    entries.clear();
    for &(v, a) in &row.coeffs {
        if a == 0.0 {
            continue;
        }
        match var_map[v.index()] {
            VarMap::Shifted { col, .. } => entries.push((col, a)),
            VarMap::Mirrored { col, .. } => entries.push((col, -a)),
            VarMap::Split { pos, neg } => {
                entries.push((pos, a));
                entries.push((neg, -a));
            }
        }
    }
    entries.sort_unstable_by_key(|e| e.0);
    entries.dedup_by(|later, first| {
        if later.0 == first.0 {
            first.1 += later.1;
            true
        } else {
            false
        }
    });
    entries.retain(|e| e.1 != 0.0);
    if flip {
        for e in entries.iter_mut() {
            e.1 = -e.1;
        }
    }
}

/// Compute the per-variable mapping classes for `lp` (no side effects).
fn classify_vars(lp: &LpProblem) -> Vec<VarMap> {
    let mut var_map = Vec::with_capacity(lp.num_vars());
    let mut next = 0usize;
    for j in 0..lp.num_vars() {
        let (lo, hi) = (lp.lower[j], lp.upper[j]);
        if lo.is_finite() {
            var_map.push(VarMap::Shifted {
                col: next,
                lower: lo,
            });
            next += 1;
        } else if hi.is_finite() {
            var_map.push(VarMap::Mirrored {
                col: next,
                upper: hi,
            });
            next += 1;
        } else {
            var_map.push(VarMap::Split {
                pos: next,
                neg: next + 1,
            });
            next += 2;
        }
    }
    var_map
}

fn same_class(a: &VarMap, b: &VarMap) -> bool {
    matches!(
        (a, b),
        (VarMap::Shifted { .. }, VarMap::Shifted { .. })
            | (VarMap::Mirrored { .. }, VarMap::Mirrored { .. })
            | (VarMap::Split { .. }, VarMap::Split { .. })
    )
}

impl StandardForm {
    /// Build the standard form of `lp`.
    pub fn build(lp: &LpProblem) -> StandardForm {
        let m = lp.num_constraints();

        // --- map user variables to structural columns -----------------------
        let var_map = classify_vars(lp);
        let mut cost: Vec<f64> = Vec::new();
        let mut upper: Vec<f64> = Vec::new();
        let mut obj_offset = 0.0f64;
        for (j, vm) in var_map.iter().enumerate() {
            let (lo, hi) = (lp.lower[j], lp.upper[j]);
            let c = lp.cost[j];
            match vm {
                VarMap::Shifted { .. } => {
                    cost.push(c);
                    upper.push(hi - lo); // may be ∞
                    obj_offset += c * lo;
                }
                VarMap::Mirrored { .. } => {
                    cost.push(-c);
                    upper.push(f64::INFINITY);
                    obj_offset += c * hi;
                }
                VarMap::Split { .. } => {
                    cost.push(c);
                    upper.push(f64::INFINITY);
                    cost.push(-c);
                    upper.push(f64::INFINITY);
                }
            }
        }

        // --- rows: right-hand sides and relations -----------------------------
        let mut b = Vec::with_capacity(m);
        let mut row_flip = Vec::with_capacity(m);
        let mut row_rel = Vec::with_capacity(m);
        for row in &lp.rows {
            let (rhs, rel, flip) = row_shape(row, &var_map);
            b.push(rhs);
            row_rel.push(rel);
            row_flip.push(flip);
        }

        // --- slack / surplus columns, in row order ---------------------------
        let mut basis0 = vec![usize::MAX; m];
        for (i, rel) in row_rel.iter().enumerate() {
            if *rel == Relation::Eq {
                continue;
            }
            if *rel == Relation::Le {
                basis0[i] = cost.len();
            } // a `Ge` row needs an artificial too; assigned below
            cost.push(0.0);
            upper.push(f64::INFINITY);
        }

        // --- artificials -------------------------------------------------------
        let first_artificial = cost.len();
        for slot in basis0.iter_mut().filter(|s| **s == usize::MAX) {
            *slot = cost.len();
            cost.push(0.0);
            upper.push(f64::INFINITY);
        }

        let mut sf = StandardForm {
            m,
            n: cost.len(),
            cols: CscMatrix::new(m),
            rows: CsrView::new(),
            cost,
            upper,
            b,
            obj_offset,
            var_map,
            first_artificial,
            basis0,
            row_flip,
            row_rel,
        };
        sf.fill_matrix(lp);
        sf.rows.shrink_to_fit();
        sf
    }

    /// (Re)fill `rows` and `cols` from `lp`'s constraints under the variable
    /// mapping, relations and flips already stored in `self`, keeping every
    /// allocation: each row is mapped once, straight into the row-major view
    /// (structural entries, then the row's slack/surplus and artificial unit
    /// entries — all ascending by column), and the columns are one transpose
    /// of that.
    fn fill_matrix(&mut self, lp: &LpProblem) {
        let n_unit = self.row_rel.iter().filter(|r| **r != Relation::Eq).count();
        let mut slack = self.first_artificial - n_unit;
        let mut artificial = self.first_artificial;
        let mut entries: Vec<(usize, f64)> = Vec::new();
        self.rows.clear();
        for (i, row) in lp.rows.iter().enumerate() {
            map_entries(row, &self.var_map, self.row_flip[i], &mut entries);
            for &(c, a) in &entries {
                self.rows.push(c, a);
            }
            match self.row_rel[i] {
                Relation::Le => self.rows.push(slack, 1.0),
                Relation::Ge => self.rows.push(slack, -1.0),
                Relation::Eq => {}
            }
            if self.row_rel[i] != Relation::Eq {
                slack += 1;
            }
            if self.row_rel[i] != Relation::Le {
                self.rows.push(artificial, 1.0);
                artificial += 1;
            }
            self.rows.end_row();
        }
        self.cols.assemble_from_rows(self.n, &self.rows);
        debug_assert_eq!((slack, artificial), (self.first_artificial, self.n));
        debug_assert_eq!(self.cols.n(), self.n);
    }

    /// Re-derive this standard form from `lp` **in place**, reusing every
    /// allocation, provided the column layout is unchanged: same variables in
    /// the same order with the same bound classes (finite-below / finite-above
    /// only / free), and same rows with the same normalized relations. Bounds,
    /// costs, right-hand sides and coefficients may all differ — that is the
    /// point: a scenario sweep patches deltas into one cached conversion
    /// instead of rebuilding it per scenario.
    ///
    /// Returns `false` (leaving `self` untouched) when the layout changed and
    /// a full [`StandardForm::build`] is required.
    pub fn patch_in_place(&mut self, lp: &LpProblem) -> bool {
        if lp.num_constraints() != self.m || lp.num_vars() != self.var_map.len() {
            return false;
        }
        // --- layout pre-check: variable classes ------------------------------
        let var_map = classify_vars(lp);
        if !var_map
            .iter()
            .zip(&self.var_map)
            .all(|(a, b)| same_class(a, b))
        {
            return false;
        }
        // --- layout pre-check: normalized row relations ----------------------
        let mut shapes = Vec::with_capacity(self.m);
        for (i, row) in lp.rows.iter().enumerate() {
            let (rhs, rel, flip) = row_shape(row, &var_map);
            if rel != self.row_rel[i] {
                return false;
            }
            shapes.push((rhs, flip));
        }

        // --- commit: refill buffers ------------------------------------------
        self.var_map = var_map;
        self.obj_offset = 0.0;
        let mut next = 0usize;
        for j in 0..lp.num_vars() {
            let (lo, hi) = (lp.lower[j], lp.upper[j]);
            let c = lp.cost[j];
            match self.var_map[j] {
                VarMap::Shifted { .. } => {
                    self.cost[next] = c;
                    self.upper[next] = hi - lo;
                    self.obj_offset += c * lo;
                    next += 1;
                }
                VarMap::Mirrored { .. } => {
                    self.cost[next] = -c;
                    self.upper[next] = f64::INFINITY;
                    self.obj_offset += c * hi;
                    next += 1;
                }
                VarMap::Split { .. } => {
                    self.cost[next] = c;
                    self.cost[next + 1] = -c;
                    self.upper[next] = f64::INFINITY;
                    self.upper[next + 1] = f64::INFINITY;
                    next += 2;
                }
            }
        }
        // the matrix is refilled in the exact layout the fingerprint checks
        // above guarantee — so `basis0`, `first_artificial` and the tail's
        // cost/upper entries stay valid (cost/upper of non-structural columns
        // never change).
        for (i, (rhs, flip)) in shapes.into_iter().enumerate() {
            self.b[i] = rhs;
            self.row_flip[i] = flip;
        }
        self.fill_matrix(lp);
        true
    }

    /// Recover user-variable values from a standard-form assignment.
    pub fn recover(&self, x: &[f64]) -> Vec<f64> {
        self.var_map
            .iter()
            .map(|mp| match *mp {
                VarMap::Shifted { col, lower } => lower + x[col],
                VarMap::Mirrored { col, upper } => upper - x[col],
                VarMap::Split { pos, neg } => x[pos] - x[neg],
            })
            .collect()
    }

    /// Map standard-form row duals back to user rows (undo sign flips).
    pub fn recover_duals(&self, y: &[f64]) -> Vec<f64> {
        y.iter()
            .zip(&self.row_flip)
            .map(|(&yi, &flip)| if flip { -yi } else { yi })
            .collect()
    }
}

/// What [`PreparedProblem::refresh`] had to do.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PatchOutcome {
    /// The cached conversion was patched in place (layout unchanged).
    Patched,
    /// The layout changed; the conversion was rebuilt from scratch.
    Rebuilt,
}

/// A cached `LpProblem → standard form` conversion.
///
/// Converting a model to the engine's standard form costs `O(nnz)` per
/// solve. A scenario sweep solves dozens of structurally identical models
/// that differ only in bounds, costs, right-hand sides and a few
/// coefficients; preparing once and [`refresh`](PreparedProblem::refresh)-ing
/// per scenario patches those deltas into the cached conversion in place
/// (reusing every allocation) instead of rebuilding it.
///
/// A `PreparedProblem` also guarantees a stable internal column layout
/// across refreshes, which is exactly the precondition for re-injecting a
/// [`crate::Basis`] exported from an earlier solve.
///
/// Contract: after mutating the `LpProblem`, call `refresh` before
/// [`crate::RevisedSimplex::solve_prepared`]; solving with a stale
/// preparation answers the previously prepared model.
#[derive(Clone, Debug)]
pub struct PreparedProblem {
    pub(crate) sf: StandardForm,
}

impl PreparedProblem {
    /// Convert `lp` and cache the result.
    pub fn new(lp: &LpProblem) -> PreparedProblem {
        PreparedProblem {
            sf: StandardForm::build(lp),
        }
    }

    /// Bring the cached conversion up to date with `lp` after mutations.
    pub fn refresh(&mut self, lp: &LpProblem) -> PatchOutcome {
        if self.sf.patch_in_place(lp) {
            PatchOutcome::Patched
        } else {
            self.sf = StandardForm::build(lp);
            PatchOutcome::Rebuilt
        }
    }

    /// Rows in the prepared standard form.
    pub fn num_rows(&self) -> usize {
        self.sf.m
    }

    /// Columns in the prepared standard form (structural + slack/surplus +
    /// artificial).
    pub fn num_cols(&self) -> usize {
        self.sf.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Constraint, LpProblem};

    #[test]
    fn slack_and_artificial_assignment() {
        let mut lp = LpProblem::new();
        let x = lp.add_nonneg("x", 1.0);
        lp.add_constraint(Constraint::le(vec![(x, 1.0)], 4.0));
        lp.add_constraint(Constraint::ge(vec![(x, 1.0)], 1.0));
        lp.add_constraint(Constraint::eq(vec![(x, 1.0)], 2.0));
        let sf = StandardForm::build(&lp);
        assert_eq!(sf.m, 3);
        // x + slack(le) + surplus(ge) + artificial(ge) + artificial(eq)
        assert_eq!(sf.n, 5);
        assert_eq!(sf.first_artificial, 3);
        // row 0 basis is the slack, rows 1&2 artificials
        assert_eq!(sf.basis0[0], 1);
        assert!(sf.basis0[1] >= sf.first_artificial);
        assert!(sf.basis0[2] >= sf.first_artificial);
        assert!(sf.b.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn negative_rhs_flips_relation() {
        let mut lp = LpProblem::new();
        let x = lp.add_nonneg("x", 1.0);
        // x >= -3 is trivially true; flipped to -x <= 3
        lp.add_constraint(Constraint::ge(vec![(x, 1.0)], -3.0));
        let sf = StandardForm::build(&lp);
        assert!(sf.row_flip[0]);
        assert_eq!(sf.b[0], 3.0);
        // flipped Ge becomes Le, so the row basis is a slack (no artificial)
        assert_eq!(sf.first_artificial, sf.n);
    }

    #[test]
    fn shifting_adjusts_rhs_and_offset() {
        let mut lp = LpProblem::new();
        // 2 <= x <= 5, cost 3
        let x = lp.add_var("x", 3.0, 2.0, 5.0);
        lp.add_constraint(Constraint::le(vec![(x, 2.0)], 10.0));
        let sf = StandardForm::build(&lp);
        // 2(x'+2) <= 10  =>  2x' <= 6
        assert_eq!(sf.b[0], 6.0);
        assert_eq!(sf.obj_offset, 6.0);
        assert_eq!(sf.upper[0], 3.0);
        let user = sf.recover(&[1.5, 0.0]);
        assert_eq!(user[0], 3.5);
    }

    #[test]
    fn free_variable_splits() {
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", 1.0, f64::NEG_INFINITY, f64::INFINITY);
        lp.add_constraint(Constraint::eq(vec![(x, 1.0)], -4.0));
        let sf = StandardForm::build(&lp);
        // pos, neg, artificial
        assert_eq!(sf.n, 3);
        let user = sf.recover(&[0.0, 4.0, 0.0]);
        assert_eq!(user[0], -4.0);
    }

    #[test]
    fn mirrored_upper_only_variable() {
        let mut lp = LpProblem::new();
        // x <= 7, free below, cost 1  =>  mirrored col with cost -1
        let x = lp.add_var("x", 1.0, f64::NEG_INFINITY, 7.0);
        lp.add_constraint(Constraint::le(vec![(x, 1.0)], 5.0));
        let sf = StandardForm::build(&lp);
        assert_eq!(sf.cost[0], -1.0);
        assert_eq!(sf.obj_offset, 7.0);
        // 7 - x' <= 5  =>  -x' <= -2  =>  flipped to x' >= 2
        assert!(sf.row_flip[0]);
        let user = sf.recover(&[3.0, 0.0, 0.0]);
        assert_eq!(user[0], 4.0);
    }

    #[test]
    fn duplicate_coefficients_are_summed() {
        let mut lp = LpProblem::new();
        let x = lp.add_nonneg("x", 1.0);
        lp.add_constraint(Constraint::le(vec![(x, 1.0), (x, 2.5)], 7.0));
        let sf = StandardForm::build(&lp);
        assert_eq!(sf.cols.iter_col(0).collect::<Vec<_>>(), vec![(0, 3.5)]);
    }
}
