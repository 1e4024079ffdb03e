//! Basis factorization backends for the revised simplex engine.
//!
//! The engine only ever talks to the [`Factorization`] trait: solve with the
//! basis (`ftran`), solve with its transpose (`btran`), replace one column
//! (`update`), and rebuild from scratch (`refactorize`). Two backends
//! implement it:
//!
//! * [`DenseFactor`] — an explicit `m × m` inverse maintained by Gauss-Jordan
//!   refactorization and rank-1 product-form updates. `O(m²)` per pivot; the
//!   original engine's data structure, kept as the differential oracle and
//!   for small models.
//! * [`SparseLuFactor`] — a sparse LU factorization (left-looking
//!   Gilbert–Peierls elimination with a nnz-ascending column preorder, a
//!   Markowitz-style fill heuristic) plus a product-form eta file for
//!   updates. Solves cost `O(nnz(L+U) + nnz(etas) + m)` per direction, which
//!   is what makes 10⁴-row provisioning instances tractable.
//!
//! Both backends repair rank-deficient bases the same way the engine always
//! has: a dependent basis column is replaced by the unit column (slack or
//! artificial) of a row the basis no longer covers.

use crate::problem::LpError;
use crate::sparse::CscMatrix;

/// Which basis-factorization backend [`crate::RevisedSimplex`] maintains.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum FactorKind {
    /// Sparse LU with product-form eta updates — the production default.
    #[default]
    SparseLu,
    /// Explicit dense inverse — `O(m²)` per pivot, kept as the differential
    /// oracle for the sparse path and for tiny models.
    Dense,
}

impl std::fmt::Display for FactorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FactorKind::SparseLu => "sparse_lu",
            FactorKind::Dense => "dense",
        })
    }
}

/// Repair inputs for a rank-deficient refactorization: the unit-column basis
/// (`basis0`, one slack/artificial per row) to draw replacements from, and a
/// predicate excluding columns that are already basic.
type RepairPolicy<'a> = (&'a [usize], &'a mut dyn FnMut(usize) -> bool);

/// The engine-facing contract of a basis factorization.
///
/// Index conventions (shared with the engine): *ftran* output and *btran*
/// input are indexed by **basis position**; *ftran* input and *btran* output
/// live in **original row** space. `update(r, w)` replaces the basis column
/// at position `r` by a column whose ftran image is `w`.
pub(crate) trait Factorization {
    /// Factorize the basis columns `basis` of `mat`. Fails (leaving the
    /// previous factorization intact) when the basis is singular.
    fn refactorize(&mut self, mat: &CscMatrix, basis: &[usize]) -> Result<(), LpError>;

    /// Like [`refactorize`](Factorization::refactorize), but replaces each
    /// linearly dependent basis column with the unit column `basis0[r]` of an
    /// uncovered row `r` (subject to `may_use`, which excludes columns that
    /// are already basic). Returns the `(position, new_column)` replacements
    /// so the caller can fix its status bookkeeping.
    fn refactorize_repair(
        &mut self,
        mat: &CscMatrix,
        basis: &mut [usize],
        basis0: &[usize],
        may_use: &mut dyn FnMut(usize) -> bool,
    ) -> Result<Vec<(usize, usize)>, LpError>;

    /// `out := B⁻¹ a` for a sparse `a` given as parallel `(rows, vals)`.
    /// The solves take `&mut self` because each backend owns its scratch:
    /// none of them allocates.
    fn ftran_sparse(&mut self, rows: &[u32], vals: &[f64], out: &mut [f64]);

    /// `out := B⁻¹ a` for a dense `a` (original-row indexed).
    fn ftran_dense(&mut self, a: &[f64], out: &mut [f64]);

    /// `out := B⁻ᵀ c` for a dense `c` (basis-position indexed).
    fn btran_dense(&mut self, c: &[f64], out: &mut [f64]);

    /// `out := B⁻ᵀ e_r` — row `r` of `B⁻¹` (original-row indexed), the seed
    /// of the engine's pivot-row kernel.
    fn btran_unit(&mut self, r: usize, out: &mut [f64]);

    /// Absorb a basis change: position `r` now holds a column whose ftran
    /// image under the *pre-update* factorization is `w`.
    fn update(&mut self, r: usize, w: &[f64]);

    /// Backend-initiated refactorization request (eta file grew past its
    /// fill budget, or an update pivot was small enough to distrust).
    fn wants_refactor(&self) -> bool;

    /// Nonzeros held by the factorization (`nnz(L)+nnz(U)+m` plus the eta
    /// file for the sparse backend, `m²` for the dense inverse).
    fn nnz(&self) -> usize;
}

/// Construct a backend positioned at the identity basis (`B = I`, which is
/// what [`StandardForm::basis0`](crate::standard::StandardForm) guarantees:
/// one unit column per row).
pub(crate) fn make_factor(kind: FactorKind, m: usize) -> Box<dyn Factorization> {
    match kind {
        FactorKind::Dense => Box::new(DenseFactor::identity(m)),
        FactorKind::SparseLu => Box::new(SparseLuFactor::identity(m)),
    }
}

// ---------------------------------------------------------------------------
// Dense backend
// ---------------------------------------------------------------------------

/// Explicit inverse: `binv[i * m + r]` is `B⁻¹[i][r]` with `i` a basis
/// position and `r` an original row.
pub(crate) struct DenseFactor {
    m: usize,
    binv: Vec<f64>,
}

impl DenseFactor {
    fn identity(m: usize) -> DenseFactor {
        let mut binv = vec![0.0f64; m * m];
        for i in 0..m {
            binv[i * m + i] = 1.0;
        }
        DenseFactor { m, binv }
    }

    /// Gauss-Jordan inversion of the basis matrix into `inv`; `repair`
    /// substitutes unit columns for dependent ones. Only commits on success.
    fn invert(
        &mut self,
        mat: &CscMatrix,
        basis: &mut [usize],
        repair: Option<RepairPolicy<'_>>,
    ) -> Result<Vec<(usize, usize)>, LpError> {
        let m = self.m;
        let mut a = vec![0.0f64; m * m];
        for (col_idx, &j) in basis.iter().enumerate() {
            for (r, v) in mat.iter_col(j) {
                a[r * m + col_idx] = v;
            }
        }
        let mut inv = vec![0.0f64; m * m];
        for i in 0..m {
            inv[i * m + i] = 1.0;
        }
        let mut repair = repair;
        let mut replacements = Vec::new();
        for col in 0..m {
            let mut piv_row = col;
            let mut piv_val = a[col * m + col].abs();
            for r in (col + 1)..m {
                let v = a[r * m + col].abs();
                if v > piv_val {
                    piv_val = v;
                    piv_row = r;
                }
            }
            if piv_val < 1e-12 {
                let Some((basis0, may_use)) = repair.as_mut() else {
                    return Err(LpError::BadModel(
                        "singular basis during refactorization".into(),
                    ));
                };
                // Basis column `col` is dependent on the previous ones. Find
                // an original row `r` whose unit column is (a) usable per the
                // caller and not already drafted by this repair pass, and
                // (b) has support in the uneliminated rows: its reduced image
                // under the accumulated row ops is column `r` of `inv`.
                let mut best = 1e-8;
                let (mut br, mut bpos) = (usize::MAX, col);
                for r in 0..m {
                    let unit = basis0[r];
                    if !may_use(unit) || replacements.iter().any(|&(_, u)| u == unit) {
                        continue;
                    }
                    for pos in col..m {
                        let v = inv[pos * m + r].abs();
                        if v > best {
                            best = v;
                            br = r;
                            bpos = pos;
                        }
                    }
                }
                if br == usize::MAX {
                    return Err(LpError::BadModel(
                        "unrepairable singular basis during refactorization".into(),
                    ));
                }
                let unit = basis0[br];
                basis[col] = unit;
                replacements.push((col, unit));
                // Earlier Jordan steps zeroed columns < col everywhere and
                // never touch them again (each pivot row is zero there), so
                // overwriting the whole reduced column is safe.
                for i in 0..m {
                    a[i * m + col] = inv[i * m + br];
                }
                piv_row = bpos;
                piv_val = a[bpos * m + col].abs();
                debug_assert!(piv_val >= 1e-12);
            }
            if piv_row != col {
                for k in 0..m {
                    a.swap(col * m + k, piv_row * m + k);
                    inv.swap(col * m + k, piv_row * m + k);
                }
            }
            let d = 1.0 / a[col * m + col];
            for k in 0..m {
                a[col * m + k] *= d;
                inv[col * m + k] *= d;
            }
            for r in 0..m {
                if r == col {
                    continue;
                }
                let f = a[r * m + col];
                if f == 0.0 {
                    continue;
                }
                for k in 0..m {
                    a[r * m + k] -= f * a[col * m + k];
                    inv[r * m + k] -= f * inv[col * m + k];
                }
            }
        }
        self.binv = inv;
        Ok(replacements)
    }
}

impl Factorization for DenseFactor {
    fn refactorize(&mut self, mat: &CscMatrix, basis: &[usize]) -> Result<(), LpError> {
        let mut basis = basis.to_vec();
        self.invert(mat, &mut basis, None).map(|_| ())
    }

    fn refactorize_repair(
        &mut self,
        mat: &CscMatrix,
        basis: &mut [usize],
        basis0: &[usize],
        may_use: &mut dyn FnMut(usize) -> bool,
    ) -> Result<Vec<(usize, usize)>, LpError> {
        self.invert(mat, basis, Some((basis0, may_use)))
    }

    fn ftran_sparse(&mut self, rows: &[u32], vals: &[f64], out: &mut [f64]) {
        let m = self.m;
        out.fill(0.0);
        for (&r, &v) in rows.iter().zip(vals) {
            let r = r as usize;
            for (i, o) in out.iter_mut().enumerate() {
                *o += v * self.binv[i * m + r];
            }
        }
    }

    fn ftran_dense(&mut self, a: &[f64], out: &mut [f64]) {
        let m = self.m;
        out.fill(0.0);
        for (r, &v) in a.iter().enumerate() {
            if v != 0.0 {
                for (i, o) in out.iter_mut().enumerate() {
                    *o += v * self.binv[i * m + r];
                }
            }
        }
    }

    fn btran_dense(&mut self, c: &[f64], out: &mut [f64]) {
        let m = self.m;
        out.fill(0.0);
        for (i, &ci) in c.iter().enumerate() {
            if ci != 0.0 {
                let row = &self.binv[i * m..(i + 1) * m];
                for (o, &b) in out.iter_mut().zip(row) {
                    *o += ci * b;
                }
            }
        }
    }

    fn btran_unit(&mut self, r: usize, out: &mut [f64]) {
        let m = self.m;
        out.copy_from_slice(&self.binv[r * m..(r + 1) * m]);
    }

    fn update(&mut self, r: usize, w: &[f64]) {
        let m = self.m;
        let piv = w[r];
        debug_assert!(piv.abs() > 1e-12);
        let inv_piv = 1.0 / piv;
        {
            let row = &mut self.binv[r * m..(r + 1) * m];
            for v in row.iter_mut() {
                *v *= inv_piv;
            }
        }
        for i in 0..m {
            if i == r {
                continue;
            }
            let f = w[i];
            if f == 0.0 {
                continue;
            }
            // binv[i] -= f * binv[r] (already scaled)
            let (head, tail) = self.binv.split_at_mut(r.max(i) * m);
            let (src, dst) = if i < r {
                (&tail[..m], &mut head[i * m..i * m + m])
            } else {
                (&head[r * m..r * m + m], &mut tail[..m])
            };
            for (d, s) in dst.iter_mut().zip(src.iter()) {
                *d -= f * s;
            }
        }
    }

    fn wants_refactor(&self) -> bool {
        false // the rank-1 update maintains the full inverse directly
    }

    fn nnz(&self) -> usize {
        self.m * self.m
    }
}

// ---------------------------------------------------------------------------
// Sparse LU backend
// ---------------------------------------------------------------------------

const NONE: u32 = u32::MAX;

/// One sparse LU factorization `P B Q = L U` (P: original row → elimination
/// step via `pinv`; Q: elimination step → basis position via `pos_of_step`).
/// `L` is unit lower triangular (diagonal implicit), stored column-wise as
/// `(original_row, multiplier)` with the pivot-row order implied by `pinv`;
/// `U` is stored column-wise as `(earlier_step, value)` plus `u_diag`.
#[derive(Clone, Default)]
struct Lu {
    m: usize,
    pos_of_step: Vec<u32>,
    pivot_row: Vec<u32>,
    /// `pinv[original_row]` = elimination step that pivoted on it.
    pinv: Vec<u32>,
    l_ptr: Vec<usize>,
    l_row: Vec<u32>,
    l_val: Vec<f64>,
    u_ptr: Vec<usize>,
    u_step: Vec<u32>,
    u_val: Vec<f64>,
    u_diag: Vec<f64>,
}

/// Scratch shared by the factorization passes (kept out of `Lu` so a failed
/// factorization never disturbs the committed one).
struct FactorScratch {
    /// Dense numeric work array, original-row indexed.
    w: Vec<f64>,
    /// Visited marks for the reachability DFS.
    mark: Vec<bool>,
    /// Nonzero pattern of the current column in DFS postorder.
    pattern: Vec<u32>,
    /// Explicit DFS stack of `(row, next_child_index)`.
    stack: Vec<(u32, usize)>,
}

impl FactorScratch {
    fn new(m: usize) -> FactorScratch {
        FactorScratch {
            w: vec![0.0; m],
            mark: vec![false; m],
            pattern: Vec::new(),
            stack: Vec::new(),
        }
    }
}

enum ColOutcome {
    Pivoted,
    Dependent,
}

impl Lu {
    fn identity(m: usize) -> Lu {
        Lu {
            m,
            pos_of_step: (0..m as u32).collect(),
            pivot_row: (0..m as u32).collect(),
            pinv: (0..m as u32).collect(),
            l_ptr: vec![0; m + 1],
            l_row: Vec::new(),
            l_val: Vec::new(),
            u_ptr: vec![0; m + 1],
            u_step: Vec::new(),
            u_val: Vec::new(),
            u_diag: vec![1.0; m],
        }
    }

    fn empty(m: usize) -> Lu {
        Lu {
            m,
            pos_of_step: Vec::with_capacity(m),
            pivot_row: Vec::with_capacity(m),
            pinv: vec![NONE; m],
            l_ptr: vec![0],
            l_row: Vec::new(),
            l_val: Vec::new(),
            u_ptr: vec![0],
            u_step: Vec::new(),
            u_val: Vec::new(),
            u_diag: Vec::new(),
        }
    }

    fn nnz(&self) -> usize {
        self.l_val.len() + self.u_val.len() + self.u_diag.len()
    }

    /// Left-looking elimination of one basis column (Gilbert–Peierls): a
    /// reachability DFS over the L structure finds the nonzero pattern of
    /// `L⁻¹ a_j` in topological order, the numeric pass replays only those
    /// eliminations, and the max-magnitude unpivoted entry becomes the pivot.
    fn factor_col(
        &mut self,
        mat: &CscMatrix,
        col: usize,
        pos: usize,
        s: &mut FactorScratch,
    ) -> ColOutcome {
        let (rows, vals) = mat.col(col);
        // symbolic: pattern = Reach_L(rows), postorder
        for &r0 in rows {
            if s.mark[r0 as usize] {
                continue;
            }
            s.mark[r0 as usize] = true;
            s.stack.push((r0, 0));
            while let Some(&mut (r, ref mut ci)) = s.stack.last_mut() {
                let k = self.pinv[r as usize];
                let children: &[u32] = if k == NONE {
                    &[]
                } else {
                    &self.l_row[self.l_ptr[k as usize]..self.l_ptr[k as usize + 1]]
                };
                if *ci < children.len() {
                    let child = children[*ci];
                    *ci += 1;
                    if !s.mark[child as usize] {
                        s.mark[child as usize] = true;
                        s.stack.push((child, 0));
                    }
                } else {
                    s.stack.pop();
                    s.pattern.push(r);
                }
            }
        }
        // numeric: scatter, then replay eliminations in topological
        // (reverse-postorder) order
        for (&r, &v) in rows.iter().zip(vals) {
            s.w[r as usize] = v;
        }
        for &r in s.pattern.iter().rev() {
            let k = self.pinv[r as usize];
            if k == NONE {
                continue;
            }
            let t = s.w[r as usize];
            if t == 0.0 {
                continue;
            }
            let (lo, hi) = (self.l_ptr[k as usize], self.l_ptr[k as usize + 1]);
            for (&lr, &lv) in self.l_row[lo..hi].iter().zip(&self.l_val[lo..hi]) {
                s.w[lr as usize] -= lv * t;
            }
        }
        // pivot: max-magnitude unpivoted entry
        let mut prow = NONE;
        let mut pval = 0.0f64;
        for &r in &s.pattern {
            if self.pinv[r as usize] == NONE {
                let v = s.w[r as usize].abs();
                if v > pval {
                    pval = v;
                    prow = r;
                }
            }
        }
        if pval < 1e-12 {
            for &r in &s.pattern {
                s.w[r as usize] = 0.0;
                s.mark[r as usize] = false;
            }
            s.pattern.clear();
            return ColOutcome::Dependent;
        }
        let step = self.u_diag.len() as u32;
        let piv = s.w[prow as usize];
        for &r in &s.pattern {
            let w = s.w[r as usize];
            let k = self.pinv[r as usize];
            if k != NONE {
                if w != 0.0 {
                    self.u_step.push(k);
                    self.u_val.push(w);
                }
            } else if r != prow && w != 0.0 {
                self.l_row.push(r);
                self.l_val.push(w / piv);
            }
            s.w[r as usize] = 0.0;
            s.mark[r as usize] = false;
        }
        s.pattern.clear();
        self.u_ptr.push(self.u_val.len());
        self.l_ptr.push(self.l_val.len());
        self.u_diag.push(piv);
        self.pivot_row.push(prow);
        self.pinv[prow as usize] = step;
        self.pos_of_step.push(pos as u32);
        ColOutcome::Pivoted
    }

    /// Factor `basis`; when `deps` is `Some`, dependent columns are skipped
    /// and their positions collected instead of failing.
    fn factor(
        mat: &CscMatrix,
        basis: &[usize],
        mut deps: Option<&mut Vec<usize>>,
    ) -> Result<Lu, LpError> {
        let m = mat.num_rows();
        debug_assert_eq!(basis.len(), m);
        let mut lu = Lu::empty(m);
        let mut s = FactorScratch::new(m);
        // Column preorder: cheapest (fewest-nonzero) columns first — a static
        // Markowitz-style heuristic that keeps unit and near-unit columns in
        // front where they cause no fill.
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by_key(|&pos| mat.col_nnz(basis[pos]));
        for pos in order {
            match lu.factor_col(mat, basis[pos], pos, &mut s) {
                ColOutcome::Pivoted => {}
                ColOutcome::Dependent => match deps.as_mut() {
                    Some(d) => d.push(pos),
                    None => {
                        return Err(LpError::BadModel(
                            "singular basis during refactorization".into(),
                        ));
                    }
                },
            }
        }
        Ok(lu)
    }

    /// `out := U⁻¹ L⁻¹ w`, consuming `w`: every pivot-row slot is zeroed as
    /// the U solve retires it, so a scratch that went in as a scattered
    /// column comes back all-zero. `w` is original-row indexed; `out` is
    /// basis-position indexed and fully overwritten.
    fn solve_ftran(&self, w: &mut [f64], out: &mut [f64]) {
        // L solve in elimination order: w[pivot_row[k]] becomes z_k
        for k in 0..self.m {
            let t = w[self.pivot_row[k] as usize];
            if t == 0.0 {
                continue;
            }
            let (lo, hi) = (self.l_ptr[k], self.l_ptr[k + 1]);
            for (&lr, &lv) in self.l_row[lo..hi].iter().zip(&self.l_val[lo..hi]) {
                w[lr as usize] -= lv * t;
            }
        }
        // U solve in reverse order, in place on the pivot-row slots
        for k in (0..self.m).rev() {
            let pr = self.pivot_row[k] as usize;
            let x = w[pr] / self.u_diag[k];
            w[pr] = 0.0;
            out[self.pos_of_step[k] as usize] = x;
            if x != 0.0 {
                let (lo, hi) = (self.u_ptr[k], self.u_ptr[k + 1]);
                for (&uj, &uv) in self.u_step[lo..hi].iter().zip(&self.u_val[lo..hi]) {
                    w[self.pivot_row[uj as usize] as usize] -= uv * x;
                }
            }
        }
    }

    /// `out := B⁻ᵀ c` (`c` basis-position indexed, `out` original-row
    /// indexed, fully overwritten). `s` is step-space scratch of length `m`.
    fn solve_btran(&self, c: &[f64], s: &mut [f64], out: &mut [f64]) {
        // Uᵀ forward solve: s_k = (c[q_k] − Σ_{j<k} U_{jk} s_j) / d_k
        for k in 0..self.m {
            let mut acc = c[self.pos_of_step[k] as usize];
            let (lo, hi) = (self.u_ptr[k], self.u_ptr[k + 1]);
            for (&uj, &uv) in self.u_step[lo..hi].iter().zip(&self.u_val[lo..hi]) {
                acc -= uv * s[uj as usize];
            }
            s[k] = acc / self.u_diag[k];
        }
        // Lᵀ backward solve: t_k = s_k − Σ L_{jk} t_j (rows of lcol[k] pivot
        // at steps > k, already final when k is reached descending)
        for k in (0..self.m).rev() {
            let mut acc = s[k];
            let (lo, hi) = (self.l_ptr[k], self.l_ptr[k + 1]);
            for (&lr, &lv) in self.l_row[lo..hi].iter().zip(&self.l_val[lo..hi]) {
                acc -= lv * s[self.pinv[lr as usize] as usize];
            }
            s[k] = acc;
        }
        out.fill(0.0);
        for k in 0..self.m {
            out[self.pivot_row[k] as usize] = s[k];
        }
    }
}

/// Sparse LU plus a product-form eta file. Each eta records one basis change
/// `E = I − (w − e_r) e_rᵀ / w_r` (basis-position space), so
/// `B⁻¹ = E_T ⋯ E_1 (LU)⁻¹`: ftran applies the LU solve then etas oldest →
/// newest; btran applies etas newest → oldest then the transposed LU solve.
pub(crate) struct SparseLuFactor {
    lu: Lu,
    eta_ptr: Vec<usize>,
    eta_pos: Vec<u32>,
    eta_val: Vec<f64>,
    eta_pivot_pos: Vec<u32>,
    eta_pivot_val: Vec<f64>,
    /// Accuracy latch: an update pivot fell below trust.
    tiny_pivot: bool,
    /// Cap on etas between refactorizations.
    max_etas: usize,
    /// Scratch, length `m`: the ftran right-hand side (all-zero between
    /// solves, see [`Lu::solve_ftran`]) and the btran input after etas.
    work: Vec<f64>,
    /// Scratch, length `m`: the btran step-space intermediate.
    steps: Vec<f64>,
}

impl SparseLuFactor {
    fn identity(m: usize) -> SparseLuFactor {
        SparseLuFactor {
            lu: Lu::identity(m),
            eta_ptr: vec![0],
            eta_pos: Vec::new(),
            eta_val: Vec::new(),
            eta_pivot_pos: Vec::new(),
            eta_pivot_val: Vec::new(),
            tiny_pivot: false,
            max_etas: 64,
            work: vec![0.0; m],
            steps: vec![0.0; m],
        }
    }

    fn clear_etas(&mut self) {
        self.eta_ptr.clear();
        self.eta_ptr.push(0);
        self.eta_pos.clear();
        self.eta_val.clear();
        self.eta_pivot_pos.clear();
        self.eta_pivot_val.clear();
        self.tiny_pivot = false;
    }

    /// Apply the eta file to an ftran image, oldest first.
    fn apply_etas_ftran(&self, v: &mut [f64]) {
        for e in 0..self.eta_pivot_pos.len() {
            let r = self.eta_pivot_pos[e] as usize;
            let t = v[r] / self.eta_pivot_val[e];
            if t != 0.0 {
                let (lo, hi) = (self.eta_ptr[e], self.eta_ptr[e + 1]);
                for (&p, &wv) in self.eta_pos[lo..hi].iter().zip(&self.eta_val[lo..hi]) {
                    v[p as usize] -= wv * t;
                }
            }
            v[r] = t;
        }
    }

    /// Apply the transposed eta file to the btran input in `work`, newest
    /// first: only the pivot slot changes, `c_r := (c_r − Σ w_j c_j) / w_r`.
    fn apply_etas_btran(&mut self) {
        let c = &mut self.work;
        for e in (0..self.eta_pivot_pos.len()).rev() {
            let r = self.eta_pivot_pos[e] as usize;
            let mut acc = c[r];
            let (lo, hi) = (self.eta_ptr[e], self.eta_ptr[e + 1]);
            for (&p, &wv) in self.eta_pos[lo..hi].iter().zip(&self.eta_val[lo..hi]) {
                acc -= wv * c[p as usize];
            }
            c[r] = acc / self.eta_pivot_val[e];
        }
    }

    /// `out := B⁻ᵀ work`, leaving `work` all-zero again for the next ftran.
    fn btran_work(&mut self, out: &mut [f64]) {
        self.apply_etas_btran();
        self.lu.solve_btran(&self.work, &mut self.steps, out);
        self.work.fill(0.0);
    }
}

impl Factorization for SparseLuFactor {
    fn refactorize(&mut self, mat: &CscMatrix, basis: &[usize]) -> Result<(), LpError> {
        let lu = Lu::factor(mat, basis, None)?;
        self.lu = lu;
        self.clear_etas();
        Ok(())
    }

    fn refactorize_repair(
        &mut self,
        mat: &CscMatrix,
        basis: &mut [usize],
        basis0: &[usize],
        may_use: &mut dyn FnMut(usize) -> bool,
    ) -> Result<Vec<(usize, usize)>, LpError> {
        let mut deps = Vec::new();
        let first = Lu::factor(mat, basis, Some(&mut deps))?;
        if deps.is_empty() {
            self.lu = first;
            self.clear_etas();
            return Ok(Vec::new());
        }
        // Every skipped (dependent) position is re-covered by the unit
        // column of a row no pivot claimed. Unit columns on distinct
        // uncovered rows are independent of everything factored, so a strict
        // second pass must succeed.
        let mut uncovered: Vec<usize> = (0..first.m).filter(|&r| first.pinv[r] == NONE).collect();
        let mut replacements = Vec::new();
        for pos in deps {
            let slot = uncovered.iter().position(|&r| {
                let unit = basis0[r];
                may_use(unit) && !replacements.iter().any(|&(_, u)| u == unit)
            });
            let Some(slot) = slot else {
                return Err(LpError::BadModel(
                    "unrepairable singular basis during refactorization".into(),
                ));
            };
            let r = uncovered.swap_remove(slot);
            basis[pos] = basis0[r];
            replacements.push((pos, basis0[r]));
        }
        let lu = Lu::factor(mat, basis, None)?;
        self.lu = lu;
        self.clear_etas();
        Ok(replacements)
    }

    fn ftran_sparse(&mut self, rows: &[u32], vals: &[f64], out: &mut [f64]) {
        for (&r, &v) in rows.iter().zip(vals) {
            self.work[r as usize] = v;
        }
        self.lu.solve_ftran(&mut self.work, out);
        self.apply_etas_ftran(out);
    }

    fn ftran_dense(&mut self, a: &[f64], out: &mut [f64]) {
        self.work.copy_from_slice(a);
        self.lu.solve_ftran(&mut self.work, out);
        self.apply_etas_ftran(out);
    }

    fn btran_dense(&mut self, c: &[f64], out: &mut [f64]) {
        self.work.copy_from_slice(c);
        self.btran_work(out);
    }

    fn btran_unit(&mut self, r: usize, out: &mut [f64]) {
        self.work[r] = 1.0;
        self.btran_work(out);
    }

    fn update(&mut self, r: usize, w: &[f64]) {
        let piv = w[r];
        debug_assert!(piv.abs() > 1e-12);
        if piv.abs() < 1e-7 {
            self.tiny_pivot = true;
        }
        for (i, &v) in w.iter().enumerate() {
            if i != r && v != 0.0 {
                self.eta_pos.push(i as u32);
                self.eta_val.push(v);
            }
        }
        self.eta_ptr.push(self.eta_val.len());
        self.eta_pivot_pos.push(r as u32);
        self.eta_pivot_val.push(piv);
    }

    fn wants_refactor(&self) -> bool {
        self.tiny_pivot
            || self.eta_pivot_pos.len() >= self.max_etas
            || self.eta_val.len() > 2 * self.lu.nnz()
    }

    fn nnz(&self) -> usize {
        self.lu.nnz() + self.eta_val.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::CsrView;

    /// A 4×4 matrix with known inverse behavior, stored column-sparse, plus
    /// unit tail columns so repair has something to draw on.
    fn fixture() -> CscMatrix {
        // columns 0..4 structural, 4..8 unit (slack) columns
        let rows = CsrView::from_rows(&[
            vec![(0, 2.0), (1, 1.0), (4, 1.0)],
            vec![(1, 3.0), (2, 1.0), (5, 1.0)],
            vec![(0, 1.0), (2, 4.0), (3, 1.0), (6, 1.0)],
            vec![(3, 5.0), (7, 1.0)],
        ]);
        let mut m = CscMatrix::new(4);
        m.assemble_from_rows(8, &rows);
        m
    }

    fn residual(mat: &CscMatrix, basis: &[usize], x: &[f64], a_col: usize) -> f64 {
        // || Σ_pos x[pos] * A_basis[pos] − A[a_col] ||_∞
        let m = mat.num_rows();
        let mut acc = vec![0.0f64; m];
        for (pos, &j) in basis.iter().enumerate() {
            for (r, v) in mat.iter_col(j) {
                acc[r] += x[pos] * v;
            }
        }
        for (r, v) in mat.iter_col(a_col) {
            acc[r] -= v;
        }
        acc.iter().fold(0.0f64, |w, v| w.max(v.abs()))
    }

    fn check_backend(f: &mut dyn Factorization, mat: &CscMatrix, basis: &[usize]) {
        let m = mat.num_rows();
        f.refactorize(mat, basis).expect("basis is nonsingular");
        // ftran solves B x = a for every structural column
        for j in 0..4 {
            let (rows, vals) = mat.col(j);
            let mut x = vec![0.0; m];
            f.ftran_sparse(rows, vals, &mut x);
            assert!(
                residual(mat, basis, &x, j) < 1e-9,
                "ftran residual too large for col {j}"
            );
        }
        // btran_unit(r) gives row r of B⁻¹: B⁻¹ agrees with ftran on units
        for r in 0..m {
            let mut row = vec![0.0; m];
            f.btran_unit(r, &mut row);
            for c in 0..m {
                let unit_rows = [c as u32];
                let unit_vals = [1.0];
                let mut img = vec![0.0; m];
                f.ftran_sparse(&unit_rows[..], &unit_vals[..], &mut img);
                assert!(
                    (img[r] - row[c]).abs() < 1e-9,
                    "btran_unit disagrees with ftran at ({r},{c})"
                );
            }
        }
    }

    #[test]
    fn dense_and_sparse_agree_on_solves() {
        let mat = fixture();
        let basis = vec![0usize, 1, 2, 3];
        check_backend(&mut DenseFactor::identity(4), &mat, &basis);
        check_backend(&mut SparseLuFactor::identity(4), &mat, &basis);
    }

    #[test]
    fn update_tracks_basis_change() {
        let mat = fixture();
        let mut basis = vec![4usize, 5, 6, 7]; // identity
        for backend in [0, 1] {
            let mut f: Box<dyn Factorization> = if backend == 0 {
                Box::new(DenseFactor::identity(4))
            } else {
                Box::new(SparseLuFactor::identity(4))
            };
            f.refactorize(&mat, &basis).unwrap();
            // bring column 2 in at position 1 via update, then compare every
            // solve against a fresh refactorization of the new basis
            let (rows, vals) = mat.col(2);
            let mut w = vec![0.0; 4];
            f.ftran_sparse(rows, vals, &mut w);
            f.update(1, &w);
            basis[1] = 2;
            let mut fresh = SparseLuFactor::identity(4);
            fresh.refactorize(&mat, &basis).unwrap();
            for j in 0..8 {
                let (rows, vals) = mat.col(j);
                let mut a = vec![0.0; 4];
                let mut b = vec![0.0; 4];
                f.ftran_sparse(rows, vals, &mut a);
                fresh.ftran_sparse(rows, vals, &mut b);
                for (x, y) in a.iter().zip(&b) {
                    assert!((x - y).abs() < 1e-9, "updated vs fresh mismatch");
                }
            }
            let c = [1.0, -2.0, 0.5, 3.0];
            let mut a = vec![0.0; 4];
            let mut b = vec![0.0; 4];
            f.btran_dense(&c, &mut a);
            fresh.btran_dense(&c, &mut b);
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() < 1e-9, "btran updated vs fresh mismatch");
            }
            basis[1] = 5; // restore for the other backend
        }
    }

    #[test]
    fn repair_substitutes_unit_columns() {
        let mat = fixture();
        // duplicate column 0: structurally singular
        let basis = vec![0usize, 0, 2, 3];
        let basis0 = vec![4usize, 5, 6, 7];
        for backend in [0, 1] {
            let mut f: Box<dyn Factorization> = if backend == 0 {
                Box::new(DenseFactor::identity(4))
            } else {
                Box::new(SparseLuFactor::identity(4))
            };
            let mut b = basis.clone();
            let mut may_use = |col: usize| !b1_contains(&basis, col);
            let reps = f
                .refactorize_repair(&mat, &mut b, &basis0, &mut may_use)
                .expect("repairable");
            assert_eq!(reps.len(), 1, "exactly one dependent column");
            // repaired basis must now factorize strictly
            f.refactorize(&mat, &b).expect("repaired basis nonsingular");
        }
    }

    fn b1_contains(basis: &[usize], col: usize) -> bool {
        basis.contains(&col)
    }

    #[test]
    fn strict_refactorize_rejects_singular() {
        let mat = fixture();
        let basis = vec![0usize, 0, 2, 3];
        let mut f = SparseLuFactor::identity(4);
        assert!(f.refactorize(&mat, &basis).is_err());
        let mut d = DenseFactor::identity(4);
        assert!(d.refactorize(&mat, &basis).is_err());
    }

    #[test]
    fn eta_fill_triggers_refactor_request() {
        let mat = fixture();
        let basis = vec![4usize, 5, 6, 7];
        let mut f = SparseLuFactor::identity(4);
        f.refactorize(&mat, &basis).unwrap();
        assert!(!f.wants_refactor());
        f.max_etas = 2;
        f.update(0, &[2.0, 0.5, 0.0, 0.0]);
        assert!(!f.wants_refactor());
        f.update(1, &[0.0, 4.0, 1.0, 0.0]);
        assert!(f.wants_refactor(), "eta cap reached");
    }
}
