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
//!   updates. Both triangular solves are *hypersparse*: a bitmap with one
//!   bit per elimination step is seeded from the right-hand side's nonzeros
//!   and swept in elimination order, each visited step flagging the steps
//!   its `L`/`U` edges lead to, so a solve costs `O(steps visited + the
//!   `L`/`U` entries of those steps)` — plus `O(nnz(etas))` for a btran,
//!   whose eta file is a chain of dot products, and `O(etas + eta entries
//!   met)` for an ftran — and returns the ascending list of positions that
//!   may be nonzero ([`SolveVec`]). A dense right-hand side seeds every bit
//!   (and marks nothing: there is no reach left to discover) and the same
//!   sweep degrades to the plain `O(nnz(L+U) + m)` loops. The
//!   sweep only ever *skips* exact zeros: every sum keeps its terms and
//!   their order, so a solve is bit-identical (up to the sign of a zero)
//!   to the full loops, which survive as the unit tests' oracle.
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

/// Result of a sparse solve: dense values plus the strictly ascending list
/// of the indices that may hold a nonzero (a listed entry can be an exact
/// zero after cancellation; an unlisted one never is nonzero). Consumers
/// walk `nz` instead of `0..m`; ascending order keeps every sum they form
/// in the order a full-length pass would take it.
pub(crate) struct SolveVec {
    pub val: Vec<f64>,
    pub nz: Vec<u32>,
}

impl SolveVec {
    pub fn zeros(m: usize) -> SolveVec {
        SolveVec {
            val: vec![0.0; m],
            nz: Vec::new(),
        }
    }

    /// The listed entries as `(index, value)`, ascending.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.nz.iter().map(|&i| (i as usize, self.val[i as usize]))
    }

    /// Back to all-zero, touching the listed entries only.
    fn clear(&mut self) {
        for &i in &self.nz {
            self.val[i as usize] = 0.0;
        }
        self.nz.clear();
    }

    /// Rebuild the list by a full scan (the dense backend's way of meeting
    /// the contract).
    fn relist(&mut self) {
        self.nz.clear();
        let nonzero = |(i, &v): (usize, &f64)| (v != 0.0).then_some(i as u32);
        self.nz
            .extend(self.val.iter().enumerate().filter_map(nonzero));
    }
}

/// The engine-facing contract of a basis factorization.
///
/// Index conventions (shared with the engine): *ftran* output and *btran*
/// input are indexed by **basis position**; *ftran* input and *btran* output
/// live in **original row** space. `update(r, w)` replaces the basis column
/// at position `r` by a column whose ftran image is `w`. The sparse solves
/// overwrite a [`SolveVec`] that holds what an earlier sparse solve left
/// there (or all zeros), which is what lets them clear it by its list.
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
    fn ftran_sparse(&mut self, rows: &[u32], vals: &[f64], out: &mut SolveVec);

    /// `out := B⁻¹ a` for a dense `a` (original-row indexed).
    fn ftran_dense(&mut self, a: &[f64], out: &mut [f64]);

    /// `out := B⁻ᵀ c` for a dense `c` (basis-position indexed).
    fn btran_dense(&mut self, c: &[f64], out: &mut [f64]);

    /// `out := B⁻ᵀ e_r` — row `r` of `B⁻¹` (original-row indexed), the seed
    /// of the engine's pivot-row kernel.
    fn btran_unit(&mut self, r: usize, out: &mut SolveVec);

    /// Absorb a basis change: position `r` now holds a column whose ftran
    /// image under the *pre-update* factorization is `w`.
    fn update(&mut self, r: usize, w: &SolveVec);

    /// Backend-initiated refactorization request (eta file grew past its
    /// fill budget, or an update pivot was small enough to distrust).
    fn wants_refactor(&self) -> bool;

    /// Nonzeros held by the factorization (`nnz(L)+nnz(U)+m` plus the eta
    /// file for the sparse backend, `m²` for the dense inverse).
    fn nnz(&self) -> usize;

    /// Elimination steps visited so far by the sparse solves, summed over
    /// `(ftran_sparse, btran_unit)` calls; `(0, 0)` for a backend without
    /// an elimination order.
    fn steps_visited(&self) -> (u64, u64);
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

    fn ftran_sparse(&mut self, rows: &[u32], vals: &[f64], out: &mut SolveVec) {
        let m = self.m;
        out.val.fill(0.0);
        for (&r, &v) in rows.iter().zip(vals) {
            let r = r as usize;
            for (i, o) in out.val.iter_mut().enumerate() {
                *o += v * self.binv[i * m + r];
            }
        }
        out.relist();
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

    fn btran_unit(&mut self, r: usize, out: &mut SolveVec) {
        let m = self.m;
        out.val.copy_from_slice(&self.binv[r * m..(r + 1) * m]);
        out.relist();
    }

    fn update(&mut self, r: usize, w: &SolveVec) {
        let m = self.m;
        let w = &w.val;
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

    fn steps_visited(&self) -> (u64, u64) {
        (0, 0)
    }
}

// ---------------------------------------------------------------------------
// Sparse LU backend
// ---------------------------------------------------------------------------

const NONE: u32 = u32::MAX;

/// Flag index `i` in a one-bit-per-index set.
#[inline]
fn set_bit(bits: &mut [u64], i: u32) {
    bits[(i >> 6) as usize] |= 1u64 << (i & 63);
}

#[inline]
fn bit_is_set(bits: &[u64], i: u32) -> bool {
    bits[(i >> 6) as usize] & (1u64 << (i & 63)) != 0
}

/// Flag every index below `m`.
fn set_all_bits(bits: &mut [u64], m: usize) {
    bits.fill(!0);
    if let Some(last) = bits.last_mut() {
        // `m % 64` bits of the last word, all 64 when that is 0
        *last >>= (64 - m % 64) % 64;
    }
}

/// Move the flagged indices, ascending, into `list`; the set ends empty.
fn drain_bits(bits: &mut [u64], list: &mut Vec<u32>) {
    for (wi, word) in bits.iter_mut().enumerate() {
        while *word != 0 {
            list.push(wi as u32 * 64 + word.trailing_zeros());
            *word &= *word - 1;
        }
    }
}

/// Lowest flagged bit of `word` above the ones in `done`, and `done` grown
/// to cover it: the step of an ascending sweep that re-reads its word after
/// every visit, because a visit may flag later bits of the same word.
#[inline]
fn next_up(word: u64, done: &mut u64) -> Option<u32> {
    let pending = word & !*done;
    if pending == 0 {
        return None;
    }
    let b = pending.trailing_zeros();
    *done = (2u64 << b).wrapping_sub(1);
    Some(b)
}

/// One sparse LU factorization `P B Q = L U` (P: original row → elimination
/// step via `pinv`; Q: elimination step → basis position via `pos_of_step`).
/// `L` is unit lower triangular (diagonal implicit), stored column-wise as
/// `(original_row, multiplier)` with the pivot-row order implied by `pinv`;
/// `U` is stored column-wise as `(earlier_step, value)` plus `u_diag`.
///
/// The transposed solve pulls (one dot product per step over that column
/// storage), so it cannot see from a step which later ones will read it;
/// `ut_*`/`lt_*` are pattern-only row copies of `U` and `L` that answer
/// exactly that, built by one counting transpose per factorization — when
/// its first sparse btran asks, since a factorization that no pivot follows
/// (the end-of-solve guard's, a zero-pivot warm re-solve's) never needs
/// them — and not counted in [`nnz`](Lu::nnz).
#[derive(Default)]
struct Lu {
    m: usize,
    pos_of_step: Vec<u32>,
    /// `step_of_pos`, `ut_*` and `lt_*` below describe this factorization
    /// (see [`index_for_btran`](Lu::index_for_btran)).
    btran_indexed: bool,
    /// Inverse of `pos_of_step`.
    step_of_pos: Vec<u32>,
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
    /// Row `j` of `U`: the later steps whose `U` column holds step `j`.
    ut_ptr: Vec<usize>,
    ut_step: Vec<u32>,
    /// Row of `L` pivoted at step `j`: the earlier steps whose `L` column
    /// holds that row.
    lt_ptr: Vec<usize>,
    lt_step: Vec<u32>,
}

/// Scratch shared by the factorization passes (kept out of `Lu` so a failed
/// factorization never disturbs the committed one). Every pass leaves it as
/// it found it, so one instance serves every refactorization.
struct FactorScratch {
    /// Dense numeric work array, original-row indexed.
    w: Vec<f64>,
    /// Visited marks for the reachability DFS.
    mark: Vec<bool>,
    /// Nonzero pattern of the current column in DFS postorder.
    pattern: Vec<u32>,
    /// Explicit DFS stack of `(row, next_child_index)`.
    stack: Vec<(u32, usize)>,
    /// Basis positions in elimination order.
    order: Vec<usize>,
    /// Counting-sort cursors of the preorder, one per column count.
    order_at: Vec<usize>,
}

impl FactorScratch {
    fn new(m: usize) -> FactorScratch {
        FactorScratch {
            w: vec![0.0; m],
            mark: vec![false; m],
            pattern: Vec::new(),
            stack: Vec::new(),
            order: vec![0; m],
            order_at: vec![0; m + 2],
        }
    }
}

enum ColOutcome {
    Pivoted,
    Dependent,
}

/// Counting transpose of a column-stored pattern: column `k` holds
/// `rows[col_ptr[k]..col_ptr[k + 1]]`, each mapped to its row index by
/// `row_of`; afterwards `ptr[r]..ptr[r + 1]` delimits row `r`'s columns
/// (ascending) in `ix`.
fn transpose_pattern(
    col_ptr: &[usize],
    rows: &[u32],
    row_of: impl Fn(u32) -> usize,
    ptr: &mut Vec<usize>,
    ix: &mut Vec<u32>,
) {
    let m = col_ptr.len() - 1;
    ptr.clear();
    ptr.resize(m + 1, 0);
    for &r in rows {
        ptr[row_of(r) + 1] += 1;
    }
    for r in 0..m {
        ptr[r + 1] += ptr[r];
    }
    ix.clear();
    ix.resize(rows.len(), 0);
    // scatter with each row's start as its cursor, then shift the starts back
    for k in 0..m {
        for &r in &rows[col_ptr[k]..col_ptr[k + 1]] {
            let at = &mut ptr[row_of(r)];
            ix[*at] = k as u32;
            *at += 1;
        }
    }
    ptr.copy_within(0..m, 1);
    ptr[0] = 0;
}

impl Lu {
    fn identity(m: usize) -> Lu {
        Lu {
            m,
            pos_of_step: (0..m as u32).collect(),
            pivot_row: (0..m as u32).collect(),
            pinv: (0..m as u32).collect(),
            l_ptr: vec![0; m + 1],
            u_ptr: vec![0; m + 1],
            u_diag: vec![1.0; m],
            ..Lu::default()
        }
    }

    /// No steps eliminated yet, every allocation kept.
    fn reset(&mut self, m: usize) {
        self.m = m;
        self.btran_indexed = false;
        self.pos_of_step.clear();
        self.pivot_row.clear();
        self.pinv.clear();
        self.pinv.resize(m, NONE);
        for ptr in [&mut self.l_ptr, &mut self.u_ptr] {
            ptr.clear();
            ptr.push(0);
        }
        self.l_row.clear();
        self.l_val.clear();
        self.u_step.clear();
        self.u_val.clear();
        self.u_diag.clear();
    }

    fn nnz(&self) -> usize {
        self.l_val.len() + self.u_val.len() + self.u_diag.len()
    }

    /// Entries of `U` column `k` as `(earlier_step, value)`.
    #[inline]
    fn u_col(&self, k: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let (lo, hi) = (self.u_ptr[k], self.u_ptr[k + 1]);
        self.u_step[lo..hi]
            .iter()
            .copied()
            .zip(self.u_val[lo..hi].iter().copied())
    }

    /// Entries of `L` column `k` as `(original_row, multiplier)`.
    #[inline]
    fn l_col(&self, k: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let (lo, hi) = (self.l_ptr[k], self.l_ptr[k + 1]);
        self.l_row[lo..hi]
            .iter()
            .copied()
            .zip(self.l_val[lo..hi].iter().copied())
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

    /// Factor `basis` into `self`, dropping what it held and keeping its
    /// allocations; when `deps` is `Some`, dependent columns are skipped and
    /// their positions collected instead of failing.
    fn factor(
        &mut self,
        mat: &CscMatrix,
        basis: &[usize],
        mut deps: Option<&mut Vec<usize>>,
        s: &mut FactorScratch,
    ) -> Result<(), LpError> {
        let m = mat.num_rows();
        debug_assert_eq!(basis.len(), m);
        self.reset(m);
        // Column preorder: cheapest (fewest-nonzero) columns first, lowest
        // position on ties — a static Markowitz-style heuristic that keeps
        // unit and near-unit columns in front where they cause no fill. A
        // column holds at most `m` entries, so a counting sort does it.
        s.order_at.fill(0);
        for &j in basis {
            s.order_at[mat.col_nnz(j) + 1] += 1;
        }
        for c in 0..=m {
            s.order_at[c + 1] += s.order_at[c];
        }
        for (pos, &j) in basis.iter().enumerate() {
            let at = &mut s.order_at[mat.col_nnz(j)];
            s.order[*at] = pos;
            *at += 1;
        }
        for i in 0..m {
            let pos = s.order[i];
            match self.factor_col(mat, basis[pos], pos, s) {
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
        Ok(())
    }

    /// `step_of_pos` and the row patterns of `U` and `L`: what a sparse
    /// btran needs to seed and to propagate its reach.
    fn index_for_btran(&mut self) {
        let m = self.m;
        self.btran_indexed = true;
        self.step_of_pos.clear();
        self.step_of_pos.resize(m, 0);
        for (k, &pos) in self.pos_of_step.iter().enumerate() {
            self.step_of_pos[pos as usize] = k as u32;
        }
        let by_step = |j: u32| j as usize;
        transpose_pattern(
            &self.u_ptr,
            &self.u_step,
            by_step,
            &mut self.ut_ptr,
            &mut self.ut_step,
        );
        let pinv = &self.pinv;
        let by_pivot_step = |row: u32| pinv[row as usize] as usize;
        transpose_pattern(
            &self.l_ptr,
            &self.l_row,
            by_pivot_step,
            &mut self.lt_ptr,
            &mut self.lt_step,
        );
    }

    /// `out := U⁻¹ L⁻¹ w` over the steps reachable from the ones flagged in
    /// `steps` (every step that pivots on a nonzero row of `w` must be).
    /// `L` and `U` edges only lead forward in their sweep's direction, so a
    /// sweep that re-reads its bitmap word after each visit meets the
    /// Gilbert–Peierls reach already in processing order; an unflagged step
    /// holds an exact zero, which the full loop would only have divided and
    /// stored. Consumes both inputs — the U sweep zeroes every pivot-row
    /// slot of `w` and every bit of `steps` as it retires them — writes
    /// `out` (basis-position indexed) at the visited steps only and flags
    /// its nonzeros in `out_bits`. `every_step` says the caller flagged all
    /// of `steps`, so there is no reach to discover and nothing to mark.
    /// Returns the steps visited.
    fn ftran(
        &self,
        w: &mut [f64],
        steps: &mut [u64],
        every_step: bool,
        out: &mut [f64],
        out_bits: &mut [u64],
    ) -> u64 {
        // L solve in elimination order: w[pivot_row[k]] becomes z_k
        for wi in 0..steps.len() {
            let mut done = 0;
            while let Some(b) = next_up(steps[wi], &mut done) {
                let k = wi * 64 + b as usize;
                let t = w[self.pivot_row[k] as usize];
                if t == 0.0 {
                    continue;
                }
                for (lr, lv) in self.l_col(k) {
                    w[lr as usize] -= lv * t;
                    if !every_step {
                        set_bit(steps, self.pinv[lr as usize]);
                    }
                }
            }
        }
        // U solve in reverse order, in place on the pivot-row slots
        let mut visited = 0;
        for wi in (0..steps.len()).rev() {
            while steps[wi] != 0 {
                let b = 63 - steps[wi].leading_zeros();
                steps[wi] &= !(1u64 << b);
                visited += 1;
                let k = wi * 64 + b as usize;
                let pr = self.pivot_row[k] as usize;
                let x = w[pr] / self.u_diag[k];
                w[pr] = 0.0;
                let pos = self.pos_of_step[k];
                out[pos as usize] = x;
                if x != 0.0 {
                    set_bit(out_bits, pos);
                    for (uj, uv) in self.u_col(k) {
                        w[self.pivot_row[uj as usize] as usize] -= uv * x;
                        if !every_step {
                            set_bit(steps, uj);
                        }
                    }
                }
            }
        }
        visited
    }

    /// `out := B⁻ᵀ c` over the steps reachable from the ones flagged in
    /// `steps` (every step whose basis position holds a nonzero of `c` must
    /// be). Both passes pull — one dot product per visited step over the
    /// column storage, same terms in the same order as a full loop — and
    /// learn whom a nonzero result feeds from the row patterns. `c` is
    /// basis-position indexed; `s` is all-zero step-space scratch; `out`
    /// (original-row indexed) is written at the visited steps only, its
    /// nonzeros flagged in `out_bits`. `steps` ends empty, `s` nonzero
    /// exactly at the steps of the rows flagged. `every_step` as in
    /// [`ftran`](Lu::ftran); the row patterns are then not read. Returns the
    /// steps visited.
    fn btran(
        &self,
        c: &[f64],
        s: &mut [f64],
        steps: &mut [u64],
        every_step: bool,
        out: &mut [f64],
        out_bits: &mut [u64],
    ) -> u64 {
        // Uᵀ forward solve: s_k = (c[q_k] − Σ_{j<k} U_{jk} s_j) / d_k
        for wi in 0..steps.len() {
            let mut done = 0;
            while let Some(b) = next_up(steps[wi], &mut done) {
                let k = wi * 64 + b as usize;
                let mut acc = c[self.pos_of_step[k] as usize];
                for (uj, uv) in self.u_col(k) {
                    acc -= uv * s[uj as usize];
                }
                s[k] = acc / self.u_diag[k];
                if !every_step && s[k] != 0.0 {
                    for &later in &self.ut_step[self.ut_ptr[k]..self.ut_ptr[k + 1]] {
                        set_bit(steps, later);
                    }
                }
            }
        }
        // Lᵀ backward solve: t_k = s_k − Σ L_{jk} t_j (rows of lcol[k] pivot
        // at steps > k, already final when k is reached descending)
        let mut visited = 0;
        for wi in (0..steps.len()).rev() {
            while steps[wi] != 0 {
                let b = 63 - steps[wi].leading_zeros();
                steps[wi] &= !(1u64 << b);
                visited += 1;
                let k = wi * 64 + b as usize;
                let mut acc = s[k];
                for (lr, lv) in self.l_col(k) {
                    acc -= lv * s[self.pinv[lr as usize] as usize];
                }
                let row = self.pivot_row[k];
                out[row as usize] = acc;
                if acc != 0.0 {
                    s[k] = acc;
                    set_bit(out_bits, row);
                    if !every_step {
                        for &earlier in &self.lt_step[self.lt_ptr[k]..self.lt_ptr[k + 1]] {
                            set_bit(steps, earlier);
                        }
                    }
                } else {
                    s[k] = 0.0;
                }
            }
        }
        visited
    }
}

/// Sparse LU plus a product-form eta file. Each eta records one basis change
/// `E = I − (w − e_r) e_rᵀ / w_r` (basis-position space), so
/// `B⁻¹ = E_T ⋯ E_1 (LU)⁻¹`: ftran applies the LU solve then etas oldest →
/// newest; btran applies etas newest → oldest then the transposed LU solve.
pub(crate) struct SparseLuFactor {
    lu: Lu,
    /// Where the next factorization is built: swapped with `lu` when it
    /// succeeds, so a failed one never disturbs the committed one and no
    /// refactorization allocates once both have reached their size.
    spare: Lu,
    scratch: FactorScratch,
    eta_ptr: Vec<usize>,
    eta_pos: Vec<u32>,
    eta_val: Vec<f64>,
    eta_pivot_pos: Vec<u32>,
    eta_pivot_val: Vec<f64>,
    /// Accuracy latch: an update pivot fell below trust.
    tiny_pivot: bool,
    /// Cap on etas between refactorizations.
    max_etas: usize,
    /// Scratch, length `m`: the ftran right-hand side and the btran input
    /// after etas. All-zero between solves, like the three below.
    work: Vec<f64>,
    /// Scratch, length `m`: the btran step-space intermediate.
    steps: Vec<f64>,
    /// Scratch, one bit per elimination step: the steps a solve has yet to
    /// visit.
    step_bits: Vec<u64>,
    /// Scratch, one bit per output index: the nonzeros of the result.
    out_bits: Vec<u64>,
    /// Steps visited by `(ftran_sparse, btran_unit)` so far.
    visited: (u64, u64),
}

impl SparseLuFactor {
    fn identity(m: usize) -> SparseLuFactor {
        SparseLuFactor {
            lu: Lu::identity(m),
            spare: Lu::default(),
            scratch: FactorScratch::new(m),
            eta_ptr: vec![0],
            eta_pos: Vec::new(),
            eta_val: Vec::new(),
            eta_pivot_pos: Vec::new(),
            eta_pivot_val: Vec::new(),
            tiny_pivot: false,
            max_etas: 64,
            work: vec![0.0; m],
            steps: vec![0.0; m],
            step_bits: vec![0; m.div_ceil(64)],
            out_bits: vec![0; m.div_ceil(64)],
            visited: (0, 0),
        }
    }

    /// The factorization just built in `spare` becomes the committed one.
    fn commit(&mut self) {
        std::mem::swap(&mut self.lu, &mut self.spare);
        self.eta_ptr.clear();
        self.eta_ptr.push(0);
        self.eta_pos.clear();
        self.eta_val.clear();
        self.eta_pivot_pos.clear();
        self.eta_pivot_val.clear();
        self.tiny_pivot = false;
    }

    /// `out := B⁻¹ work` for the right-hand side scattered in `work`, whose
    /// pivoting steps are flagged in `step_bits` — or, with `every_step`, a
    /// dense one: the LU solve, then the eta file oldest first. An eta whose pivot slot is not flagged meets an
    /// exact zero there and is skipped; one that fires flags its fill.
    /// Leaves the nonzeros of `out` flagged in `out_bits`. Returns the
    /// steps visited.
    fn ftran_work(&mut self, every_step: bool, out: &mut [f64]) -> u64 {
        if every_step {
            set_all_bits(&mut self.step_bits, self.lu.m);
        }
        let bits = &mut self.out_bits;
        let visited = (self.lu).ftran(&mut self.work, &mut self.step_bits, every_step, out, bits);
        for e in 0..self.eta_pivot_pos.len() {
            let r = self.eta_pivot_pos[e];
            if !bit_is_set(bits, r) {
                continue;
            }
            let r = r as usize;
            let t = out[r] / self.eta_pivot_val[e];
            if t != 0.0 {
                let (lo, hi) = (self.eta_ptr[e], self.eta_ptr[e + 1]);
                for (&p, &wv) in self.eta_pos[lo..hi].iter().zip(&self.eta_val[lo..hi]) {
                    out[p as usize] -= wv * t;
                    set_bit(bits, p);
                }
            }
            out[r] = t;
        }
        visited
    }

    /// `out := B⁻ᵀ work`: the transposed eta file newest first — only the
    /// pivot slot of each changes, `c_r := (c_r − Σ w_j c_j) / w_r`, a dot
    /// product a zero cannot be skipped out of — then the transposed LU
    /// solve from the steps flagged in `step_bits`, which must cover the
    /// nonzeros of `work` and every eta pivot (`every_step` flags them all).
    /// Leaves the nonzeros of `out` flagged in `out_bits` and `work`, `steps`
    /// for the caller to zero. Returns the steps visited.
    fn btran_work(&mut self, every_step: bool, out: &mut [f64]) -> u64 {
        if every_step {
            set_all_bits(&mut self.step_bits, self.lu.m);
        }
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
        self.lu.btran(
            c,
            &mut self.steps,
            &mut self.step_bits,
            every_step,
            out,
            &mut self.out_bits,
        )
    }
}

impl Factorization for SparseLuFactor {
    fn refactorize(&mut self, mat: &CscMatrix, basis: &[usize]) -> Result<(), LpError> {
        self.spare.factor(mat, basis, None, &mut self.scratch)?;
        self.commit();
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
        self.spare
            .factor(mat, basis, Some(&mut deps), &mut self.scratch)?;
        if deps.is_empty() {
            self.commit();
            return Ok(Vec::new());
        }
        // Every skipped (dependent) position is re-covered by the unit
        // column of a row no pivot claimed. Unit columns on distinct
        // uncovered rows are independent of everything factored, so a strict
        // second pass must succeed.
        let first = &self.spare;
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
        self.spare.factor(mat, basis, None, &mut self.scratch)?;
        self.commit();
        Ok(replacements)
    }

    fn ftran_sparse(&mut self, rows: &[u32], vals: &[f64], out: &mut SolveVec) {
        out.clear();
        for (&r, &v) in rows.iter().zip(vals) {
            self.work[r as usize] = v;
            set_bit(&mut self.step_bits, self.lu.pinv[r as usize]);
        }
        self.visited.0 += self.ftran_work(false, &mut out.val);
        drain_bits(&mut self.out_bits, &mut out.nz);
    }

    fn ftran_dense(&mut self, a: &[f64], out: &mut [f64]) {
        self.work.copy_from_slice(a);
        self.ftran_work(true, out);
        self.out_bits.fill(0);
    }

    fn btran_dense(&mut self, c: &[f64], out: &mut [f64]) {
        self.work.copy_from_slice(c);
        self.btran_work(true, out);
        self.work.fill(0.0);
        self.steps.fill(0.0);
        self.out_bits.fill(0);
    }

    fn btran_unit(&mut self, r: usize, out: &mut SolveVec) {
        if !self.lu.btran_indexed {
            self.lu.index_for_btran();
        }
        out.clear();
        self.work[r] = 1.0;
        set_bit(&mut self.step_bits, self.lu.step_of_pos[r]);
        for &p in &self.eta_pivot_pos {
            set_bit(&mut self.step_bits, self.lu.step_of_pos[p as usize]);
        }
        self.visited.1 += self.btran_work(false, &mut out.val);
        drain_bits(&mut self.out_bits, &mut out.nz);
        for &row in &out.nz {
            self.steps[self.lu.pinv[row as usize] as usize] = 0.0;
        }
        self.work[r] = 0.0;
        for &p in &self.eta_pivot_pos {
            self.work[p as usize] = 0.0;
        }
    }

    fn update(&mut self, r: usize, w: &SolveVec) {
        let piv = w.val[r];
        debug_assert!(piv.abs() > 1e-12);
        if piv.abs() < 1e-7 {
            self.tiny_pivot = true;
        }
        for (i, v) in w.iter() {
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

    fn steps_visited(&self) -> (u64, u64) {
        self.visited
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::CsrView;
    use crate::standard::StandardForm;
    use crate::sweep_gen::{build, f0_shape, seeded};
    use crate::{LpProblem, RevisedSimplex};

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

    fn backends(m: usize) -> [Box<dyn Factorization>; 2] {
        [
            Box::new(DenseFactor::identity(m)),
            Box::new(SparseLuFactor::identity(m)),
        ]
    }

    /// `B⁻¹ A_j` into a fresh vector.
    fn ftran_col(f: &mut dyn Factorization, mat: &CscMatrix, j: usize) -> SolveVec {
        let (rows, vals) = mat.col(j);
        let mut x = SolveVec::zeros(mat.num_rows());
        f.ftran_sparse(rows, vals, &mut x);
        x
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
            let x = ftran_col(f, mat, j);
            assert!(
                residual(mat, basis, &x.val, j) < 1e-9,
                "ftran residual too large for col {j}"
            );
        }
        // btran_unit(r) gives row r of B⁻¹: B⁻¹ agrees with ftran on units
        let mut row = SolveVec::zeros(m);
        let mut img = SolveVec::zeros(m);
        for r in 0..m {
            f.btran_unit(r, &mut row);
            for c in 0..m {
                f.ftran_sparse(&[c as u32], &[1.0], &mut img);
                assert!(
                    (img.val[r] - row.val[c]).abs() < 1e-9,
                    "btran_unit disagrees with ftran at ({r},{c})"
                );
            }
        }
    }

    #[test]
    fn dense_and_sparse_agree_on_solves() {
        let mat = fixture();
        let basis = vec![0usize, 1, 2, 3];
        for mut f in backends(4) {
            check_backend(f.as_mut(), &mat, &basis);
        }
    }

    #[test]
    fn update_tracks_basis_change() {
        let mat = fixture();
        let mut basis = vec![4usize, 5, 6, 7]; // identity
        for mut f in backends(4) {
            f.refactorize(&mat, &basis).unwrap();
            // bring column 2 in at position 1 via update, then compare every
            // solve against a fresh refactorization of the new basis
            let w = ftran_col(f.as_mut(), &mat, 2);
            f.update(1, &w);
            basis[1] = 2;
            let mut fresh = SparseLuFactor::identity(4);
            fresh.refactorize(&mat, &basis).unwrap();
            for j in 0..8 {
                let a = ftran_col(f.as_mut(), &mat, j);
                let b = ftran_col(&mut fresh, &mat, j);
                for (x, y) in a.val.iter().zip(&b.val) {
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
        for mut f in backends(4) {
            let mut b = basis.clone();
            let mut may_use = |col: usize| !basis.contains(&col);
            let reps = f
                .refactorize_repair(&mat, &mut b, &basis0, &mut may_use)
                .expect("repairable");
            assert_eq!(reps.len(), 1, "exactly one dependent column");
            // repaired basis must now factorize strictly
            f.refactorize(&mat, &b).expect("repaired basis nonsingular");
        }
    }

    #[test]
    fn strict_refactorize_rejects_singular() {
        let mat = fixture();
        let basis = vec![0usize, 0, 2, 3];
        for mut f in backends(4) {
            assert!(f.refactorize(&mat, &basis).is_err());
        }
    }

    #[test]
    fn failed_refactorization_leaves_the_committed_one_intact() {
        let mat = fixture();
        for mut f in backends(4) {
            f.refactorize(&mat, &[0, 1, 2, 3]).unwrap();
            let before: Vec<_> = (0..8).map(|j| ftran_col(f.as_mut(), &mat, j).val).collect();
            assert!(f.refactorize(&mat, &[0, 0, 2, 3]).is_err());
            let after: Vec<_> = (0..8).map(|j| ftran_col(f.as_mut(), &mat, j).val).collect();
            assert_eq!(before, after);
        }
    }

    #[test]
    fn eta_fill_triggers_refactor_request() {
        let mat = fixture();
        let basis = vec![4usize, 5, 6, 7];
        let mut f = SparseLuFactor::identity(4);
        f.refactorize(&mat, &basis).unwrap();
        assert!(!f.wants_refactor());
        f.max_etas = 2;
        let image = |val: [f64; 4]| {
            let mut w = SolveVec::zeros(4);
            w.val.copy_from_slice(&val);
            w.relist();
            w
        };
        f.update(0, &image([2.0, 0.5, 0.0, 0.0]));
        assert!(!f.wants_refactor());
        f.update(1, &image([0.0, 4.0, 1.0, 0.0]));
        assert!(f.wants_refactor(), "eta cap reached");
    }

    // --- the hypersparse solves against the full loops they replaced -------

    /// `B⁻¹a` the way every ftran ran before the bitmap sweep: all `m` steps
    /// of `L`, all `m` of `U`, every eta.
    fn full_ftran(f: &SparseLuFactor, a: &[f64]) -> Vec<f64> {
        let lu = &f.lu;
        let mut w = a.to_vec();
        let mut out = vec![0.0; lu.m];
        for k in 0..lu.m {
            let t = w[lu.pivot_row[k] as usize];
            if t == 0.0 {
                continue;
            }
            for (lr, lv) in lu.l_col(k) {
                w[lr as usize] -= lv * t;
            }
        }
        for k in (0..lu.m).rev() {
            let pr = lu.pivot_row[k] as usize;
            let x = w[pr] / lu.u_diag[k];
            w[pr] = 0.0;
            out[lu.pos_of_step[k] as usize] = x;
            if x != 0.0 {
                for (uj, uv) in lu.u_col(k) {
                    w[lu.pivot_row[uj as usize] as usize] -= uv * x;
                }
            }
        }
        for e in 0..f.eta_pivot_pos.len() {
            let r = f.eta_pivot_pos[e] as usize;
            let t = out[r] / f.eta_pivot_val[e];
            if t != 0.0 {
                let (lo, hi) = (f.eta_ptr[e], f.eta_ptr[e + 1]);
                for (&p, &wv) in f.eta_pos[lo..hi].iter().zip(&f.eta_val[lo..hi]) {
                    out[p as usize] -= wv * t;
                }
            }
            out[r] = t;
        }
        out
    }

    /// `B⁻ᵀc` the way every btran ran before: every eta, then every stored
    /// entry of `U` and of `L`.
    fn full_btran(f: &SparseLuFactor, c: &[f64]) -> Vec<f64> {
        let lu = &f.lu;
        let mut c = c.to_vec();
        for e in (0..f.eta_pivot_pos.len()).rev() {
            let r = f.eta_pivot_pos[e] as usize;
            let mut acc = c[r];
            let (lo, hi) = (f.eta_ptr[e], f.eta_ptr[e + 1]);
            for (&p, &wv) in f.eta_pos[lo..hi].iter().zip(&f.eta_val[lo..hi]) {
                acc -= wv * c[p as usize];
            }
            c[r] = acc / f.eta_pivot_val[e];
        }
        let mut s = vec![0.0; lu.m];
        for k in 0..lu.m {
            let mut acc = c[lu.pos_of_step[k] as usize];
            for (uj, uv) in lu.u_col(k) {
                acc -= uv * s[uj as usize];
            }
            s[k] = acc / lu.u_diag[k];
        }
        for k in (0..lu.m).rev() {
            let mut acc = s[k];
            for (lr, lv) in lu.l_col(k) {
                acc -= lv * s[lu.pinv[lr as usize] as usize];
            }
            s[k] = acc;
        }
        let mut out = vec![0.0; lu.m];
        for k in 0..lu.m {
            out[lu.pivot_row[k] as usize] = s[k];
        }
        out
    }

    /// Same value to the bit, the sign of a zero aside.
    fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (*g == 0.0 && *w == 0.0),
                "{what}: entry {i} is {g:e}, the full loop gives {w:e}"
            );
        }
    }

    /// The list contract of a sparse solve's result.
    fn assert_listed(x: &SolveVec, what: &str) {
        assert!(
            x.nz.windows(2).all(|p| p[0] < p[1]),
            "{what}: list not strictly ascending"
        );
        for (i, &v) in x.val.iter().enumerate() {
            assert!(
                v == 0.0 || x.nz.binary_search(&(i as u32)).is_ok(),
                "{what}: nonzero entry {i} not listed"
            );
        }
    }

    /// Every scratch a solve borrows is handed back all-zero.
    fn assert_scratch_clean(f: &SparseLuFactor, what: &str) {
        assert!(f.work.iter().all(|v| v.to_bits() == 0), "{what}: work");
        assert!(f.steps.iter().all(|v| v.to_bits() == 0), "{what}: steps");
        assert!(f.step_bits.iter().all(|&w| w == 0), "{what}: step bitmap");
        assert!(f.out_bits.iter().all(|&w| w == 0), "{what}: output bitmap");
    }

    /// All four entry points against the full loops, on the factorization
    /// as it stands: every column and every unit row sparse, two dense
    /// right-hand sides each way, and a sparse solve straight after each
    /// dense one (stale scratch from the one would show in the other).
    fn check_all_solves(f: &mut SparseLuFactor, mat: &CscMatrix, label: &str) {
        let m = mat.num_rows();
        let column = |j: usize| {
            let mut a = vec![0.0; m];
            for (r, v) in mat.iter_col(j) {
                a[r] = v;
            }
            a
        };
        let unit = |r: usize| {
            let mut e = vec![0.0; m];
            e[r] = 1.0;
            e
        };
        let mut x = SolveVec::zeros(m);
        for j in 0..mat.n() {
            let what = format!("{label}: ftran_sparse of column {j}");
            let (rows, vals) = mat.col(j);
            let want = full_ftran(f, &column(j));
            f.ftran_sparse(rows, vals, &mut x);
            assert_same_bits(&x.val, &want, &what);
            assert_listed(&x, &what);
            assert_scratch_clean(f, &what);
        }
        for r in 0..m {
            let what = format!("{label}: btran_unit of position {r}");
            let want = full_btran(f, &unit(r));
            f.btran_unit(r, &mut x);
            assert_same_bits(&x.val, &want, &what);
            assert_listed(&x, &what);
            assert_scratch_clean(f, &what);
        }
        // a full right-hand side, and one with two entries in a hundred
        let mut out = vec![f64::NAN; m];
        for stride in [1, 47] {
            let dense_rhs: Vec<f64> = (0..m)
                .map(|i| match i % stride {
                    0 => (i as f64 * 0.37).fract() - 0.4,
                    _ => 0.0,
                })
                .collect();
            let what = format!("{label}: ftran_dense, stride {stride}");
            let want = full_ftran(f, &dense_rhs);
            f.ftran_dense(&dense_rhs, &mut out);
            assert_same_bits(&out, &want, &what);
            assert_scratch_clean(f, &what);
            let want = full_btran(f, &unit(m / 2));
            f.btran_unit(m / 2, &mut x);
            assert_same_bits(&x.val, &want, "btran_unit after ftran_dense");

            let what = format!("{label}: btran_dense, stride {stride}");
            let want = full_btran(f, &dense_rhs);
            f.btran_dense(&dense_rhs, &mut out);
            assert_same_bits(&out, &want, &what);
            assert_scratch_clean(f, &what);
            let (rows, vals) = mat.col(0);
            let want = full_ftran(f, &column(0));
            f.ftran_sparse(rows, vals, &mut x);
            assert_same_bits(&x.val, &want, "ftran_sparse after btran_dense");
            assert_listed(&x, "ftran_sparse after btran_dense");
        }
    }

    /// The standard form of `lp` and the optimal basis of its cold solve.
    fn optimal_basis(lp: &LpProblem) -> (StandardForm, Vec<usize>) {
        let sol = RevisedSimplex::new().solve_with_basis(lp, None).unwrap();
        let basis = sol.basis().unwrap().basic.clone();
        (StandardForm::build(lp), basis)
    }

    /// Bring nonbasic columns in by `update` until `count` etas are on file,
    /// each at the position where its ftran image is largest.
    fn apply_etas(f: &mut SparseLuFactor, mat: &CscMatrix, basis: &mut [usize], count: usize) {
        let mut next = 0;
        while f.eta_pivot_pos.len() < count {
            let j = (next * 7919) % mat.n();
            next += 1;
            if basis.contains(&j) {
                continue;
            }
            let w = ftran_col(f, mat, j);
            let r = (0..w.val.len())
                .max_by(|&a, &b| w.val[a].abs().total_cmp(&w.val[b].abs()))
                .unwrap();
            if w.val[r].abs() < 1e-3 {
                continue;
            }
            f.update(r, &w);
            basis[r] = j;
        }
    }

    #[test]
    fn hypersparse_solves_equal_the_full_loops_bit_for_bit() {
        let models = [
            ("sweep 30x6", build(&seeded(5, 30, 6)).lp),
            ("sweep 50x3", build(&seeded(6, 50, 3)).lp),
            ("F0 shape 138", f0_shape(7, 6, 14, 5, 4)),
        ];
        for (name, lp) in &models {
            let (sf, mut basis) = optimal_basis(lp);
            let mut f = SparseLuFactor::identity(sf.m);
            check_all_solves(&mut f, &sf.cols, &format!("{name}, identity"));
            f.refactorize(&sf.cols, &basis).unwrap();
            for etas in [0, 1, 17, 64] {
                apply_etas(&mut f, &sf.cols, &mut basis, etas);
                check_all_solves(&mut f, &sf.cols, &format!("{name}, {etas} etas"));
            }
            // and a factorization that is not the first to use its buffers
            f.refactorize(&sf.cols, &basis).unwrap();
            check_all_solves(&mut f, &sf.cols, &format!("{name}, refactorized"));
            assert!(f.steps_visited().0 > 0 && f.steps_visited().1 > 0);
        }
    }

    #[test]
    fn dense_backend_meets_the_list_contract() {
        let (sf, basis) = optimal_basis(&build(&seeded(5, 8, 4)).lp);
        let mut dense = DenseFactor::identity(sf.m);
        let mut sparse = SparseLuFactor::identity(sf.m);
        dense.refactorize(&sf.cols, &basis).unwrap();
        sparse.refactorize(&sf.cols, &basis).unwrap();
        let w = ftran_col(&mut dense, &sf.cols, 0);
        dense.update(1, &w);
        sparse.update(1, &w);
        let (mut a, mut b) = (SolveVec::zeros(sf.m), SolveVec::zeros(sf.m));
        let close = |a: &SolveVec, b: &SolveVec| {
            (a.val.iter().zip(&b.val)).all(|(x, y)| (x - y).abs() < 1e-9)
        };
        for j in 0..sf.n {
            let (rows, vals) = sf.cols.col(j);
            dense.ftran_sparse(rows, vals, &mut a);
            sparse.ftran_sparse(rows, vals, &mut b);
            assert_listed(&a, "dense ftran_sparse");
            assert!(close(&a, &b), "ftran of column {j}");
        }
        for r in 0..sf.m {
            dense.btran_unit(r, &mut a);
            sparse.btran_unit(r, &mut b);
            assert_listed(&a, "dense btran_unit");
            assert!(close(&a, &b), "btran of position {r}");
        }
    }

    #[test]
    fn refactorizations_reuse_their_buffers() {
        let (sf, basis) = optimal_basis(&f0_shape(7, 6, 14, 5, 4));
        let mut f = SparseLuFactor::identity(sf.m);
        // two factorizations size the committed and the spare `Lu`
        f.refactorize(&sf.cols, &basis).unwrap();
        f.refactorize(&sf.cols, &basis).unwrap();
        let buffers = |f: &SparseLuFactor| {
            let of = |lu: &Lu| [lu.u_val.as_ptr(), lu.l_val.as_ptr()];
            let mut all = [of(&f.lu), of(&f.spare)];
            all.sort();
            (all, f.scratch.w.as_ptr(), f.scratch.order.as_ptr())
        };
        assert!(f.lu.u_val.len() + f.lu.l_val.len() > 0, "a basis with fill");
        let before = buffers(&f);
        let mut b = basis.clone();
        for _ in 0..5 {
            f.refactorize(&sf.cols, &basis).unwrap();
            f.refactorize_repair(&sf.cols, &mut b, &sf.basis0, &mut |_| true)
                .unwrap();
            assert_eq!(buffers(&f), before);
        }
        assert_eq!(b, basis, "a nonsingular basis needs no repair");
    }
}
