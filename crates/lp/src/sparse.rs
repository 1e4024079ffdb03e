//! Compressed sparse column (CSC) storage for the standard-form constraint
//! matrix, plus a row-major (CSR) transpose view for the simplex pivot-row
//! kernel, which walks the few rows in the support of `B⁻ᵀe_r`.
//!
//! The provisioning LPs are ~0.2% dense: storing columns as contiguous
//! `(row, value)` arrays instead of one `Vec` per column keeps pricing and
//! ftran traffic on a few cache lines per column and gives the sparse LU
//! factorization ([`crate::factor`]) a zero-copy view of basis columns.

/// Column-compressed sparse matrix. Row indices within a column are strictly
/// increasing; `col_ptr` has one entry per column plus a trailing total.
#[derive(Clone, Debug)]
pub(crate) struct CscMatrix {
    /// Number of rows.
    m: usize,
    /// `col_ptr[j]..col_ptr[j+1]` delimits column `j` in `row_ix`/`vals`.
    col_ptr: Vec<usize>,
    row_ix: Vec<u32>,
    vals: Vec<f64>,
}

impl CscMatrix {
    /// Empty matrix with `m` rows and no columns.
    pub fn new(m: usize) -> CscMatrix {
        CscMatrix {
            m,
            col_ptr: vec![0],
            row_ix: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.m
    }

    /// Number of columns.
    pub fn n(&self) -> usize {
        self.col_ptr.len() - 1
    }

    /// Total stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.row_ix.len()
    }

    /// Nonzeros in column `j`.
    pub fn col_nnz(&self, j: usize) -> usize {
        self.col_ptr[j + 1] - self.col_ptr[j]
    }

    /// Column `j` as parallel `(rows, values)` slices.
    pub fn col(&self, j: usize) -> (&[u32], &[f64]) {
        let (lo, hi) = (self.col_ptr[j], self.col_ptr[j + 1]);
        (&self.row_ix[lo..hi], &self.vals[lo..hi])
    }

    /// Column `j` as an `(row, value)` iterator (the ergonomic form for the
    /// engines' per-entry loops).
    pub fn iter_col(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (rows, vals) = self.col(j);
        rows.iter().zip(vals).map(|(&r, &v)| (r as usize, v))
    }

    /// Rebuild the matrix as the `n`-column transpose of `rows`, dropping
    /// every previously stored column but keeping every allocation. Entries
    /// within each column come out in ascending row order because the rows
    /// are scattered in order.
    pub fn assemble_from_rows(&mut self, n: usize, rows: &CsrView) {
        self.m = rows.num_rows();
        // column starts, by counting
        self.col_ptr.clear();
        self.col_ptr.resize(n + 1, 0);
        for &c in &rows.col_ix {
            self.col_ptr[c as usize + 1] += 1;
        }
        for j in 0..n {
            self.col_ptr[j + 1] += self.col_ptr[j];
        }
        let nnz = rows.col_ix.len();
        self.row_ix.clear();
        self.row_ix.resize(nnz, 0);
        self.vals.clear();
        self.vals.resize(nnz, 0.0);
        // scatter with each column's start as its cursor, which leaves every
        // start at its column's end — the next column's start — so shift back
        for i in 0..self.m {
            let (cols, vs) = rows.row(i);
            for (&c, &v) in cols.iter().zip(vs) {
                let k = self.col_ptr[c as usize];
                self.col_ptr[c as usize] += 1;
                self.row_ix[k] = i as u32;
                self.vals[k] = v;
            }
        }
        self.col_ptr.copy_within(0..n, 1);
        self.col_ptr[0] = 0;
    }
}

/// Row-major companion of a [`CscMatrix`], used to enumerate the nonzero
/// columns of a handful of rows (the support of a simplex pivot row). The
/// standard form fills it row by row as it maps the user's constraints and
/// derives the columns from it, so the two never disagree.
#[derive(Clone, Debug)]
pub(crate) struct CsrView {
    /// `row_ptr[i]..row_ptr[i+1]` delimits row `i`; one entry per finished
    /// row plus the leading zero.
    row_ptr: Vec<usize>,
    col_ix: Vec<u32>,
    vals: Vec<f64>,
}

impl CsrView {
    /// View with no rows.
    pub fn new() -> CsrView {
        CsrView {
            row_ptr: vec![0],
            col_ix: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Drop every row, keeping every allocation.
    pub fn clear(&mut self) {
        self.row_ptr.clear();
        self.row_ptr.push(0);
        self.col_ix.clear();
        self.vals.clear();
    }

    /// Append an entry to the row being filled. Callers push a row's columns
    /// in ascending order.
    pub fn push(&mut self, col: usize, val: f64) {
        self.col_ix.push(col as u32);
        self.vals.push(val);
    }

    /// Finish the row being filled.
    pub fn end_row(&mut self) {
        self.row_ptr.push(self.col_ix.len());
    }

    /// Give back the spare capacity row-by-row filling left behind.
    pub fn shrink_to_fit(&mut self) {
        self.row_ptr.shrink_to_fit();
        self.col_ix.shrink_to_fit();
        self.vals.shrink_to_fit();
    }

    /// Number of finished rows.
    pub fn num_rows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Row `i` as parallel `(columns, values)` slices.
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        (&self.col_ix[lo..hi], &self.vals[lo..hi])
    }
}

#[cfg(test)]
impl CsrView {
    /// View of explicit `(column, value)` rows (test fixtures).
    pub fn from_rows(rows: &[Vec<(usize, f64)>]) -> CsrView {
        let mut csr = CsrView::new();
        for row in rows {
            for &(c, v) in row {
                csr.push(c, v);
            }
            csr.end_row();
        }
        csr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rows() -> CsrView {
        // rows: r0 = [2 @c0, 1 @c1], r1 = [3 @c1, -1 @c2], r2 = [4 @c0]
        CsrView::from_rows(&[
            vec![(0, 2.0), (1, 1.0)],
            vec![(1, 3.0), (2, -1.0)],
            vec![(0, 4.0)],
        ])
    }

    fn sample() -> CscMatrix {
        let mut m = CscMatrix::new(3);
        m.assemble_from_rows(3, &sample_rows());
        m
    }

    #[test]
    fn assemble_scatters_by_column_in_row_order() {
        let m = sample();
        assert_eq!((m.num_rows(), m.n(), m.nnz()), (3, 3, 5));
        assert_eq!(m.iter_col(0).collect::<Vec<_>>(), vec![(0, 2.0), (2, 4.0)]);
        assert_eq!(m.iter_col(1).collect::<Vec<_>>(), vec![(0, 1.0), (1, 3.0)]);
        assert_eq!(m.iter_col(2).collect::<Vec<_>>(), vec![(1, -1.0)]);
        assert_eq!(m.col_nnz(2), 1);
    }

    #[test]
    fn reassembly_reuses_buffers_and_replaces_contents() {
        let mut m = sample();
        let rows = CsrView::from_rows(&[vec![(0, 5.0)], vec![], vec![(0, -1.0)]]);
        m.assemble_from_rows(2, &rows);
        assert_eq!(m.n(), 2);
        assert_eq!(m.iter_col(0).collect::<Vec<_>>(), vec![(0, 5.0), (2, -1.0)]);
        assert_eq!(m.col_nnz(1), 0);
    }

    #[test]
    fn csr_view_fills_row_by_row_and_clears() {
        let mut csr = sample_rows();
        assert_eq!(csr.num_rows(), 3);
        assert_eq!(csr.row(0), (&[0u32, 1][..], &[2.0, 1.0][..]));
        assert_eq!(csr.row(2), (&[0u32][..], &[4.0][..]));
        csr.clear();
        assert_eq!(csr.num_rows(), 0);
        csr.end_row();
        csr.push(0, 7.0);
        csr.end_row();
        assert_eq!(csr.row(0).0, &[] as &[u32]);
        assert_eq!(csr.row(1), (&[0u32][..], &[7.0][..]));
    }
}
