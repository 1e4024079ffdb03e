//! The one ratio test both simplex engines share.
//!
//! `dense.rs` and `revised.rs` used to carry separate copies with slightly
//! different tie-breaking, which let the [`crate::GuardedSimplex`] fallback
//! rung walk a different pivot path than the primary on degenerate
//! instances. This module is the single implementation: a two-pass
//! Harris-style test (find the tightest limit, then choose among the
//! near-ties) with an optional Bland mode that picks the smallest basis
//! column instead of the numerically largest pivot.

/// One row that limits the entering step.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RatioCandidate {
    /// Basis position of the limiting row.
    pub row: usize,
    /// Step length at which this row's variable hits its bound.
    pub limit: f64,
    /// |pivot element| — the stability tie-breaker.
    pub pivot_abs: f64,
    /// Column currently basic in this row — the Bland tie-breaker.
    pub basis_col: usize,
    /// Whether the leaving variable exits at its upper bound.
    pub to_upper: bool,
}

/// Outcome of the ratio test.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum RatioChoice {
    /// No basic variable limits the step before the entering variable's own
    /// bound: flip the entering variable to its other bound (step length
    /// attached). Only reachable when `bound_flip_t` is finite.
    BoundFlip(f64),
    /// Pivot: the variable basic in `row` leaves (at its upper bound when
    /// `to_upper`), after a step of `t`.
    Leave { row: usize, to_upper: bool, t: f64 },
    /// Nothing limits the step — the LP is unbounded in this direction.
    Unbounded,
}

/// Two-pass Harris ratio test over `cands`, with the entering variable's own
/// bound-flip step `bound_flip_t` (pass `f64::INFINITY` when the entering
/// variable has no finite opposite bound, as the dense engine does).
///
/// Pass 1 finds the minimum limit `t_min`; pass 2 picks, among candidates
/// within `tie_tol` of it, the smallest `basis_col` under `bland` (the
/// anti-cycling guarantee) or the largest `pivot_abs` otherwise (numerical
/// stability on degenerate ties).
pub(crate) fn harris_ratio(
    cands: &[RatioCandidate],
    bound_flip_t: f64,
    eps: f64,
    bland: bool,
) -> RatioChoice {
    let mut t_min = bound_flip_t;
    for c in cands {
        if c.limit < t_min {
            t_min = c.limit;
        }
    }
    if !t_min.is_finite() {
        return RatioChoice::Unbounded;
    }
    // Degenerate bases produce clusters of near-identical limits; treating
    // them as exact ties lets the stability/Bland criterion pick the pivot.
    let tie_tol = eps * 10.0 * (1.0 + t_min.abs());
    let mut best: Option<&RatioCandidate> = None;
    for c in cands {
        if c.limit > t_min + tie_tol {
            continue;
        }
        best = Some(match best {
            None => c,
            Some(b) => {
                let wins = if bland {
                    c.basis_col < b.basis_col
                } else {
                    c.pivot_abs > b.pivot_abs
                };
                if wins {
                    c
                } else {
                    b
                }
            }
        });
    }
    match best {
        Some(b) => RatioChoice::Leave {
            row: b.row,
            to_upper: b.to_upper,
            t: t_min.max(0.0),
        },
        None => RatioChoice::BoundFlip(bound_flip_t),
    }
}

/// Harris's bound-relaxed ratio test: let every basic variable overshoot its
/// bound by up to `delta`, take the longest step `t_max` that allows, and
/// among the rows that reach their bound within it leave on the one with the
/// largest pivot — after a step of that row's own (unrelaxed) limit, so no
/// variable ends more than `delta` outside. The revised engine falls back to
/// this when the pivot [`harris_ratio`] settled on is too small to trust
/// even under a fresh factorization; with `delta = 0` it is the plain
/// min-ratio test with the largest-pivot tie-break.
pub(crate) fn relaxed_ratio(
    cands: &[RatioCandidate],
    bound_flip_t: f64,
    delta: f64,
) -> RatioChoice {
    let t_max = cands
        .iter()
        .fold(bound_flip_t, |t, c| t.min(c.limit + delta / c.pivot_abs));
    if !t_max.is_finite() {
        return RatioChoice::Unbounded;
    }
    let best = cands
        .iter()
        .filter(|c| c.limit <= t_max)
        .max_by(|a, b| a.pivot_abs.total_cmp(&b.pivot_abs));
    match best {
        Some(b) => RatioChoice::Leave {
            row: b.row,
            to_upper: b.to_upper,
            t: b.limit.max(0.0),
        },
        None => RatioChoice::BoundFlip(bound_flip_t),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(row: usize, limit: f64, pivot_abs: f64, basis_col: usize) -> RatioCandidate {
        RatioCandidate {
            row,
            limit,
            pivot_abs,
            basis_col,
            to_upper: false,
        }
    }

    #[test]
    fn picks_tightest_limit() {
        let cands = [cand(0, 5.0, 1.0, 10), cand(1, 2.0, 1.0, 11)];
        match harris_ratio(&cands, f64::INFINITY, 1e-9, false) {
            RatioChoice::Leave { row, t, .. } => {
                assert_eq!(row, 1);
                assert!((t - 2.0).abs() < 1e-12);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn tie_prefers_largest_pivot() {
        let cands = [cand(0, 1.0, 0.1, 10), cand(1, 1.0, 5.0, 11)];
        match harris_ratio(&cands, f64::INFINITY, 1e-9, false) {
            RatioChoice::Leave { row, .. } => assert_eq!(row, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bland_tie_prefers_smallest_basis_col() {
        let cands = [cand(0, 1.0, 0.1, 10), cand(1, 1.0, 5.0, 11)];
        match harris_ratio(&cands, f64::INFINITY, 1e-9, true) {
            RatioChoice::Leave { row, .. } => assert_eq!(row, 0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bound_flip_when_own_bound_is_tightest() {
        let cands = [cand(0, 5.0, 1.0, 10)];
        assert_eq!(
            harris_ratio(&cands, 2.0, 1e-9, false),
            RatioChoice::BoundFlip(2.0)
        );
    }

    #[test]
    fn unbounded_when_nothing_limits() {
        assert_eq!(
            harris_ratio(&[], f64::INFINITY, 1e-9, false),
            RatioChoice::Unbounded
        );
    }

    #[test]
    fn degenerate_step_clamps_to_zero() {
        let cands = [cand(0, -1e-12, 1.0, 10)];
        match harris_ratio(&cands, f64::INFINITY, 1e-9, false) {
            RatioChoice::Leave { t, .. } => assert_eq!(t, 0.0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn relaxation_trades_feasibility_for_a_bigger_pivot() {
        // row 0 binds first but on a pivot of 1e-9; row 1 binds a hair later
        // on a pivot of 2: within delta of row 0's bound, so it wins
        let cands = [
            cand(0, 0.0, 1e-9, 10),
            cand(1, 1e-8, 2.0, 11),
            cand(2, 5.0, 9.0, 12),
        ];
        match relaxed_ratio(&cands, f64::INFINITY, 1e-7) {
            RatioChoice::Leave { row, t, .. } => {
                assert_eq!(row, 1);
                assert_eq!(t, 1e-8);
            }
            other => panic!("unexpected {other:?}"),
        }
        // without relaxation only the binding row qualifies
        match relaxed_ratio(&cands, f64::INFINITY, 0.0) {
            RatioChoice::Leave { row, .. } => assert_eq!(row, 0),
            other => panic!("unexpected {other:?}"),
        }
        // the entering variable's own bound still caps the step
        assert_eq!(
            relaxed_ratio(&cands[2..], 2.0, 1e-7),
            RatioChoice::BoundFlip(2.0)
        );
        assert_eq!(
            relaxed_ratio(&[], f64::INFINITY, 1e-7),
            RatioChoice::Unbounded
        );
    }
}
