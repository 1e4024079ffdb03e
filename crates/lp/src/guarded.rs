//! Guardrailed solving: [`RevisedSimplex`] under an iteration/time budget,
//! with automatic fallback to the slower-but-sturdier [`DenseSimplex`].
//!
//! The chaos engine can hand the provisioning pipeline degenerate
//! formulations (a scenario that strands a country, near-singular demand
//! splits). The revised engine is the right production choice, but when it
//! hits its budget or a numerical wall mid-incident, the controller must
//! degrade — not spin. [`GuardedSimplex`] encodes that policy as a
//! [`Solver`] so callers pick it up with one type swap.

use std::time::Duration;

use crate::dense::DenseSimplex;
use crate::metrics::lp_metrics;
use crate::problem::{Basis, LpError, LpProblem, Solution, SolveRung, Solver};
use crate::revised::RevisedSimplex;
use crate::standard::PreparedProblem;

/// A [`Solver`] that tries [`RevisedSimplex`] under a budget and falls back
/// to [`DenseSimplex`] when the primary engine gives up for a *recoverable*
/// reason ([`LpError::IterationLimit`], [`LpError::TimeLimit`], or a
/// numerical [`LpError::BadModel`]). Genuine infeasibility/unboundedness is
/// propagated — the fallback could only reconfirm it, slowly.
#[derive(Clone, Debug)]
pub struct GuardedSimplex {
    /// Primary engine, including its iteration/time budget.
    pub primary: RevisedSimplex,
    /// Disable to turn this into a plain budgeted `RevisedSimplex`.
    pub fallback_to_dense: bool,
}

/// Largest model, in `rows × cols` of the [`LpProblem`], the dense fallback
/// takes on. The tableau is dense in both dimensions (and grows a row per
/// bounded variable), so past this it neither fits in memory nor finishes
/// inside any budget the primary just exhausted: the APAC scenario sweep
/// (671 × 1722) is well under, the planet `F₀` model (3214 × 27772, a
/// multi-GB tableau) well over. An over-size model keeps the primary's error.
const DENSE_MAX_CELLS: usize = 1 << 22;

impl Default for GuardedSimplex {
    fn default() -> Self {
        GuardedSimplex {
            primary: RevisedSimplex::default(),
            fallback_to_dense: true,
        }
    }
}

impl GuardedSimplex {
    /// Guarded engine with default budgets (automatic iteration cap, no
    /// time budget) and dense fallback.
    pub fn new() -> Self {
        Self::default()
    }

    /// Guarded engine whose primary carries a wall-clock budget.
    pub fn with_time_budget(budget: Duration) -> Self {
        GuardedSimplex {
            primary: RevisedSimplex::with_time_budget(budget),
            ..Self::default()
        }
    }

    fn recoverable(e: &LpError) -> bool {
        matches!(
            e,
            LpError::IterationLimit | LpError::TimeLimit | LpError::BadModel(_)
        )
    }

    /// Solve `lp`, optionally warm-starting the primary from `warm`. The
    /// full ladder, stopping at the first rung that succeeds:
    ///
    /// 1. primary, warm-started (skipped when `warm` is `None` — an
    ///    unusable basis downgrades to a cold start inside the primary);
    /// 2. primary, cold — only when rung 1 actually warm-started and failed
    ///    for a *recoverable* reason (a stale basis can send the simplex on
    ///    a long degenerate walk that a cold phase-1 avoids);
    /// 3. dense tableau engine, subject to `fallback_to_dense` and the
    ///    model fitting a dense tableau (`rows × cols` at most 2²²).
    ///
    /// The winning rung is recorded in [`crate::SolveStats::rung`] and the ladder
    /// metrics.
    pub fn solve_with_basis(
        &self,
        lp: &LpProblem,
        warm: Option<&Basis>,
    ) -> Result<Solution, LpError> {
        self.solve_ladder(lp, None, warm)
    }

    /// Like [`solve_with_basis`](Self::solve_with_basis) but reuses a cached
    /// `LpProblem → standard form` conversion for the primary engine (the
    /// dense fallback works from `lp` directly).
    pub fn solve_prepared(
        &self,
        lp: &LpProblem,
        prep: &PreparedProblem,
        warm: Option<&Basis>,
    ) -> Result<Solution, LpError> {
        self.solve_ladder(lp, Some(prep), warm)
    }

    fn solve_ladder(
        &self,
        lp: &LpProblem,
        prep: Option<&PreparedProblem>,
        warm: Option<&Basis>,
    ) -> Result<Solution, LpError> {
        let primary = |warm: Option<&Basis>| match prep {
            Some(p) => self.primary.solve_prepared(lp, p, warm),
            None => self.primary.solve_with_basis(lp, warm),
        };
        let first = primary(warm);
        let err = match first {
            Ok(s) => return Ok(s),
            Err(e) => e,
        };
        // Retry cold only when a warm start was actually attempted — a cold
        // failure would just repeat itself.
        let err = if warm.is_some() && Self::recoverable(&err) {
            lp_metrics().record_cold_retry();
            match primary(None) {
                Ok(mut s) => {
                    s.stats.rung = SolveRung::ColdRetry;
                    return Ok(s);
                }
                Err(e) => e,
            }
        } else {
            err
        };
        let cells = lp.num_constraints().saturating_mul(lp.num_vars());
        if self.fallback_to_dense && Self::recoverable(&err) && cells <= DENSE_MAX_CELLS {
            lp_metrics().record_fallback(&err);
            let mut s = DenseSimplex::new().solve(lp)?;
            s.stats.rung = SolveRung::DenseFallback;
            return Ok(s);
        }
        Err(err)
    }
}

impl Solver for GuardedSimplex {
    fn solve(&self, lp: &LpProblem) -> Result<Solution, LpError> {
        self.solve_with_basis(lp, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A model large enough that a one-iteration budget cannot finish it.
    fn transport_lp() -> LpProblem {
        transport(6, 7)
    }

    fn transport(ns: usize, nd: usize) -> LpProblem {
        let mut lp = LpProblem::new();
        let mut xs = Vec::new();
        for i in 0..ns {
            for j in 0..nd {
                let cost = ((i * 5 + j * 11) % 9 + 1) as f64;
                xs.push(lp.add_nonneg(format!("x{i}_{j}"), cost));
            }
        }
        let supply = 7.0;
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
    fn time_budget_aborts_with_typed_error() {
        let lp = transport_lp();
        let solver = RevisedSimplex::with_time_budget(Duration::ZERO);
        assert_eq!(solver.solve(&lp).unwrap_err(), LpError::TimeLimit);
    }

    #[test]
    fn guarded_falls_back_on_iteration_limit() {
        let lp = transport_lp();
        let starved = RevisedSimplex {
            max_iterations: 1,
            ..RevisedSimplex::default()
        };
        // the starved primary alone fails …
        assert_eq!(starved.solve(&lp).unwrap_err(), LpError::IterationLimit);
        // … but guarded recovers via the dense engine and matches the
        // unconstrained optimum
        let guarded = GuardedSimplex {
            primary: starved,
            ..GuardedSimplex::default()
        };
        let s = guarded.solve(&lp).expect("dense fallback solves");
        let reference = RevisedSimplex::new().solve(&lp).unwrap();
        assert!((s.objective() - reference.objective()).abs() < 1e-6);
    }

    #[test]
    fn guarded_falls_back_on_time_limit() {
        let lp = transport_lp();
        let guarded = GuardedSimplex::with_time_budget(Duration::ZERO);
        let s = guarded.solve(&lp).expect("dense fallback solves");
        assert!(lp.max_violation(s.values()) < 1e-7);
    }

    #[test]
    fn infeasible_is_propagated_not_retried() {
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", 1.0, 0.0, 1.0);
        lp.add_ge(vec![(x, 1.0)], 2.0);
        assert_eq!(
            GuardedSimplex::new().solve(&lp).unwrap_err(),
            LpError::Infeasible
        );
    }

    #[test]
    fn oversize_model_skips_fallback() {
        // 350 rows × 30,000 vars: too many cells for a dense tableau, so the
        // starved primary's error comes back instead of a fallback attempt
        let lp = transport(150, 200);
        assert!(lp.num_constraints() * lp.num_vars() > DENSE_MAX_CELLS);
        let guarded = GuardedSimplex {
            primary: RevisedSimplex {
                max_iterations: 1,
                ..RevisedSimplex::default()
            },
            fallback_to_dense: true,
        };
        assert_eq!(guarded.solve(&lp).unwrap_err(), LpError::IterationLimit);
    }

    #[test]
    fn fallback_disabled_propagates() {
        let lp = transport_lp();
        let guarded = GuardedSimplex {
            primary: RevisedSimplex::with_time_budget(Duration::ZERO),
            fallback_to_dense: false,
        };
        assert_eq!(guarded.solve(&lp).unwrap_err(), LpError::TimeLimit);
    }
}
