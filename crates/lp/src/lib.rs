//! # sb-lp — linear programming for the Switchboard reproduction
//!
//! A self-contained LP toolkit: model a problem with [`LpProblem`], then solve
//! it with one of two engines:
//!
//! * [`DenseSimplex`] — two-phase tableau simplex; simple, used as the test
//!   oracle and for small models;
//! * [`RevisedSimplex`] — revised simplex with implicit variable bounds and a
//!   maintained basis inverse; the engine used by the Switchboard
//!   provisioning and allocation LPs (thousands of rows).
//!
//! Both engines minimize; to maximize, negate the objective.
//!
//! ```
//! use sb_lp::{LpProblem, RevisedSimplex, Solver};
//!
//! // minimize total peak capacity for two sites sharing demand 10
//! let mut lp = LpProblem::new();
//! let p1 = lp.add_nonneg("peak_a", 1.0);
//! let p2 = lp.add_nonneg("peak_b", 1.0);
//! let sa = lp.add_var("share_a", 0.0, 0.0, 10.0);
//! let sb = lp.add_var("share_b", 0.0, 0.0, 10.0);
//! lp.add_eq(vec![(sa, 1.0), (sb, 1.0)], 10.0);
//! lp.add_le(vec![(sa, 1.0), (p1, -1.0)], 0.0);
//! lp.add_le(vec![(sb, 1.0), (p2, -1.0)], 0.0);
//! let sol = RevisedSimplex::new().solve(&lp).unwrap();
//! assert!((sol.objective() - 10.0).abs() < 1e-7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dense;
mod factor;
mod guarded;
mod metrics;
mod problem;
mod ratio;
mod revised;
mod sparse;
mod standard;

// The unit tests drive the same generated models as
// `tests/proptest_warm_start.rs`; the generator names this crate by its
// external name.
#[cfg(test)]
extern crate self as sb_lp;
#[cfg(test)]
#[path = "../tests/sweep_gen/mod.rs"]
mod sweep_gen;

pub use dense::DenseSimplex;
pub use factor::FactorKind;
pub use guarded::GuardedSimplex;
pub use problem::{
    Basis, Constraint, IterationTimes, LpError, LpProblem, Relation, Solution, SolveRung,
    SolveStats, Solver, Var, VarStatus,
};
pub use revised::{Pricing, RevisedSimplex};
pub use standard::{PatchOutcome, PreparedProblem};
