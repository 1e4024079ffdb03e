//! The pivot path is part of the contract. A solve optimisation in sb-lp may
//! skip zeros, never reorder a sum (DESIGN.md, sb-lp), so every cold solve
//! takes exactly the pivots it took before: iteration count, refactorization
//! count and the bits of the objective are pinned here on three seeded
//! sweep LPs and the APAC `F₀` shape, under Dantzig and devex pricing. This
//! is the cheap, debug-build form of `scripts/check.sh`'s planet gate
//! (`"lp_iterations": 8452`); a deliberate arithmetic change updates both in
//! the same PR.

mod sweep_gen;

use sb_lp::{LpProblem, RevisedSimplex};
use sweep_gen::{build, f0_shape, seeded};

/// `(iterations, refactorizations, objective bits)` of a cold solve.
fn path(lp: &LpProblem, solver: &RevisedSimplex) -> (u64, u64, u64) {
    let s = solver.solve_with_basis(lp, None).expect("feasible");
    (
        s.iterations(),
        s.stats().refactorizations,
        s.objective().to_bits(),
    )
}

#[test]
fn cold_solves_take_the_recorded_pivots() {
    let models = [
        ("sweep 24x5", build(&seeded(1, 24, 5)).lp),
        ("sweep 48x6", build(&seeded(2, 48, 6)).lp),
        ("sweep 96x4", build(&seeded(3, 96, 4)).lp),
        ("F0 shape 456", f0_shape(42, 12, 26, 6, 6)),
    ];
    let solvers = [
        ("dantzig", RevisedSimplex::new()),
        ("devex", RevisedSimplex::with_devex_pricing()),
    ];
    let mut got = Vec::new();
    for (model, lp) in &models {
        for (pricing, solver) in &solvers {
            got.push((*model, *pricing, path(lp, solver)));
        }
    }
    assert_eq!(got, RECORDED);
}

/// Recorded at the parent of the hypersparse-solves PR, before any change.
const RECORDED: [(&str, &str, (u64, u64, u64)); 8] = [
    ("sweep 24x5", "dantzig", (120, 5, 0x40220a3d70a3d709)),
    ("sweep 24x5", "devex", (139, 6, 0x40220a3d70a3d709)),
    ("sweep 48x6", "dantzig", (247, 11, 0x402475c28f5c28f4)),
    ("sweep 48x6", "devex", (301, 10, 0x402475c28f5c28f4)),
    ("sweep 96x4", "dantzig", (296, 14, 0x402abd70a3d70a3a)),
    ("sweep 96x4", "devex", (308, 12, 0x402abd70a3d70a3a)),
    ("F0 shape 456", "dantzig", (3468, 152, 0x40a05fd87e9e9650)),
    ("F0 shape 456", "devex", (3830, 157, 0x40a05fd87e9e964f)),
];
