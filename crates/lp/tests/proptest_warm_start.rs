//! Property tests for warm-started solves: re-solving a patched problem from
//! the previous optimal basis must agree with a cold solve — in objective and
//! in feasibility — no matter how stale the basis is, and an outright
//! corrupted basis must silently fall back to a cold start.
//!
//! The generated models (`sweep_gen`) follow the provisioning-LP shape that
//! warm starts target in production; the patch mirrors a failure-scenario
//! sweep.

mod sweep_gen;

use proptest::prelude::*;
use sb_lp::{
    Basis, FactorKind, LpProblem, PatchOutcome, PreparedProblem, Pricing, Relation, RevisedSimplex,
    Solution, VarStatus,
};
use sweep_gen::{build, patch, sweep_lp, SweepLp};

fn solve_pair(r: &SweepLp, mangle: Option<fn(&mut Basis)>) -> (f64, f64, bool, LpProblem) {
    let mut b = build(r);
    let mut prep = PreparedProblem::new(&b.lp);
    let solver = RevisedSimplex::new();
    let base = solver
        .solve_prepared(&b.lp, &prep, None)
        .expect("base problem is feasible by construction");
    let mut basis = base.basis().expect("revised solve exports a basis").clone();
    if let Some(m) = mangle {
        m(&mut basis);
    }
    patch(&mut b, r);
    assert_eq!(
        prep.refresh(&b.lp),
        PatchOutcome::Patched,
        "demand/pin patches are layout-stable"
    );
    let warm = solver
        .solve_prepared(&b.lp, &prep, Some(&basis))
        .expect("patched problem stays feasible (capacity is purchasable)");
    let cold = solver
        .solve_prepared(&b.lp, &prep, None)
        .expect("patched problem stays feasible (capacity is purchasable)");
    (
        warm.objective(),
        cold.objective(),
        warm.stats().warm_started,
        {
            let violation_w = b.lp.max_violation(warm.values());
            let violation_c = b.lp.max_violation(cold.values());
            assert!(
                violation_w < 1e-7,
                "warm solution infeasible: {violation_w}"
            );
            assert!(
                violation_c < 1e-7,
                "cold solution infeasible: {violation_c}"
            );
            b.lp
        },
    )
}

/// Full KKT audit of a claimed optimum: primal feasibility, dual signs,
/// row complementary slackness, and reduced-cost complementarity against the
/// variable bounds. Catches a solution that is feasible and has the right
/// objective but whose duals (the warm-start `dual_restore` input) are junk.
fn check_kkt(lp: &LpProblem, s: &Solution, label: &str) {
    const TOL: f64 = 1e-6;
    let x = s.values();
    let violation = lp.max_violation(x);
    assert!(violation < 1e-7, "{label}: infeasible by {violation}");
    let mut reduced: Vec<f64> = lp.vars().map(|v| lp.var_cost(v)).collect();
    for (i, row) in lp.rows().iter().enumerate() {
        let y = s
            .dual(i)
            .unwrap_or_else(|| panic!("{label}: no dual for row {i}"));
        match row.rel {
            Relation::Le => assert!(y <= TOL, "{label}: ≤ row {i} has dual {y} > 0"),
            Relation::Ge => assert!(y >= -TOL, "{label}: ≥ row {i} has dual {y} < 0"),
            Relation::Eq => {}
        }
        let lhs: f64 = row.coeffs.iter().map(|&(v, c)| c * x[v.index()]).sum();
        let slack = row.rhs - lhs;
        assert!(
            (y * slack).abs() < TOL,
            "{label}: row {i} violates complementary slackness (y={y}, slack={slack})"
        );
        for &(v, c) in &row.coeffs {
            reduced[v.index()] -= y * c;
        }
    }
    for v in lp.vars() {
        let (lo, up) = lp.var_bounds(v);
        let (xv, r) = (x[v.index()], reduced[v.index()]);
        if r > TOL {
            assert!(
                xv - lo < TOL,
                "{label}: {} has reduced cost {r} > 0 but sits at {xv} above lower {lo}",
                lp.var_name(v)
            );
        } else if r < -TOL {
            assert!(
                up - xv < TOL,
                "{label}: {} has reduced cost {r} < 0 but sits at {xv} below upper {up}",
                lp.var_name(v)
            );
        }
    }
}

fn solver_with(kind: FactorKind, pricing: Pricing) -> RevisedSimplex {
    RevisedSimplex {
        factorization: kind,
        pricing,
        ..RevisedSimplex::new()
    }
}

proptest! {
    // 512 cases: the shim runner reports failing inputs unshrunk, so budget
    // spent on more (deterministic) cases is the shrink budget — doubled
    // here because the sparse-LU/devex paths added in the sparse-core PR
    // widened the state space these properties guard.
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Warm and cold solves of the patched problem agree on the optimum, and
    /// both report feasible points — even when the patch pinned variables the
    /// warm basis holds at positive values (the dual-restoration path).
    #[test]
    fn warm_agrees_with_cold_after_patch(r in sweep_lp()) {
        let (warm_obj, cold_obj, _, _) = solve_pair(&r, None);
        let scale = 1.0 + cold_obj.abs();
        prop_assert!((warm_obj - cold_obj).abs() < 1e-6 * scale,
            "warm={warm_obj} cold={cold_obj}");
    }

    /// A corrupted warm basis (duplicate basic column — structurally
    /// singular) must downgrade to a cold start and still reach the optimum.
    #[test]
    fn corrupted_basis_falls_back(r in sweep_lp()) {
        fn corrupt(b: &mut Basis) {
            if b.basic.len() >= 2 {
                b.basic[0] = b.basic[1];
            }
        }
        let (warm_obj, cold_obj, warm_started, _) = solve_pair(&r, Some(corrupt));
        prop_assert!(!warm_started, "a singular basis must not warm-start");
        let scale = 1.0 + cold_obj.abs();
        prop_assert!((warm_obj - cold_obj).abs() < 1e-6 * scale);
    }

    /// A basis with every status flipped to AtUpper (maximally stale
    /// nonbasic information) is still either repaired or rejected — never
    /// allowed to produce a wrong optimum.
    #[test]
    fn stale_statuses_never_corrupt_the_optimum(r in sweep_lp()) {
        fn stale(b: &mut Basis) {
            for st in &mut b.status {
                if *st == VarStatus::AtLower {
                    *st = VarStatus::AtUpper;
                }
            }
        }
        let (warm_obj, cold_obj, _, _) = solve_pair(&r, Some(stale));
        let scale = 1.0 + cold_obj.abs();
        prop_assert!((warm_obj - cold_obj).abs() < 1e-6 * scale,
            "warm={warm_obj} cold={cold_obj}");
    }

    /// Sparse-LU (with devex pricing) and dense factorizations are
    /// differential oracles for each other: on both the base and the patched
    /// problem they must reach the same optimum, and each claimed optimum
    /// must pass a full KKT audit (feasibility, dual signs, complementary
    /// slackness, reduced-cost complementarity).
    #[test]
    fn sparse_and_dense_factorizations_agree(r in sweep_lp()) {
        let sparse = solver_with(FactorKind::SparseLu, Pricing::Devex);
        let dense = solver_with(FactorKind::Dense, Pricing::Dantzig);
        let mut b = build(&r);
        let mut prep = PreparedProblem::new(&b.lp);
        for stage in ["base", "patched"] {
            let ss = sparse.solve_prepared(&b.lp, &prep, None).expect("sparse solves");
            let sd = dense.solve_prepared(&b.lp, &prep, None).expect("dense solves");
            let scale = 1.0 + sd.objective().abs();
            prop_assert!((ss.objective() - sd.objective()).abs() < 1e-6 * scale,
                "{stage}: sparse={} dense={}", ss.objective(), sd.objective());
            check_kkt(&b.lp, &ss, &format!("{stage}/sparse"));
            check_kkt(&b.lp, &sd, &format!("{stage}/dense"));
            if stage == "base" {
                patch(&mut b, &r);
                prop_assert_eq!(prep.refresh(&b.lp), PatchOutcome::Patched);
            }
        }
    }

    /// A basis exported by one factorization backend warm-starts the other:
    /// the sparse engine — sparse LU + Dantzig, the pair production solves
    /// with — resumes from a dense-produced basis and vice versa, and both
    /// reach the cold optimum of the patched problem.
    #[test]
    fn warm_starts_cross_factorization_backends(r in sweep_lp()) {
        let sparse = solver_with(FactorKind::SparseLu, Pricing::Dantzig);
        let dense = solver_with(FactorKind::Dense, Pricing::Dantzig);
        let mut b = build(&r);
        let mut prep = PreparedProblem::new(&b.lp);
        let basis_s = sparse.solve_prepared(&b.lp, &prep, None)
            .expect("sparse base solve")
            .basis().expect("sparse engine exports a basis").clone();
        let basis_d = dense.solve_prepared(&b.lp, &prep, None)
            .expect("dense base solve")
            .basis().expect("dense-factor engine exports a basis").clone();
        patch(&mut b, &r);
        prop_assert_eq!(prep.refresh(&b.lp), PatchOutcome::Patched);
        let cold = sparse.solve_prepared(&b.lp, &prep, None).expect("cold reference");
        let warm_ds = dense.solve_prepared(&b.lp, &prep, Some(&basis_s))
            .expect("dense engine accepts sparse-produced basis");
        let warm_sd = sparse.solve_prepared(&b.lp, &prep, Some(&basis_d))
            .expect("sparse engine accepts dense-produced basis");
        let scale = 1.0 + cold.objective().abs();
        prop_assert!((warm_ds.objective() - cold.objective()).abs() < 1e-6 * scale,
            "dense-from-sparse={} cold={}", warm_ds.objective(), cold.objective());
        prop_assert!((warm_sd.objective() - cold.objective()).abs() < 1e-6 * scale,
            "sparse-from-dense={} cold={}", warm_sd.objective(), cold.objective());
        check_kkt(&b.lp, &warm_ds, "warm dense-from-sparse");
        check_kkt(&b.lp, &warm_sd, "warm sparse-from-dense");
    }
}

/// Regression seed for the degenerate-row tiny-pivot bug: pivoting on
/// eta-chain noise over a degenerate row made the sparse-LU basis exactly
/// singular; the fix latches `NeedsRefactor` when the selected ratio-test
/// pivot falls below `PIVOT_STABILITY_REL` of the entering column's largest
/// entry. This instance is maximally degenerate — identical demands, zero
/// share costs (ties on every pivot), one pinned site — and larger than the
/// random generator's `slots × sites` coverage. Scheduled refactorization is
/// pushed out of reach so every pivot runs on eta updates, the exact regime
/// the stability guard protects.
#[test]
fn degenerate_rows_with_stale_etas_stay_nonsingular() {
    let r = SweepLp {
        slots: 6,
        sites: 5,
        demand0: vec![8; 6],
        demand1: vec![8; 6],
        cap_cost: vec![1; 5],
        share_cost: vec![0; 30],
        fail_site: Some(0),
    };
    let sparse = RevisedSimplex {
        refactor_every: u64::MAX,
        ..solver_with(FactorKind::SparseLu, Pricing::Devex)
    };
    let dense = solver_with(FactorKind::Dense, Pricing::Dantzig);

    let mut b = build(&r);
    let mut prep = PreparedProblem::new(&b.lp);
    let base = sparse
        .solve_prepared(&b.lp, &prep, None)
        .expect("degenerate base instance must solve, not go singular");
    let base_dense = dense.solve_prepared(&b.lp, &prep, None).expect("oracle");
    let scale = 1.0 + base_dense.objective().abs();
    assert!(
        (base.objective() - base_dense.objective()).abs() < 1e-6 * scale,
        "base: sparse={} dense={}",
        base.objective(),
        base_dense.objective()
    );
    check_kkt(&b.lp, &base, "degenerate-base/sparse");

    // warm-start the patched problem from the degenerate basis: the pinned
    // site forces pivots through the tied rows again
    let basis = base.basis().expect("basis exported").clone();
    patch(&mut b, &r);
    assert_eq!(prep.refresh(&b.lp), PatchOutcome::Patched);
    let warm = sparse
        .solve_prepared(&b.lp, &prep, Some(&basis))
        .expect("warm solve over degenerate rows must not go singular");
    let cold = dense.solve_prepared(&b.lp, &prep, None).expect("oracle");
    let scale = 1.0 + cold.objective().abs();
    assert!(
        (warm.objective() - cold.objective()).abs() < 1e-6 * scale,
        "patched: warm sparse={} cold dense={}",
        warm.objective(),
        cold.objective()
    );
    check_kkt(&b.lp, &warm, "degenerate-patched/sparse-warm");
}
