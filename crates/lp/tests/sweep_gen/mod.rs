//! The miniature provisioning-sweep LP generator shared by the warm-start
//! property tests (`tests/proptest_warm_start.rs`) and the solver's own
//! maintained-reduced-cost audit (`src/revised.rs`, which mounts this file
//! as a unit-test module to reach engine internals).
//!
//! The generated models follow the provisioning-LP shape that warm starts
//! target in production: per-slot demand-completeness equalities, share
//! variables with demand upper bounds, and capacity variables tying shares
//! down through `≤` rows. The patch mirrors a failure-scenario sweep: demands
//! move, and one site's shares get pinned to zero.

use proptest::prelude::*;
use sb_lp::{LpProblem, Var};

/// A miniature provisioning sweep: `slots × sites` share variables, one
/// capacity variable per site.
#[derive(Debug, Clone)]
pub struct SweepLp {
    pub slots: usize,
    pub sites: usize,
    /// Per-slot demand for the base (warm-basis) problem.
    pub demand0: Vec<u8>,
    /// Per-slot demand after the patch.
    pub demand1: Vec<u8>,
    /// Per-site capacity cost.
    pub cap_cost: Vec<u8>,
    /// Per-(slot, site) share cost (the ACL epsilon term).
    pub share_cost: Vec<u8>,
    /// Site pinned to zero by the patch (a "failed DC"), if any.
    pub fail_site: Option<usize>,
}

/// Strategy over [`SweepLp`]: 1–3 slots × 2–3 sites.
pub fn sweep_lp() -> impl Strategy<Value = SweepLp> {
    (1usize..4, 2usize..4).prop_flat_map(|(slots, sites)| {
        let demand0 = proptest::collection::vec(1u8..9, slots);
        let demand1 = proptest::collection::vec(1u8..9, slots);
        let cap_cost = proptest::collection::vec(1u8..9, sites);
        let share_cost = proptest::collection::vec(0u8..3, slots * sites);
        let fail_site = proptest::option::of(0usize..sites);
        (demand0, demand1, cap_cost, share_cost, fail_site).prop_map(
            move |(demand0, demand1, cap_cost, share_cost, fail_site)| SweepLp {
                slots,
                sites,
                demand0,
                demand1,
                cap_cost,
                share_cost,
                fail_site,
            },
        )
    })
}

/// A built model plus the handles [`patch`] needs.
pub struct Built {
    pub lp: LpProblem,
    pub shares: Vec<Var>,
    /// Completeness row index per slot.
    pub complete_rows: Vec<usize>,
}

/// Build the base problem (demands `demand0`, nothing pinned).
pub fn build(r: &SweepLp) -> Built {
    let mut lp = LpProblem::new();
    let caps: Vec<Var> = (0..r.sites)
        .map(|x| lp.add_nonneg(format!("C{x}"), r.cap_cost[x] as f64))
        .collect();
    let mut shares = Vec::new();
    for t in 0..r.slots {
        for x in 0..r.sites {
            shares.push(lp.add_var(
                format!("s{t}_{x}"),
                0.01 * r.share_cost[t * r.sites + x] as f64,
                0.0,
                r.demand0[t] as f64,
            ));
        }
    }
    let mut complete_rows = Vec::new();
    for t in 0..r.slots {
        let coeffs = (0..r.sites)
            .map(|x| (shares[t * r.sites + x], 1.0))
            .collect();
        complete_rows.push(lp.add_eq(coeffs, r.demand0[t] as f64));
        for x in 0..r.sites {
            lp.add_le(vec![(shares[t * r.sites + x], 1.0), (caps[x], -1.0)], 0.0);
        }
    }
    Built {
        lp,
        shares,
        complete_rows,
    }
}

/// Apply the scenario patch in place: new demands, one site pinned.
pub fn patch(b: &mut Built, r: &SweepLp) {
    for t in 0..r.slots {
        b.lp.set_rhs(b.complete_rows[t], r.demand1[t] as f64);
        for x in 0..r.sites {
            let v = b.shares[t * r.sites + x];
            let pinned = r.fail_site == Some(x);
            b.lp.set_var_upper(v, if pinned { 0.0 } else { r.demand1[t] as f64 });
        }
    }
}
