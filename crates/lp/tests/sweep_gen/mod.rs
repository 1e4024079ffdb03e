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

// every test crate that mounts this file uses a part of it
#![allow(dead_code)]

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

/// splitmix64: the fixed stream behind [`seeded`] and [`f0_shape`], so the
/// pinned-path constants do not hang on the proptest shim's generator.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

/// A [`SweepLp`] of any size drawn from `seed` (same value ranges as
/// [`sweep_lp`], one site always pinned by the patch).
pub fn seeded(seed: u64, slots: usize, sites: usize) -> SweepLp {
    let mut rng = SplitMix(seed);
    let mut draw =
        |lo, hi, n: usize| -> Vec<u8> { (0..n).map(|_| rng.range(lo, hi) as u8).collect() };
    SweepLp {
        slots,
        sites,
        demand0: draw(1, 9, slots),
        demand1: draw(1, 9, slots),
        cap_cost: draw(1, 9, sites),
        share_cost: draw(0, 3, slots * sites),
        fail_site: Some(draw(0, sites as u64, 1)[0] as usize),
    }
}

/// The provisioning LP `F₀` (sb-core's Eq. 3–9) in miniature: per slot one
/// completeness equality per config over the DCs its latency filter admits,
/// one compute row per DC against its peak-cores variable, one network row
/// per link against its peak-Gbps variable, demand upper bounds on every
/// share and a small latency cost on it. Non-integer coefficients and a
/// diurnal demand curve, so the basis fills in and degenerates the way the
/// real one does. `12 × 26 × 6 × 6` is the APAC probe's 456 rows.
pub fn f0_shape(seed: u64, slots: usize, configs: usize, dcs: usize, links: usize) -> LpProblem {
    let mut rng = SplitMix(seed);
    let mut unit =
        move |lo: f64, hi: f64| lo + (hi - lo) * (rng.next() >> 11) as f64 / (1u64 << 53) as f64;
    let mut lp = LpProblem::new();
    let cp: Vec<Var> = (0..dcs)
        .map(|x| lp.add_nonneg(format!("CP{x}"), unit(0.5, 2.0)))
        .collect();
    let np: Vec<Var> = (0..links)
        .map(|l| lp.add_nonneg(format!("NP{l}"), unit(2.0, 12.0)))
        .collect();
    // per config: cores per call, base demand, and per admitted DC the
    // latency cost and the (link, Gbps per call) footprint of hosting there
    struct Placement {
        dc: usize,
        acl: f64,
        loads: Vec<(usize, f64)>,
    }
    let mut cores = Vec::new();
    let mut base = Vec::new();
    let mut placements: Vec<Vec<Placement>> = Vec::new();
    for _ in 0..configs {
        cores.push(unit(0.05, 0.6));
        base.push(unit(5.0, 400.0));
        let first = unit(0.0, dcs as f64) as usize;
        let admitted = 2 + unit(0.0, (dcs - 1) as f64) as usize;
        placements.push(
            (0..admitted.min(dcs))
                .map(|k| Placement {
                    dc: (first + k) % dcs,
                    acl: unit(10.0, 120.0),
                    loads: (0..unit(0.0, 3.5) as usize)
                        .map(|_| (unit(0.0, links as f64) as usize, unit(0.001, 0.02)))
                        .collect(),
                })
                .collect(),
        );
    }
    for t in 0..slots {
        let mut compute: Vec<Vec<(Var, f64)>> = vec![Vec::new(); dcs];
        let mut network: Vec<Vec<(Var, f64)>> = vec![Vec::new(); links];
        for c in 0..configs {
            // triangle wave over the day, each config on its own phase (no
            // libm call: the constants pinned on this model must not hang on
            // one platform's `sin`)
            let at = ((t + 5 * c) % slots) as f64 / slots as f64;
            let demand = (base[c] * (0.4 + 2.4 * (at - 0.5).abs())).round();
            let mut complete = Vec::new();
            for p in &placements[c] {
                let s = lp.add_var(format!("S{t}_{c}_{}", p.dc), 1e-4 * p.acl, 0.0, demand);
                complete.push((s, 1.0));
                compute[p.dc].push((s, cores[c]));
                for &(l, gbps) in &p.loads {
                    network[l].push((s, gbps));
                }
            }
            lp.add_eq(complete, demand);
        }
        for (x, mut row) in compute.into_iter().enumerate() {
            row.push((cp[x], -1.0));
            lp.add_le(row, 0.0);
        }
        for (l, mut row) in network.into_iter().enumerate() {
            row.push((np[l], -1.0));
            lp.add_le(row, 0.0);
        }
    }
    lp
}
