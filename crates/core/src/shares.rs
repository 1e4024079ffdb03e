//! Allocation shares: for each `(call config, time slot)`, the fraction of
//! that slot's calls hosted at each DC — the `S_tcx` of the paper, whether
//! produced by the LP (Switchboard) or by a closed-form policy (RR, LF).

use std::collections::BTreeMap;

use sb_net::DcId;
use sb_workload::ConfigId;

/// Sparse `S_tcx`: per config, per slot, a short `(dc, fraction)` list.
///
/// Keyed in `ConfigId` order: usage accounting sums floats in iteration
/// order, so the order must not vary from one map instance to the next (a
/// hash map's does), or the same shares yield capacities that differ in the
/// last bits and every LP downstream pivots differently.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AllocationShares {
    num_slots: usize,
    shares: BTreeMap<ConfigId, Vec<Vec<(DcId, f64)>>>,
}

impl AllocationShares {
    /// Empty shares over `num_slots` slots.
    pub fn new(num_slots: usize) -> AllocationShares {
        AllocationShares {
            num_slots,
            shares: BTreeMap::new(),
        }
    }

    /// Number of slots.
    pub fn num_slots(&self) -> usize {
        self.num_slots
    }

    /// Set the share list for `(cfg, slot)`. Fractions must be non-negative;
    /// zero entries are dropped.
    pub fn set(&mut self, cfg: ConfigId, slot: usize, mut fracs: Vec<(DcId, f64)>) {
        assert!(slot < self.num_slots);
        fracs.retain(|&(_, f)| f > 0.0);
        for &(_, f) in &fracs {
            assert!(f.is_finite() && f >= 0.0);
        }
        let per_slot = self
            .shares
            .entry(cfg)
            .or_insert_with(|| vec![Vec::new(); self.num_slots]);
        per_slot[slot] = fracs;
    }

    /// Share list for `(cfg, slot)`; empty when unset.
    pub fn get(&self, cfg: ConfigId, slot: usize) -> &[(DcId, f64)] {
        static EMPTY: Vec<(DcId, f64)> = Vec::new();
        self.shares
            .get(&cfg)
            .map(|v| &v[slot][..])
            .unwrap_or(&EMPTY)
    }

    /// Does the plan mention this config at all?
    pub fn covers(&self, cfg: ConfigId) -> bool {
        self.shares.contains_key(&cfg)
    }

    /// Iterate `(config, slot, shares)` for all non-empty entries, in
    /// `(config, slot)` order.
    pub fn iter(&self) -> impl Iterator<Item = (ConfigId, usize, &[(DcId, f64)])> {
        self.shares.iter().flat_map(|(&cfg, per_slot)| {
            per_slot
                .iter()
                .enumerate()
                .filter(|(_, v)| !v.is_empty())
                .map(move |(slot, v)| (cfg, slot, &v[..]))
        })
    }

    /// Configs present in the plan, ascending.
    pub fn configs(&self) -> impl Iterator<Item = ConfigId> + '_ {
        self.shares.keys().copied()
    }

    /// Sum of fractions for `(cfg, slot)` (≈1.0 when demand is fully placed).
    pub fn total_fraction(&self, cfg: ConfigId, slot: usize) -> f64 {
        self.get(cfg, slot).iter().map(|&(_, f)| f).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_iter() {
        let mut s = AllocationShares::new(3);
        let c = ConfigId(4);
        s.set(c, 1, vec![(DcId(0), 0.7), (DcId(2), 0.3), (DcId(1), 0.0)]);
        assert_eq!(s.get(c, 1), &[(DcId(0), 0.7), (DcId(2), 0.3)]);
        assert_eq!(s.get(c, 0), &[]);
        assert!(s.covers(c));
        assert!(!s.covers(ConfigId(9)));
        assert!((s.total_fraction(c, 1) - 1.0).abs() < 1e-12);
        assert_eq!(s.total_fraction(c, 0), 0.0);
        let all: Vec<_> = s.iter().collect();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].0, c);
        assert_eq!(all[0].1, 1);
    }

    #[test]
    fn iteration_is_in_config_then_slot_order() {
        let mut s = AllocationShares::new(2);
        for c in [7u32, 2, 5] {
            s.set(ConfigId(c), 1, vec![(DcId(0), 1.0)]);
            s.set(ConfigId(c), 0, vec![(DcId(1), 1.0)]);
        }
        let order: Vec<_> = s.iter().map(|(c, slot, _)| (c.0, slot)).collect();
        assert_eq!(order, [(2, 0), (2, 1), (5, 0), (5, 1), (7, 0), (7, 1)]);
        assert_eq!(s.configs().map(|c| c.0).collect::<Vec<_>>(), [2, 5, 7]);
    }

    #[test]
    fn overwrite_replaces() {
        let mut s = AllocationShares::new(2);
        let c = ConfigId(0);
        s.set(c, 0, vec![(DcId(0), 1.0)]);
        s.set(c, 0, vec![(DcId(1), 1.0)]);
        assert_eq!(s.get(c, 0), &[(DcId(1), 1.0)]);
    }

    #[test]
    #[should_panic]
    fn slot_out_of_range() {
        let mut s = AllocationShares::new(1);
        s.set(ConfigId(0), 1, vec![]);
    }
}
