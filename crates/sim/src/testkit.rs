//! The toy world the unit tests of this crate share.

use sb_core::{AllocationShares, PlannedQuotas};
use sb_net::{CountryId, DcId, Topology};
use sb_workload::{
    CallConfig, CallRecord, CallRecordsDb, ConfigCatalog, ConfigId, DemandMatrix, MediaType,
};

/// The three-DC toy topology and a catalog holding one two-party JP audio
/// config.
pub(crate) fn world() -> (Topology, ConfigCatalog, ConfigId) {
    let topo = sb_net::presets::toy_three_dc();
    let jp = topo.country_by_name("JP");
    let mut cat = ConfigCatalog::new();
    let id = cat.intern(CallConfig::new(vec![(jp, 2)], MediaType::Audio));
    (topo, cat, id)
}

/// A two-party call of `cfg` whose first joiner is in `c`.
pub(crate) fn record(id: u64, cfg: ConfigId, start: u64, dur: u16, c: CountryId) -> CallRecord {
    CallRecord {
        id,
        config: cfg,
        start_minute: start,
        duration_min: dur,
        first_joiner: c,
        join_offsets_s: vec![0, 60],
    }
}

/// A call-records table over `cat` holding `records`.
pub(crate) fn db_of(
    cat: &ConfigCatalog,
    records: impl IntoIterator<Item = CallRecord>,
) -> CallRecordsDb {
    let mut db = CallRecordsDb::new(cat.clone());
    records.into_iter().for_each(|r| db.push(r));
    db
}

/// Quotas that put `per_slot` calls of `cfg` at `dc` in each of `slots` slots.
pub(crate) fn all_at(cfg: ConfigId, dc: DcId, slots: usize, per_slot: f64) -> PlannedQuotas {
    let mut shares = AllocationShares::new(slots);
    let mut demand = DemandMatrix::zero(cfg.index() + 1, slots, 30, 0);
    for s in 0..slots {
        shares.set(cfg, s, vec![(dc, 1.0)]);
        demand.set(cfg, s, per_slot);
    }
    PlannedQuotas::from_plan(&shares, &demand)
}
