//! Failure drills: inject a DC or link failure into a replay window and
//! verify the provisioned backup capacity actually absorbs the failover
//! (§2.1 requirement 2, §5.3 failure model).

use sb_core::ScenarioData;
use sb_net::{FailureScenario, ProvisionedCapacity, Topology};
use sb_workload::{CallRecordsDb, ConfigCatalog};

use crate::drive::mean;
use crate::replay::trace_usage;

/// Outcome of one failure drill.
#[derive(Clone, Debug)]
pub struct DrillReport {
    /// Scenario injected.
    pub scenario: FailureScenario,
    /// Calls active on failed resources that were successfully re-homed.
    pub rehomed: u64,
    /// Calls that could not be re-homed (no reachable DC) — should be 0 on
    /// a well-provisioned topology.
    pub stranded: u64,
    /// Peak usage during the failure window (all calls on surviving DCs).
    pub peaks: ProvisionedCapacity,
    /// Minutes × resources where usage exceeded the provisioned capacity.
    pub violations: u64,
    /// Mean ACL during the failure window (after failover).
    pub mean_acl_ms: f64,
}

/// Simulate the steady state *during* a failure: every call in `db` that
/// overlaps the drill is placed at its latency-optimal surviving DC (which is
/// what the §4.2 backup plan provides capacity for), then usage is compared
/// against `capacity`.
pub fn drill(
    topo: &Topology,
    catalog: &ConfigCatalog,
    db: &CallRecordsDb,
    scenario: FailureScenario,
    capacity: &ProvisionedCapacity,
) -> DrillReport {
    let sd = ScenarioData::compute(topo, scenario);
    let latmap0 = ScenarioData::compute(topo, FailureScenario::None).latmap;
    let mut rehomed = 0u64;
    let mut stranded = 0u64;
    let mut acl_sum = 0.0;
    let mut acl_n = 0u64;

    let (peaks, violations, _) = trace_usage(topo, db.records(), Some(capacity), |usage, _, r| {
        let cfg = catalog.config(r.config);
        // where would this call sit in healthy operation?
        let healthy = latmap0.acl_min_dc(cfg).map(|(dc, _)| dc);
        // failover target: latency-optimal surviving DC
        match sd.latmap.acl_min_dc(cfg) {
            Some((dc, acl)) => {
                if healthy != Some(dc) {
                    rehomed += 1;
                }
                acl_sum += acl;
                acl_n += 1;
                usage.add(&sd.routing, cfg, dc, r.start_minute, r.end_minute());
            }
            None => stranded += 1,
        }
    });

    DrillReport {
        scenario: sd.scenario,
        rehomed,
        stranded,
        peaks,
        violations,
        mean_acl_ms: mean(acl_sum, acl_n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_workload::{CallConfig, CallRecord, MediaType};

    fn db() -> (Topology, ConfigCatalog, CallRecordsDb) {
        let topo = sb_net::presets::toy_three_dc();
        let jp = topo.country_by_name("JP");
        let mut cat = ConfigCatalog::new();
        let id = cat.intern(CallConfig::new(vec![(jp, 2)], MediaType::Audio));
        let mut db = CallRecordsDb::new(cat.clone());
        for i in 0..20 {
            db.push(CallRecord {
                id: i,
                config: id,
                start_minute: i,
                duration_min: 30,
                first_joiner: jp,
                join_offsets_s: vec![0, 30],
            });
        }
        (topo, cat, db)
    }

    #[test]
    fn dc_failure_rehomes_everything() {
        let (topo, cat, db) = db();
        let tokyo = topo.dc_by_name("Tokyo");
        let generous = ProvisionedCapacity {
            cores: vec![1e6; topo.dcs.len()],
            gbps: vec![1e6; topo.links.len()],
        };
        let report = drill(&topo, &cat, &db, FailureScenario::DcDown(tokyo), &generous);
        assert_eq!(report.stranded, 0);
        assert_eq!(report.rehomed, 20); // all JP calls lived in Tokyo
        assert_eq!(report.violations, 0);
        assert_eq!(report.peaks.cores[tokyo.index()], 0.0);
        assert!(report.mean_acl_ms > 0.0);
    }

    #[test]
    fn no_failure_drill_rehomes_nothing() {
        let (topo, cat, db) = db();
        let generous = ProvisionedCapacity {
            cores: vec![1e6; topo.dcs.len()],
            gbps: vec![1e6; topo.links.len()],
        };
        let report = drill(&topo, &cat, &db, FailureScenario::None, &generous);
        assert_eq!(report.rehomed, 0);
        assert_eq!(report.stranded, 0);
    }

    #[test]
    fn undersized_capacity_violates() {
        let (topo, cat, db) = db();
        let tokyo = topo.dc_by_name("Tokyo");
        let tiny = ProvisionedCapacity {
            cores: vec![0.01; topo.dcs.len()],
            gbps: vec![1e6; topo.links.len()],
        };
        let report = drill(&topo, &cat, &db, FailureScenario::DcDown(tokyo), &tiny);
        assert!(report.violations > 0);
    }
}
