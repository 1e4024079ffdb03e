//! Trace replay: drive the real-time MP selector (§5.4) with a call-record
//! trace and measure what the paper's evaluation measures — per-call mean
//! ACL, per-DC core peaks, per-link Gbps peaks, migration rate, and capacity
//! violations.
//!
//! Two entry points, one drive ([`crate::drive::fan_out`]) and one accounting:
//!
//! * [`replay`] — the serial oracle: one selector shard on the calling
//!   thread applies every event in trace order. Simple enough to audit, and
//!   the reference the threaded drive is differential-tested against.
//! * [`replay_concurrent`] — the same segments fanned out across worker
//!   threads, whole call lifecycles pinned to a worker by quota pool (see
//!   [`crate::drive`] for why that reproduces the serial drive exactly).
//!
//! Plan swaps rebuild the pool table, so they are the only barriers: the
//! trace is cut into segments at swap minutes and each install lands between
//! two segments. Every statistic is a count (order-insensitive sum), and the
//! float outputs (peaks, ACL, overshoot) are computed *after* the drive by
//! `account`, which walks placements in record order — the identical code
//! path for both drives, hence byte-identical floats.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use sb_core::{LatencyMap, PlanArtifact, RealtimeSelector, SelectorStats};
use sb_net::{DcId, ProvisionedCapacity, RoutingTable, Topology};
use sb_obs::{Counter, Histogram};
use sb_pack::{CostModel, FleetPacker, FleetSpec, GrowthModel, PackStats, PackerConfig, ServerId};
use sb_workload::joins::CONFIG_FREEZE_SECONDS;
use sb_workload::{CallRecord, CallRecordsDb, ConfigCatalog};

use crate::drive::{fan_out, Step, UsageDeltas, WorkerDeaths};

struct ReplayMetrics {
    runs: Counter,
    calls: Counter,
    violations: Counter,
    wall_ns: Histogram,
    drive_ns: Histogram,
}

fn replay_metrics() -> &'static ReplayMetrics {
    static METRICS: OnceLock<ReplayMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = sb_obs::global();
        ReplayMetrics {
            runs: reg.counter("replay.runs"),
            calls: reg.counter("replay.calls"),
            violations: reg.counter("replay.capacity_violations"),
            wall_ns: reg.histogram("replay.wall_ns"),
            drive_ns: reg.histogram("replay.drive_ns"),
        }
    })
}

/// A scheduled mid-replay plan hot-swap: `artifact` is installed into the
/// selector just before the first event at or after `at_minute`.
///
/// Swaps are barriers: the trace is cut into segments at swap minutes and
/// every worker has joined before an install — so no selector operation ever
/// races one and the serial-oracle stats equality holds across swaps.
#[derive(Clone, Debug)]
pub struct PlanSwap {
    /// First trace minute the new plan applies to.
    pub at_minute: u64,
    /// The plan to install.
    pub artifact: Arc<PlanArtifact>,
}

/// Two-level placement add-on for a replay: when set, every accounted call
/// is additionally packed onto a server inside its hosting DC by a shared
/// deterministic pack pass (see [`ReplayStats::pack`]).
#[derive(Debug)]
pub struct PackSetup {
    /// Per-DC server fleet (must cover every DC of the replayed topology).
    pub spec: FleetSpec,
    /// Packer policy and tuning.
    pub packer: PackerConfig,
    /// Per-call cost as a function of participant count.
    pub cost: CostModel,
    /// Optional growth predictor; `None` reserves exactly the actual cost.
    pub growth: Option<GrowthModel>,
    /// Scheduled server deaths `(minute, server)`, applied before any
    /// same-minute placement ops.
    pub server_deaths: Vec<(u64, ServerId)>,
}

/// The order-insensitive aggregate of the pack pass — integer throughout,
/// so the differential harness compares it bitwise like everything else.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PackReplayStats {
    /// Packer op counters summed over DCs.
    pub stats: PackStats,
    /// Peak observed occupancy per server, flattened in `(dc, index)` order.
    pub per_server_peak_mcpu: Vec<u32>,
    /// Initial placements per server, flattened in `(dc, index)` order.
    pub per_server_placed: Vec<u64>,
    /// Hard-invariant violations observed at end of pass (always 0: the
    /// packer never overcommits actual cost).
    pub violations: u64,
}

/// Replay configuration.
#[derive(Clone, Debug)]
pub struct ReplayConfig {
    /// Minutes into the call at which the config freezes (A; 5 in the paper).
    pub freeze_minutes: u64,
    /// Capacity to check usage against (violations are counted per minute).
    pub capacity: Option<ProvisionedCapacity>,
    /// Mid-replay plan hot-swaps (installed in `at_minute` order).
    pub swaps: Vec<PlanSwap>,
    /// Optional intra-DC packing leg (shared across clones of the config).
    pub pack: Option<Arc<PackSetup>>,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            freeze_minutes: (CONFIG_FREEZE_SECONDS / 60) as u64,
            capacity: None,
            swaps: Vec::new(),
            pack: None,
        }
    }
}

/// Wall-clock breakdown of one replay run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayTiming {
    /// Driving the selector (the part the concurrent engine parallelizes).
    pub drive: Duration,
    /// Post-drive usage integration (always serial).
    pub account: Duration,
}

/// The order-insensitive aggregate of a replay run: every field must come
/// out identical whether the trace was driven serially or across N worker
/// threads. The differential tests compare this with `==` — including the
/// floats, which both drivers compute via the same record-order accounting
/// pass.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplayStats {
    /// Number of calls replayed.
    pub calls: u64,
    /// Selector statistics (migrations etc.).
    pub selector: SelectorStats,
    /// Completed freeze tallies per DC (index = DC id).
    pub per_dc_tallies: Vec<u64>,
    /// Mean of per-call ACLs at the final hosting DC.
    pub mean_acl_ms: f64,
    /// Observed per-DC core peaks.
    pub peak_cores: Vec<f64>,
    /// Observed per-link Gbps peaks.
    pub peak_gbps: Vec<f64>,
    /// Minutes × resources where usage exceeded the given capacity.
    pub capacity_violations: u64,
    /// Worst relative overshoot across all violations.
    pub worst_overshoot: f64,
    /// Intra-DC packing aggregate (present iff [`ReplayConfig::pack`] was
    /// set), including per-server tallies.
    pub pack: Option<PackReplayStats>,
}

/// Replay results.
#[derive(Clone, Debug)]
pub struct ReplayReport {
    /// Mean of per-call ACLs at the final hosting DC.
    pub mean_acl_ms: f64,
    /// Observed peaks (per-minute accounting).
    pub peaks: ProvisionedCapacity,
    /// Selector statistics (migrations etc.).
    pub selector: SelectorStats,
    /// Completed freeze tallies per DC (index = DC id).
    pub per_dc_tallies: Vec<u64>,
    /// Minutes × resources where usage exceeded the given capacity.
    pub capacity_violations: u64,
    /// Worst relative overshoot across all violations.
    pub worst_overshoot: f64,
    /// Number of calls replayed.
    pub calls: u64,
    /// Intra-DC packing aggregate (present iff [`ReplayConfig::pack`] was
    /// set).
    pub pack: Option<PackReplayStats>,
    /// Wall-clock breakdown (drive vs accounting).
    pub timing: ReplayTiming,
}

impl ReplayReport {
    /// The comparable aggregate of this run (everything except wall-clock).
    pub fn stats(&self) -> ReplayStats {
        ReplayStats {
            calls: self.calls,
            selector: self.selector.clone(),
            per_dc_tallies: self.per_dc_tallies.clone(),
            mean_acl_ms: self.mean_acl_ms,
            peak_cores: self.peaks.cores.clone(),
            peak_gbps: self.peaks.gbps.clone(),
            capacity_violations: self.capacity_violations,
            worst_overshoot: self.worst_overshoot,
            pack: self.pack.clone(),
        }
    }
}

/// Event kinds, ordered so same-minute events sort start < freeze < end.
pub const EV_START: u8 = 0;
/// Freeze event kind.
pub const EV_FREEZE: u8 = 1;
/// End event kind.
pub const EV_END: u8 = 2;

/// Build the `(minute, kind, record)` event list for a trace, sorted by
/// `(minute, kind)` with the stable record order breaking ties — the
/// canonical serial order both replay drivers are defined against.
///
/// Public so external load generators (the `engine_load` bench drives
/// `sb-engine` with exactly this schedule) stay bitwise-comparable with the
/// serial replay oracle.
pub fn build_events(records: &[CallRecord], freeze_minutes: u64) -> Vec<(u64, u8, usize)> {
    let mut events: Vec<(u64, u8, usize)> = Vec::with_capacity(records.len() * 3);
    for (i, r) in records.iter().enumerate() {
        let freeze = r.start_minute + freeze_minutes.min(r.duration_min as u64);
        events.push((r.start_minute, EV_START, i));
        events.push((freeze, EV_FREEZE, i));
        events.push((r.end_minute(), EV_END, i));
    }
    events.sort_by_key(|&(t, k, _)| (t, k));
    events
}

/// Final hosting decision for one replayed call: where it sat before its
/// config froze, and where it finished.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Placement {
    pub(crate) initial: DcId,
    pub(crate) final_dc: DcId,
}

/// The report of a replay (its timing left zero) from the selector's final
/// counters and the per-record placements: integrate them into usage, peaks,
/// violations and mean ACL, and run the pack pass. Record-index order, independent of who drove the selector
/// (serial or threaded replay, the crash drill's engine) — this is what
/// makes the float outputs byte-identical across drives.
#[allow(clippy::too_many_arguments)]
pub(crate) fn account(
    topo: &Topology,
    routing: &RoutingTable,
    latmap: &LatencyMap,
    catalog: &ConfigCatalog,
    records: &[CallRecord],
    placements: &[Option<Placement>],
    cfg: &ReplayConfig,
    selector: SelectorStats,
    per_dc_tallies: Vec<u64>,
) -> ReplayReport {
    let t0 = records.iter().map(|r| r.start_minute).min().unwrap_or(0);
    let t1 = records.iter().map(|r| r.end_minute()).max();
    let horizon = t1.map_or(0, |t1| (t1 - t0 + 1) as usize);
    let mut usage = UsageDeltas::new(topo, t0, horizon);
    let mut acl_sum = 0.0;
    let mut acl_n = 0u64;
    for (r, p) in records.iter().zip(placements) {
        let Some(p) = p else {
            continue; // stranded before freezing: never consumed resources
        };
        let c = catalog.config(r.config);
        let freeze = r.start_minute + cfg.freeze_minutes.min(r.duration_min as u64);
        usage.add(routing, c, p.initial, r.start_minute, freeze);
        usage.add(routing, c, p.final_dc, freeze, r.end_minute());
        if let Some(a) = latmap.acl(c, p.final_dc) {
            acl_sum += a;
            acl_n += 1;
        }
    }
    let undegraded = vec![1.0; topo.dcs.len()];
    let (peaks, capacity_violations, worst_overshoot) =
        usage.integrate(topo, cfg.capacity.as_ref(), |_| &undegraded, |_, _| {});
    ReplayReport {
        mean_acl_ms: if acl_n > 0 {
            acl_sum / acl_n as f64
        } else {
            0.0
        },
        peaks,
        selector,
        per_dc_tallies,
        capacity_violations,
        worst_overshoot,
        calls: records.len() as u64,
        pack: (cfg.pack.as_ref()).map(|s| pack_pass(records, placements, cfg, s)),
        timing: ReplayTiming::default(),
    }
}

// Pack-pass op kinds, ordered so same-minute ops apply as
// kill < place < grow < freeze < remove.
const PK_KILL: u8 = 0;
const PK_PLACE: u8 = 1;
const PK_GROW: u8 = 2;
const PK_FREEZE: u8 = 3;
const PK_REMOVE: u8 = 4;

/// The shared intra-DC packing pass: walk every accounted call's lifecycle
/// (place at start, grow per late joiner, freeze + DC move, remove at end,
/// plus scheduled server deaths) against a fresh [`FleetPacker`], in a
/// total deterministic order.
///
/// Like `account`, this runs *after* the drive, over the final placements,
/// on one thread — the identical code path for the serial oracle and every
/// concurrent drive, which is what makes [`PackReplayStats`] bitwise
/// comparable across drivers. Calls without a placement (stranded before
/// freezing) are skipped, matching the accounting semantics.
fn pack_pass(
    records: &[CallRecord],
    placements: &[Option<Placement>],
    cfg: &ReplayConfig,
    setup: &PackSetup,
) -> PackReplayStats {
    let packer = FleetPacker::new(setup.spec.clone(), setup.packer);
    // (minute, kind, record index, seq) — seq orders multiple joins of one
    // record inside one minute
    let mut ops: Vec<(u64, u8, usize, u32)> = Vec::with_capacity(records.len() * 4);
    for (i, (r, p)) in records.iter().zip(placements).enumerate() {
        if p.is_none() {
            continue;
        }
        let freeze = r.start_minute + cfg.freeze_minutes.min(r.duration_min as u64);
        ops.push((r.start_minute, PK_PLACE, i, 0));
        for (seq, &off) in r.join_offsets_s.iter().enumerate().skip(1) {
            let minute = (r.start_minute + (off / 60) as u64).min(r.end_minute());
            ops.push((minute, PK_GROW, i, seq as u32));
        }
        ops.push((freeze, PK_FREEZE, i, 0));
        ops.push((r.end_minute(), PK_REMOVE, i, 0));
    }
    for (k, &(minute, _)) in setup.server_deaths.iter().enumerate() {
        ops.push((minute, PK_KILL, usize::MAX, k as u32));
    }
    ops.sort_unstable_by_key(|&(t, kind, i, seq)| (t, kind, i, seq));

    // per-record pack state: current DC, charged participants, and the
    // per-minute growth history feeding the predictor
    let mut cur_dc: Vec<DcId> = placements
        .iter()
        .map(|p| p.map_or(DcId(0), |p| p.initial))
        .collect();
    let mut participants = vec![1u32; records.len()];
    let mut hist: Vec<Vec<bool>> = vec![Vec::new(); records.len()];
    let reserve = |config, participants: u32, hist: &[bool]| match &setup.growth {
        Some(g) => g.reserve_mcpu_for(&setup.cost, config, participants, hist),
        None => setup.cost.cost_mcpu(participants),
    };
    for &(minute, kind, i, seq) in &ops {
        if kind == PK_KILL {
            packer.kill_server(setup.server_deaths[seq as usize].1);
            continue;
        }
        let r = &records[i];
        let id = r.id;
        match kind {
            PK_PLACE => {
                packer.place(
                    cur_dc[i],
                    id,
                    1,
                    setup.cost.cost_mcpu(1),
                    reserve(r.config, 1, &[]),
                );
            }
            PK_GROW => {
                let rel = (minute - r.start_minute) as usize;
                if hist[i].len() <= rel {
                    hist[i].resize(rel + 1, false);
                }
                hist[i][rel] = true;
                participants[i] += 1;
                let cost = setup.cost.cost_mcpu(participants[i]);
                packer.grow(
                    cur_dc[i],
                    id,
                    participants[i],
                    cost,
                    reserve(r.config, participants[i], &hist[i]),
                );
            }
            PK_FREEZE => {
                packer.freeze(cur_dc[i], id);
                let p = placements[i].unwrap();
                if p.final_dc != p.initial {
                    packer.move_dc(p.initial, p.final_dc, id);
                }
                cur_dc[i] = p.final_dc;
            }
            _ => {
                packer.remove(cur_dc[i], id);
            }
        }
    }
    let violations = packer.capacity_violations();
    let _ = packer.utilization(); // publish the gauge
    PackReplayStats {
        stats: packer.stats(),
        per_server_peak_mcpu: packer.per_server_peak_mcpu(),
        per_server_placed: packer.per_server_placed(),
        violations,
    }
}

/// Drive the event timeline through `selector`, serially (`threads: None`)
/// or across worker threads. `swaps` must be sorted by `at_minute`; each is
/// installed just before the first event at or after its minute, which cuts
/// the timeline into the barrier-free segments [`fan_out`] drives.
fn drive(
    selector: &RealtimeSelector,
    records: &[CallRecord],
    events: &[(u64, u8, usize)],
    swaps: &[PlanSwap],
    threads: Option<usize>,
) -> Vec<Option<Placement>> {
    let mut placements: Vec<Option<Placement>> = vec![None; records.len()];
    let mut swap_at = 0usize;
    let mut at = 0usize;
    while at < events.len() {
        while swap_at < swaps.len() && swaps[swap_at].at_minute <= events[at].0 {
            selector.install_plan(&swaps[swap_at].artifact);
            swap_at += 1;
        }
        // segment = all events before the next pending swap minute
        let len = match swaps.get(swap_at) {
            Some(next) => events[at..].partition_point(|&(t, _, _)| t < next.at_minute),
            None => events.len() - at,
        };
        let segment = &events[at..at + len];
        at += len;
        let steps = fan_out(
            selector,
            records,
            segment,
            threads,
            &mut WorkerDeaths::default(),
        );
        for (&(_, _, i), step) in segment.iter().zip(steps) {
            if let Step::Frozen { initial, decision } = step {
                placements[i] = decision
                    .final_dc()
                    .map(|final_dc| Placement { initial, final_dc });
            }
        }
    }
    // swaps scheduled past the last event still install, so the final plan
    // state does not depend on where the trace happens to end
    for s in &swaps[swap_at..] {
        selector.install_plan(&s.artifact);
    }
    placements
}

#[allow(clippy::too_many_arguments)]
fn replay_impl(
    topo: &Topology,
    routing: &RoutingTable,
    latmap: &LatencyMap,
    catalog: &ConfigCatalog,
    db: &CallRecordsDb,
    selector: &RealtimeSelector,
    cfg: &ReplayConfig,
    threads: Option<usize>,
) -> ReplayReport {
    let m = replay_metrics();
    m.runs.inc();
    let _t = m.wall_ns.start_timer();
    let records = db.records();
    let events = build_events(records, cfg.freeze_minutes);
    let mut swaps = cfg.swaps.clone();
    swaps.sort_by_key(|s| s.at_minute);
    let drive_started = Instant::now();
    let placements = drive(selector, records, &events, &swaps, threads);
    let drive = drive_started.elapsed();
    m.drive_ns.record_duration(drive);

    let account_started = Instant::now();
    let mut report = account(
        topo,
        routing,
        latmap,
        catalog,
        records,
        &placements,
        cfg,
        selector.stats(),
        selector.per_dc_tallies(),
    );
    report.timing = ReplayTiming {
        drive,
        account: account_started.elapsed(),
    };
    m.calls.add(report.calls);
    m.violations.add(report.capacity_violations);
    report
}

/// Replay `db` through `selector`, serially, in trace order — the
/// correctness oracle for [`replay_concurrent`].
///
/// Usage accounting is per minute: a call contributes its compute load to its
/// current DC and its leg traffic to the routed links from call start to call
/// end; the first `freeze_minutes` are accounted at the initial DC, the rest
/// at the post-freeze DC.
pub fn replay(
    topo: &Topology,
    routing: &RoutingTable,
    latmap: &LatencyMap,
    catalog: &ConfigCatalog,
    db: &CallRecordsDb,
    selector: &RealtimeSelector,
    cfg: &ReplayConfig,
) -> ReplayReport {
    replay_impl(topo, routing, latmap, catalog, db, selector, cfg, None)
}

/// Replay `db` through `selector` across `threads` worker threads. Produces
/// the same [`ReplayStats`] as [`replay`] on the same trace and a fresh
/// selector — byte-identical, floats included (see the module docs for the
/// argument); only wall-clock differs.
#[allow(clippy::too_many_arguments)]
pub fn replay_concurrent(
    topo: &Topology,
    routing: &RoutingTable,
    latmap: &LatencyMap,
    catalog: &ConfigCatalog,
    db: &CallRecordsDb,
    selector: &RealtimeSelector,
    cfg: &ReplayConfig,
    threads: usize,
) -> ReplayReport {
    replay_impl(
        topo,
        routing,
        latmap,
        catalog,
        db,
        selector,
        cfg,
        Some(threads),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{all_at, db_of, record};
    use sb_core::{AllocationShares, PlannedQuotas};
    use sb_net::FailureScenario;
    use sb_workload::{ConfigId, DemandMatrix};

    fn world() -> (Topology, RoutingTable, LatencyMap, ConfigCatalog, ConfigId) {
        let (topo, cat, id) = crate::testkit::world();
        let rt = RoutingTable::compute(&topo, FailureScenario::None);
        let lm = LatencyMap::from_routing(&topo, &rt);
        (topo, rt, lm, cat, id)
    }

    #[test]
    fn no_migration_when_plan_matches_closest() {
        let (topo, rt, lm, cat, id) = world();
        let jp = topo.country_by_name("JP");
        let tokyo = topo.dc_by_name("Tokyo");
        let db = db_of(&cat, (0..10).map(|i| record(i, id, i, 30, jp)));
        let quotas = all_at(id, tokyo, 2, 30.0);
        let sel = RealtimeSelector::from_artifact(&lm, &PlanArtifact::seed(quotas));
        let report = replay(&topo, &rt, &lm, &cat, &db, &sel, &ReplayConfig::default());
        assert_eq!(report.calls, 10);
        assert_eq!(report.selector.migrations, 0);
        assert_eq!(report.selector.unplanned, 0);
        assert_eq!(report.per_dc_tallies[tokyo.index()], 10);
        // all compute lands at Tokyo
        assert!(report.peaks.cores[tokyo.index()] > 0.0);
        let others: f64 = report
            .peaks
            .cores
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != tokyo.index())
            .map(|(_, v)| v)
            .sum();
        assert_eq!(others, 0.0);
        let expected_acl = lm.acl(cat.config(id), tokyo).unwrap();
        assert!((report.mean_acl_ms - expected_acl).abs() < 1e-9);
    }

    #[test]
    fn plan_on_remote_dc_forces_migrations() {
        let (topo, rt, lm, cat, id) = world();
        let jp = topo.country_by_name("JP");
        let pune = topo.dc_by_name("Pune");
        let db = db_of(&cat, (0..10).map(|i| record(i, id, 0, 30, jp)));
        let quotas = all_at(id, pune, 1, 10.0);
        let sel = RealtimeSelector::from_artifact(&lm, &PlanArtifact::seed(quotas));
        let report = replay(&topo, &rt, &lm, &cat, &db, &sel, &ReplayConfig::default());
        assert_eq!(report.selector.migrations, 10);
        assert!((report.selector.migration_rate() - 1.0).abs() < 1e-12);
        // compute appears at both the initial (pre-freeze) and final DCs
        let tokyo = topo.dc_by_name("Tokyo");
        assert!(report.peaks.cores[tokyo.index()] > 0.0);
        assert!(report.peaks.cores[pune.index()] > 0.0);
    }

    #[test]
    fn peak_accounting_counts_concurrency() {
        let (topo, rt, lm, cat, id) = world();
        let jp = topo.country_by_name("JP");
        let tokyo = topo.dc_by_name("Tokyo");
        let mut db = CallRecordsDb::new(cat.clone());
        // 5 concurrent calls, then 5 disjoint calls
        for i in 0..5 {
            db.push(record(i, id, 0, 30, jp));
        }
        for i in 0..5 {
            db.push(record(100 + i, id, 100 + 40 * i, 30, jp));
        }
        let quotas = all_at(id, tokyo, 10, 10.0);
        let sel = RealtimeSelector::from_artifact(&lm, &PlanArtifact::seed(quotas));
        let report = replay(&topo, &rt, &lm, &cat, &db, &sel, &ReplayConfig::default());
        let cl = cat.config(id).compute_load();
        assert!((report.peaks.cores[tokyo.index()] - 5.0 * cl).abs() < 1e-9);
    }

    #[test]
    fn violations_detected_against_tight_capacity() {
        let (topo, rt, lm, cat, id) = world();
        let jp = topo.country_by_name("JP");
        let tokyo = topo.dc_by_name("Tokyo");
        let db = db_of(&cat, (0..4).map(|i| record(i, id, 0, 20, jp)));
        let quotas = all_at(id, tokyo, 1, 4.0);
        let sel = RealtimeSelector::from_artifact(&lm, &PlanArtifact::seed(quotas));
        let mut cap = ProvisionedCapacity::zero(&topo);
        cap.cores = vec![0.01; topo.dcs.len()];
        cap.gbps = vec![1e9; topo.links.len()];
        let cfg = ReplayConfig {
            capacity: Some(cap),
            ..Default::default()
        };
        let report = replay(&topo, &rt, &lm, &cat, &db, &sel, &cfg);
        assert!(report.capacity_violations > 0);
        assert!(report.worst_overshoot > 0.0);
    }

    #[test]
    fn empty_trace() {
        let (topo, rt, lm, cat, id) = world();
        let db = CallRecordsDb::new(cat.clone());
        let quotas =
            PlannedQuotas::from_plan(&AllocationShares::new(1), &DemandMatrix::zero(1, 1, 30, 0));
        let _ = id;
        let sel = RealtimeSelector::from_artifact(&lm, &PlanArtifact::seed(quotas));
        let report = replay(&topo, &rt, &lm, &cat, &db, &sel, &ReplayConfig::default());
        assert_eq!(report.calls, 0);
        assert_eq!(report.mean_acl_ms, 0.0);
    }

    /// The in-module smoke version of the differential property; the full
    /// seeded-workload differential lives in `tests/replay_differential.rs`.
    #[test]
    fn concurrent_drive_matches_serial_on_contended_pools() {
        let (topo, rt, lm, cat, id) = world();
        let jp = topo.country_by_name("JP");
        let tokyo = topo.dc_by_name("Tokyo");
        let pune = topo.dc_by_name("Pune");
        let mut db = CallRecordsDb::new(cat.clone());
        // quota forces the pool to run dry mid-trace → decisions depend on
        // freeze order within the pool, the hard case for the phased drive
        for i in 0..40 {
            db.push(record(i, id, i % 7, 30, jp));
        }
        let mut shares = AllocationShares::new(2);
        let mut demand = DemandMatrix::zero(1, 2, 30, 0);
        shares.set(id, 0, vec![(tokyo, 0.4), (pune, 0.6)]);
        demand.set(id, 0, 25.0);
        let quotas = PlannedQuotas::from_plan(&shares, &demand);
        let serial = {
            let sel = RealtimeSelector::from_artifact(&lm, &PlanArtifact::seed(quotas.clone()));
            replay(&topo, &rt, &lm, &cat, &db, &sel, &ReplayConfig::default())
        };
        for threads in [1, 4] {
            let sel = RealtimeSelector::from_artifact(&lm, &PlanArtifact::seed(quotas.clone()));
            let conc = replay_concurrent(
                &topo,
                &rt,
                &lm,
                &cat,
                &db,
                &sel,
                &ReplayConfig::default(),
                threads,
            );
            assert_eq!(serial.stats(), conc.stats(), "threads={threads}");
        }
        // sanity: the workload actually exercises pool contention
        assert!(serial.selector.migrations > 0 || serial.selector.overflow > 0);
    }
}
