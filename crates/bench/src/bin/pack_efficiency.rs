//! Packing-efficiency bench for the two-level placement: seeded APAC day
//! traces are replayed with the intra-DC packing leg enabled under the
//! `BestFit` and `GrowthAware` online policies, and each run reports how
//! many servers the policy touched, the intra-DC migration rate (forced +
//! proactive repacks + evictions per 1 000 placements), and growth
//! rejections — against an offline best-fit-decreasing lower bound packed
//! on the trace's global peak-concurrency snapshot (DC boundaries relaxed,
//! so it lower-bounds any online policy).
//!
//! Usage: `pack_efficiency [--json <path> | --check <path>]`
//!
//! Every run also asserts the 8-thread concurrent replay's packing tallies
//! are bitwise-identical to the serial oracle. `--json` records
//! `BENCH_pack.json` and `results/pack_efficiency.txt`, `--check` compares
//! the counts with the committed file ([`sb_bench::report`]).

use std::sync::Arc;
use std::time::Instant;

use sb_bench::common::{seeded_worlds, SeededWorld as World};
use sb_bench::report::{Mode, Report};
use sb_core::formulation::ScenarioData;
use sb_core::RealtimeSelector;
use sb_net::FailureScenario;
use sb_pack::{
    best_fit_decreasing, CostModel, FleetSpec, GrowthConfig, GrowthModel, PackPolicy, PackerConfig,
    ServerClass,
};
use sb_sim::{replay, replay_concurrent, PackSetup, ReplayConfig, ReplayReport};
use sb_workload::CallRecord;

/// The bench fleet: per DC, 4 large boxes plus 8 small ones — enough
/// heterogeneity that best-fit and growth-aware scoring genuinely diverge.
fn fleet(dcs: usize) -> FleetSpec {
    FleetSpec::heterogeneous(
        dcs,
        &[
            ServerClass {
                count: 4,
                capacity_mcpu: 32_000,
            },
            ServerClass {
                count: 8,
                capacity_mcpu: 8_000,
            },
        ],
    )
}

fn packed_config(w: &World, policy: PackPolicy) -> ReplayConfig {
    ReplayConfig {
        pack: Some(Arc::new(PackSetup {
            spec: fleet(w.topo.dcs.len()),
            packer: PackerConfig {
                policy,
                hysteresis_mcpu: 256,
                max_evictions: 4,
            },
            cost: CostModel::default(),
            growth: Some(GrowthModel::fit(&w.db, GrowthConfig::default())),
            server_deaths: Vec::new(),
        })),
        ..Default::default()
    }
}

/// Replay `w` under `rcfg`: the serial oracle, or `threads` workers.
fn run(w: &World, rcfg: &ReplayConfig, threads: Option<usize>) -> ReplayReport {
    let sd0 = ScenarioData::compute(&w.topo, FailureScenario::None);
    let selector = RealtimeSelector::from_artifact(&sd0.latmap, &w.artifact);
    let (routing, latmap, catalog) = (&sd0.routing, &sd0.latmap, w.db.catalog());
    match threads {
        None => replay(&w.topo, routing, latmap, catalog, &w.db, &selector, rcfg),
        Some(n) => replay_concurrent(&w.topo, routing, latmap, catalog, &w.db, &selector, rcfg, n),
    }
}

/// Per-call costs live at the minute of peak total demand, mirroring the
/// packing pass's cost accounting (place at 1 participant, each later join
/// offset bumps the charge, remove at end-of-call). Returns the peak total
/// in mcpu alongside the snapshot.
fn peak_snapshot(records: &[CallRecord], cost: &CostModel) -> (u64, Vec<u32>) {
    const OP_PLACE: u8 = 1;
    const OP_GROW: u8 = 2;
    const OP_REMOVE: u8 = 4;
    let mut ops: Vec<(u64, u8, usize)> = Vec::with_capacity(records.len() * 3);
    for (i, r) in records.iter().enumerate() {
        ops.push((r.start_minute, OP_PLACE, i));
        for &off in r.join_offsets_s.iter().skip(1) {
            let minute = (r.start_minute + (off / 60) as u64).min(r.end_minute());
            ops.push((minute, OP_GROW, i));
        }
        ops.push((r.end_minute(), OP_REMOVE, i));
    }
    ops.sort_unstable_by_key(|&(t, k, i)| (t, k, i));

    let mut parts = vec![0u32; records.len()];
    let mut total = 0u64;
    let mut best = 0u64;
    let mut best_idx = 0usize;
    for (idx, &(_, k, i)) in ops.iter().enumerate() {
        match k {
            OP_PLACE => {
                parts[i] = 1;
                total += cost.cost_mcpu(1) as u64;
            }
            OP_GROW => {
                let old = cost.cost_mcpu(parts[i]);
                parts[i] += 1;
                total += (cost.cost_mcpu(parts[i]) - old) as u64;
            }
            _ => {
                total -= cost.cost_mcpu(parts[i]) as u64;
                parts[i] = 0;
            }
        }
        if total > best {
            best = total;
            best_idx = idx;
        }
    }

    let mut parts = vec![0u32; records.len()];
    for &(_, k, i) in &ops[..=best_idx] {
        match k {
            OP_PLACE => parts[i] = 1,
            OP_GROW => parts[i] += 1,
            _ => parts[i] = 0,
        }
    }
    let snapshot = parts
        .iter()
        .filter(|&&p| p > 0)
        .map(|&p| cost.cost_mcpu(p))
        .collect();
    (best, snapshot)
}

fn main() {
    let mode = Mode::from_args();
    let worlds = seeded_worlds();
    let policies = [
        ("best-fit", PackPolicy::BestFit),
        ("growth-aware", PackPolicy::GrowthAware),
    ];

    let cost = CostModel::default();
    let mut report = Report::new("pack_efficiency");
    report
        .counts
        .label("topology", "apac")
        .label("fleet", "per DC 4x32000 + 8x8000 mcpu")
        // asserted per run below
        .int("violations", 0);
    for w in &worlds {
        // offline lower bound: BFD over the peak-concurrency snapshot with
        // DC boundaries relaxed (one fleet-wide pool of servers)
        let spec = fleet(w.topo.dcs.len());
        let flat_caps: Vec<u32> = w
            .topo
            .dc_ids()
            .flat_map(|d| spec.capacities(d).to_vec())
            .collect();
        let (peak_mcpu, snapshot) = peak_snapshot(w.db.records(), &cost);
        let (bfd_servers, bfd_dropped) = best_fit_decreasing(&flat_caps, &snapshot);
        let fleet_cap: u64 = flat_caps.iter().map(|&c| c as u64).sum();
        report
            .counts
            .row("baselines")
            .row(w.name)
            .int("peak_mcpu", peak_mcpu)
            .int("peak_calls", snapshot.len() as u64)
            .int("bfd_servers", bfd_servers as u64)
            .int("bfd_dropped", bfd_dropped as u64)
            .fixed("peak_util", peak_mcpu as f64 / fleet_cap as f64, 4);

        for &(pname, policy) in &policies {
            let started = Instant::now();
            let rcfg = packed_config(w, policy);
            let rep = run(w, &rcfg, None);
            let wall = started.elapsed();
            let pack = rep.pack.as_ref().expect("packing leg was enabled");
            assert_eq!(
                pack.violations, 0,
                "world {} policy {pname}: packer overcommitted a live server",
                w.name
            );
            assert!(
                pack.stats.placed > 0,
                "world {} policy {pname}: packing leg never placed a call",
                w.name
            );
            let rep8 = run(w, &rcfg, Some(8));
            assert_eq!(
                rep8.pack, rep.pack,
                "world {} policy {pname}: 8-thread packing tallies diverged from serial",
                w.name
            );
            let migrations = pack.stats.intra_dc_migrations();
            let servers_touched = pack.per_server_peak_mcpu.iter().filter(|&&p| p > 0).count();
            let row = format!("{}/{pname}", w.name);
            report
                .counts
                .row("policies")
                .row(&row)
                .int("placed", pack.stats.placed)
                .int("migrations", migrations)
                .fixed(
                    "migr_per_1k",
                    migrations as f64 * 1_000.0 / pack.stats.placed as f64,
                    2,
                )
                .int("grow_rejections", pack.stats.grow_rejections)
                .int("servers_touched", servers_touched as u64);
            report
                .host
                .row("policies")
                .row(&row)
                .fixed("wall_s", wall.as_secs_f64(), 3);
        }
    }
    report.finish(&mode);
}
