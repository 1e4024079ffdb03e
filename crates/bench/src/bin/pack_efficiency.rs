//! Packing-efficiency bench for the two-level placement: seeded APAC day
//! traces are replayed with the intra-DC packing leg enabled under the
//! `BestFit` and `GrowthAware` online policies, and each run reports how
//! many servers the policy touched, the intra-DC migration rate (forced +
//! proactive repacks + evictions per 1 000 placements), and growth
//! rejections — against an offline best-fit-decreasing lower bound packed
//! on the trace's global peak-concurrency snapshot (DC boundaries relaxed,
//! so it lower-bounds any online policy).
//!
//! Usage: `pack_efficiency [--smoke] [--json <path>]`
//!
//! `--smoke` shrinks the workloads and additionally asserts the 8-thread
//! concurrent replay's packing tallies are bitwise-identical to the serial
//! oracle — it is the CI gate for the packing leg. The full run writes
//! `BENCH_pack.json` and `results/pack_efficiency.txt`.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sb_bench::common::json_path_from_args;
use sb_core::formulation::ScenarioData;
use sb_core::{AllocationShares, PlanArtifact, PlannedQuotas, RealtimeSelector};
use sb_net::{FailureScenario, Topology};
use sb_pack::{
    best_fit_decreasing, CostModel, FleetSpec, GrowthConfig, GrowthModel, PackPolicy, PackerConfig,
    ServerClass,
};
use sb_sim::{replay, replay_concurrent, PackSetup, ReplayConfig, ReplayReport};
use sb_workload::{
    CallRecord, CallRecordsDb, ConfigCatalog, Generator, UniverseParams, WorkloadParams,
};

struct World {
    name: &'static str,
    topo: Topology,
    catalog: ConfigCatalog,
    db: CallRecordsDb,
    artifact: PlanArtifact,
}

/// A seeded APAC day: sampled trace + a synthetic plan spreading each
/// planned config across every DC (same construction as the replay
/// differential tests and the crash drill).
fn world(
    name: &'static str,
    seed: u64,
    daily_calls: f64,
    coverage: f64,
    quota_scale: f64,
) -> World {
    let topo = sb_net::presets::apac();
    let params = WorkloadParams {
        universe: UniverseParams {
            num_configs: 250,
            seed,
            ..Default::default()
        },
        daily_calls,
        slot_minutes: 120,
        seed,
        ..Default::default()
    };
    let generator = Generator::new(&topo, params);
    let day = 2;
    let expected = generator.expected_demand(day, 1);
    let selected = expected.top_configs_covering(coverage);
    let planned = expected.filtered(&selected).scaled(quota_scale);
    let db = generator.sample_records(day, 1, seed);

    let slots = planned.num_slots();
    let mut shares = AllocationShares::new(slots);
    let n = topo.dcs.len() as f64;
    let spread: Vec<_> = topo.dc_ids().map(|d| (d, 1.0 / n)).collect();
    for &cfg in &selected {
        for s in 0..slots {
            shares.set(cfg, s, spread.clone());
        }
    }
    let quotas = PlannedQuotas::from_plan(&shares, &planned);
    World {
        name,
        catalog: generator.universe().catalog.clone(),
        topo,
        db,
        artifact: PlanArtifact::seed(quotas),
    }
}

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

fn run(w: &World, rcfg: &ReplayConfig) -> ReplayReport {
    let sd0 = ScenarioData::compute(&w.topo, FailureScenario::None);
    let selector = RealtimeSelector::from_artifact(&sd0.latmap, &w.artifact);
    replay(
        &w.topo,
        &sd0.routing,
        &sd0.latmap,
        &w.catalog,
        &w.db,
        &selector,
        rcfg,
    )
}

fn run_concurrent(w: &World, rcfg: &ReplayConfig, threads: usize) -> ReplayReport {
    let sd0 = ScenarioData::compute(&w.topo, FailureScenario::None);
    let selector = RealtimeSelector::from_artifact(&sd0.latmap, &w.artifact);
    replay_concurrent(
        &w.topo,
        &sd0.routing,
        &sd0.latmap,
        &w.catalog,
        &w.db,
        &selector,
        rcfg,
        threads,
    )
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

struct PolicyResult {
    world: &'static str,
    policy: &'static str,
    placed: u64,
    migrations: u64,
    migr_per_1k: f64,
    grow_rejections: u64,
    servers_touched: usize,
    wall: Duration,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let json_path = json_path_from_args("BENCH_pack.json");
    let calls_scale = if smoke { 0.15 } else { 1.0 };

    // the four seeded workloads of the replay differential suite: ample
    // quota, quota pressure, capacity-checked, and the chaos seed
    let worlds = [
        world("ample", 11, 6_000.0 * calls_scale, 0.95, 1.3),
        world("pressure", 23, 8_000.0 * calls_scale, 0.90, 0.4),
        world("capacity", 37, 5_000.0 * calls_scale, 0.92, 1.0),
        world("chaos-seed", 53, 5_000.0 * calls_scale, 0.92, 1.2),
    ];
    let policies = [
        ("best-fit", PackPolicy::BestFit),
        ("growth-aware", PackPolicy::GrowthAware),
    ];

    let cost = CostModel::default();
    let mut results: Vec<PolicyResult> = Vec::new();
    let mut baselines: Vec<(&'static str, u64, usize, usize, usize, f64)> = Vec::new();
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
        let peak_util = peak_mcpu as f64 / fleet_cap as f64;
        baselines.push((
            w.name,
            peak_mcpu,
            snapshot.len(),
            bfd_servers,
            bfd_dropped,
            peak_util,
        ));
        eprintln!(
            "world {}: {} calls, peak {} mcpu across {} live calls -> BFD lower bound {} servers \
             ({} dropped, peak util {:.1}%)",
            w.name,
            w.db.len(),
            peak_mcpu,
            snapshot.len(),
            bfd_servers,
            bfd_dropped,
            peak_util * 100.0
        );

        for &(pname, policy) in &policies {
            let started = Instant::now();
            let rcfg = packed_config(w, policy);
            let rep = run(w, &rcfg);
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
            if smoke {
                let rep8 = run_concurrent(w, &rcfg, 8);
                assert_eq!(
                    rep8.pack, rep.pack,
                    "world {} policy {pname}: 8-thread packing tallies diverged from serial",
                    w.name
                );
            }
            let servers_touched = pack.per_server_peak_mcpu.iter().filter(|&&p| p > 0).count();
            let migrations = pack.stats.intra_dc_migrations();
            results.push(PolicyResult {
                world: w.name,
                policy: pname,
                placed: pack.stats.placed,
                migrations,
                migr_per_1k: migrations as f64 * 1_000.0 / pack.stats.placed as f64,
                grow_rejections: pack.stats.grow_rejections,
                servers_touched,
                wall: started.elapsed(),
            });
        }
    }

    println!("== Packing efficiency: online policies vs offline BFD lower bound ==\n");
    println!(
        "fleet: per DC 4x32000 + 8x8000 mcpu; BFD packs the global peak-concurrency \
         snapshot with DC boundaries relaxed\n"
    );
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            let bfd = baselines
                .iter()
                .find(|b| b.0 == r.world)
                .map(|b| b.3)
                .unwrap_or(0);
            vec![
                r.world.to_string(),
                r.policy.to_string(),
                r.placed.to_string(),
                r.migrations.to_string(),
                format!("{:.1}", r.migr_per_1k),
                r.grow_rejections.to_string(),
                r.servers_touched.to_string(),
                bfd.to_string(),
                format!("{:.2}", r.wall.as_secs_f64()),
            ]
        })
        .collect();
    sb_bench::common::print_table(
        &[
            "world", "policy", "placed", "migr", "migr/1k", "grow-rej", "servers", "bfd-lb",
            "wall(s)",
        ],
        &rows,
    );

    // machine-readable dump
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"pack_efficiency\",\n");
    out.push_str("  \"topology\": \"apac\",\n");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    out.push_str("  \"violations\": 0,\n");
    out.push_str("  \"baselines\": [\n");
    for (i, b) in baselines.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"world\": \"{}\", \"peak_mcpu\": {}, \"peak_calls\": {}, \
             \"bfd_servers\": {}, \"bfd_dropped\": {}, \"peak_util\": {:.4}}}{}",
            b.0,
            b.1,
            b.2,
            b.3,
            b.4,
            b.5,
            if i + 1 < baselines.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n");
    out.push_str("  \"policies\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"world\": \"{}\", \"policy\": \"{}\", \"placed\": {}, \
             \"migrations\": {}, \"migr_per_1k\": {:.2}, \"grow_rejections\": {}, \
             \"servers_touched\": {}, \"wall_s\": {:.3}}}{}",
            r.world,
            r.policy,
            r.placed,
            r.migrations,
            r.migr_per_1k,
            r.grow_rejections,
            r.servers_touched,
            r.wall.as_secs_f64(),
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    match std::fs::write(&json_path, &out) {
        Ok(()) => eprintln!("wrote {json_path}"),
        Err(e) => {
            eprintln!("failed to write {json_path}: {e}");
            std::process::exit(1);
        }
    }
    if !smoke {
        let mut txt = String::new();
        let _ = writeln!(
            txt,
            "Packing efficiency — online BestFit / GrowthAware vs offline BFD lower bound\n"
        );
        let _ = writeln!(
            txt,
            "{:<12} {:<14} {:>7} {:>6} {:>8} {:>9} {:>8} {:>7} {:>8}",
            "world",
            "policy",
            "placed",
            "migr",
            "migr/1k",
            "grow-rej",
            "servers",
            "bfd-lb",
            "wall(s)"
        );
        for r in &results {
            let bfd = baselines
                .iter()
                .find(|b| b.0 == r.world)
                .map(|b| b.3)
                .unwrap_or(0);
            let _ = writeln!(
                txt,
                "{:<12} {:<14} {:>7} {:>6} {:>8.1} {:>9} {:>8} {:>7} {:>8.2}",
                r.world,
                r.policy,
                r.placed,
                r.migrations,
                r.migr_per_1k,
                r.grow_rejections,
                r.servers_touched,
                bfd,
                r.wall.as_secs_f64()
            );
        }
        let _ = writeln!(
            txt,
            "\nBFD packs the global peak-concurrency snapshot with DC boundaries relaxed \
             (a lower bound on any online policy); every run had 0 capacity violations."
        );
        if let Err(e) = std::fs::write("results/pack_efficiency.txt", txt) {
            eprintln!("failed to write results/pack_efficiency.txt: {e}");
        } else {
            eprintln!("wrote results/pack_efficiency.txt");
        }
    }
}
