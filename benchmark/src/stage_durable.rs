//! `durable` stage: admit/join/freeze/end through a journaled, packing
//! engine, then `Engine::recover` from the log the drive wrote.
//!
//! sb-pack, `WalRecord::encode` and the sb-store journal dominate here while
//! the selector is a minority; recovery *reads* what the drive *wrote*, so a
//! WAL change that buys append speed with recovery time shows in `recover_s`.
//! The gate: the recovered engine's selector stats, per-DC tallies, pack
//! state and admitted/ended counts equal the live engine's, and recovery saw
//! every appended record.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sb_core::FreezeDecision;
use sb_engine::wal::NO_DC;
use sb_engine::{Engine, EngineConfig, EnginePackConfig, EngineWorker, WalRecord};
use sb_net::{CountryId, DcId};
use sb_pack::{
    CostModel, FleetPacker, FleetSpec, GrowthModel, PackStateExport, PackerConfig, ServerClass,
};
use sb_store::{Journal, JournalConfig};
use sb_workload::ConfigId;

use crate::events::{push_call_events, sort_events, Ev, K_FREEZE, K_JOIN, K_START};
use crate::harness::{latency_percentiles, timed_setup, ObsDelta, Opts, Report, StagePasses};
use crate::json::obj;
use crate::spec::ServeSize;
use crate::stage_bare::{
    add_serve_layer, admitted, timed_op, OpLatencies, SERVE_COUNTERS, SERVE_HISTS,
};
use crate::stats::median;
use crate::world::{serve_world, ServeWorld, SERVE_SLOT_MINUTES};

/// Fewest timed passes of a plain run (what a probe-size stage runs).
const PROBE_PASSES: usize = 12;

/// Participants the flat growth model reserves beyond the current count.
pub const RESERVE_EXTRA: u32 = 2;
/// Fleet capacity over the trace's peak reserved load, per DC.
pub const FLEET_HEADROOM: f64 = 1.3;

/// Group commit of the benchmark's journals: a sync every 65,536 records
/// (~2.5 MB) and never by age. The journal default (64 records or 5 ms) makes
/// the drive wait on ~35,000 `fdatasync` calls of ~0.2 ms each on this box's
/// disk — several times the program's own work, so the figure would follow
/// the sandbox's disk, not the code. And every such wait gives the core
/// away: on a busy host the thread gets it back a scheduling slice (4 ms)
/// later, so the cost of a sync is the host's load, not the disk's. WAL
/// files must live inside the checkout (the driver allows no other writes),
/// so the benchmark batches wide instead of moving to tmpfs — some thirty
/// syncs in a full-size durable pass, eighty in a full-size chain pass, next
/// to the eager one of every plan install; the age trigger is off so
/// `journal.syncs` repeats exactly.
pub fn journal_config() -> JournalConfig {
    JournalConfig {
        group_commit: Duration::from_secs(3600),
        sync_every: 65_536,
    }
}

/// `sb_obs` counters read around a traced packing pass.
pub const PACK_COUNTERS: [&str; 4] = [
    "pack.placed",
    "pack.placement_failures",
    "pack.intra_dc_migrations",
    "pack.grow_rejections",
];

/// Fold one traced pass's packer counter increases into the per-layer
/// metrics.
pub fn add_pack_layer(rep: &mut Report, d: &std::collections::BTreeMap<&'static str, u64>) {
    for name in PACK_COUNTERS {
        rep.layer_add(name, d.get(name).copied().unwrap_or(0) as f64);
    }
}

/// Reserved charge of a call with `participants`, as the engine computes it
/// under `GrowthModel::flat(RESERVE_EXTRA)`.
fn reserve_mcpu(cost: &CostModel, participants: u32) -> u32 {
    cost.cost_mcpu(participants + RESERVE_EXTRA)
}

/// A heterogeneous fleet (large 32-core and small 8-core servers, capacity
/// split evenly between the classes) covering `FLEET_HEADROOM ×` each DC's
/// peak reserved load.
pub fn fleet_for(peak_mcpu: &[u64]) -> FleetSpec {
    const BIG: u32 = 32_000;
    const SMALL: u32 = 8_000;
    let mut spec = FleetSpec::empty(peak_mcpu.len());
    for (d, &peak) in peak_mcpu.iter().enumerate() {
        let target = (peak as f64 * FLEET_HEADROOM).ceil() as u64;
        let half = target.div_ceil(2);
        let classes = [
            ServerClass {
                count: half.div_ceil(BIG as u64).max(1) as u16,
                capacity_mcpu: BIG,
            },
            ServerClass {
                count: half.div_ceil(SMALL as u64).max(1) as u16,
                capacity_mcpu: SMALL,
            },
        ];
        for c in classes {
            for _ in 0..c.count {
                spec.push_server(DcId(d as u16), c.capacity_mcpu);
            }
        }
    }
    spec
}

/// The engine's pack configuration over `spec`.
pub fn pack_config(spec: FleetSpec) -> EnginePackConfig {
    EnginePackConfig {
        spec,
        packer: PackerConfig::default(),
        cost: CostModel::default(),
        growth: Some(GrowthModel::flat(RESERVE_EXTRA)),
    }
}

/// WAL path of this process for `tag` inside `dir`.
pub fn wal_path(dir: &Path, tag: &str) -> PathBuf {
    dir.join(format!("sb-benchmark-{}-{tag}.wal", std::process::id()))
}

struct Setup {
    world: ServeWorld,
    events: Vec<Ev>,
    cfg: EngineConfig,
    /// Second at which the trace's reserved load peaks (utilization is
    /// sampled there).
    peak_t: u64,
    peak_mcpu: Vec<u64>,
}

fn setup(size: &ServeSize, seed: u64) -> Setup {
    let world = serve_world(size, seed);
    let freeze_minutes = sb_sim::ReplayConfig::default().freeze_minutes;
    let mut events = Vec::with_capacity(world.db.len() * 6);
    for r in world.db.records() {
        push_call_events(
            &mut events,
            r,
            world.db.catalog().config(r.config),
            freeze_minutes,
        );
    }
    sort_events(&mut events);

    // dry run on a bare engine: where does each call sit, and what does each
    // DC's reserved load peak at? (Selector decisions do not depend on the
    // packer, so the real passes place calls at the same DCs.)
    let cost = CostModel::default();
    let n_dcs = world.topo.dcs.len();
    let mut cur = vec![0u64; n_dcs];
    let mut peak = vec![0u64; n_dcs];
    let (mut total_peak, mut peak_t) = (0u64, 0u64);
    {
        let engine = Engine::new(&world.sd0.latmap, &world.artifact, &EngineConfig::default());
        let mut worker = engine.worker();
        let mut state: HashMap<u64, (usize, u32)> = HashMap::new();
        for e in &events {
            match e.kind {
                K_START => {
                    if let Some(dc) = worker.admit(e.call, CountryId(e.arg as u16)).dc() {
                        state.insert(e.call, (dc.index(), 1));
                        cur[dc.index()] += reserve_mcpu(&cost, 1) as u64;
                    }
                }
                K_JOIN => {
                    if let Some((dc, p)) = state.get_mut(&e.call) {
                        cur[*dc] -= reserve_mcpu(&cost, *p) as u64;
                        *p += 1;
                        cur[*dc] += reserve_mcpu(&cost, *p) as u64;
                    }
                }
                K_FREEZE => {
                    let Some((dc, p)) = state.get_mut(&e.call) else {
                        continue;
                    };
                    let dec = worker.freeze(e.call, ConfigId(e.arg), e.start_minute);
                    if let Some(to) = dec.final_dc() {
                        let r = reserve_mcpu(&cost, *p) as u64;
                        cur[*dc] -= r;
                        *dc = to.index();
                        cur[*dc] += r;
                    }
                }
                _ => {
                    worker.end(e.call);
                    if let Some((dc, p)) = state.remove(&e.call) {
                        cur[dc] -= reserve_mcpu(&cost, p) as u64;
                    }
                }
            }
            for (p, &c) in peak.iter_mut().zip(&cur) {
                *p = (*p).max(c);
            }
            let total: u64 = cur.iter().sum();
            if total > total_peak {
                (total_peak, peak_t) = (total, e.t);
            }
        }
    }
    let cfg = EngineConfig {
        pack: Some(pack_config(fleet_for(&peak))),
        ..EngineConfig::default()
    };
    Setup {
        world,
        events,
        cfg,
        peak_t,
        peak_mcpu: peak,
    }
}

/// Events between two readings of the host's clock: ~0.1 s of a durable
/// drive, so a full-size pass (~2 s) is normalized in some fifteen segments.
pub const CHUNK_EVENTS: usize = 100_000;

/// Issue `events` to `worker` in order, calling `between_chunks` after every
/// [`CHUNK_EVENTS`], and return `(ops, failed,
/// utilization)`; with `TRACED` every call is timed and the packer's
/// utilization is sampled once, at `sample_at`. Freezes are gated on the call being
/// live, as in the bare stage; joins are only ever scheduled while their
/// call is live (see [`crate::events`]), except for calls whose admission
/// failed, which are remembered and skipped.
pub fn drive_events<const TRACED: bool>(
    engine: &Engine,
    worker: &mut EngineWorker<'_>,
    events: &[Ev],
    lat: &mut OpLatencies,
    sample_at: u64,
    mut between_chunks: impl FnMut(),
) -> (u64, u64, f64) {
    let (mut ops, mut failed, mut utilization) = (0u64, 0u64, f64::NAN);
    let mut dead: Vec<u64> = Vec::new();
    for (n, e) in events.iter().enumerate() {
        if n % CHUNK_EVENTS == 0 && n > 0 {
            between_chunks();
        }
        if TRACED && utilization.is_nan() && e.t > sample_at {
            utilization = engine.packer().map_or(0.0, FleetPacker::utilization);
        }
        match e.kind {
            K_START => {
                let a = timed_op::<TRACED, _>(&mut lat.admit, || {
                    worker.admit(e.call, CountryId(e.arg as u16))
                });
                if !admitted(a) {
                    failed += 1;
                    dead.push(e.call);
                }
            }
            K_JOIN => {
                if !dead.is_empty() && dead.contains(&e.call) {
                    continue;
                }
                timed_op::<TRACED, _>(&mut lat.join, || {
                    worker.join(e.call, CountryId(e.arg as u16))
                });
            }
            K_FREEZE => {
                if worker.current_dc(e.call).is_none() {
                    continue;
                }
                let dec = timed_op::<TRACED, _>(&mut lat.freeze, || {
                    worker.freeze(e.call, ConfigId(e.arg), e.start_minute)
                });
                if dec == FreezeDecision::UnknownCall {
                    failed += 1;
                }
            }
            _ => timed_op::<TRACED, _>(&mut lat.end, || worker.end(e.call)),
        }
        ops += 1;
    }
    (ops, failed, utilization)
}

/// What must be equal between the live engine and the one recovered from
/// its journal.
#[derive(PartialEq, Debug)]
struct EngineDigest {
    selector: sb_core::SelectorStats,
    tallies: Vec<u64>,
    pack: Option<PackStateExport>,
    admitted: u64,
    ended: u64,
}

fn digest(engine: &Engine) -> EngineDigest {
    let stats = engine.stats();
    EngineDigest {
        selector: stats.selector,
        tallies: engine.per_dc_tallies(),
        pack: engine.export_pack_state(),
        admitted: stats.admitted,
        ended: stats.ended,
    }
}

/// The layer-alone passes of a traced run, over the journal at `path`.
fn traced_extras(s: &Setup, path: &Path, alone_path: &Path, recover_s: f64, rep: &mut Report) {
    let Some(pack) = &s.cfg.pack else { return };
    let (scan, scan_s) = rep.spans.time("recover.scan", || Journal::scan(path));
    let Ok(scan) = scan else {
        rep.gate("durable: journal scans", false, "scan failed");
        return;
    };
    let (decoded, decode_s) = rep.spans.time("recover.decode", || {
        scan.records
            .iter()
            .map(|p| WalRecord::decode(p))
            .collect::<Result<Vec<_>, _>>()
    });
    let Ok(decoded) = decoded else {
        rep.gate("durable: every record decodes", false, "decode failed");
        return;
    };
    let n = decoded.len() as f64;
    rep.layer_add("recover.scan_s", scan_s);
    rep.layer_add("recover.decode_s", decode_s);
    rep.layer_add("recover.apply_share", 1.0 - (scan_s + decode_s) / recover_s);

    // WAL codec alone: re-encode what the drive journaled
    let t0 = Instant::now();
    let mut bytes = 0usize;
    for r in &decoded {
        bytes += std::hint::black_box(r.encode()).len();
    }
    let encode_s = t0.elapsed().as_secs_f64();
    rep.layer_add("wal.encode_ns_per_record", encode_s * 1e9 / n);
    std::hint::black_box(bytes);

    // journal alone: append the same payloads to a fresh file
    let t0 = Instant::now();
    let alone = Journal::create(alone_path, journal_config()).and_then(|j| {
        for p in &scan.records {
            j.append(p)?;
        }
        j.sync()
    });
    let journal_s = t0.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(alone_path);
    rep.gate(
        "durable: journal-alone pass wrote every record",
        alone.is_ok(),
        "",
    );
    rep.layer_add("journal.alone_records_per_s", n / journal_s);

    // packer alone: the placement ops the journal implies, in order
    let mut walls = Vec::new();
    let (mut pack_ops, mut placed) = (0u64, 0u64);
    for _ in 0..3 {
        let packer = FleetPacker::new(pack.spec.clone(), pack.packer);
        let mut at: HashMap<u64, DcId> = HashMap::new();
        (pack_ops, placed) = (0, 0);
        let t0 = Instant::now();
        for r in &decoded {
            match *r {
                WalRecord::Admit { call, dc, .. } if dc != NO_DC => {
                    let dc = DcId(dc);
                    at.insert(call, dc);
                    let s = packer.place(
                        dc,
                        call,
                        1,
                        pack.cost.cost_mcpu(1),
                        reserve_mcpu(&pack.cost, 1),
                    );
                    placed += s.is_some() as u64;
                }
                WalRecord::Join { call, .. } => {
                    let Some(&dc) = at.get(&call) else { continue };
                    let Some(info) = packer.call_info(dc, call) else {
                        continue;
                    };
                    let p = info.participants + 1;
                    packer.grow(
                        dc,
                        call,
                        p,
                        pack.cost.cost_mcpu(p),
                        reserve_mcpu(&pack.cost, p),
                    );
                }
                WalRecord::Freeze { call, from, to, .. } if from != NO_DC => {
                    packer.freeze(DcId(from), call);
                    if to != from {
                        packer.move_dc(DcId(from), DcId(to), call);
                        at.insert(call, DcId(to));
                    }
                }
                WalRecord::End { call } => {
                    let Some(dc) = at.remove(&call) else { continue };
                    packer.remove(dc, call);
                }
                _ => continue,
            }
            pack_ops += 1;
        }
        walls.push(t0.elapsed().as_secs_f64());
    }
    let pack_s = median(&walls);
    rep.layer_add("pack.alone_ops_per_s", pack_ops as f64 / pack_s);
    rep.layer_add(
        "pack.ns_per_placed_call",
        pack_s * 1e9 / placed.max(1) as f64,
    );
}

/// Set the stage up, hand its timed pass to `body` (which runs it
/// interleaved with the other stages' passes), then check and report.
pub fn with<R>(
    opts: &Opts,
    size: &ServeSize,
    rep: &mut Report,
    body: impl FnOnce(&mut Report, StagePasses<'_>) -> R,
) -> R {
    let (s, setup_times) = timed_setup(&mut rep.clock, || setup(size, opts.seed));
    rep.setup.insert("durable", setup_times);
    let w = &s.world;
    let path = wal_path(&opts.wal_dir, "durable");
    let alone_path = wal_path(&opts.wal_dir, "durable-alone");

    let mut walls = Vec::new();
    let mut recover_walls = Vec::new();
    let mut counts: Vec<(u64, u64, u64)> = Vec::new();
    let mut lat = OpLatencies::default();
    let mut deltas = None;
    let (mut wal_bytes, mut syncs, mut utilization) = (0u64, 0u64, f64::NAN);
    let mut write_failures = (0u64, 0u64);
    let mut one_pass = |rep: &mut Report, timed: bool, traced: bool| {
        let engine = Journal::create(&path, journal_config())
            .and_then(|j| Engine::with_journal(&w.sd0.latmap, &w.artifact, &s.cfg, j));
        let engine = match engine {
            Ok(e) => e,
            Err(e) => {
                rep.gate("durable: journal created", false, e.to_string());
                return;
            }
        };
        let mut worker = engine.worker();
        lat = OpLatencies::default();
        let obs = traced.then(|| {
            let mut c = SERVE_COUNTERS.to_vec();
            c.extend(PACK_COUNTERS);
            ObsDelta::start(&c, &SERVE_HISTS)
        });
        // in a plain run the span also covers the readings between chunks;
        // the wall that counts is the lap's
        let mut lap = rep.clock.start();
        let id = rep.spans.enter("durable.serve");
        let (ops, mut failed, util) = if traced {
            drive_events::<true>(&engine, &mut worker, &s.events, &mut lat, s.peak_t, || ())
        } else {
            drive_events::<false>(&engine, &mut worker, &s.events, &mut lat, s.peak_t, || {
                rep.clock.lap(&mut lap);
            })
        };
        worker.flush();
        engine.sync_journal();
        rep.spans.exit(id);
        rep.clock.lap(&mut lap);
        let wall = lap.total;
        if let Some(o) = obs {
            deltas = Some(o.finish());
            utilization = util;
        }
        drop(worker);

        let live = digest(&engine);
        let stats = engine.stats();
        let pack = engine.pack_stats().unwrap_or_default();
        failed += pack.placement_failures + stats.journal_failures + stats.store_write_failures;
        write_failures = (stats.journal_failures, stats.store_write_failures);
        let violations = engine.packer().map_or(0, FleetPacker::capacity_violations);
        let appended = engine.journal().map_or(0, Journal::appended_records);
        syncs = engine.journal().map_or(0, Journal::sync_count);
        let active = engine.store().active_calls();
        drop(engine);
        wal_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());

        let (recovered, recover) = rep.timed("durable.recover", || {
            Engine::recover(&w.sd0.latmap, &s.cfg, journal_config(), &path)
        });
        let recover_s = recover.raw_s;
        match recovered {
            Ok((engine2, report)) => {
                rep.gate_eq(
                    "durable: recovered engine equals the live one",
                    &digest(&engine2),
                    &live,
                );
                rep.gate_eq(
                    "durable: recovery saw every appended record",
                    &report.records,
                    &appended,
                );
            }
            Err(e) => rep.gate("durable: recovery succeeded", false, e.to_string()),
        }
        rep.gate_eq("durable: no packer capacity violation", &violations, &0);
        rep.gate_eq("durable: store drained (active_calls == 0)", &active, &0);
        if timed {
            rep.attempted += ops;
            rep.failed += failed;
            counts.push((ops, appended, pack.placed));
            if !traced {
                walls.push(wall);
                recover_walls.push(recover);
            }
        }
        if traced {
            traced_extras(&s, &path, &alone_path, recover_s, rep);
            rep.layer_add("recover.records", appended as f64);
            rep.layer_add("recover.records_per_s", appended as f64 / recover_s);
        }
        let _ = std::fs::remove_file(&path);
    };
    let out = body(
        rep,
        StagePasses {
            pass: Box::new(|rep, timed| one_pass(rep, timed, false)),
            probe: PROBE_PASSES,
            min: 3,
            max: 100,
            warm_up_primary: true,
            warm_up_every_group: false,
        },
    );
    if opts.traced {
        one_pass(rep, true, true);
    }
    let passes = walls.len();

    let Some(&(ops, appended, placed)) = counts.first() else {
        return out;
    };
    rep.gate(
        "durable: op, WAL-record and placement counts identical across passes",
        counts.iter().all(|&c| c == (ops, appended, placed)),
        format!("{:?} x {} passes", counts[0], counts.len()),
    );
    rep.e2e_push("durable_ops_per_s", &walls, |s| ops as f64 / s);
    rep.e2e_push("recover_s", &recover_walls, |s| s);
    let servers = s.cfg.pack.as_ref().map_or(0, |p| p.spec.num_servers());
    rep.sizes.push((
        "durable".into(),
        obj([
            ("topology", "apac".into()),
            ("configs", size.configs.into()),
            ("daily_calls", size.daily_calls.into()),
            ("days", (size.days as u64).into()),
            ("slot_minutes", (SERVE_SLOT_MINUTES as u64).into()),
            ("planned_configs", w.planned_configs.into()),
            ("calls", w.db.len().into()),
            ("ops", ops.into()),
            ("wal_records", appended.into()),
            ("wal_bytes", wal_bytes.into()),
            ("journal_sync_every", journal_config().sync_every.into()),
            ("fleet_servers", servers.into()),
            (
                "peak_reserved_mcpu_per_dc",
                s.peak_mcpu
                    .iter()
                    .map(|&p| p as f64)
                    .collect::<Vec<_>>()
                    .into(),
            ),
        ]),
    ));
    rep.passes.push(("durable".into(), passes.into()));

    if opts.traced {
        if let Some(d) = &deltas {
            add_serve_layer(rep, d);
            add_pack_layer(rep, d);
        }
        rep.layer_add("pack.utilization", utilization);
        rep.layer_add("wal.records", appended as f64);
        rep.layer_add("wal.bytes", wal_bytes as f64);
        rep.layer_add("journal.syncs", syncs as f64);
        rep.layer_add("engine.journal_failures", write_failures.0 as f64);
        rep.layer_add("engine.store_write_failures", write_failures.1 as f64);
        latency_percentiles(
            rep,
            "durable",
            "durable.admit_p50_ns",
            "durable.admit_p99_ns",
            &mut lat.admit,
        );
        latency_percentiles(
            rep,
            "durable",
            "durable.freeze_p50_ns",
            "durable.freeze_p99_ns",
            &mut lat.freeze,
        );
        latency_percentiles(
            rep,
            "durable",
            "durable.end_p50_ns",
            "durable.end_p99_ns",
            &mut lat.end,
        );
        latency_percentiles(
            rep,
            "durable",
            "engine.join_p50_ns",
            "engine.join_p99_ns",
            &mut lat.join,
        );
    }
    out
}
