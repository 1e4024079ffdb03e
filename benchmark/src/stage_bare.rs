//! `bare` stage: start/freeze/end through `Engine::new` with the default
//! config — no journal, no packer, no forecaster — on one `EngineWorker`.
//!
//! The op stream is [`sb_sim::replay::build_events`] verbatim, so the
//! engine's selector stats and per-DC tallies must equal the replay
//! oracle's over the same trace; that equality is the stage's gate. A
//! traced run also replays the identical stream into the selector alone and
//! the call-state store alone, which is how `engine.self_share` and
//! `engine.vs_oracle` say where the engine's time over its oracle goes.

use std::time::{Duration, Instant};

use sb_bench::load::{drive_concurrent, drive_serial, LoadSchedule};
use sb_core::{FreezeDecision, RealtimeSelector};
use sb_engine::{Admission, Engine, EngineConfig, EngineWorker};
use sb_sim::replay::{build_events, EV_FREEZE, EV_START};
use sb_sim::{replay, ReplayConfig};
use sb_store::{CallEvent, CallStateStore, LatencyHistogram};
use sb_workload::CallRecord;

use crate::harness::{latency_percentiles, timed_setup, ObsDelta, Opts, Report, StagePasses};
use crate::json::obj;
use crate::spec::ServeSize;
use crate::stats::median;
use crate::world::{serve_world, ServeWorld, SERVE_SLOT_MINUTES};

/// Fewest timed passes (what a probe-size stage runs).
const PROBE_PASSES: usize = 15;

/// `sb_obs` counters read around a traced serving pass (the durable and
/// chain stages read the same ones).
pub const SERVE_COUNTERS: [&str; 7] = [
    "realtime.assignments",
    "realtime.freezes",
    "realtime.migrations",
    "realtime.unplanned",
    "realtime.overflow",
    "realtime.stranded",
    "store.write_ops",
];
/// See [`SERVE_COUNTERS`].
pub const SERVE_HISTS: [&str; 1] = ["store.lock_wait_ns"];

/// Fold one traced pass's selector/store counter increases into the
/// per-layer metrics.
pub fn add_serve_layer(rep: &mut Report, d: &std::collections::BTreeMap<&'static str, u64>) {
    for (obs, name) in [
        ("realtime.assignments", "selector.assignments"),
        ("realtime.freezes", "selector.freezes"),
        ("realtime.migrations", "selector.migrations"),
        ("realtime.unplanned", "selector.unplanned"),
        ("realtime.overflow", "selector.overflow"),
        ("realtime.stranded", "selector.stranded"),
        ("store.write_ops", "store.write_ops"),
        ("store.lock_wait_ns", "store.lock_wait_ns"),
    ] {
        rep.layer_add(name, d.get(obs).copied().unwrap_or(0) as f64);
    }
}

/// Per-op latencies of one traced pass, ns.
#[derive(Default)]
pub struct OpLatencies {
    /// `admit` calls.
    pub admit: Vec<u32>,
    /// `join` calls.
    pub join: Vec<u32>,
    /// `freeze` calls.
    pub freeze: Vec<u32>,
    /// `end` calls.
    pub end: Vec<u32>,
}

/// Time `f` into `sink` when `TRACED`, else just run it.
#[inline(always)]
pub fn timed_op<const TRACED: bool, T>(sink: &mut Vec<u32>, f: impl FnOnce() -> T) -> T {
    if TRACED {
        let t = Instant::now();
        let out = f();
        sink.push(t.elapsed().as_nanos().min(u32::MAX as u128) as u32);
        out
    } else {
        f()
    }
}

/// Did this admission place the call? Anything else (shed, draining,
/// granted with no DC) is a failed operation.
pub fn admitted(a: Admission) -> bool {
    matches!(a, Admission::Granted(o) if o.dc().is_some())
}

struct Drive {
    ops: u64,
    failed: u64,
}

/// Events between two readings of the host's clock: ~0.1 s of a bare drive,
/// so a full-size pass (~0.75 s) is normalized in eight segments.
const CHUNK_EVENTS: usize = 200_000;

/// Issue `events` to `worker` in order, calling `between_chunks` after every
/// [`CHUNK_EVENTS`]; with `TRACED`, time every call and remember each call's
/// admitted DC (the store-alone pass replays it).
fn drive<const TRACED: bool>(
    worker: &mut EngineWorker<'_>,
    records: &[CallRecord],
    events: &[(u64, u8, usize)],
    lat: &mut OpLatencies,
    dcs: &mut [u16],
    mut between_chunks: impl FnMut(),
) -> Drive {
    let mut d = Drive { ops: 0, failed: 0 };
    for (n, &(_, kind, i)) in events.iter().enumerate() {
        if n % CHUNK_EVENTS == 0 && n > 0 {
            between_chunks();
        }
        let r = &records[i];
        match kind {
            EV_START => {
                let a =
                    timed_op::<TRACED, _>(&mut lat.admit, || worker.admit(r.id, r.first_joiner));
                if !admitted(a) {
                    d.failed += 1;
                } else if TRACED {
                    dcs[i] = a.dc().map_or(0, |dc| dc.0);
                }
                d.ops += 1;
            }
            EV_FREEZE => {
                // the oracle's gate: a call that is not live is not frozen
                if worker.current_dc(r.id).is_some() {
                    let dec = timed_op::<TRACED, _>(&mut lat.freeze, || {
                        worker.freeze(r.id, r.config, r.start_minute)
                    });
                    if dec == FreezeDecision::UnknownCall {
                        d.failed += 1;
                    }
                    d.ops += 1;
                }
            }
            _ => {
                timed_op::<TRACED, _>(&mut lat.end, || worker.end(r.id));
                d.ops += 1;
            }
        }
    }
    worker.flush();
    d
}

struct Setup {
    world: ServeWorld,
    events: Vec<(u64, u8, usize)>,
    rcfg: ReplayConfig,
}

fn setup(size: &ServeSize, seed: u64) -> Setup {
    let world = serve_world(size, seed);
    let rcfg = ReplayConfig::default();
    let events = build_events(world.db.records(), rcfg.freeze_minutes);
    // engine construction is part of set-up; timed passes build theirs
    // outside the timed region
    std::hint::black_box(Engine::new(
        &world.sd0.latmap,
        &world.artifact,
        &EngineConfig::default(),
    ));
    Setup {
        world,
        events,
        rcfg,
    }
}

/// The layer-alone passes and concurrency diagnostics of a traced run.
fn traced_extras(s: &Setup, dcs: &[u16], engine_wall: f64, oracle_drive: f64, rep: &mut Report) {
    let w = &s.world;
    let records = w.db.records();
    const REPS: usize = 3;

    // selector alone: the identical op stream into a SelectorShard
    let mut sel_walls = Vec::new();
    let mut ops = 0u64;
    for _ in 0..REPS {
        let selector = RealtimeSelector::from_artifact(&w.sd0.latmap, &w.artifact);
        let mut shard = selector.shard();
        ops = 0;
        let t0 = Instant::now();
        for &(_, kind, i) in &s.events {
            let r = &records[i];
            match kind {
                EV_START => {
                    std::hint::black_box(shard.call_start(r.id, r.first_joiner));
                }
                EV_FREEZE => {
                    if shard.current_dc(r.id).is_none() {
                        continue;
                    }
                    std::hint::black_box(shard.config_frozen(r.id, r.config, r.start_minute));
                }
                _ => shard.call_end(r.id),
            }
            ops += 1;
        }
        shard.flush();
        sel_walls.push(t0.elapsed().as_secs_f64());
    }
    let sel_s = median(&sel_walls);

    // store alone: the writes the engine persisted, nothing else attached
    let mut store_walls = Vec::new();
    for _ in 0..REPS {
        let store = CallStateStore::with_simulated_rtt(
            EngineConfig::default().store_shards,
            Duration::ZERO,
        );
        let mut hist = LatencyHistogram::new();
        let mut live = vec![false; records.len()];
        let t0 = Instant::now();
        for &(_, kind, i) in &s.events {
            let r = &records[i];
            let ev = match kind {
                EV_START => {
                    live[i] = true;
                    CallEvent::Start {
                        call: r.id,
                        country: r.first_joiner.0,
                        dc: dcs[i],
                    }
                }
                EV_FREEZE if !live[i] => continue,
                EV_FREEZE => CallEvent::Freeze { call: r.id },
                _ => {
                    live[i] = false;
                    CallEvent::End { call: r.id }
                }
            };
            let _ = std::hint::black_box(store.try_apply(ev, &mut hist));
        }
        store_walls.push(t0.elapsed().as_secs_f64());
    }
    let store_s = median(&store_walls);

    rep.layer_timing(
        "bare",
        "selector.alone_ops_per_s",
        "1/s",
        &rate(ops, &sel_walls),
    );
    rep.layer_timing(
        "bare",
        "store.alone_ops_per_s",
        "1/s",
        &rate(ops, &store_walls),
    );
    rep.layer_add("engine.self_share", 1.0 - (sel_s + store_s) / engine_wall);
    rep.layer_add("engine.vs_oracle", oracle_drive / engine_wall);

    // concurrency diagnostics: the pool-token-partitioned drive of
    // sb-bench at 1 and 2 workers over its own serial drive (nproc is 2)
    let sched = LoadSchedule::new(records, s.rcfg.freeze_minutes);
    let wall_of = |threads: Option<usize>| -> f64 {
        let walls: Vec<f64> = (0..REPS)
            .map(|_| {
                let engine = Engine::new(&w.sd0.latmap, &w.artifact, &EngineConfig::default());
                match threads {
                    None => drive_serial(&engine, records, &sched),
                    Some(t) => drive_concurrent(&engine, records, &sched, t),
                }
                .wall
                .as_secs_f64()
            })
            .collect();
        median(&walls)
    };
    let serial = wall_of(None);
    rep.layer_add("engine.conc1_vs_serial", serial / wall_of(Some(1)));
    rep.layer_add("engine.conc2_vs_serial", serial / wall_of(Some(2)));
}

fn rate(n: u64, walls: &[f64]) -> Vec<f64> {
    walls.iter().map(|&w| n as f64 / w).collect()
}

/// Traced passes of a traced run (after its plain ones).
const TRACED_PASSES: usize = 3;

/// Set the stage up, hand its timed pass to `body` (which runs it
/// interleaved with the other stages' passes), then check and report.
pub fn with<R>(
    opts: &Opts,
    size: &ServeSize,
    rep: &mut Report,
    body: impl FnOnce(&mut Report, StagePasses<'_>) -> R,
) -> R {
    let (s, setup_times) = timed_setup(&mut rep.clock, || setup(size, opts.seed));
    rep.setup.insert("bare", setup_times);
    let w = &s.world;
    let records = w.db.records();

    // the oracle: serial replay over the same trace (timed only as a
    // per-layer figure; its stats are the gate)
    let oracle_reps = if opts.traced { 3 } else { 1 };
    let mut oracle_drives = Vec::new();
    let mut oracle = None;
    for _ in 0..oracle_reps {
        let selector = RealtimeSelector::from_artifact(&w.sd0.latmap, &w.artifact);
        let report = replay(
            &w.topo,
            &w.sd0.routing,
            &w.sd0.latmap,
            w.db.catalog(),
            &w.db,
            &selector,
            &s.rcfg,
        );
        oracle_drives.push(report.timing.drive.as_secs_f64());
        oracle = Some(report.stats());
    }
    let oracle = oracle.expect("the oracle ran");

    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut ops_seen: Vec<u64> = Vec::new();
    let mut lat = OpLatencies::default();
    let mut dcs = vec![0u16; records.len()];
    let mut serve_delta = None;
    let mut matches_oracle = true;
    let mut drained = true;
    // `timed` passes count; `traced` ones also time every call and read the
    // crates' counters (their walls are kept apart from the plain ones)
    let mut one_pass = |rep: &mut Report, timed: bool, traced: bool| {
        let engine = Engine::new(&w.sd0.latmap, &w.artifact, &EngineConfig::default());
        let mut worker = engine.worker();
        lat = OpLatencies::default();
        let obs = traced.then(|| ObsDelta::start(&SERVE_COUNTERS, &SERVE_HISTS));
        // in a plain run the span also covers the readings between chunks;
        // the wall that counts is the lap's
        let mut lap = rep.clock.start();
        let id = rep.spans.enter("bare.serve");
        let d = if traced {
            drive::<true>(&mut worker, records, &s.events, &mut lat, &mut dcs, || ())
        } else {
            drive::<false>(&mut worker, records, &s.events, &mut lat, &mut dcs, || {
                rep.clock.lap(&mut lap);
            })
        };
        rep.spans.exit(id);
        rep.clock.lap(&mut lap);
        let wall = lap.total;
        if let Some(o) = obs {
            serve_delta = Some(o.finish());
        }
        drop(worker);
        matches_oracle &= engine.selector_stats() == oracle.selector
            && engine.per_dc_tallies() == oracle.per_dc_tallies;
        drained &= engine.store().active_calls() == 0;
        if timed {
            rep.attempted += d.ops;
            rep.failed += d.failed;
            if traced {
                &mut traced_walls
            } else {
                &mut walls
            }
            .push(wall);
            ops_seen.push(d.ops);
        }
    };
    let out = body(
        rep,
        StagePasses {
            pass: Box::new(|rep, timed| one_pass(rep, timed, false)),
            probe: PROBE_PASSES,
            min: 3,
            max: 200,
            warm_up_primary: true,
            warm_up_every_group: true,
        },
    );
    if opts.traced {
        for _ in 0..TRACED_PASSES {
            one_pass(rep, true, true);
        }
    }
    let passes = walls.len();

    rep.gate(
        "bare: selector stats and per-DC tallies equal the replay oracle",
        matches_oracle,
        "",
    );
    rep.gate("bare: store drained (active_calls == 0)", drained, "");
    let ops = ops_seen[0];
    rep.gate(
        "bare: op count identical across passes",
        ops_seen.iter().all(|&o| o == ops),
        format!("{ops} x {} passes", ops_seen.len()),
    );
    rep.e2e_push("serve_ops_per_s", &walls, |s| ops as f64 / s);
    rep.sizes.push((
        "bare".into(),
        obj([
            ("topology", "apac".into()),
            ("configs", size.configs.into()),
            ("daily_calls", size.daily_calls.into()),
            ("days", (size.days as u64).into()),
            ("slot_minutes", (SERVE_SLOT_MINUTES as u64).into()),
            ("planned_configs", w.planned_configs.into()),
            ("calls", records.len().into()),
            ("ops", ops.into()),
        ]),
    ));
    rep.passes.push(("bare".into(), passes.into()));

    if opts.traced {
        if let Some(d) = &serve_delta {
            add_serve_layer(rep, d);
        }
        rep.layer_timing(
            "bare",
            "sim.replay_calls_per_s",
            "1/s",
            &rate(oracle.calls, &oracle_drives),
        );
        latency_percentiles(
            rep,
            "bare",
            "engine.admit_p50_ns",
            "engine.admit_p99_ns",
            &mut lat.admit,
        );
        latency_percentiles(
            rep,
            "bare",
            "engine.freeze_p50_ns",
            "engine.freeze_p99_ns",
            &mut lat.freeze,
        );
        latency_percentiles(
            rep,
            "bare",
            "engine.end_p50_ns",
            "engine.end_p99_ns",
            &mut lat.end,
        );
        let raw_walls: Vec<f64> = walls.iter().map(|t| t.raw_s).collect();
        traced_extras(&s, &dcs, median(&raw_walls), median(&oracle_drives), rep);
    }
    out
}

#[cfg(test)]
mod tests {
    use sb_net::CountryId;
    use sb_sim::replay::{build_events, EV_END, EV_FREEZE, EV_START};
    use sb_workload::{CallRecord, ConfigId};

    /// The bare stage issues `build_events` verbatim, so the order the
    /// oracle is defined against is the order the engine sees: by minute,
    /// start < freeze < end within a minute, record order breaking ties.
    #[test]
    fn bare_order_is_the_oracle_order() {
        let rec = |id, start, dur| CallRecord {
            id,
            config: ConfigId(0),
            start_minute: start,
            duration_min: dur,
            first_joiner: CountryId(0),
            join_offsets_s: vec![0],
        };
        // call 0 ends at minute 12, where call 1 freezes (2-min call: freeze
        // and end share minute 12) and call 2 starts
        let records = [rec(0, 2, 10), rec(1, 10, 2), rec(2, 12, 30)];
        let ev = build_events(&records, 5);
        assert_eq!(ev.len(), 9);
        assert!(ev.windows(2).all(|w| (w[0].0, w[0].1) <= (w[1].0, w[1].1)));
        let at12: Vec<(u8, usize)> = ev
            .iter()
            .filter(|e| e.0 == 12)
            .map(|e| (e.1, e.2))
            .collect();
        assert_eq!(
            at12,
            vec![(EV_START, 2), (EV_FREEZE, 1), (EV_END, 0), (EV_END, 1)]
        );
    }
}
