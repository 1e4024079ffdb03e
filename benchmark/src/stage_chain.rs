//! `chain` stage: the whole chain on one seeded APAC world.
//!
//! `provision` (with backup, on the envelope day) → `SlotPlanner::plan_initial`
//! → stream `WindowStream` windows through one `Engine` built with journal +
//! packer + forecaster, driving admit/join/freeze/end from each record's
//! `join_offsets_s` → `observe_demand` for every selected config at every
//! window close → warm `replan_from` once per simulated day (the paper's
//! daily plan) and on any `Observation::Drift`, with the forecast-raised
//! demand override of `crates/bench/src/bin/autoscale_loop.rs` →
//! `install_plan` + `refresh`. It is the only stage in which every layer
//! does some of the work, so it yields the end-to-end figure and the
//! breakdown that sums to it.

use std::sync::Arc;

use sb_core::formulation::{PlanningInputs, ScenarioData, SolveOptions};
use sb_core::{provision, PlanArtifact, ProvisionerParams, ReplanReport, SlotPlanner};
use sb_engine::{Engine, EngineConfig};
use sb_forecast::{Observation, StreamingParams};
use sb_lp::SolveRung;
use sb_net::FailureScenario;
use sb_pack::{CostModel, FleetPacker, FleetSpec};
use sb_store::Journal;
use sb_workload::{DemandMatrix, Generator};

use crate::events::{push_call_events, sort_events, Ev};
use crate::harness::{
    check_expected, timed_setup, ObsDelta, Opts, PlanDigest, PlanMatch, Report, StagePasses,
};
use crate::hostclock::Timed;
use crate::json::obj;
use crate::spec::ChainSize;
use crate::stage_bare::{add_serve_layer, OpLatencies, SERVE_COUNTERS, SERVE_HISTS};
use crate::stage_durable::{
    add_pack_layer, drive_events, fleet_for, journal_config, pack_config, wal_path, PACK_COUNTERS,
    RESERVE_EXTRA,
};
use crate::stage_plan::{add_lp_layer, LP_COUNTERS, LP_HISTS};
use crate::stats::median;
use crate::world::{plan_world, PlanWorld};

/// Timed passes of a probe-size chain.
const PROBE_PASSES: usize = 9;

/// Share of the world's peak reserved load each DC's fleet is sized for.
/// The busiest of APAC's four DCs peaked at 0.45 of it at seed 42 (by the
/// sum of its servers' own peaks, an upper bound); placement failures stay
/// 0 on every seed tried, which the run checks.
const DC_PEAK_SHARE: f64 = 0.5;

struct Setup {
    data: PlanWorld,
    sd0: ScenarioData,
    fleet: FleetSpec,
    peak_mcpu: u64,
}

fn setup(size: &ChainSize, seed: u64) -> Setup {
    let data = plan_world(
        sb_net::presets::apac(),
        size.configs,
        size.daily_calls,
        size.days,
        size.coverage,
        size.slot_minutes,
    );
    let sd0 = ScenarioData::compute(&data.topo, FailureScenario::None);

    // Fleet: every DC can absorb `DC_PEAK_SHARE` of the world's peak
    // reserved load (× the headroom of `fleet_for`). Where calls sit depends
    // on plans that do not exist yet, so the per-DC split cannot be known
    // here; the world's own peak can, from the stream alone.
    let cost = CostModel::default();
    let per_joiner = cost.per_participant_mcpu as i32;
    let first = cost.cost_mcpu(1 + RESERVE_EXTRA) as i32;
    // one load delta per second of the horizon (plus the longest call's
    // tail): flat and the same size for every seed, unlike an event list
    let horizon_s = (size.days as usize + 1) * 86_400;
    let mut deltas = vec![0i32; horizon_s + 1];
    {
        let generator = Generator::new(&data.topo, data.workload.clone());
        for batch in generator.window_stream(0, size.days, seed) {
            for r in &batch.records {
                let (start_s, end_s) = (r.start_minute * 60, r.end_minute() * 60);
                let at = |t: u64| (t as usize).min(horizon_s);
                let mut held = first;
                deltas[at(start_s)] += first;
                for &off in r.join_offsets_s.iter().skip(1) {
                    if start_s + (off as u64) < end_s {
                        deltas[at(start_s + off as u64)] += per_joiner;
                        held += per_joiner;
                    }
                }
                deltas[at(end_s)] -= held;
            }
        }
    }
    let (mut cur, mut peak) = (0i64, 0i64);
    for d in deltas {
        cur += d as i64;
        peak = peak.max(cur);
    }
    let per_dc = (peak as f64 * DC_PEAK_SHARE) as u64;
    let fleet = fleet_for(&vec![per_dc; data.topo.dcs.len()]);
    Setup {
        data,
        sd0,
        fleet,
        peak_mcpu: peak as u64,
    }
}

/// Longest stretch of the streaming loop between two readings of the
/// host's clock, seconds (a re-plan always gets brackets of its own).
const STREAM_SEGMENT_S: f64 = 0.05;

/// What one pass measured. The wall is the sum of its segments — the
/// provisioning sweep, the initial plan with the engine's boot, and the
/// stream — so the readings between them are not in it.
#[derive(Default)]
struct PassOut {
    wall: Timed,
    stream: Timed,
    provision: Timed,
    replans: Vec<Timed>,
    calls: u64,
    ops: u64,
    wal_records: u64,
    wal_bytes: u64,
    syncs: u64,
    installs: u64,
    replan_count: u64,
    slot_solves: u64,
    /// Simplex iterations of the initial plan and of all re-plans.
    plan_iterations: u64,
    warm_hits: u64,
    replan_solved: u64,
    override_fallbacks: u64,
    forecast_marks: u64,
    forecast_drifts: u64,
    journal_failures: u64,
    store_write_failures: u64,
    /// Trace identifier of this pass's spans.
    trace: u32,
    digest: Option<PlanDigest>,
}

/// Solves of `r` the primary engine did not carry (cold-retry or dense
/// rung): counted as failed operations.
fn rung_failures(r: &ReplanReport) -> u64 {
    r.slots
        .iter()
        .filter(|s| {
            matches!(
                s.rung,
                Some(SolveRung::ColdRetry | SolveRung::DenseFallback)
            )
        })
        .count() as u64
}

#[allow(clippy::too_many_lines)]
fn pass(
    s: &Setup,
    generator: &Generator<'_>,
    size: &ChainSize,
    opts: &Opts,
    rep: &mut Report,
) -> Option<PassOut> {
    let mut out = PassOut::default();
    let data = &s.data;
    let sd0 = &s.sd0;
    let solve_opts = SolveOptions::default();
    let path = wal_path(&opts.wal_dir, "chain");
    out.trace = rep.spans.next_trace();
    let root = rep.spans.enter("chain");

    // capacity plan, with backup, on the envelope day
    let env_inputs = PlanningInputs {
        topo: &data.topo,
        catalog: &data.catalog,
        demand: &data.demand_env,
        latency_threshold_ms: 120.0,
    };
    let params = ProvisionerParams {
        with_backup: true,
        threads: 1,
        ..ProvisionerParams::default()
    };
    let (plan, provision_t) = rep.timed("provision", || provision(&env_inputs, &params));
    rep.attempted += 1;
    let plan = match plan {
        Ok(p) => p,
        Err(e) => {
            rep.failed += 1;
            rep.gate("chain: provisioning succeeded", false, e.to_string());
            rep.spans.exit(root);
            return None;
        }
    };
    out.provision = provision_t;
    out.digest = Some(PlanDigest {
        cost: plan.cost,
        cores: plan.capacity.cores.clone(),
        gbps: plan.capacity.gbps.clone(),
    });

    // slot plan over the whole streamed horizon
    let inputs = PlanningInputs {
        topo: &data.topo,
        catalog: &data.catalog,
        demand: &data.demand_full,
        latency_threshold_ms: 120.0,
    };
    let mut boot = rep.clock.start();
    let id = rep.spans.enter("plan.initial");
    let mut planner = SlotPlanner::new(
        &inputs,
        std::slice::from_ref(sd0),
        &plan.capacity,
        &solve_opts,
    );
    let initial = planner.plan_initial(sd0);
    rep.spans.exit(id);
    rep.attempted += 1;
    let initial = match initial {
        Ok(r) => r,
        Err(e) => {
            rep.failed += 1;
            rep.gate("chain: initial plan solved", false, e.to_string());
            rep.spans.exit(root);
            return None;
        }
    };
    rep.failed += rung_failures(&initial);
    out.slot_solves = initial.solved_slots() as u64;
    out.plan_iterations = initial.slots.iter().map(|s| s.iterations).sum();

    // the engine: journal + packer + forecaster
    let spd = generator.slots_per_day();
    let cfg = EngineConfig {
        pack: Some(pack_config(s.fleet.clone())),
        forecast: Some(StreamingParams::new(spd * size.season_days)),
        ..EngineConfig::default()
    };
    let (engine, _) = rep.spans.time("engine.install", || {
        Journal::create(&path, journal_config())
            .and_then(|j| Engine::with_journal(&sd0.latmap, &initial.artifact, &cfg, j))
    });
    let engine = match engine {
        Ok(e) => e,
        Err(e) => {
            rep.gate("chain: journal created", false, e.to_string());
            rep.spans.exit(root);
            return None;
        }
    };
    let mut worker = engine.worker();
    rep.clock.lap(&mut boot);

    let mut lap = rep.clock.start();
    let stream_span = rep.spans.enter("stream");
    let stream = generator.window_stream(0, size.days, opts.seed);
    let num_slots = data.demand_full.num_slots();
    let num_configs = data.catalog.len();
    let inflation = 1.0 / data.coverage_achieved.max(1e-9);
    let freeze_minutes = sb_sim::ReplayConfig::default().freeze_minutes;
    let mut prev_art: Arc<PlanArtifact> = initial.artifact.clone();
    let mut evs: Vec<Ev> = Vec::new();
    let mut pending: Vec<Ev> = Vec::new();
    let mut lat = OpLatencies::default();
    let mut failed = 0u64;
    for w in 0..stream.num_windows() {
        let (batch, _) = rep.spans.time("workload.gen", || stream.batch(w));
        out.calls += batch.records.len() as u64;
        evs.clear();
        evs.append(&mut pending);
        for r in &batch.records {
            push_call_events(&mut evs, r, data.catalog.config(r.config), freeze_minutes);
        }
        sort_events(&mut evs);
        let cut = evs.partition_point(|e| e.t < batch.end_minute * 60);
        let ((ops, f, _), _) = rep.spans.time("engine.serve", || {
            drive_events::<false>(&engine, &mut worker, &evs[..cut], &mut lat, u64::MAX, || ())
        });
        out.ops += ops;
        failed += f;
        pending.extend_from_slice(&evs[cut..]);

        // window close: realized demand feeds the forecaster
        let id = rep.spans.enter("forecast.observe");
        let counts = batch.demand_counts(num_configs);
        let mut drift = false;
        for &cfg_id in &data.selected {
            let obs = engine.observe_demand(cfg_id.0, counts[cfg_id.index()]);
            drift |= matches!(obs, Some(Observation::Drift { .. }));
        }
        rep.spans.exit(id);
        if lap.running_s() >= STREAM_SEGMENT_S {
            rep.clock.lap(&mut lap);
        }

        // the daily plan, and a re-plan on drift
        let from = w as usize + 1;
        if !(drift || from.is_multiple_of(spd)) || from >= num_slots {
            continue;
        }
        rep.clock.lap(&mut lap);
        let replan_span = rep.spans.enter("replan");
        let horizon = spd.min(num_slots - from);
        let id = rep.spans.enter("forecast.observe");
        let mut raised: Option<DemandMatrix> = None;
        for &cfg_id in &data.selected {
            let Some(f) = engine.forecast(cfg_id.0, horizon) else {
                continue;
            };
            for (i, &v) in f.iter().enumerate() {
                let v = v.max(0.0) * inflation;
                if v > data.demand_full.get(cfg_id, from + i) {
                    raised
                        .get_or_insert_with(|| data.demand_full.clone())
                        .set(cfg_id, from + i, v);
                }
            }
        }
        rep.spans.exit(id);
        let id = rep.spans.enter("plan.replan");
        let report = match planner.replan_from(&prev_art, from, sd0, raised.as_ref()) {
            Ok(r) => Some(r),
            Err(_) if raised.is_some() => {
                // the raised demand left the fixed capacity: fall back to
                // the planned demand rather than skip the install
                out.override_fallbacks += 1;
                planner.replan_from(&prev_art, from, sd0, None).ok()
            }
            Err(_) => None,
        };
        rep.spans.exit(id);
        rep.attempted += 1;
        out.replan_count += 1;
        match report {
            Some(r) => {
                failed += rung_failures(&r);
                out.slot_solves += r.solved_slots() as u64;
                out.plan_iterations += r.slots.iter().map(|s| s.iterations).sum::<u64>();
                out.replan_solved += r.solved_slots() as u64;
                out.warm_hits += r.warm_hits() as u64;
                rep.spans.time("engine.install", || {
                    engine.install_plan(&r.artifact);
                    worker.refresh();
                });
                out.installs += 1;
                prev_art = r.artifact;
            }
            None => failed += 1,
        }
        rep.spans.exit(replan_span);
        out.replans.push(rep.clock.lap(&mut lap));
    }
    // calls that outlive the stream, then the last group commit
    let ((ops, f, _), _) = rep.spans.time("engine.serve", || {
        let r = drive_events::<false>(&engine, &mut worker, &pending, &mut lat, u64::MAX, || ());
        worker.flush();
        engine.sync_journal();
        r
    });
    out.ops += ops;
    failed += f;
    rep.spans.exit(stream_span);
    rep.spans.exit(root);
    rep.clock.lap(&mut lap);
    out.stream = lap.total;
    out.wall = [out.provision, boot.total, out.stream]
        .iter()
        .fold(Timed::default(), |a, t| Timed {
            raw_s: a.raw_s + t.raw_s,
            norm_s: a.norm_s + t.norm_s,
        });
    drop(worker);

    let stats = engine.stats();
    let pack = engine.pack_stats().unwrap_or_default();
    failed += pack.placement_failures + stats.journal_failures + stats.store_write_failures;
    rep.attempted += out.ops + out.installs;
    rep.failed += failed;
    out.forecast_marks = stats.forecast_marks;
    out.forecast_drifts = stats.forecast_drifts;
    out.journal_failures = stats.journal_failures;
    out.store_write_failures = stats.store_write_failures;
    out.wal_records = engine.journal().map_or(0, Journal::appended_records);
    out.syncs = engine.journal().map_or(0, Journal::sync_count);
    rep.gate_eq("chain: no stranded call", &stats.selector.stranded, &0);
    rep.gate_eq(
        "chain: store drained (active_calls == 0)",
        &engine.store().active_calls(),
        &0,
    );
    rep.gate_eq(
        "chain: no packer capacity violation",
        &engine.packer().map_or(0, FleetPacker::capacity_violations),
        &0,
    );
    let hit_rate = out.warm_hits as f64 / out.replan_solved.max(1) as f64;
    rep.gate(
        "chain: warm-hit rate of re-plans >= 0.5",
        out.replan_solved == 0 || hit_rate >= 0.5,
        format!("{hit_rate:.3}"),
    );
    drop(engine);
    out.wal_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let _ = std::fs::remove_file(&path);
    Some(out)
}

/// Set the stage up, hand its timed pass to `body` (which runs it
/// interleaved with the other stages' passes), then check and report.
/// `primary` says whether this is the workload's own stage, at full size.
pub fn with<R>(
    opts: &Opts,
    size: &ChainSize,
    primary: bool,
    rep: &mut Report,
    body: impl FnOnce(&mut Report, StagePasses<'_>) -> R,
) -> R {
    let (s, setup_times) = timed_setup(&mut rep.clock, || setup(size, opts.seed));
    rep.setup.insert("chain", setup_times);
    let generator = Generator::new(&s.data.topo, s.data.workload.clone());

    let mut outs: Vec<PassOut> = Vec::new();
    let result = body(
        rep,
        StagePasses {
            pass: Box::new(|rep, timed| {
                if let (Some(o), true) = (pass(&s, &generator, size, opts, rep), timed) {
                    outs.push(o);
                }
            }),
            probe: PROBE_PASSES,
            // two full passes even when a slow box makes one overrun half
            // the budget, so the reported value is never a single sample
            min: if opts.traced || opts.smoke { 1 } else { 2 },
            max: 100,
            // at full size one pass is ~10 s
            warm_up_primary: false,
            warm_up_every_group: false,
        },
    );
    let passes = outs.len();

    // one traced pass: the crates' own counters on, spans kept apart
    let mut traced_out = None;
    let mut deltas = None;
    if opts.traced {
        let mut counters = LP_COUNTERS.to_vec();
        counters.extend(SERVE_COUNTERS);
        counters.extend(PACK_COUNTERS);
        counters.extend([
            "provision.scenario_solves",
            "provision.refine_skipped_zero_increment",
        ]);
        let mut hists = LP_HISTS.to_vec();
        hists.extend(SERVE_HISTS);
        hists.push("provision.build_wall_ns");
        let obs = ObsDelta::start(&counters, &hists);
        traced_out = pass(&s, &generator, size, opts, rep);
        let d = obs.finish();
        let rungs = d["lp.cold_retries"] + d["lp.dense_fallbacks"];
        rep.failed += rungs;
        deltas = Some(d);
    }

    let all: Vec<&PassOut> = outs.iter().chain(traced_out.as_ref()).collect();
    let Some(first) = all.first() else {
        return result;
    };
    // counts must repeat exactly; the provisioning plan only under
    // `PlanMatch::Cost` (see there for why)
    let key = |o: &PassOut| (o.calls, o.ops, o.wal_records, o.installs);
    let same_plan = |o: &PassOut| match (&o.digest, &first.digest) {
        (Some(a), Some(b)) => PlanMatch::Cost.holds(a, b),
        _ => false,
    };
    rep.gate(
        "chain: calls, ops, WAL records and installs identical, plan cost within 1e-5, across passes",
        all.iter().all(|o| key(o) == key(first) && same_plan(o)),
        format!(
            "{:?} x {} passes; largest relative cost difference {:.1e}",
            key(first),
            all.iter().filter(|o| key(o) == key(first)).count(),
            all.iter()
                .filter_map(|o| Some(o.digest.as_ref()?.max_rel_diff(first.digest.as_ref()?).0))
                .fold(0.0, f64::max)
        ),
    );
    if primary && !opts.smoke {
        if let Some(d) = &first.digest {
            check_expected(opts, rep, "chain", d, PlanMatch::Cost);
        }
    }

    let col = |f: fn(&PassOut) -> Timed| outs.iter().map(f).collect::<Vec<Timed>>();
    let calls = first.calls as f64;
    rep.e2e_push("chain_wall_s", &col(|o| o.wall), |s| s);
    rep.e2e_push("stream_calls_per_s", &col(|o| o.stream), |s| calls / s);
    rep.e2e_push("provision_s", &col(|o| o.provision), |s| s);
    // one sample = one pass: the median over its re-plans (which differ in
    // the work they do: the slots left, the demand raised)
    let p50 = |o: &PassOut| Timed {
        raw_s: median(&o.replans.iter().map(|t| t.raw_s).collect::<Vec<_>>()),
        norm_s: median(&o.replans.iter().map(|t| t.norm_s).collect::<Vec<_>>()),
    };
    let replans: Vec<Timed> = outs.iter().map(p50).collect();
    rep.e2e_push("replan_p50_ms", &replans, |s| s * 1e3);
    rep.sizes.push((
        "chain".into(),
        obj([
            ("topology", "apac".into()),
            ("configs", size.configs.into()),
            ("daily_calls", size.daily_calls.into()),
            ("days", (size.days as u64).into()),
            ("slot_minutes", (size.slot_minutes as u64).into()),
            ("coverage", size.coverage.into()),
            ("season_days", size.season_days.into()),
            ("selected_configs", s.data.selected.len().into()),
            ("slots", s.data.demand_full.num_slots().into()),
            ("calls", first.calls.into()),
            ("ops", first.ops.into()),
            ("wal_records", first.wal_records.into()),
            ("wal_bytes", first.wal_bytes.into()),
            ("replans", first.replan_count.into()),
            ("plan_iterations", first.plan_iterations.into()),
            (
                "provision_cost",
                first.digest.as_ref().map_or(f64::NAN, |d| d.cost).into(),
            ),
            ("fleet_servers", s.fleet.num_servers().into()),
            ("peak_reserved_mcpu", s.peak_mcpu.into()),
        ]),
    ));
    rep.passes.push(("chain".into(), passes.into()));

    let (Some(t), Some(d)) = (&traced_out, &deltas) else {
        return result;
    };
    add_lp_layer(rep, d);
    add_serve_layer(rep, d);
    add_pack_layer(rep, d);
    let totals = rep.spans.totals(t.trace);
    let self_s = |name: &str| totals.get(name).map_or(0.0, |n| n.self_ns as f64 / 1e9);
    let gen_s = self_s("workload.gen");
    let parts = [
        ("provision", self_s("provision")),
        ("plan.initial_s", self_s("plan.initial")),
        ("workload.gen_s", gen_s),
        ("engine.serve_s", self_s("engine.serve")),
        ("forecast.observe_s", self_s("forecast.observe")),
        ("plan.replan_s", self_s("plan.replan")),
        ("engine.install_s", self_s("engine.install")),
        (
            "harness.self_s",
            self_s("chain") + self_s("stream") + self_s("replan"),
        ),
    ];
    let sum: f64 = parts.iter().map(|p| p.1).sum();
    rep.gate(
        "chain: layer breakdown sums to the traced wall within 2 %",
        (sum - t.wall.raw_s).abs() <= 0.02 * t.wall.raw_s,
        format!("sum {sum:.4} wall {:.4}", t.wall.raw_s),
    );
    for (name, v) in parts.into_iter().skip(1) {
        rep.layer_add(name, v);
    }
    rep.layer_add("workload.calls", t.calls as f64);
    rep.layer_add("workload.calls_per_s", t.calls as f64 / gen_s);
    rep.layer_add("forecast.observations", t.forecast_marks as f64);
    rep.layer_add("forecast.drifts", t.forecast_drifts as f64);
    rep.layer_add(
        "provision.build_s",
        d["provision.build_wall_ns"] as f64 / 1e9,
    );
    rep.layer_add(
        "provision.scenario_solves",
        d["provision.scenario_solves"] as f64,
    );
    rep.layer_add(
        "provision.refine_skipped",
        d["provision.refine_skipped_zero_increment"] as f64,
    );
    rep.layer_add("plan.replans", t.replan_count as f64);
    rep.layer_add("plan.slot_solves", t.slot_solves as f64);
    rep.layer_add(
        "plan.warm_hit_rate",
        t.warm_hits as f64 / t.replan_solved.max(1) as f64,
    );
    rep.layer_add("plan.override_fallbacks", t.override_fallbacks as f64);
    rep.layer_add("chain.calls", t.calls as f64);
    rep.layer_add("chain.ops", t.ops as f64);
    rep.layer_add("chain.installs", t.installs as f64);
    rep.layer_add("wal.records", t.wal_records as f64);
    rep.layer_add("wal.bytes", t.wal_bytes as f64);
    rep.layer_add("journal.syncs", t.syncs as f64);
    rep.layer_add("engine.journal_failures", t.journal_failures as f64);
    rep.layer_add("engine.store_write_failures", t.store_write_failures as f64);
    let plain = median(&outs.iter().map(|o| o.wall.raw_s).collect::<Vec<_>>());
    rep.layer_add("obs.trace_overhead_share", (t.wall.raw_s - plain) / plain);
    result
}
