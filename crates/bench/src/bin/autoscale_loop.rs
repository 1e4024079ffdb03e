//! Closed-loop autoscaling harness: the streaming control loop end to end.
//!
//! Where `replan_loop` drives the plan lifecycle from a *fault timeline*,
//! this binary drives it from the *forecaster*: a multi-week world is
//! streamed window by window through [`sb_sim::AutoscaleLoop`], realized
//! demand feeds a [`sb_forecast::StreamingForecaster`] at every bucket
//! close, and drift/schedule triggers re-plan the remaining slots warm via
//! [`sb_core::SlotPlanner::replan_from`] with a forecast-derived demand
//! override. Nothing is materialized: memory is bounded by the in-flight
//! call set, not the trace length.
//!
//! The run checks the control loop's contract:
//!
//! 1. **Stale windows close.** Every drift trigger distrusts the plan until
//!    its re-plan installs; no window outside a drift-open interval may
//!    record a stale freeze, and nothing may strand, ever.
//! 2. **Re-plans land warm.** The per-slot warm-start hit rate across all
//!    control-loop re-plans must clear 50 %.
//! 3. **Serial == concurrent.** A second run replaying the recorded
//!    installs on a threaded drive must match the serial oracle bit for
//!    bit, [`sb_sim::AutoscaleStats`] included.
//! 4. **Memory is flat.** RSS is sampled at every install across the weeks
//!    and must not grow with stream length.
//!
//! Usage: `autoscale_loop [--json <path> | --check <path>] [--metrics <path>]`
//!
//! `--json` records `BENCH_autoscale.json` and `results/autoscale_loop.txt`,
//! `--check` compares the counts with the committed file
//! ([`sb_bench::report`]).

use std::sync::Arc;
use std::time::Instant;

use sb_bench::common::{build_eval, dump_metrics, metrics_path_from_args, EvalScale};
use sb_bench::report::{Mode, Report};
use sb_core::formulation::{PlanningInputs, ScenarioData, SolveOptions};
use sb_core::{PlanArtifact, SlotPlanner};
use sb_forecast::{StreamingForecaster, StreamingParams};
use sb_net::FailureScenario;
use sb_sim::{AutoscaleConfig, AutoscaleLoop, AutoscaleReport, ReplanRequest, ReplanTrigger};
use sb_workload::{DemandMatrix, Generator};

/// Minutes between a trigger and its install (the controller's latency).
const REPLAN_LATENCY_MIN: u64 = 15;

/// Resident set size in kB from `/proc/self/status` (0 if unavailable).
fn rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Scan the per-window breakdown and assert every drift-opened stale window
/// closes at the next install: outside a drift-open interval, no window may
/// record a stale freeze.
fn assert_stale_windows_close(report: &AutoscaleReport) {
    let mut open = false;
    let last = report.windows.len().saturating_sub(1);
    for (i, w) in report.windows.iter().enumerate() {
        // the tail drain (calls outliving the stream) is accounted to the
        // final window after its own bucket close, so its own drift flag
        // legitimately covers its stale freezes
        let tail_open = i == last && w.drift;
        if !open && w.plan_installs == 0 && !tail_open {
            assert_eq!(
                w.stale_freezes, 0,
                "window {} recorded stale freezes outside a drift-open interval",
                w.index
            );
        }
        if w.plan_installs > 0 {
            open = false;
        }
        if w.drift {
            open = true;
        }
    }
}

fn main() {
    let metrics_path = metrics_path_from_args();
    let mode = Mode::from_args();

    // four weeks with the paper's weekly seasonality
    let scale = EvalScale {
        num_configs: 240,
        daily_calls: 3_000.0,
        days: 28,
        ..EvalScale::quick()
    };
    let (season_days, watermark) = (7usize, 0.15);
    eprintln!(
        "building workload: {} configs, {:.0} calls/day, {} days, {}-min slots …",
        scale.num_configs, scale.daily_calls, scale.days, scale.slot_minutes
    );
    let data = build_eval(&scale);
    let generator = Generator::new(&data.topo, data.workload.clone());
    let spd = generator.slots_per_day();
    let season_len = spd * season_days;
    let num_slots = data.demand_full.num_slots();
    let inflation = 1.0 / data.coverage_achieved.max(1e-9);

    // plan over the full streamed horizon (the plan's slot geometry must
    // cover every minute the stream produces), capacity from the envelope
    // day with headroom so forecast-raised re-plans stay feasible
    let sd0 = ScenarioData::compute(&data.topo, FailureScenario::None);
    let opts = SolveOptions::default();
    let env_inputs = PlanningInputs {
        topo: &data.topo,
        catalog: &data.catalog,
        demand: &data.demand_env,
        latency_threshold_ms: 120.0,
    };
    eprintln!("provisioning envelope capacity …");
    let mut capacity = sb_core::solve_scenario(&env_inputs, &sd0, None, &opts)
        .expect("envelope solve")
        .capacity;
    for c in capacity.cores.iter_mut() {
        *c *= 1.5;
    }
    for g in capacity.gbps.iter_mut() {
        *g *= 1.5;
    }
    let inputs = PlanningInputs {
        topo: &data.topo,
        catalog: &data.catalog,
        demand: &data.demand_full,
        latency_threshold_ms: 120.0,
    };
    let all_sds = vec![sd0.clone()];
    let mut planner = SlotPlanner::new(&inputs, &all_sds, &capacity, &opts);
    let t0 = Instant::now();
    let initial = planner.plan_initial(&sd0).expect("initial plan");
    let initial_wall = t0.elapsed().as_secs_f64();
    eprintln!(
        "initial plan: {} slots ({} solved) in {:.3}s",
        num_slots,
        initial.solved_slots(),
        initial_wall
    );
    let quotas = initial.artifact.quotas.clone();

    // control loop: drift-driven re-plans plus one scheduled re-plan per
    // season (weekly — the §5.2 refresh cadence), which also
    // samples RSS once per season for the flat-memory check
    let mut cfg = AutoscaleConfig::new(season_len);
    cfg.latency_min = REPLAN_LATENCY_MIN;
    cfg.schedule_every = Some(season_len as u64);
    cfg.streaming = StreamingParams {
        watermark,
        ..StreamingParams::new(season_len)
    };

    let mut recorded: Vec<Option<Arc<PlanArtifact>>> = Vec::new();
    let mut warm_hits = 0usize;
    let mut solved = 0usize;
    let mut replan_wall = 0.0f64;
    let mut override_fallbacks = 0u64;
    let mut prev_art = initial.artifact.clone();
    let selected = data.selected.clone();
    let demand_full = &data.demand_full;
    let slot_min = data.demand_full.slot_minutes as u64;

    eprintln!("streaming {} windows …", num_slots);
    let run_t0 = Instant::now();
    let report = AutoscaleLoop::new(&data.topo, &generator, quotas.clone(), scale.days)
        .config(cfg.clone())
        .planner(|req: &ReplanRequest, fc: &StreamingForecaster| {
            let from = req.from_slot.unwrap_or(0);
            // forecast-derived override: raise the planned demand where the
            // forecaster now expects more than the batch plan assumed
            let w0 = (req.trigger_minute / slot_min) as usize;
            let horizon = spd.min(num_slots.saturating_sub(w0));
            let mut dm: Option<DemandMatrix> = None;
            if horizon > 0 {
                let mut m = demand_full.clone();
                let mut raised = false;
                for &id in &selected {
                    let Some(f) = fc.forecast(id.0, horizon) else {
                        continue;
                    };
                    for (i, &v) in f.iter().enumerate() {
                        let v = (v.max(0.0)) * inflation;
                        if v > m.get(id, w0 + i) {
                            m.set(id, w0 + i, v);
                            raised = true;
                        }
                    }
                }
                if raised {
                    dm = Some(m);
                }
            }
            let t0 = Instant::now();
            let rep = match planner.replan_from(&prev_art, from, &sd0, dm.as_ref()) {
                Ok(r) => Some(r),
                Err(_) => {
                    // forecast override left the fixed capacity: fall back
                    // to the planned demand rather than skip the install
                    override_fallbacks += 1;
                    planner.replan_from(&prev_art, from, &sd0, None).ok()
                }
            };
            replan_wall += t0.elapsed().as_secs_f64();
            let art = rep.map(|r| {
                warm_hits += r.warm_hits();
                solved += r.solved_slots();
                Arc::new(Arc::unwrap_or_clone(r.artifact).with_epoch(req.epoch))
            });
            if let Some(a) = &art {
                prev_art = a.clone();
            }
            recorded.push(art.clone());
            art
        })
        .run();
    let run_wall = run_t0.elapsed().as_secs_f64();

    // contract 1: nothing strands, every drift-opened window closes
    assert_eq!(report.stranded, 0, "no call may strand in the closed loop");
    assert_stale_windows_close(&report);
    let drift_installs = report
        .install_triggers
        .iter()
        .filter(|&&t| t == ReplanTrigger::Drift)
        .count() as u64;
    assert!(
        drift_installs + 1 >= report.drift_triggers,
        "every drift trigger except at most a stream-final one must install \
         ({} installs, {} triggers)",
        drift_installs,
        report.drift_triggers
    );
    assert!(
        report.drift_triggers >= 1,
        "the run must exercise at least one drift-induced stale window \
         (watermark {watermark} never fired)"
    );

    // contract 2: control-loop re-plans land warm
    let hit_rate = if solved > 0 {
        warm_hits as f64 / solved as f64
    } else {
        1.0
    };
    assert!(
        hit_rate > 0.5,
        "warm-start hit rate {hit_rate:.2} across control-loop re-plans must clear 50%"
    );

    // contract 3: a threaded drive replaying the recorded installs matches
    // the serial oracle bit for bit
    for threads in [1usize, 8] {
        let mut i = 0usize;
        let arts = recorded.clone();
        let conc = AutoscaleLoop::new(&data.topo, &generator, quotas.clone(), scale.days)
            .config(cfg.clone())
            .threads(threads)
            .planner(move |_req: &ReplanRequest, _fc: &StreamingForecaster| {
                let a = arts.get(i).cloned().flatten();
                i += 1;
                a
            })
            .run();
        assert_eq!(
            report.stats(),
            conc.stats(),
            "concurrent loop diverged from serial, threads={threads}"
        );
    }

    // contract 4: memory stays flat across the weeks. A dedicated serial
    // replay run measures it — the recorded artifacts are fully
    // materialized before the stream starts, so RSS growth during the run
    // is the loop's own working set (arena + heap + forecaster), not the
    // harness's install log.
    let rss_base = rss_kb();
    let mut rss_samples: Vec<(u64, u64)> = Vec::new();
    let rss_end = {
        let mut i = 0usize;
        let arts = recorded.clone();
        let mem = AutoscaleLoop::new(&data.topo, &generator, quotas.clone(), scale.days)
            .config(cfg.clone())
            .planner(|req: &ReplanRequest, _fc: &StreamingForecaster| {
                rss_samples.push((req.install_minute, rss_kb()));
                let a = arts.get(i).cloned().flatten();
                i += 1;
                a
            })
            .run();
        assert_eq!(
            report.stats(),
            mem.stats(),
            "serial replay of the recorded installs diverged from the live run"
        );
        rss_kb()
    };
    if rss_samples.len() >= 2 && rss_samples.iter().all(|&(_, kb)| kb > 0) {
        let first = rss_samples[0].1;
        let last = rss_samples[rss_samples.len() - 1].1;
        assert!(
            last <= first + first / 2 + 65_536,
            "RSS grew {first} kB -> {last} kB across the stream; the loop must not \
             accumulate trace state"
        );
    }

    let mut out = Report::new("autoscale_loop");
    out.counts
        .label("topology", "apac")
        .int("days", u64::from(scale.days))
        .int("windows", num_slots as u64)
        .int("season_len", season_len as u64)
        .fixed("watermark", watermark, 2)
        .int("replan_latency_min", REPLAN_LATENCY_MIN)
        .int("calls", report.calls)
        .int("stranded", report.stranded)
        .int("peak_inflight", report.peak_inflight as u64)
        .int("plan_installs", report.plan_installs)
        .int("stale_freezes", report.stale_freezes)
        .int("plan_migrations", report.plan_migrations)
        .fixed("final_nrmse", report.final_nrmse().unwrap_or(f64::NAN), 6)
        .ints("install_minutes", rss_samples.iter().map(|&(m, _)| m))
        // asserted above: contract 1, and contract 3 at 1 and 8 threads
        .flag("stale_windows_close", true)
        .flag("serial_equals_concurrent", true);
    out.counts
        .row("triggers")
        .int("drift", report.drift_triggers)
        .int("schedule", report.schedule_triggers);
    out.counts
        .row("warm")
        .int("hits", warm_hits as u64)
        .int("solved", solved as u64)
        .fixed("hit_rate", hit_rate, 4)
        .int("capacity_fallbacks", override_fallbacks);
    // per-season summary: forecast error against what it cost
    for (si, ws) in report.windows.chunks(season_len).enumerate() {
        let nrmse: Vec<f64> = ws.iter().filter_map(|w| w.forecast_nrmse).collect();
        out.counts
            .row("seasons")
            .row(&si.to_string())
            .int("calls", ws.iter().map(|w| w.calls_started).sum())
            // `null` while the forecaster warms up
            .fixed("nrmse", nrmse.iter().sum::<f64>() / nrmse.len() as f64, 3)
            .int("drifts", ws.iter().filter(|w| w.drift).count() as u64)
            .int("installs", ws.iter().map(|w| w.plan_installs).sum())
            .int("stale_freezes", ws.iter().map(|w| w.stale_freezes).sum())
            .int("stranded", ws.iter().map(|w| w.stranded).sum())
            .int(
                "plan_migrations",
                ws.iter().map(|w| w.plan_migrations).sum(),
            );
    }
    out.host
        .fixed("initial_wall_s", initial_wall, 6)
        .fixed("loop_wall_s", run_wall, 6);
    out.host.row("warm").fixed("wall_s", replan_wall, 6);
    // flat across the stream (contract 4): sampled at each of `install_minutes`
    out.host
        .row("rss")
        .int("base_kb", rss_base)
        .int("end_kb", rss_end)
        .ints("at_installs_kb", rss_samples.iter().map(|&(_, kb)| kb));
    out.finish(&mode);
    if let Some(path) = metrics_path {
        dump_metrics(&path);
    }
}
