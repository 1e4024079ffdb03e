//! Plan-lifecycle harness: warm incremental re-planning plus mid-replay
//! hot-swap (§6.3's refresh loop end to end).
//!
//! Three stages on a seeded APAC day:
//!
//! 1. **Initial plan** — `SlotPlanner::plan_initial` solves every slot of
//!    the per-slot allocation LP cold and seeds the per-slot last solves. A
//!    `replan_from` of the remaining slots under the same scenario and
//!    demand follows: every slot's LP is the one it last solved, so it
//!    re-solves none and returns the initial plan's shares and quotas.
//! 2. **Re-plan sweep** — for each victim DC, `replan_from` re-solves only
//!    the remaining slots of the day warm-started from the cached bases; a
//!    second planner with warm starts disabled re-runs the same sweep so
//!    the wall times compare end to end. The per-slot warm-start hit rate
//!    must clear 50 % (in practice it is ~100 %: every slot has a basis).
//! 3. **Chaos drill** — a trace replay with a mid-day DC outage plus a
//!    stale-plan onset; a planner answering after a configurable re-plan
//!    latency rebuilds the tail of the plan and hot-swaps it into the live
//!    selector. The stale window must close at the install (no stale
//!    freezes in any post-install window), nothing may strand, and the
//!    concurrent engine must match the serial oracle bit for bit across
//!    the swap. Usage is checked against the fixed capacity the planner
//!    plans within: the drill reports its violations and mean ACL.
//!
//! Usage: `replan_loop [--json <path> | --check <path>] [--metrics <path>]`
//!
//! `--json` records `BENCH_replan.json` and `results/replan_loop.txt`,
//! `--check` compares the counts with the committed file
//! ([`sb_bench::report`]).

use std::sync::Arc;
use std::time::Instant;

use sb_bench::common::{build_eval, dump_metrics, metrics_path_from_args, EvalScale};
use sb_bench::report::{Mode, Report};
use sb_core::formulation::{PlanningInputs, ScenarioData, SolveOptions};
use sb_core::{PlanArtifact, PlanDelta, ReplanReport, SlotPlanner};
use sb_net::{DcId, FailureScenario, ProvisionedCapacity};
use sb_sim::{FaultEvent, FaultTimeline, LoopConfig, ReplanRequest, ReplayDriver};
use sb_workload::Generator;

/// Re-plan latency the drill models (minutes between trigger and install).
const REPLAN_LATENCY_MIN: u64 = 15;

struct SweepOutcome {
    wall_s: f64,
    warm_hits: usize,
    solved: usize,
    iterations: u64,
}

/// Run the victim sweep: one `replan_from` per victim, all from the initial
/// artifact, re-solving slots `from_slot..`.
fn sweep(
    planner: &mut SlotPlanner<'_>,
    initial: &PlanArtifact,
    from_slot: usize,
    victims: &[(DcId, ScenarioData)],
) -> (SweepOutcome, Vec<ReplanReport>) {
    let mut out = SweepOutcome {
        wall_s: 0.0,
        warm_hits: 0,
        solved: 0,
        iterations: 0,
    };
    let mut reports = Vec::new();
    for (dc, sd) in victims {
        let t0 = Instant::now();
        let report = planner
            .replan_from(initial, from_slot, sd, None)
            .unwrap_or_else(|e| panic!("re-plan under DcDown({dc:?}) failed: {e}"));
        out.wall_s += t0.elapsed().as_secs_f64();
        out.warm_hits += report.warm_hits();
        out.solved += report.solved_slots();
        out.iterations += report.artifact.provenance.total_iterations;
        reports.push(report);
    }
    (out, reports)
}

fn main() {
    let metrics_path = metrics_path_from_args();
    let mode = Mode::from_args();

    let scale = EvalScale::quick();
    let num_victims = 4;
    eprintln!(
        "building workload: {} configs, {:.0} calls/day, {}-min slots …",
        scale.num_configs, scale.daily_calls, scale.slot_minutes
    );
    let data = build_eval(&scale);
    let generator = Generator::new(&data.topo, data.workload.clone());

    // plan one concrete day (the day the drill replays), not the envelope
    let day = 1;
    let demand = generator
        .expected_demand(day, 1)
        .filtered(&data.selected)
        .scaled(1.0 / data.coverage_achieved.max(1e-9));
    let inputs = PlanningInputs {
        topo: &data.topo,
        catalog: &data.catalog,
        demand: &demand,
        latency_threshold_ms: 120.0,
    };
    let opts = SolveOptions::default();

    // victims: the first DCs of the topology; the drill uses the first
    let victims: Vec<(DcId, ScenarioData)> = data
        .topo
        .dcs
        .iter()
        .take(num_victims)
        .map(|dc| {
            (
                dc.id,
                ScenarioData::compute(&data.topo, FailureScenario::DcDown(dc.id)),
            )
        })
        .collect();
    let sd0 = ScenarioData::compute(&data.topo, FailureScenario::None);

    // fixed capacity every plan must fit: union of the healthy + victim
    // solves with 25% headroom, so every re-plan stays feasible
    eprintln!(
        "provisioning fixed capacity over {} scenarios …",
        victims.len() + 1
    );
    let mut capacity = ProvisionedCapacity::zero(&data.topo);
    let base = sb_core::solve_scenario(&inputs, &sd0, None, &opts).expect("healthy solve");
    capacity.max_with(&base.capacity);
    for (_, sd) in &victims {
        let sol = sb_core::solve_scenario(&inputs, sd, None, &opts).expect("victim solve");
        capacity.max_with(&sol.capacity);
    }
    for c in capacity.cores.iter_mut() {
        *c *= 1.25;
    }
    for g in capacity.gbps.iter_mut() {
        *g *= 1.25;
    }

    let all_sds: Vec<ScenarioData> = std::iter::once(sd0.clone())
        .chain(victims.iter().map(|(_, sd)| sd.clone()))
        .collect();

    // stage 1: initial plan, all slots cold
    let mut planner = SlotPlanner::new(&inputs, &all_sds, &capacity, &opts);
    let t0 = Instant::now();
    let initial = planner.plan_initial(&sd0).expect("initial plan");
    let initial_wall = t0.elapsed().as_secs_f64();
    let num_slots = demand.num_slots();
    let from_slot = num_slots / 2;
    eprintln!(
        "initial plan: {} slots ({} solved) in {:.3}s",
        num_slots,
        initial.solved_slots(),
        initial_wall
    );
    let unchanged = planner
        .replan_from(&initial.artifact, from_slot, &sd0, None)
        .expect("unchanged re-plan");
    let unchanged_same_plan = unchanged.artifact.shares == initial.artifact.shares
        && unchanged.artifact.quotas == initial.artifact.quotas;

    // stage 2: warm vs cold re-plan sweep over the victim scenarios
    let (warm, warm_reports) = sweep(&mut planner, &initial.artifact, from_slot, &victims);
    let cold_opts = SolveOptions {
        warm_start: false,
        ..SolveOptions::default()
    };
    let mut cold_planner = SlotPlanner::new(&inputs, &all_sds, &capacity, &cold_opts);
    cold_planner.plan_initial(&sd0).expect("cold initial plan");
    let (cold, _) = sweep(&mut cold_planner, &initial.artifact, from_slot, &victims);
    let hit_rate = if warm.solved > 0 {
        warm.warm_hits as f64 / warm.solved as f64
    } else {
        0.0
    };
    let speedup = cold.wall_s / warm.wall_s.max(1e-12);
    let delta_migrations: u64 = warm_reports
        .iter()
        .map(|r| PlanDelta::between(&initial.artifact, &r.artifact).implied_migrations())
        .sum();

    // stage 3: chaos drill — DC-down + stale plan, re-plan hot-swapped in
    let db = generator.sample_records(day, 1, scale.seed);
    let trace_t0 = db
        .records()
        .iter()
        .map(|r| r.start_minute)
        .min()
        .expect("non-empty trace");
    let victim = victims[0].0;
    let fault_at = trace_t0 + 240;
    let timeline = FaultTimeline::new()
        .with(FaultEvent::DcDown {
            dc: victim,
            at: fault_at,
            recover_at: None,
        })
        .with(FaultEvent::PlanStale {
            from: fault_at,
            until: None,
        });
    let chaos_cfg = LoopConfig {
        capacity: Some(capacity.clone()),
        latency_min: REPLAN_LATENCY_MIN,
        ..LoopConfig::default()
    };
    let quotas = initial.artifact.quotas.clone();
    let drill = || {
        ReplayDriver::new(&data.topo, &data.catalog, &db, quotas.clone(), 120)
            .config(chaos_cfg.clone())
            .faults(timeline.clone())
    };

    // without a planner the plan stays stale to the end of the trace
    let bare = drill().run().stats;

    // with one: re-plan the remaining slots under the outage, install after
    // the modeled latency; record the artifacts so the concurrent run can
    // replay the exact same installs
    let victim_sd = &victims[0].1;
    let mut installed: Vec<Arc<PlanArtifact>> = Vec::new();
    let prev_art = initial.artifact.clone();
    let replanned = drill()
        .planner(|req: &ReplanRequest, _| {
            let from = req.from_slot.unwrap_or(0);
            let report = planner.replan_from(&prev_art, from, victim_sd, None).ok()?;
            let art = Arc::new(Arc::unwrap_or_clone(report.artifact).with_epoch(req.epoch));
            installed.push(art.clone());
            Some(art)
        })
        .run()
        .stats;
    assert!(
        replanned.plan_installs >= 1,
        "the DC-down trigger must install a re-plan"
    );
    assert_eq!(replanned.stranded, 0, "no call may strand in the drill");
    let install_minute = fault_at + REPLAN_LATENCY_MIN;
    let post_install_stale: u64 = replanned
        .windows
        .iter()
        .filter(|w| w.start_minute >= install_minute)
        .map(|w| w.stale_freezes)
        .sum();
    assert_eq!(
        post_install_stale, 0,
        "plan_stale freezes must stop accruing once the re-plan lands"
    );
    assert!(
        replanned.selector.plan_stale <= bare.selector.plan_stale,
        "the re-plan cannot widen the stale window"
    );

    // serial-oracle check across the swap: replay the recorded installs
    for threads in [1usize, 8] {
        let mut i = 0usize;
        let arts = installed.clone();
        let conc = drill()
            .threads(threads)
            .planner(move |_req: &ReplanRequest, _| {
                let a = arts.get(i).cloned();
                i += 1;
                a
            })
            .run();
        assert_eq!(
            replanned, conc.stats,
            "concurrent drill diverged from serial across the swap, threads={threads}"
        );
    }

    assert!(
        hit_rate > 0.5,
        "per-slot warm-start hit rate {hit_rate:.2} must clear 50%"
    );

    let mut report = Report::new("replan_loop");
    report
        .counts
        .label("topology", "apac")
        .int("slots", num_slots as u64)
        .int("from_slot", from_slot as u64)
        .int("victims", victims.len() as u64)
        .int("replan_latency_min", REPLAN_LATENCY_MIN)
        .int("initial_solved", initial.solved_slots() as u64)
        .int("delta_migrations", delta_migrations);
    report
        .counts
        .row("unchanged")
        .int("solved", unchanged.solved_slots() as u64)
        .flag("same_plan", unchanged_same_plan);
    report
        .counts
        .row("warm")
        .int("warm_hits", warm.warm_hits as u64)
        .int("solved", warm.solved as u64)
        .fixed("hit_rate", hit_rate, 4)
        .int("iterations", warm.iterations);
    report
        .counts
        .row("cold")
        .int("solved", cold.solved as u64)
        .int("iterations", cold.iterations);
    report
        .counts
        .row("drill")
        .int("plan_installs", replanned.plan_installs)
        .int("install_minute", install_minute)
        .int("stale_freezes_bare", bare.selector.plan_stale)
        .int("stale_freezes_replanned", replanned.selector.plan_stale)
        .int("post_install_stale_freezes", post_install_stale)
        .int("stranded", replanned.stranded)
        .int("forced_migrations", replanned.forced_migrations)
        .int("violations", replanned.capacity_violations)
        .fixed("mean_acl_ms", replanned.mean_acl_ms, 4)
        // the 1- and 8-thread drives compared equal across the swap
        .flag("serial_equals_concurrent", true);
    report
        .host
        .fixed("initial_wall_s", initial_wall, 6)
        .fixed("speedup_warm_vs_cold", speedup, 4);
    report.host.row("warm").fixed("wall_s", warm.wall_s, 6);
    report.host.row("cold").fixed("wall_s", cold.wall_s, 6);
    report.finish(&mode);
    if let Some(path) = metrics_path {
        dump_metrics(&path);
    }
}
