//! The benchmark's fixed tables: workloads, stage sizes, metric names with
//! units, directions and bounds. `/BENCHMARK.json` states the same tables
//! for the driver; a test below keeps the two in step.
//!
//! A run executes four *stages* — `chain`, `plan`, `bare`, `durable` — and a
//! *workload* is a size mix over them: the stage a workload is named after
//! runs at full size and gets the run's time budget, the other three run at
//! probe size, their passes interleaved with it. Every end-to-end metric is therefore measured on every
//! workload (the driver requires it), and "this change must not move
//! `serve_*`" has a direct reading on the workloads where the changed layer
//! only runs as a probe.

/// Workload names, in the order a full run executes them.
pub const WORKLOADS: [&str; 4] = [
    "chain_apac_4w",
    "plan_planet",
    "serve_bare",
    "serve_durable",
];

/// Why each workload exists (also the `why` of `/BENCHMARK.json`).
pub const WORKLOAD_WHY: [&str; 4] = [
    "whole chain on one APAC world: provision, slot plan, 4 weeks streamed through a journaled packing engine, daily re-plans; every layer works",
    "one cold F0 solve on the synthetic planet: sb-lp does nearly all the work on a large sparse basis, the serving layers only run as probes",
    "start/freeze/end on a bare engine with a large live set: selector and call-state store do the work; packer, WAL and LP only run as probes",
    "admit/join/freeze/end on a journaled packing engine, then recovery from the same log: sb-pack, WAL codec and journal dominate",
];

/// Default measuring budget of one run, seconds (`run_seconds` of
/// `/BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// One end-to-end metric: what a user of the system would see.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The ten end-to-end metrics. Times and rates are at the reference clock
/// ([`crate::hostclock`]) and a run reports the good-side quartile over its
/// passes ([`crate::stats::good_quartile`]). Every bound is the contract's
/// maximum, 0.25: the driver accepts a benchmark only if ten runs with ten
/// seeds spread (quartile distance over median) less than the bound on every
/// workload, probe-size stages included, and this sandbox's host is loud
/// (README, *Repeatability*).
pub const END_TO_END: [EndToEnd; 10] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("chain_wall_s", "s", false, 0.25),
    e2e("stream_calls_per_s", "1/s", true, 0.25),
    e2e("provision_s", "s", false, 0.25),
    e2e("replan_p50_ms", "ms", false, 0.25),
    e2e("plan_solve_s", "s", false, 0.25),
    e2e("serve_ops_per_s", "1/s", true, 0.25),
    e2e("durable_ops_per_s", "1/s", true, 0.25),
    e2e("recover_s", "s", false, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.25),
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

/// One per-layer metric: `(name, unit, higher_is_better)`. Counts are
/// marked "lower" when they count work or failures and "higher" when they
/// count useful outcomes; the direction only matters to `compare`'s wording.
pub type PerLayer = (&'static str, &'static str, bool);

/// The per-layer metrics, reported by a traced run.
pub const PER_LAYER: &[PerLayer] = &[
    // workload generation (chain stage)
    ("workload.gen_s", "s", false),
    ("workload.calls", "count", true),
    ("workload.calls_per_s", "1/s", true),
    // forecaster (chain stage)
    ("forecast.observe_s", "s", false),
    ("forecast.observations", "count", true),
    ("forecast.drifts", "count", false),
    // provisioning sweep (chain stage)
    ("provision.build_s", "s", false),
    ("provision.scenario_solves", "count", false),
    ("provision.refine_skipped", "count", true),
    // simplex (plan + chain stages; sizes and fill from the plan stage's F0)
    ("lp.solves", "count", false),
    ("lp.solve_s", "s", false),
    ("lp.iterations", "count", false),
    ("lp.phase1_iterations", "count", false),
    ("lp.us_per_iteration", "us", false),
    ("lp.refactorizations", "count", false),
    ("lp.eta_updates", "count", false),
    ("lp.pricing_cols_scanned", "count", false),
    ("lp.warm_accepted", "count", true),
    ("lp.warm_rejected", "count", false),
    ("lp.cold_retries", "count", false),
    ("lp.dense_fallbacks", "count", false),
    ("lp.rows", "count", false),
    ("lp.cols", "count", false),
    ("lp.basis_nnz", "count", false),
    ("lp.fill_ratio", "ratio", false),
    // slot planner and plan install (chain stage)
    ("plan.initial_s", "s", false),
    ("plan.replan_s", "s", false),
    ("plan.replans", "count", false),
    ("plan.slot_solves", "count", false),
    ("plan.warm_hit_rate", "ratio", true),
    ("plan.override_fallbacks", "count", false),
    ("engine.install_s", "s", false),
    // selector + store (bare stage) and the engine's cost over them
    ("sim.replay_calls_per_s", "1/s", true),
    ("selector.alone_ops_per_s", "1/s", true),
    ("store.alone_ops_per_s", "1/s", true),
    ("engine.self_share", "ratio", false),
    ("engine.vs_oracle", "ratio", true),
    ("selector.assignments", "count", true),
    ("selector.freezes", "count", true),
    ("selector.migrations", "count", false),
    ("selector.unplanned", "count", false),
    ("selector.overflow", "count", false),
    ("selector.stranded", "count", false),
    ("store.write_ops", "count", false),
    ("store.lock_wait_ns", "ns", false),
    // per-call latency timed from outside: bare engine, then durable engine
    ("engine.admit_p50_ns", "ns", false),
    ("engine.admit_p99_ns", "ns", false),
    ("engine.freeze_p50_ns", "ns", false),
    ("engine.freeze_p99_ns", "ns", false),
    ("engine.end_p50_ns", "ns", false),
    ("engine.end_p99_ns", "ns", false),
    ("durable.admit_p50_ns", "ns", false),
    ("durable.admit_p99_ns", "ns", false),
    ("durable.freeze_p50_ns", "ns", false),
    ("durable.freeze_p99_ns", "ns", false),
    ("durable.end_p50_ns", "ns", false),
    ("durable.end_p99_ns", "ns", false),
    ("engine.join_p50_ns", "ns", false),
    ("engine.join_p99_ns", "ns", false),
    // concurrency diagnostics (bare stage; inputs to ROADMAP item 2's rule)
    ("engine.conc1_vs_serial", "ratio", true),
    ("engine.conc2_vs_serial", "ratio", true),
    // packer, WAL codec, journal (durable + chain stages)
    ("pack.alone_ops_per_s", "1/s", true),
    ("pack.ns_per_placed_call", "ns", false),
    ("pack.placed", "count", true),
    ("pack.placement_failures", "count", false),
    ("pack.intra_dc_migrations", "count", false),
    ("pack.grow_rejections", "count", false),
    ("pack.utilization", "ratio", true),
    ("wal.encode_ns_per_record", "ns", false),
    ("wal.records", "count", false),
    ("wal.bytes", "count", false),
    ("journal.alone_records_per_s", "1/s", true),
    ("journal.syncs", "count", false),
    ("engine.journal_failures", "count", false),
    ("engine.store_write_failures", "count", false),
    // recovery (durable stage)
    ("recover.scan_s", "s", false),
    ("recover.decode_s", "s", false),
    ("recover.apply_share", "ratio", false),
    ("recover.records", "count", false),
    ("recover.records_per_s", "1/s", true),
    // the chain's own breakdown
    ("engine.serve_s", "s", false),
    ("harness.self_s", "s", false),
    ("chain.calls", "count", true),
    ("chain.ops", "count", true),
    ("chain.installs", "count", false),
    ("obs.trace_overhead_share", "ratio", false),
];

/// Count metrics that do not repeat exactly from run to run, because
/// `sb_core::provision` sums usage over a `HashMap` in hash order and the
/// sweep's pivots follow the last bits (see the README); `wal.bytes` follows
/// because a plan install journals the plan's floats as text. `compare
/// --exact-counts` skips exactly these.
pub const HASH_ORDER_COUNTS: [&str; 11] = [
    "lp.solves",
    "lp.iterations",
    "lp.phase1_iterations",
    "lp.refactorizations",
    "lp.eta_updates",
    "lp.pricing_cols_scanned",
    "lp.warm_accepted",
    "lp.warm_rejected",
    "provision.scenario_solves",
    "provision.refine_skipped",
    "wal.bytes",
];

/// Size of the chain stage.
#[derive(Clone, Copy, Debug)]
pub struct ChainSize {
    /// Universe size.
    pub configs: usize,
    /// Expected calls per day.
    pub daily_calls: f64,
    /// Days streamed.
    pub days: u32,
    /// Forecaster season, in days.
    pub season_days: usize,
    /// Share of calls the planned head configs cover.
    pub coverage: f64,
    /// Slot (= stream window) width, minutes.
    pub slot_minutes: u32,
}

/// Size of the plan stage.
#[derive(Clone, Copy, Debug)]
pub struct PlanSize {
    /// `true` = `synthetic_planet()`, `false` = APAC.
    pub planet: bool,
    /// Universe size.
    pub configs: usize,
    /// Expected calls per day.
    pub daily_calls: f64,
    /// Days of demand behind the envelope day.
    pub days: u32,
    /// Share of calls the planned head configs cover.
    pub coverage: f64,
    /// Slot width, minutes.
    pub slot_minutes: u32,
}

/// Size of a serving stage (`bare` or `durable`), always APAC.
#[derive(Clone, Copy, Debug)]
pub struct ServeSize {
    /// Universe size.
    pub configs: usize,
    /// Expected calls per day.
    pub daily_calls: f64,
    /// Days of trace.
    pub days: u32,
}

/// Sizes of the four stages for one workload.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Chain stage.
    pub chain: ChainSize,
    /// Plan stage.
    pub plan: PlanSize,
    /// Bare serving stage.
    pub bare: ServeSize,
    /// Durable serving stage.
    pub durable: ServeSize,
}

const FULL: Sizes = Sizes {
    chain: ChainSize {
        configs: 400,
        daily_calls: 20_000.0,
        days: 28,
        season_days: 7,
        coverage: 0.70,
        slot_minutes: 120,
    },
    plan: PlanSize {
        planet: true,
        configs: 120,
        daily_calls: 12_000.0,
        days: 7,
        coverage: 0.60,
        slot_minutes: 180,
    },
    bare: ServeSize {
        configs: 2_000,
        daily_calls: 100_000.0,
        days: 4,
    },
    durable: ServeSize {
        configs: 2_000,
        daily_calls: 40_000.0,
        days: 4,
    },
};

const PROBE: Sizes = Sizes {
    chain: ChainSize {
        configs: 120,
        daily_calls: 3_000.0,
        days: 7,
        season_days: 1,
        coverage: 0.70,
        slot_minutes: 120,
    },
    plan: PlanSize {
        planet: false,
        configs: 300,
        daily_calls: 4_000.0,
        days: 7,
        coverage: 0.70,
        slot_minutes: 120,
    },
    bare: ServeSize {
        configs: 500,
        daily_calls: 40_000.0,
        days: 1,
    },
    durable: ServeSize {
        configs: 500,
        daily_calls: 15_000.0,
        days: 1,
    },
};

const SMOKE: Sizes = Sizes {
    chain: ChainSize {
        configs: 60,
        daily_calls: 1_000.0,
        days: 7,
        season_days: 1,
        coverage: 0.70,
        slot_minutes: 120,
    },
    plan: PlanSize {
        planet: false,
        configs: 100,
        daily_calls: 1_000.0,
        days: 2,
        coverage: 0.70,
        slot_minutes: 240,
    },
    bare: ServeSize {
        configs: 200,
        daily_calls: 4_000.0,
        days: 1,
    },
    durable: ServeSize {
        configs: 200,
        daily_calls: 2_000.0,
        days: 1,
    },
};

/// The four stages, in the order they set up and take turns.
pub const STAGES: [&str; 4] = ["chain", "plan", "bare", "durable"];

/// The stage a workload runs at full size.
pub fn primary_stage(workload: &str) -> Option<&'static str> {
    match workload {
        "chain_apac_4w" => Some("chain"),
        "plan_planet" => Some("plan"),
        "serve_bare" => Some("bare"),
        "serve_durable" => Some("durable"),
        _ => None,
    }
}

/// Stage sizes of `workload`: full for its primary stage, probe for the
/// rest; `smoke` shrinks all four (every gate still runs).
pub fn sizes(workload: &str, smoke: bool) -> Option<Sizes> {
    let primary = primary_stage(workload)?;
    if smoke {
        return Some(SMOKE);
    }
    let mut s = PROBE;
    match primary {
        "chain" => s.chain = FULL.chain,
        "plan" => s.plan = FULL.plan,
        "bare" => s.bare = FULL.bare,
        _ => s.durable = FULL.durable,
    }
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(WORKLOADS);
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        for name in names {
            assert!(name.len() <= 64 && name.as_bytes()[0].is_ascii_alphanumeric());
            assert!(name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.iter().all(|m| m.bound <= 0.25));
        // set-up time carries the largest bound, and the inexact counts exist
        assert!(END_TO_END.iter().all(|m| m.bound <= END_TO_END[0].bound));
        for c in HASH_ORDER_COUNTS {
            assert!(PER_LAYER.iter().any(|m| m.0 == c && m.1 == "count"), "{c}");
        }
        assert!(WORKLOAD_WHY.iter().all(|w| w.len() <= 200));
    }

    #[test]
    fn each_workload_runs_exactly_its_own_stage_at_full_size() {
        for w in WORKLOADS {
            let s = sizes(w, false).unwrap();
            let full = [
                s.chain.days == FULL.chain.days,
                s.plan.planet,
                s.bare.days == FULL.bare.days,
                s.durable.days == FULL.durable.days,
            ];
            assert_eq!(full.iter().filter(|&&f| f).count(), 1, "{w}");
            let idx = ["chain", "plan", "bare", "durable"]
                .iter()
                .position(|&st| Some(st) == primary_stage(w))
                .unwrap();
            assert!(full[idx]);
        }
        assert!(sizes("nope", false).is_none());
    }

    /// `/BENCHMARK.json` is outside this package; when the file is there
    /// (any checkout of the repo) it must state exactly these tables.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        assert_eq!(
            names("end_to_end"),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer"),
            PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>()
        );
        for (m, j) in END_TO_END
            .iter()
            .zip(doc.get("end_to_end").and_then(Json::as_arr).unwrap())
        {
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(j.get("better").and_then(Json::as_str), Some(better));
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS as f64)
        );
    }
}
