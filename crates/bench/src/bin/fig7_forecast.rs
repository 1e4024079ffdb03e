//! Fig. 7: forecasting call counts per call config.
//!
//! (a) Holt–Winters forecast vs ground truth for the most popular config
//!     (9 months of 30-minute buckets fit, one week of the 3-month horizon
//!     scored); the paper's forecast and ground truth overlap for most points;
//! (b) normalized growth of 15 randomly selected configs over 4 months;
//! (c) fraction of calls covered by the top-N fraction of configs (paper:
//!     top 0.1 % → 86 % of calls, top 1 % → 93 %, over 10M+ configs; the knee
//!     of the curve is the property §5.2's selection relies on).
//!
//! Usage: `fig7_forecast [--json <path> | --check <path>]`
//!
//! `--json` records `BENCH_fig7.json` and `results/fig7_forecast.txt`,
//! `--check` compares the counts with the committed file
//! ([`sb_bench::report`]).

use sb_bench::report::{Mode, Report, Section};
use sb_forecast::{fit_auto, peak_normalized, rmse};
use sb_workload::{ConfigId, Generator, Universe, UniverseParams, WorkloadParams};

fn part_a(generator: &Generator<'_>, out: &mut Section) {
    let best = generator
        .universe()
        .specs
        .iter()
        .max_by(|a, b| a.weight.total_cmp(&b.weight))
        .expect("a non-empty universe")
        .id;
    let train_days = 9 * 30;
    let test_days = 7;
    let train = generator.sample_config_series(best, 0, train_days, 100);
    let truth = generator.sample_config_series(best, train_days, test_days, 101);
    let season = generator.slots_per_day() * 7;
    let model = fit_auto(&train, season).expect("fit");
    let e = rmse(&model.forecast(truth.len()), &truth);
    out.int("config", u64::from(best.0))
        .int("train_days", u64::from(train_days))
        .int("test_days", u64::from(test_days))
        .fixed("rmse_calls_per_slot", e, 2)
        .fixed(
            "rmse_peak_norm_pct",
            100.0 * peak_normalized(e, &truth).unwrap_or(0.0),
            1,
        );
}

/// Growth as (month-4 weekly calls) / (month-1 weekly calls), highest first,
/// also normalized to the highest as the paper's Fig. 7(b) plots it.
fn part_b(generator: &Generator<'_>, out: &mut Section) {
    let n = generator.universe().len();
    let mut rates: Vec<(ConfigId, f64)> = (0..15)
        .map(|i| ConfigId(((i * 7919) % n) as u32))
        .map(|id| {
            let early: f64 = generator.expected_config_series(id, 0, 7).iter().sum();
            let late: f64 = generator.expected_config_series(id, 120, 7).iter().sum();
            (id, if early > 0.0 { late / early } else { 1.0 })
        })
        .collect();
    rates.sort_by(|a, b| b.1.total_cmp(&a.1));
    let max_rate = rates[0].1;
    for (id, r) in &rates {
        out.row(&id.0.to_string())
            .fixed("growth", *r, 2)
            .fixed("normalized", r / max_rate, 2);
    }
}

/// The paper's universe has 10M+ configs; a 100k-config universe stands in,
/// where the inter-country tail plays the role of the rare-config mass.
fn part_c(out: &mut Section) {
    let topo = sb_net::presets::apac();
    let universe = Universe::generate(
        &topo,
        &UniverseParams {
            num_configs: 100_000,
            seed: 5,
            ..Default::default()
        },
    );
    let mut weights: Vec<f64> = universe.specs.iter().map(|s| s.weight).collect();
    weights.sort_by(|a, b| b.total_cmp(a));
    let n = weights.len();
    out.int("configs", n as u64);
    for per_mille in [1, 10, 50, 100, 250] {
        let top = (n * per_mille / 1000).max(1);
        let calls: f64 = weights.iter().take(top).sum();
        out.row("top_per_mille")
            .row(&per_mille.to_string())
            .int("configs", top as u64)
            .fixed("calls_pct", 100.0 * calls, 1);
    }
}

fn main() {
    let mode = Mode::from_args();
    let topo = sb_net::presets::apac();
    let params = WorkloadParams {
        universe: UniverseParams {
            num_configs: 2_000,
            ..Default::default()
        },
        daily_calls: 20_000.0,
        slot_minutes: 30,
        ..Default::default()
    };
    let generator = Generator::new(&topo, params);
    let mut report = Report::new("fig7_forecast");
    part_a(&generator, report.counts.row("a_forecast"));
    part_b(&generator, report.counts.row("b_growth"));
    part_c(report.counts.row("c_coverage"));
    report.finish(&mode);
}
