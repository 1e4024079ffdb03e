//! Fig. 9: CDF of peak-normalized RMSE and MAE across the top call configs —
//! 9 months of per-config history fit with Holt–Winters, predicting 3 months
//! ahead. The paper reports median RMSE ≈ 13 % and median MAE ≈ 8 % over the
//! top 1000 configs.
//!
//! Usage: `fig9_forecast_cdf [--json <path> | --check <path>]`
//!
//! `--json` records `BENCH_fig9.json` and `results/fig9_forecast_cdf.txt`,
//! `--check` compares the counts with the committed file
//! ([`sb_bench::report`]): the p10–p99 quantiles over the top 400 configs
//! (30-minute slots) and the medians against the paper's.

use std::time::Instant;

use sb_bench::report::{Mode, Report};
use sb_forecast::{fit_auto, mae, peak_normalized, rmse, Cdf};
use sb_workload::{Generator, UniverseParams, WorkloadParams};

const TOP_CONFIGS: usize = 400;

fn main() {
    let mode = Mode::from_args();
    let started = Instant::now();
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
    // rank configs by weight and take the head
    let mut ranked: Vec<_> = generator.universe().specs.iter().collect();
    ranked.sort_by(|a, b| b.weight.total_cmp(&a.weight));
    let season = generator.slots_per_day() * 7;
    let train_days = 9 * 30;
    let test_days = 3 * 30;

    let mut rmses = Vec::new();
    let mut maes = Vec::new();
    for spec in ranked.iter().take(TOP_CONFIGS) {
        let train = generator.sample_config_series(spec.id, 0, train_days, 200);
        let truth = generator.sample_config_series(spec.id, train_days, test_days, 201);
        let Ok(model) = fit_auto(&train, season) else {
            continue;
        };
        let forecast = model.forecast(truth.len());
        if let (Some(r), Some(m)) = (
            peak_normalized(rmse(&forecast, &truth), &truth),
            peak_normalized(mae(&forecast, &truth), &truth),
        ) {
            rmses.push(r);
            maes.push(m);
        }
    }

    let mut report = Report::new("fig9_forecast_cdf");
    report.counts.int("configs", rmses.len() as u64);
    let (rc, mc) = (Cdf::new(rmses), Cdf::new(maes));
    for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
        report
            .counts
            .row("quantile")
            .row(&format!("p{}", (q * 100.0) as u32))
            .fixed("rmse_pct", 100.0 * rc.quantile(q), 1)
            .fixed("mae_pct", 100.0 * mc.quantile(q), 1);
    }
    report
        .counts
        .fixed("median_rmse_pct", 100.0 * rc.median(), 1)
        .fixed("median_mae_pct", 100.0 * mc.median(), 1)
        // the synthetic series come from the very process Holt–Winters models
        .flag(
            "medians_below_paper",
            rc.median() < 0.13 && mc.median() < 0.08,
        );
    report
        .host
        .fixed("wall_s", started.elapsed().as_secs_f64(), 1);
    report.finish(&mode);
}
