//! §8: predicting the call config of recurring meetings with multi-order
//! Markov chains feeding a logistic regression, against the previous-instance
//! baseline. The paper trains on 24,000 records of series with ≥3 past
//! occurrences and evaluates 3,600 unseen instances: MOMC+LR reaches
//! RMSE 0.97 / MAE 0.90 vs the baseline's 24.90 / 23.60 (the baseline is hurt
//! most by large rosters and alternating attendees).
//!
//! Usage: `sec8_momc_prediction [--json <path> | --check <path>]`
//!
//! `--json` records `BENCH_sec8.json` and `results/sec8_momc_prediction.txt`,
//! `--check` compares the counts with the committed file
//! ([`sb_bench::report`]).

use std::time::Instant;

use sb_bench::report::{Mode, Report};
use sb_predict::{evaluate, ParticipantHistory, PredictorParams, SeriesHistory};
use sb_workload::series::{generate_series, SeriesParams};

fn main() {
    let mode = Mode::from_args();
    let started = Instant::now();
    let params = SeriesParams {
        num_series: 3_600,
        occurrences: 12,
        max_roster: 60,
        seed: 17,
    };
    let topo = sb_net::presets::apac();
    let (series, occurrences) = generate_series(&topo, &params);

    // reshape into sb-predict's input
    let histories: Vec<SeriesHistory> = series
        .iter()
        .map(|s| {
            let occs: Vec<_> = occurrences.iter().filter(|o| o.series == s.id).collect();
            let participants = (0..s.roster_size())
                .map(|i| ParticipantHistory {
                    country: s.countries[i].0,
                    attendance: occs.iter().map(|o| o.attended[i]).collect(),
                })
                .collect();
            SeriesHistory { participants }
        })
        .collect();
    let eval = evaluate(&histories, &PredictorParams::default());

    let mut report = Report::new("sec8_momc_prediction");
    report
        .counts
        .int("series", series.len() as u64)
        .int("occurrences", occurrences.len() as u64)
        .int(
            "participant_histories",
            series.iter().map(|s| s.roster_size() as u64).sum(),
        )
        .int("evaluated", eval.series as u64)
        .flag(
            "momc_lt_baseline",
            eval.rmse < eval.baseline_rmse && eval.mae < eval.baseline_mae,
        );
    for (name, rmse, mae) in [
        ("MOMC + LR", eval.rmse, eval.mae),
        (
            "last-instance baseline",
            eval.baseline_rmse,
            eval.baseline_mae,
        ),
    ] {
        report
            .counts
            .row("predictor")
            .row(name)
            .fixed("rmse", rmse, 2)
            .fixed("mae", mae, 2);
    }
    report
        .host
        .fixed("wall_s", started.elapsed().as_secs_f64(), 1);
    report.finish(&mode);
}
