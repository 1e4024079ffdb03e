//! Fig. 8: average fraction of participants that have joined, as a function
//! of time since the meeting started. The paper freezes the call config at
//! A = 300 s because ~80 % of participants have joined by then.
//!
//! Usage: `fig8_join_fraction [--json <path> | --check <path>]`
//!
//! `--json` records `BENCH_fig8.json` and `results/fig8_join_fraction.txt`,
//! `--check` compares the counts with the committed file
//! ([`sb_bench::report`]): the curve every 30 s, its value at the freeze, and
//! whether it is monotone and above 90 % by 900 s.

use sb_bench::report::{Mode, Report};
use sb_workload::joins::{fraction_joined_curve, CONFIG_FREEZE_SECONDS};
use sb_workload::{Generator, UniverseParams, WorkloadParams};

fn main() {
    let mode = Mode::from_args();
    let topo = sb_net::presets::apac();
    let params = WorkloadParams {
        universe: UniverseParams {
            num_configs: 500,
            ..Default::default()
        },
        daily_calls: 3_000.0,
        ..Default::default()
    };
    let generator = Generator::new(&topo, params);
    let calls = generator.sample_records(0, 2, 8).join_offset_lists();
    let curve = fraction_joined_curve(&calls, 900, 30);
    let at = |s: u32| {
        curve
            .iter()
            .find(|&&(t, _)| t == s)
            .map_or(0.0, |&(_, f)| f)
    };

    let mut report = Report::new("fig8_join_fraction");
    report
        .counts
        .int("calls", calls.len() as u64)
        .fixed("joined_at_freeze_pct", 100.0 * at(CONFIG_FREEZE_SECONDS), 1)
        .flag("monotone", curve.windows(2).all(|w| w[0].1 <= w[1].1))
        .flag("above_90pct_by_900s", at(900) > 0.9);
    for &(t, f) in &curve {
        report
            .counts
            .row("t_s")
            .row(&t.to_string())
            .fixed("joined", f, 3);
    }
    report.finish(&mode);
}
