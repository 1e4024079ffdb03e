//! Table 1: relative compute load (CL), network load (NL) and NL/CL ratio
//! per media type, normalized to audio. The paper reports bands (audio 1×/1×,
//! screen-share 1–2× / 10–20× / 10–15×, video 2–4× / 30–40× / 15–20×); this
//! reproduction pins concrete values inside those bands.
//!
//! Usage: `table1_media_loads [--json <path> | --check <path>]`
//!
//! `--json` records `BENCH_table1.json` and `results/table1_media_loads.txt`,
//! `--check` compares the counts with the committed file
//! ([`sb_bench::report`]).

use sb_bench::report::{Mode, Report};
use sb_workload::MediaType;

/// The paper's (CL, NL, NL/CL) bands relative to audio.
fn paper_band(m: MediaType) -> [(f64, f64); 3] {
    match m {
        MediaType::Audio => [(1.0, 1.0); 3],
        MediaType::ScreenShare => [(1.0, 2.0), (10.0, 20.0), (10.0, 15.0)],
        MediaType::Video => [(2.0, 4.0), (30.0, 40.0), (15.0, 20.0)],
    }
}

fn main() {
    let mode = Mode::from_args();
    let a_cl = MediaType::Audio.compute_load();
    let a_nl = MediaType::Audio.network_load();
    let mut report = Report::new("table1_media_loads");
    for m in MediaType::all() {
        let cl = m.compute_load() / a_cl;
        let nl = m.network_load() / a_nl;
        let ratios = [cl, nl, nl / cl];
        let inside = ratios
            .iter()
            .zip(paper_band(m))
            .all(|(r, (lo, hi))| (lo..=hi).contains(r));
        report
            .counts
            .row("media")
            .row(m.label())
            .fixed("cl", cl, 1)
            .fixed("nl", nl, 1)
            .fixed("nl_per_cl", nl / cl, 1)
            .fixed("cores_per_participant", m.compute_load(), 3)
            .fixed("gbps_per_leg", m.network_load(), 4)
            .flag("in_paper_band", inside);
    }
    report.finish(&mode);
}
