//! Fig. 3: per-country core demand over one day (UTC), normalized to the
//! maximum peak — showing the time-shifted peaks Switchboard exploits.
//! The paper plots Japan, Hong Kong and India with peaks at roughly
//! 0:00, 2:00 and 5:30 UTC: the UTC offsets (+9, +8, +5.5) shift identical
//! local work-hour curves.
//!
//! Usage: `fig3_demand_curves [--json <path> | --check <path>]`
//!
//! `--json` records `BENCH_fig3.json` and `results/fig3_demand_curves.txt`,
//! `--check` compares the counts with the committed file
//! ([`sb_bench::report`]): each country's peak and its slot, the peak order,
//! and the 48 half-hour slots of the three curves.

use sb_bench::report::{Mode, Report};
use sb_workload::{Generator, UniverseParams, WorkloadParams};

const COUNTRIES: [&str; 3] = ["JP", "HK", "IN"];

fn utc(slot: usize) -> String {
    format!("{:02}:{:02}", slot / 2, (slot % 2) * 30)
}

fn main() {
    let mode = Mode::from_args();
    let topo = sb_net::presets::apac();
    let params = WorkloadParams {
        universe: UniverseParams {
            num_configs: 1_000,
            ..Default::default()
        },
        daily_calls: 20_000.0,
        slot_minutes: 30,
        ..Default::default()
    };
    let generator = Generator::new(&topo, params);
    // day 2 = a Wednesday
    let demand = generator.expected_demand(2, 1);
    let by_country = demand.country_core_demand(&generator.universe().catalog, &topo);
    let global_max = by_country
        .iter()
        .flat_map(|v| v.iter())
        .cloned()
        .fold(f64::MIN, f64::max);
    let curves = COUNTRIES.map(|name| &by_country[topo.country_by_name(name).index()]);

    let mut report = Report::new("fig3_demand_curves");
    report
        .counts
        .int("slot_minutes", 30)
        .int("slots", demand.num_slots() as u64);
    let mut peak_slots = Vec::new();
    for (name, series) in COUNTRIES.iter().zip(&curves) {
        let peak_slot = series
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("a day has slots");
        peak_slots.push(peak_slot);
        report
            .counts
            .row("peaks")
            .row(name)
            .fixed("peak", series[peak_slot] / global_max, 2)
            .label("at_utc", &utc(peak_slot));
    }
    report.counts.flag(
        "peak_order_jp_hk_in",
        peak_slots[0] < peak_slots[1] && peak_slots[1] < peak_slots[2],
    );
    for s in 0..demand.num_slots() {
        let row = report.counts.row("utc").row(&utc(s));
        for (name, series) in COUNTRIES.iter().zip(&curves) {
            row.fixed(name, series[s] / global_max, 3);
        }
    }
    report.finish(&mode);
}
