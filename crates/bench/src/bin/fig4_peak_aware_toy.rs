//! Fig. 4: the peak-aware capacity-planning toy example. Three countries with
//! time-shifted core demand (peaks 100 / 110 / 110); locality-first plus the
//! §3.2 backup LP provisions 160/160/160 = 480 cores, while the peak-aware
//! plan repurposes off-peak serving cores as backup and needs only
//! 100/110/110 = 320 in the paper.
//!
//! The paper's idealized 320 slightly under-covers HongKong's T2 failure; the
//! exact optimum for these demands is 330. With all three DCs priced
//! identically the scenario sweep has no signal to break placement ties, so it
//! may settle a little above that; on the cost-differentiated evaluation
//! topology the sweep tracks the optimum much more tightly.
//!
//! Usage: `fig4_peak_aware_toy [--json <path> | --check <path>]`
//!
//! `--json` records `BENCH_fig4.json` and `results/fig4_peak_aware_toy.txt`,
//! `--check` compares the counts with the committed file
//! ([`sb_bench::report`]): the naive plan per DC, the peak-aware plan per DC
//! and per failure scenario, and the saving.

use sb_bench::common::scenario_label;
use sb_bench::report::{Mode, Report};
use sb_core::backup::min_total_backup;
use sb_core::formulation::{PlanningInputs, ScenarioData};
use sb_core::provision::{provision, ProvisionerParams};
use sb_core::{baselines, compute_usage, BaselinePolicy};
use sb_net::{FailureScenario, Topology};
use sb_workload::{CallConfig, ConfigCatalog, DemandMatrix, MediaType};

/// The Fig. 4 toy reasons about compute only, so WAN is made (almost) free —
/// otherwise the optimizer would trade failover bandwidth against cores,
/// which the paper's illustration deliberately ignores.
fn toy_with_free_wan() -> Topology {
    let mut topo = sb_net::presets::toy_three_dc();
    for l in &mut topo.links {
        l.cost_per_gbps = 1e-6;
    }
    topo
}

fn main() {
    let mode = Mode::from_args();
    let topo = toy_with_free_wan();
    let mut catalog = ConfigCatalog::new();
    // 2-person audio calls per country; CL(audio) per call = 2 × 0.05 = 0.1
    // cores, so "100 cores" = 1000 calls
    let per_core = 1.0 / (2.0 * MediaType::Audio.compute_load());
    let mut demand = DemandMatrix::zero(3, 3, 30, 0);
    // Fig. 4(a): cores per slot  T1, T2, T3
    for (country, cores) in [
        ("JP", [100.0, 20.0, 30.0]),
        ("HK", [50.0, 110.0, 40.0]),
        ("IN", [20.0, 90.0, 110.0]),
    ] {
        let country = topo.country_by_name(country);
        let cfg = catalog.intern(CallConfig::new(vec![(country, 2)], MediaType::Audio));
        for (slot, c) in cores.into_iter().enumerate() {
            demand.set(cfg, slot, c * per_core);
        }
    }
    let inputs = PlanningInputs::new(&topo, &catalog, &demand);
    let mut report = Report::new("fig4_peak_aware_toy");

    // (a)+(b): locality-first serving + §3.2 backup LP
    let sd0 = ScenarioData::compute(&topo, FailureScenario::None);
    let lf_shares = baselines::baseline_shares(BaselinePolicy::LocalityFirst, &inputs, &sd0);
    let lf_serving = compute_usage(&topo, &sd0.routing, &catalog, &demand, &lf_shares).peaks();
    let backup = min_total_backup(&lf_serving.cores, |_, _| true).expect("backup plan");
    let mut naive = 0.0;
    for dc in &topo.dcs {
        let i = dc.id.index();
        let total = lf_serving.cores[i] + backup[i];
        naive += total;
        report
            .counts
            .row("naive")
            .row(&dc.name)
            .fixed("serving", lf_serving.cores[i], 1)
            .fixed("backup", backup[i], 1)
            .fixed("total", total, 1);
    }

    // (c): peak-aware joint serving+backup (Switchboard)
    let plan = provision(&inputs, &ProvisionerParams::default()).expect("provisioning");
    for dc in &topo.dcs {
        let i = dc.id.index();
        report
            .counts
            .row("peak_aware")
            .row(&dc.name)
            .fixed("cores", plan.capacity.cores[i], 1);
    }
    for (sc, cap) in &plan.scenarios {
        let row = report
            .counts
            .row("scenario_cores")
            .row(&scenario_label(&topo, *sc));
        for dc in &topo.dcs {
            row.fixed(&dc.name, cap.cores[dc.id.index()], 1);
        }
    }
    let total = plan.capacity.total_cores();
    report
        .counts
        .fixed("naive_total", naive, 1)
        .flag("naive_eq_480", (naive - 480.0).abs() < 0.05)
        .fixed("peak_aware_total", total, 1)
        .flag("peak_aware_lt_naive", total < naive)
        .fixed("saving_pct", 100.0 * (naive - total) / naive, 1);
    report.finish(&mode);
}
