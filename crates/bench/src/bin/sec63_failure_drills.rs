//! §6.3 failure drills, mid-replay edition: sweep every single-DC and
//! single-link failure as a *timed* chaos timeline (fault hits mid-day,
//! recovers two hours later) against the backup-provisioned capacity, and
//! verify the real-time selector re-homes every affected call with zero
//! stranded calls and zero capacity violations. A deliberately undersized
//! deployment is run as a negative control — it must violate.
//!
//! Usage: `sec63_failure_drills [--json <path> | --check <path>] [--metrics <path>]`
//!
//! `--json` records `BENCH_failures.json` and
//! `results/sec63_failure_drills.txt`, `--check` compares the counts with the
//! committed file ([`sb_bench::report`]): per timeline the forced and plan
//! migrations, stranded calls, violation minutes, worst overshoot and mean
//! ACL, and the healthy run's per-DC / per-link usage peaks.

use std::time::Instant;

use sb_bench::common::{dump_metrics, link_name, metrics_path_from_args, scenario_label};
use sb_bench::report::{Mode, Report, Section};
use sb_core::formulation::{PlanningInputs, ScenarioData, SolveOptions};
use sb_core::provision::{provision, ProvisionerParams};
use sb_core::{allocation_plan, PlannedQuotas};
use sb_net::{FailureScenario, Node, ProvisionedCapacity, RoutingTable, Topology};
use sb_sim::{FaultTimeline, LoopConfig, LoopStats, ReplayDriver};
use sb_workload::{CallRecordsDb, ConfigCatalog, Generator, UniverseParams, WorkloadParams};

/// The replayed day of the generator's week.
const DAY: u32 = 2;

struct Drill {
    topo: Topology,
    catalog: ConfigCatalog,
    db: CallRecordsDb,
    quotas: PlannedQuotas,
    deployed: ProvisionedCapacity,
    scenarios: Vec<FailureScenario>,
    fault_at: u64,
    recover_at: u64,
}

fn build() -> Drill {
    let topo = sb_net::presets::apac();
    let params = WorkloadParams {
        universe: UniverseParams {
            num_configs: 300,
            ..Default::default()
        },
        daily_calls: 3_000.0,
        slot_minutes: 120,
        ..Default::default()
    };
    let generator = Generator::new(&topo, params);

    // plan the day from expected demand (§5.3 daily offline stage), with the
    // §5.2 head-selection + cushion, then provision with single-failure
    // backup capacity (the Table-3 "SB" configuration)
    let expected = generator.expected_demand(DAY, 1);
    let selected = expected.top_configs_covering(0.9);
    let planned = expected.filtered(&selected).scaled(1.1);
    let inputs = PlanningInputs::new(&topo, &generator.universe().catalog, &planned);
    eprintln!("provisioning with single-failure backup …");
    let plan = provision(&inputs, &ProvisionerParams::default()).expect("provision");

    // Deployed capacity: elementwise max of the SB plan and the
    // locality-first baseline. The LP provisions for plan-following calls,
    // but for the first A minutes (and whenever the ladder degrades) calls
    // sit at the DC *closest* to their first joiner — exactly the traffic
    // shape LF provisions for. The 1.25 cushion covers the trace's tail
    // configs the head-selected LP never saw.
    let lf = sb_core::provision_baseline(sb_core::BaselinePolicy::LocalityFirst, &inputs, true);
    let mut deployed = plan.capacity.clone();
    for (c, &l) in deployed.cores.iter_mut().zip(&lf.capacity.cores) {
        *c = c.max(l);
    }
    for (g, &l) in deployed.gbps.iter_mut().zip(&lf.capacity.gbps) {
        *g = g.max(l);
    }
    // Links: the plan splits a country's leg traffic across specific paths,
    // but the first-joiner heuristic (and mid-fault re-homing) can steer all
    // of it toward any reachable DC — over its uplinks and, for DCs the
    // country has no direct uplink to, through transit DC–DC mesh links.
    // Floor every link at the summed provisioned uplink traffic of each
    // country that can route over it under any single-fault scenario.
    let mut uplink_total = vec![0.0f64; topo.countries.len()];
    for link in &topo.links {
        for n in [link.a, link.b] {
            if let Node::Edge(c) = n {
                uplink_total[c.index()] += deployed.gbps[link.id.index()];
            }
        }
    }
    let mut can_transit = vec![vec![false; topo.links.len()]; topo.countries.len()];
    for sc in FailureScenario::enumerate(&topo) {
        let rt = RoutingTable::compute(&topo, sc);
        for c in topo.country_ids() {
            for dd in topo.dc_ids() {
                if let Some(route) = rt.route(c, dd) {
                    for &l in &route.links {
                        can_transit[c.index()][l.index()] = true;
                    }
                }
            }
        }
    }
    for l in topo.link_ids() {
        let transit: f64 = topo
            .country_ids()
            .filter(|c| can_transit[c.index()][l.index()])
            .map(|c| uplink_total[c.index()])
            .sum();
        let g = &mut deployed.gbps[l.index()];
        *g = g.max(transit);
    }
    for c in deployed.cores.iter_mut() {
        *c *= 1.25;
    }
    for g in deployed.gbps.iter_mut() {
        *g *= 1.25;
    }

    let sd0 = ScenarioData::compute(&topo, FailureScenario::None);
    let shares = allocation_plan(&inputs, &sd0, &deployed, &SolveOptions::default())
        .expect("allocation plan");
    let quotas = PlannedQuotas::from_plan(&shares, &planned);
    let db = generator.sample_records(DAY, 1, 4);
    eprintln!("trace: {} calls on day {DAY}", db.len());
    let catalog = generator.universe().catalog.clone();

    let scenarios: Vec<FailureScenario> = FailureScenario::enumerate(&topo)
        .into_iter()
        .filter(|s| *s != FailureScenario::None)
        .collect();
    // fault hits 10h into the day (inside the busy period), heals 2h later
    let day_start = DAY as u64 * 24 * 60;
    Drill {
        topo,
        catalog,
        db,
        quotas,
        deployed,
        scenarios,
        fault_at: day_start + 10 * 60,
        recover_at: day_start + 12 * 60,
    }
}

fn run_one(d: &Drill, sc: FailureScenario, capacity: &ProvisionedCapacity) -> LoopStats {
    let timeline = FaultTimeline::from_scenario(sc, d.fault_at, Some(d.recover_at));
    let cfg = LoopConfig {
        capacity: Some(capacity.clone()),
        ..LoopConfig::default()
    };
    ReplayDriver::new(&d.topo, &d.catalog, &d.db, d.quotas.clone(), 60)
        .config(cfg)
        .faults(timeline)
        .run()
        .stats
}

/// What one timeline cost: its migrations, strandings and violations.
fn outcome(row: &mut Section, r: &LoopStats) {
    row.int("forced", r.forced_migrations)
        .int("plan_migrations", r.plan_migrations)
        .int("stranded", r.stranded)
        .int("violations", r.capacity_violations)
        .fixed("overshoot", r.worst_overshoot, 4)
        .fixed("mean_acl_ms", r.mean_acl_ms, 4);
}

fn main() {
    let metrics = metrics_path_from_args();
    let mode = Mode::from_args();
    let started = Instant::now();
    let d = build();

    let mut report = Report::new("sec63_failure_drills");
    report
        .counts
        .label("topology", "apac")
        .int("day", u64::from(DAY))
        .int("calls", d.db.len() as u64)
        .int("fault_at", d.fault_at)
        .int("recover_at", d.recover_at);

    // the healthy day against the deployed capacity: where its peaks sit
    let healthy = run_one(&d, FailureScenario::None, &d.deployed);
    let row = report.counts.row("healthy");
    outcome(row, &healthy);
    for dc in d.topo.dc_ids() {
        let peak = healthy.peak_cores[dc.index()];
        row.row("peak_cores")
            .fixed(&d.topo.dcs[dc.index()].name, peak, 4);
    }
    for l in d.topo.link_ids() {
        let peak = healthy.peak_gbps[l.index()];
        row.row("peak_gbps").fixed(&link_name(&d.topo, l), peak, 6);
    }

    let mut bad = Vec::new();
    for &sc in &d.scenarios {
        let r = run_one(&d, sc, &d.deployed);
        let label = scenario_label(&d.topo, sc);
        if r.stranded > 0 || r.capacity_violations > 0 {
            bad.push(label.clone());
        }
        outcome(report.counts.row("timelines").row(&label), &r);
    }

    // negative control: a deployment at 10% of the provisioned capacity
    // must blow through its limits under the first DC failure — proves the
    // violation accounting actually bites
    let mut undersized = d.deployed.clone();
    for c in undersized.cores.iter_mut() {
        *c *= 0.1;
    }
    for g in undersized.gbps.iter_mut() {
        *g *= 0.1;
    }
    let control = run_one(&d, d.scenarios[0], &undersized);
    assert!(
        control.capacity_violations > 0,
        "undersized deployment must report violations"
    );
    assert!(
        bad.is_empty(),
        "timelines with stranded calls or violations: {}",
        bad.join(", ")
    );
    let row = report.counts.row("negative_control");
    row.label("timeline", &scenario_label(&d.topo, d.scenarios[0]))
        .fixed("capacity_scale", 0.1, 2);
    outcome(row, &control);
    // asserted above: every single-failure timeline is absorbed
    report.counts.flag("all_absorbed", true);
    report
        .host
        .fixed("wall_s", started.elapsed().as_secs_f64(), 3);
    report.finish(&mode);

    if let Some(path) = metrics {
        dump_metrics(&path);
    }
}
