//! # sb-core — the Switchboard controller
//!
//! The paper's primary contribution: peak-aware, joint compute+network,
//! application-specific resource management for conferencing services.
//!
//! * [`latency`] — `Lat(x,u)` maps and `ACL(x,c)` math (Table 2);
//! * [`formulation`] — the provisioning LP (Eq. 3–9) built per failure
//!   scenario;
//! * [`mod@provision`] — the scenario sweep (Eq. 7–8) producing a
//!   [`ProvisioningPlan`];
//! * [`allocation`] — the daily latency-optimal allocation plan (Eq. 10);
//! * [`realtime`] — the real-time MP selector with the first-joiner
//!   heuristic, slot tallying, and migration (§5.4);
//! * [`plan`] — versioned plan artifacts, plan deltas, warm incremental
//!   re-planning, and plan persistence (§6.3's refresh loop);
//! * [`baselines`] — Round-Robin and Locality-First (§3), with the Eq. 1–2
//!   backup LP in [`backup`];
//! * [`shares`] / [`usage`] — the `S_tcx` representation and forward
//!   evaluation of Eq. 5–6 (usage, peaks, mean ACL).
//!
//! ```
//! use sb_core::formulation::PlanningInputs;
//! use sb_core::provision::{provision, ProvisionerParams};
//! use sb_workload::{CallConfig, ConfigCatalog, DemandMatrix, MediaType};
//!
//! let topo = sb_net::presets::toy_three_dc();
//! let jp = topo.country_by_name("JP");
//! let mut catalog = ConfigCatalog::new();
//! let cfg = catalog.intern(CallConfig::new(vec![(jp, 4)], MediaType::Video));
//! let mut demand = DemandMatrix::zero(1, 2, 30, 0);
//! demand.set(cfg, 0, 25.0);
//! demand.set(cfg, 1, 10.0);
//! let inputs = PlanningInputs::new(&topo, &catalog, &demand);
//! let plan = provision(&inputs, &ProvisionerParams::default()).unwrap();
//! assert!(plan.capacity.total_cores() > 0.0);
//! assert!(plan.capacity.covers(&plan.serving, 1e-9));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocation;
pub mod backup;
pub mod baselines;
pub mod formulation;
pub mod latency;
mod metrics;
pub mod plan;
pub mod provision;
pub mod realtime;
pub mod report;
pub mod shares;
pub mod usage;

pub use allocation::allocation_plan;
pub use baselines::{provision_baseline, BaselinePlan, BaselinePolicy};
pub use formulation::{
    solve_scenario, PlanningInputs, ProvisionError, ScenarioData, ScenarioSolution, SolveOptions,
    SweepModel,
};
pub use latency::LatencyMap;
pub use metrics::PLAN_SLOT_COLUMNS;
pub use plan::{
    PlanArtifact, PlanDelta, PlanParseError, PlanProvenance, QuotaChange, ReplanReport,
    SlotPlanner, SlotSolveInfo, MAX_PLAN_SLOTS,
};
pub use provision::{provision, ProvisionerParams, ProvisioningPlan};
pub use realtime::{
    CallExport, FreezeDecision, PlanSwapStats, PlannedQuotas, QuotaCellExport, RealtimeSelector,
    RestoreDebit, SelectorOutcome, SelectorRung, SelectorShard, SelectorStateExport, SelectorStats,
};
pub use shares::AllocationShares;
pub use usage::{
    compute_usage, for_each_link_load, link_loads, mean_acl, placed_fraction, UsageTimeline,
};
