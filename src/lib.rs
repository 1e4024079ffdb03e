//! # Switchboard — efficient resource management for conferencing services
//!
//! A from-scratch Rust reproduction of *Bothra et al., "Switchboard:
//! Efficient Resource Management for Conferencing Services", ACM SIGCOMM
//! 2023*: a controller that provisions media-processing (MP) compute and WAN
//! capacity jointly, exploits time-shifted demand peaks across time zones,
//! and assigns calls to datacenters in real time.
//!
//! This facade re-exports the workspace crates:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`lp`] | `sb-lp` | dense + revised simplex LP engines |
//! | [`net`] | `sb-net` | geography, topology, routing, costs, presets |
//! | [`workload`] | `sb-workload` | synthetic call records, demand, configs |
//! | [`forecast`] | `sb-forecast` | Holt–Winters forecasting, eval metrics |
//! | [`core`] | `sb-core` | provisioning LP, allocation plan, realtime selector, baselines |
//! | [`sim`] | `sb-sim` | trace replay, latency estimation, failure drills |
//! | [`store`] | `sb-store` | sharded call-state store + throughput harness |
//! | [`engine`] | `sb-engine` | selector-as-a-service: admission, lifecycle, hot-swap, drain |
//! | [`predict`] | `sb-predict` | MOMC + logistic-regression config predictor |
//! | [`pack`] | `sb-pack` | intra-DC call packing onto heterogeneous server fleets |
//! | [`obs`] | `sb-obs` | metrics registry: counters, histograms, run reports |
//!
//! Most programs only need [`prelude`]:
//!
//! ```
//! use switchboard::prelude::*;
//!
//! // 1. a provider topology (the Fig. 4 three-DC toy; see presets::apac()
//! //    for the paper's full running example)
//! let topo = switchboard::net::presets::toy_three_dc();
//!
//! // 2. a synthetic workload (stand-in for Teams call records)
//! let params = WorkloadParams {
//!     universe: UniverseParams { num_configs: 10, ..Default::default() },
//!     daily_calls: 200.0,
//!     slot_minutes: 120,
//!     ..Default::default()
//! };
//! let generator = Generator::new(&topo, params);
//! let demand = generator.expected_demand(0, 1);
//!
//! // 3. provision compute + WAN jointly (add backup by flipping the flag)
//! let inputs = PlanningInputs::new(&topo, &generator.universe().catalog, &demand);
//! let opts = ProvisionerParams { with_backup: false, ..Default::default() };
//! let plan = provision(&inputs, &opts).unwrap();
//! assert!(plan.capacity.total_cores() > 0.0);
//! ```

#![forbid(unsafe_code)]

pub use sb_core as core;
pub use sb_engine as engine;
pub use sb_forecast as forecast;
pub use sb_lp as lp;
pub use sb_net as net;
pub use sb_obs as obs;
pub use sb_pack as pack;
pub use sb_predict as predict;
pub use sb_sim as sim;
pub use sb_store as store;
pub use sb_workload as workload;

use std::fmt;

/// Unified error for programs driving the whole pipeline: every fallible
/// stage (LP solve, provisioning sweep, forecast fit, trace parsing)
/// converts into it with `?`.
#[derive(Debug)]
pub enum Error {
    /// An LP engine failed (infeasible, unbounded, bad model).
    Lp(lp::LpError),
    /// The provisioning sweep failed (carries the failure scenario).
    Provision(core::ProvisionError),
    /// A Holt–Winters fit failed.
    Forecast(forecast::FitError),
    /// A call-record trace failed to parse.
    Trace(workload::persist::PersistError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Lp(e) => write!(f, "lp: {e}"),
            Error::Provision(e) => write!(f, "provision: {e}"),
            Error::Forecast(e) => write!(f, "forecast: {e}"),
            Error::Trace(e) => write!(f, "trace: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Lp(e) => Some(e),
            Error::Provision(e) => Some(e),
            Error::Forecast(e) => Some(e),
            Error::Trace(e) => Some(e),
        }
    }
}

impl From<lp::LpError> for Error {
    fn from(e: lp::LpError) -> Error {
        Error::Lp(e)
    }
}

impl From<core::ProvisionError> for Error {
    fn from(e: core::ProvisionError) -> Error {
        Error::Provision(e)
    }
}

impl From<forecast::FitError> for Error {
    fn from(e: forecast::FitError) -> Error {
        Error::Forecast(e)
    }
}

impl From<workload::persist::PersistError> for Error {
    fn from(e: workload::persist::PersistError) -> Error {
        Error::Trace(e)
    }
}

/// Convenience result alias over the unified [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

/// The types most programs need, importable with one `use`.
///
/// The prelude is layered by audience:
///
/// * `prelude` (this module) — the end-user planning pipeline: build a
///   topology and workload, provision capacity, plan the daily allocation,
///   export/parse plan artifacts, collect metrics.
/// * [`prelude::solver`] — LP internals
///   ([`RevisedSimplex`](prelude::solver::RevisedSimplex),
///   [`GuardedSimplex`](prelude::solver::GuardedSimplex),
///   [`Basis`](prelude::solver::Basis), …) for programs that drive the
///   simplex engines directly.
/// * [`prelude::engine`] — real-time selector, replay/chaos orchestration,
///   the closed-loop autoscaler, and the `sb-engine` service layer.
pub mod prelude {
    pub use crate::{Error, Result};
    pub use sb_core::{
        allocation_plan, provision, AllocationShares, BaselinePlan, BaselinePolicy, LatencyMap,
        PlanArtifact, PlanDelta, PlanProvenance, PlannedQuotas, PlanningInputs, ProvisionError,
        ProvisionerParams, ProvisioningPlan, ReplanReport, ScenarioSolution, SlotPlanner,
    };
    pub use sb_lp::LpError;
    pub use sb_net::{FailureMask, FailureScenario, ProvisionedCapacity, RoutingTable, Topology};
    pub use sb_obs::{MetricsRegistry, ScopedTimer};
    pub use sb_store::{measure_throughput, CallStateStore, ShardedMap};
    pub use sb_workload::{
        CallConfig, CallRecordsDb, ConfigCatalog, DemandMatrix, Generator, MediaType,
        UniverseParams, WorkloadParams,
    };

    /// LP internals: the simplex engines and the problem/solution types
    /// they share. Import this layer only when driving the solvers
    /// directly; [`provision()`] and [`SlotPlanner`] wrap them for the
    /// pipeline use case.
    pub mod solver {
        pub use sb_lp::{
            Basis, Constraint, DenseSimplex, GuardedSimplex, IterationTimes, LpError, LpProblem,
            Pricing, RevisedSimplex, Solution, SolveRung, SolveStats, Solver, Var, VarStatus,
        };
    }

    /// Real-time selector primitives, replay/chaos orchestration, and the
    /// `sb-engine` service layer.
    pub mod engine {
        pub use sb_core::{
            FreezeDecision, PlanSwapStats, RealtimeSelector, SelectorOutcome, SelectorRung,
            SelectorShard, SelectorStats,
        };
        pub use sb_engine::{
            Admission, Engine, EngineConfig, EnginePackConfig, EngineStats, EngineWorker,
            ServerDeathReport,
        };
        pub use sb_pack::{
            CostModel, FleetPacker, FleetSpec, GrowthModel, PackPolicy, PackStats, PackerConfig,
            ServerClass, ServerId,
        };
        pub use sb_sim::{
            replay, replay_concurrent, AutoscaleConfig, AutoscaleLoop, AutoscaleReport,
            AutoscaleStats, AutoscaleWindow, ChaosConfig, ChaosReport, ChaosStats, FaultEvent,
            FaultTimeline, PackReplayStats, PackSetup, PlanSwap, ReplanRequest, ReplanTrigger,
            Replanner, ReplayConfig, ReplayDriver, ReplayReport, ReplayStats, WindowStats,
        };
        pub use sb_store::LatencyHistogram;
    }
}
