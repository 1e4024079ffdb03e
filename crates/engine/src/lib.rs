//! # sb-engine — the Switchboard selector as a long-running service
//!
//! `sb-core` owns the real-time placement *primitives*; this crate owns the
//! *orchestration* a production control plane wraps around them:
//!
//! * [`Engine`] — admission control, call lifecycle persisted through the
//!   `sb-store` call-state store, plan hot-swap wired to
//!   [`sb_core::RealtimeSelector::install_plan`], graceful drain;
//! * [`EngineWorker`] — per-thread handle batching selector stats and
//!   latency samples locally (merged on flush/drop);
//!   [`Engine::op_latency`] and [`Engine::store_latency`] are
//!   [`sb_store::LatencyHistogram`]s (log-linear, p50/p99/p999 at nanosecond
//!   scale) over one serving op in [`OP_SAMPLE`], each sample recorded with
//!   weight [`OP_SAMPLE`] so counts, means and quantiles estimate every op —
//!   the other ops read no clock; [`EngineStats::store_writes`] is exact;
//! * `sb-engine` (the binary) — a line-protocol service front end over an
//!   [`Engine`] (stdin/stdout or TCP), driven interactively or by the
//!   `engine_load` bench.
//!
//! ```
//! use sb_core::{LatencyMap, PlanArtifact, PlannedQuotas, AllocationShares};
//! use sb_engine::{Admission, Engine, EngineConfig};
//! use sb_net::{FailureScenario, RoutingTable};
//! use sb_workload::{ConfigId, DemandMatrix};
//!
//! let topo = sb_net::presets::toy_three_dc();
//! let routing = RoutingTable::compute(&topo, FailureScenario::None);
//! let latmap = LatencyMap::from_routing(&topo, &routing);
//! let mut shares = AllocationShares::new(1);
//! let mut demand = DemandMatrix::zero(1, 1, 30, 0);
//! shares.set(ConfigId(0), 0, vec![(topo.dc_by_name("Tokyo"), 1.0)]);
//! demand.set(ConfigId(0), 0, 8.0);
//! let artifact = PlanArtifact::seed(PlannedQuotas::from_plan(&shares, &demand));
//!
//! let engine = Engine::new(&latmap, &artifact, &EngineConfig::default());
//! let mut worker = engine.worker();
//! let jp = topo.country_by_name("JP");
//! let Admission::Granted(outcome) = worker.admit(1, jp) else { panic!() };
//! assert!(outcome.dc().is_some());
//! worker.freeze(1, ConfigId(0), 0);
//! worker.end(1);
//! drop(worker);
//! assert_eq!(engine.stats().selector.freezes, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod protocol;
pub mod wal;

pub use engine::{
    Admission, Engine, EngineConfig, EnginePackConfig, EngineStats, EngineWorker, OverloadConfig,
    RecoveryError, RecoveryReport, ServerDeathReport, ShedReason, OP_SAMPLE,
};
pub use protocol::{Command, ProtocolError, MAX_LINE_BYTES};
pub use wal::{WalDecodeError, WalRecord};
