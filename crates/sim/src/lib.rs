//! # sb-sim — replay and evaluation engine
//!
//! Drives the Switchboard controller the way production traffic would and
//! measures what §6 measures:
//!
//! * [`mod@replay`] — event-driven trace replay through the real-time selector
//!   (per-call ACL, per-minute usage peaks, migrations, capacity violations);
//! * [`chaos`] — timed mid-replay fault injection (`ReplayDriver` +
//!   `FaultTimeline`) with fault-triggered re-planning;
//! * [`crash`] — crash/recovery drills for the journaled engine, plus the
//!   `ServiceFault` vocabulary (worker deaths, journal stalls);
//! * [`autoscale`] — the closed-loop autoscaler: streamed windows through the
//!   selector, an online forecaster fed at every bucket close, and warm
//!   re-plans on drift/schedule/fault triggers;
//! * [`estimator`] — the §6.2 median leg-latency estimator (counterfactual
//!   `Lat(x,u)` from pooled measurements);
//! * [`failures`] — failure drills validating that backup capacity absorbs a
//!   DC or link loss.

//!
//! ```
//! use rand::SeedableRng;
//! use sb_net::{FailureScenario, RoutingTable};
//! use sb_sim::LatencyEstimator;
//!
//! let topo = sb_net::presets::toy_three_dc();
//! let routing = RoutingTable::compute(&topo, FailureScenario::None);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let mut est = LatencyEstimator::new(&topo);
//! let jp = topo.country_by_name("JP");
//! let tokyo = topo.dc_by_name("Tokyo");
//! for _ in 0..99 {
//!     let l = sb_sim::sample_leg_latency(&mut rng, &routing, jp, tokyo).unwrap();
//!     est.observe(jp, tokyo, l);
//! }
//! let truth = routing.latency_ms(jp, tokyo).unwrap();
//! assert!((est.median(jp, tokyo).unwrap() - truth).abs() < 0.2 * truth + 2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod autoscale;
pub mod chaos;
pub mod crash;
pub mod drive;
pub mod estimator;
pub mod failures;
pub mod replay;
#[cfg(test)]
mod testkit;

pub use autoscale::{
    AutoscaleConfig, AutoscaleLoop, AutoscaleReport, AutoscaleStats, AutoscaleWindow,
};
pub use chaos::{
    ChaosConfig, ChaosReport, ChaosState, ChaosStats, FaultEvent, FaultTimeline, ReplanRequest,
    ReplanTrigger, Replanner, ReplayDriver, WindowStats,
};
pub use crash::{
    drive_with_crashes, CrashDrillConfig, CrashDrillError, CrashOutcome, ServiceFault,
};
pub use estimator::{estimate_from_trace, sample_leg_latency, LatencyEstimator};
pub use failures::{drill, DrillReport};
pub use replay::{
    replay, replay_concurrent, PackReplayStats, PackSetup, PlanSwap, ReplayConfig, ReplayReport,
    ReplayStats, ReplayTiming,
};
