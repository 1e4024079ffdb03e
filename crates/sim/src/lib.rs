//! # sb-sim — replay and evaluation engine
//!
//! Drives the Switchboard controller the way production traffic would and
//! measures what §6 measures:
//!
//! * [`mod@replay`] — event-driven trace replay through the real-time selector
//!   (per-call ACL, per-minute usage peaks, migrations, capacity violations);
//! * [`control`] — the one windowed control loop: a materialized trace
//!   (`ReplayDriver`, chaos replay) or a window stream (`AutoscaleLoop`,
//!   closed-loop autoscaling) through the selector under a fault timeline,
//!   with re-plans on fault/stale/schedule/drift triggers and capacity, ACL
//!   and peaks accounted in every run;
//! * [`chaos`] — the fault vocabulary (`FaultTimeline`, `FaultEvent`) and
//!   what a re-plan is asked with (`ReplanTrigger`, `ReplanRequest`);
//! * [`crash`] — crash/recovery drills for the journaled engine, plus the
//!   `ServiceFault` vocabulary (worker deaths, journal stalls);
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

pub mod chaos;
pub mod control;
pub mod crash;
pub mod drive;
pub mod estimator;
pub mod failures;
pub mod replay;
#[cfg(test)]
mod testkit;

pub use chaos::{ChaosState, FaultEvent, FaultTimeline, ReplanRequest, ReplanTrigger};
pub use control::{
    AutoscaleLoop, ControlLoop, LoopConfig, LoopReport, LoopStats, LoopWindow, ReplayDriver,
};
pub use crash::{
    drive_with_crashes, CrashDrillConfig, CrashDrillError, CrashOutcome, ServiceFault,
};
pub use estimator::{estimate_from_trace, sample_leg_latency, LatencyEstimator};
pub use failures::{drill, DrillReport};
pub use replay::{
    replay, replay_concurrent, PackReplayStats, PackSetup, ReplayConfig, ReplayReport, ReplayStats,
    ReplayTiming,
};
