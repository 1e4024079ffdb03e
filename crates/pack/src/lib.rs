//! # sb-pack — intra-DC call packing onto heterogeneous MP server fleets
//!
//! Switchboard's selector (PAPER.md) answers *which DC* hosts a call. This
//! crate answers the next question — *which media-processing server inside
//! that DC* — following the Tetris line of work (PAPERS.md, arXiv
//! 2508.00426, the same Microsoft conferencing lineage): participant-count
//! growth and CPU heterogeneity, not admission, are what actually create
//! server hotspots and reactive migrations inside a DC.
//!
//! With it, a placement becomes a two-level `(DC, server)` pair end-to-end:
//! `sb-engine` packs at admission, re-packs on participant growth, carries
//! the server id through freeze debits, WAL records and recovery, and
//! drains server deaths in-DC before escalating to the PR-2 degradation
//! ladder.
//!
//! ## Layout
//!
//! | module | contents |
//! |---|---|
//! | [`fleet`] | [`FleetSpec`] capacity classes, [`ServerId`], affine [`CostModel`] |
//! | [`growth`] | [`GrowthModel`] participant-growth predictor on the `sb-predict` Markov chain |
//! | [`packer`] | [`FleetPacker`] scoring, re-pack, eviction, death drains, restore ops |
//!
//! ## Determinism
//!
//! All packing state is integer millicores and every tie-break is total
//! (lowest server index, lowest call id), so a serial op sequence fully
//! determines placements and [`PackStats`] — the contract the differential
//! harness (serial packing oracle vs concurrent replay) checks bitwise.
//! Predicted load only shapes *scores*; the `used ≤ capacity` invariant is
//! enforced on actual cost alone, so a bad model can never cause a
//! capacity violation.
//!
//! Fleet-level `pack.*` counters (placements, migrations, deaths, spills,
//! violations, utilization) are published through the global [`sb_obs`]
//! registry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet;
pub mod growth;
pub mod packer;

pub use fleet::{CostModel, FleetSpec, ServerClass, ServerId, NO_SERVER};
pub use growth::{GrowthConfig, GrowthModel};
pub use packer::{
    best_fit_decreasing, CallInfo, FleetPacker, GrowKind, GrowOutcome, KillResult, MoveDcOutcome,
    PackPolicy, PackStateExport, PackStats, PackerConfig, SlotChange, SpilledCall,
};
