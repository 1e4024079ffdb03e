//! # sb-bench — the paper's evaluation harness
//!
//! One binary per table/figure (see `src/bin/`), plus Criterion
//! micro-benchmarks of our own implementation (see `benches/`). The shared
//! pipeline — topology, workload, top-coverage selection, envelope-day
//! reduction — lives in [`common`]; the benches that commit a `BENCH_*.json`
//! all write it through [`report`].

pub mod common;
pub mod load;
pub mod report;
