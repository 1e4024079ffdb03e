//! # sb-bench — the paper's evaluation harness
//!
//! One binary per table/figure or perf question (see `src/bin/`); each but
//! the `inspect_plan` tool is gated by one committed `BENCH_*.json`, written
//! and checked through [`report`].
//! The shared pipeline — topology, workload, top-coverage selection,
//! envelope-day reduction — lives in [`common`]; the greedy solver the
//! ablation compares with the exact LP lives in [`decomposed`].

pub mod common;
pub mod decomposed;
pub mod load;
pub mod report;
