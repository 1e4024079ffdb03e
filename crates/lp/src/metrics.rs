//! Cached handles into the global [`sb_obs`] registry for the LP engines.
//!
//! Handles are resolved once per process; when the global registry is
//! disabled (the default) every record below is a single relaxed load.

use crate::problem::{LpError, SolveStats};
use sb_obs::{Counter, Gauge, Histogram};
use std::sync::OnceLock;

pub(crate) struct LpMetrics {
    solves: Counter,
    phase1_iterations: Counter,
    phase2_iterations: Counter,
    refactorizations: Counter,
    solve_wall_ns: Histogram,
    pricing_ns: Histogram,
    btran_ns: Histogram,
    pivot_row_ns: Histogram,
    ftran_ns: Histogram,
    ratio_ns: Histogram,
    update_ns: Histogram,
    refactor_ns: Histogram,
    time_limit_aborts: Counter,
    dense_fallbacks: Counter,
    cold_retries: Counter,
    warm_accepted: Counter,
    warm_rejected_singular: Counter,
    warm_rejected_infeasible: Counter,
    phase1_iterations_saved: Counter,
    pricing_scans: Counter,
    pricing_cols_scanned: Counter,
    full_pricing_sweeps: Counter,
    eta_updates: Counter,
    devex_resets: Counter,
    ftran_steps_visited: Histogram,
    btran_steps_visited: Histogram,
    w_nnz: Histogram,
    rho_nnz: Histogram,
    basis_nnz: Gauge,
    fill_ratio: Gauge,
    restore_pivots: Counter,
    restore_giveups_cap: Counter,
    restore_giveups_no_column: Counter,
    restore_giveups_singular: Counter,
}

/// Why a dual feasibility restoration gave up (the caller then solves cold).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum RestoreGiveup {
    /// Pivot cap reached with a bound still violated.
    Cap,
    /// No sign-eligible entering column for the violated row.
    NoColumn,
    /// A scheduled refactorization found the basis singular.
    Singular,
}

impl LpMetrics {
    pub(crate) fn record_solve(&self, stats: &SolveStats) {
        self.solves.inc();
        self.phase1_iterations.add(stats.phase1_iterations);
        self.phase2_iterations.add(stats.phase2_iterations);
        self.refactorizations.add(stats.refactorizations);
        self.solve_wall_ns.record_duration(stats.wall);
        self.pricing_ns.record_duration(stats.times.pricing);
        self.btran_ns.record_duration(stats.times.btran);
        self.pivot_row_ns.record_duration(stats.times.pivot_row);
        self.ftran_ns.record_duration(stats.times.ftran);
        self.ratio_ns.record_duration(stats.times.ratio);
        self.update_ns.record_duration(stats.times.update);
        self.refactor_ns.record_duration(stats.times.refactor);
        self.phase1_iterations_saved
            .add(stats.phase1_iterations_saved);
        self.pricing_scans.add(stats.pricing_scans);
        self.pricing_cols_scanned.add(stats.pricing_cols_scanned);
        self.full_pricing_sweeps.add(stats.full_pricing_sweeps);
        self.eta_updates.add(stats.eta_updates);
        self.devex_resets.add(stats.devex_resets);
        // one sample per solve: that solve's mean, rounded
        self.ftran_steps_visited
            .record(stats.ftran_steps_visited.round() as u64);
        self.btran_steps_visited
            .record(stats.btran_steps_visited.round() as u64);
        self.w_nnz.record(stats.w_nnz.round() as u64);
        self.rho_nnz.record(stats.rho_nnz.round() as u64);
        self.basis_nnz.set(stats.basis_nnz as f64);
        self.fill_ratio.set(stats.fill_ratio);
    }

    pub(crate) fn record_fallback(&self, cause: &LpError) {
        self.dense_fallbacks.inc();
        if matches!(cause, LpError::TimeLimit) {
            self.time_limit_aborts.inc();
        }
    }

    /// One finished `dual_restore` pass: pivots spent, and why it gave up
    /// if it did.
    pub(crate) fn record_restore(&self, pivots: u64, giveup: Option<RestoreGiveup>) {
        self.restore_pivots.add(pivots);
        match giveup {
            None => {}
            Some(RestoreGiveup::Cap) => self.restore_giveups_cap.inc(),
            Some(RestoreGiveup::NoColumn) => self.restore_giveups_no_column.inc(),
            Some(RestoreGiveup::Singular) => self.restore_giveups_singular.inc(),
        }
    }

    pub(crate) fn record_cold_retry(&self) {
        self.cold_retries.inc();
    }

    pub(crate) fn record_warm_accepted(&self) {
        self.warm_accepted.inc();
    }

    pub(crate) fn record_warm_rejected(&self, singular: bool) {
        if singular {
            self.warm_rejected_singular.inc();
        } else {
            self.warm_rejected_infeasible.inc();
        }
    }
}

pub(crate) fn lp_metrics() -> &'static LpMetrics {
    static METRICS: OnceLock<LpMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = sb_obs::global();
        LpMetrics {
            solves: reg.counter("lp.solves"),
            phase1_iterations: reg.counter("lp.phase1_iterations"),
            phase2_iterations: reg.counter("lp.phase2_iterations"),
            refactorizations: reg.counter("lp.refactorizations"),
            solve_wall_ns: reg.histogram("lp.solve_wall_ns"),
            pricing_ns: reg.histogram("lp.pricing_ns"),
            btran_ns: reg.histogram("lp.btran_ns"),
            pivot_row_ns: reg.histogram("lp.pivot_row_ns"),
            ftran_ns: reg.histogram("lp.ftran_ns"),
            ratio_ns: reg.histogram("lp.ratio_ns"),
            update_ns: reg.histogram("lp.update_ns"),
            refactor_ns: reg.histogram("lp.refactor_ns"),
            time_limit_aborts: reg.counter("lp.time_limit_aborts"),
            dense_fallbacks: reg.counter("lp.dense_fallbacks"),
            cold_retries: reg.counter("lp.cold_retries"),
            warm_accepted: reg.counter("lp.warm_accepted"),
            warm_rejected_singular: reg.counter("lp.warm_rejected_singular"),
            warm_rejected_infeasible: reg.counter("lp.warm_rejected_infeasible"),
            phase1_iterations_saved: reg.counter("lp.phase1_iterations_saved"),
            pricing_scans: reg.counter("lp.pricing_scans"),
            pricing_cols_scanned: reg.counter("lp.pricing_cols_scanned"),
            full_pricing_sweeps: reg.counter("lp.full_pricing_sweeps"),
            eta_updates: reg.counter("lp.eta_updates"),
            devex_resets: reg.counter("lp.devex_resets"),
            ftran_steps_visited: reg.histogram("lp.ftran_steps_visited"),
            btran_steps_visited: reg.histogram("lp.btran_steps_visited"),
            w_nnz: reg.histogram("lp.w_nnz"),
            rho_nnz: reg.histogram("lp.rho_nnz"),
            basis_nnz: reg.gauge("lp.basis_nnz"),
            fill_ratio: reg.gauge("lp.fill_ratio"),
            restore_pivots: reg.counter("lp.restore_pivots"),
            restore_giveups_cap: reg.counter("lp.restore_giveups_cap"),
            restore_giveups_no_column: reg.counter("lp.restore_giveups_no_column"),
            restore_giveups_singular: reg.counter("lp.restore_giveups_singular"),
        }
    })
}
