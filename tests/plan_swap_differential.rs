//! Differential tests for a mid-run plan install: installing the plan
//! already live while a trace is in flight must be a behavioral no-op. A
//! running plan changes only at the control loop's barrier, which drains and
//! rebuilds every quota pool with consumed-tally carry-over; if that
//! bookkeeping double-counted a freeze or resurrected spent quota, the stats
//! would drift from an install-free run. The same property runs over every
//! world of `replay_differential.rs`; these two worlds are seeded apart from
//! that table.

mod common;

use common::{assert_identical_install_is_noop, world};

#[test]
fn identical_plan_swap_is_a_noop_under_quota_pressure() {
    // 45% quotas: pools drain before and after each install, so resurrected
    // quota would surface as extra plan placements immediately
    let w = world(71, 8_000.0, 0.90, 0.45);
    assert_identical_install_is_noop(&w, "pressure-71", true);
}

#[test]
fn identical_plan_swap_is_a_noop_with_ample_quotas() {
    let w = world(83, 5_000.0, 0.95, 1.3);
    assert_identical_install_is_noop(&w, "ample-83", false);
}
