//! Property tests for the intra-DC packer: randomized heterogeneous fleets
//! and op sequences must preserve the packer's hard invariants.
//!
//! The properties (ISSUE 9, satellite 1):
//!
//! 1. no live server ever exceeds its capacity, and dead servers host
//!    nothing;
//! 2. every placed call occupies exactly one slot on exactly one live
//!    server, and the per-server `used` tallies equal the sum of their
//!    call costs;
//! 3. re-pack migrations conserve calls — a grow never creates or drops a
//!    slot — and never move a frozen call (death drains are the documented
//!    exemption);
//! 4. the scorer is deterministic: the same op sequence on a fresh packer
//!    reproduces placements, stats, and per-server tallies bitwise;
//! 5. the scorer's one-scan server choice equals the two-scan form it
//!    replaced (ISSUE 13): every placement and every growth move lands where
//!    [`two_pass_choice`], run over the exported occupancy, says it should.

use std::collections::HashMap;

use proptest::prelude::*;
use sb_net::DcId;
use sb_pack::{
    CostModel, FleetPacker, FleetSpec, GrowKind, PackPolicy, PackStateExport, PackerConfig,
    ServerId, SlotChange,
};

/// One interpreted op; generated tuples index into a mix table so each test
/// can weight the vocabulary differently.
#[derive(Clone, Copy, Debug)]
enum Op {
    Place,
    Grow,
    Freeze,
    Remove,
    Kill,
}

/// General workload: mostly placements and growth, occasional deaths.
const GENERAL_MIX: &[Op] = &[
    Op::Place,
    Op::Place,
    Op::Place,
    Op::Place,
    Op::Place,
    Op::Place,
    Op::Grow,
    Op::Grow,
    Op::Grow,
    Op::Grow,
    Op::Freeze,
    Op::Freeze,
    Op::Remove,
    Op::Remove,
    Op::Kill,
];

/// Growth-heavy workload: maximizes re-pack and eviction paths.
const GROW_MIX: &[Op] = &[
    Op::Place,
    Op::Place,
    Op::Place,
    Op::Grow,
    Op::Grow,
    Op::Grow,
    Op::Grow,
    Op::Grow,
    Op::Grow,
    Op::Freeze,
    Op::Freeze,
    Op::Freeze,
];

/// Death-heavy workload: drains dominate, exercising rehome and spill.
const KILL_MIX: &[Op] = &[
    Op::Place,
    Op::Place,
    Op::Place,
    Op::Place,
    Op::Grow,
    Op::Freeze,
    Op::Kill,
    Op::Kill,
];

type RawOp = (u8, u64, u32);

/// Tracked state per placed call: `(dc, frozen, participants)`.
type Model = HashMap<u64, (DcId, bool, u32)>;

fn fleet_strategy() -> impl Strategy<Value = (FleetSpec, PackPolicy)> {
    (1usize..4)
        .prop_flat_map(|dcs| {
            (
                collection::vec(collection::vec(600u32..6_000, 1..7), dcs..=dcs),
                prop_oneof![Just(PackPolicy::BestFit), Just(PackPolicy::GrowthAware)],
            )
        })
        .prop_map(|(caps, policy)| {
            let mut spec = FleetSpec::empty(caps.len());
            for (d, dc_caps) in caps.iter().enumerate() {
                for &c in dc_caps {
                    spec.push_server(DcId(d as u16), c);
                }
            }
            (spec, policy)
        })
}

fn ops_strategy() -> impl Strategy<Value = Vec<RawOp>> {
    collection::vec((0u8..=u8::MAX, 0u64..1_000_000, 0u32..100_000), 1..150)
}

fn build(spec: &FleetSpec, policy: PackPolicy) -> FleetPacker {
    FleetPacker::new(
        spec.clone(),
        PackerConfig {
            policy,
            hysteresis_mcpu: 400,
            max_evictions: 3,
        },
    )
}

/// The packer's server choice in the two-scan form it had before ISSUE 13,
/// over one DC of an exported snapshot: among live servers (minus `exclude`)
/// where the actual cost fits, best-fit takes the tightest actual fit;
/// growth-aware (and the `preferred_only` probe) takes the tightest reserved
/// fit among servers whose reservations fit too, else — unless
/// `preferred_only` — the most reserved headroom. Ties go to the lowest index.
fn two_pass_choice(
    state: &PackStateExport,
    dc: DcId,
    policy: PackPolicy,
    cost: u32,
    reserve: u32,
    exclude: Option<u16>,
    preferred_only: bool,
) -> Option<u16> {
    let feasible = || {
        state.servers[dc.0 as usize]
            .iter()
            .enumerate()
            .filter(|&(i, s)| {
                s.live
                    && Some(i as u16) != exclude
                    && s.used_mcpu.saturating_add(cost) <= s.capacity_mcpu
            })
    };
    if policy == PackPolicy::BestFit && !preferred_only {
        return feasible()
            .min_by_key(|&(i, s)| (s.capacity_mcpu - s.used_mcpu - cost, i))
            .map(|(i, _)| i as u16);
    }
    let preferred = feasible()
        .filter(|&(_, s)| s.reserved_mcpu.saturating_add(reserve) <= s.capacity_mcpu)
        .min_by_key(|&(i, s)| (s.capacity_mcpu - s.reserved_mcpu - reserve, i))
        .map(|(i, _)| i as u16);
    if preferred.is_some() || preferred_only {
        return preferred;
    }
    feasible()
        .max_by_key(|&(i, s)| {
            (
                s.capacity_mcpu.saturating_sub(s.reserved_mcpu),
                usize::MAX - i,
            )
        })
        .map(|(i, _)| i as u16)
}

/// Deterministic pick of an existing call from the model.
fn pick(model: &Model, a: u64) -> Option<u64> {
    if model.is_empty() {
        return None;
    }
    let mut keys: Vec<u64> = model.keys().copied().collect();
    keys.sort_unstable();
    Some(keys[(a % keys.len() as u64) as usize])
}

/// Interpret `ops` against `p`, checking per-op invariants (frozen calls
/// never move on growth, grows conserve slots, victims are unfrozen) and
/// mirroring packed calls into a model for the final audit.
fn run_ops(
    p: &FleetPacker,
    policy: PackPolicy,
    cost: &CostModel,
    ops: &[RawOp],
    mix: &[Op],
) -> Result<Model, TestCaseError> {
    let dcs = p.spec().num_dcs() as u64;
    let mut model: Model = HashMap::new();
    let mut next_call = 1u64;
    for &(kind, a, b) in ops {
        match mix[(kind as usize) % mix.len()] {
            Op::Place => {
                let dc = DcId((a % dcs) as u16);
                let parts = 1 + b % 8;
                let c = cost.cost_mcpu(parts);
                let reserve = c.saturating_add(b % 1_500);
                let expect =
                    two_pass_choice(&p.export_state(), dc, policy, c, reserve, None, false);
                let placed = p.place(dc, next_call, parts, c, reserve);
                prop_assert_eq!(
                    placed.map(|s| s.index),
                    expect,
                    "call {} placed off the two-pass choice",
                    next_call
                );
                if placed.is_some() {
                    model.insert(next_call, (dc, false, parts));
                }
                next_call += 1;
            }
            Op::Grow => {
                let Some(call) = pick(&model, a) else {
                    continue;
                };
                let (dc, frozen, parts) = model[&call];
                let before = p.server_of(dc, call);
                let state_before = p.export_state();
                let slots_before = state_before.calls.iter().map(Vec::len).sum::<usize>();
                let np = parts + 1;
                let c = cost.cost_mcpu(np);
                let reserve = c.saturating_add(b % 1_500);
                let out = p.grow(dc, call, np, c, reserve);
                if let GrowKind::Moved {
                    from,
                    to,
                    proactive,
                } = out.kind
                {
                    // the source server is excluded from the scan, so the
                    // pre-grow snapshot is what the scorer chose from
                    prop_assert_eq!(
                        two_pass_choice(
                            &state_before,
                            dc,
                            policy,
                            c,
                            reserve,
                            Some(from),
                            proactive
                        ),
                        Some(to),
                        "call {} moved off the two-pass choice ({:?})",
                        call,
                        out.kind
                    );
                }
                if frozen {
                    prop_assert_eq!(
                        p.server_of(dc, call),
                        before,
                        "frozen call {} moved on growth ({:?})",
                        call,
                        out.kind
                    );
                }
                for &SlotChange {
                    call: id, server, ..
                } in &out.changed
                {
                    if id != call {
                        prop_assert!(!model[&id].1, "frozen call {} evicted as a victim", id);
                    }
                    prop_assert_eq!(
                        p.server_of(dc, id),
                        Some(ServerId { dc, index: server }),
                        "changed entry for call {} disagrees with live placement",
                        id
                    );
                }
                let slots_after = p.export_state().calls.iter().map(Vec::len).sum::<usize>();
                prop_assert_eq!(
                    slots_before,
                    slots_after,
                    "grow of call {} created or dropped a slot ({:?})",
                    call,
                    out.kind
                );
                if !matches!(out.kind, GrowKind::Rejected | GrowKind::Unknown) {
                    model.get_mut(&call).unwrap().2 = np;
                }
            }
            Op::Freeze => {
                let Some(call) = pick(&model, a) else {
                    continue;
                };
                let dc = model[&call].0;
                prop_assert!(
                    p.freeze(dc, call),
                    "freeze of tracked call {} refused",
                    call
                );
                model.get_mut(&call).unwrap().1 = true;
            }
            Op::Remove => {
                let Some(call) = pick(&model, a) else {
                    continue;
                };
                let (dc, _, _) = model.remove(&call).unwrap();
                prop_assert!(p.remove(dc, call).is_some());
            }
            Op::Kill => {
                let dc = DcId((a % dcs) as u16);
                let n = p.spec().servers_in(dc) as u32;
                if n == 0 {
                    continue;
                }
                let r = p.kill_server(ServerId {
                    dc,
                    index: (b % n) as u16,
                });
                for s in &r.spilled {
                    prop_assert!(model.remove(&s.call).is_some(), "spilled unknown call");
                }
                for &SlotChange { call: id, .. } in &r.rehomed {
                    prop_assert!(model.contains_key(&id), "rehomed unknown call {}", id);
                }
            }
        }
    }
    Ok(model)
}

/// Final audit: properties 1 and 2 over the exported snapshot, plus
/// model agreement (the packer tracks exactly the calls we think it does).
fn audit(p: &FleetPacker, model: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(p.capacity_violations(), 0);
    let ex = p.export_state();
    let mut seen: HashMap<u64, usize> = HashMap::new();
    for (d, calls) in ex.calls.iter().enumerate() {
        let mut used = vec![0u32; ex.servers[d].len()];
        for &(id, server, _, c, _, frozen) in calls {
            prop_assert!(
                seen.insert(id, d).is_none(),
                "call {} packed in two DCs",
                id
            );
            let srv = ex.servers[d][server as usize];
            prop_assert!(srv.live, "call {} sits on dead server {}/{}", id, d, server);
            used[server as usize] += c;
            prop_assert_eq!(frozen, model[&id].1, "frozen flag drift on call {}", id);
        }
        for (i, s) in ex.servers[d].iter().enumerate() {
            prop_assert_eq!(s.used_mcpu, used[i], "used tally drift on {}/{}", d, i);
            prop_assert!(
                !s.live || s.used_mcpu <= s.capacity_mcpu,
                "live server {}/{} over capacity: {} > {}",
                d,
                i,
                s.used_mcpu,
                s.capacity_mcpu
            );
            prop_assert!(
                s.live || s.used_mcpu == 0,
                "dead server {}/{} still hosts {} mcpu",
                d,
                i,
                s.used_mcpu
            );
        }
    }
    prop_assert_eq!(
        seen.len(),
        model.len(),
        "packer and model disagree on call count"
    );
    for (id, &(dc, _, _)) in model {
        prop_assert_eq!(
            seen.get(id).copied(),
            Some(dc.0 as usize),
            "call {} in wrong DC",
            id
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_workloads_respect_hard_invariants(
        (spec, policy) in fleet_strategy(),
        ops in ops_strategy(),
    ) {
        let p = build(&spec, policy);
        let model = run_ops(&p, policy, &CostModel::default(), &ops, GENERAL_MIX)?;
        audit(&p, &model)?;
    }

    #[test]
    fn growth_repacks_conserve_calls_and_respect_frozen(
        (spec, policy) in fleet_strategy(),
        ops in ops_strategy(),
    ) {
        // growth-heavy mix: forced moves, proactive re-packs, and frozen
        // evictions fire far more often; run_ops checks the frozen and
        // conservation properties after every grow
        let p = build(&spec, policy);
        let model = run_ops(&p, policy, &CostModel::default(), &ops, GROW_MIX)?;
        audit(&p, &model)?;
    }

    #[test]
    fn death_drains_strand_nothing_on_dead_servers(
        (spec, policy) in fleet_strategy(),
        ops in ops_strategy(),
    ) {
        // kill-heavy mix: most servers die mid-run; surviving calls must
        // all sit on live servers and spills must exactly cover the rest
        let p = build(&spec, policy);
        let model = run_ops(&p, policy, &CostModel::default(), &ops, KILL_MIX)?;
        audit(&p, &model)?;
    }

    #[test]
    fn packing_is_deterministic_under_identical_op_sequences(
        (spec, policy) in fleet_strategy(),
        ops in ops_strategy(),
    ) {
        let a = build(&spec, policy);
        let b = build(&spec, policy);
        run_ops(&a, policy, &CostModel::default(), &ops, GENERAL_MIX)?;
        run_ops(&b, policy, &CostModel::default(), &ops, GENERAL_MIX)?;
        prop_assert_eq!(a.export_state(), b.export_state());
        prop_assert_eq!(a.stats(), b.stats());
        prop_assert_eq!(a.per_server_peak_mcpu(), b.per_server_peak_mcpu());
        prop_assert_eq!(a.per_server_placed(), b.per_server_placed());
    }
}
