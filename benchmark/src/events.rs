//! Event order of the join-bearing workloads (`chain_apac_4w`,
//! `serve_durable`).
//!
//! `serve_bare` does not use this module: it replays
//! [`sb_sim::replay::build_events`] verbatim (minute granularity, start <
//! freeze < end) so its engine stays bitwise-comparable with the replay
//! oracle. Joins need second granularity, so the other two workloads order
//! by `(second, start < join < freeze < end, call id, join sequence)` and
//! never schedule a join for a call that is no longer live: a participant
//! whose sampled offset lands at or after the call's end is dropped here,
//! not issued and ignored.

use sb_net::CountryId;
use sb_workload::{CallConfig, CallRecord};

/// Event kinds in their within-second order.
pub const K_START: u8 = 0;
/// A later participant joins.
pub const K_JOIN: u8 = 1;
/// The call's config freezes.
pub const K_FREEZE: u8 = 2;
/// The call ends.
pub const K_END: u8 = 3;

/// One scheduled engine operation, self-contained so a streamed window's
/// records can be dropped as soon as their events exist.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ev {
    /// Absolute second the operation is issued at.
    pub t: u64,
    /// Call id.
    pub call: u64,
    /// The call's start minute (what `freeze` passes to the selector).
    pub start_minute: u64,
    /// Country for start/join, config index for freeze, 0 for end.
    pub arg: u32,
    /// Join sequence within the call (0 for the other kinds).
    pub seq: u16,
    /// One of the `K_*` kinds.
    pub kind: u8,
}

impl Ev {
    /// The total order events are issued in.
    pub fn key(&self) -> (u64, u8, u64, u16) {
        (self.t, self.kind, self.call, self.seq)
    }
}

/// Country of the `k`-th participant of `cfg` in its declared order — the
/// seeded, record-independent choice of who the `k`-th joiner is.
pub fn joiner_country(cfg: &CallConfig, k: usize) -> CountryId {
    let total = cfg.total_participants() as usize;
    let mut left = k % total.max(1);
    for &(country, n) in cfg.participants() {
        if left < n as usize {
            return country;
        }
        left -= n as usize;
    }
    cfg.majority_country()
}

/// Append the lifecycle of `r` to `out` (unsorted): start, one join per
/// later participant that arrives while the call is live, freeze, end.
pub fn push_call_events(out: &mut Vec<Ev>, r: &CallRecord, cfg: &CallConfig, freeze_minutes: u64) {
    let start_s = r.start_minute * 60;
    let end_s = r.end_minute() * 60;
    let freeze_s = (r.start_minute + freeze_minutes.min(r.duration_min as u64)) * 60;
    let ev = |t, kind, arg, seq| Ev {
        t,
        call: r.id,
        start_minute: r.start_minute,
        arg,
        seq,
        kind,
    };
    out.push(ev(start_s, K_START, r.first_joiner.0 as u32, 0));
    for (seq, &off) in r.join_offsets_s.iter().enumerate().skip(1) {
        let t = start_s + off as u64;
        if t < end_s {
            let country = joiner_country(cfg, seq);
            out.push(ev(t, K_JOIN, country.0 as u32, seq as u16));
        }
    }
    out.push(ev(freeze_s, K_FREEZE, r.config.0, 0));
    out.push(ev(end_s, K_END, 0, 0));
}

/// Sort `events` into issue order.
pub fn sort_events(events: &mut [Ev]) {
    events.sort_unstable_by_key(Ev::key);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_workload::{ConfigId, MediaType};
    use std::collections::HashMap;

    fn cfg() -> CallConfig {
        CallConfig::new(
            vec![(CountryId(0), 2), (CountryId(1), 1), (CountryId(2), 2)],
            MediaType::Audio,
        )
    }

    fn rec(id: u64, start: u64, dur: u16, offs: Vec<u16>) -> CallRecord {
        CallRecord {
            id,
            config: ConfigId(7),
            start_minute: start,
            duration_min: dur,
            first_joiner: CountryId(0),
            join_offsets_s: offs,
        }
    }

    #[test]
    fn joiner_country_walks_the_declared_participants() {
        let c = cfg();
        let got: Vec<u16> = (0..6).map(|k| joiner_country(&c, k).0).collect();
        assert_eq!(got, vec![0, 0, 1, 2, 2, 0]);
    }

    #[test]
    fn within_a_second_start_join_freeze_end_then_call_id() {
        let c = cfg();
        let mut ev = Vec::new();
        // call 2 lasts 2 min: freeze and end share second 720; call 1 joins
        // at that same second and call 3 starts at it
        push_call_events(&mut ev, &rec(2, 10, 2, vec![0]), &c, 5);
        push_call_events(&mut ev, &rec(1, 10, 30, vec![0, 120]), &c, 5);
        push_call_events(&mut ev, &rec(3, 12, 9, vec![0]), &c, 5);
        sort_events(&mut ev);
        let at: Vec<(u8, u64)> = ev
            .iter()
            .filter(|e| e.t == 720)
            .map(|e| (e.kind, e.call))
            .collect();
        assert_eq!(
            at,
            vec![(K_START, 3), (K_JOIN, 1), (K_FREEZE, 2), (K_END, 2)]
        );
        assert!(ev.windows(2).all(|w| w[0].key() <= w[1].key()));
    }

    #[test]
    fn no_join_or_freeze_is_issued_for_a_call_that_is_not_live() {
        let c = cfg();
        let mut ev = Vec::new();
        // 3-minute call: offsets 179 s (live), 180 s (the end second) and
        // 2000 s (long after) — only the first may be scheduled
        push_call_events(&mut ev, &rec(9, 100, 3, vec![0, 179, 180, 2000]), &c, 5);
        push_call_events(&mut ev, &rec(4, 100, 45, vec![0, 30, 600, 601]), &c, 5);
        sort_events(&mut ev);
        let mut live: HashMap<u64, bool> = HashMap::new();
        for e in &ev {
            match e.kind {
                K_START => assert!(live.insert(e.call, true).is_none()),
                K_JOIN | K_FREEZE => assert_eq!(live.get(&e.call), Some(&true), "{e:?}"),
                _ => assert_eq!(live.insert(e.call, false), Some(true)),
            }
        }
        let joins = |id| {
            ev.iter()
                .filter(|e| e.call == id && e.kind == K_JOIN)
                .count()
        };
        assert_eq!((joins(9), joins(4)), (1, 3));
        // freeze is capped at the call's duration and carries what the
        // selector needs
        let f = ev
            .iter()
            .find(|e| e.call == 9 && e.kind == K_FREEZE)
            .unwrap();
        assert_eq!((f.t, f.arg, f.start_minute), (103 * 60, 7, 100));
    }
}
