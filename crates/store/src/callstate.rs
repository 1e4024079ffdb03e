//! Call-state records as the real-time controller maintains them (§5.4/§6.6):
//! as participants join a new call and media changes, worker threads write
//! the evolving call config back to the store.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use crate::latency::LatencyHistogram;
use crate::map::ShardedMap;

/// A store write was dropped because the target shard is failed.
///
/// [`CallStateStore::apply`] keeps the original fire-and-forget semantics
/// (drops are counted but silent); [`CallStateStore::try_apply`] surfaces
/// them so an engine can back off and retry instead of losing state.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct StoreWriteError {
    /// The shard the rejected write was routed to.
    pub shard: usize,
    /// The call the rejected event belonged to.
    pub call: u64,
}

impl fmt::Display for StoreWriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "store write for call {} dropped: shard {} is failed",
            self.call, self.shard
        )
    }
}

impl std::error::Error for StoreWriteError {}

/// Media flag recorded on a call (mirrors the §5.1 classification without
/// depending on the workload crate).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum MediaFlag {
    /// Audio only.
    #[default]
    Audio,
    /// Somebody shares their screen.
    ScreenShare,
    /// Somebody has video on (and no screen-share).
    Video,
}

/// The evolving state of one call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CallState {
    /// The first joiner's `(country, participant count)`.
    first: (u16, u16),
    /// `(country, participant count)` of every other country, in the order
    /// each first joined: a call all of whose participants join from one
    /// country never allocates.
    more: Vec<(u16, u16)>,
    /// Current media classification.
    pub media: MediaFlag,
    /// Assigned DC index.
    pub dc: u16,
    /// Whether the config has been frozen (A minutes in).
    pub frozen: bool,
}

impl CallState {
    /// A call's state as its `Start` event creates it: one participant from
    /// `country`, audio, hosted at `dc`, not frozen.
    pub fn start(country: u16, dc: u16) -> CallState {
        CallState {
            first: (country, 1),
            more: Vec::new(),
            media: MediaFlag::Audio,
            dc,
            frozen: false,
        }
    }

    /// One more participant from `country` — what a `Join` event applies.
    pub fn join(&mut self, country: u16) {
        if self.first.0 == country {
            self.first.1 += 1;
            return;
        }
        match self.more.iter_mut().find(|(c, _)| *c == country) {
            Some((_, n)) => *n += 1,
            None => self.more.push((country, 1)),
        }
    }

    /// `(country, participant count)` accumulated so far, in the order each
    /// country first joined.
    pub fn participants(&self) -> impl Iterator<Item = (u16, u16)> + '_ {
        std::iter::once(self.first).chain(self.more.iter().copied())
    }

    /// Total participants.
    pub fn total_participants(&self) -> u32 {
        self.participants().map(|(_, n)| n as u32).sum()
    }
}

/// Store events, in trace order.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CallEvent {
    /// First participant joined: create the call.
    Start {
        /// Call id.
        call: u64,
        /// First joiner's country index.
        country: u16,
        /// Assigned DC index.
        dc: u16,
    },
    /// A participant joined.
    Join {
        /// Call id.
        call: u64,
        /// Joiner's country index.
        country: u16,
    },
    /// Media classification changed.
    Media {
        /// Call id.
        call: u64,
        /// New flag.
        media: MediaFlag,
    },
    /// Config freeze (A minutes in).
    Freeze {
        /// Call id.
        call: u64,
    },
    /// Call ended: delete the state.
    End {
        /// Call id.
        call: u64,
    },
}

impl CallEvent {
    /// The call this event belongs to.
    pub fn call(&self) -> u64 {
        match *self {
            CallEvent::Start { call, .. }
            | CallEvent::Join { call, .. }
            | CallEvent::Media { call, .. }
            | CallEvent::Freeze { call }
            | CallEvent::End { call } => call,
        }
    }
}

/// The controller-facing store: applies [`CallEvent`]s with per-write latency
/// accounting.
#[derive(Clone)]
pub struct CallStateStore {
    map: Arc<ShardedMap<u64, CallState>>,
    simulated_rtt: std::time::Duration,
}

impl CallStateStore {
    /// Create with the given shard count.
    pub fn new(shards: usize) -> CallStateStore {
        CallStateStore {
            map: Arc::new(ShardedMap::new(shards)),
            simulated_rtt: std::time::Duration::ZERO,
        }
    }

    /// Create with a simulated per-write network round trip, slept on every
    /// write. No workspace code sets a non-zero round trip: Fig. 10 charges
    /// its round trips in virtual time
    /// ([`crate::harness::virtual_makespan`]). The constructor stays only
    /// while `benchmark/README.md` pins it as a call the benchmark makes
    /// (with [`std::time::Duration::ZERO`]).
    pub fn with_simulated_rtt(shards: usize, rtt: std::time::Duration) -> CallStateStore {
        CallStateStore {
            map: Arc::new(ShardedMap::new(shards)),
            simulated_rtt: rtt,
        }
    }

    /// Apply one event, recording the write latency into `hist`. A write
    /// routed to a failed shard is dropped (counted, but silent).
    pub fn apply(&self, ev: CallEvent, hist: &mut LatencyHistogram) {
        let _ = self.try_apply(ev, hist);
    }

    /// Like [`CallStateStore::apply`], but reports a dropped write as a
    /// typed error instead of swallowing it. The latency of the attempt is
    /// recorded either way (a failed round trip still costs the caller).
    pub fn try_apply(
        &self,
        ev: CallEvent,
        hist: &mut LatencyHistogram,
    ) -> Result<(), StoreWriteError> {
        self.try_apply_n(ev, hist, 1)
    }

    /// [`CallStateStore::try_apply`] for a 1-in-`n` sample of a caller's
    /// writes: the attempt's latency is recorded with weight `n`
    /// ([`LatencyHistogram::record_n`]).
    pub fn try_apply_n(
        &self,
        ev: CallEvent,
        hist: &mut LatencyHistogram,
        n: u64,
    ) -> Result<(), StoreWriteError> {
        let t = Instant::now();
        let written = self.try_write(ev);
        hist.record_n(t.elapsed(), n);
        written
    }

    /// Apply one event without timing it — the write
    /// [`CallStateStore::try_apply`] times. A write routed to a failed shard
    /// is dropped and reported.
    pub fn try_write(&self, ev: CallEvent) -> Result<(), StoreWriteError> {
        if !self.simulated_rtt.is_zero() {
            std::thread::sleep(self.simulated_rtt);
        }
        let written = match ev {
            CallEvent::Start { call, country, dc } => self
                .map
                .try_insert(call, CallState::start(country, dc))
                .map(drop),
            CallEvent::Join { call, country } => {
                self.map.try_update(&call, |st| st.join(country)).map(drop)
            }
            CallEvent::Media { call, media } => {
                self.map.try_update(&call, |st| st.media = media).map(drop)
            }
            CallEvent::Freeze { call } => {
                self.map.try_update(&call, |st| st.frozen = true).map(drop)
            }
            CallEvent::End { call } => self.map.try_remove(&call).map(drop),
        };
        written.map_err(|failed| StoreWriteError {
            shard: failed.shard,
            call: ev.call(),
        })
    }

    /// Snapshot a call's state.
    pub fn get(&self, call: u64) -> Option<CallState> {
        self.map.get(&call)
    }

    /// Recovery: land a call's state as the journaled events left it, in
    /// one write that counts no event. Dropped when the call's shard is
    /// failed (a recovering store has none).
    pub fn restore_state(&self, call: u64, state: CallState) {
        self.map.insert(call, state);
    }

    /// Deterministic snapshot of every call's state — participants, media,
    /// DC and frozen flag — sorted by call id: the store half of the
    /// recovery equality witness. Not linearizable under concurrent writes.
    pub fn export_state(&self) -> Vec<(u64, CallState)> {
        let mut calls = Vec::with_capacity(self.map.len());
        self.map
            .for_each(|&call, st| calls.push((call, st.clone())));
        calls.sort_unstable_by_key(|&(call, _)| call);
        calls
    }

    /// Fail or heal a store shard (chaos drills): writes routed to a failed
    /// shard are dropped and counted, reads serve stale state.
    pub fn fail_shard(&self, idx: usize, down: bool) {
        self.map.fail_shard(idx, down);
    }

    /// Which shard `call`'s state lives on.
    pub fn shard_of(&self, call: u64) -> usize {
        self.map.shard_index(&call)
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.map.num_shards()
    }

    /// Writes dropped on failed shards since creation.
    pub fn dropped_writes(&self) -> u64 {
        self.map.dropped_writes()
    }

    /// Active calls.
    pub fn active_calls(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle() {
        let store = CallStateStore::new(8);
        let mut h = LatencyHistogram::new();
        store.apply(
            CallEvent::Start {
                call: 1,
                country: 3,
                dc: 0,
            },
            &mut h,
        );
        store.apply(
            CallEvent::Join {
                call: 1,
                country: 3,
            },
            &mut h,
        );
        store.apply(
            CallEvent::Join {
                call: 1,
                country: 5,
            },
            &mut h,
        );
        store.apply(
            CallEvent::Media {
                call: 1,
                media: MediaFlag::Video,
            },
            &mut h,
        );
        store.apply(CallEvent::Freeze { call: 1 }, &mut h);
        let st = store.get(1).unwrap();
        assert_eq!(st.total_participants(), 3);
        assert_eq!(st.participants().collect::<Vec<_>>(), vec![(3, 2), (5, 1)]);
        assert_eq!(st.media, MediaFlag::Video);
        assert!(st.frozen);
        assert_eq!(store.active_calls(), 1);
        store.apply(CallEvent::End { call: 1 }, &mut h);
        assert!(store.get(1).is_none());
        assert_eq!(store.active_calls(), 0);
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn participants_keep_first_join_order() {
        let store = CallStateStore::new(4);
        let join = |country| store.try_write(CallEvent::Join { call: 2, country });
        store
            .try_write(CallEvent::Start {
                call: 2,
                country: 7,
                dc: 1,
            })
            .unwrap();
        let st = store.get(2).unwrap();
        assert_eq!(st.participants().collect::<Vec<_>>(), vec![(7, 1)]);
        assert_eq!(st.more.capacity(), 0, "a one-country call never allocates");
        for country in [7, 4, 7, 9, 4, 4] {
            join(country).unwrap();
        }
        let st = store.get(2).unwrap();
        assert_eq!(
            st.participants().collect::<Vec<_>>(),
            vec![(7, 3), (4, 3), (9, 1)]
        );
        assert_eq!(st.total_participants(), 7);
        assert_eq!(std::mem::size_of::<CallState>(), 32);
    }

    #[test]
    fn restored_states_export_like_written_ones() {
        let live = CallStateStore::new(4);
        for ev in [
            CallEvent::Start {
                call: 2,
                country: 7,
                dc: 1,
            },
            CallEvent::Join {
                call: 2,
                country: 4,
            },
            CallEvent::Media {
                call: 2,
                media: MediaFlag::Video,
            },
            CallEvent::Freeze { call: 2 },
            CallEvent::Start {
                call: 1,
                country: 3,
                dc: 0,
            },
        ] {
            live.try_write(ev).unwrap();
        }
        let restored = CallStateStore::new(4);
        let mut st = CallState::start(7, 1);
        st.join(4);
        st.media = MediaFlag::Video;
        st.frozen = true;
        restored.restore_state(2, st);
        restored.restore_state(1, CallState::start(3, 0));
        let ex = live.export_state();
        assert_eq!(restored.export_state(), ex);
        assert_eq!(ex.iter().map(|&(call, _)| call).collect::<Vec<_>>(), [1, 2]);
        assert_eq!(ex[1].1.participants().collect::<Vec<_>>(), [(7, 1), (4, 1)]);
    }

    #[test]
    fn events_on_missing_calls_are_noops() {
        let store = CallStateStore::new(2);
        let mut h = LatencyHistogram::new();
        store.apply(
            CallEvent::Join {
                call: 9,
                country: 1,
            },
            &mut h,
        );
        store.apply(CallEvent::End { call: 9 }, &mut h);
        assert_eq!(store.active_calls(), 0);
    }

    #[test]
    fn try_apply_reports_failed_shards() {
        let store = CallStateStore::new(1); // one shard: every call maps to it
        let mut h = LatencyHistogram::new();
        store
            .try_apply(
                CallEvent::Start {
                    call: 4,
                    country: 1,
                    dc: 0,
                },
                &mut h,
            )
            .unwrap();
        store.fail_shard(0, true);
        let err = store
            .try_apply(
                CallEvent::Join {
                    call: 4,
                    country: 2,
                },
                &mut h,
            )
            .unwrap_err();
        assert_eq!(err, StoreWriteError { shard: 0, call: 4 });
        assert_eq!(store.dropped_writes(), 1);
        // stale read still shows the pre-failure state
        assert_eq!(store.get(4).unwrap().total_participants(), 1);
        store.fail_shard(0, false);
        store
            .try_apply(
                CallEvent::Join {
                    call: 4,
                    country: 2,
                },
                &mut h,
            )
            .unwrap();
        assert_eq!(store.get(4).unwrap().total_participants(), 2);
        assert_eq!(h.count(), 3); // failed attempts are timed too
                                  // the untimed core reports the same drop and records nothing
        store.fail_shard(0, true);
        assert_eq!(
            store.try_write(CallEvent::End { call: 4 }),
            Err(StoreWriteError { shard: 0, call: 4 })
        );
        assert_eq!(store.dropped_writes(), 2);
        store
            .try_apply_n(CallEvent::Freeze { call: 4 }, &mut h, 64)
            .unwrap_err();
        assert_eq!(h.count(), 3 + 64);
    }

    #[test]
    fn event_call_accessor() {
        assert_eq!(CallEvent::Freeze { call: 7 }.call(), 7);
        assert_eq!(
            CallEvent::Start {
                call: 3,
                country: 0,
                dc: 0
            }
            .call(),
            3
        );
    }
}
