//! Controller throughput harness (§6.6 / Fig. 10): replay a day's worth of
//! call events through worker threads that write call state to the store,
//! and report sustained events/second plus write latencies. The paper
//! normalizes throughput to the trace's peak event rate; [`peak_event_rate`]
//! computes that normalizer.
//!
//! The paper's writes go to Azure Redis, 0.3–4.2 ms a round trip; an
//! in-process store has none. [`virtual_makespan`] replays the same dispatch
//! into the same queues in virtual time, charging each write one round trip,
//! so the thread-count curve is a function of the trace and the round trip
//! alone. Both the threads and the model split the trace with [`worker_of`]
//! and bound each worker's queue at [`QUEUE_DEPTH`].

use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::callstate::{CallEvent, CallStateStore};
use crate::latency::LatencyHistogram;

/// Events a worker's queue holds before the dispatcher blocks on it.
pub const QUEUE_DEPTH: usize = 4096;

/// The worker, of `threads`, that applies every event of `call`: a call's
/// events stay on one worker, in trace order — the per-call ordering a
/// sharded production dispatcher provides.
pub fn worker_of(call: u64, threads: usize) -> usize {
    (call % threads as u64) as usize
}

/// Result of one throughput measurement.
#[derive(Clone, Debug)]
pub struct ThroughputResult {
    /// Worker threads used.
    pub threads: usize,
    /// Events applied.
    pub events: u64,
    /// Wall time.
    pub elapsed: Duration,
    /// Sustained events per second.
    pub events_per_sec: f64,
    /// Writes dropped on failed shards during this run (0 when no shard
    /// failure was injected).
    pub dropped_writes: u64,
    /// Merged write-latency histogram.
    pub latency: LatencyHistogram,
    /// Events each worker applied, by worker index.
    pub worker_events: Vec<u64>,
}

/// Replay `events` through `threads` workers as fast as possible.
///
/// A dispatcher (this thread) hands each event to its [`worker_of`] through
/// a [`QUEUE_DEPTH`]-deep channel; workers apply events to the store and
/// record per-write latency.
pub fn measure_throughput(
    store: &CallStateStore,
    events: &[CallEvent],
    threads: usize,
) -> ThroughputResult {
    assert!(threads > 0);
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..threads)
        .map(|_| mpsc::sync_channel::<CallEvent>(QUEUE_DEPTH))
        .unzip();

    let dropped_before = store.dropped_writes();
    let start = Instant::now();
    let mut merged = LatencyHistogram::new();
    let mut worker_events = Vec::with_capacity(threads);
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(threads);
        for rx in receivers {
            let store = store.clone();
            handles.push(s.spawn(move || {
                let mut hist = LatencyHistogram::new();
                while let Ok(ev) = rx.recv() {
                    store.apply(ev, &mut hist);
                }
                hist
            }));
        }
        for &ev in events {
            senders[worker_of(ev.call(), threads)]
                .send(ev)
                .expect("worker alive");
        }
        drop(senders);
        for h in handles {
            let hist = h.join().expect("worker panicked");
            worker_events.push(hist.count());
            merged.merge(&hist);
        }
    });
    let elapsed = start.elapsed();
    let events_per_sec = events.len() as f64 / elapsed.as_secs_f64().max(1e-9);
    ThroughputResult {
        threads,
        events: events.len() as u64,
        elapsed,
        events_per_sec,
        dropped_writes: store.dropped_writes() - dropped_before,
        latency: merged,
        worker_events,
    }
}

/// Virtual wall time of [`measure_throughput`]'s replay of `events` on
/// `threads` workers when every write takes one `rtt` and nothing else
/// takes any time. A worker takes its k-th event at `max(dispatch time,
/// finish of its (k-1)-th)` and finishes it `rtt` later; the dispatcher
/// hands events out in trace order, but a send to a worker whose queue is
/// full waits until that worker takes its (k − [`QUEUE_DEPTH`])-th event,
/// holding up every event behind it. The makespan is the last finish.
pub fn virtual_makespan(events: &[CallEvent], threads: usize, rtt: Duration) -> Duration {
    assert!(threads > 0);
    let rtt = rtt.as_nanos() as u64;
    let mut dispatch = 0u64;
    // per worker, when it took each of its events
    let mut taken: Vec<Vec<u64>> = vec![Vec::new(); threads];
    for ev in events {
        let took = &mut taken[worker_of(ev.call(), threads)];
        let k = took.len();
        if k >= QUEUE_DEPTH {
            dispatch = dispatch.max(took[k - QUEUE_DEPTH]);
        }
        let free = took.last().map_or(0, |&t| t + rtt);
        took.push(dispatch.max(free));
    }
    let last = taken.iter().filter_map(|took| took.last()).max();
    Duration::from_nanos(last.map_or(0, |&t| t + rtt))
}

/// Peak event arrival rate (events/second) of a trace given each event's
/// timestamp in seconds, using per-`window_s` bucketing.
pub fn peak_event_rate(timestamps_s: &[u32], window_s: u32) -> f64 {
    assert!(window_s > 0);
    if timestamps_s.is_empty() {
        return 0.0;
    }
    let min = *timestamps_s.iter().min().unwrap();
    let max = *timestamps_s.iter().max().unwrap();
    let buckets = ((max - min) / window_s + 1) as usize;
    let mut counts = vec![0u64; buckets];
    for &t in timestamps_s {
        counts[((t - min) / window_s) as usize] += 1;
    }
    let peak = counts.iter().copied().max().unwrap_or(0);
    peak as f64 / window_s as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callstate::MediaFlag;

    fn synth_events(calls: u64, joins_per_call: u16) -> Vec<CallEvent> {
        let mut ev = Vec::new();
        for c in 0..calls {
            ev.push(CallEvent::Start {
                call: c,
                country: (c % 9) as u16,
                dc: (c % 4) as u16,
            });
            for _ in 0..joins_per_call {
                ev.push(CallEvent::Join {
                    call: c,
                    country: ((c + 1) % 9) as u16,
                });
            }
            ev.push(CallEvent::Media {
                call: c,
                media: MediaFlag::Video,
            });
            ev.push(CallEvent::Freeze { call: c });
            ev.push(CallEvent::End { call: c });
        }
        ev
    }

    #[test]
    fn all_events_applied_and_calls_cleaned_up() {
        let store = CallStateStore::new(64);
        let events = synth_events(500, 4);
        let r = measure_throughput(&store, &events, 4);
        assert_eq!(r.events, events.len() as u64);
        assert_eq!(r.latency.count(), events.len() as u64);
        assert!(r.events_per_sec > 0.0);
        assert_eq!(store.active_calls(), 0);
    }

    #[test]
    fn single_thread_works() {
        let store = CallStateStore::new(8);
        let events = synth_events(100, 2);
        let r = measure_throughput(&store, &events, 1);
        assert_eq!(r.threads, 1);
        assert_eq!(r.events, events.len() as u64);
    }

    #[test]
    fn per_call_ordering_preserved() {
        // Start→Join×k→End per call through many threads must leave no state
        // behind and never drop a join (joins apply only after start).
        let store = CallStateStore::new(64);
        let mut events = Vec::new();
        for c in 0..64u64 {
            events.push(CallEvent::Start {
                call: c,
                country: 0,
                dc: 0,
            });
            for _ in 0..10 {
                events.push(CallEvent::Join {
                    call: c,
                    country: 1,
                });
            }
        }
        let r = measure_throughput(&store, &events, 8);
        assert_eq!(r.events as usize, events.len());
        for c in 0..64u64 {
            let st = store.get(c).expect("call still active");
            assert_eq!(st.total_participants(), 11, "call {c} lost joins");
        }
    }

    #[test]
    fn failed_shard_during_run_is_accounted_and_survivors_progress() {
        let store = CallStateStore::new(4);
        // fail the shard hosting call 0's state before the run: every event
        // routed there is dropped, everything else lands
        let victim = store.shard_of(0);
        store.fail_shard(victim, true);
        let events = synth_events(200, 4);
        let r = measure_throughput(&store, &events, 4);
        assert_eq!(r.events, events.len() as u64);
        assert!(r.dropped_writes > 0, "victim shard must drop writes");
        assert!(
            r.dropped_writes < events.len() as u64,
            "surviving shards must still apply writes"
        );
        // calls on healthy shards ran Start→…→End and were cleaned up; calls
        // on the failed shard left nothing behind (their Start was dropped)
        assert_eq!(store.active_calls(), 0);
        // healing restores write service with the counter frozen
        store.fail_shard(victim, false);
        let r2 = measure_throughput(&store, &events, 2);
        assert_eq!(r2.dropped_writes, 0);
        assert_eq!(store.active_calls(), 0);
    }

    #[test]
    fn one_worker_takes_one_round_trip_per_event() {
        let rtt = Duration::from_micros(300);
        let events = synth_events(100, 2);
        let makespan = virtual_makespan(&events, 1, rtt);
        assert_eq!(makespan, rtt * events.len() as u32);
        assert_eq!(virtual_makespan(&[], 4, rtt), Duration::ZERO);
    }

    #[test]
    fn one_call_gets_no_speed_up_from_more_workers() {
        let rtt = Duration::from_micros(300);
        let events = synth_events(1, 50);
        assert_eq!(
            virtual_makespan(&events, 8, rtt),
            virtual_makespan(&events, 1, rtt)
        );
    }

    #[test]
    fn a_full_queue_holds_up_the_dispatcher_and_starves_the_next_worker() {
        // worker 0 gets QUEUE_DEPTH + 1 + m events first: the send of its
        // (QUEUE_DEPTH + j)-th waits for it to take its j-th, at j round
        // trips, so worker 1's first event leaves the dispatcher only at m
        // round trips and its 2 * QUEUE_DEPTH events finish m later than
        // they would behind an unbounded queue
        let rtt = Duration::from_millis(1);
        let (m, n) = (10, 2 * QUEUE_DEPTH);
        let on = |call, count| vec![CallEvent::Freeze { call }; count];
        let events = [on(0, QUEUE_DEPTH + 1 + m), on(1, n)].concat();
        assert_eq!(worker_of(0, 2), 0);
        assert_eq!(worker_of(1, 2), 1);
        let makespan = virtual_makespan(&events, 2, rtt);
        assert_eq!(makespan, rtt * (m + n) as u32);
        // worker 0 alone finishes first
        assert!(makespan > rtt * (QUEUE_DEPTH + 1 + m) as u32);
    }

    #[test]
    fn the_model_and_the_threads_split_the_trace_alike() {
        // call c has 2c + 1 events, so the per-worker totals tell the
        // partitions apart
        let events: Vec<CallEvent> = (0..40u64)
            .flat_map(|call| vec![CallEvent::Freeze { call }; 2 * call as usize + 1])
            .collect();
        for threads in [1, 3, 4, 7] {
            let store = CallStateStore::new(16);
            let r = measure_throughput(&store, &events, threads);
            let mut modelled = vec![0u64; threads];
            for ev in &events {
                modelled[worker_of(ev.call(), threads)] += 1;
            }
            assert_eq!(r.worker_events, modelled, "{threads} threads");
        }
    }

    #[test]
    fn peak_rate_bucketing() {
        // 10 events in second 0, 2 in second 5
        let mut ts = vec![0u32; 10];
        ts.extend([5u32, 5]);
        assert_eq!(peak_event_rate(&ts, 1), 10.0);
        // 60s window: all 12 in one bucket → 12/60
        assert!((peak_event_rate(&ts, 60) - 0.2).abs() < 1e-12);
        assert_eq!(peak_event_rate(&[], 1), 0.0);
    }
}
