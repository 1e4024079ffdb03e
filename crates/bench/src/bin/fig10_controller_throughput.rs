//! Fig. 10: controller throughput vs number of writer threads, normalized to
//! the trace's peak event rate (§6.6). The paper replays a 24-hour weekday
//! trace against Azure Redis and sustains 1.4× the peak load with 10 threads
//! on a 4-core VM, with write latencies of 0.3–4.2 ms.
//!
//! Usage: `fig10_controller_throughput [--json <path> | --check <path>] [--metrics <path>]`
//!
//! `--json` records `BENCH_fig10.json` and
//! `results/fig10_controller_throughput.txt`, `--check` compares the counts
//! with the committed file ([`sb_bench::report`]). The curve is charged in
//! virtual time: [`virtual_makespan`] replays each half of the trace into
//! the harness's per-worker queues with a 300 µs round trip per write, so
//! the makespan, events/s and their ratios to one thread and to the trace
//! peak are counts — functions of the trace, the thread count and the round
//! trip, not of the host. The real threads run too, on the in-process store
//! at no round trip, for the harness's serial ≡ concurrent check: every
//! event applied, no write dropped, and the store's state half-way through
//! the trace and at its end equal to the 1-thread store's (counts). Their
//! events/s and write latencies (ns) are under `host`.

use sb_bench::common::{dump_metrics, metrics_path_from_args};
use sb_bench::report::{Mode, Report};
use sb_store::{
    measure_throughput, peak_event_rate, virtual_makespan, CallEvent, CallStateStore, MediaFlag,
};
use sb_workload::{CallRecordsDb, Generator, MediaType, UniverseParams, WorkloadParams};

/// Expand the call-record trace into the store's event vocabulary, with a
/// timestamp (seconds) per event.
fn trace_to_events(db: &CallRecordsDb) -> Vec<(u32, CallEvent)> {
    let catalog = db.catalog();
    let mut events = Vec::new();
    for r in db.records() {
        let cfg = catalog.config(r.config);
        let start_s = (r.start_minute * 60) as u32;
        // first joiner starts the call
        events.push((
            start_s,
            CallEvent::Start {
                call: r.id,
                country: r.first_joiner.0,
                dc: 0,
            },
        ));
        // remaining participants join per the offset model; countries cycle
        // through the config's spread
        let mut countries = Vec::new();
        for &(c, n) in cfg.participants() {
            for _ in 0..n {
                countries.push(c.0);
            }
        }
        for (k, &off) in r.join_offsets_s.iter().enumerate().skip(1) {
            let country = countries[k % countries.len()];
            events.push((
                start_s + off as u32,
                CallEvent::Join {
                    call: r.id,
                    country,
                },
            ));
        }
        if cfg.media() != MediaType::Audio {
            let media = match cfg.media() {
                MediaType::ScreenShare => MediaFlag::ScreenShare,
                _ => MediaFlag::Video,
            };
            events.push((start_s + 30, CallEvent::Media { call: r.id, media }));
        }
        events.push((start_s + 300, CallEvent::Freeze { call: r.id }));
        events.push(((r.end_minute() * 60) as u32, CallEvent::End { call: r.id }));
    }
    events.sort_by_key(|&(t, ev)| (t, ev.call()));
    events
}

fn main() {
    let metrics = metrics_path_from_args();
    let mode = Mode::from_args();
    let topo = sb_net::presets::apac();
    let params = WorkloadParams {
        universe: UniverseParams {
            num_configs: 1_000,
            ..Default::default()
        },
        daily_calls: 20_000.0,
        ..Default::default()
    };
    let generator = Generator::new(&topo, params);
    // a typical weekday (§6.6): day 2 is a Wednesday
    let db = generator.sample_records(2, 1, 77);
    let events = trace_to_events(&db);
    let timestamps: Vec<u32> = events.iter().map(|&(t, _)| t).collect();
    let peak = peak_event_rate(&timestamps, 60);
    let events: Vec<CallEvent> = events.into_iter().map(|(_, e)| e).collect();
    // a call's events all go to one writer, in trace order, so the store's
    // state between the halves and at the end is the same at every count
    let (first, second) = events.split_at(events.len() / 2);

    // the Azure Redis round trip (§6.6 reports 0.3–4.2 ms writes), charged
    // in virtual time; the threads below write to the store at none
    let rtt = std::time::Duration::from_micros(300);
    let mut report = Report::new("fig10_controller_throughput");
    report
        .counts
        .int("calls", db.len() as u64)
        .int("events", events.len() as u64)
        .fixed("peak_events_per_s", peak, 2)
        .int("rtt_us", rtt.as_micros() as u64);
    let mut serial = None;
    let mut one_thread = None;
    for threads in [1usize, 2, 4, 6, 8, 10, 16] {
        let store = CallStateStore::new(256);
        let a = measure_throughput(&store, first, threads);
        let half = store.export_state();
        let b = measure_throughput(&store, second, threads);
        let state = (half, store.export_state());
        let serial = serial.get_or_insert_with(|| state.clone());
        if threads == 1 {
            report.counts.int("live_at_half", serial.0.len() as u64);
        }
        let makespan =
            virtual_makespan(first, threads, rtt) + virtual_makespan(second, threads, rtt);
        let rate = events.len() as f64 / makespan.as_secs_f64();
        let one_thread = *one_thread.get_or_insert(rate);
        let real_rate = events.len() as f64 / (a.elapsed + b.elapsed).as_secs_f64();
        let mut latency = a.latency;
        latency.merge(&b.latency);
        let key = threads.to_string();
        report
            .counts
            .row("threads")
            .row(&key)
            .int("events", a.events + b.events)
            .int("dropped_writes", a.dropped_writes + b.dropped_writes)
            .flag("state_eq_1_thread", state == *serial)
            .int("makespan_us", makespan.as_micros() as u64)
            .fixed("events_per_s", rate, 0)
            .fixed("vs_1_thread", rate / one_thread, 2)
            .fixed("vs_trace_peak", rate / peak, 1);
        report
            .host
            .row("threads")
            .row(&key)
            .fixed("real_events_per_s", real_rate, 0)
            .int("mean_write_ns", latency.mean().as_nanos() as u64)
            .int("p99_write_ns", latency.quantile(0.99).as_nanos() as u64);
    }
    report.finish(&mode);

    if let Some(path) = metrics {
        dump_metrics(&path);
    }
}
