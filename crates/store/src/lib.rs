//! # sb-store — sharded in-memory call-state store + controller harness
//!
//! The paper's controller benchmark (§6.6) writes evolving call configs to
//! Azure Redis from multiple threads and measures sustained throughput vs.
//! thread count (Fig. 10). This crate substitutes an in-process sharded
//! store exercising the same read-modify-write contention path:
//!
//! * [`map::ShardedMap`] — per-shard `RwLock` hash map over one fixed-seed
//!   integer mix ([`map::CallIdHasher`]);
//! * [`callstate`] — call-state records and the event vocabulary the
//!   controller writes (start/join/media/freeze/end);
//! * [`harness`] — multi-threaded replay with per-write latency histograms
//!   and the trace-peak normalizer;
//! * [`latency`] — log-bucket latency histograms;
//! * [`journal`] — the crash-safety write-ahead journal: CRC-framed
//!   append-only records with fsync group commit, torn-tail truncation, and
//!   fault injection (stall/drop) for chaos drills.

//!
//! ```
//! use sb_store::{CallEvent, CallStateStore, LatencyHistogram, MediaFlag};
//!
//! let store = CallStateStore::new(64);
//! let mut lat = LatencyHistogram::new();
//! store.apply(CallEvent::Start { call: 7, country: 2, dc: 1 }, &mut lat);
//! store.apply(CallEvent::Join { call: 7, country: 5 }, &mut lat);
//! store.apply(CallEvent::Media { call: 7, media: MediaFlag::Video }, &mut lat);
//! let st = store.get(7).unwrap();
//! assert_eq!(st.total_participants(), 2);
//! assert_eq!(lat.count(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callstate;
pub mod harness;
pub mod journal;
pub mod latency;
pub mod map;

pub use callstate::{CallEvent, CallState, CallStateStore, MediaFlag, StoreWriteError};
pub use harness::{measure_throughput, peak_event_rate, ThroughputResult};
pub use journal::{
    Journal, JournalConfig, JournalError, JournalFault, JournalReadError, JournalScan,
};
pub use latency::LatencyHistogram;
pub use map::{BuildCallIdHasher, ShardedMap};
