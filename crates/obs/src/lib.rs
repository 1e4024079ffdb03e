//! # sb-obs — observability layer for the Switchboard workspace
//!
//! A small, dependency-light metrics substrate (atomics + `parking_lot`)
//! giving every hot path a way to record what it did without paying for it
//! when nobody is looking:
//!
//! * [`MetricsRegistry`] — a named collection of [`Counter`]s, [`Gauge`]s,
//!   log-bucketed [`Histogram`]s, and structured row [`Table`]s.
//! * [`ScopedTimer`] — RAII wall-clock timing into a histogram.
//! * [`MetricsRegistry::dump_to_path`] — run report as TSV or NDJSON
//!   (picked by file extension), the format consumed by the bench
//!   binaries' `--metrics <path>` flag.
//!
//! ## Enablement model
//!
//! Each registry carries one shared `AtomicBool`. Handles (counters,
//! histograms, …) clone an `Arc` to it, so a disabled registry reduces
//! every `inc`/`record` to a single relaxed load and a predictable branch,
//! and timers skip the `Instant::now()` syscall entirely. `engine_load`'s
//! `obs` leg (`BENCH_engine.json`) times each disabled op and gates it under
//! a fixed bound of nanoseconds per op.
//!
//! The process-wide registry [`global()`] starts **disabled**; library code
//! instruments unconditionally against it and callers opt in with
//! `sb_obs::global().set_enabled(true)` (the bench binaries do this when
//! `--metrics` is passed). Fresh registries from [`MetricsRegistry::new`]
//! start enabled, which is what tests want.
//!
//! ```
//! let reg = sb_obs::MetricsRegistry::new();
//! let solves = reg.counter("lp.solves");
//! let wall = reg.histogram("lp.wall_ns");
//! {
//!     let _t = wall.start_timer();
//!     solves.inc();
//! } // timer records on drop
//! assert_eq!(solves.get(), 1);
//! assert_eq!(wall.count(), 1);
//! ```

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Number of log2 buckets in a [`Histogram`] (covers the full `u64` range).
pub const HISTOGRAM_BUCKETS: usize = 64;

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

/// A monotonically increasing `u64` metric. Cheap to clone; all clones
/// share the same cell and the owning registry's enabled flag.
#[derive(Clone)]
pub struct Counter {
    value: Arc<AtomicU64>,
    enabled: Arc<AtomicBool>,
}

impl Counter {
    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

/// A last-value-wins `f64` metric (stored as bits in an `AtomicU64`).
#[derive(Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
    enabled: Arc<AtomicBool>,
}

impl Gauge {
    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: f64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.bits.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

impl fmt::Debug for Gauge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gauge({})", self.get())
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// A lock-free log2-bucketed histogram of `u64` samples (typically
/// nanoseconds). Exact `count`/`sum`/`min`/`max`; percentiles are
/// bucket-upper-bound approximations (≤2× the true value).
#[derive(Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
    enabled: Arc<AtomicBool>,
}

#[inline]
fn bucket_of(v: u64) -> usize {
    (63 - v.max(1).leading_zeros()) as usize
}

impl Histogram {
    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let c = &self.core;
        c.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
        c.min.fetch_min(v, Ordering::Relaxed);
        c.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a duration as nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        if self.enabled.load(Ordering::Relaxed) {
            self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        }
    }

    /// Start an RAII timer that records elapsed wall time (ns) into this
    /// histogram when dropped. When the registry is disabled the timer is
    /// inert and never reads the clock.
    #[inline]
    pub fn start_timer(&self) -> ScopedTimer {
        // the disabled path must stay branch-plus-load cheap: no Arc clones
        let inner = if self.enabled.load(Ordering::Relaxed) {
            Some((self.clone(), Instant::now()))
        } else {
            None
        };
        ScopedTimer { inner }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.core.sum.load(Ordering::Relaxed)
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count() > 0).then(|| self.core.min.load(Ordering::Relaxed))
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count() > 0).then(|| self.core.max.load(Ordering::Relaxed))
    }

    /// Mean sample, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Approximate `q`-quantile (`0.0..=1.0`): the upper bound of the
    /// bucket holding that rank, clamped to the observed max.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.core.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                let upper = if i + 1 >= 64 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                return upper.min(self.core.max.load(Ordering::Relaxed));
            }
        }
        self.core.max.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Histogram(count={}, mean={:.1}, max={:?})",
            self.count(),
            self.mean(),
            self.max()
        )
    }
}

/// RAII wall-clock timer; see [`Histogram::start_timer`].
pub struct ScopedTimer {
    inner: Option<(Histogram, Instant)>,
}

impl ScopedTimer {
    /// Stop early and return the elapsed time (`None` when the registry
    /// was disabled at start). Consumes the timer; nothing more is
    /// recorded on drop.
    pub fn stop(mut self) -> Option<Duration> {
        self.inner.take().map(|(hist, s)| {
            let d = s.elapsed();
            hist.record_duration(d);
            d
        })
    }
}

impl Drop for ScopedTimer {
    fn drop(&mut self) {
        if let Some((hist, s)) = self.inner.take() {
            hist.record_duration(s.elapsed());
        }
    }
}

// ---------------------------------------------------------------------------
// Tables (structured rows)
// ---------------------------------------------------------------------------

/// A single cell of a structured report row.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Unsigned integer cell.
    U64(u64),
    /// Signed integer cell.
    I64(i64),
    /// Floating-point cell.
    F64(f64),
    /// Text cell.
    Str(String),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Str(s) => f.write_str(s),
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

struct TableCore {
    columns: Vec<String>,
    rows: Mutex<Vec<Vec<Value>>>,
}

/// A named table of structured rows with a fixed column schema, e.g. one
/// row per provisioning scenario. Cheap to clone; clones share rows.
#[derive(Clone)]
pub struct Table {
    core: Arc<TableCore>,
    enabled: Arc<AtomicBool>,
}

impl Table {
    /// A free-standing, always-enabled table not attached to any registry,
    /// whose rows are recorded regardless of the global registry's
    /// enablement (e.g. the reference renderer a persisted plan's NDJSON
    /// writer is tested against).
    pub fn standalone(columns: &[&str]) -> Table {
        Table {
            core: Arc::new(TableCore {
                columns: columns.iter().map(|c| c.to_string()).collect(),
                rows: Mutex::new(Vec::new()),
            }),
            enabled: Arc::new(AtomicBool::new(true)),
        }
    }

    /// Render this table alone as NDJSON: one `{"col":value,…}` object per
    /// row, columns in schema order.
    pub fn render_ndjson(&self) -> String {
        let mut out = String::new();
        for row in self.core.rows.lock().iter() {
            let mut line = String::from("{");
            for (i, (col, v)) in self.core.columns.iter().zip(row).enumerate() {
                if i > 0 {
                    line.push(',');
                }
                line.push_str(&json_str(col));
                line.push(':');
                match v {
                    Value::U64(x) => line.push_str(&x.to_string()),
                    Value::I64(x) => line.push_str(&x.to_string()),
                    Value::F64(x) => line.push_str(&json_f64(*x)),
                    Value::Str(s) => line.push_str(&json_str(s)),
                }
            }
            line.push('}');
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// Append a row. Panics if the row arity does not match the schema —
    /// schemas are fixed at [`MetricsRegistry::table`] time and rows are
    /// produced by instrumentation code, so a mismatch is a bug.
    pub fn push(&self, row: Vec<Value>) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        assert_eq!(
            row.len(),
            self.core.columns.len(),
            "row arity {} != schema arity {} for table columns {:?}",
            row.len(),
            self.core.columns.len(),
            self.core.columns
        );
        self.core.rows.lock().push(row);
    }

    /// Column names.
    pub fn columns(&self) -> &[String] {
        &self.core.columns
    }

    /// Snapshot of all rows.
    pub fn rows(&self) -> Vec<Vec<Value>> {
        self.core.rows.lock().clone()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.core.rows.lock().len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Debug for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Table({:?}, {} rows)", self.core.columns, self.len())
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
    tables: BTreeMap<String, Table>,
}

/// A named collection of metrics sharing one enable flag.
///
/// Handle lookup (`counter("x")`) takes a lock; call sites cache handles
/// (e.g. in a `OnceLock`) so the hot path touches only atomics.
pub struct MetricsRegistry {
    enabled: Arc<AtomicBool>,
    inner: Mutex<RegistryInner>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// A fresh, **enabled** registry.
    pub fn new() -> Self {
        Self::with_enabled(true)
    }

    /// A fresh registry with the given initial enablement.
    pub fn with_enabled(enabled: bool) -> Self {
        MetricsRegistry {
            enabled: Arc::new(AtomicBool::new(enabled)),
            inner: Mutex::new(RegistryInner::default()),
        }
    }

    /// Whether instrumentation currently records.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Flip recording on or off for every handle of this registry,
    /// including ones already handed out.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock();
        inner
            .counters
            .entry(name.to_string())
            .or_insert_with(|| Counter {
                value: Arc::new(AtomicU64::new(0)),
                enabled: self.enabled.clone(),
            })
            .clone()
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.lock();
        inner
            .gauges
            .entry(name.to_string())
            .or_insert_with(|| Gauge {
                bits: Arc::new(AtomicU64::new(0f64.to_bits())),
                enabled: self.enabled.clone(),
            })
            .clone()
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut inner = self.inner.lock();
        inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram {
                core: Arc::new(HistogramCore {
                    buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                    count: AtomicU64::new(0),
                    sum: AtomicU64::new(0),
                    min: AtomicU64::new(u64::MAX),
                    max: AtomicU64::new(0),
                }),
                enabled: self.enabled.clone(),
            })
            .clone()
    }

    /// Get or create an indexed family of counters named `name.0` …
    /// `name.{n-1}` — the idiom for per-shard / per-worker counters whose
    /// cardinality is only known at runtime (e.g. selector shards).
    pub fn counter_family(&self, name: &str, n: usize) -> Vec<Counter> {
        (0..n)
            .map(|i| self.counter(&format!("{name}.{i}")))
            .collect()
    }

    /// Get or create an indexed family of histograms named `name.0` …
    /// `name.{n-1}` (per-shard latency distributions and the like).
    pub fn histogram_family(&self, name: &str, n: usize) -> Vec<Histogram> {
        (0..n)
            .map(|i| self.histogram(&format!("{name}.{i}")))
            .collect()
    }

    /// Get or create the table `name` with the given column schema.
    /// Panics if the table exists with a different schema.
    pub fn table(&self, name: &str, columns: &[&str]) -> Table {
        let mut inner = self.inner.lock();
        let t = inner
            .tables
            .entry(name.to_string())
            .or_insert_with(|| Table {
                core: Arc::new(TableCore {
                    columns: columns.iter().map(|c| c.to_string()).collect(),
                    rows: Mutex::new(Vec::new()),
                }),
                enabled: self.enabled.clone(),
            })
            .clone();
        assert_eq!(
            t.core.columns, columns,
            "table {name:?} re-registered with a different schema"
        );
        t
    }

    /// Reset all values to zero / empty. Registered names and handed-out
    /// handles stay valid (handles observe the reset for counters/gauges
    /// and tables; histogram handles are re-pointed, so re-fetch them).
    pub fn reset(&self) {
        let mut inner = self.inner.lock();
        for c in inner.counters.values() {
            c.value.store(0, Ordering::Relaxed);
        }
        for g in inner.gauges.values() {
            g.bits.store(0f64.to_bits(), Ordering::Relaxed);
        }
        let names: Vec<String> = inner.histograms.keys().cloned().collect();
        for name in names {
            inner.histograms.insert(
                name,
                Histogram {
                    core: Arc::new(HistogramCore {
                        buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                        count: AtomicU64::new(0),
                        sum: AtomicU64::new(0),
                        min: AtomicU64::new(u64::MAX),
                        max: AtomicU64::new(0),
                    }),
                    enabled: self.enabled.clone(),
                },
            );
        }
        for t in inner.tables.values() {
            t.core.rows.lock().clear();
        }
    }

    // -- reporting ---------------------------------------------------------

    /// Write the registry as tab-separated sections (counters, gauges,
    /// histogram summaries, then one section per table).
    pub fn dump_tsv(&self, out: &mut dyn io::Write) -> io::Result<()> {
        let inner = self.inner.lock();
        if !inner.counters.is_empty() {
            writeln!(out, "# counters")?;
            writeln!(out, "metric\tvalue")?;
            for (name, c) in &inner.counters {
                writeln!(out, "{name}\t{}", c.get())?;
            }
        }
        if !inner.gauges.is_empty() {
            writeln!(out, "# gauges")?;
            writeln!(out, "metric\tvalue")?;
            for (name, g) in &inner.gauges {
                writeln!(out, "{name}\t{}", g.get())?;
            }
        }
        if !inner.histograms.is_empty() {
            writeln!(out, "# histograms")?;
            writeln!(out, "metric\tcount\tsum\tmin\tmax\tmean\tp50\tp90\tp99")?;
            for (name, h) in &inner.histograms {
                writeln!(
                    out,
                    "{name}\t{}\t{}\t{}\t{}\t{:.1}\t{}\t{}\t{}",
                    h.count(),
                    h.sum(),
                    h.min().unwrap_or(0),
                    h.max().unwrap_or(0),
                    h.mean(),
                    h.quantile(0.50),
                    h.quantile(0.90),
                    h.quantile(0.99),
                )?;
            }
        }
        for (name, t) in &inner.tables {
            writeln!(out, "# table {name}")?;
            writeln!(out, "{}", t.core.columns.join("\t"))?;
            for row in t.core.rows.lock().iter() {
                let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                writeln!(out, "{}", cells.join("\t"))?;
            }
        }
        Ok(())
    }

    /// Write the registry as NDJSON: one object per line with a `kind`
    /// discriminant (`counter`, `gauge`, `histogram`, `row`).
    pub fn dump_ndjson(&self, out: &mut dyn io::Write) -> io::Result<()> {
        let inner = self.inner.lock();
        for (name, c) in &inner.counters {
            writeln!(
                out,
                r#"{{"kind":"counter","name":{},"value":{}}}"#,
                json_str(name),
                c.get()
            )?;
        }
        for (name, g) in &inner.gauges {
            writeln!(
                out,
                r#"{{"kind":"gauge","name":{},"value":{}}}"#,
                json_str(name),
                json_f64(g.get())
            )?;
        }
        for (name, h) in &inner.histograms {
            writeln!(
                out,
                concat!(
                    r#"{{"kind":"histogram","name":{},"count":{},"sum":{},"#,
                    r#""min":{},"max":{},"mean":{},"p50":{},"p90":{},"p99":{}}}"#
                ),
                json_str(name),
                h.count(),
                h.sum(),
                h.min().unwrap_or(0),
                h.max().unwrap_or(0),
                json_f64(h.mean()),
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
            )?;
        }
        for (name, t) in &inner.tables {
            for row in t.core.rows.lock().iter() {
                let mut line = format!(r#"{{"kind":"row","table":{}"#, json_str(name));
                for (col, v) in t.core.columns.iter().zip(row) {
                    line.push(',');
                    line.push_str(&json_str(col));
                    line.push(':');
                    match v {
                        Value::U64(x) => line.push_str(&x.to_string()),
                        Value::I64(x) => line.push_str(&x.to_string()),
                        Value::F64(x) => line.push_str(&json_f64(*x)),
                        Value::Str(s) => line.push_str(&json_str(s)),
                    }
                }
                line.push('}');
                writeln!(out, "{line}")?;
            }
        }
        Ok(())
    }

    /// Dump to `path`, creating parent directories. `.ndjson` / `.jsonl`
    /// extensions select NDJSON; anything else gets TSV.
    pub fn dump_to_path(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut buf = Vec::new();
        match path.extension().and_then(|e| e.to_str()) {
            Some("ndjson") | Some("jsonl") => self.dump_ndjson(&mut buf)?,
            _ => self.dump_tsv(&mut buf)?,
        }
        std::fs::write(path, buf)
    }

    /// Render the TSV report to a `String` (for tests and logs).
    pub fn render_tsv(&self) -> String {
        let mut buf = Vec::new();
        self.dump_tsv(&mut buf).expect("write to Vec cannot fail");
        String::from_utf8(buf).expect("TSV dump is UTF-8")
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

// ---------------------------------------------------------------------------
// Global registry
// ---------------------------------------------------------------------------

static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();

/// The process-wide registry used by library instrumentation. Starts
/// **disabled**; enable with `sb_obs::global().set_enabled(true)`.
pub fn global() -> &'static MetricsRegistry {
    GLOBAL.get_or_init(|| MetricsRegistry::with_enabled(false))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ndjson_row_encoding_is_valid() {
        let reg = MetricsRegistry::new();
        let t = reg.table("t", &["name", "x"]);
        t.push(vec![Value::from("a\"b"), Value::from(1.5)]);
        let mut buf = Vec::new();
        reg.dump_ndjson(&mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains(r#""table":"t""#), "{s}");
        assert!(s.contains(r#""name":"a\"b""#), "{s}");
        assert!(s.contains(r#""x":1.5"#), "{s}");
    }

    #[test]
    fn bucket_of_is_floor_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(u64::MAX), 63);
    }
}
