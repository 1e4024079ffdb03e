//! Latency recording for store and selector operations (the paper reports
//! per-write latencies of 0.3–4.2 ms against Azure Redis, §6.6; a selector
//! op takes tens to hundreds of nanoseconds).
//!
//! The histogram is log-linear (HDR-style): every power of two is split into
//! 32 linear sub-buckets, bounding the relative quantile error at ~3% across
//! the full `u64` nanosecond range — fine enough to read a p999 off
//! nanosecond-scale ops, where one bucket per power of two is off by up to 2×.

use std::time::Duration;

const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
// max index is (58 + 1) * SUB + (SUB - 1) for ns = u64::MAX
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Log-linear histogram of operation latencies (nanosecond samples).
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u128,
    max_ns: u64,
    min_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

fn index_of(ns: u64) -> usize {
    if ns < SUB as u64 {
        return ns as usize;
    }
    let top = 63 - ns.leading_zeros();
    let shift = top - SUB_BITS;
    let sub = ((ns >> shift) & (SUB as u64 - 1)) as usize;
    (shift as usize + 1) * SUB + sub
}

/// Upper edge (inclusive) of bucket `idx`, in nanoseconds.
fn upper_edge(idx: usize) -> u64 {
    if idx < SUB {
        return idx as u64;
    }
    let shift = (idx / SUB - 1) as u32;
    let sub = (idx % SUB) as u64;
    ((SUB as u64 + sub) << shift) + ((1u64 << shift) - 1)
}

impl LatencyHistogram {
    /// Empty histogram covering 1 ns … `u64::MAX` ns.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
            min_ns: u64::MAX,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, d: Duration) {
        self.record_n(d, 1);
    }

    /// Record one sample standing for `n` operations (a 1-in-`n` sample):
    /// the same histogram as `n` calls of [`LatencyHistogram::record`], so
    /// count, mean and quantiles estimate every operation.
    pub fn record_n(&mut self, d: Duration, n: u64) {
        let ns = d.as_nanos().min(u64::MAX as u128) as u64;
        self.buckets[index_of(ns)] += n;
        self.count += n;
        self.sum_ns += ns as u128 * n as u128;
        if n > 0 {
            self.max_ns = self.max_ns.max(ns);
            self.min_ns = self.min_ns.min(ns);
        }
    }

    /// Merge another histogram (per-thread → global aggregation).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency.
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos((self.sum_ns / self.count as u128) as u64)
    }

    /// Maximum observed latency.
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_ns)
    }

    /// Minimum observed latency (zero when empty).
    pub fn min(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            Duration::from_nanos(self.min_ns)
        }
    }

    /// Quantile `q` in `[0, 1]`: the upper edge of the bucket containing the
    /// `ceil(q·count)`-th sample, clamped to the observed max.
    pub fn quantile(&self, q: f64) -> Duration {
        assert!((0.0..=1.0).contains(&q));
        if self.count == 0 {
            return Duration::ZERO;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Duration::from_nanos(upper_edge(i).min(self.max_ns));
            }
        }
        self.max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_stats() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.mean(), Duration::ZERO);
        for us in [10u64, 20, 30, 40] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.mean(), Duration::from_micros(25));
        assert_eq!(h.max(), Duration::from_micros(40));
        assert_eq!(h.min(), Duration::from_micros(10));
        // p50 bucket upper edge must be >= true median and < max bucket edge
        assert!(h.quantile(0.5) >= Duration::from_micros(16));
        assert!(h.quantile(1.0) >= Duration::from_micros(40));
    }

    #[test]
    fn merge_combines() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(Duration::from_micros(5));
        b.record(Duration::from_micros(15));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), Duration::from_micros(10));
        assert_eq!(a.min(), Duration::from_micros(5));
        assert_eq!(a.max(), Duration::from_micros(15));
    }

    #[test]
    fn record_n_is_n_records() {
        let samples = [
            (Duration::from_nanos(17), 1),
            (Duration::from_nanos(340), 64),
            (Duration::from_micros(2), 3),
            (Duration::from_millis(5), 64),
            (Duration::ZERO, 0),
        ];
        let mut weighted = LatencyHistogram::new();
        let mut repeated = LatencyHistogram::new();
        for &(d, n) in &samples {
            weighted.record_n(d, n);
            for _ in 0..n {
                repeated.record(d);
            }
        }
        assert_eq!(weighted.buckets, repeated.buckets);
        assert_eq!(weighted.count(), 132);
        assert_eq!(weighted.count(), repeated.count());
        assert_eq!(weighted.sum_ns, repeated.sum_ns);
        assert_eq!(weighted.mean(), repeated.mean());
        // a zero-weight sample moves neither extreme
        assert_eq!(weighted.min(), Duration::from_nanos(17));
        assert_eq!(weighted.min(), repeated.min());
        assert_eq!(weighted.max(), repeated.max());
        for q in [0.0, 0.01, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(weighted.quantile(q), repeated.quantile(q), "q = {q}");
        }
    }

    #[test]
    fn zero_duration_safe() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::ZERO);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn linear_region_is_exact() {
        for ns in 0..SUB as u64 {
            assert_eq!(index_of(ns), ns as usize);
            assert_eq!(upper_edge(ns as usize), ns);
        }
    }

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        let mut prev = None;
        for ns in [
            31u64,
            32,
            33,
            63,
            64,
            65,
            100,
            1_000,
            1_023,
            1_024,
            65_535,
            1 << 40,
        ] {
            let idx = index_of(ns);
            assert!(idx < BUCKETS);
            assert!(upper_edge(idx) >= ns, "edge({idx}) < {ns}");
            if let Some(p) = prev {
                assert!(idx >= p);
            }
            prev = Some(idx);
        }
        assert_eq!(index_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn relative_error_is_bounded() {
        // upper edge overestimates a sample by at most one sub-bucket width
        for ns in [100u64, 999, 12_345, 1_000_000, 123_456_789] {
            let edge = upper_edge(index_of(ns));
            assert!(edge >= ns);
            assert!((edge - ns) as f64 / ns as f64 <= 1.0 / SUB as f64 + 1e-9);
        }
    }

    #[test]
    fn quantiles_resolve_finely() {
        let mut h = LatencyHistogram::new();
        // 1000 samples at 100ns, 9 at 1µs, 1 at 1ms
        for _ in 0..1000 {
            h.record(Duration::from_nanos(100));
        }
        for _ in 0..9 {
            h.record(Duration::from_micros(1));
        }
        h.record(Duration::from_millis(1));
        assert_eq!(h.count(), 1010);
        let p50 = h.quantile(0.5).as_nanos() as f64;
        assert!((95.0..=110.0).contains(&p50), "{p50}");
        let p999 = h.quantile(0.999).as_nanos() as f64;
        assert!((900.0..=1100.0).contains(&p999), "{p999}");
        assert_eq!(h.quantile(1.0), Duration::from_millis(1));
    }
}
