//! Readings of the clock the host gives this thread, and timings normalized
//! by them.
//!
//! The sandbox is a few cores of a shared host, and the speed it gives one
//! thread is not constant: the core's clock moves between its base and its
//! turbo bins with the neighbours' load (a fixed dependency chain of 30,000
//! steps reads 54.7 µs for a minute, then 43.0 µs — 1.27× — for the next),
//! and under contention the thread gets a share of a core. Either state
//! lasts longer than a run, so no median over the passes of one run removes
//! it; ten runs of the same code then differ by more than any bound.
//!
//! A *reading* times a serial xorshift chain: a fixed number of core cycles
//! that touches no memory, so its elapsed time is inversely proportional to
//! the clock the thread effectively gets (frequency × share of the core).
//! Its *index* is that time over what the chain takes at the reference
//! clock ([`REF_NS_PER_STEP`], this box's base clock), so 1.0 means "as at
//! the reference", 0.79 full turbo, 2.0 half a core. A timed region is
//! bracketed by a reading before and one after, and its normalized time is
//! the wall time divided by the mean of the two indices: **seconds at the
//! reference clock**. Long regions are cut into segments, each with its own
//! brackets ([`Lap`]). The readings themselves are never inside a timed
//! region.
//!
//! What it removes is the host, not the program: a change that makes the
//! program do less work lowers wall and normalized time alike. What it
//! cannot remove is a slowdown that does not scale with the core clock
//! (memory-bound code under a neighbour's cache pressure); the estimator
//! over passes (see [`crate::stats::good_quartile`]) takes care of bursts.

use std::time::Instant;

/// Steps of one reading's chain: ~3 ms at the reference clock.
pub const READING_STEPS: u64 = 1_600_000;

/// ns per chain step at the reference clock — this box's base (non-turbo)
/// clock, where it spends most of its time, so normalized seconds read like
/// wall seconds of a typical run.
pub const REF_NS_PER_STEP: f64 = 1.823;

/// A reading taken at most this long ago is reused instead of taken again.
const REUSE_NS: u128 = 200_000;

/// The serial dependency chain: every step needs the previous one's result.
#[inline(never)]
fn chain(steps: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut sum = 0u64;
    for _ in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        sum = sum.wrapping_add(x);
    }
    sum
}

/// A region's wall time and its time at the reference clock.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Timed {
    /// Wall seconds.
    pub raw_s: f64,
    /// Seconds at the reference clock.
    pub norm_s: f64,
}

/// Takes readings and normalizes timings by them. Disabled (traced runs,
/// whose per-layer figures are plain wall times) every index is 1.0 and no
/// chain runs — which is also the default.
#[derive(Default)]
pub struct HostClock {
    enabled: bool,
    last: Option<(Instant, f64)>,
    indices: Vec<f64>,
}

impl HostClock {
    /// A clock that takes readings (`enabled`) or reports index 1.0.
    pub fn new(enabled: bool) -> HostClock {
        HostClock {
            enabled,
            last: None,
            indices: Vec::new(),
        }
    }

    /// Take a reading (or reuse one that just ended) and return its index.
    pub fn read(&mut self) -> f64 {
        if !self.enabled {
            return 1.0;
        }
        if let Some((at, idx)) = self.last {
            if at.elapsed().as_nanos() < REUSE_NS {
                return idx;
            }
        }
        let t0 = Instant::now();
        std::hint::black_box(chain(std::hint::black_box(READING_STEPS)));
        let ns = t0.elapsed().as_nanos() as f64;
        let idx = ns / (READING_STEPS as f64 * REF_NS_PER_STEP);
        self.last = Some((Instant::now(), idx));
        self.indices.push(idx);
        idx
    }

    /// Mean index of `n` readings in a row (the first may be a reused one).
    /// A bracket of several readings is for a region that cannot be cut into
    /// segments: a single reading that happens to be preempted would mis-scale
    /// seconds of work.
    pub fn read_n(&mut self, n: usize) -> f64 {
        let n = n.max(1);
        let mut sum = self.read();
        for _ in 1..n {
            self.last = None;
            sum += self.read();
        }
        sum / n as f64
    }

    /// Time `f` between two readings.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timed) {
        let mut lap = self.start();
        let out = f();
        self.lap(&mut lap);
        (out, lap.total)
    }

    /// Open a segmented region: a reading, then the clock starts.
    pub fn start(&mut self) -> Lap {
        let idx0 = self.read();
        Lap {
            total: Timed::default(),
            idx0,
            t0: Instant::now(),
        }
    }

    /// Close the running segment of `lap` with a reading, add it to the
    /// lap's total, and start the next segment. Returns the segment.
    pub fn lap(&mut self, lap: &mut Lap) -> Timed {
        let raw_s = lap.t0.elapsed().as_secs_f64();
        let idx1 = self.read();
        let seg = normalized(raw_s, lap.idx0, idx1);
        lap.total.raw_s += seg.raw_s;
        lap.total.norm_s += seg.norm_s;
        lap.idx0 = idx1;
        lap.t0 = Instant::now();
        seg
    }

    /// Indices of every reading taken so far, in order.
    pub fn indices(&self) -> &[f64] {
        &self.indices
    }
}

/// A segment of `raw_s` wall seconds between readings `idx0` and `idx1`.
pub fn normalized(raw_s: f64, idx0: f64, idx1: f64) -> Timed {
    Timed {
        raw_s,
        norm_s: raw_s / ((idx0 + idx1) / 2.0),
    }
}

/// A region cut into segments, each bracketed by its own readings.
pub struct Lap {
    /// Sum of the closed segments.
    pub total: Timed,
    idx0: f64,
    t0: Instant,
}

impl Lap {
    /// Wall seconds the running segment has lasted.
    pub fn running_s(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_segment_is_divided_by_the_mean_of_its_brackets() {
        let t = normalized(3.0, 1.0, 2.0);
        assert_eq!((t.raw_s, t.norm_s), (3.0, 2.0));
        // at the reference clock nothing changes
        assert_eq!(normalized(0.25, 1.0, 1.0).norm_s, 0.25);
    }

    #[test]
    fn a_disabled_clock_reports_wall_time_and_takes_no_reading() {
        let mut c = HostClock::new(false);
        let ((), t) = c.time(|| std::thread::sleep(std::time::Duration::from_millis(2)));
        assert!(t.raw_s >= 0.002 && t.norm_s == t.raw_s);
        assert!(c.indices().is_empty());
    }

    #[test]
    fn laps_add_up_and_adjacent_regions_share_a_reading() {
        let work = || std::thread::sleep(std::time::Duration::from_millis(1));
        let mut c = HostClock::new(true);
        let mut lap = c.start();
        work();
        let a = c.lap(&mut lap);
        work();
        let b = c.lap(&mut lap);
        assert!((lap.total.raw_s - (a.raw_s + b.raw_s)).abs() < 1e-12);
        assert!((lap.total.norm_s - (a.norm_s + b.norm_s)).abs() < 1e-12);
        // start + two laps = three readings; a region timed right after the
        // last one reuses it as its opening bracket
        assert_eq!(c.indices().len(), 3);
        let _ = c.time(work);
        assert_eq!(c.indices().len(), 4);
        assert!(c.indices().iter().all(|&i| i > 0.1 && i < 100.0));
    }
}
