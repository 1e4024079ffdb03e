//! Sample summaries: median, quartiles, and the one tail percentile a sample
//! count can support.

use crate::json::{obj, Json};

/// Quartiles by the rule of Python's `statistics.quantiles(values, n=4)`
/// (the default exclusive method), so a spread computed here equals the one
/// the driver computes over the same values. `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Median (mean of the two middle values for an even count); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The quartile on a metric's good side — the first for a time, the third
/// for a rate — interpolated between the samples it falls between (Python's
/// `quantiles(method="inclusive")`, so never outside their range); NaN when
/// empty. This is the value a run reports for a timing measured over several
/// passes: what the host adds to a pass (a neighbour's burst, a preemption)
/// only ever makes it slower, so the quarter of the passes least disturbed
/// says more about the program than the middle one, and unlike the minimum
/// it does not hang on a single lucky pass.
pub fn good_quartile(values: &[f64], higher_is_better: bool) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let Some(last) = v.len().checked_sub(1) else {
        return f64::NAN;
    };
    let pos = if higher_is_better { 0.75 } else { 0.25 } * last as f64;
    let (i, frac) = (pos.floor() as usize, pos.fract());
    v[i] + frac * (v[(i + 1).min(last)] - v[i])
}

/// Tail percentiles a summary may report, as (label, fraction).
const TAILS: [(&str, f64); 4] = [
    ("p90", 0.90),
    ("p99", 0.99),
    ("p999", 0.999),
    ("p9999", 0.9999),
];

/// The highest tail percentile with at least ten samples beyond it, or
/// `None` when even p90 has fewer (n < 100).
pub fn highest_supported_tail(n: usize) -> Option<(&'static str, f64)> {
    TAILS
        .iter()
        .rev()
        .find(|&&(_, p)| (n as f64) * (1.0 - p) >= 10.0 - 1e-9)
        .copied()
}

/// Value at fraction `p` of an ascending-sorted sample (nearest rank).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Summary of one timing: sample count, median, quartiles, and the highest
/// tail percentile the count supports.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Samples summarised.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First and third quartile (equal to the median below two samples).
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// `(label, value)` of the highest supported tail percentile.
    pub tail: Option<(&'static str, f64)>,
}

impl Summary {
    /// Summarise `values` (any order).
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let med = median(&v);
        let q = quartiles(&v).unwrap_or([med; 3]);
        Summary {
            n: v.len(),
            median: med,
            q1: q[0],
            q3: q[2],
            tail: highest_supported_tail(v.len()).map(|(l, p)| (l, percentile_sorted(&v, p))),
        }
    }

    /// The results file's form of one metric: `unit`, `value` (what the
    /// caller reports for it), then `n`, `median`, `q1`, `q3` and the
    /// supported tail percentile.
    pub fn to_json(&self, unit: &str, value: f64) -> Json {
        let mut o = vec![
            ("unit".to_string(), Json::from(unit)),
            ("value".to_string(), Json::from(value)),
            ("n".to_string(), Json::from(self.n)),
            ("median".to_string(), Json::from(self.median)),
            ("q1".to_string(), Json::from(self.q1)),
            ("q3".to_string(), Json::from(self.q3)),
        ];
        if let Some((label, v)) = self.tail {
            o.push((
                "tail".to_string(),
                obj([("percentile", label.into()), ("value", v.into())]),
            ));
        }
        Json::Obj(o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some([0.5, 2.0, 3.5]));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some([10.0, 20.0, 40.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_handles_even_odd_and_empty() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn good_quartile_takes_the_better_side_and_stays_in_range() {
        // statistics.quantiles([1,2,3,4,5], n=4, method="inclusive") == [2, 3, 4]
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(good_quartile(&v, false), 2.0);
        assert_eq!(good_quartile(&v, true), 4.0);
        // two passes: a quarter of the way in from the better one
        assert_eq!(good_quartile(&[10.0, 14.0], false), 11.0);
        assert_eq!(good_quartile(&[10.0, 14.0], true), 13.0);
        assert_eq!(good_quartile(&[7.0], false), 7.0);
        assert!(good_quartile(&[], true).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_tail(99), None);
        assert_eq!(highest_supported_tail(100).unwrap().0, "p90");
        assert_eq!(highest_supported_tail(999).unwrap().0, "p90");
        assert_eq!(highest_supported_tail(1_000).unwrap().0, "p99");
        assert_eq!(highest_supported_tail(10_000).unwrap().0, "p999");
        assert_eq!(highest_supported_tail(5_000_000).unwrap().0, "p9999");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50.0);
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        let s = Summary::of(&v);
        assert_eq!((s.n, s.median, s.tail), (100, 50.5, Some(("p90", 90.0))));
    }
}
