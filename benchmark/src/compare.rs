//! Verdicts between two sets of results files of the same kind (all plain or
//! all traced): per (metric, workload) `better`, `same`, `worse` or
//! `unresolved`, by the metric's bound and the first set's spread; counts
//! are compared exactly.
//!
//! A set is one or more files of `run.sh`. With several, a metric's value is
//! the median over the files and its spread their quartile distance — the
//! run-to-run spread the bounds are about. With one, the spread is the
//! file's own pass-to-pass quartiles, which misses what differs between
//! processes (on this box a probe-size solve reads 0.046 s in one process
//! and 0.054 s in the next), so single files are for a first look only.

use crate::emit::{failure_rate, metric_view, MetricView};
use crate::json::Json;
use crate::spec::{END_TO_END, HASH_ORDER_COUNTS, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartiles};

/// Outcome of comparing one metric on one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The second file is better by more than the first file's spread.
    Better,
    /// Within the bound and the spread.
    Same,
    /// The second file is worse by more than the bound.
    Worse,
    /// The first file's spread is wider than the bound and the second file
    /// is not better than it: the bound cannot be checked.
    Unresolved,
    /// A count that is not equal in the two files.
    Differs,
}

impl Verdict {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Differs => "differs",
        }
    }
}

/// How much worse `b` is than `a` as a share of `a` (negative = better).
pub fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    let rel = (b - a) / a.abs();
    if higher_is_better {
        -rel
    } else {
        rel
    }
}

/// Metric `name` of `workload` over a set of results documents: the median
/// of the files' values, with the quartile distance across files as its
/// spread (one file: that file's own spread).
pub fn set_view(docs: &[Json], workload: &str, name: &str) -> Option<MetricView> {
    let views: Vec<MetricView> = docs
        .iter()
        .map(|d| metric_view(d, workload, name))
        .collect::<Option<_>>()?;
    let first = views.first()?.clone();
    let values: Vec<f64> = views.iter().map(|v| v.value).collect();
    let value = median(&values);
    Some(match quartiles(&values) {
        Some(q) if value != 0.0 => MetricView {
            value,
            spread: Some((q[2] - q[0]) / value.abs()),
            ..first
        },
        _ => first,
    })
}

/// Verdict for a bounded (end-to-end) metric. Without a spread nothing can
/// be called better.
pub fn verdict(a: &MetricView, b: &MetricView, higher_is_better: bool, bound: f64) -> Verdict {
    let w = worsening(a.value, b.value, higher_is_better);
    let spread = a.spread.unwrap_or(f64::INFINITY);
    if w < -spread.max(1e-12) {
        Verdict::Better
    } else if a.spread.is_none() {
        if w > bound {
            Verdict::Worse
        } else {
            Verdict::Same
        }
    } else if spread > bound {
        Verdict::Unresolved
    } else if w > bound {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

/// One printed row.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload.
    pub workload: &'static str,
    /// Metric.
    pub metric: &'static str,
    /// First file's metric.
    pub a: MetricView,
    /// Second file's metric.
    pub b: MetricView,
    /// Verdict.
    pub verdict: Verdict,
}

/// Compare every metric both sets carry. Returns the rows and whether the
/// comparison fails: any end-to-end `worse`, a higher failure rate, or — with
/// `exact_counts` — any count that differs, except the
/// [`HASH_ORDER_COUNTS`], which the measured program does not repeat.
pub fn compare(a: &[Json], b: &[Json], exact_counts: bool) -> (Vec<Row>, bool) {
    let mut rows = Vec::new();
    let mut failed = false;
    for workload in WORKLOADS {
        for m in END_TO_END {
            let (Some(va), Some(vb)) =
                (set_view(a, workload, m.name), set_view(b, workload, m.name))
            else {
                continue;
            };
            let verdict = verdict(&va, &vb, m.higher_is_better, m.bound);
            failed |= verdict == Verdict::Worse;
            rows.push(Row {
                workload,
                metric: m.name,
                a: va,
                b: vb,
                verdict,
            });
        }
        for &(name, unit, higher) in PER_LAYER {
            let (Some(va), Some(vb)) = (set_view(a, workload, name), set_view(b, workload, name))
            else {
                continue;
            };
            let verdict = if unit == "count" {
                if va.value == vb.value {
                    Verdict::Same
                } else {
                    failed |= exact_counts && !HASH_ORDER_COUNTS.contains(&name);
                    Verdict::Differs
                }
            } else {
                // per-layer metrics carry no bound: the direction is reported
                // against the first set's spread and never fails the run;
                // without a spread a difference cannot be judged
                match (va.spread, worsening(va.value, vb.value, higher)) {
                    (_, 0.0) => Verdict::Same,
                    (None, _) => Verdict::Unresolved,
                    (Some(s), w) if w < -s => Verdict::Better,
                    (Some(s), w) if w > s => Verdict::Worse,
                    _ => Verdict::Same,
                }
            };
            rows.push(Row {
                workload,
                metric: name,
                a: va,
                b: vb,
                verdict,
            });
        }
        // the worst file of each set speaks for it
        let worst = |docs: &[Json]| {
            docs.iter()
                .filter_map(|d| failure_rate(d, workload))
                .fold(None, |m: Option<f64>, r| Some(m.map_or(r, |m| m.max(r))))
        };
        if let (Some(fa), Some(fb)) = (worst(a), worst(b)) {
            if fb > fa {
                eprintln!("{workload}: failure rate rose from {fa} to {fb}");
                failed = true;
            }
        }
    }
    (rows, failed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;

    fn doc(value: f64) -> Json {
        let m = obj([("unit", "s".into()), ("value", value.into())]);
        let w = obj([("metrics", obj([("plan_solve_s", m)]))]);
        obj([("workloads", obj([("plan_planet", w)]))])
    }

    #[test]
    fn a_set_reports_the_median_and_the_spread_across_its_files() {
        let set: Vec<Json> = [4.0, 1.0, 2.0, 3.0].map(doc).to_vec();
        let v = set_view(&set, "plan_planet", "plan_solve_s").unwrap();
        // quantiles([1,2,3,4]) = [1.25, 2.5, 3.75]
        assert_eq!((v.value, v.spread), (2.5, Some(1.0)));
        let one = set_view(&set[..1], "plan_planet", "plan_solve_s").unwrap();
        assert_eq!((one.value, one.spread), (4.0, None));
        assert!(set_view(&set, "plan_planet", "nope").is_none());
        let (rows, failed) = compare(&set, &[doc(2.6), doc(2.4)], true);
        assert_eq!(
            (rows.len(), rows[0].verdict, failed),
            (1, Verdict::Unresolved, false)
        );
    }

    fn view(value: f64, spread: Option<f64>) -> MetricView {
        MetricView {
            unit: "s".into(),
            value,
            spread,
        }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let a = view(10.0, Some(0.02));
        // lower is better, bound 10 %
        assert_eq!(verdict(&a, &view(10.5, None), false, 0.10), Verdict::Same);
        assert_eq!(verdict(&a, &view(11.5, None), false, 0.10), Verdict::Worse);
        assert_eq!(verdict(&a, &view(9.9, None), false, 0.10), Verdict::Same);
        assert_eq!(verdict(&a, &view(9.0, None), false, 0.10), Verdict::Better);
        // higher is better flips the direction
        assert_eq!(verdict(&a, &view(8.5, None), true, 0.10), Verdict::Worse);
        assert_eq!(verdict(&a, &view(11.0, None), true, 0.10), Verdict::Better);
        // no spread: never "better"
        assert_eq!(
            verdict(&view(10.0, None), &view(5.0, None), false, 0.10),
            Verdict::Same
        );
        assert_eq!(
            verdict(&view(10.0, None), &view(12.0, None), false, 0.10),
            Verdict::Worse
        );
        // a spread wider than the bound cannot show "same" or "worse"
        let noisy = view(10.0, Some(0.30));
        assert_eq!(
            verdict(&noisy, &view(11.5, None), false, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &view(6.0, None), false, 0.10),
            Verdict::Better
        );
    }
}
