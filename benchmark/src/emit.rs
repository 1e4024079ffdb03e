//! The one results emitter: a common header, and per workload every metric
//! with its unit, value, sample count, quartiles and supported tail
//! percentile, plus sizes, pass counts and gates. `compare` reads the same
//! document back through the accessors at the bottom.

use crate::harness::{peak_rss_mb, Opts, Report};
use crate::hostclock::Timed;
use crate::json::{obj, Json};
use crate::spec::{END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::stats::{good_quartile, median, Summary};

/// Header shared by every results file.
#[derive(Clone, Debug, PartialEq)]
pub struct Header {
    /// `git rev-parse --short HEAD` of the measured tree (`unknown` outside
    /// a git checkout).
    pub git_rev: String,
    /// `std::thread::available_parallelism()` of the box.
    pub hardware_threads: usize,
    /// `rustc --version`.
    pub rustc: String,
    /// Workload seed.
    pub seed: u64,
    /// Traced run (per-layer metrics) or plain run (end-to-end metrics).
    pub traced: bool,
    /// Smoke sizes.
    pub smoke: bool,
    /// Where WAL files were written.
    pub wal_dir: String,
    /// Measuring budget per workload, seconds.
    pub seconds: f64,
}

impl Header {
    /// Header for `opts` on this box.
    pub fn new(opts: &Opts, git_rev: String, rustc: String) -> Header {
        Header {
            git_rev,
            hardware_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc,
            seed: opts.seed,
            traced: opts.traced,
            smoke: opts.smoke,
            wal_dir: opts.wal_dir.display().to_string(),
            seconds: opts.seconds,
        }
    }

    /// JSON form.
    pub fn to_json(&self) -> Json {
        obj([
            ("benchmark", "sb-benchmark".into()),
            ("git_rev", self.git_rev.clone().into()),
            ("hardware_threads", self.hardware_threads.into()),
            ("rustc", self.rustc.clone().into()),
            ("seed", self.seed.into()),
            ("traced", self.traced.into()),
            ("smoke", self.smoke.into()),
            ("wal_dir", self.wal_dir.clone().into()),
            ("seconds", self.seconds.into()),
            ("default_seconds", RUN_SECONDS.into()),
        ])
    }
}

fn metric_json(unit: &str, value: f64, samples: Option<&[f64]>) -> Json {
    match samples {
        Some(v) => Summary::of(v).to_json(unit, value),
        None => obj([("unit", unit.into()), ("value", value.into())]),
    }
}

/// One workload's result object. An end-to-end metric's value is the
/// good-side quartile of its per-pass samples at the reference clock
/// ([`good_quartile`], [`crate::hostclock`]); `median` and `raw_median` (plain
/// wall clock) ride along. The exceptions: `setup_s` (the stages' median
/// set-up times, summed) and `peak_rss_mb` (the process's high-water mark,
/// read now).
pub fn workload_json(opts: &Opts, rep: &Report) -> Json {
    let mut metrics: Vec<(String, Json)> = Vec::new();
    if opts.traced {
        for &(name, unit, _) in PER_LAYER {
            let value = rep.layer.get(name).copied().unwrap_or(f64::NAN);
            let samples = rep
                .samples
                .iter()
                .find(|(k, _)| k.ends_with(&format!(":{name}")))
                .map(|(_, (_, v))| v.as_slice());
            metrics.push((name.to_string(), metric_json(unit, value, samples)));
        }
    } else {
        for m in END_TO_END {
            let j = match m.name {
                "setup_s" => {
                    let norm = |v: &[Timed]| v.iter().map(|t| t.norm_s).collect::<Vec<f64>>();
                    let raw = |v: &[Timed]| v.iter().map(|t| t.raw_s).collect::<Vec<f64>>();
                    let total: f64 = rep.setup.values().map(|v| median(&norm(v))).sum();
                    let raw_total: f64 = rep.setup.values().map(|v| median(&raw(v))).sum();
                    let mut j = metric_json(m.unit, total, None);
                    if let Json::Obj(o) = &mut j {
                        o.push(("raw_median".into(), raw_total.into()));
                        let stages = rep
                            .setup
                            .iter()
                            .map(|(k, v)| {
                                let v = norm(v);
                                (k.to_string(), metric_json("s", median(&v), Some(&v)))
                            })
                            .collect();
                        o.push(("stages".into(), Json::Obj(stages)));
                    }
                    j
                }
                "peak_rss_mb" => metric_json(m.unit, peak_rss_mb(), None),
                name => {
                    let v = rep.e2e.get(name).map_or(&[][..], Vec::as_slice);
                    let raw = rep.e2e_raw.get(name).map_or(&[][..], Vec::as_slice);
                    let mut j = metric_json(m.unit, good_quartile(v, m.higher_is_better), Some(v));
                    if let Json::Obj(o) = &mut j {
                        o.push(("raw_median".into(), median(raw).into()));
                    }
                    j
                }
            };
            metrics.push((m.name.to_string(), j));
        }
    }
    let gates = rep
        .gates
        .iter()
        .map(|g| {
            obj([
                ("name", g.name.clone().into()),
                ("ok", g.ok.into()),
                ("detail", g.detail.clone().into()),
            ])
        })
        .collect();
    obj([
        ("correct", rep.correct().into()),
        ("ops_attempted", rep.attempted.into()),
        ("ops_failed", rep.failed.into()),
        ("sizes", Json::Obj(rep.sizes.clone())),
        ("passes", Json::Obj(rep.passes.clone())),
        ("metrics", Json::Obj(metrics)),
        ("gates", Json::Arr(gates)),
        ("host_clock", host_clock_json(rep.clock.indices())),
        ("spans_recorded", rep.spans.all().len().into()),
    ])
}

/// What the readings of the host's clock said during the run: how many, and
/// the median and range of their indices (1.0 = the reference clock).
fn host_clock_json(indices: &[f64]) -> Json {
    let (lo, hi) = indices
        .iter()
        .fold((f64::INFINITY, 0.0_f64), |(lo, hi), &i| {
            (lo.min(i), hi.max(i))
        });
    if indices.is_empty() {
        return obj([("readings", 0u64.into())]);
    }
    obj([
        ("readings", indices.len().into()),
        ("median_index", median(indices).into()),
        ("min_index", lo.into()),
        ("max_index", hi.into()),
    ])
}

/// The whole results document.
pub fn results_json(header: &Header, workloads: Vec<(String, Json)>) -> Json {
    obj([
        ("header", header.to_json()),
        ("workloads", Json::Obj(workloads)),
    ])
}

/// The driver's result line for one workload object: exactly `correct`,
/// `attempted`, `failed`, `metrics` (`name → {value, unit}`).
pub fn driver_line(workload: &Json) -> Json {
    let metrics = workload
        .get("metrics")
        .and_then(Json::as_obj)
        .unwrap_or(&[])
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                obj([
                    ("value", m.get("value").cloned().unwrap_or(Json::Null)),
                    ("unit", m.get("unit").cloned().unwrap_or(Json::Null)),
                ]),
            )
        })
        .collect();
    obj([
        (
            "correct",
            workload.get("correct").cloned().unwrap_or(false.into()),
        ),
        (
            "attempted",
            workload
                .get("ops_attempted")
                .and_then(Json::as_f64)
                .map_or(1.0, |a| a.max(1.0))
                .into(),
        ),
        (
            "failed",
            workload.get("ops_failed").cloned().unwrap_or(0u64.into()),
        ),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// One metric of one workload as `compare` needs it.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricView {
    /// Unit.
    pub unit: String,
    /// Reported value (a median for timings).
    pub value: f64,
    /// Quartile distance over the value, when the file carries quartiles.
    pub spread: Option<f64>,
}

/// Read metric `name` of workload `workload` from a results document.
pub fn metric_view(doc: &Json, workload: &str, name: &str) -> Option<MetricView> {
    let m = doc
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(name)?;
    let value = m.get("value")?.as_f64()?;
    let spread = match (
        m.get("q1").and_then(Json::as_f64),
        m.get("q3").and_then(Json::as_f64),
    ) {
        (Some(q1), Some(q3)) if value != 0.0 => Some((q3 - q1) / value.abs()),
        _ => None,
    };
    Some(MetricView {
        unit: m.get("unit")?.as_str()?.to_string(),
        value,
        spread,
    })
}

/// `ops_failed ÷ ops_attempted` of a workload.
pub fn failure_rate(doc: &Json, workload: &str) -> Option<f64> {
    let w = doc.get("workloads")?.get(workload)?;
    let attempted = w.get("ops_attempted")?.as_f64()?;
    Some(w.get("ops_failed")?.as_f64()? / attempted.max(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn opts(traced: bool) -> Opts {
        Opts {
            workload: "serve_bare".into(),
            seed: 7,
            seconds: 2.0,
            traced,
            smoke: true,
            wal_dir: PathBuf::from("wal"),
            expected_dir: PathBuf::from("expected"),
            record_expected: false,
        }
    }

    fn report() -> Report {
        let mut rep = Report::default();
        // wall time twice the time at the reference clock
        let timed = |norm: &[f64]| -> Vec<Timed> {
            norm.iter()
                .map(|&norm_s| Timed {
                    raw_s: 2.0 * norm_s,
                    norm_s,
                })
                .collect()
        };
        rep.setup.insert("bare", timed(&[0.3, 0.1, 0.2]));
        rep.setup.insert("plan", timed(&[1.0, 1.0, 4.0]));
        // every metric has samples: a NaN would be written as null and not
        // read back as a number
        for m in END_TO_END {
            rep.e2e_push(m.name, &timed(&[1.0, 3.0]), |s| s);
        }
        rep.e2e.remove("serve_ops_per_s");
        rep.e2e_raw.remove("serve_ops_per_s");
        rep.e2e_push(
            "serve_ops_per_s",
            &timed(&[0.1, 1.0 / 30.0, 0.05, 0.025]),
            |s| 1.0 / s,
        );
        rep.layer_add("lp.solves", 3.0);
        rep.layer_add("lp.solves", 4.0);
        rep.layer_timing("bare", "selector.alone_ops_per_s", "1/s", &[5.0, 7.0, 6.0]);
        rep.attempted = 100;
        rep.failed = 1;
        rep.gate("bare: something held", true, "");
        rep.sizes
            .push(("bare".into(), obj([("calls", 5u64.into())])));
        rep.passes.push(("bare".into(), 4u64.into()));
        rep
    }

    #[test]
    fn results_round_trip_through_text_and_accessors() {
        let o = opts(false);
        let header = Header::new(&o, "abc123".into(), "rustc 1.0".into());
        let doc = results_json(
            &header,
            vec![("serve_bare".into(), workload_json(&o, &report()))],
        );
        let back = Json::parse(&doc.pretty()).unwrap();
        assert_eq!(back, doc);
        assert_eq!(
            back.get("header").unwrap().get("seed").unwrap().as_f64(),
            Some(7.0)
        );

        // rates [10, 30, 20, 40]: the value is the third quartile (the good
        // side of a rate), 30 + 0.25 * 10; quantiles() = [12.5, 25, 37.5]
        let m = metric_view(&back, "serve_bare", "serve_ops_per_s").unwrap();
        assert_eq!(m.unit.as_str(), "1/s");
        assert!((m.value - 32.5).abs() < 1e-9);
        assert!((m.spread.unwrap() - 25.0 / 32.5).abs() < 1e-9);
        let j = back.get("workloads").unwrap().get("serve_bare").unwrap();
        let ops = j.get("metrics").unwrap().get("serve_ops_per_s").unwrap();
        assert!((ops.get("median").unwrap().as_f64().unwrap() - 25.0).abs() < 1e-9);
        assert!((ops.get("raw_median").unwrap().as_f64().unwrap() - 12.5).abs() < 1e-9);
        // a time's value is its first quartile: 1 + 0.25 * 2
        let t = metric_view(&back, "serve_bare", "recover_s").unwrap();
        assert_eq!(t.value, 1.5);
        // setup_s is the sum of the stages' medians
        assert_eq!(
            metric_view(&back, "serve_bare", "setup_s").unwrap().value,
            1.2
        );
        assert_eq!(failure_rate(&back, "serve_bare"), Some(0.01));
        assert!(metric_view(&back, "serve_bare", "lp.solves").is_none());
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys_and_every_metric() {
        for traced in [false, true] {
            let o = opts(traced);
            let line = driver_line(&workload_json(&o, &report()));
            let keys: Vec<&str> = line
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let names: Vec<&str> = line
                .get("metrics")
                .and_then(Json::as_obj)
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            if traced {
                assert_eq!(names, PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>());
                let solves = line.get("metrics").unwrap().get("lp.solves").unwrap();
                assert_eq!(solves.get("value").unwrap().as_f64(), Some(7.0));
            } else {
                assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
            }
            assert!(!line.compact().contains('\n'));
        }
    }
}
