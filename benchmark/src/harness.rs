//! What the four stages share: run options, the report they fill in, the
//! time-budgeted pass loop, correctness gates, and readers for the counters
//! the measured crates publish in `sb_obs::global()`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::hostclock::{HostClock, Timed};
use crate::json::{obj, Json};
use crate::spans::Spans;
use crate::stats::{median, percentile_sorted};

/// Options of one workload run.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Workload name (see [`crate::spec::WORKLOADS`]).
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Measuring budget of the primary stage, seconds.
    pub seconds: f64,
    /// Traced run: per-op timing, `sb_obs` counters, layer-alone passes.
    pub traced: bool,
    /// Tiny sizes, every gate, no timing verdicts.
    pub smoke: bool,
    /// Directory WAL files are written to (and removed from).
    pub wal_dir: PathBuf,
    /// Directory of `<workload>.json` expected plans.
    pub expected_dir: PathBuf,
    /// Write the expected file instead of checking it.
    pub record_expected: bool,
}

/// One correctness gate's outcome.
#[derive(Clone, Debug)]
pub struct Gate {
    /// Gate name, `stage: what`.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The compared values when it did not (or a short note when it did).
    pub detail: String,
}

/// Everything a run measured. Stages append; `main` reduces and emits.
#[derive(Default)]
pub struct Report {
    /// Readings of the host's clock; every end-to-end timing is taken
    /// between two of them (off in a traced run).
    pub clock: HostClock,
    /// Set-up times per stage (each stage sets up several times).
    pub setup: BTreeMap<&'static str, Vec<Timed>>,
    /// End-to-end samples per metric, one per timed pass, at the reference
    /// clock (see [`crate::hostclock`]).
    pub e2e: BTreeMap<&'static str, Vec<f64>>,
    /// The same samples as plain wall-clock values, for the results file.
    pub e2e_raw: BTreeMap<&'static str, Vec<f64>>,
    /// Per-layer values, already reduced per stage; stages that share a
    /// metric (LP counts, selector counts, …) add up.
    pub layer: BTreeMap<&'static str, f64>,
    /// Raw samples behind the timings, for the results file's summaries.
    pub samples: BTreeMap<String, (&'static str, Vec<f64>)>,
    /// Operations attempted / failed (see the README for what counts).
    pub attempted: u64,
    /// Failed operations.
    pub failed: u64,
    /// Correctness gates, in the order they ran.
    pub gates: Vec<Gate>,
    /// Input sizes per stage, for the results header.
    pub sizes: Vec<(String, Json)>,
    /// Timed passes per stage.
    pub passes: Vec<(String, Json)>,
    /// Spans recorded around the calls into each layer.
    pub spans: Spans,
}

/// Readings on each side of a region timed by [`Report::timed`].
pub const BRACKET_READINGS: usize = 3;

impl Report {
    /// An empty report whose clock takes readings in a plain run and is off
    /// in a traced one (per-layer figures are wall times) and in a smoke
    /// run (no timing verdicts).
    pub fn new(opts: &Opts) -> Report {
        Report {
            clock: HostClock::new(!opts.traced && !opts.smoke),
            ..Report::default()
        }
    }

    /// Time `f` — one call into a layer that may last seconds — as a span
    /// named `name`, between two brackets of [`BRACKET_READINGS`] readings of
    /// the host's clock each (the readings are outside the span).
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Timed) {
        let idx0 = self.clock.read_n(BRACKET_READINGS);
        let (out, raw_s) = self.spans.time(name, f);
        let idx1 = self.clock.read_n(BRACKET_READINGS);
        (out, crate::hostclock::normalized(raw_s, idx0, idx1))
    }

    /// Record a gate; a failed gate fails the run. A gate checked on every
    /// pass keeps one entry: failed if any pass failed, with the first
    /// failure's detail.
    pub fn gate(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        let gate = Gate {
            name: name.into(),
            ok,
            detail: detail.into(),
        };
        match self.gates.iter_mut().find(|g| g.name == gate.name) {
            Some(seen) if seen.ok && !gate.ok => *seen = gate,
            Some(_) => {}
            None => self.gates.push(gate),
        }
    }

    /// Gate on `a == b`, keeping both in the detail when they differ.
    pub fn gate_eq<T: PartialEq + std::fmt::Debug>(&mut self, name: &str, a: &T, b: &T) {
        let ok = a == b;
        let detail = if ok {
            String::new()
        } else {
            let mut d = format!("{a:?} != {b:?}");
            d.truncate(400);
            d
        };
        self.gate(name, ok, detail);
    }

    /// Add a stage's reduced per-layer value.
    pub fn layer_add(&mut self, name: &'static str, v: f64) {
        *self.layer.entry(name).or_insert(0.0) += v;
    }

    /// Add the median of a stage's per-pass timing and keep the samples.
    pub fn layer_timing(&mut self, stage: &str, name: &'static str, unit: &'static str, v: &[f64]) {
        if v.is_empty() {
            return;
        }
        self.layer_add(name, median(v));
        self.samples
            .insert(format!("{stage}:{name}"), (unit, v.to_vec()));
    }

    /// Append one end-to-end sample per timing of `times`: `value` maps
    /// seconds to the metric's unit (a rate divides by them), and is applied
    /// to the normalized and to the wall time alike.
    pub fn e2e_push(&mut self, name: &'static str, times: &[Timed], value: impl Fn(f64) -> f64) {
        let norm = self.e2e.entry(name).or_default();
        norm.extend(times.iter().map(|t| value(t.norm_s)));
        let raw = self.e2e_raw.entry(name).or_default();
        raw.extend(times.iter().map(|t| value(t.raw_s)));
    }

    /// Did every gate hold?
    pub fn correct(&self) -> bool {
        self.gates.iter().all(|g| g.ok)
    }
}

/// Run one pass of a stage (work fixed by the input); `true` keeps its
/// samples, `false` is a warm-up.
pub type PassFn<'a> = Box<dyn FnMut(&mut Report, bool) + 'a>;

/// One stage's pass, as the stage hands it to [`interleave`], with how often
/// to run it.
pub struct StagePasses<'a> {
    /// The pass.
    pub pass: PassFn<'a>,
    /// Timed passes when the stage runs at probe size.
    pub probe: usize,
    /// Fewest timed passes when it is the workload's own stage.
    pub min: usize,
    /// Most timed passes when it is the workload's own stage.
    pub max: usize,
    /// Whether the stage, as the workload's own, starts with a warm-up pass
    /// (not when one pass lasts seconds).
    pub warm_up_primary: bool,
    /// Whether every group of the stage's probe passes starts with a warm-up
    /// pass, or only the first (when a probe pass lasts a good part of a
    /// second, what the caches held before it is noise).
    pub warm_up_every_group: bool,
}

/// Groups a probe stage's passes run in: before the primary stage's first
/// pass, once half its budget is used, and after its last pass.
pub const PROBE_GROUPS: usize = 3;

/// Run the stages' passes interleaved, so that every metric's samples come
/// from the start, the middle and the end of the run instead of one window
/// of it: a burst on the host that lasts ten seconds then spoils a third of
/// every stage's passes, which the estimator over passes sets aside, and not
/// every pass of one.
///
/// The primary stage runs at least `min` timed passes and then for as long
/// as another pass of average length still fits in `budget_s` of its own
/// running time (at most `max`). Every other stage runs exactly `probe`
/// timed passes in [`PROBE_GROUPS`] groups, each group back to back and —
/// where a probe pass is tens of milliseconds — behind an untimed warm-up
/// pass of its own: straight after another stage has run, such a pass would
/// measure cold caches (a probe-size solve reads 0.068 s cold and 0.045 s
/// warm).
/// Work per pass is fixed by the input; only the number of primary passes
/// follows the clock. Returns the timed passes run per stage.
pub fn interleave(
    rep: &mut Report,
    budget_s: f64,
    primary: usize,
    stages: &mut [StagePasses<'_>],
) -> Vec<usize> {
    let mut done = vec![0usize; stages.len()];
    let mut groups_run = 1;
    probe_group(rep, stages, &mut done, primary, groups_run);
    if stages[primary].warm_up_primary {
        (stages[primary].pass)(rep, false);
    }
    let mut primary_s = 0.0;
    loop {
        let t0 = Instant::now();
        (stages[primary].pass)(rep, true);
        done[primary] += 1;
        primary_s += t0.elapsed().as_secs_f64();
        let n = done[primary];
        let (min, max) = (stages[primary].min, stages[primary].max);
        let last = n >= max || (n >= min && primary_s + primary_s / n as f64 > budget_s);
        // the middle groups come due as the budget is used up; the last one
        // waits for the last primary pass
        let due = if last {
            PROBE_GROUPS
        } else {
            let used = (primary_s / budget_s).min(1.0);
            (1 + (used * (PROBE_GROUPS - 1) as f64) as usize).min(PROBE_GROUPS - 1)
        };
        while groups_run < due {
            groups_run += 1;
            probe_group(rep, stages, &mut done, primary, groups_run);
        }
        if last {
            return done;
        }
    }
}

/// Run group number `group` (1-based) of every probe stage: a warm-up pass
/// where the stage asks for one, then timed passes up to the group's share of
/// the stage's count.
fn probe_group(
    rep: &mut Report,
    stages: &mut [StagePasses<'_>],
    done: &mut [usize],
    primary: usize,
    group: usize,
) {
    for (i, st) in stages.iter_mut().enumerate() {
        let target = (st.probe * group).div_ceil(PROBE_GROUPS);
        if i == primary || done[i] >= target {
            continue;
        }
        if group == 1 || st.warm_up_every_group {
            (st.pass)(rep, false);
        }
        while done[i] < target {
            (st.pass)(rep, true);
            done[i] += 1;
        }
    }
}

/// Times every stage sets up (`setup_s` sums the stages' medians).
pub const SETUP_REPS: usize = 3;

/// Time `setup` [`SETUP_REPS`] times, keep the last result and all the
/// timings.
pub fn timed_setup<T>(clock: &mut HostClock, mut setup: impl FnMut() -> T) -> (T, Vec<Timed>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        // drop the previous world first so set-up never holds two
        drop(last.take());
        let (out, t) = clock.time(|| std::hint::black_box(setup()));
        last = Some(out);
        times.push(t);
    }
    (last.expect("at least one set-up ran"), times)
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `|a − b|` within `1e-9` relative.
pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()) + 1e-12
}

/// A plan's comparable outputs: cost and the two capacity vectors.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanDigest {
    /// Plan cost (LP objective or priced capacity).
    pub cost: f64,
    /// Cores per DC.
    pub cores: Vec<f64>,
    /// Gbps per link.
    pub gbps: Vec<f64>,
}

impl PlanDigest {
    /// Are all three within 1e-9 relative of `other`?
    pub fn close_to(&self, other: &PlanDigest) -> bool {
        let vec_close = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(&x, &y)| close(x, y))
        };
        close(self.cost, other.cost)
            && vec_close(&self.cores, &other.cores)
            && vec_close(&self.gbps, &other.gbps)
    }

    /// Largest relative difference to `other` in the cost and in any
    /// capacity entry (for a failed gate's detail).
    pub fn max_rel_diff(&self, other: &PlanDigest) -> (f64, f64) {
        let rel = |a: f64, b: f64| (a - b).abs() / a.abs().max(b.abs()).max(1e-12);
        let vecs = self
            .cores
            .iter()
            .zip(&other.cores)
            .chain(self.gbps.iter().zip(&other.gbps))
            .map(|(&a, &b)| rel(a, b))
            .fold(0.0, f64::max);
        (rel(self.cost, other.cost), vecs)
    }

    /// JSON form of the expected file.
    pub fn to_json(&self) -> Json {
        obj([
            ("cost", self.cost.into()),
            ("cores", self.cores.clone().into()),
            ("gbps", self.gbps.clone().into()),
        ])
    }

    /// Parse the expected file's form.
    pub fn from_json(j: &Json) -> Option<PlanDigest> {
        let vec = |k: &str| -> Option<Vec<f64>> {
            j.get(k)?.as_arr()?.iter().map(Json::as_f64).collect()
        };
        Some(PlanDigest {
            cost: j.get("cost")?.as_f64()?,
            cores: vec("cores")?,
            gbps: vec("gbps")?,
        })
    }
}

/// How a plan is compared with another run's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanMatch {
    /// Cost and both capacity vectors within 1e-9 relative: for a single
    /// deterministic solve.
    Exact,
    /// Cost within [`COST_TOLERANCE`] relative, vectors not compared: for
    /// `provision`, which sums usage in hash order and now and then (about
    /// one call in 400 at probe size) ends on another vertex whose cost
    /// differs in the seventh digit and whose capacity vector differs
    /// entrywise.
    Cost,
}

/// Relative cost tolerance of [`PlanMatch::Cost`] (6e-7 was observed).
pub const COST_TOLERANCE: f64 = 1e-5;

impl PlanMatch {
    /// Does `a` match `b` under this rule?
    pub fn holds(self, a: &PlanDigest, b: &PlanDigest) -> bool {
        match self {
            PlanMatch::Exact => a.close_to(b),
            PlanMatch::Cost => a.max_rel_diff(b).0 <= COST_TOLERANCE,
        }
    }

    fn label(self) -> &'static str {
        match self {
            PlanMatch::Exact => "plan within 1e-9",
            PlanMatch::Cost => "plan cost within 1e-5",
        }
    }
}

/// Check (or record) `digest` against `expected/<workload>.json`. The LPs
/// are built from the world's expected demand, so one file holds for every
/// seed. Only the full-size stage of a workload has an expected file.
pub fn check_expected(
    opts: &Opts,
    rep: &mut Report,
    stage: &str,
    digest: &PlanDigest,
    rule: PlanMatch,
) {
    let path = opts.expected_dir.join(format!("{}.json", opts.workload));
    let gate = format!(
        "{stage}: {} of expected/{}.json",
        rule.label(),
        opts.workload
    );
    if opts.record_expected {
        let ok = std::fs::create_dir_all(&opts.expected_dir)
            .and_then(|()| std::fs::write(&path, digest.to_json().pretty()))
            .is_ok();
        rep.gate(gate, ok, "recorded");
        return;
    }
    match std::fs::read_to_string(&path) {
        Err(e) => rep.gate(gate, false, format!("cannot read: {e}")),
        Ok(text) => {
            let want = Json::parse(&text)
                .ok()
                .and_then(|j| PlanDigest::from_json(&j));
            let ok = want.as_ref().is_some_and(|w| rule.holds(digest, w));
            let detail = if ok {
                String::new()
            } else {
                format!("got cost {} want {:?}", digest.cost, want.map(|w| w.cost))
            };
            rep.gate(gate, ok, detail);
        }
    }
}

/// Current value of the `sb_obs` counter `name`.
fn obs_counter(name: &str) -> u64 {
    sb_obs::global().counter(name).get()
}

/// Current sum of the `sb_obs` histogram `name`.
fn obs_hist_sum(name: &str) -> u64 {
    sb_obs::global().histogram(name).sum()
}

/// A before/after reading of a fixed set of `sb_obs` counters and histogram
/// sums. The registry is never reset (the crates cache histogram handles
/// that a reset would orphan), so everything is read as a difference.
pub struct ObsDelta {
    counters: Vec<(&'static str, u64)>,
    hists: Vec<(&'static str, u64)>,
}

impl ObsDelta {
    /// Enable the registry and read the starting values.
    pub fn start(counters: &[&'static str], hists: &[&'static str]) -> ObsDelta {
        sb_obs::global().set_enabled(true);
        ObsDelta {
            counters: counters.iter().map(|&n| (n, obs_counter(n))).collect(),
            hists: hists.iter().map(|&n| (n, obs_hist_sum(n))).collect(),
        }
    }

    /// Disable the registry and return `name → increase` for everything
    /// read at the start.
    pub fn finish(self) -> BTreeMap<&'static str, u64> {
        sb_obs::global().set_enabled(false);
        let mut out = BTreeMap::new();
        for (n, v0) in self.counters {
            out.insert(n, obs_counter(n) - v0);
        }
        for (n, v0) in self.hists {
            out.insert(n, obs_hist_sum(n) - v0);
        }
        out
    }
}

/// p50 and p99 of per-op latencies (ns), plus the samples' summary entry.
pub fn latency_percentiles(
    rep: &mut Report,
    stage: &str,
    p50: &'static str,
    p99: &'static str,
    ns: &mut [u32],
) {
    if ns.is_empty() {
        return;
    }
    ns.sort_unstable();
    let sorted: Vec<f64> = ns.iter().map(|&v| v as f64).collect();
    rep.layer_add(p50, percentile_sorted(&sorted, 0.50));
    rep.layer_add(p99, percentile_sorted(&sorted, 0.99));
    // keep a bounded, evenly spaced subsample for the results file's summary
    let step = (sorted.len() / 100_000).max(1);
    let sub = sorted.into_iter().step_by(step).collect();
    rep.samples.insert(format!("{stage}:{p50}"), ("ns", sub));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_gate_checked_every_pass_keeps_one_entry_and_its_first_failure() {
        let mut rep = Report::default();
        rep.gate("drained", true, "");
        rep.gate_eq("drained", &3, &0);
        rep.gate_eq("drained", &5, &0);
        rep.gate("drained", true, "");
        rep.gate("other", true, "");
        assert_eq!(rep.gates.len(), 2);
        assert_eq!(
            (rep.gates[0].ok, rep.gates[0].detail.as_str()),
            (false, "3 != 0")
        );
        assert!(!rep.correct());
    }

    /// Run `interleave` over three stages whose passes log `(stage, timed)`
    /// and sleep `ms[stage]`; stage 1 is the primary.
    fn interleaved(
        budget_s: f64,
        ms: [u64; 3],
        min: usize,
        max: usize,
    ) -> (Vec<usize>, Vec<(usize, bool)>) {
        let log = std::cell::RefCell::new(Vec::new());
        let mut stages: Vec<StagePasses<'_>> = [8, 0, 3]
            .into_iter()
            .enumerate()
            .map(|(i, probe)| {
                let log = &log;
                StagePasses {
                    pass: Box::new(move |_: &mut Report, timed: bool| {
                        log.borrow_mut().push((i, timed));
                        std::thread::sleep(std::time::Duration::from_millis(ms[i]));
                    }),
                    probe,
                    min,
                    max,
                    warm_up_primary: true,
                    warm_up_every_group: i == 0,
                }
            })
            .collect();
        let done = interleave(&mut Report::default(), budget_s, 1, &mut stages);
        drop(stages);
        (done, log.into_inner())
    }

    #[test]
    fn interleaving_honours_min_max_budget_and_probe_counts() {
        // zero budget: exactly `min` timed primary passes behind one warm-up,
        // and every probe pass still runs
        let (done, log) = interleaved(0.0, [0, 0, 0], 2, 9);
        assert_eq!(done, vec![8, 2, 3]);
        // a group is a warm-up and a third of each probe stage's passes: one
        // before the primary's warm-up and first pass, one after it (the
        // budget is used up at once), one after its last pass
        // (stage 0 warms up in every group, stage 2 only in the first)
        let group = |zeros: usize, warm_2: bool| {
            let mut g = vec![(0, false)];
            g.extend(vec![(0, true); zeros]);
            if warm_2 {
                g.push((2, false));
            }
            g.push((2, true));
            g
        };
        let mut want = group(3, true);
        want.extend([(1, false), (1, true)]);
        want.extend(group(3, false));
        want.push((1, true));
        want.extend(group(2, false));
        assert_eq!(log, want);
        let timed = |stage| log.iter().filter(|&&e| e == (stage, true)).count();
        assert_eq!((timed(0), timed(1), timed(2)), (8, 2, 3));
        // huge budget: capped at `max`
        assert_eq!(interleaved(1e9, [0, 0, 0], 1, 4).0, vec![8, 4, 3]);
        // a primary pass that would overrun the budget is not started, and
        // time spent in probe passes is not charged to the budget
        let (done, _) = interleaved(0.05, [30, 20, 0], 1, 100);
        assert!((1..=3).contains(&done[1]), "{done:?}");
        assert_eq!((done[0], done[2]), (8, 3));
    }

    #[test]
    fn probe_groups_sit_before_amid_and_after_the_primary_passes() {
        // ~eight primary passes in the budget; every group of a probe stage
        // starts with its own warm-up pass
        let (done, log) = interleaved(0.16, [0, 20, 0], 1, 100);
        assert!(done[1] >= 4, "{done:?}");
        let warm_ups: Vec<usize> = (0..log.len()).filter(|&i| log[i] == (0, false)).collect();
        assert_eq!(warm_ups.len(), PROBE_GROUPS, "{log:?}");
        let primaries: Vec<usize> = (0..log.len()).filter(|&i| log[i] == (1, true)).collect();
        let (first, last) = (primaries[0], *primaries.last().unwrap());
        assert!(warm_ups[0] < first && warm_ups[2] > last, "{log:?}");
        assert!(first < warm_ups[1] && warm_ups[1] < last, "{log:?}");
    }

    #[test]
    fn cost_rule_tolerates_another_vertex_but_not_another_plan() {
        let a = PlanDigest {
            cost: 1000.0,
            cores: vec![1.0, 0.0],
            gbps: vec![],
        };
        let other_vertex = PlanDigest {
            cost: 1000.0 * (1.0 + 6e-7),
            cores: vec![0.0, 1.0],
            gbps: vec![],
        };
        assert!(PlanMatch::Cost.holds(&a, &other_vertex));
        assert!(!PlanMatch::Exact.holds(&a, &other_vertex));
        let other_plan = PlanDigest {
            cost: 1000.1,
            ..a.clone()
        };
        assert!(!PlanMatch::Cost.holds(&a, &other_plan));
        assert_eq!(a.max_rel_diff(&other_vertex).1, 1.0);
    }

    #[test]
    fn digest_compares_relatively_and_round_trips() {
        let d = PlanDigest {
            cost: 1234.5,
            cores: vec![10.0, 0.0],
            gbps: vec![1e-3],
        };
        let mut near = d.clone();
        near.cost *= 1.0 + 1e-11;
        assert!(d.close_to(&near));
        near.cores[0] += 1e-6;
        assert!(!d.close_to(&near));
        let mut short = d.clone();
        short.gbps.clear();
        assert!(!d.close_to(&short));
        assert_eq!(PlanDigest::from_json(&d.to_json()), Some(d));
    }

    #[test]
    fn timed_setup_keeps_the_last_world_and_every_timing() {
        let mut k = 0;
        let (v, t) = timed_setup(&mut HostClock::new(false), || {
            k += 1;
            k
        });
        assert_eq!((v, t.len()), (3, 3));
    }
}
