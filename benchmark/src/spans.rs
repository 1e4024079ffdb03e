//! In-memory spans recorded by the harness around its calls into each layer.
//!
//! A span is `(name, trace, parent, start, end)`. Spans of one pass share
//! the pass number as their trace identifier. A layer's *self time* is its
//! spans' duration minus the part their direct children cover, so the self
//! times of one pass's tree sum to the root's duration exactly — that is
//! the "breakdown sums to the wall" arithmetic the chain workload asserts.

use std::collections::BTreeMap;
use std::time::Instant;

/// Handle returned by [`Spans::enter`], consumed by [`Spans::exit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded span; times are nanoseconds since the recorder was created.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary this span wraps.
    pub name: &'static str,
    /// Pass number (all spans of one pass share it).
    pub trace: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns (`start_ns` until exited).
    pub end_ns: u64,
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus direct children), ns.
    pub self_ns: u64,
}

/// The span recorder: a flat vector plus the stack of open spans.
pub struct Spans {
    origin: Instant,
    trace: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// Empty recorder; time zero is now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            trace: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a new trace: spans entered from now on carry the returned
    /// identifier.
    pub fn next_trace(&mut self) -> u32 {
        self.trace += 1;
        self.trace
    }

    /// Open a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let t = self.now_ns();
        self.enter_at(name, t)
    }

    /// Close `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) -> u64 {
        let t = self.now_ns();
        self.exit_at(id, t)
    }

    /// [`Spans::enter`] with an explicit clock (tests).
    pub fn enter_at(&mut self, name: &'static str, t_ns: u64) -> SpanId {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            trace: self.trace,
            parent: self.open.last().copied(),
            start_ns: t_ns,
            end_ns: t_ns,
        });
        self.open.push(idx);
        SpanId(idx)
    }

    /// [`Spans::exit`] with an explicit clock; returns the span's duration.
    pub fn exit_at(&mut self, id: SpanId, t_ns: u64) -> u64 {
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost-first");
        let s = &mut self.spans[id.0];
        s.end_ns = t_ns.max(s.start_ns);
        s.end_ns - s.start_ns
    }

    /// Time `f` as a span named `name`; returns its result and duration in
    /// seconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.enter(name);
        let out = f();
        let ns = self.exit(id);
        (out, ns as f64 / 1e9)
    }

    /// Every span recorded so far.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name count, total and self time over the spans of `trace`.
    pub fn totals(&self, trace: u32) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.trace != trace {
                continue;
            }
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child_ns[i]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut s = Spans::new();
        assert_eq!((s.next_trace(), s.next_trace(), s.next_trace()), (1, 2, 3));
        let root = s.enter_at("chain", 0);
        let a = s.enter_at("serve", 10);
        let a1 = s.enter_at("install", 20);
        s.exit_at(a1, 25);
        s.exit_at(a, 40);
        let b = s.enter_at("serve", 50);
        s.exit_at(b, 70);
        s.exit_at(root, 100);
        let t = s.totals(3);
        assert_eq!(
            t["chain"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(
            t["serve"],
            NameTotals {
                count: 2,
                total_ns: 50,
                self_ns: 45
            }
        );
        assert_eq!(t["install"].self_ns, 5);
        // the tree's self times sum to the root's duration exactly
        let sum: u64 = t.values().map(|n| n.self_ns).sum();
        assert_eq!(sum, 100);
        // another trace sees nothing
        assert!(s.totals(4).is_empty());
        assert_eq!(s.all()[2].parent, Some(1));
    }

    #[test]
    #[should_panic(expected = "innermost-first")]
    fn closing_out_of_order_is_a_bug() {
        let mut s = Spans::new();
        let a = s.enter_at("a", 0);
        let _b = s.enter_at("b", 1);
        s.exit_at(a, 2);
    }
}
