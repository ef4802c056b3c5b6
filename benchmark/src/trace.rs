//! Spans recorded by the harness around its calls into each layer.
//!
//! A span has a name (the layer metric it feeds), an id shared by the spans
//! of one job / scenario / cell, the span that was open when it started,
//! and a count made at the same boundary (steps, bytes, polls). Spans stay
//! in memory until the run ends. A disabled tracer records no spans, so the
//! same workload code serves traced and untraced passes and the difference
//! between them is the tracing overhead.
//!
//! Enabled or not, a tracer clocks the *pieces* of a pass — the separately
//! timed calls a pass is made of — because the end-to-end timing is built
//! from them (see `run.rs`).

use std::cell::RefCell;
use std::time::{Duration, Instant};

use st_core::Json;

/// One recorded span; times are nanoseconds since the tracer was created.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub id: String,
    /// Index of the enclosing span in the tracer's list.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work counted at this boundary (0 when the span counts nothing).
    pub count: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    pieces: RefCell<Vec<Duration>>,
}

/// Closes its span when dropped.
struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl SpanGuard<'_> {
    /// Attaches the work counted inside the span.
    fn set_count(&mut self, count: u64) {
        if let Some(i) = self.index {
            self.tracer.spans.borrow_mut()[i].count = count;
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(i) = self.index {
            let now = self.tracer.now_ns();
            self.tracer.spans.borrow_mut()[i].end_ns = now;
            let popped = self.tracer.open.borrow_mut().pop();
            debug_assert_eq!(popped, Some(i), "spans close innermost first");
        }
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            pieces: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    fn open(&self, name: &str, id: &str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: self,
                index: None,
            };
        }
        let mut spans = self.spans.borrow_mut();
        let index = spans.len();
        let now = self.now_ns();
        spans.push(Span {
            name: name.to_string(),
            id: id.to_string(),
            parent: self.open.borrow().last().copied(),
            start_ns: now,
            end_ns: now,
            count: 0,
        });
        self.open.borrow_mut().push(index);
        SpanGuard {
            tracer: self,
            index: Some(index),
        }
    }

    /// Runs `f` inside a span; `f` returns its result and the work it
    /// counted.
    pub fn counted<R>(&self, name: &str, id: &str, f: impl FnOnce() -> (R, u64)) -> R {
        let mut guard = self.open(name, id);
        let (result, count) = f();
        guard.set_count(count);
        result
    }

    /// Runs `f` as one piece of the current pass: a counted span whose
    /// duration is also kept for [`take_pieces`](Self::take_pieces), traced
    /// or not.
    pub fn piece<R>(&self, name: &str, id: &str, f: impl FnOnce() -> (R, u64)) -> R {
        let start = Instant::now();
        let result = self.counted(name, id, f);
        self.pieces.borrow_mut().push(start.elapsed());
        result
    }

    /// The piece durations clocked since the last call, in call order.
    pub fn take_pieces(&self) -> Vec<Duration> {
        std::mem::take(&mut self.pieces.borrow_mut())
    }

    /// Runs `f` inside a span that counts nothing.
    pub fn span<R>(&self, name: &str, id: &str, f: impl FnOnce() -> R) -> R {
        let _guard = self.open(name, id);
        f()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Self time per span: its duration minus the part of that interval its
/// direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.dur_ns());
        }
    }
    own
}

/// The trace document written at the end of a traced run.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> Json {
    let own = self_times(spans);
    let entries = spans.iter().zip(own).map(|(s, self_ns)| {
        Json::obj([
            ("name", Json::str(s.name.as_str())),
            ("id", Json::str(s.id.as_str())),
            (
                "parent",
                s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
            ),
            ("start_ns", Json::U64(s.start_ns)),
            ("end_ns", Json::U64(s.end_ns)),
            ("self_ns", Json::U64(self_ns)),
            ("count", Json::U64(s.count)),
        ])
    });
    Json::obj([
        ("schema", Json::str("st-benchmark/trace-v1")),
        ("workload", Json::str(workload)),
        ("seed", Json::U64(seed)),
        ("spans", Json::arr(entries)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s".into(),
            id: String::new(),
            parent,
            start_ns,
            end_ns,
            count: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // job [0,100) ⊃ submit [0,10), wait [10,90) ⊃ poll [20,30).
        let spans = [
            span(None, 0, 100),
            span(Some(0), 0, 10),
            span(Some(0), 10, 90),
            span(Some(2), 20, 30),
        ];
        assert_eq!(self_times(&spans), [10, 10, 70, 10]);
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 100, "self times partition the root span");
    }

    #[test]
    fn nesting_and_counts_are_recorded() {
        let t = Tracer::new(true);
        let got = t.span("outer", "job-1", || {
            t.counted("inner", "job-1", || ("x", 42))
        });
        assert_eq!(got, "x");
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name.as_str(), spans[0].parent), ("outer", None));
        assert_eq!(
            (spans[1].name.as_str(), spans[1].parent, spans[1].count),
            ("inner", Some(0), 42)
        );
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn disabled_tracer_records_no_spans_but_still_clocks_pieces() {
        let t = Tracer::new(false);
        assert_eq!(t.counted("a", "", || (7, 1)), 7);
        assert_eq!(t.piece("b", "", || (8, 1)), 8);
        assert!(t.spans().is_empty());
        assert_eq!(t.take_pieces().len(), 1);
        assert!(t.take_pieces().is_empty(), "taking drains");
    }

    #[test]
    fn trace_document_round_trips_through_canonical_json() {
        let t = Tracer::new(true);
        t.span("outer", "c", || t.span("inner", "c", || ()));
        let doc = to_json("w", 3, &t.spans());
        let text = doc.to_string();
        assert_eq!(Json::parse(&text).unwrap().to_string(), text);
        let spans = doc.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(spans[1].get("parent").and_then(Json::as_u64), Some(0));
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
    }
}
