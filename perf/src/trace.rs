//! In-memory span recorder for the layer replay.
//!
//! The harness traces the crates **from outside**: a span is recorded around
//! each call into a layer's public function (nothing inside the program is
//! instrumented — that is a later change). Spans of one query share its
//! `qid`; every span names the span that caused it. Spans stay in memory
//! and are written as JSONL when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

use metis_metrics::Json;

use crate::alloc;

/// Index of a span inside its [`Recorder`].
pub type SpanId = u32;

/// "No parent" / "no query".
pub const NONE: u32 = u32::MAX;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified call name, e.g. `vectordb.retrieve_counted`.
    pub name: &'static str,
    /// The span that caused this one ([`NONE`] for a root).
    pub parent: SpanId,
    /// Identifier shared by all spans of one query or search ([`NONE`] when
    /// the call belongs to no single query).
    pub qid: u32,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Heap allocations made inside the span.
    pub allocs: u64,
    /// Deterministic work counts taken at the same boundary.
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    /// Wall nanoseconds covered by the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans, or — when disabled — just runs the calls, so the same
/// replay code measures its own tracing overhead.
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder; `enabled = false` makes [`Recorder::span`] a plain call.
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that child spans can name as their parent; close it
    /// with [`Recorder::close`]. Returns [`NONE`] when disabled.
    pub fn open(&mut self, name: &'static str, parent: SpanId, qid: u32) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        let id = self.spans.len() as SpanId;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            qid,
            start_ns,
            end_ns: start_ns,
            allocs: alloc::count(),
            counts: Vec::new(),
        });
        id
    }

    /// Closes a span opened with [`Recorder::open`].
    pub fn close(&mut self, id: SpanId) {
        if id == NONE {
            return;
        }
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.allocs = alloc::count() - span.allocs;
    }

    /// Runs `f` inside a leaf span and returns its result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        qid: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        // The span record is pushed *before* the call so the push's own
        // (amortised) allocation is not charged to the callee.
        let id = self.open(name, parent, qid);
        let out = f();
        self.close(id);
        out
    }

    /// Attaches a work count to a recorded span (no-op when disabled).
    pub fn count(&mut self, id: SpanId, key: &'static str, value: u64) {
        if id != NONE {
            self.spans[id as usize].counts.push((key, value));
        }
    }

    /// Id of the most recently opened span ([`NONE`] if there is none).
    pub fn last(&self) -> SpanId {
        if self.spans.is_empty() {
            NONE
        } else {
            (self.spans.len() - 1) as SpanId
        }
    }

    /// All recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration, span count and allocations of every span called
    /// `name`.
    pub fn total(&self, name: &str) -> Total {
        let mut t = Total::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            t.ns += s.duration_ns();
            t.calls += 1;
            t.allocs += s.allocs;
        }
        t
    }

    /// Renders every span as one JSON object per line.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        let selfs = self_times(&self.spans);
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: u32| {
                if v == NONE {
                    Json::Null
                } else {
                    Json::UInt(u64::from(v))
                }
            };
            let mut fields = vec![
                ("workload".to_owned(), Json::Str(workload.to_owned())),
                ("span".to_owned(), Json::UInt(i as u64)),
                ("parent".to_owned(), opt(s.parent)),
                ("qid".to_owned(), opt(s.qid)),
                ("name".to_owned(), Json::Str(s.name.to_owned())),
                ("start_ns".to_owned(), Json::UInt(s.start_ns)),
                ("end_ns".to_owned(), Json::UInt(s.end_ns)),
                ("self_ns".to_owned(), Json::UInt(selfs[i])),
                ("allocs".to_owned(), Json::UInt(s.allocs)),
            ];
            if !s.counts.is_empty() {
                fields.push((
                    "counts".to_owned(),
                    Json::Obj(
                        s.counts
                            .iter()
                            .map(|(k, v)| ((*k).to_owned(), Json::UInt(*v)))
                            .collect(),
                    ),
                ));
            }
            let _ = writeln!(out, "{}", Json::Obj(fields).render());
        }
        out
    }
}

/// Aggregate over the spans of one name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Total {
    /// Summed duration.
    pub ns: u64,
    /// Number of spans.
    pub calls: u64,
    /// Summed allocations.
    pub allocs: u64,
}

impl Total {
    /// Mean nanoseconds per span (0 when there are none).
    pub fn ns_per_call(&self) -> f64 {
        ratio(self.ns as f64, self.calls as f64)
    }

    /// Mean allocations per span (0 when there are none).
    pub fn allocs_per_call(&self) -> f64 {
        ratio(self.allocs as f64, self.calls as f64)
    }
}

/// `a / b`, or 0 when `b` is 0 — layer ratios over a layer that did no work.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover. Children are clipped to the parent and
/// overlapping children are counted once, so the result never underflows.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NONE {
            let p = &spans[s.parent as usize];
            let start = s.start_ns.clamp(p.start_ns, p.end_ns);
            let end = s.end_ns.clamp(p.start_ns, p.end_ns);
            children[s.parent as usize].push((start, end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            qid: 0,
            start_ns,
            end_ns,
            allocs: 0,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = vec![
            span("root", NONE, 0, 100),
            span("a", 0, 10, 30),    // 20 covered
            span("b", 0, 25, 50),    // overlaps a: adds 20 more
            span("c", 0, 90, 120),   // clipped to the parent: adds 10
            span("leaf", 1, 12, 18), // grandchild: only a's self time
        ];
        assert_eq!(self_times(&spans), vec![50, 14, 25, 30, 6]);
    }

    #[test]
    fn disabled_recorder_records_nothing_and_still_calls() {
        let mut r = Recorder::new(false);
        let v = r.span("x", NONE, NONE, || 7);
        assert_eq!(v, 7);
        assert!(r.spans().is_empty());
        assert_eq!(r.open("y", NONE, NONE), NONE);
    }

    #[test]
    fn spans_nest_and_total() {
        let mut r = Recorder::new(true);
        let root = r.open("query", NONE, 3);
        r.span("layer.call", root, 3, || std::hint::black_box(1 + 1));
        r.span("layer.call", root, 3, || std::hint::black_box(2 + 2));
        let last = r.last();
        r.count(last, "evals", 5);
        r.close(root);
        assert_eq!(r.total("layer.call").calls, 2);
        assert_eq!(r.spans()[2].counts, vec![("evals", 5)]);
        let selfs = self_times(r.spans());
        let covered: u64 = r.spans()[1..].iter().map(Span::duration_ns).sum();
        assert_eq!(selfs[0], r.spans()[0].duration_ns() - covered);
        let jsonl = r.to_jsonl("w");
        assert_eq!(jsonl.lines().count(), 3);
        for line in jsonl.lines() {
            let v = Json::parse(line).expect("each line is one JSON object");
            assert_eq!(v.get("workload").and_then(Json::as_str), Some("w"));
        }
    }
}
