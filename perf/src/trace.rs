//! Spans recorded by the harness around each call into a layer's public
//! functions. Kept in memory, written out once at exit. A layer's self time
//! is its span minus the part its direct children cover.

use crate::json::Json;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub workload: String,
    pub question: String,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder of one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    workload: String,
    question: String,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            workload: String::new(),
            question: String::new(),
        }
    }

    /// Spans opened from now on belong to `question` of `workload`.
    pub fn set_context(&mut self, workload: &str, question: &str) {
        self.workload = workload.to_string();
        self.question = question.to_string();
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, layer: &'static str, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            workload: self.workload.clone(),
            question: self.question.clone(),
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Close `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end_ns;
    }

    /// Attach a count to a span, at the boundary where the work happened.
    pub fn count(&mut self, id: usize, key: &'static str, value: u64) {
        self.spans[id].counts.push((key, value));
    }

    /// Attach a count to the span opened last (after [`Tracer::timed`]: the
    /// span it just recorded).
    pub fn count_last(&mut self, key: &'static str, value: u64) {
        let id = self.spans.len() - 1;
        self.count(id, key, value);
    }

    /// Record a span around `f`; also hand back its duration in
    /// nanoseconds.
    pub fn timed<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.enter(layer, name);
        let out = f();
        self.exit(id);
        (out, self.spans[id].duration_ns())
    }

    /// Record a span around `f`.
    pub fn span<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.timed(layer, name, f).0
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: its duration minus its direct children's.
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    pub fn to_json(&self) -> Json {
        let selfs = self.self_times_ns();
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("id", Json::Num(s.id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("workload", Json::Str(s.workload.clone())),
                        ("question", Json::Str(s.question.clone())),
                        ("layer", Json::Str(s.layer.to_string())),
                        ("name", Json::Str(s.name.to_string())),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("self_ns", Json::Num(selfs[s.id] as f64)),
                        (
                            "counts",
                            Json::Obj(
                                s.counts
                                    .iter()
                                    .map(|&(k, v)| (k.to_string(), Json::Num(v as f64)))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time per span: duration minus the direct children's durations
/// (children run one after the other, so they never overlap).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            selfs[p] = selfs[p].saturating_sub(s.duration_ns());
        }
    }
    selfs
}

/// Run `f` inside a span when tracing, bare otherwise.
pub fn spanned<T>(
    tracer: &mut Option<&mut Tracer>,
    layer: &'static str,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.span(layer, name, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            workload: String::new(),
            question: String::new(),
            layer: "l",
            name: "n",
            start_ns,
            end_ns,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        // 0: [0,100) with children 1: [10,40) and 2: [50,70); 3 under 1.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 50, 70),
            span(3, Some(1), 15, 25),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 20, 10]);
    }

    #[test]
    fn tracer_nests_and_attributes_layers() {
        let mut t = Tracer::new();
        t.set_context("w", "q");
        let outer = t.enter("bmc", "check");
        let inner = t.span("satkit", "solve", || 7);
        assert_eq!(inner, 7);
        t.count(outer, "conflicts", 3);
        t.exit(outer);
        assert_eq!(t.spans()[1].parent, Some(outer));
        assert_eq!(t.spans()[0].counts, vec![("conflicts", 3)]);
        let selfs = t.self_times_ns();
        assert_eq!(selfs[0] + selfs[1], t.spans()[0].duration_ns());
    }
}
