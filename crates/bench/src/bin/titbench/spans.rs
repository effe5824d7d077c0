//! In-memory wall-clock spans recorded around calls into each layer.
//!
//! The recorder lives in the benchmark, not in the program: a span is
//! opened before a public library call and closed after it, kept in
//! memory, and written out as Chrome-trace JSON when the run ends.

use std::time::Instant;

use crate::manifest::json_string;

/// One recorded interval. Times are nanoseconds since the recorder's
/// origin; `parent` indexes the span that was open when this one began;
/// spans of one traced run share `run`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Recorder::enter`]; pass it back to
/// [`Recorder::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(usize);

impl Open {
    /// Index of the span in [`Recorder::spans`].
    pub fn index(self) -> usize {
        self.0
    }
}

pub struct Recorder {
    origin: Instant,
    run: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(run: u32) -> Recorder {
        Recorder {
            origin: Instant::now(),
            run,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &str) -> Open {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            run: self.run,
        });
        let index = self.spans.len() - 1;
        self.stack.push(index);
        Open(index)
    }

    /// Closes `open` (and anything still open inside it); returns its
    /// duration in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let end_ns = self.now_ns();
        while let Some(index) = self.stack.pop() {
            self.spans[index].end_ns = end_ns;
            if index == open.0 {
                break;
            }
        }
        self.spans[open.0].duration_ns() as f64 / 1e9
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.enter(name);
        let out = f();
        (out, self.exit(open))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Nanoseconds of `spans[index]` covered by none of its direct
/// children: duration minus the union of the child intervals, each
/// clipped to the parent so children never count for more than it.
pub fn self_time_ns(spans: &[Span], index: usize) -> u64 {
    let parent = &spans[index];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(index))
        .map(|s| {
            (
                s.start_ns.clamp(parent.start_ns, parent.end_ns),
                s.end_ns.clamp(parent.start_ns, parent.end_ns),
            )
        })
        .collect();
    children.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = parent.start_ns;
    for (start, end) in children {
        let start = start.max(cursor);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    parent.duration_ns() - covered
}

/// Chrome-trace (`chrome://tracing`, Perfetto) rendering: one complete
/// event per span, `pid` = run id, with the parent index and self time
/// in `args`.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":0,\
             \"args\":{{\"id\":{i},\"parent\":{parent},\"self_us\":{:.3}}}}}",
            json_string(&s.name),
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.run,
            self_time_ns(spans, i) as f64 / 1e3,
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            run: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_child_time() {
        let spans = vec![
            span("parent", 100, 200, None),
            span("a", 110, 130, Some(0)),
            span("b", 150, 160, Some(0)),
            // A grandchild belongs to `a`, not to the parent.
            span("a.inner", 112, 120, Some(1)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 20 - 10);
        assert_eq!(self_time_ns(&spans, 1), 20 - 8);
        assert_eq!(self_time_ns(&spans, 2), 10);
    }

    #[test]
    fn children_never_exceed_the_parent() {
        // Overlapping children count once; a child reaching outside the
        // parent is clipped, so self time cannot go negative.
        let spans = vec![
            span("parent", 100, 200, None),
            span("a", 90, 150, Some(0)),
            span("b", 140, 260, Some(0)),
            span("c", 120, 130, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 0);
        let spans = vec![
            span("parent", 100, 200, None),
            span("a", 100, 150, Some(0)),
            span("b", 120, 180, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 20);
    }

    #[test]
    fn recorder_nests_and_closes_abandoned_children() {
        let mut rec = Recorder::new(7);
        let outer = rec.enter("outer");
        let ((), inner_s) = rec.time("inner", || ());
        let _abandoned = rec.enter("abandoned");
        let outer_s = rec.exit(outer);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.run == 7));
        assert_eq!(spans[2].end_ns, spans[0].end_ns);
        assert!(inner_s <= outer_s);
        assert!(self_time_ns(spans, outer.index()) <= spans[0].duration_ns());
        assert_eq!(spans[1].duration_ns() as f64 / 1e9, inner_s);
    }

    #[test]
    fn chrome_trace_lists_every_span() {
        let spans = vec![
            span("a \"x\"", 0, 2_000, None),
            span("b", 500, 1_000, Some(0)),
        ];
        let json = chrome_trace(&spans);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("a \\\"x\\\""));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"self_us\":1.500"));
    }
}
