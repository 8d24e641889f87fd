//! Benchmark-side spans, kept in memory and written as Chrome trace
//! JSON when the run ends.
//!
//! Spans are recorded only around the benchmark's own calls into the
//! program (an `apply`, a retrain, a layer probe) — nothing inside the
//! program changes. Each span carries its name, start, end, parent and
//! an id; the spans of one resolve (the `apply` and the probes run on its
//! task set) share the resolve's id, and the spans of one retrain share
//! the retrain's id.

use std::fmt::Write as _;
use std::time::Instant;

/// One finished or open span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    id: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: Option<u64>,
}

/// In-memory span recorder for the benchmark thread. A disabled tracer
/// records nothing, so untraced runs pay one branch per call site.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle to an open span; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested under the innermost open span.
    pub fn begin(&mut self, name: &'static str, id: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: None,
        });
        self.open.push(index);
        SpanId(Some(index))
    }

    /// Closes `span` (and any span still open inside it).
    pub fn end(&mut self, span: SpanId) {
        let Some(index) = span.0 else {
            return;
        };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = Some(now);
            if top == index {
                break;
            }
        }
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The recorded spans as Chrome `trace_event` JSON: one complete
    /// (`"ph":"X"`) event per closed span, with the span id and the
    /// parent's index in `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for (index, span) in self.spans.iter().enumerate() {
            let Some(end) = span.end_ns else {
                continue;
            };
            if !first {
                out.push(',');
            }
            first = false;
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"span\":{},\"parent\":{}}}}}",
                mfcp_obs::json::escape(span.name),
                span.start_ns as f64 / 1e3,
                (end - span.start_ns) as f64 / 1e3,
                span.id,
                index,
                parent
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_export_with_parent_and_id() {
        let mut t = Tracer::new(true);
        let outer = t.begin("resolve", 7);
        let inner = t.begin("probe", 7);
        t.end(inner);
        t.end(outer);
        let json = mfcp_obs::json::parse(&t.to_chrome_json()).expect("valid JSON");
        let events = json.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 2);
        let probe = &events[1];
        assert_eq!(probe.get("name").and_then(|n| n.as_str()), Some("probe"));
        let args = probe.get("args").unwrap();
        assert_eq!(args.get("id").and_then(|v| v.as_f64()), Some(7.0));
        assert_eq!(args.get("parent").and_then(|v| v.as_f64()), Some(0.0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("x", 1);
        t.end(s);
        assert_eq!(t.len(), 0);
    }
}
