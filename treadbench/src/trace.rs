//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! program's public functions; nothing inside the program is
//! instrumented. Each span holds its name, start, end, parent span and
//! the operation (run, pipeline or job) it belongs to. Spans stay in
//! memory until [`Tracer::write_jsonl`] writes them out at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    op: u64,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Tags the spans recorded from now on with operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            op: self.op,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Self time of every span in milliseconds: its duration minus the
    /// part its child spans cover.
    fn self_ms(&self) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c) as f64 / 1e6)
            .collect()
    }

    /// Self time per operation of the spans named `name`, in ms: one
    /// entry per operation that recorded at least one such span.
    pub fn per_op_ms(&self, name: &str) -> Vec<f64> {
        let mut by_op: BTreeMap<u64, f64> = BTreeMap::new();
        for (span, ms) in self.spans.iter().zip(self.self_ms()) {
            if span.name == name {
                *by_op.entry(span.op).or_default() += ms;
            }
        }
        by_op.into_values().collect()
    }

    /// Total self time of the spans named `name`, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.per_op_ms(name).iter().sum()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::new();
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.op, span.start_ns, span.end_ns
            );
        }
        std::fs::write(path, text)
    }
}
