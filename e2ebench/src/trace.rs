//! In-memory spans for the traced run: name, start, end, parent and job
//! index, kept until the run ends and then written out as JSON lines.

use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its tracer's log.
pub type SpanId = usize;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Index of the job plan the span belongs to, if any.
    pub job: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span log, shared by the client threads of one traced run.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn push(&self, span: Span) -> SpanId {
        let mut spans = self.spans.lock().expect("span log lock");
        spans.push(span);
        spans.len() - 1
    }

    /// Opens a span that [`end`](Self::end) closes.
    pub fn begin(&self, name: &'static str, parent: Option<SpanId>, job: Option<usize>) -> SpanId {
        let start_ns = self.offset_ns(Instant::now());
        self.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            job,
        })
    }

    pub fn end(&self, id: SpanId) {
        let end_ns = self.offset_ns(Instant::now());
        self.spans.lock().expect("span log lock")[id].end_ns = end_ns;
    }

    /// Records a span whose bounds were already taken.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        job: Option<usize>,
    ) -> SpanId {
        self.push(Span {
            name,
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end),
            parent,
            job,
        })
    }

    /// Runs `f` inside one span.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        job: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, job);
        let result = f();
        self.end(id);
        result
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log lock").clone()
    }
}

/// Count, total time and self time of every span with one name.
pub struct LayerRow {
    pub name: &'static str,
    pub count: usize,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Aggregates spans by name, in order of first appearance.  A span's self
/// time is its duration minus the part of it that its child spans cover.
pub fn layer_table(spans: &[Span]) -> Vec<LayerRow> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    let mut rows: Vec<LayerRow> = Vec::new();
    for (span, kids) in spans.iter().zip(children.iter_mut()) {
        let covered = covered_ns(kids, span.start_ns, span.end_ns);
        let self_ns = span.duration_ns().saturating_sub(covered);
        match rows.iter_mut().find(|row| row.name == span.name) {
            Some(row) => {
                row.count += 1;
                row.total_ns += span.duration_ns();
                row.self_ns += self_ns;
            }
            None => rows.push(LayerRow {
                name: span.name,
                count: 1,
                total_ns: span.duration_ns(),
                self_ns,
            }),
        }
    }
    rows
}

/// Length of the union of `intervals` clipped to `[start, end]`.
fn covered_ns(intervals: &mut [(u64, u64)], start: u64, end: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(from, to) in intervals.iter() {
        let (from, to) = (from.max(reach), to.min(end));
        if to > from {
            covered += to - from;
            reach = to;
        }
    }
    covered
}

/// Mean duration in microseconds of the spans called `name`; NaN if none.
pub fn mean_us(spans: &[Span], name: &str) -> f64 {
    let durations: Vec<f64> = spans
        .iter()
        .filter(|span| span.name == name)
        .map(|span| span.duration_ns() as f64 / 1e3)
        .collect();
    crate::stats::mean(&durations)
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(fs::File::create(path)?);
    let opt = |value: Option<usize>| value.map_or_else(|| "null".to_string(), |v| v.to_string());
    for (id, span) in spans.iter().enumerate() {
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"job\":{}}}",
            span.name,
            span.start_ns,
            span.end_ns,
            opt(span.parent),
            opt(span.job)
        )?;
    }
    out.flush()
}
