//! The harness's own spans: one tree per sampled frame (or in-process
//! wave), recorded from outside the program around each call into it.
//! Spans stay in memory while a phase runs and are written out when the
//! benchmark ends. (Spans *inside* the program are ROADMAP item 2.)

use std::io::{BufWriter, Write as _};
use std::path::Path;

/// The root span of every tree.
pub const REQUEST: &str = "request";
/// Children of a wire frame's request span, in time order.
pub const WIRE_CHILDREN: [&str; 5] = ["schedule_wait", "encode", "write", "await", "read_decode"];
/// Children of an in-process wave's request span.
pub const WAVE_CHILDREN: [&str; 2] = ["submit_run", "drain"];

/// Cap on spans held per driver thread.
pub const MAX_SPANS_PER_THREAD: usize = 60_000;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Shared by every span of one tree; a child's parent is the
    /// [`REQUEST`] span with the same id.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-thread span buffer sampling one tree in `every`.
#[derive(Debug)]
pub struct Tracer {
    children: &'static [&'static str],
    every: u64,
    seen: u64,
    /// Keeps request ids of different threads apart.
    lane: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer for driver thread `lane` expecting about `trees`
    /// request trees with the given children: samples one in `k`, `k`
    /// chosen so the buffer stays under [`MAX_SPANS_PER_THREAD`].
    pub fn new(lane: usize, trees: u64, children: &'static [&'static str]) -> Self {
        let budget = (MAX_SPANS_PER_THREAD / (children.len() + 1)) as u64;
        Self {
            children,
            every: trees.div_ceil(budget).max(1),
            seen: 0,
            lane: (lane as u64) << 48,
            spans: Vec::with_capacity(MAX_SPANS_PER_THREAD),
        }
    }

    /// The request id under which to record the next tree, if it is one
    /// of the sampled.
    pub fn sample(&mut self) -> Option<u64> {
        self.seen += 1;
        (self.seen.is_multiple_of(self.every)
            && self.spans.len() + self.children.len() < MAX_SPANS_PER_THREAD)
            .then_some(self.lane | self.seen)
    }

    /// Records one tree from the instants between its children —
    /// `edges[i]..edges[i + 1]` is child `i`, so the children tile the
    /// request span and the root's self time is zero by construction.
    /// Nanoseconds since the phase start; an edge that reads earlier
    /// than its predecessor is clamped to it.
    pub fn record(&mut self, request: u64, edges: &[u64]) {
        assert_eq!(edges.len(), self.children.len() + 1, "one edge more than children");
        let mut start = edges[0];
        let end = edges.iter().copied().max().unwrap_or(start);
        self.spans.push(Span { request, name: REQUEST, start_ns: start, end_ns: end });
        for (&name, &edge) in self.children.iter().zip(&edges[1..]) {
            let end = edge.max(start);
            self.spans.push(Span { request, name, start_ns: start, end_ns: end });
            start = end;
        }
    }
}

/// Median duration of the spans called `name`, microseconds (0 when
/// there are none) — a median, because one host stall lands in a single
/// `await` or `schedule_wait` span and would own a mean.
pub fn span_median_us(spans: &[Span], name: &str) -> f64 {
    let durations: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1_000.0)
        .collect();
    crate::stats::median(&durations).unwrap_or(0.0)
}

/// Writes `spans` as one JSON document, streaming (a traced run holds
/// up to 10⁵ spans; building the text in memory first would double it).
pub fn write_spans(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"workload\": \"{workload}\", \"clock\": \"ns since phase start\",")?;
    writeln!(out, " \"note\": \"a span's parent is the request span with the same request id\",")?;
    writeln!(out, " \"spans\": [")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.name == REQUEST { "null".to_owned() } else { s.request.to_string() };
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "  {{\"request\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \
             \"end_ns\": {}}}{comma}",
            s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    writeln!(out, " ]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_tile_the_request() {
        let mut tracer = Tracer::new(1, 10, &WIRE_CHILDREN);
        let id = tracer.sample().unwrap();
        tracer.record(id, &[100, 150, 160, 200, 900, 1_000]);
        assert_eq!(tracer.spans.len(), WIRE_CHILDREN.len() + 1);
        assert_eq!(span_median_us(&tracer.spans, REQUEST), 0.9);
        assert_eq!(span_median_us(&tracer.spans, "await"), 0.7);
        let children: f64 = WIRE_CHILDREN.iter().map(|n| span_median_us(&tracer.spans, n)).sum();
        assert!((children - 0.9).abs() < 1e-9);
        assert!(tracer.spans.iter().all(|s| s.request == (1 << 48) | 1));
    }

    #[test]
    fn an_edge_that_runs_backwards_is_clamped() {
        let mut tracer = Tracer::new(0, 1, &WAVE_CHILDREN);
        let id = tracer.sample().unwrap();
        tracer.record(id, &[100, 90, 300]);
        assert_eq!(span_median_us(&tracer.spans, "submit_run"), 0.0);
        assert_eq!(span_median_us(&tracer.spans, "drain"), 0.2);
    }

    #[test]
    fn sampling_keeps_the_buffer_under_its_cap() {
        let mut tracer = Tracer::new(0, 1_000_000, &WIRE_CHILDREN);
        let mut sampled = 0;
        for _ in 0..1_000_000 {
            if let Some(id) = tracer.sample() {
                tracer.record(id, &[0; 6]);
                sampled += 1;
            }
        }
        assert!(sampled > 9_000, "{sampled}");
        assert!(tracer.spans.len() <= MAX_SPANS_PER_THREAD);
    }
}
