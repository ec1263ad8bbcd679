//! The benchmark's own span recorder. Spans live in memory while the
//! traced run executes and are written out as JSON lines at the end.
//! Every span is recorded around a call into one of the program's public
//! functions; nothing inside the program is instrumented.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `serve.protocol.encode`.
    pub name: &'static str,
    /// The frame, grid point or search this span belongs to; spans of
    /// one request share it.
    pub id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's length in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over a recorder's spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their lengths, ns.
    pub total_ns: u64,
    /// Sum of their self times (length minus children), ns.
    pub self_ns: u64,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    /// `t` in nanoseconds since the recorder was created.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span and returns its index (for children's `parent`).
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<u32>,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Sets the end of a span recorded before its end was known.
    pub fn close(&mut self, span: u32, end_ns: u64) {
        self.spans[span as usize].end_ns = end_ns;
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(name, id, parent, start, end);
        out
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name. Self time is a span's
    /// length minus the lengths of its direct children.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p as usize] += span.duration_ns();
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let t = totals.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += span.duration_ns();
            t.self_ns += span.duration_ns().saturating_sub(children);
        }
        totals
    }

    /// Writes up to `limit` spans as JSON lines, after a header line.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_jsonl(&self, path: &Path, header: &str, limit: usize) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (i, s) in self.spans.iter().take(limit).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"i\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new();
        let frame = t.record("frame", 7, None, 100, 200);
        t.record("encode", 7, Some(frame), 100, 130);
        t.record("decode", 7, Some(frame), 180, 200);
        let totals = t.totals();
        assert_eq!(totals["frame"].total_ns, 100);
        assert_eq!(totals["frame"].self_ns, 50);
        assert_eq!(totals["encode"].self_ns, 30);
        assert_eq!(totals["decode"].count, 1);
    }
}
