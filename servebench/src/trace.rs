//! In-memory spans recorded around the benchmark's own calls into each
//! layer's public function, written out when the run ends.
//!
//! Every traced request gets a root `request` span; each layer call made
//! for that request is a child of it. Children run one after another, so a
//! span's self time is its duration minus the sum of its children's.

use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The enclosing span's id; 0 for a root.
    pub parent: u64,
    /// The request this span belongs to (unique within the run).
    pub req: u64,
    /// The layer call, e.g. `service.provision`.
    pub name: &'static str,
    /// Nanoseconds since the run's origin.
    pub start_ns: u64,
    /// Nanoseconds since the run's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// One client thread's span log. Ids carry the thread in their high bits
/// so logs merge without renumbering.
pub struct Tracer {
    origin: Instant,
    base: u64,
    next: u64,
    /// Spans in the order they were opened.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A log for client thread `thread`, timed from `origin`.
    pub fn new(origin: Instant, thread: u64) -> Tracer {
        Tracer {
            origin,
            base: (thread + 1) << 40,
            next: 0,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span that ran from `start` to `end`; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        self.next += 1;
        let id = self.base + self.next;
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    /// Opens a span starting at `start` whose end is set by [`Tracer::close`];
    /// returns its id and its index in [`Tracer::spans`].
    pub fn open(&mut self, name: &'static str, req: u64, start: Instant) -> (u64, usize) {
        let at = self.spans.len();
        (self.record(name, req, 0, start, start), at)
    }

    /// Ends the span opened at index `at`.
    pub fn close(&mut self, at: usize) {
        self.spans[at].end_ns = self.ns(Instant::now());
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, req, parent, start, Instant::now());
        out
    }
}

/// Duration of the first span named `name` in `spans`, in microseconds.
pub fn find(spans: &[Span], name: &str) -> Option<f64> {
    spans.iter().find(|s| s.name == name).map(Span::us)
}

/// Per span name: (count, median duration µs, median self time µs).
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, usize, f64, f64)> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns.saturating_sub(s.start_ns);
    }
    let mut by_name: HashMap<&'static str, (Vec<f64>, Vec<f64>)> = HashMap::new();
    for s in spans {
        let own = s.end_ns.saturating_sub(s.start_ns);
        let slf = own.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let entry = by_name.entry(s.name).or_default();
        entry.0.push(own as f64 / 1e3);
        entry.1.push(slf as f64 / 1e3);
    }
    let mut out: Vec<_> = by_name
        .into_iter()
        .map(|(name, (dur, slf))| {
            (
                name,
                dur.len(),
                crate::stats::median(&dur),
                crate::stats::median(&slf),
            )
        })
        .collect();
    out.sort_by_key(|row| row.0);
    out
}

/// Writes `header` then one NDJSON line per span to `path`.
pub fn write(path: &std::path::Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{header}")?;
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
            s.id,
            s.parent,
            s.req,
            s.name,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let span = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            req: 1,
            name: if parent == 0 { "request" } else { "child" },
            start_ns,
            end_ns,
        };
        let spans = [
            span(1, 0, 0, 10_000),
            span(2, 1, 1_000, 4_000),
            span(3, 1, 5_000, 9_000),
        ];
        let rows = self_times(&spans);
        let root = rows.iter().find(|r| r.0 == "request").unwrap();
        assert_eq!((root.1, root.2, root.3), (1, 10.0, 3.0));
        let child = rows.iter().find(|r| r.0 == "child").unwrap();
        assert_eq!(child.1, 2);
        assert_eq!(find(&spans, "child"), Some(3.0));
    }
}
