//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out once when the benchmark ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval: a call (or a pass of calls) into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Operations the span covered (targets, entries, tasks, ...).
    pub ops: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Single-threaded span recorder. Spans nest: a span opened while another is
/// open becomes its child.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` covering `ops` operations.
    pub fn span<T>(&mut self, name: &'static str, ops: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            ops,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Nanoseconds per operation of every span named `name`, one value per
    /// span, in recording order.
    pub fn ns_per_op(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.ops > 0)
            .map(|s| s.duration_ns() as f64 / s.ops as f64)
            .collect()
    }

    /// Self time per span name: each span's duration minus the time its
    /// direct children cover (children of one tracer never overlap).
    pub fn self_time_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += s.duration_ns().saturating_sub(covered);
        }
        out
    }

    /// Writes the spans as JSON Lines, one object per span, after `header`.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"ops\": {}}}",
                s.name, s.start_ns, s.end_ns, s.ops
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.span("outer", 0, |t| {
            t.span("inner", 4, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("inner", 4, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        let own = t.self_time_ns();
        let outer = spans[0].duration_ns();
        assert_eq!(own["outer"] + own["inner"], outer);
        assert_eq!(t.ns_per_op("inner").len(), 2);
        assert!(t.ns_per_op("inner").iter().all(|&ns| ns >= 400_000.0));
    }
}
