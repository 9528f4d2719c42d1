//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span holds its layer name, an optional detail (corpus row, verify
//! unit, op kind), start and end, its parent span, and the id of the
//! operation it belongs to (shared by every span of one operation). Spans
//! stay in memory until the run ends; [`Tracer::write`] then writes them
//! out as JSON lines. A layer's self time is its spans' durations minus
//! the parts their child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub detail: String,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder. A disabled tracer runs the wrapped calls
/// and records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The instant span times count from (shared by every tracer of a run).
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` of operation `op`; spans opened
    /// inside `f` become its children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        detail: &str,
        op: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            detail: detail.to_owned(),
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another tracer's spans (a client thread's), re-basing their
    /// parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span, in nanoseconds.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Total self time per layer name, in milliseconds.
    pub fn layer_self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Checks that no operation's span self times add up to more than the
    /// operation's wall time (the duration of its root spans), and that
    /// every child lies inside its parent.
    pub fn check(&self) -> Result<(), String> {
        let mut wall: BTreeMap<u64, u64> = BTreeMap::new();
        let mut own: BTreeMap<u64, u64> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns || s.op != parent.op {
                    return Err(format!(
                        "span {}({}) escapes its parent {}({})",
                        s.name, s.detail, parent.name, parent.detail
                    ));
                }
            } else {
                *wall.entry(s.op).or_insert(0) += s.dur_ns();
            }
            *own.entry(s.op).or_insert(0) += self_ns;
        }
        for (op, self_total) in own {
            let w = wall.get(&op).copied().unwrap_or(0);
            if self_total > w {
                return Err(format!(
                    "operation {op}: span self times {self_total} ns exceed its wall time {w} ns"
                ));
            }
        }
        Ok(())
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"detail\":\"{}\",\"op\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                crate::report::escape(&s.detail),
                s.op,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_checks_hold() {
        let mut t = Tracer::new(true, Instant::now());
        t.span("outer", "", 1, |t| {
            t.span("inner", "a", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("inner", "b", 1, |_| ());
        });
        t.span("other", "", 2, |_| ());
        let own = t.self_ns();
        assert_eq!(t.spans().len(), 4);
        assert_eq!(
            own[0],
            t.spans()[0].dur_ns() - t.spans()[1].dur_ns() - t.spans()[2].dur_ns()
        );
        assert!(t.layer_self_ms()["inner"] >= 2.0);
        t.check().unwrap();
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.span("x", "", 0, |_| 5), 5);
        assert!(t.spans().is_empty());
    }
}
