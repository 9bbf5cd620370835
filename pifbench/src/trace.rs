//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span holds its name, start, end, parent span and round id. Spans
//! stay in memory while the run measures and are written out as JSON
//! lines when it ends. A span's self time is its duration minus the
//! time its child spans cover (children never overlap: the benchmark is
//! single-threaded around its calls).

use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    round: u64,
}

/// An in-memory span recorder. A disabled tracer records nothing, so the
/// same loop code serves the untraced and the traced runs.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, round: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            round,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
        }
    }

    /// Number and total duration (seconds) of the spans named `name`.
    pub fn total(&self, name: &str) -> (usize, f64) {
        let mut count = 0;
        let mut ns = 0;
        for s in self.spans.iter().filter(|s| s.name == name) {
            count += 1;
            ns += s.end_ns - s.start_ns;
        }
        (count, ns as f64 * 1e-9)
    }

    /// Total self time (seconds) of the spans named `name`.
    pub fn self_time(&self, name: &str) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let ns: u64 = self
            .spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(*c))
            .sum();
        ns as f64 * 1e-9
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"round\":{}}}",
                s.name, s.start_ns, s.end_ns, s.round
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let round = t.begin("round", 0);
        let child = t.begin("run", 0);
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.end(child);
        t.end(round);
        let (n, total) = t.total("round");
        assert_eq!(n, 1);
        assert!(t.self_time("round") < total);
        assert!((t.self_time("round") + t.total("run").1 - total).abs() < 1e-9);
        let mut off = Tracer::new(false);
        let id = off.begin("round", 0);
        off.end(id);
        assert_eq!(off.total("round").0, 0);
    }
}
