//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around its calls
//! into each layer, kept in memory, and written out once at the end as
//! tab-separated lines: `id  parent  name  key  start_ns  end_ns`, with
//! times relative to the recorder's epoch and `parent` 0 for a root.
//! `key` ties spans to one request (the request id on the `serve_*`
//! workloads, the batch index on `sweep_cold`).

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub key: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span recorder; every method is a no-op when disabled, so the untraced
/// run records nothing.
#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(enabled: bool) -> Trace {
        Trace {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span and returns its id (0 when disabled).
    pub fn span(
        &mut self,
        name: &'static str,
        parent: u32,
        key: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent,
            name,
            key,
            start_ns,
            end_ns,
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span to `path`, creating its directory.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.spans.len() * 48 + 64);
        out.push_str("id\tparent\tname\tkey\tstart_ns\tend_ns\n");
        for s in &self.spans {
            // Writing to a String cannot fail.
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.name, s.key, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let mut t = Trace::new(false);
        let now = Instant::now();
        assert_eq!(t.span("x", 0, 0, now, now), 0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_records_parents_and_relative_times() {
        let mut t = Trace::new(true);
        let a = t.epoch + std::time::Duration::from_micros(5);
        let b = a + std::time::Duration::from_micros(7);
        let root = t.span("pass", 0, 0, a, b);
        let child = t.span("batch", root, 3, a, b);
        assert_eq!((root, child), (1, 2));
        let s = t.spans()[1];
        assert_eq!(
            (s.parent, s.key, s.start_ns, s.end_ns),
            (1, 3, 5_000, 12_000)
        );
    }
}
