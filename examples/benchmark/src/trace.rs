//! Spans recorded from outside the runtime: name, start, end and the
//! span that caused it, kept in memory while the traced pass runs and
//! written out when the benchmark ends.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = u32;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
}

/// An in-memory span log. Switched off it reads no clock and stores
/// nothing, so the same code runs as the untraced pass.
pub struct Tracer {
    pub on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer with room for `capacity` spans, so the log does not
    /// reallocate inside a timed pass.
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            on: true,
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that stays open until [`Tracer::close`]: for spans
    /// that have children.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        Some(self.spans.len() as SpanId - 1)
    }

    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Runs `body` inside a leaf span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        body: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = body();
        self.close(id);
        out
    }

    /// Self time per span name, in ns: a span's duration minus the
    /// part its children cover. Names appear in first-seen order.
    pub fn self_time_ns(&self) -> Vec<(&'static str, u64)> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        let mut by_name: Vec<(&'static str, u64)> = Vec::new();
        for (s, ns) in self.spans.iter().zip(own) {
            match by_name.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, total)) => *total += ns,
                None => by_name.push((s.name, ns)),
            }
        }
        by_name
    }

    /// Writes every span as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"workload\": \"{workload}\", \"unit\": \"ns\", \"spans\": ["
        )?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if id + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {parent}}}{comma}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}
