//! Bench-side spans: name, start, end and parent, kept in memory and written
//! as one JSON file when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    parent: usize,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Records spans while enabled; every call is a no-op otherwise. Span ids
/// are 1-based indices; 0 means "no span" (the root, or tracing off).
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under `parent`; returns its id.
    pub fn begin(&mut self, name: &'static str, parent: usize) -> usize {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len()
    }

    pub fn end(&mut self, id: usize) {
        if id > 0 {
            let now = self.now_ns();
            self.spans[id - 1].end_ns = now;
        }
    }

    /// Runs `f` inside a span and returns its result with the wall time in
    /// seconds (measured whether or not tracing is on).
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.begin(name, parent);
        let started = Instant::now();
        let out = f();
        let secs = started.elapsed().as_secs_f64();
        self.end(id);
        (out, secs)
    }

    /// The trace as JSON: spans as `[id, parent, name, start_ns, end_ns]`
    /// rows, then the caller's sections verbatim.
    pub fn to_json(&self, header: &str, sections: &[(&str, String)]) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  {header},");
        for (name, body) in sections {
            let _ = writeln!(out, "  \"{name}\": {body},");
        }
        out.push_str("  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "\n    " } else { ",\n    " };
            let _ = write!(
                out,
                "{sep}[{}, {}, \"{}\", {}, {}]",
                i + 1,
                s.parent,
                s.name,
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}
