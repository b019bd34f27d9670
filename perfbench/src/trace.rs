//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call it
//! makes into a layer, on one thread. Each span keeps its name, start,
//! end, parent and the run id; [`Tracer::write_jsonl`] writes them out
//! when the run ends. A layer's self time is its duration minus the part
//! covered by its child spans.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open, `end_ns == 0`) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Summed duration of the direct children.
    child_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn self_ns(&self) -> u64 {
        self.duration_ns().saturating_sub(self.child_ns)
    }
}

/// The recorder: a flat span list plus the stack of open spans.
pub struct Tracer {
    run_id: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(run_id: String) -> Self {
        Tracer { run_id, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: 0, parent, child_ns: 0 });
        self.open.push(id);
        let out = f(self);
        let end_ns = self.now_ns();
        self.open.pop();
        self.spans[id].end_ns = end_ns;
        if let Some(p) = parent {
            self.spans[p].child_ns += end_ns - start_ns;
        }
        out
    }

    /// Record an already-measured interval as a leaf span under the
    /// innermost open span (used where the timed call runs on another
    /// thread, such as a loopback round trip).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let parent = self.open.last().copied();
        let offset = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos())
                .expect("run shorter than 584 years")
        };
        let (start_ns, end_ns) = (offset(start), offset(end));
        self.spans.push(Span { name, start_ns, end_ns, parent, child_ns: 0 });
        if let Some(p) = parent {
            self.spans[p].child_ns += end_ns - start_ns;
        }
    }

    /// Every closed span with this name.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name && s.end_ns != 0)
    }

    /// Summed self time of every span with this name, in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.named(name).map(|s| s.self_ns() as f64).sum::<f64>() / 1e6
    }

    /// Self times of every span with this name, in nanoseconds.
    pub fn self_ns_each(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.self_ns() as f64).collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\":\"{}\",\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                self.run_id,
                span.name,
                span.start_ns,
                span.end_ns,
                span.self_ns()
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new("test".into());
        t.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(std::time::Duration::from_millis(5)));
        });
        let outer = t.named("outer").next().unwrap();
        let inner = t.named("inner").next().unwrap();
        assert_eq!(inner.parent, Some(0));
        assert!(inner.duration_ns() >= 5_000_000);
        assert_eq!(outer.self_ns(), outer.duration_ns() - inner.duration_ns());
    }
}
