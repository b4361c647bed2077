//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each crate
//! (set-up steps, engine runs, per-layer kernels), kept in memory, and
//! written as JSON lines when the run ends. Every call is timed whether
//! or not recording is on; recording only decides whether the span is
//! kept.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::record::escape;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing recorded span.
    pub parent: Option<usize>,
}

pub struct Spans {
    workload: String,
    recording: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Indices of the recorded spans currently open.
    open: Vec<usize>,
}

impl Spans {
    pub fn new(workload: &str, recording: bool) -> Spans {
        Spans {
            workload: workload.to_string(),
            recording,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Run `f` inside a span named `name`; returns its result and wall
    /// time in seconds.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let recorded = self.recording.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: 0,
                end_ns: 0,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        if let Some(i) = recorded {
            self.open.pop();
            let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
            self.spans[i].start_ns = ns(start);
            self.spans[i].end_ns = ns(end);
        }
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Write `<dir>/spans-<workload>.jsonl`, one span per line.
    pub fn write_jsonl(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("spans-{}.jsonl", self.workload));
        let mut out = BufWriter::new(File::create(&path)?);
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(out, "{}", self.span_json(id, s))?;
        }
        out.flush()?;
        Ok(path)
    }

    fn span_json(&self, id: usize, s: &Span) -> String {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        format!(
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"workload\":\"{}\"}}",
            escape(&s.name),
            s.start_ns,
            s.end_ns,
            escape(&self.workload)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_order() {
        let mut spans = Spans::new("w", true);
        let (v, secs) = spans.scope("outer", |s| s.scope("inner", |_| 7).0);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        let recorded = spans.spans();
        assert_eq!(recorded.len(), 2);
        assert_eq!(
            (recorded[0].name.as_str(), recorded[0].parent),
            ("outer", None)
        );
        assert_eq!(
            (recorded[1].name.as_str(), recorded[1].parent),
            ("inner", Some(0))
        );
        assert!(recorded[0].start_ns <= recorded[1].start_ns);
        assert!(recorded[1].end_ns <= recorded[0].end_ns);
    }

    #[test]
    fn paused_recording_still_times() {
        let mut spans = Spans::new("w", false);
        let ((), secs) = spans.scope("quiet", |_| std::thread::yield_now());
        assert!(secs >= 0.0);
        assert!(spans.spans().is_empty());
    }

    #[test]
    fn span_lines_are_json_objects() {
        let mut spans = Spans::new("sharded-storm", true);
        spans.scope("run \"x\"", |_| ());
        let line = spans.span_json(0, &spans.spans()[0]);
        assert!(line.starts_with("{\"id\":0,\"name\":\"run \\\"x\\\"\",\"start_ns\":"));
        assert!(line.ends_with(",\"parent\":null,\"workload\":\"sharded-storm\"}"));
    }
}
