//! In-memory spans for the per-layer run.
//!
//! A span is a name, a start and end (ns since the tracer was made), the
//! span that contains it, and the op it belongs to. Spans are kept in
//! memory and written out once, when the run ends; past its capacity the
//! tracer still times (so every op feeds the per-layer metrics) but
//! stops storing.

use std::fmt::Write as _;
use std::time::Instant;

/// An open span.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    index: Option<usize>,
    start: Instant,
}

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    capacity: usize,
    unstored: u64,
}

impl Tracer {
    /// A tracer that stores at most `capacity` spans.
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            capacity,
            unstored: 0,
        }
    }

    /// Opens span `name` of op `op` inside `parent`.
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<&Open>) -> Open {
        let start = Instant::now();
        let index = if self.spans.len() < self.capacity {
            self.spans.push(Span {
                name,
                start_ns: nanos(start - self.epoch),
                end_ns: 0,
                parent: parent.and_then(|p| p.index),
                op,
            });
            Some(self.spans.len() - 1)
        } else {
            self.unstored += 1;
            None
        };
        Open { index, start }
    }

    /// Closes `span` and returns its duration in nanoseconds.
    pub fn close(&mut self, span: Open) -> u64 {
        let end = Instant::now();
        if let Some(i) = span.index {
            self.spans[i].end_ns = nanos(end - self.epoch);
        }
        nanos(end - span.start)
    }

    /// The stored spans as JSON: `{"workload", "seed", "unstored",
    /// "spans": [{"name", "start_ns", "end_ns", "parent", "op"}]}`, where
    /// `parent` indexes `spans`.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!(
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unstored\":{},\"spans\":[",
            self.unstored
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns,
                s.end_ns,
                s.op
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialize() {
        let mut t = Tracer::new(2);
        let root = t.open("op", 0, None);
        let child = t.open("child", 0, Some(&root));
        let ns = t.close(child);
        let unstored = t.open("unstored", 0, Some(&root));
        t.close(unstored);
        let total = t.close(root);
        assert!(total >= ns);
        let json = t.to_json("w", 3);
        assert!(json.starts_with("{\"workload\":\"w\",\"seed\":3,\"unstored\":1,"));
        assert!(json.contains("\"name\":\"child\""));
        assert!(json.contains("\"parent\":0"));
        assert!(!json.contains("\"name\":\"unstored\""));
    }
}
