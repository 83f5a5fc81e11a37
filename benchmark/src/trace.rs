//! The benchmark's clock and its in-memory span log.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer's public functions; nothing inside the program under
//! test is instrumented. They stay in memory for the run and are written
//! out (one JSON object per line) only when `--out` names a directory.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Nanoseconds since the run's epoch, monotonic.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    /// A clock whose epoch is now.
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// One span: a named interval, the span that caused it, and the request
/// it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Boundary the span was recorded at (`round`, `submit`, `step`, …).
    pub name: &'static str,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// 1-based position of the causing span in the log; 0 for a root.
    pub parent: u32,
    /// 1-based index of the request in the generated list; 0 when the
    /// span serves a whole batch.
    pub req: u32,
}

/// The span log of one traced phase.
#[derive(Debug, Default)]
pub struct Trace {
    /// Spans in the order they ended.
    pub spans: Vec<Span>,
}

impl Trace {
    /// Records a span and returns its 1-based position (a later span's
    /// `parent`).
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        req: u32,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
        self.spans.len() as u32
    }

    /// Moves another log's spans to the end of this one, re-basing their
    /// parent links.
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != 0 {
                s.parent += base;
            }
            s
        }));
    }

    /// Time covered by the children of each span named `name`, summed,
    /// and those spans' own total: `(own_ns, covered_ns)`. A layer's self
    /// time is `own − covered`.
    pub fn coverage(&self, name: &str) -> (u64, u64) {
        let mut covered = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            covered[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
        }
        let mut own = 0;
        let mut cov = 0;
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == name {
                own += s.end_ns.saturating_sub(s.start_ns);
                cov += covered[i + 1];
            }
        }
        (own, cov)
    }

    /// Writes the log as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                f,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.parent, s.req
            )?;
        }
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_own_minus_children() {
        let mut t = Trace::default();
        let round = t.push("round", 0, 100, 0, 0);
        t.push("step", 10, 40, round, 0);
        t.push("step", 50, 90, round, 0);
        assert_eq!(t.coverage("round"), (100, 70));
        assert_eq!(t.coverage("step"), (70, 0));
        let mut outer = Trace::default();
        outer.push("phase", 0, 200, 0, 0);
        outer.absorb(t);
        assert_eq!(outer.spans[2].parent, 2, "re-based onto the moved round");
        assert_eq!(outer.coverage("round"), (100, 70));
    }
}
