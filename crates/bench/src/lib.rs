//! Benchmark harness for the VQ-LLM reproduction.
//!
//! - [`repro`] holds the paper's evaluation: one function per table or
//!   figure, each filling a [`Report`] with its text and its paper-shape
//!   [`Check`]s. `cargo run --release -p vqllm-bench --bin repro` runs them
//!   all, tees each report into `results/<id>.txt` and regenerates
//!   `REPRODUCTION.md`; `tests/repro.rs` pins every verdict.
//! - The gate bins (`host_speedup`, `serve_bench`, `net_load`, `chaos`)
//!   measure the host stack, record a [`Gates`] ledger and merge their
//!   figures into `BENCH_*.json` with [`merge_bench_json`].
//! - `benches/` holds the Criterion benches.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use vq_llm::net::json::{self, Json};

pub mod repro;

pub use repro::Check;

/// A report: its text and the paper-shape checks it made.
#[derive(Debug)]
pub struct Report {
    id: &'static str,
    body: String,
    checks: Vec<Check>,
}

impl Report {
    /// Starts a report for experiment `id` (e.g. `"fig13"`).
    pub fn new(id: &'static str, title: &str) -> Self {
        let rule = "================================================================";
        Report {
            id,
            body: format!("{rule}\n{id}: {title}\n{rule}\n"),
            checks: Vec::new(),
        }
    }

    /// Appends a line.
    pub fn line(&mut self, s: impl AsRef<str>) {
        let _ = writeln!(self.body, "{}", s.as_ref());
    }

    /// Appends a blank line.
    pub fn blank(&mut self) {
        let _ = writeln!(self.body);
    }

    /// Appends a section header.
    pub fn section(&mut self, s: &str) {
        let _ = writeln!(self.body, "\n--- {s} ---");
    }

    /// Records whether the paper's `claim` reproduces, as a `[MATCH]` or
    /// `[DEVIATION]` line and a [`Check`].
    pub fn check(&mut self, claim: impl Into<String>, ok: bool) {
        let check = Check {
            figure: self.id,
            claim: claim.into(),
            ok,
        };
        self.line(format!("[{}] {}", check.verdict(), check.claim));
        self.checks.push(check);
    }

    /// The report text.
    pub fn text(&self) -> &str {
        &self.body
    }

    /// The checks, in report order.
    pub fn checks(&self) -> &[Check] {
        &self.checks
    }

    /// Prints to stdout and writes `results/<id>.txt`.
    pub fn finish(&self) {
        println!("{}", self.body);
        let dir = workspace_root().join("results");
        let _ = fs::create_dir_all(&dir);
        let _ = fs::write(dir.join(format!("{}.txt", self.id)), &self.body);
    }
}

/// The workspace root (`crates/bench` is two levels below it).
pub fn workspace_root() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p
}

/// The pass/fail ledger of a gate bin. Each gate prints `OK:` or `FAIL:`
/// as it is recorded; [`Gates::finish`] turns failures into exit code 1
/// under `--smoke`.
#[derive(Debug, Default)]
pub struct Gates {
    failures: usize,
}

impl Gates {
    /// A gate that holds when `ok`.
    pub fn require(&mut self, what: &str, ok: bool) {
        if ok {
            println!("OK: {what}");
        } else {
            eprintln!("FAIL: {what}");
            self.failures += 1;
        }
    }

    /// A gate that holds when `value >= min`.
    pub fn min(&mut self, what: &str, value: f64, min: f64) {
        let ok = value >= min;
        let rel = if ok { ">=" } else { "<" };
        self.require(&format!("{what} {value:.2} ({rel} {min:.2} required)"), ok);
    }

    /// A gate that holds when `value <= max`.
    pub fn max(&mut self, what: &str, value: f64, max: f64) {
        let ok = value <= max;
        let rel = if ok { "<=" } else { ">" };
        self.require(&format!("{what} {value:.2} ({rel} {max:.2} allowed)"), ok);
    }

    /// Reports the ledger; a failed gate exits the process with code 1
    /// under `--smoke` and only warns otherwise.
    pub fn finish(self, smoke: bool) {
        match self.failures {
            0 => println!("OK: all gates passed"),
            n if smoke => {
                eprintln!("{n} gate(s) failed");
                std::process::exit(1);
            }
            n => eprintln!("WARN: {n} gate(s) failed (not fatal without --smoke)"),
        }
    }
}

/// Waits up to 120 s for the driver behind `client` to go idle and returns
/// its inflight-token gauge then (`u64::MAX` if it never idles or died).
pub fn idle_inflight(client: &vq_llm::Client) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(120);
    while Instant::now() < deadline {
        match client.stats() {
            Some(s) if s.front_queued == 0 && s.engine_queued == 0 && s.running == 0 => {
                return s.inflight_tokens;
            }
            Some(_) => std::thread::sleep(Duration::from_millis(5)),
            None => break,
        }
    }
    u64::MAX
}

/// A JSON number rounded to four significant digits.
pub fn num(x: f64) -> Json {
    Json::Num(format!("{x:.3e}").parse().unwrap_or(x))
}

/// Upserts `fields` into the JSON object in `<workspace root>/<file>` and
/// rewrites it one key per line, so the gate bins that share a file each
/// keep the others' keys. Returns the written text.
pub fn merge_bench_json(file: &str, fields: Vec<(&str, Json)>) -> String {
    let path = workspace_root().join(file);
    let mut merged = match fs::read_to_string(&path).map(|s| json::parse(&s)) {
        Ok(Ok(Json::Obj(existing))) => existing,
        _ => Vec::new(),
    };
    for (key, value) in fields {
        match merged.iter_mut().find(|(k, _)| k == key) {
            Some(slot) => slot.1 = value,
            None => merged.push((key.to_string(), value)),
        }
    }
    let lines: Vec<String> = merged
        .iter()
        .map(|(k, v)| {
            let mut line = String::from("  ");
            json::push_escaped(k, &mut line);
            line.push_str(": ");
            json::write(v, &mut line);
            line
        })
        .collect();
    let text = format!("{{\n{}\n}}\n", lines.join(",\n"));
    fs::write(&path, &text).unwrap_or_else(|e| panic!("write {file}: {e}"));
    text
}

/// Formats a latency with a sensible unit.
pub fn fmt_us(us: f64) -> String {
    if us >= 10_000.0 {
        format!("{:8.2} ms", us / 1000.0)
    } else {
        format!("{us:8.1} us")
    }
}

/// Formats a byte count.
pub fn fmt_bytes(b: f64) -> String {
    if b >= 1e9 {
        format!("{:7.2} GB", b / 1e9)
    } else if b >= 1e6 {
        format!("{:7.2} MB", b / 1e6)
    } else if b >= 1e3 {
        format!("{:7.2} KB", b / 1e3)
    } else {
        format!("{b:7.0} B ")
    }
}

/// Simple fixed-width ASCII bar for histogram-style figures.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let n = if max > 0.0 {
        ((value / max) * width as f64).round() as usize
    } else {
        0
    };
    "#".repeat(n.min(width))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_scales_and_clamps() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(20.0, 10.0, 10), "##########");
        assert_eq!(bar(0.0, 10.0, 10), "");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }

    #[test]
    fn fmt_helpers_pick_units() {
        assert!(fmt_us(500.0).contains("us"));
        assert!(fmt_us(50_000.0).contains("ms"));
        assert!(fmt_bytes(2.5e6).contains("MB"));
        assert!(fmt_bytes(100.0).contains("B"));
    }
}
