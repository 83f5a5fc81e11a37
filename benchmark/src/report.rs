//! What a run prints and what `--all` writes: every metric by name with
//! its unit, a header saying what the numbers depend on, and — last line
//! of standard output — the one JSON object the benchmark's contract
//! names.

use crate::spec::{self, Metric};
use crate::stats::Figure;
use vq_llm::net::json::{self, Json};

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// Metric name (one of [`spec::END_TO_END`] / [`spec::PER_LAYER`]).
    pub name: &'static str,
    /// The value.
    pub value: f64,
    /// Samples behind it, where it summarises samples.
    pub n: Option<usize>,
}

/// Collects a run's values by name.
#[derive(Debug, Default)]
pub struct Values(Vec<Value>);

impl Values {
    /// Records a plain value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push(Value {
            name,
            value,
            n: None,
        });
    }

    /// Records a summarised value with its sample count.
    pub fn fig(&mut self, name: &'static str, f: Figure) {
        self.0.push(Value {
            name,
            value: f.value,
            n: Some(f.n),
        });
    }

    /// One value per metric of `metrics`, in that order; a metric the run
    /// did not record (a layer off the workload's path) reads 0.
    pub fn in_order(&self, metrics: &[Metric]) -> Vec<Value> {
        metrics
            .iter()
            .map(|m| {
                self.0
                    .iter()
                    .rev()
                    .find(|v| v.name == m.name)
                    .cloned()
                    .unwrap_or(Value {
                        name: m.name,
                        value: 0.0,
                        n: None,
                    })
            })
            .collect()
    }
}

/// What every result depends on besides the code.
#[derive(Debug, Clone, PartialEq)]
pub struct Header {
    /// Workload name.
    pub workload: &'static str,
    /// Traffic seed.
    pub seed: u64,
    /// Measured seconds asked for.
    pub seconds: f64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Kernel threads of the engine.
    pub cpu_threads: usize,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Where the program and the load generator were pinned.
    pub placement: String,
    /// `host_exec::simd::tier()`.
    pub simd: &'static str,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
}

impl Header {
    /// The header of a run of `w`.
    pub fn new(
        w: &spec::Workload,
        seed: u64,
        seconds: f64,
        traced: bool,
        placement: crate::speed::Placement,
    ) -> Header {
        let commit = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        Header {
            workload: w.name,
            seed,
            seconds,
            traced,
            cpu_threads: spec::CPU_THREADS,
            nproc: spec::nproc(),
            placement: placement.describe(),
            simd: vq_llm::kernels::host_exec::simd::tier(),
            commit,
        }
    }
}

/// One finished run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// What the numbers depend on.
    pub header: Header,
    /// Whether every checked output was right.
    pub correct: bool,
    /// Requests sent in the measured window.
    pub attempted: usize,
    /// Of those, failed for any reason (rejected, errored, cut off, timed
    /// out, miscounted, out of order, mismatched).
    pub failed: usize,
    /// The run's metrics, in the order of the record.
    pub values: Vec<Value>,
    /// What else a reader should see: percentile ladders, what the check
    /// covered, what the replay found.
    pub notes: Vec<String>,
}

fn unit_of(name: &str) -> &'static str {
    spec::END_TO_END
        .iter()
        .chain(spec::PER_LAYER)
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

impl RunReport {
    /// Every metric by name, value, unit and sample count, for a reader.
    pub fn print_human(&self) {
        let h = &self.header;
        println!(
            "# {} seed={} seconds={} traced={} cpu_threads={} nproc={} placement={} simd={} commit={}",
            h.workload,
            h.seed,
            h.seconds,
            h.traced,
            h.cpu_threads,
            h.nproc,
            h.placement,
            h.simd,
            h.commit
        );
        for v in &self.values {
            let n = v.n.map_or(String::new(), |n| format!("  (n={n})"));
            println!("{:<34} {:>16.6} {}{}", v.name, v.value, unit_of(v.name), n);
        }
        for note in &self.notes {
            println!("  {note}");
        }
        println!(
            "{:<34} {:>16} of {} attempted (fail_share {:.6}), outputs {}",
            "failed",
            self.failed,
            self.attempted,
            self.failed as f64 / self.attempted.max(1) as f64,
            if self.correct { "correct" } else { "INCORRECT" }
        );
    }

    fn metrics_json(&self) -> String {
        let mut s = String::from("{");
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            json::push_escaped(v.name, &mut s);
            s.push_str(":{\"value\":");
            json::push_f64(v.value, &mut s);
            s.push_str(",\"unit\":");
            json::push_escaped(unit_of(v.name), &mut s);
            s.push('}');
        }
        s.push('}');
        s
    }

    /// The contract's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn contract_line(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            self.metrics_json()
        )
    }

    /// The run with its header, as `--all` stores it.
    pub fn to_json(&self) -> String {
        let h = &self.header;
        let mut s = String::from("{\"workload\":");
        json::push_escaped(h.workload, &mut s);
        s.push_str(&format!(
            ",\"seed\":{},\"seconds\":{},\"traced\":{},\"cpu_threads\":{},\"nproc\":{},\"placement\":",
            h.seed, h.seconds, h.traced, h.cpu_threads, h.nproc
        ));
        json::push_escaped(&h.placement, &mut s);
        s.push_str(",\"simd\":");
        json::push_escaped(h.simd, &mut s);
        s.push_str(",\"commit\":");
        json::push_escaped(&h.commit, &mut s);
        s.push_str(&format!(
            ",\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics_json()
        ));
        s
    }
}

/// One stored run, as `--compare` reads it back.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredRun {
    /// Workload name.
    pub workload: String,
    /// Whether it was the traced run.
    pub traced: bool,
    /// Requests sent in the measured window.
    pub attempted: f64,
    /// Of those, failed.
    pub failed: f64,
    /// `(name, value)` of every metric.
    pub metrics: Vec<(String, f64)>,
}

/// Parses a results file: one [`RunReport::to_json`] object per line.
pub fn parse_results(text: &str) -> Result<Vec<StoredRun>, String> {
    let mut runs = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let field = |k: &str| v.get(k).ok_or(format!("line {}: no \"{k}\"", i + 1));
        let Json::Obj(metrics) = field("metrics")? else {
            return Err(format!("line {}: \"metrics\" is not an object", i + 1));
        };
        runs.push(StoredRun {
            workload: field("workload")?.as_str().unwrap_or("").to_string(),
            traced: field("traced")?.as_bool().unwrap_or(false),
            attempted: field("attempted")?.as_f64().unwrap_or(0.0),
            failed: field("failed")?.as_f64().unwrap_or(0.0),
            metrics: metrics
                .iter()
                .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
                .collect(),
        });
    }
    Ok(runs)
}

/// `VmHWM` of this process in MB (0 where `/proc` does not say).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RunReport {
        let mut vals = Values::default();
        vals.set("setup_s", 0.25);
        vals.fig("ttft_p50_ms", Figure { value: 1.5, n: 40 });
        RunReport {
            header: Header {
                workload: "offline_long",
                seed: 7,
                seconds: 2.0,
                traced: false,
                cpu_threads: 1,
                nproc: 2,
                placement: "program@cpu0,load@cpu1".into(),
                simd: "avx2",
                commit: "abc".into(),
            },
            correct: true,
            attempted: 0,
            failed: 0,
            values: vals.in_order(&spec::END_TO_END[..3]),
            notes: Vec::new(),
        }
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let v = json::parse(&report().contract_line()).expect("json");
        let Json::Obj(fields) = &v else {
            panic!("object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            v.get("attempted").and_then(Json::as_u64),
            Some(1),
            "at least 1"
        );
        let m = v.get("metrics").expect("metrics");
        assert_eq!(
            m.get("setup_s")
                .and_then(|s| s.get("unit"))
                .and_then(Json::as_str),
            Some("s")
        );
        // Not recorded → present, 0.
        assert_eq!(
            m.get("decode_tok_per_s")
                .and_then(|s| s.get("value"))
                .and_then(Json::as_f64),
            Some(0.0)
        );
    }

    #[test]
    fn stored_runs_round_trip() {
        let text = format!("{}\n\n{}\n", report().to_json(), report().to_json());
        let runs = parse_results(&text).expect("parses");
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].workload, "offline_long");
        assert!(!runs[0].traced);
        assert!(runs[0].metrics.contains(&("ttft_p50_ms".to_string(), 1.5)));
        assert!(parse_results("{\"workload\":1}").is_err());
    }

    #[test]
    fn peak_rss_reads_something_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
