//! `bench --compare A B`: two result files, one row per (workload,
//! end-to-end metric), each metric's direction and bound applied.
//!
//! The rule is the guide's: B regresses when its median is worse than A's
//! by more than the metric's bound. When A's own run-to-run spread is
//! wider than the bound the pair is **unresolved**, not unchanged — unless
//! every B run reads better than every A run. Failures are compared as
//! they are counted: any rise in the failed share fails the comparison.

use crate::report::StoredRun;
use crate::spec::{self, Metric};
use crate::stats::{self, Quartiles};

/// What a row concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and A's spread is tight enough to say so.
    Unchanged,
    /// Every B run reads better than every A run.
    Improved,
    /// B's median is worse by more than the bound.
    Regressed,
    /// A's spread exceeds the bound; the runs cannot tell.
    Unresolved,
    /// One side has no runs of this workload.
    Missing,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }
}

/// One (workload, metric) comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: &'static str,
    /// Metric name, or `fail_share`.
    pub metric: &'static str,
    /// A's runs.
    pub a: Quartiles,
    /// B's runs.
    pub b: Quartiles,
    /// How much worse B's median is, as a share of A's (negative =
    /// better).
    pub worse_by: f64,
    /// The conclusion.
    pub verdict: Verdict,
}

fn values(runs: &[StoredRun], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && !r.traced)
        .filter_map(|r| r.metrics.iter().find(|(n, _)| n == metric).map(|&(_, v)| v))
        .collect()
}

/// Judges one metric from both sides' run values.
pub fn judge(m: &Metric, a: &[f64], b: &[f64]) -> (f64, Verdict) {
    if a.is_empty() || b.is_empty() {
        return (0.0, Verdict::Missing);
    }
    let (qa, qb) = (stats::quartiles(a), stats::quartiles(b));
    let lower = m.better == "lower";
    let diff = if lower { qb.q2 - qa.q2 } else { qa.q2 - qb.q2 };
    let worse_by = if qa.q2 == 0.0 {
        0.0
    } else {
        diff / qa.q2.abs()
    };
    let all_better = a
        .iter()
        .all(|&x| b.iter().all(|&y| if lower { y < x } else { y > x }));
    let verdict = if worse_by > m.bound {
        Verdict::Regressed
    } else if all_better {
        Verdict::Improved
    } else if qa.spread() > m.bound {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    };
    (worse_by, verdict)
}

fn fail_share(runs: &[StoredRun], workload: &str) -> Option<f64> {
    let of: Vec<&StoredRun> = runs
        .iter()
        .filter(|r| r.workload == workload && !r.traced)
        .collect();
    let attempted: f64 = of.iter().map(|r| r.attempted).sum();
    (!of.is_empty()).then(|| of.iter().map(|r| r.failed).sum::<f64>() / attempted.max(1.0))
}

/// Every row of the comparison, in the order of the record.
pub fn compare(a: &[StoredRun], b: &[StoredRun]) -> Vec<Row> {
    let mut rows = Vec::new();
    for w in &spec::WORKLOADS {
        for m in spec::END_TO_END {
            let (va, vb) = (values(a, w.name, m.name), values(b, w.name, m.name));
            let (worse_by, verdict) = judge(m, &va, &vb);
            rows.push(Row {
                workload: w.name,
                metric: m.name,
                a: stats::quartiles(&va),
                b: stats::quartiles(&vb),
                worse_by,
                verdict,
            });
        }
        let (fa, fb) = (fail_share(a, w.name), fail_share(b, w.name));
        let verdict = match (fa, fb) {
            (Some(x), Some(y)) if y > x => Verdict::Regressed,
            (Some(_), Some(_)) => Verdict::Unchanged,
            _ => Verdict::Missing,
        };
        let one = |v: Option<f64>| stats::quartiles(&[v.unwrap_or(0.0)]);
        rows.push(Row {
            workload: w.name,
            metric: "fail_share",
            a: one(fa),
            b: one(fb),
            worse_by: fb.unwrap_or(0.0) - fa.unwrap_or(0.0),
            verdict,
        });
    }
    rows
}

/// Prints the rows; returns whether the comparison fails (a regression,
/// or a higher failed share).
pub fn print(rows: &[Row]) -> bool {
    println!(
        "{:<18} {:<18} {:>12} {:>25} {:>3} {:>12} {:>25} {:>3} {:>8}  verdict",
        "workload", "metric", "A median", "A [q1, q3]", "n", "B median", "B [q1, q3]", "n", "worse"
    );
    for r in rows {
        println!(
            "{:<18} {:<18} {:>12.4} {:>25} {:>3} {:>12.4} {:>25} {:>3} {:>7.2}%  {}",
            r.workload,
            r.metric,
            r.a.q2,
            format!("[{:.4}, {:.4}]", r.a.q1, r.a.q3),
            r.a.n,
            r.b.q2,
            format!("[{:.4}, {:.4}]", r.b.q1, r.b.q3),
            r.b.n,
            r.worse_by * 100.0,
            r.verdict.word()
        );
    }
    rows.iter().any(|r| r.verdict == Verdict::Regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Metric = Metric {
        name: "x_ms",
        unit: "ms",
        better: "lower",
        bound: 0.10,
        how: "",
    };
    const HIGHER: Metric = Metric {
        name: "x_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.10,
        how: "",
    };

    #[test]
    fn direction_and_bound_are_applied() {
        let a = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(
            judge(&LOWER, &a, &[10.5, 10.4, 10.6, 10.5]).1,
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&LOWER, &a, &[11.5, 11.4, 11.6, 11.5]).1,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&LOWER, &a, &[9.0, 9.1, 8.9, 9.0]).1,
            Verdict::Improved
        );
        // The same numbers, higher-is-better: the verdicts swap.
        assert_eq!(
            judge(&HIGHER, &a, &[11.5, 11.4, 11.6, 11.5]).1,
            Verdict::Improved
        );
        assert_eq!(
            judge(&HIGHER, &a, &[8.5, 8.4, 8.6, 8.5]).1,
            Verdict::Regressed
        );
        let (worse, _) = judge(&HIGHER, &a, &[9.0, 9.0, 9.0, 9.0]);
        assert!((worse - 0.1).abs() < 1e-9);
    }

    #[test]
    fn a_wide_a_side_is_unresolved_not_unchanged() {
        let a = [8.0, 12.0, 9.0, 11.0, 10.0];
        assert!(stats::quartiles(&a).spread() > 0.10);
        assert_eq!(
            judge(&LOWER, &a, &[10.2, 10.1, 10.3]).1,
            Verdict::Unresolved
        );
        // …unless every B run beats every A run.
        assert_eq!(judge(&LOWER, &a, &[7.0, 7.5, 7.9]).1, Verdict::Improved);
        // A regression past the bound is still a regression.
        assert_eq!(judge(&LOWER, &a, &[12.0, 12.1, 12.2]).1, Verdict::Regressed);
        assert_eq!(judge(&LOWER, &[], &[1.0]).1, Verdict::Missing);
    }

    fn run(workload: &str, failed: f64, tok: f64) -> StoredRun {
        StoredRun {
            workload: workload.into(),
            traced: false,
            attempted: 100.0,
            failed,
            metrics: vec![("decode_tok_per_s".into(), tok)],
        }
    }

    #[test]
    fn a_higher_failed_share_fails_the_comparison() {
        let a = vec![
            run("offline_long", 0.0, 100.0),
            run("offline_long", 0.0, 101.0),
        ];
        let same = compare(&a, &a);
        assert!(!print(&same));
        let row = |rows: &[Row], metric: &str| {
            rows.iter()
                .find(|r| r.workload == "offline_long" && r.metric == metric)
                .cloned()
                .expect("row")
        };
        assert_eq!(row(&same, "decode_tok_per_s").verdict, Verdict::Unchanged);
        assert_eq!(row(&same, "ttft_p50_ms").verdict, Verdict::Missing);
        let b = vec![
            run("offline_long", 1.0, 100.0),
            run("offline_long", 0.0, 101.0),
        ];
        let worse = compare(&a, &b);
        assert_eq!(row(&worse, "fail_share").verdict, Verdict::Regressed);
        assert!(print(&worse));
        // Traced runs never enter the comparison.
        let mut t = run("offline_long", 50.0, 1.0);
        t.traced = true;
        let with_traced: Vec<StoredRun> = a.iter().cloned().chain([t]).collect();
        assert!(!print(&compare(&a, &with_traced)));
    }
}
