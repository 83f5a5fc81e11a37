//! The paper's evaluation (Tbls. II, III, V; Figs. 2, 4, 8–10, 13–18) and
//! the sensitivity studies, one function per experiment.
//!
//! Each function fills a [`Report`] and does no I/O: the text it builds is
//! what `repro` prints and writes to `results/<id>.txt`, and every
//! paper-shape claim it tests goes through [`Report::check`]. A full `repro`
//! run renders the checks into `REPRODUCTION.md` ([`reproduction`]), and
//! `tests/repro.rs` fails when a verdict flips or that file is stale.

use std::path::PathBuf;

use crate::Report;

mod ablation;
mod e2e;
mod kernels;
mod profiles;
mod tables;

/// One paper-shape claim and whether this reproduction meets it.
#[derive(Debug)]
pub struct Check {
    /// The experiment that made the check (`"fig14"`).
    pub figure: &'static str,
    /// The claim, as the report states it.
    pub claim: String,
    /// Whether the reproduction meets it.
    pub ok: bool,
}

impl Check {
    /// `MATCH` or `DEVIATION`.
    pub fn verdict(&self) -> &'static str {
        if self.ok {
            "MATCH"
        } else {
            "DEVIATION"
        }
    }

    /// This check's row of the `REPRODUCTION.md` table.
    pub fn row(&self) -> String {
        let claim = self.claim.replace('|', "\\|");
        format!("| {} | {claim} | {} |", self.figure, self.verdict())
    }
}

/// One table or figure of the evaluation.
#[derive(Debug)]
pub struct Figure {
    /// The experiment id (`"tbl05"`, `"fig17"`, `"ablation"`).
    pub id: &'static str,
    title: &'static str,
    body: fn(&mut Report),
}

impl Figure {
    /// Runs the experiment.
    pub fn run(&self) -> Report {
        let mut r = Report::new(self.id, self.title);
        (self.body)(&mut r);
        r
    }
}

/// Generates [`FIGURES`] from one `id => body, "title";` row per experiment.
macro_rules! figures {
    ($($id:ident => $body:path, $title:literal;)*) => {
        /// Every experiment, in the order a full run reports them.
        pub const FIGURES: &[Figure] = &[
            $(Figure { id: stringify!($id), title: $title, body: $body },)*
        ];
    };
}

figures! {
    tbl02 => tables::tbl02, "VQ algorithm configurations (paper Tbl. II)";
    tbl03 => tables::tbl03, "Reduce and codebook-switch axes (paper Tbl. III)";
    tbl05 => tables::tbl05, "Factors that influence the optimizations (paper Tbl. V)";
    fig02 => profiles::fig02,
        "VQ vs element-wise quantization on correlated 2-D data (paper Fig. 2, lower)";
    fig04 => kernels::fig04, "VQ-attn-GC/SC vs FP16-attn (paper Fig. 4)";
    fig08 => profiles::fig08, "Codebook access frequency, AQLM-3 VQ<8,12,2> (paper Fig. 8)";
    fig09 => profiles::fig09, "Entry hotness across tensor parts (paper Fig. 9)";
    fig10 => profiles::fig10, "Occupancy vs resources and slack (paper Fig. 10)";
    fig13 => kernels::fig13, "Overall latency reduction vs unoptimized GC (paper Fig. 13)";
    fig14 => kernels::fig14, "Optimization breakdown, GeMM & GeMV (paper Fig. 14)";
    fig15 => kernels::fig15, "Attention breakdown CQ-2 + CQ-4 relative (paper Fig. 15)";
    fig16 => kernels::fig16, "Comparison with element-wise quantization (paper Fig. 16)";
    fig17 => e2e::fig17, "End-to-end speedup and accuracy proxy (paper Fig. 17)";
    fig18 => kernels::fig18, "Attention baselines vs VQ-LLM CQ-4 (paper Fig. 18)";
    ablation => ablation::ablation, "Sensitivity studies for each adaptive heuristic";
}

/// The experiment called `id`.
pub fn figure(id: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.id == id)
}

/// The command that regenerates `REPRODUCTION.md`.
pub const REGENERATE: &str = "cargo run --release -p vqllm-bench --bin repro";

/// `REPRODUCTION.md` at the workspace root.
pub fn reproduction_path() -> PathBuf {
    crate::workspace_root().join("REPRODUCTION.md")
}

/// The text of `REPRODUCTION.md` for a full run's reports.
pub fn reproduction(reports: &[Report]) -> String {
    let checks: Vec<&Check> = reports.iter().flat_map(Report::checks).collect();
    let matched = checks.iter().filter(|c| c.ok).count();
    let mut s = format!(
        "<!-- Generated by `{REGENERATE}`; do not edit by hand. -->\n\n\
         # Reproduction verdicts\n\n\
         Each row is one paper-shape claim a table or figure of the evaluation \
         checks; `results/<figure>.txt` holds the numbers behind it. \
         {matched} of {} claims reproduce.\n\n\
         | figure | claim | verdict |\n|---|---|---|\n",
        checks.len()
    );
    for c in checks {
        s.push_str(&c.row());
        s.push('\n');
    }
    s
}
