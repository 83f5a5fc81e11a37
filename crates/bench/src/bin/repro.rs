//! Reproduces the paper's tables and figures.
//!
//! `repro` runs every experiment and regenerates `REPRODUCTION.md`;
//! `repro fig17 tbl05` runs only the named ones. Each report is printed
//! and written to `results/<id>.txt`. Exits 1 if any paper-shape check is
//! a `[DEVIATION]`, 2 on an unknown experiment id.
//!
//! Usage: `cargo run --release -p vqllm-bench --bin repro [ID...]`

use vqllm_bench::repro::{self, Figure, FIGURES};

fn main() {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    let figures: Vec<&Figure> = if ids.is_empty() {
        FIGURES.iter().collect()
    } else {
        ids.iter()
            .map(|id| {
                repro::figure(id).unwrap_or_else(|| {
                    let known: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
                    eprintln!("unknown experiment {id:?}; known: {}", known.join(" "));
                    std::process::exit(2);
                })
            })
            .collect()
    };

    let reports: Vec<_> = figures
        .iter()
        .map(|f| {
            let report = f.run();
            report.finish();
            report
        })
        .collect();
    if ids.is_empty() {
        let path = repro::reproduction_path();
        std::fs::write(&path, repro::reproduction(&reports))
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("wrote {}", path.display());
    }

    let deviations: Vec<_> = reports
        .iter()
        .flat_map(|r| r.checks())
        .filter(|c| !c.ok)
        .collect();
    let total: usize = reports.iter().map(|r| r.checks().len()).sum();
    println!(
        "{} of {total} paper-shape checks match",
        total - deviations.len()
    );
    for c in &deviations {
        eprintln!("{}", c.row());
    }
    if !deviations.is_empty() {
        std::process::exit(1);
    }
}
