//! Pins every paper-shape verdict of the reproduction: each test runs one
//! experiment, requires every check to be a MATCH, and requires the
//! experiment's rows of the checked-in `REPRODUCTION.md` to equal what the
//! run produced.

use vqllm_bench::repro;

fn pinned(id: &str) {
    let report = repro::figure(id).expect("known experiment").run();
    let checks = report.checks();
    assert!(!checks.is_empty(), "{id} makes no paper-shape checks");
    let deviations: Vec<&str> = checks
        .iter()
        .filter(|c| !c.ok)
        .map(|c| c.claim.as_str())
        .collect();
    assert!(
        deviations.is_empty(),
        "{id}: claims no longer reproduce: {deviations:?}\n{}",
        report.text()
    );

    let table = std::fs::read_to_string(repro::reproduction_path()).expect("read REPRODUCTION.md");
    let prefix = format!("| {id} |");
    let pinned: Vec<&str> = table.lines().filter(|l| l.starts_with(&prefix)).collect();
    let rows: Vec<String> = checks.iter().map(repro::Check::row).collect();
    assert_eq!(
        rows,
        pinned,
        "REPRODUCTION.md is stale for {id}; regenerate it with `{}`",
        repro::REGENERATE
    );
}

#[test]
fn fig02() {
    pinned("fig02");
}

#[test]
fn fig04() {
    pinned("fig04");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "quantizes a 384x1024 AQLM-3 slice: over 300 s unoptimised; CI runs it in release"
)]
fn fig08() {
    pinned("fig08");
}

#[test]
fn fig09() {
    pinned("fig09");
}

#[test]
fn fig13() {
    pinned("fig13");
}

#[test]
fn fig14() {
    pinned("fig14");
}

#[test]
fn fig15() {
    pinned("fig15");
}

#[test]
fn fig16() {
    pinned("fig16");
}

#[test]
fn fig17() {
    pinned("fig17");
}

#[test]
fn fig18() {
    pinned("fig18");
}

#[test]
fn ablation() {
    pinned("ablation");
}

/// Every experiment the table lists has a test above.
#[test]
fn every_checked_experiment_is_pinned() {
    let table = std::fs::read_to_string(repro::reproduction_path()).expect("read REPRODUCTION.md");
    let mut listed: Vec<&str> = table
        .lines()
        .filter_map(|l| l.strip_prefix("| ")?.split(" |").next())
        .filter(|id| *id != "figure")
        .collect();
    listed.dedup();
    assert_eq!(
        listed,
        [
            "fig02", "fig04", "fig08", "fig09", "fig13", "fig14", "fig15", "fig16", "fig17",
            "fig18", "ablation"
        ]
    );
}
