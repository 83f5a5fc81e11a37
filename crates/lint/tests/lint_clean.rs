//! Tripwire: the workspace must pass its own static analysis.
//!
//! This is the same check the `static-analysis` CI job runs via
//! `vqllm-lint --check`, wired into `cargo test` so an unjustified
//! `SeqCst`, a lock-order inversion, a stale lock class or a failpoint
//! site nothing fires fails the ordinary test suite too — with the full
//! findings list in the assertion message.

use std::path::PathBuf;

#[test]
fn workspace_is_lint_clean() {
    // crates/lint/ -> workspace root.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let findings = vqllm_lint::run_check(&root).expect("lint run");
    assert!(
        findings.is_empty(),
        "vqllm-lint found {} issue(s):\n{}",
        findings.len(),
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
