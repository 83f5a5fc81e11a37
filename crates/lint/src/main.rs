//! `vqllm-lint` CLI.
//!
//! ```text
//! vqllm-lint [--root PATH] [--check] [--fix-docs]
//! ```
//!
//! `--check` (the default) prints one finding per line as
//! `file:line rule message` and exits 1 when any survive the waiver
//! file. `--fix-docs` regenerates the README failpoint-site table from
//! the `sites!` table in `crates/core/src/failpoint.rs`. Exit codes: 0
//! clean, 1 findings, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut fix_docs = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => {}
            "--fix-docs" => fix_docs = true,
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("--root requires a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: vqllm-lint [--root PATH] [--check] [--fix-docs]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(2);
            }
        }
    }
    // Run from anywhere inside the workspace: walk up to the root
    // (identified by the waiver file next to the workspace manifest).
    if !root.join("Cargo.toml").exists() {
        eprintln!("no Cargo.toml under --root {}", root.display());
        return ExitCode::from(2);
    }

    if fix_docs {
        return match vqllm_lint::fix_docs(&root) {
            Ok(true) => {
                eprintln!("README.md failpoint table regenerated");
                ExitCode::SUCCESS
            }
            Ok(false) => {
                eprintln!("README.md failpoint table already current");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("--fix-docs failed: {e}");
                ExitCode::from(2)
            }
        };
    }

    match vqllm_lint::run_check(&root) {
        Ok(findings) if findings.is_empty() => {
            eprintln!("vqllm-lint: clean");
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for f in &findings {
                println!("{f}");
            }
            eprintln!("vqllm-lint: {} finding(s)", findings.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("vqllm-lint: {e}");
            ExitCode::from(2)
        }
    }
}
