//! `vqllm-lint` CLI.
//!
//! ```text
//! vqllm-lint [--root PATH] [--check]
//! ```
//!
//! `--check` (the default, and the only mode) prints one finding per line
//! as `file:line rule message` and exits 1 when there are any. Exit
//! codes: 0 clean, 1 findings, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => {}
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("--root requires a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: vqllm-lint [--root PATH] [--check]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(2);
            }
        }
    }
    if !root.join("Cargo.toml").exists() {
        eprintln!("no Cargo.toml under --root {}", root.display());
        return ExitCode::from(2);
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
