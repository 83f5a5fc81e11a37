//! `bench` — the benchmark of record's one command.
//!
//! ```text
//! bench --workload W --seed N --seconds S --trace 0|1 [--out DIR]   one run, in this process
//! bench --all   [--seed N] [--seconds S] [--runs K] [--out DIR]     every workload, untraced + traced,
//!                                                                   each in a fresh child process
//! bench --smoke [--out DIR]                                         --all at 2 s, no bounds applied
//! bench --compare A.jsonl B.jsonl                                   exit 1 on a regression
//! bench --capacity W [--seed N] [--seconds S]                       how r1..r3 were frozen
//! bench --print json|glossary                                       BENCHMARK.json / the README's
//!                                                                   metric table, from `spec`
//! ```
//!
//! A single run writes nothing unless `--out` names a directory; `--all`
//! and `--smoke` default `--out` to a fresh directory under the system
//! temp dir and append every run to `results.jsonl` there.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use vqllm_benchmark::{compare, report, run, spec};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    out: Option<PathBuf>,
    all: bool,
    smoke: bool,
    capacity: Option<String>,
    compare: Option<(String, String)>,
    print: Option<String>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec::DURATION_S,
        trace: false,
        runs: 1,
        out: None,
        all: false,
        smoke: false,
        capacity: None,
        compare: None,
        print: None,
    };
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next().cloned().ok_or(format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => a.workload = Some(value(&mut it, flag)?),
            "--seed" => {
                a.seed = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--runs" => {
                a.runs = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            "--out" => a.out = Some(PathBuf::from(value(&mut it, flag)?)),
            "--all" => a.all = true,
            "--smoke" => a.smoke = true,
            "--capacity" => a.capacity = Some(value(&mut it, flag)?),
            "--compare" => a.compare = Some((value(&mut it, flag)?, value(&mut it, flag)?)),
            "--print" => a.print = Some(value(&mut it, flag)?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn workload(name: &str) -> Result<&'static spec::Workload, String> {
    spec::workload(name).ok_or_else(|| {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; the record has {names:?}")
    })
}

fn append(dir: &Path, line: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("results.jsonl"))?;
    writeln!(f, "{line}")
}

fn one_run(a: &Args, name: &str) -> Result<ExitCode, String> {
    let w = workload(name)?;
    if let Some(dir) = &a.out {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let r = if a.trace {
        run::traced(w, a.seed, a.seconds, a.out.as_deref())
    } else {
        run::untraced(w, a.seed, a.seconds)
    };
    r.print_human();
    if let Some(dir) = &a.out {
        append(dir, &r.to_json()).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    // Last line of standard output: the contract's result object.
    println!("{}", r.contract_line());
    Ok(if r.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn all(a: &Args) -> Result<ExitCode, String> {
    let seconds = if a.smoke { spec::SMOKE_S } else { a.seconds };
    let out = a.out.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("vqllm-bench-{}", std::process::id()))
    });
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut ok = true;
    for i in 0..a.runs.max(1) {
        for w in &spec::WORKLOADS {
            for trace in ["0", "1"] {
                // A fresh process per run, so peak_rss_mb is the run's own.
                let status = Command::new(&exe)
                    .args(["--workload", w.name, "--trace", trace])
                    .args(["--seed", &(a.seed + i as u64).to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .arg("--out")
                    .arg(&out)
                    .status()
                    .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
                if !status.success() {
                    eprintln!("{} --trace {trace}: {status}", w.name);
                    ok = false;
                }
            }
        }
    }
    println!("results in {}", out.join("results.jsonl").display());
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_files(a: &str, b: &str) -> Result<ExitCode, String> {
    let load = |p: &str| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        report::parse_results(&text).map_err(|e| format!("{p}: {e}"))
    };
    let failed = compare::print(&compare::compare(&load(a)?, &load(b)?));
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse(&argv).and_then(|a| {
        if let Some((x, y)) = &a.compare {
            compare_files(x, y)
        } else if let Some(what) = &a.print {
            match what.as_str() {
                "json" => print!("{}", spec::benchmark_json()),
                "glossary" => print!("{}", spec::glossary()),
                other => return Err(format!("--print takes json or glossary, not {other}")),
            }
            Ok(ExitCode::SUCCESS)
        } else if let Some(name) = &a.capacity {
            let c = run::capacity(workload(name)?, a.seed, a.seconds);
            println!(
                "closed-loop capacity {c:.2} req/s -> r1..r3 = {:.0}, {:.0}, {:.0}",
                0.30 * c,
                0.45 * c,
                0.80 * c
            );
            Ok(ExitCode::SUCCESS)
        } else if a.all || a.smoke {
            all(&a)
        } else if let Some(name) = &a.workload {
            one_run(&a, name)
        } else {
            Err("nothing to do: give --workload, --all, --smoke, --compare or --capacity".into())
        }
    });
    result.unwrap_or_else(|e| {
        eprintln!("bench: {e}");
        ExitCode::from(2)
    })
}
