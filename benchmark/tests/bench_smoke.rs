//! `bench --smoke`: every workload for two seconds, untraced and traced,
//! and the result checked against `BENCHMARK.json` — every end-to-end and
//! per-layer name is printed with a finite value and the unit the record
//! gives it, names are well formed, and the counts stay inside the
//! contract's limits.

use std::path::PathBuf;
use std::process::Command;
use vq_llm::net::json::{self, Json};
use vqllm_benchmark::spec;

/// `BENCHMARK.json`, found from where the test runs (the package root),
/// never from a compile-time path.
fn benchmark_json() -> Json {
    let path = std::env::current_dir()
        .expect("cwd")
        .join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(v: &'a Json, key: &str) -> &'a [Json] {
    match v.get(key) {
        Some(Json::Arr(items)) => items,
        other => panic!("BENCHMARK.json: \"{key}\" is {other:?}"),
    }
}

fn str_of<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no \"{key}\" in {v:?}"))
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

#[test]
fn benchmark_json_names_what_the_crate_measures() {
    let b = benchmark_json();
    let Json::Obj(fields) = &b else {
        panic!("not an object")
    };
    let mut keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    assert_eq!(
        b.get("run_seconds").and_then(Json::as_f64),
        Some(spec::DURATION_S)
    );

    let workloads = entries(&b, "workloads");
    assert!((2..=8).contains(&workloads.len()));
    let names: Vec<&str> = workloads.iter().map(|w| str_of(w, "name")).collect();
    assert_eq!(
        names,
        spec::WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
    );
    for (j, w) in workloads.iter().zip(&spec::WORKLOADS) {
        assert_eq!(str_of(j, "why"), w.why);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'));
    }

    for (key, metrics, limit) in [
        ("end_to_end", spec::END_TO_END, 16),
        ("per_layer", spec::PER_LAYER, 128),
    ] {
        let listed = entries(&b, key);
        assert!(
            !listed.is_empty() && listed.len() <= limit,
            "{key}: {}",
            listed.len()
        );
        assert_eq!(listed.len(), metrics.len(), "{key}");
        for (j, m) in listed.iter().zip(metrics) {
            assert!(well_formed(m.name), "{}", m.name);
            assert_eq!(str_of(j, "name"), m.name);
            assert_eq!(str_of(j, "unit"), m.unit, "{}", m.name);
            assert_eq!(str_of(j, "better"), m.better, "{}", m.name);
            if key == "end_to_end" {
                assert_eq!(
                    j.get("bound").and_then(Json::as_f64),
                    Some(m.bound),
                    "{}",
                    m.name
                );
            } else {
                assert!(j.get("bound").is_none(), "{}", m.name);
            }
        }
    }
    let setup = spec::END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
}

#[test]
fn smoke_prints_every_metric_of_the_record() {
    let out = std::env::temp_dir().join(format!("vqllm-bench-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let run = Command::new(env!("CARGO_BIN_EXE_bench"))
        .arg("--smoke")
        .arg("--out")
        .arg(&out)
        .output()
        .expect("bench runs");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "bench --smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );

    // One contract line per (workload, trace) in the order --all runs them.
    let results: Vec<Json> = stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\""))
        .map(|l| json::parse(l).expect("result line parses"))
        .collect();
    assert_eq!(results.len(), 2 * spec::WORKLOADS.len());
    for (i, r) in results.iter().enumerate() {
        let w = spec::WORKLOADS[i / 2].name;
        let expected = if i % 2 == 0 {
            spec::END_TO_END
        } else {
            spec::PER_LAYER
        };
        assert_eq!(r.get("correct").and_then(Json::as_bool), Some(true), "{w}");
        assert!(
            r.get("attempted")
                .and_then(Json::as_u64)
                .is_some_and(|n| n >= 1),
            "{w}"
        );
        assert_eq!(r.get("failed").and_then(Json::as_u64), Some(0), "{w}");
        let Some(Json::Obj(metrics)) = r.get("metrics") else {
            panic!("{w}: no metrics object")
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            names,
            expected.iter().map(|m| m.name).collect::<Vec<_>>(),
            "{w}"
        );
        for ((name, v), m) in metrics.iter().zip(expected) {
            let value = v.get("value").and_then(Json::as_f64);
            assert!(value.is_some_and(f64::is_finite), "{w} {name}: {v:?}");
            assert_eq!(
                v.get("unit").and_then(Json::as_str),
                Some(m.unit),
                "{w} {name}"
            );
            if i % 2 == 0 {
                assert!(value.is_some_and(|x| x > 0.0), "{w} {name} must never be 0");
            }
        }
    }

    // Everything the run wrote is under --out.
    let written: Vec<PathBuf> = std::fs::read_dir(&out)
        .expect("--out exists")
        .map(|e| e.expect("entry").path())
        .collect();
    assert!(written.iter().any(|p| p.ends_with("results.jsonl")));
    assert_eq!(
        written
            .iter()
            .filter(|p| p.to_string_lossy().ends_with(".spans.jsonl"))
            .count(),
        spec::WORKLOADS.len()
    );
    let _ = std::fs::remove_dir_all(&out);
}
