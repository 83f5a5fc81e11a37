//! Criterion: end-to-end pipeline evaluation throughput (one full Fig. 17
//! generation projection per iteration), through the `Session` facade.
//!
//! Two variants per scheme demonstrate the plan cache on the decode hot
//! path:
//!
//! * `cold`: a fresh `Pipeline` (fresh cache) every iteration — every
//!   decode-step op re-runs Alg. 2, once per (algo, op) key per iteration;
//! * `warm`: the session's shared cache — each op is planned exactly once
//!   across *all* iterations and served from the cache afterwards.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use vq_llm::{BackendKind, GpuSpec, Pipeline, QuantScheme, Session};

fn bench_e2e(c: &mut Criterion) {
    let session = Session::builder()
        .gpu(GpuSpec::rtx4090())
        .build()
        .expect("valid session");
    let mut g = c.benchmark_group("e2e");
    g.sample_size(10);
    for (name, scheme) in [
        ("fp16", QuantScheme::Fp16),
        ("qserve4", QuantScheme::QServe4),
        ("vqllm4", QuantScheme::vq_llm_4bit()),
        ("vqllm2", QuantScheme::vq_llm_2bit()),
    ] {
        g.bench_with_input(
            BenchmarkId::new("llama7b-gen256-cold", name),
            &scheme,
            |b, scheme| {
                b.iter(|| {
                    // Fresh pipeline, fresh cache: re-plans every key.
                    let p = Pipeline::new(GpuSpec::rtx4090(), session.model(), *scheme);
                    black_box(p.generate(1024, 256, 16))
                });
            },
        );
        g.bench_with_input(
            BenchmarkId::new("llama7b-gen256-warm", name),
            &scheme,
            |b, scheme| {
                let p = session.pipeline(*scheme);
                b.iter(|| black_box(p.generate(1024, 256, 16)));
            },
        );
    }
    g.finish();

    // The cache's core claim, asserted: after the warm runs above, another
    // full generation plans *nothing* — every decode-step op of every VQ
    // scheme was planned once per (algo, op) key, not once per layer or
    // per iteration.
    let before = session.cache_stats();
    session
        .pipeline(QuantScheme::vq_llm_4bit())
        .generate(1024, 256, 16);
    session
        .pipeline(QuantScheme::vq_llm_2bit())
        .generate(1024, 256, 16);
    let after = session.cache_stats();
    assert_eq!(
        after.misses, before.misses,
        "warm pipelines must not re-plan"
    );
    println!(
        "plan cache: {} unique (algo, op) keys planned once; {} total lookups, \
         {:.1}% hit rate",
        session.plan_cache().len(),
        after.hits + after.misses,
        after.hit_rate() * 100.0
    );
}

/// The same workload through both shipped backends. The modelled E2E
/// projection is backend-independent by design (both plan/estimate with
/// the device model — asserted below); what *differs* is functional
/// execution, so that is what gets benched: `Session::run_gemv` walks the
/// modelled codebook cache on the perf-model backend vs the fused value
/// pass (`gemm_fused` on one row) on `CpuBackend`.
fn bench_e2e_backends(c: &mut Criterion) {
    use vq_llm::tensor::synth;
    use vq_llm::ComputeOp;

    let mut g = c.benchmark_group("e2e-backends");
    g.sample_size(10);
    let w = synth::correlated_channels(1024, 256, 4, 0.9, 3);
    let op = ComputeOp::Gemv {
        n: 256,
        k: 1024,
        batch: 1,
    };
    let x: Vec<f32> = (0..1024).map(|i| (i as f32 * 0.13).sin()).collect();
    let mut reports = Vec::new();
    for (name, kind) in [
        ("perf-model", BackendKind::PerfModel),
        ("cpu", BackendKind::Cpu { threads: 0 }),
    ] {
        let session = Session::builder()
            .gpu(GpuSpec::rtx4090())
            .weight_algo(vq_llm::VqAlgorithm::Gptvq2)
            .backend_kind(kind)
            .build()
            .expect("valid session");
        assert_eq!(session.backend().name(), name);
        let wq = session.quantize_weights(&w, 7).expect("quantize");
        let plan = session.weight_plan(&op).expect("plan");
        g.bench_with_input(
            BenchmarkId::new("run-gemv-1024x256", name),
            &session,
            |b, s| {
                b.iter(|| black_box(s.run_gemv(&plan, &x, &wq).expect("run_gemv")));
            },
        );
        reports.push(
            session
                .pipeline(QuantScheme::vq_llm_4bit())
                .generate(1024, 256, 16),
        );
    }
    g.finish();
    assert_eq!(
        reports[0], reports[1],
        "modelled E2E projections must be backend-independent"
    );
}

criterion_group!(benches, bench_e2e, bench_e2e_backends);
criterion_main!(benches);
