//! Integration: the `Session` facade — builder validation, plan-cache
//! hit/miss semantics, parity with the raw low-level APIs, and cache
//! sharing across the pipelines a session creates.

use std::sync::Arc;
use vq_llm::core::{KernelPlanner, ProfileSummary};
use vq_llm::{
    ComputeOp, GpuSpec, OptLevel, PlanCache, QuantScheme, Session, VqAlgorithm, VqLlmError,
};

fn session() -> Session {
    Session::builder()
        .gpu(GpuSpec::rtx4090())
        .weight_algo(VqAlgorithm::QuipSharp4)
        .kv_algo(VqAlgorithm::Cq4)
        .opt(OptLevel::O4)
        .build()
        .expect("default configuration is valid")
}

#[test]
fn builder_rejects_swapped_algorithms() {
    let err = Session::builder()
        .weight_algo(VqAlgorithm::Cq4)
        .build()
        .unwrap_err();
    match err {
        VqLlmError::InvalidSession { what, detail } => {
            assert_eq!(what, "weight_algo");
            assert!(detail.contains("CQ-4"), "{detail}");
        }
        other => panic!("wrong error: {other}"),
    }

    let err = Session::builder()
        .kv_algo(VqAlgorithm::Aqlm3)
        .build()
        .unwrap_err();
    assert!(
        matches!(
            err,
            VqLlmError::InvalidSession {
                what: "kv_algo",
                ..
            }
        ),
        "{err}"
    );
}

#[test]
fn builder_rejects_degenerate_gpu() {
    let mut gpu = GpuSpec::rtx4090();
    gpu.num_sms = 0;
    let err = Session::builder().gpu(gpu).build().unwrap_err();
    assert!(
        matches!(err, VqLlmError::InvalidSession { what: "gpu", .. }),
        "{err}"
    );
}

#[test]
fn every_paper_algorithm_pairing_builds() {
    for weight in VqAlgorithm::WEIGHT {
        for kv in VqAlgorithm::KV_CACHE {
            for opt in OptLevel::ALL {
                Session::builder()
                    .weight_algo(weight)
                    .kv_algo(kv)
                    .opt(opt)
                    .build()
                    .unwrap_or_else(|e| panic!("{weight} + {kv} at {opt}: {e}"));
            }
        }
    }
}

#[test]
fn same_key_returns_pointer_equal_plans() {
    let s = session();
    let op = s.attention_op(1024, 1);
    let a = s.kv_plan(&op).unwrap();
    let b = s.kv_plan(&op).unwrap();
    assert!(Arc::ptr_eq(&a, &b), "second lookup must be a cache hit");
    let stats = s.cache_stats();
    assert_eq!((stats.hits, stats.misses), (1, 1), "{stats:?}");
}

#[test]
fn different_opt_level_is_a_cache_miss() {
    let s = session();
    let vq = VqAlgorithm::Cq4.config();
    let op = s.attention_op(1024, 1);
    let o2 = s.plan_at(&vq, &op, OptLevel::O2).unwrap();
    let o3 = s.plan_at(&vq, &op, OptLevel::O3).unwrap();
    assert!(!Arc::ptr_eq(&o2, &o3));
    assert_eq!(s.cache_stats().misses, 2);
    assert_eq!(s.plan_cache().len(), 2);
}

#[test]
fn o4_session_plan_resolves_to_adaptive_best() {
    // At O4 (the shipped configuration) plan() and the e2e pipeline must
    // agree on which kernel runs: both resolve to the adaptive best plan
    // and share one cache entry.
    let s = session();
    let op = s.attention_op(1024, 1);
    let (best, _) = s.best_kv_plan(&op).unwrap();
    let plan = s.kv_plan(&op).unwrap();
    assert!(
        Arc::ptr_eq(&best, &plan),
        "plan() at O4 must share the Best cache entry"
    );
    assert_eq!(s.plan_cache().len(), 1);
}

#[test]
fn session_and_pipeline_build_identical_best_keys() {
    // Session::kv_plan and the pipeline's decode-step attention planning
    // must share one cache entry; if their key recipes ever diverge the
    // cache silently stops deduplicating, so pin it: after pre-planning
    // the attention op via the session, a decode step may only add the
    // model's unique linear-shape keys.
    let s = session();
    let op = s.attention_op(1024, 16);
    s.kv_plan(&op).unwrap();
    let len_before = s.plan_cache().len();
    s.pipeline(s.scheme()).decode_step(1024, 16);
    let unique_linear: std::collections::HashSet<(usize, usize)> =
        s.model().linear_shapes().into_iter().collect();
    assert_eq!(
        s.plan_cache().len() - len_before,
        unique_linear.len(),
        "attention key must hit the session's entry; only linear keys may be new"
    );
}

#[test]
fn best_plan_is_cached_and_estimate_is_stable() {
    let s = session();
    let op = s.attention_op(4096, 8);
    let (p1, o1) = s.best_kv_plan(&op).unwrap();
    let (p2, o2) = s.best_kv_plan(&op).unwrap();
    assert!(Arc::ptr_eq(&p1, &p2));
    assert_eq!(o1.us(), o2.us(), "estimate must be deterministic");
    assert_eq!(s.cache_stats().misses, 1);
    assert_eq!(s.cache_stats().hits, 1);
}

#[test]
fn session_plans_match_raw_kernel_planner() {
    // The facade must add caching, not change planning decisions.
    let s = session();
    let planner = KernelPlanner::new(GpuSpec::rtx4090());
    for algo in VqAlgorithm::ALL {
        let vq = algo.config();
        let op = if algo.is_weight_algorithm() {
            ComputeOp::Gemv {
                n: 11008,
                k: 4096,
                batch: 1,
            }
        } else {
            ComputeOp::attention_decode(32, 128, 1024, 1)
        };
        for level in OptLevel::ALL {
            let via_session = s.plan_at(&vq, &op, level).unwrap();
            let raw = planner
                .plan_at(&vq, &op, level, &ProfileSummary::default_for(&vq))
                .unwrap();
            assert_eq!(*via_session, raw, "{algo} at {level}");
        }
    }
}

#[test]
fn pipelines_share_the_session_cache() {
    let s = session();
    // One generation fills the cache with the decode-step plans…
    s.generate(1024, 64, 16);
    let after_first = s.cache_stats();
    assert!(after_first.misses > 0, "{after_first:?}");
    // …and a second pipeline (even under another VQ scheme sharing ops
    // with the first only partially) never re-plans the same keys.
    s.generate(1024, 64, 16);
    let after_second = s.cache_stats();
    assert_eq!(
        after_second.misses, after_first.misses,
        "second run must plan nothing new"
    );
    assert!(after_second.hits > after_first.hits);
}

#[test]
fn shared_cache_across_sessions() {
    let cache = Arc::new(PlanCache::new());
    let a = Session::builder()
        .plan_cache(Arc::clone(&cache))
        .build()
        .unwrap();
    let b = Session::builder()
        .plan_cache(Arc::clone(&cache))
        .build()
        .unwrap();
    let op = a.attention_op(1024, 1);
    let pa = a.kv_plan(&op).unwrap();
    let pb = b.kv_plan(&op).unwrap();
    assert!(
        Arc::ptr_eq(&pa, &pb),
        "sessions must share plans via the cache"
    );
    assert_eq!(cache.stats().misses, 1);
    assert_eq!(cache.stats().hits, 1);
}

#[test]
fn functional_execution_goes_through_the_backend() {
    use vq_llm::tensor::{linalg, metrics, synth};
    let s = Session::builder()
        .weight_algo(VqAlgorithm::Gptvq2)
        .kv_algo(VqAlgorithm::Cq4)
        .build()
        .unwrap();

    // Fused GeMV through the session equals dequantize-then-multiply.
    let w = synth::correlated_channels(128, 256, 4, 0.9, 3);
    let wq = s.quantize_weights(&w, 11).unwrap();
    let x: Vec<f32> = (0..128).map(|i| (i as f32 * 0.13).sin()).collect();
    let plan = s
        .weight_plan(&ComputeOp::Gemv {
            n: 256,
            k: 128,
            batch: 1,
        })
        .unwrap();
    let (y, out) = s.run_gemv(&plan, &x, &wq).unwrap();
    let y_ref = linalg::gemv(&wq.dequantize().unwrap().transposed(), &x).unwrap();
    assert!(metrics::allclose(&y, &y_ref, 1e-4, 1e-4));
    assert!(out.us() > 0.0);

    // Shape mismatches surface as structured kernel errors.
    let bad = s.run_gemv(&plan, &x[..7], &wq).unwrap_err();
    assert!(matches!(bad, VqLlmError::Kernel(_)), "{bad}");
}

fn small_context(session: &Session) -> vq_llm::SharedContext {
    use vq_llm::tensor::synth;
    vq_llm::SharedContext::new(
        session
            .quantize_kv(&synth::kv_stream(288, 32, 0.85, 41), 1)
            .unwrap(),
        session
            .quantize_kv(&synth::kv_stream(288, 32, 0.85, 42), 2)
            .unwrap(),
        session
            .quantize_weights(&synth::correlated_channels(32, 32, 4, 0.9, 43), 3)
            .unwrap(),
    )
    .unwrap()
}

#[test]
fn engine_sessions_are_views_over_the_engine_state() {
    let mut engine = vq_llm::Engine::builder()
        .weight_algo(VqAlgorithm::Gptvq2)
        .kv_algo(VqAlgorithm::Cq4)
        .build()
        .unwrap();
    let unbound = engine.session_unbound();
    assert!(unbound.context_handle().is_none());
    assert!(
        Arc::ptr_eq(engine.plan_cache(), unbound.plan_cache()),
        "session views share the engine's plan cache"
    );

    let ctx = small_context(&unbound);
    let handle = engine.register_context(ctx.clone()).unwrap();
    let bound = engine.session(handle).unwrap();
    assert_eq!(bound.context_handle(), Some(handle));
    assert_eq!(
        bound.bound_context().unwrap().seq(),
        ctx.seq(),
        "bound session sees the registered context"
    );
    // The bound view serves its context without re-passing it…
    let mut srv = bound
        .serve_bound(vq_llm::ServeConfig::new(2, 4))
        .expect("serve_bound");
    let q: Vec<f32> = (0..32).map(|d| (d as f32 * 0.2).sin()).collect();
    let h = srv.submit(vq_llm::DecodeRequest::new(1, q, 10, 2)).unwrap();
    srv.run_until_drained().unwrap();
    assert_eq!(srv.take_output(&h).unwrap().steps.len(), 2);
    // …while an unbound view refuses.
    let err = unbound
        .serve_bound(vq_llm::ServeConfig::default())
        .unwrap_err();
    assert!(
        matches!(
            err,
            VqLlmError::InvalidSession {
                what: "context",
                ..
            }
        ),
        "{err}"
    );
    // Unknown handles are typed errors, not panics.
    drop(bound);
    let other = vq_llm::Engine::builder().build().unwrap();
    assert!(other.session(handle).is_err());
}

#[test]
fn plan_cache_path_round_trips_the_warm_start() {
    let path = std::env::temp_dir().join(format!(
        "vqllm_session_api_plan_cache_{}.txt",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);

    // Engine 1: cold start — registration plans both canonical shapes.
    let mut cold = vq_llm::Engine::builder()
        .weight_algo(VqAlgorithm::Gptvq2)
        .kv_algo(VqAlgorithm::Cq4)
        .plan_cache_path(&path)
        .build()
        .unwrap();
    let ctx = small_context(&cold.session_unbound());
    let hc = cold.register_context(ctx.clone()).unwrap();
    let cold_stats = cold.cache_stats();
    assert_eq!(cold_stats.misses, 2, "cold registration plans twice");
    // Serving changes nothing that is saved: a drain plans nothing.
    let q: Vec<f32> = (0..32).map(|d| (d as f32 * 0.2).sin()).collect();
    let ticket = cold.submit(hc, vq_llm::DecodeRequest::new(1, q, 10, 40));
    cold.run_until_drained().unwrap();
    assert_eq!(cold.take_output(&ticket).unwrap().steps.len(), 40);
    assert_eq!(
        cold.cache_stats(),
        cold_stats,
        "a drain touched the plan cache"
    );
    let written = cold.save_plan_cache().unwrap();
    assert_eq!(written, 2);

    // Engine 2: same path — registration of the same context re-measures
    // the same profiles, builds the same keys, and planning is pure cache
    // hits: the cold-start pass is skipped.
    let mut warm = vq_llm::Engine::builder()
        .weight_algo(VqAlgorithm::Gptvq2)
        .kv_algo(VqAlgorithm::Cq4)
        .plan_cache_path(&path)
        .build()
        .unwrap();
    let hw = warm.register_context(ctx.clone()).unwrap();
    let warm_stats = warm.cache_stats();
    assert_eq!(warm_stats.misses, 0, "warm start must not re-plan");
    assert_eq!(warm_stats.hits, 2);

    // The restored plans are identical to the cold engine's (the codec
    // round trip is bitwise, `plan_cache::persist`).
    assert_eq!(
        **cold.attention_plan(hc).unwrap(),
        **warm.attention_plan(hw).unwrap()
    );
    assert_eq!(
        **cold.linear_plan(hc).unwrap(),
        **warm.linear_plan(hw).unwrap()
    );
    let _ = std::fs::remove_file(&path);

    // Error paths are typed: saving with no configured path…
    let unconfigured = vq_llm::Engine::builder().build().unwrap();
    assert!(matches!(
        unconfigured.save_plan_cache().unwrap_err(),
        VqLlmError::Persistence { .. }
    ));
    // …and building over a corrupt cache file.
    let corrupt = std::env::temp_dir().join(format!(
        "vqllm_session_api_corrupt_{}.txt",
        std::process::id()
    ));
    std::fs::write(&corrupt, "not a plan cache\n").unwrap();
    let err = vq_llm::Engine::builder()
        .plan_cache_path(&corrupt)
        .build()
        .unwrap_err();
    assert!(matches!(err, VqLlmError::Persistence { .. }), "{err}");
    let _ = std::fs::remove_file(&corrupt);
}

#[test]
fn generate_matches_raw_pipeline() {
    let s = session();
    let via_session = s.generate(1024, 256, 16);
    let raw = vq_llm::Pipeline::new(
        GpuSpec::rtx4090(),
        vq_llm::LlamaConfig::llama_7b(),
        QuantScheme::vq_llm_4bit(),
    )
    .generate(1024, 256, 16);
    assert_eq!(
        via_session, raw,
        "facade must not change the modelled numbers"
    );
}
