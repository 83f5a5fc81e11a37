//! Serving-layer throughput report (`BENCH_serving.json`).
//!
//! Two scenarios, both parity-asserted before timing anything:
//!
//! 1. **Single context** — tokens/second of a one-context `vq_llm::Engine`
//!    (continuous batching at `max_batch = 8`) against
//!    per-request looping (the same requests, the same kernels, but one
//!    request in flight at a time — what a naive server would do), over a
//!    shared pre-quantized context. The batched scheduler wins because
//!    one K-decode, one V-panel decode, and one weight-panel decode serve
//!    the whole batch instead of being re-paid per tenant.
//! 2. **Mixed two-context** — the same comparison on `vq_llm::Engine`
//!    with traffic split over **two** registered contexts of different
//!    shapes: every step re-forms the batch per context group, so the
//!    shared decodes are amortized per group while slots and the queue
//!    stay engine-wide.
//!
//! A third scenario drains the same tenants with **live KV
//! quantization** on (`KvQuantMode::Quantized`): every generated token is
//! appended to a private, VQ-compressed KV extension (short f32 tail,
//! per-group outlier channel) and attention runs directly on the packed
//! codes. Its gate is memory, not speed: compressed bytes per appended
//! token must stay ≤ 0.5× the f32 cost, while the throughput gates above
//! keep running with live KV off, unchanged.
//!
//! `--smoke` asserts the CI gates (exit code 1 otherwise):
//!
//! * batched serving ≥ 1.5× tokens/s over per-request looping at batch 8
//! * the mixed two-context engine drain ≥ 1.5× tokens/s over per-request
//!   looping on the same engine machinery
//! * step-latency tail at batch 8 with an oversubscribed queue: p99 ≤
//!   10× p50 (per-step wall times and queue depths also land in
//!   `BENCH_serving.json` as `step_latency_p50_us`/`step_latency_p99_us`/
//!   `queue_depth_*`)
//! * live-KV memory: compressed bytes per appended token ≤ 0.5× the f32
//!   baseline (`2 × head_dim × 4` bytes), reported alongside the fold
//!   NMSE and its projected task accuracy
//!
//! Both drivers of each scenario run the identical scheduler machinery,
//! so the measured ratios isolate exactly what batch formation buys.

use std::time::Instant;
use vq_llm::llm::accuracy::project_kv_accuracy;
use vq_llm::net::percentile;
use vq_llm::tensor::synth;
use vq_llm::{
    ContextHandle, DecodeRequest, Engine, KvQuantMode, ServeConfig, Session, SharedContext,
    VqAlgorithm,
};
use vqllm_bench::Report;

const SEQ: usize = 1024;
const HEAD_DIM: usize = 64;
const TENANTS: usize = 8;
const GEN_TOKENS: usize = 24;

// The second context of the mixed scenario (a different geometry, like a
// second shared prompt served by the same engine).
const SEQ_B: usize = 768;
const HEAD_DIM_B: usize = 32;

fn requests_from(base: usize) -> Vec<DecodeRequest> {
    (base..base + TENANTS)
        .map(|t| {
            let query: Vec<f32> = (0..HEAD_DIM)
                .map(|d| ((t * 13 + d) as f32 * 0.21).sin())
                .collect();
            // Ragged context positions: tenants sit at different depths of
            // the shared cache, like real continuous batching.
            DecodeRequest::new(t as u64, query, 640 + 40 * (t % TENANTS), GEN_TOKENS)
        })
        .collect()
}

fn requests() -> Vec<DecodeRequest> {
    requests_from(0)
}

/// The mixed scenario's traffic: tenants alternate between the two
/// contexts, ragged positions in both.
fn mixed_requests() -> Vec<(bool, DecodeRequest)> {
    (0..TENANTS)
        .map(|t| {
            let to_b = t % 2 == 1;
            let (dim, base, stride) = if to_b {
                (HEAD_DIM_B, 400, 30)
            } else {
                (HEAD_DIM, 640, 40)
            };
            let query: Vec<f32> = (0..dim)
                .map(|d| ((t * 17 + d) as f32 * 0.23).sin())
                .collect();
            (
                to_b,
                DecodeRequest::new(t as u64, query, base + stride * t, GEN_TOKENS),
            )
        })
        .collect()
}

fn quantize_context(session: &Session, seq: usize, dim: usize, seed: u64) -> SharedContext {
    let k = synth::kv_stream(seq, dim, 0.85, seed);
    let v = synth::kv_stream(seq, dim, 0.85, seed + 1);
    // Gain the projection so the decode loop is RMS-preserving: softmax
    // averaging over hundreds of context rows shrinks the attention
    // output far below the KV stream's row norm (real transformers undo
    // that with norms + residual streams), and without the gain the
    // live-KV scenario would be appending near-zero rows that no
    // codebook trained on the context distribution can represent. The
    // factor is calibrated so decoded rows match the context rows' RMS;
    // the throughput/parity scenarios are scale-invariant either way.
    let mut w = synth::correlated_channels(dim, dim, 4, 0.9, seed + 2);
    w.map_inplace(|x| x * 25.0);
    SharedContext::new(
        session.quantize_kv(&k, seed).expect("K"),
        session.quantize_kv(&v, seed + 1).expect("V"),
        session.quantize_weights(&w, seed + 2).expect("W"),
    )
    .expect("context")
}

/// A fresh engine on the session's backend over `contexts`, returning one
/// handle per context, in order.
fn engine(
    session: &Session,
    contexts: &[&SharedContext],
    config: ServeConfig,
) -> (Engine, Vec<ContextHandle>) {
    let mut engine = Engine::builder()
        .backend(std::sync::Arc::clone(session.backend()))
        .weight_algo(VqAlgorithm::Gptvq2)
        .kv_algo(VqAlgorithm::Cq4)
        .serve_config(config)
        .build()
        .expect("engine");
    let handles = contexts
        .iter()
        .map(|&ctx| engine.register_context(ctx.clone()).expect("register"))
        .collect();
    (engine, handles)
}

/// A fresh one-context engine over `ctx`.
fn one_ctx_engine(
    session: &Session,
    ctx: &SharedContext,
    config: ServeConfig,
) -> (Engine, ContextHandle) {
    let (engine, handles) = engine(session, &[ctx], config);
    (engine, handles[0])
}

/// Tokens/second of one full drain, best of `reps` (best-of suppresses
/// shared-runner scheduling noise).
fn tokens_per_s(
    session: &Session,
    ctx: &SharedContext,
    max_batch: usize,
    reps: usize,
) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut tokens = 0u64;
    for _ in 0..reps.max(1) {
        let (mut srv, h) = one_ctx_engine(session, ctx, ServeConfig::new(max_batch, TENANTS));
        let handles: Vec<_> = requests()
            .into_iter()
            .map(|r| srv.try_submit(h, r).expect("admitted"))
            .collect();
        let t0 = Instant::now();
        srv.run_until_drained().expect("drain");
        best = best.min(t0.elapsed().as_secs_f64());
        tokens = srv.stats().decoded_tokens;
        assert!(handles.iter().all(|h| srv.output(h).is_some()));
    }
    (tokens as f64 / best, tokens)
}

/// Per-step wall time (µs) and observed queue depth of one oversubscribed
/// drain at `max_batch`: twice the slots' worth of tenants are submitted
/// up front, so the queue stays non-empty until the back half admits and
/// every step decodes a full batch — the shape the tail-latency gate is
/// about.
fn step_profile(session: &Session, ctx: &SharedContext, max_batch: usize) -> (Vec<f64>, Vec<f64>) {
    let (mut srv, h) = one_ctx_engine(session, ctx, ServeConfig::new(max_batch, 2 * TENANTS));
    for r in requests_from(0).into_iter().chain(requests_from(TENANTS)) {
        srv.try_submit(h, r).expect("admitted");
    }
    let mut latencies_us = Vec::new();
    let mut queue_depths = Vec::new();
    while !srv.is_idle() {
        let t0 = Instant::now();
        let r = srv.step().expect("step");
        latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
        queue_depths.push(r.queued as f64);
    }
    (latencies_us, queue_depths)
}

/// A fresh engine over both mixed-scenario contexts.
fn mixed_engine(
    session: &Session,
    ctx_a: &SharedContext,
    ctx_b: &SharedContext,
    max_batch: usize,
) -> (Engine, ContextHandle, ContextHandle) {
    let (engine, handles) = engine(
        session,
        &[ctx_a, ctx_b],
        ServeConfig::new(max_batch, TENANTS),
    );
    (engine, handles[0], handles[1])
}

/// Tokens/second of one mixed two-context engine drain, best of `reps`.
fn mixed_tokens_per_s(
    session: &Session,
    ctx_a: &SharedContext,
    ctx_b: &SharedContext,
    max_batch: usize,
    reps: usize,
) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut tokens = 0u64;
    for _ in 0..reps.max(1) {
        let (mut engine, ha, hb) = mixed_engine(session, ctx_a, ctx_b, max_batch);
        let handles: Vec<_> = mixed_requests()
            .into_iter()
            .map(|(to_b, r)| engine.submit(if to_b { hb } else { ha }, r))
            .collect();
        let t0 = Instant::now();
        engine.run_until_drained().expect("drain");
        best = best.min(t0.elapsed().as_secs_f64());
        tokens = engine.stats().decoded_tokens;
        assert!(handles.iter().all(|h| engine.output(h).is_some()));
    }
    (tokens as f64 / best, tokens)
}

/// One full drain with live KV quantization on: compressed bytes per
/// appended token, the engine-wide fold NMSE, and throughput for context.
struct LiveKvRun {
    tok_per_s: f64,
    tokens: u64,
    bytes_per_token: f64,
    folded_tokens: u64,
    outlier_groups: u64,
    nmse: f64,
}

fn live_kv_run(session: &Session, ctx: &SharedContext, mode: KvQuantMode) -> LiveKvRun {
    let config = ServeConfig::new(TENANTS, TENANTS).with_kv_quant(mode);
    let (mut engine, h) = one_ctx_engine(session, ctx, config);
    let handles: Vec<_> = requests()
        .into_iter()
        .map(|r| engine.submit(h, r))
        .collect();
    let t0 = Instant::now();
    engine.run_until_drained().expect("drain");
    let elapsed = t0.elapsed().as_secs_f64();
    let tokens = engine.stats().decoded_tokens;
    let mut kv_bytes = 0usize;
    let mut appended = 0usize;
    for h in &handles {
        let out = engine.output(h).expect("output");
        kv_bytes += out.kv_bytes;
        // The final token of each request is returned, not appended.
        appended += out.steps.len().saturating_sub(1);
    }
    let stats = engine.stats();
    LiveKvRun {
        tok_per_s: tokens as f64 / elapsed,
        tokens,
        bytes_per_token: kv_bytes as f64 / appended.max(1) as f64,
        folded_tokens: stats.kv_folded_tokens,
        outlier_groups: stats.kv_outlier_groups,
        nmse: stats.kv_nmse(),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let reps = 3;
    let mut report = Report::new(
        "serve_bench",
        "Batched request scheduling vs per-request looping",
    );

    let session = Session::builder()
        .cpu_threads(1)
        .weight_algo(VqAlgorithm::Gptvq2)
        .kv_algo(VqAlgorithm::Cq4)
        .build()
        .expect("session");
    let ctx = quantize_context(&session, SEQ, HEAD_DIM, 21);
    let ctx_b = quantize_context(&session, SEQ_B, HEAD_DIM_B, 31);

    // Parity first: the measurement is meaningless if the schedulers
    // disagree. The batched drain and the per-request drain must produce
    // identical bytes for every tenant (the scheduler's bitwise contract).
    {
        let (mut batched, bh) = one_ctx_engine(&session, &ctx, ServeConfig::new(TENANTS, TENANTS));
        let (mut looped, lh) = one_ctx_engine(&session, &ctx, ServeConfig::new(1, TENANTS));
        let hb: Vec<_> = requests()
            .into_iter()
            .map(|r| batched.try_submit(bh, r).expect("admitted"))
            .collect();
        let hl: Vec<_> = requests()
            .into_iter()
            .map(|r| looped.try_submit(lh, r).expect("admitted"))
            .collect();
        batched.run_until_drained().expect("drain");
        looped.run_until_drained().expect("drain");
        for (b, l) in hb.iter().zip(&hl) {
            let ob = batched.output(b).expect("output");
            let ol = looped.output(l).expect("output");
            assert_eq!(
                ob.steps, ol.steps,
                "batched scheduling changed decode bytes (tenant {})",
                ob.tenant
            );
        }
    }

    // Mixed-context parity: a full-width engine drain vs the same engine
    // machinery at max_batch = 1.
    {
        let (mut batched, ba, bb) = mixed_engine(&session, &ctx, &ctx_b, TENANTS);
        let (mut looped, la, lb) = mixed_engine(&session, &ctx, &ctx_b, 1);
        let hb: Vec<_> = mixed_requests()
            .into_iter()
            .map(|(to_b, r)| batched.submit(if to_b { bb } else { ba }, r))
            .collect();
        let hl: Vec<_> = mixed_requests()
            .into_iter()
            .map(|(to_b, r)| looped.submit(if to_b { lb } else { la }, r))
            .collect();
        let reports = batched.run_until_drained().expect("drain");
        assert!(
            reports.iter().any(|r| r.groups == 2),
            "mixed drain never formed a two-context batch"
        );
        looped.run_until_drained().expect("drain");
        for (b, l) in hb.iter().zip(&hl) {
            let ob = batched.output(b).expect("output");
            let ol = looped.output(l).expect("output");
            assert_eq!(
                ob.steps, ol.steps,
                "mixed-context scheduling changed decode bytes (tenant {})",
                ob.tenant
            );
        }
    }

    let (looped_tps, tokens) = tokens_per_s(&session, &ctx, 1, reps);
    let (batched_tps, _) = tokens_per_s(&session, &ctx, TENANTS, reps);
    let speedup = batched_tps / looped_tps;

    let (mixed_looped_tps, mixed_tokens) = mixed_tokens_per_s(&session, &ctx, &ctx_b, 1, reps);
    let (mixed_batched_tps, _) = mixed_tokens_per_s(&session, &ctx, &ctx_b, TENANTS, reps);
    let mixed_speedup = mixed_batched_tps / mixed_looped_tps;

    // Live-KV memory: the same tenants, but every generated token lands
    // in a compressed private extension (2-row f32 tail, outliers kept
    // only when quantization leaves MORE energy than the original group
    // — at CQ-4's 2-wide vectors an outlier costs 16 bytes against 8
    // bytes of raw f32, so the channel only pays at a low fire rate).
    let live = live_kv_run(
        &session,
        &ctx,
        KvQuantMode::Quantized {
            tail_window: 2,
            outlier_keep_milli: 1000,
        },
    );
    let kv_fp32_bytes_per_token = (2 * HEAD_DIM * 4) as f64;
    let kv_ratio = live.bytes_per_token / kv_fp32_bytes_per_token;
    let kv_accuracy = project_kv_accuracy(live.nmse);

    // Tail-latency profile at the CI-gated batch width: a fat head of
    // steps with the queue full and the batch at max width is where
    // stragglers would show, and the gate (p99 <= 10x p50) bounds them.
    let (step_us, queue_depths) = step_profile(&session, &ctx, TENANTS);
    let step_p50_us = percentile(&step_us, 0.50);
    let step_p99_us = percentile(&step_us, 0.99);
    let step_mean_us = step_us.iter().sum::<f64>() / step_us.len() as f64;
    let step_max_us = step_us.iter().fold(0.0f64, |a, &b| a.max(b));
    let queue_depth_mean = queue_depths.iter().sum::<f64>() / queue_depths.len() as f64;
    let queue_depth_max = queue_depths.iter().fold(0.0f64, |a, &b| a.max(b));

    report.section(&format!(
        "{TENANTS} tenants x {GEN_TOKENS} tokens over a shared {SEQ}x{HEAD_DIM} CQ-4 context \
         (ragged positions, GPTVQ-2 projection, simd tier {})",
        vq_llm::kernels::host_exec::simd::tier()
    ));
    report.line(format!(
        "  per-request looping (max_batch 1): {looped_tps:9.0} tok/s"
    ));
    report.line(format!(
        "  batched scheduler   (max_batch {TENANTS}): {batched_tps:9.0} tok/s"
    ));
    report.line(format!(
        "  speedup {speedup:.2}x over {tokens} decoded tokens (shared K/V/W decode amortized \
         across the batch)"
    ));

    report.section(&format!(
        "mixed engine: {TENANTS} tenants split over {SEQ}x{HEAD_DIM} + {SEQ_B}x{HEAD_DIM_B} \
         contexts (per-context batch groups, engine-wide slots)"
    ));
    report.line(format!(
        "  per-request looping  (max_batch 1): {mixed_looped_tps:9.0} tok/s"
    ));
    report.line(format!(
        "  mixed-context engine (max_batch {TENANTS}): {mixed_batched_tps:9.0} tok/s"
    ));
    report.line(format!(
        "  speedup {mixed_speedup:.2}x over {mixed_tokens} decoded tokens"
    ));

    report.section(&format!(
        "live KV quantization: {TENANTS} tenants x {GEN_TOKENS} tokens, CQ-4 codes + \
         2-row f32 tail + outlier channel"
    ));
    report.line(format!(
        "  {:7.1} compressed bytes/token vs {kv_fp32_bytes_per_token:.0} f32 \
         (ratio {kv_ratio:.3}, {} folded tokens, {} outlier groups)",
        live.bytes_per_token, live.folded_tokens, live.outlier_groups
    ));
    report.line(format!(
        "  fold nmse {:.3e} -> projected accuracy {kv_accuracy:.4} \
         ({:9.0} tok/s over {} decoded tokens)",
        live.nmse, live.tok_per_s, live.tokens
    ));

    report.section(&format!(
        "step latency at max_batch {TENANTS} ({} steps, 2x oversubscribed queue)",
        step_us.len()
    ));
    report.line(format!(
        "  p50 {step_p50_us:7.0} us   p99 {step_p99_us:7.0} us   mean {step_mean_us:7.0} us   \
         max {step_max_us:7.0} us"
    ));
    report.line(format!(
        "  queue depth mean {queue_depth_mean:.1}, max {queue_depth_max:.0}"
    ));

    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let json = format!(
        "{{\n  \"seq\": {SEQ},\n  \"head_dim\": {HEAD_DIM},\n  \"tenants\": {TENANTS},\n  \
         \"gen_tokens\": {GEN_TOKENS},\n  \"tokens\": {tokens},\n  \
         \"looped_tok_per_s\": {looped_tps:.1},\n  \"batched_tok_per_s\": {batched_tps:.1},\n  \
         \"batched_speedup\": {speedup:.3},\n  \
         \"mixed_seq_b\": {SEQ_B},\n  \"mixed_head_dim_b\": {HEAD_DIM_B},\n  \
         \"mixed_tokens\": {mixed_tokens},\n  \
         \"mixed_looped_tok_per_s\": {mixed_looped_tps:.1},\n  \
         \"mixed_batched_tok_per_s\": {mixed_batched_tps:.1},\n  \
         \"mixed_speedup\": {mixed_speedup:.3},\n  \
         \"kv_bytes_per_token\": {:.1},\n  \
         \"kv_fp32_bytes_per_token\": {kv_fp32_bytes_per_token:.0},\n  \
         \"kv_ratio\": {kv_ratio:.4},\n  \
         \"kv_nmse\": {:.6e},\n  \
         \"kv_accuracy\": {kv_accuracy:.4},\n  \
         \"kv_folded_tokens\": {},\n  \
         \"kv_outlier_groups\": {},\n  \
         \"kv_live_tok_per_s\": {:.1},\n  \
         \"step_latency_p50_us\": {step_p50_us:.1},\n  \
         \"step_latency_p99_us\": {step_p99_us:.1},\n  \
         \"step_latency_mean_us\": {step_mean_us:.1},\n  \
         \"step_latency_max_us\": {step_max_us:.1},\n  \
         \"queue_depth_mean\": {queue_depth_mean:.2},\n  \
         \"queue_depth_max\": {queue_depth_max:.0},\n  \
         \"available_threads\": {threads},\n  \
         \"simd_tier\": \"{}\"\n}}\n",
        live.bytes_per_token,
        live.nmse,
        live.folded_tokens,
        live.outlier_groups,
        live.tok_per_s,
        vq_llm::kernels::host_exec::simd::tier()
    );
    let mut json_path = vqllm_bench::results_dir();
    json_path.pop();
    json_path.push("BENCH_serving.json");
    std::fs::write(&json_path, &json).expect("write BENCH_serving.json");
    report.section("BENCH_serving.json");
    report.line(json.trim_end());
    report.finish();

    // --- The acceptance gates (asserted in --smoke / CI) ---
    let gate = 1.5;
    let mut failed = false;
    if speedup >= gate {
        println!("OK: batched serving speedup {speedup:.2} (>= {gate:.2} required)");
    } else {
        eprintln!("FAIL: batched serving speedup {speedup:.2} < required {gate:.2}");
        failed = true;
    }
    if mixed_speedup >= gate {
        println!("OK: mixed two-context speedup {mixed_speedup:.2} (>= {gate:.2} required)");
    } else {
        eprintln!("FAIL: mixed two-context speedup {mixed_speedup:.2} < required {gate:.2}");
        failed = true;
    }
    // Tail-latency gate: with 8 homogeneous tenants at full batch, a p99
    // beyond 10x the median means some steps stall (lock contention,
    // allocator churn, batch re-formation doing O(queue) work) — the
    // serving layer's latency contract, not just its throughput.
    let tail_gate = 10.0;
    if step_p99_us <= tail_gate * step_p50_us {
        println!(
            "OK: step latency p99 {step_p99_us:.0} us <= {tail_gate:.0}x p50 \
             {step_p50_us:.0} us at batch {TENANTS}"
        );
    } else {
        eprintln!(
            "FAIL: step latency p99 {step_p99_us:.0} us > {tail_gate:.0}x p50 \
             {step_p50_us:.0} us at batch {TENANTS}"
        );
        failed = true;
    }
    // Live-KV memory gate: the whole point of quantizing the live cache
    // is bytes, so the compressed cost per appended token (codes +
    // outliers + the unfolded f32 tail, amortized over the drain) must
    // stay at or under half the f32 cost.
    let kv_gate = 0.5;
    if kv_ratio <= kv_gate {
        println!(
            "OK: live-KV bytes/token {:.1} = {kv_ratio:.3}x f32 (<= {kv_gate:.2} required)",
            live.bytes_per_token
        );
    } else {
        eprintln!(
            "FAIL: live-KV bytes/token {:.1} = {kv_ratio:.3}x f32 > required {kv_gate:.2}",
            live.bytes_per_token
        );
        failed = true;
    }
    if failed && smoke {
        std::process::exit(1);
    }
}
