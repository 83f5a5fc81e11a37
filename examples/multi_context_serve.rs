//! Multi-context serving: one `Engine`, several quantized contexts, one
//! engine-wide scheduler.
//!
//! Two shared contexts of different shapes are registered with the
//! engine; tenants tag their requests with a context handle and the
//! scheduler re-forms the decode batch *per context group* every step —
//! slots and the admission queue are shared across contexts. Requests
//! ride the typed lifecycle (`submit → poll → Finished/Rejected`), and
//! each context's canonical kernel plans are made once, at registration,
//! from its measured access distribution.
//!
//! ```sh
//! cargo run --release --example multi_context_serve
//! ```

use vq_llm::tensor::synth;
use vq_llm::{DecodeRequest, Engine, RequestStatus, ServeConfig, SharedContext, VqAlgorithm};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut engine = Engine::builder()
        .cpu_threads(0) // real host execution, sized to the machine
        .weight_algo(VqAlgorithm::Gptvq2)
        .kv_algo(VqAlgorithm::Cq4)
        .serve_config(ServeConfig::new(4, 16))
        .build()?;

    // Two shared pre-quantized contexts — think two tenant pools over two
    // system prompts, or two beams with different depths.
    let session = engine.session_unbound();
    let quantize = |seq: usize, dim: usize, seed: u64| -> Result<SharedContext, _> {
        SharedContext::new(
            session
                .quantize_kv(&synth::kv_stream(seq, dim, 0.85, seed), seed)
                .unwrap(),
            session
                .quantize_kv(&synth::kv_stream(seq, dim, 0.85, seed + 1), seed + 1)
                .unwrap(),
            session
                .quantize_weights(
                    &synth::correlated_channels(dim, dim, 4, 0.9, seed + 2),
                    seed + 2,
                )
                .unwrap(),
        )
    };
    let ctx_a = engine.register_context(quantize(512, 64, 1)?)?;
    let ctx_b = engine.register_context(quantize(384, 32, 11)?)?;
    println!(
        "registered {} contexts (cold-start planning: {} cache misses)",
        engine.context_count(),
        engine.cache_stats().misses
    );

    // Eight tenants alternating between the contexts, ragged positions,
    // different lengths — more tenants than slots, so batches re-form as
    // requests finish, and most steps hold a *mixed-context* batch.
    let mut tickets = Vec::new();
    for tenant in 0..8u64 {
        let (handle, dim, base, stride) = if tenant % 2 == 0 {
            (ctx_a, 64, 128, 40)
        } else {
            (ctx_b, 32, 64, 24)
        };
        let query: Vec<f32> = (0..dim)
            .map(|d| ((tenant as usize * 11 + d) as f32 * 0.17).sin())
            .collect();
        let req = DecodeRequest::new(
            tenant,
            query,
            base + stride * tenant as usize,
            6 + tenant as usize,
        );
        tickets.push((handle, engine.submit(handle, req)));
    }
    // A malformed submission still yields a handle — it polls as Rejected
    // with a typed reason instead of being silently dropped.
    let bad = engine.submit(ctx_a, DecodeRequest::new(99, vec![0.0; 3], 1, 1));
    println!("bad request -> {:?}", engine.poll(&bad));

    // Single-step the engine and watch the per-context groups.
    while !engine.is_idle() {
        let report = engine.step()?;
        println!(
            "step {:2}: batch {} in {} context group(s) (+{} admitted, -{} finished, {} queued)",
            report.step,
            report.batch,
            report.groups,
            report.admitted.len(),
            report.finished.len(),
            report.queued
        );
    }

    for (_, ticket) in &tickets {
        match engine.poll(ticket) {
            RequestStatus::Finished { tokens } => {
                let out = engine.take_output(ticket).expect("finished");
                println!(
                    "tenant {}: {} tokens (submitted step {}, finished step {})",
                    out.tenant, tokens, out.submitted_step, out.finished_step
                );
            }
            other => println!("unexpected terminal status: {other:?}"),
        }
    }

    let stats = engine.stats();
    println!(
        "\n{} tokens over {} steps — mean batch occupancy {:.2}",
        stats.decoded_tokens,
        stats.steps,
        stats.mean_batch()
    );
    for (name, handle) in [("A", ctx_a), ("B", ctx_b)] {
        let cs = engine.context_stats(handle).expect("registered");
        println!("context {name}: {} steps", cs.steps);
    }
    println!(
        "plan cache: {} plans, {:.0}% hits",
        engine.plan_cache().len(),
        engine.cache_stats().hit_rate() * 100.0
    );
    Ok(())
}
