//! Serving scenario: a batched request scheduler over one shared
//! quantized context — tenants arrive, take decode slots as they free up
//! (continuous batching), and every step runs one shared K-decode for the
//! whole batch.
//!
//! This is the single-context `Session::serve` facade; for decode batches
//! spanning *multiple* registered contexts, see
//! `examples/multi_context_serve.rs` and `vq_llm::Engine`.
//!
//! ```sh
//! cargo run --release --example serve_demo
//! ```

use vq_llm::tensor::synth;
use vq_llm::{DecodeRequest, RequestStatus, ServeConfig, Session, SharedContext, VqAlgorithm};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let session = Session::builder()
        .cpu_threads(0) // real host execution, sized to the machine
        .weight_algo(VqAlgorithm::Gptvq2)
        .kv_algo(VqAlgorithm::Cq4)
        .build()?;

    // The shared pre-quantized context every tenant decodes against: a K/V
    // cache of 512 tokens and an output projection, all on packed codes.
    let (seq, dim) = (512, 64);
    let k = synth::kv_stream(seq, dim, 0.85, 1);
    let v = synth::kv_stream(seq, dim, 0.85, 2);
    let w = synth::correlated_channels(dim, dim, 4, 0.9, 3);
    let ctx = SharedContext::new(
        session.quantize_kv(&k, 4)?,
        session.quantize_kv(&v, 5)?,
        session.quantize_weights(&w, 6)?,
    )?;

    // Admission limits: at most 4 requests decode together, 16 may wait.
    let mut server = session.serve(ctx, ServeConfig::new(4, 16))?;

    // Six tenants at ragged context positions, asking for different
    // lengths — more tenants than slots, so the batch re-forms as
    // requests finish.
    let mut handles = Vec::new();
    for tenant in 0..6u64 {
        let query: Vec<f32> = (0..dim)
            .map(|d| ((tenant as usize * 11 + d) as f32 * 0.17).sin())
            .collect();
        let req = DecodeRequest::new(
            tenant,
            query,
            128 + 60 * tenant as usize,
            8 + tenant as usize,
        );
        handles.push(server.submit(req)?);
    }
    println!(
        "submitted {} requests (queue {}, running {})",
        handles.len(),
        server.queued(),
        server.running()
    );

    // Single-step the decode loop and watch the scheduler work.
    while !server.is_idle() {
        let report = server.step()?;
        println!(
            "step {:2}: batch {} (+{} admitted, -{} finished, {} queued)",
            report.step,
            report.batch,
            report.admitted.len(),
            report.finished.len(),
            report.queued
        );
    }

    for handle in &handles {
        // The typed lifecycle: a drained request polls as Finished with
        // its token count before the output is collected.
        assert!(matches!(
            server.status(handle),
            RequestStatus::Finished { .. }
        ));
        let out = server.take_output(handle).expect("completed");
        println!(
            "tenant {}: {} tokens decoded (submitted step {}, finished step {}, kv quant {:.1} us)",
            out.tenant,
            out.steps.len(),
            out.submitted_step,
            out.finished_step,
            out.kv_quant_us
        );
    }
    let stats = server.stats();
    println!(
        "\n{} tokens over {} steps — mean batch occupancy {:.2}; plan cache: {} plans, {:.0}% hits",
        stats.decoded_tokens,
        stats.steps,
        stats.mean_batch(),
        session.plan_cache().len(),
        session.cache_stats().hit_rate() * 100.0
    );
    Ok(())
}
