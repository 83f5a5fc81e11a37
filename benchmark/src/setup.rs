//! Set-up: synthesise and quantize a workload's contexts, build the
//! engine, register the contexts, and (TCP workloads) bind the server.
//!
//! Every stage is timed on its own because set-up is where work moved out
//! of the steady state lands (`setup_s` end to end, `vq.*` / `core.*` per
//! layer).

use crate::spec::{self, Front, Workload};
use std::sync::Arc;
use std::time::Instant;
use vq_llm::tensor::synth;
use vq_llm::{
    AdmissionConfig, ContextHandle, Engine, KvQuantMode, NetConfig, NetServer, PlanCache,
    ServeConfig, SharedContext, VqAlgorithm,
};

/// Wall time of each set-up stage, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    /// `Engine::builder()...build()`.
    pub engine_build_s: f64,
    /// `Session::quantize_kv` over every K and V tensor.
    pub quantize_kv_s: f64,
    /// `Session::quantize_weights` over every projection weight.
    pub quantize_weights_s: f64,
    /// `Engine::register_context` over every context.
    pub register_s: f64,
    /// `NetServer::bind_with` (0 on engine-direct workloads).
    pub bind_s: f64,
}

/// What set-up leaves behind besides the engine.
pub struct Built {
    /// Context handles in protocol `ctx` order.
    pub handles: Vec<ContextHandle>,
    /// The quantized contexts, shareable with further engines.
    pub contexts: Vec<SharedContext>,
    /// The engine's plan cache, still readable once a server owns the
    /// engine.
    pub plan_cache: Arc<PlanCache>,
    /// Stage times of this build.
    pub times: StageTimes,
}

fn builder(max_batch: usize, max_queue: usize, kv: KvQuantMode) -> vq_llm::EngineBuilder {
    Engine::builder()
        .cpu_threads(spec::CPU_THREADS)
        .weight_algo(VqAlgorithm::Gptvq2)
        .kv_algo(VqAlgorithm::Cq4)
        .serve_config(ServeConfig::new(max_batch, max_queue).with_kv_quant(kv))
}

/// Builds the workload's engine from nothing: tensors from `seed`, CQ-4
/// K/V, GPTVQ-2 W, every context registered.
pub fn build(w: &Workload, seed: u64) -> (Engine, Built) {
    let mut times = StageTimes::default();
    let t = Instant::now();
    let mut engine = builder(spec::MAX_BATCH, spec::MAX_QUEUE, w.kv_quant)
        .build()
        .expect("engine configuration is valid");
    times.engine_build_s = t.elapsed().as_secs_f64();
    let session = engine.session_unbound();
    let mut contexts = Vec::new();
    for (i, s) in w.shapes.iter().enumerate() {
        // Distinct tensor seeds per context and per role; all from `seed`.
        let base = seed.wrapping_mul(1_000).wrapping_add(10 * i as u64);
        let k = synth::kv_stream(s.seq, s.head_dim, 0.85, base + 1);
        let v = synth::kv_stream(s.seq, s.head_dim, 0.85, base + 2);
        let mut wt = synth::correlated_channels(s.head_dim, s.head_dim, 4, 0.9, base + 3);
        wt.map_inplace(|x| x * spec::PROJECTION_GAIN);
        let t = Instant::now();
        let kq = session.quantize_kv(&k, base + 1).expect("quantize K");
        let vq = session.quantize_kv(&v, base + 2).expect("quantize V");
        times.quantize_kv_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let wq = session.quantize_weights(&wt, base + 3).expect("quantize W");
        times.quantize_weights_s += t.elapsed().as_secs_f64();
        contexts.push(SharedContext::new(kq, vq, wq).expect("shared context"));
    }
    let t = Instant::now();
    let handles = contexts
        .iter()
        .map(|c| {
            engine
                .register_context(c.clone())
                .expect("register context")
        })
        .collect();
    times.register_s = t.elapsed().as_secs_f64();
    let plan_cache = Arc::clone(engine.plan_cache());
    let built = Built {
        handles,
        contexts,
        plan_cache,
        times,
    };
    (engine, built)
}

/// A further engine over already-quantized contexts (the solo reference,
/// the engine-direct rung of a TCP workload, the F32Tail baseline).
pub fn rebuild(
    contexts: &[SharedContext],
    max_batch: usize,
    max_queue: usize,
    kv: KvQuantMode,
) -> (Engine, Vec<ContextHandle>) {
    let mut engine = builder(max_batch, max_queue, kv)
        .build()
        .expect("engine configuration is valid");
    let handles = contexts
        .iter()
        .map(|c| {
            engine
                .register_context(c.clone())
                .expect("register context")
        })
        .collect();
    (engine, handles)
}

/// The admission settings every driver in the benchmark runs under:
/// library defaults except a queue deep enough never to refuse the open
/// loop, the workload's tenant weights, and an explicit generous step
/// timeout — so evictions and watchdog sheds can only appear as failures.
pub fn admission(w: &Workload) -> AdmissionConfig {
    AdmissionConfig {
        max_pending: spec::MAX_PENDING,
        weights: w.weights.to_vec(),
        step_timeout_us: Some(spec::STEP_TIMEOUT_US),
        ..AdmissionConfig::default()
    }
}

/// Binds the built engine to a loopback port.
pub fn serve(w: &Workload, engine: Engine, handles: Vec<ContextHandle>) -> NetServer {
    debug_assert!(w.front == Front::Tcp);
    let net = NetConfig {
        writer_queue_cap: spec::WRITER_QUEUE_CAP,
        ..NetConfig::default()
    };
    vq_llm::net::loopback_with(engine, handles, admission(w), net).expect("bind loopback")
}
