//! The `Session` facade: the paper's modelling front end.
//!
//! The paper's framework is a single coherent pipeline — profile →
//! codebook-cache placement → dataflow → fusion → codegen → execute
//! (Fig. 7) — and [`Session`] exposes it as one object instead of a
//! hand-stitched tuple of `KernelPlanner` + `vq_kernel` + `Pipeline` +
//! raw `GpuSpec`s:
//!
//! * a **builder** validates the device / algorithm / optimization-level
//!   combination once, up front;
//! * a pluggable [`Backend`](crate::Backend) supplies planning,
//!   estimation, and functional execution (the performance model today; a
//!   real-GPU backend later);
//! * a shared, memoizing [`PlanCache`] makes a repeated planning request
//!   a hash probe instead of a re-run of Alg. 2, and is inherited by every
//!   [`Pipeline`] the session creates.
//!
//! A `Session` plans, quantizes and models; serving is
//! [`Engine`](crate::Engine)'s job. [`Engine::session_unbound`] hands out
//! a `Session` over the engine's own device, algorithms, backend and plan
//! cache, which is how a server quantizes the contexts it registers.
//!
//! [`Engine::session_unbound`]: crate::Engine::session_unbound
//!
//! ```
//! use vq_llm::{OptLevel, Session, VqAlgorithm};
//!
//! # fn main() -> Result<(), vq_llm::VqLlmError> {
//! let session = Session::builder()
//!     .gpu(vq_llm::GpuSpec::rtx4090())
//!     .weight_algo(VqAlgorithm::QuipSharp4)
//!     .kv_algo(VqAlgorithm::Cq4)
//!     .opt(OptLevel::O4)
//!     .build()?;
//! let op = session.attention_op(1024, 1);
//! let (plan, out) = session.best_kv_plan(&op)?;
//! println!("{} -> {:.1} us", plan.describe(), out.us());
//! # Ok(())
//! # }
//! ```

use crate::backend::{Backend, BackendKind};
use crate::engine::{build_shared, EngineShared};
use crate::error::{Result, VqLlmError};
use std::sync::Arc;
use vqllm_core::plan_cache::{CacheStats, PlanCache, PlanKey, PlanRequest};
use vqllm_core::{codegen, ComputeOp, KernelPlan, OptLevel, ProfileSummary};
use vqllm_gpu::GpuSpec;
use vqllm_kernels::{AccessProfile, KernelOutput};
use vqllm_llm::{E2eReport, LlamaConfig, Pipeline, QuantScheme};
use vqllm_tensor::Tensor2D;
use vqllm_vq::{QuantizedTensor, VqAlgorithm, VqConfig, VqQuantizer};

/// Builder for [`Session`] (see [`Session::builder`]).
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    gpu: GpuSpec,
    weight_algo: VqAlgorithm,
    kv_algo: VqAlgorithm,
    opt: OptLevel,
    model: LlamaConfig,
    backend: Option<Arc<dyn Backend>>,
    plan_cache: Option<Arc<PlanCache>>,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        SessionBuilder {
            gpu: GpuSpec::rtx4090(),
            weight_algo: VqAlgorithm::QuipSharp4,
            kv_algo: VqAlgorithm::Cq4,
            opt: OptLevel::O4,
            model: LlamaConfig::llama_7b(),
            backend: None,
            plan_cache: None,
        }
    }
}

impl SessionBuilder {
    /// Target device (default: RTX 4090, the paper's primary testbed).
    pub fn gpu(mut self, gpu: GpuSpec) -> Self {
        self.gpu = gpu;
        self
    }

    /// Weight quantization algorithm (default: QuiP#-4).
    pub fn weight_algo(mut self, algo: VqAlgorithm) -> Self {
        self.weight_algo = algo;
        self
    }

    /// KV-cache quantization algorithm (default: CQ-4).
    pub fn kv_algo(mut self, algo: VqAlgorithm) -> Self {
        self.kv_algo = algo;
        self
    }

    /// Optimization level for generated kernels (default: O4, the shipped
    /// fully-adaptive configuration).
    pub fn opt(mut self, opt: OptLevel) -> Self {
        self.opt = opt;
        self
    }

    /// Model shape for end-to-end projections (default: Llama-7B).
    pub fn model(mut self, model: LlamaConfig) -> Self {
        self.model = model;
        self
    }

    /// Execution backend (default: [`PerfModelBackend`]).
    ///
    /// [`PerfModelBackend`]: crate::PerfModelBackend
    pub fn backend(mut self, backend: Arc<dyn Backend>) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Selects one of the shipped backends by kind — e.g.
    /// `BackendKind::Cpu { threads: 0 }` for real host execution sized to
    /// the machine.
    pub fn backend_kind(self, kind: BackendKind) -> Self {
        self.backend(kind.instantiate())
    }

    /// Shortcut for `backend_kind(BackendKind::Cpu { threads })`: real
    /// host execution with `threads` worker partitions (`0` = the
    /// machine's available parallelism). Instantiation warms the shared
    /// persistent worker pool, so the session's first parallel kernel
    /// call pays no thread spawns.
    pub fn cpu_threads(self, threads: usize) -> Self {
        self.backend_kind(BackendKind::Cpu { threads })
    }

    /// Shares an existing plan cache (default: a fresh empty cache). Lets
    /// several sessions — e.g. one per tenant on the same device — reuse
    /// each other's plans.
    pub fn plan_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.plan_cache = Some(cache);
        self
    }

    /// Validates the configuration and builds the session.
    ///
    /// # Errors
    ///
    /// Returns [`VqLlmError::InvalidSession`] when the weight algorithm is
    /// not a weight quantizer, the KV algorithm is not a KV-cache
    /// quantizer, or the device description is degenerate.
    pub fn build(self) -> Result<Session> {
        let shared = build_shared(
            self.gpu,
            self.weight_algo,
            self.kv_algo,
            self.opt,
            self.model,
            self.backend,
            self.plan_cache,
        )?;
        Ok(Session::view(shared))
    }
}

/// A configured VQ-LLM view: device + algorithms + optimization level +
/// backend + shared plan cache.
///
/// Cloning is cheap (everything is behind one `Arc`), so a server can
/// hand one clone to every worker thread.
#[derive(Debug, Clone)]
pub struct Session {
    shared: Arc<EngineShared>,
}

impl Session {
    /// Starts a builder with the paper's shipped defaults (RTX 4090,
    /// QuiP#-4 weights, CQ-4 KV, O4).
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// Internal constructor: a view over shared engine state.
    pub(crate) fn view(shared: Arc<EngineShared>) -> Session {
        Session { shared }
    }

    // --- accessors ---

    /// The target device.
    pub fn gpu(&self) -> &GpuSpec {
        &self.shared.gpu
    }

    /// The configured weight algorithm.
    pub fn weight_algo(&self) -> VqAlgorithm {
        self.shared.weight_algo
    }

    /// The configured KV-cache algorithm.
    pub fn kv_algo(&self) -> VqAlgorithm {
        self.shared.kv_algo
    }

    /// The configured optimization level.
    pub fn opt_level(&self) -> OptLevel {
        self.shared.opt
    }

    /// The configured model shape.
    pub fn model(&self) -> LlamaConfig {
        self.shared.model
    }

    /// The execution backend.
    pub fn backend(&self) -> &Arc<dyn Backend> {
        &self.shared.backend
    }

    /// The shared plan cache.
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.shared.plan_cache
    }

    /// Hit/miss counters of the shared plan cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.plan_cache.stats()
    }

    /// The quantization scheme this session's pipeline runs under.
    pub fn scheme(&self) -> QuantScheme {
        self.shared.scheme()
    }

    /// Attention-decode op at this session's model shape.
    pub fn attention_op(&self, seq: usize, batch: usize) -> ComputeOp {
        let m = &self.shared.model;
        ComputeOp::attention_decode(m.heads, m.head_dim, seq, batch)
    }

    // --- planning (memoized) ---

    /// Plans `op` under `vq` at the session's optimization level. Repeated
    /// calls with the same key return the same `Arc` from the cache.
    ///
    /// `O4` — the shipped fully-adaptive configuration — resolves to the
    /// adaptive best plan across the whole ladder, exactly as the
    /// end-to-end [`Pipeline`] does, so `plan`/`generate` agree on which
    /// kernel runs (and share one cache entry). Use [`Session::plan_at`]
    /// to pin the literal O4 rung instead.
    ///
    /// # Errors
    ///
    /// Returns [`VqLlmError::Planning`] when no launchable configuration
    /// exists.
    pub fn plan(&self, vq: &VqConfig, op: &ComputeOp) -> Result<Arc<KernelPlan>> {
        if self.shared.opt == OptLevel::O4 {
            // Plan only — skip best_plan()'s per-call latency estimate.
            self.cached_best_plan(vq, op, &AccessProfile::default_for(vq))
        } else {
            self.plan_at(vq, op, self.shared.opt)
        }
    }

    /// Plans at an explicit rung of the optimization ladder (memoized).
    ///
    /// # Errors
    ///
    /// Returns [`VqLlmError::Planning`] when no launchable configuration
    /// exists at that rung.
    pub fn plan_at(
        &self,
        vq: &VqConfig,
        op: &ComputeOp,
        level: OptLevel,
    ) -> Result<Arc<KernelPlan>> {
        let summary = ProfileSummary::default_for(vq);
        let key = PlanKey::with_identity(
            Arc::clone(&self.shared.gpu_identity),
            vq,
            op,
            PlanRequest::At(level),
            &summary,
        );
        self.shared.plan_cache.get_or_try_insert_with(key, || {
            self.shared
                .backend
                .plan_at(&self.shared.gpu, vq, op, level, &summary)
                .map_err(VqLlmError::from)
        })
    }

    /// Adaptive best plan across the ladder plus its latency estimate
    /// (memoized; the estimate is recomputed from the cached plan).
    ///
    /// # Errors
    ///
    /// Returns [`VqLlmError`] when no rung yields a launchable plan.
    pub fn best_plan(
        &self,
        vq: &VqConfig,
        op: &ComputeOp,
    ) -> Result<(Arc<KernelPlan>, KernelOutput)> {
        let profile = AccessProfile::default_for(vq);
        let plan = self.cached_best_plan(vq, op, &profile)?;
        let out = self
            .shared
            .backend
            .estimate(&self.shared.gpu, &plan, &profile);
        Ok((plan, out))
    }

    /// Memoized adaptive-best plan lookup under `profile` (the profile's
    /// fingerprint is part of the key: different distributions must not
    /// alias to one cached rung decision).
    fn cached_best_plan(
        &self,
        vq: &VqConfig,
        op: &ComputeOp,
        profile: &AccessProfile,
    ) -> Result<Arc<KernelPlan>> {
        let key = PlanKey::best(
            Arc::clone(&self.shared.gpu_identity),
            vq,
            op,
            profile.fingerprint(),
        );
        self.shared.plan_cache.get_or_try_insert_with(key, || {
            self.shared
                .backend
                .best_plan(&self.shared.gpu, vq, op, profile)
                .map(|(plan, _)| plan)
                .map_err(VqLlmError::from)
        })
    }

    /// [`Session::plan`] for the configured weight algorithm.
    ///
    /// # Errors
    ///
    /// See [`Session::plan`].
    pub fn weight_plan(&self, op: &ComputeOp) -> Result<Arc<KernelPlan>> {
        self.plan(&self.shared.weight_algo.config(), op)
    }

    /// [`Session::plan`] for the configured KV-cache algorithm.
    ///
    /// # Errors
    ///
    /// See [`Session::plan`].
    pub fn kv_plan(&self, op: &ComputeOp) -> Result<Arc<KernelPlan>> {
        self.plan(&self.shared.kv_algo.config(), op)
    }

    /// [`Session::best_plan`] for the configured weight algorithm.
    ///
    /// # Errors
    ///
    /// See [`Session::best_plan`].
    pub fn best_weight_plan(&self, op: &ComputeOp) -> Result<(Arc<KernelPlan>, KernelOutput)> {
        self.best_plan(&self.shared.weight_algo.config(), op)
    }

    /// [`Session::best_plan`] for the configured KV-cache algorithm.
    ///
    /// # Errors
    ///
    /// See [`Session::best_plan`].
    pub fn best_kv_plan(&self, op: &ComputeOp) -> Result<(Arc<KernelPlan>, KernelOutput)> {
        self.best_plan(&self.shared.kv_algo.config(), op)
    }

    // --- estimation & codegen ---

    /// Latency/counter estimate for a plan under a default access profile.
    pub fn estimate(&self, plan: &KernelPlan) -> KernelOutput {
        let profile = AccessProfile::default_for(&plan.vq);
        self.shared
            .backend
            .estimate(&self.shared.gpu, plan, &profile)
    }

    /// Latency/counter estimate under an explicit access profile.
    pub fn estimate_with(&self, plan: &KernelPlan, profile: &AccessProfile) -> KernelOutput {
        self.shared
            .backend
            .estimate(&self.shared.gpu, plan, profile)
    }

    /// Emits the CUDA-like source a GPU backend would compile for `plan`.
    pub fn emit(&self, plan: &KernelPlan) -> String {
        codegen::emit(plan)
    }

    // --- quantization ---

    /// Quantizes a weight tensor with the session's weight algorithm.
    ///
    /// # Errors
    ///
    /// Returns [`VqLlmError::Quantization`] on shape/config mismatches.
    pub fn quantize_weights(&self, w: &Tensor2D, seed: u64) -> Result<QuantizedTensor> {
        Ok(VqQuantizer::new(self.shared.weight_algo.config()).quantize(w, seed)?)
    }

    /// Quantizes a K or V cache tensor with the session's KV algorithm.
    ///
    /// # Errors
    ///
    /// Returns [`VqLlmError::Quantization`] on shape/config mismatches.
    pub fn quantize_kv(&self, kv: &Tensor2D, seed: u64) -> Result<QuantizedTensor> {
        Ok(VqQuantizer::new(self.shared.kv_algo.config()).quantize(kv, seed)?)
    }

    // --- functional execution ---

    /// Functionally executes a fused GeMM through the backend.
    ///
    /// # Errors
    ///
    /// Returns [`VqLlmError::Kernel`] on shape mismatches.
    pub fn run_gemm(
        &self,
        plan: &KernelPlan,
        a: &Tensor2D,
        wq: &QuantizedTensor,
    ) -> Result<(Tensor2D, KernelOutput)> {
        Ok(self
            .shared
            .backend
            .run_gemm(&self.shared.gpu, plan, a, wq)?)
    }

    /// Functionally executes a fused GeMV through the backend.
    ///
    /// # Errors
    ///
    /// Returns [`VqLlmError::Kernel`] on shape mismatches.
    pub fn run_gemv(
        &self,
        plan: &KernelPlan,
        x: &[f32],
        wq: &QuantizedTensor,
    ) -> Result<(Vec<f32>, KernelOutput)> {
        Ok(self
            .shared
            .backend
            .run_gemv(&self.shared.gpu, plan, x, wq)?)
    }

    /// Functionally executes one fused attention-decode head through the
    /// backend.
    ///
    /// # Errors
    ///
    /// Returns [`VqLlmError::Kernel`] on shape mismatches.
    pub fn run_attention_head(
        &self,
        plan: &KernelPlan,
        q: &[f32],
        kq: &QuantizedTensor,
        vq: &QuantizedTensor,
    ) -> Result<(Vec<f32>, KernelOutput)> {
        Ok(self
            .shared
            .backend
            .run_attention_head(&self.shared.gpu, plan, q, kq, vq)?)
    }

    /// Functionally executes one attention head for a batch of decode
    /// queries (`qs` is `batch × head_dim`, one row per in-flight
    /// sequence) over shared quantized K/V caches — the serving-layer
    /// shape. On a `CpuBackend` this is the fused batched kernel (one
    /// pass over the packed K codes for a whole lane block of queries,
    /// lane-wise softmax, and a value pass that never decodes a V row to
    /// memory); other backends run the dequantize-and-loop reference.
    ///
    /// # Errors
    ///
    /// Returns [`VqLlmError::Kernel`] on shape mismatches or an empty
    /// batch.
    pub fn run_attention_batch(
        &self,
        plan: &KernelPlan,
        qs: &Tensor2D,
        kq: &QuantizedTensor,
        vq: &QuantizedTensor,
    ) -> Result<(Tensor2D, KernelOutput)> {
        Ok(self
            .shared
            .backend
            .run_attention_batch(&self.shared.gpu, plan, qs, kq, vq)?)
    }

    /// Ragged batched attention decode: query `b` of `qs` attends only the
    /// first `lens[b]` cached tokens of the shared quantized K/V — the
    /// continuous-batching shape, where co-scheduled tenants sit at
    /// different positions in one cache. On a `CpuBackend` the K-decode is
    /// still shared across the whole batch.
    ///
    /// # Errors
    ///
    /// Returns [`VqLlmError::Kernel`] on shape mismatches, an empty batch,
    /// or a length outside `1..=seq`.
    pub fn run_attention_ragged(
        &self,
        plan: &KernelPlan,
        qs: &Tensor2D,
        lens: &[usize],
        kq: &QuantizedTensor,
        vq: &QuantizedTensor,
    ) -> Result<(Tensor2D, KernelOutput)> {
        Ok(self
            .shared
            .backend
            .run_attention_ragged(&self.shared.gpu, plan, qs, lens, kq, vq)?)
    }

    // --- end-to-end ---

    /// An end-to-end pipeline under an explicit scheme (FP16 / qServe /
    /// VQ-LLM), sharing this session's device, model, plan cache, **and
    /// backend**. The pipeline's latency projection itself is modelled
    /// (both shipped backends plan and estimate with the device model, so
    /// `generate` reports identical numbers); the backend matters for the
    /// functional `run_*` execution paths.
    pub fn pipeline(&self, scheme: QuantScheme) -> Pipeline {
        self.shared.pipeline(scheme)
    }

    /// Full generation run (prefill + decode) under this session's VQ-LLM
    /// scheme.
    pub fn generate(&self, prompt: usize, gen_tokens: usize, batch: usize) -> E2eReport {
        self.pipeline(self.scheme())
            .generate(prompt, gen_tokens, batch)
    }
}
