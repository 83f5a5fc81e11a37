//! The `Engine`: the multi-context serving entry point.
//!
//! A [`Session`](crate::Session) binds one configuration to *one* view of
//! the framework; an [`Engine`] owns the whole serving side of it — one
//! backend, one shared [`PlanCache`], and a **registry of quantized
//! contexts** ([`Engine::register_context`]), with the typed request
//! lifecycle the serving layer is built around:
//!
//! ```text
//! Engine::submit(ctx, req) -> RequestHandle
//! Engine::poll(&handle)    -> Queued | Running | Finished{tokens} | Rejected{reason}
//! Engine::step()           -> one decode step across every live context group
//! ```
//!
//! Every [`Engine::step`] re-forms the decode batch per context group:
//! slots (`max_batch`) and the bounded queue are shared engine-wide, and
//! each live group runs one shared-K-decode ragged attention pass plus
//! one batched linear through that context's canonical plans. Contexts
//! are planned once, from **measured** access histograms at registration
//! (closing the `ProfileSummary::default_for` placeholder); a step never
//! plans, and the host kernels read nothing from a plan.
//!
//! ```
//! use vq_llm::tensor::synth;
//! use vq_llm::{DecodeRequest, Engine, RequestStatus, SharedContext, VqAlgorithm};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut engine = Engine::builder()
//!     .weight_algo(VqAlgorithm::Gptvq2)
//!     .kv_algo(VqAlgorithm::Cq4)
//!     .build()?;
//! let session = engine.session_unbound();
//! let ctx = SharedContext::new(
//!     session.quantize_kv(&synth::kv_stream(320, 32, 0.85, 1), 1)?,
//!     session.quantize_kv(&synth::kv_stream(320, 32, 0.85, 2), 2)?,
//!     session.quantize_weights(&synth::correlated_channels(32, 32, 4, 0.9, 3), 3)?,
//! )?;
//! let handle = engine.register_context(ctx)?;
//! let req = DecodeRequest::new(7, vec![0.1; 32], 8, 3);
//! let ticket = engine.submit(handle, req);
//! engine.run_until_drained()?;
//! assert_eq!(engine.poll(&ticket), RequestStatus::Finished { tokens: 3 });
//! let out = engine.take_output(&ticket).expect("finished");
//! assert_eq!(out.steps.len(), 3);
//! # Ok(())
//! # }
//! ```

use crate::backend::{Backend, BackendKind, PerfModelBackend};
use crate::error::{Result, VqLlmError};
use crate::session::Session;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use vqllm_core::plan_cache::{self, CacheStats, PlanCache};
use vqllm_core::OptLevel;
use vqllm_gpu::GpuSpec;
use vqllm_llm::serve::{ContextHandle, ContextStats, MultiServer};
use vqllm_llm::{
    DecodeRequest, LlamaConfig, Pipeline, QuantScheme, RequestHandle, RequestOutput, RequestStatus,
    ServeConfig, ServerStats, SharedContext, StepReport,
};
use vqllm_vq::VqAlgorithm;

/// The configuration + substrate every view of an engine shares: device,
/// algorithms, optimization level, model shape, execution backend, and
/// the memoizing plan cache. `Session`s are thin `Arc`'d views over this.
#[derive(Debug)]
pub(crate) struct EngineShared {
    pub(crate) gpu: GpuSpec,
    /// Precomputed full-spec cache identity ([`plan_cache::gpu_identity`])
    /// so cache lookups don't re-render the spec.
    pub(crate) gpu_identity: Arc<str>,
    pub(crate) weight_algo: VqAlgorithm,
    pub(crate) kv_algo: VqAlgorithm,
    pub(crate) opt: OptLevel,
    pub(crate) model: LlamaConfig,
    pub(crate) backend: Arc<dyn Backend>,
    pub(crate) plan_cache: Arc<PlanCache>,
}

impl EngineShared {
    /// The quantization scheme this configuration runs under.
    pub(crate) fn scheme(&self) -> QuantScheme {
        QuantScheme::VqLlm {
            weight: self.weight_algo,
            kv: self.kv_algo,
            opt: self.opt,
        }
    }

    /// A pipeline sharing this configuration's device, model, plan cache,
    /// and backend.
    pub(crate) fn pipeline(&self, scheme: QuantScheme) -> Pipeline {
        Pipeline::with_cache(
            self.gpu.clone(),
            self.model,
            scheme,
            Arc::clone(&self.plan_cache),
        )
        .with_backend(Arc::clone(&self.backend))
    }
}

/// Builder for [`Engine`] (see [`Engine::builder`]).
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    gpu: GpuSpec,
    weight_algo: VqAlgorithm,
    kv_algo: VqAlgorithm,
    opt: OptLevel,
    model: LlamaConfig,
    backend: Option<Arc<dyn Backend>>,
    plan_cache: Option<Arc<PlanCache>>,
    serve: ServeConfig,
    plan_cache_path: Option<PathBuf>,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder {
            gpu: GpuSpec::rtx4090(),
            weight_algo: VqAlgorithm::QuipSharp4,
            kv_algo: VqAlgorithm::Cq4,
            opt: OptLevel::O4,
            model: LlamaConfig::llama_7b(),
            backend: None,
            plan_cache: None,
            serve: ServeConfig::default(),
            plan_cache_path: None,
        }
    }
}

impl EngineBuilder {
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

    /// Model shape for end-to-end projections and KV-window validation
    /// (default: Llama-7B).
    pub fn model(mut self, model: LlamaConfig) -> Self {
        self.model = model;
        self
    }

    /// Execution backend (default: [`PerfModelBackend`]).
    pub fn backend(mut self, backend: Arc<dyn Backend>) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Selects one of the shipped backends by kind.
    pub fn backend_kind(self, kind: BackendKind) -> Self {
        self.backend(kind.instantiate())
    }

    /// Shortcut for `backend_kind(BackendKind::Cpu { threads })`: real
    /// host execution with `threads` worker partitions (`0` = the
    /// machine's available parallelism).
    pub fn cpu_threads(self, threads: usize) -> Self {
        self.backend_kind(BackendKind::Cpu { threads })
    }

    /// Shares an existing plan cache (default: a fresh empty cache).
    pub fn plan_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.plan_cache = Some(cache);
        self
    }

    /// Engine-wide admission and batching limits (default: batch 8,
    /// queue 64).
    pub fn serve_config(mut self, serve: ServeConfig) -> Self {
        self.serve = serve;
        self
    }

    /// Persists the plan cache at `path`: if the file exists when the
    /// engine is built, its entries are loaded so registration skips the
    /// cold-start planning pass, and [`Engine::save_plan_cache`] writes
    /// the warmed cache back to the same path.
    pub fn plan_cache_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.plan_cache_path = Some(path.into());
        self
    }

    /// Validates the configuration and builds the engine.
    ///
    /// # Errors
    ///
    /// Returns [`VqLlmError::InvalidSession`] on an invalid
    /// device/algorithm combination and [`VqLlmError::Persistence`] when a
    /// configured plan-cache file exists but cannot be read.
    pub fn build(self) -> Result<Engine> {
        let shared = build_shared(
            self.gpu,
            self.weight_algo,
            self.kv_algo,
            self.opt,
            self.model,
            self.backend,
            self.plan_cache,
        )?;
        if let Some(path) = &self.plan_cache_path {
            if path.exists() {
                shared
                    .plan_cache
                    .load_from(path)
                    .map_err(|e| VqLlmError::Persistence {
                        what: "loading the plan cache",
                        detail: format!("{}: {e}", path.display()),
                    })?;
            }
        }
        let server = MultiServer::new(shared.pipeline(shared.scheme()), self.serve)?;
        Ok(Engine {
            shared,
            server,
            plan_cache_path: self.plan_cache_path,
        })
    }
}

/// Validates the shared configuration (one validation path for both the
/// [`Engine`] and the [`Session`](crate::Session) builders).
pub(crate) fn build_shared(
    gpu: GpuSpec,
    weight_algo: VqAlgorithm,
    kv_algo: VqAlgorithm,
    opt: OptLevel,
    model: LlamaConfig,
    backend: Option<Arc<dyn Backend>>,
    cache: Option<Arc<PlanCache>>,
) -> Result<Arc<EngineShared>> {
    if !weight_algo.is_weight_algorithm() {
        return Err(VqLlmError::InvalidSession {
            what: "weight_algo",
            detail: format!(
                "{} is a KV-cache algorithm; expected one of {:?}",
                weight_algo.name(),
                VqAlgorithm::WEIGHT.map(|a| a.name()),
            ),
        });
    }
    if kv_algo.is_weight_algorithm() {
        return Err(VqLlmError::InvalidSession {
            what: "kv_algo",
            detail: format!(
                "{} is a weight algorithm; expected one of {:?}",
                kv_algo.name(),
                VqAlgorithm::KV_CACHE.map(|a| a.name()),
            ),
        });
    }
    if gpu.num_sms == 0 || gpu.dram_bw_gbps <= 0.0 {
        return Err(VqLlmError::InvalidSession {
            what: "gpu",
            detail: format!("degenerate device description: {gpu}"),
        });
    }
    Ok(Arc::new(EngineShared {
        gpu_identity: plan_cache::gpu_identity(&gpu),
        gpu,
        weight_algo,
        kv_algo,
        opt,
        model,
        backend: backend.unwrap_or_else(|| Arc::new(PerfModelBackend)),
        plan_cache: cache.unwrap_or_default(),
    }))
}

/// A multi-context serving engine: one backend + one shared plan cache +
/// a registry of quantized contexts, driven by the typed
/// submit/poll/step lifecycle.
///
/// [`Engine::session`] hands out [`Session`] views — the single-context
/// compatibility facade — sharing this engine's backend, plan cache, and
/// configuration.
#[derive(Debug)]
pub struct Engine {
    shared: Arc<EngineShared>,
    server: MultiServer,
    plan_cache_path: Option<PathBuf>,
}

impl Engine {
    /// Starts a builder with the paper's shipped defaults (RTX 4090,
    /// QuiP#-4 weights, CQ-4 KV, O4).
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    // --- configuration accessors ---

    /// The target device.
    pub fn gpu(&self) -> &GpuSpec {
        &self.shared.gpu
    }

    /// The configured model shape.
    pub fn model(&self) -> LlamaConfig {
        self.shared.model
    }

    /// The quantization scheme the engine serves under.
    pub fn scheme(&self) -> QuantScheme {
        self.shared.scheme()
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

    /// The engine-wide admission/batching limits.
    pub fn serve_config(&self) -> ServeConfig {
        self.server.config()
    }

    // --- the context registry ---

    /// Registers a quantized context: warms its canonical plans in the
    /// shared plan cache (from its measured access profiles) and returns
    /// the typed handle requests are tagged with.
    ///
    /// # Errors
    ///
    /// Returns [`VqLlmError::Pipeline`] when no launchable plan exists
    /// for the context's serving shapes.
    pub fn register_context(&mut self, ctx: SharedContext) -> Result<ContextHandle> {
        Ok(self.server.register_context(ctx)?)
    }

    /// Registered contexts.
    pub fn context_count(&self) -> usize {
        self.server.context_count()
    }

    /// The shared quantized context behind a handle.
    pub fn context(&self, handle: ContextHandle) -> Option<&SharedContext> {
        self.server.context(handle)
    }

    /// Counters of a registered context (requests admitted, completed,
    /// cancelled and quarantined; steps served).
    pub fn context_stats(&self, handle: ContextHandle) -> Option<ContextStats> {
        self.server.context_stats(handle)
    }

    /// The canonical attention plan a context's batch groups execute.
    pub fn attention_plan(&self, handle: ContextHandle) -> Option<&Arc<vqllm_core::KernelPlan>> {
        self.server.attention_plan(handle)
    }

    /// The canonical linear plan a context's batch groups execute.
    pub fn linear_plan(&self, handle: ContextHandle) -> Option<&Arc<vqllm_core::KernelPlan>> {
        self.server.linear_plan(handle)
    }

    // --- sessions ---

    /// A [`Session`] view bound to a registered context: it shares this
    /// engine's backend, plan cache, and configuration, and exposes the
    /// single-context API (`serve`, `quantize_*`, `run_*`) against that
    /// context.
    ///
    /// # Errors
    ///
    /// Returns [`VqLlmError::Pipeline`] with
    /// [`LlmError::UnknownContext`](vqllm_llm::LlmError::UnknownContext)
    /// when the handle was not issued by this engine.
    pub fn session(&self, handle: ContextHandle) -> Result<Session> {
        let ctx = self
            .server
            .context(handle)
            .ok_or(VqLlmError::Pipeline(vqllm_llm::LlmError::UnknownContext {
                id: handle.id(),
            }))?
            .clone();
        Ok(Session::view(Arc::clone(&self.shared), Some((handle, ctx))))
    }

    /// An unbound [`Session`] view (no context attached) sharing this
    /// engine's backend, plan cache, and configuration — the planning /
    /// quantization front end.
    pub fn session_unbound(&self) -> Session {
        Session::view(Arc::clone(&self.shared), None)
    }

    // --- the typed request lifecycle ---

    /// Submits a decode request against a registered context. **Never
    /// fails**: a refused request gets a handle whose [`Engine::poll`]
    /// reports [`RequestStatus::Rejected`] with the typed reason.
    pub fn submit(&mut self, ctx: ContextHandle, req: DecodeRequest) -> RequestHandle {
        self.server.submit(ctx, req)
    }

    /// Submits a decode request, erroring on refusal (the `Result`-shaped
    /// twin of [`Engine::submit`]).
    ///
    /// # Errors
    ///
    /// Returns [`VqLlmError::Pipeline`] carrying the admission error.
    pub fn try_submit(&mut self, ctx: ContextHandle, req: DecodeRequest) -> Result<RequestHandle> {
        Ok(self.server.try_submit(ctx, req)?)
    }

    /// Where a submitted request currently is in its typed lifecycle.
    pub fn poll(&self, handle: &RequestHandle) -> RequestStatus {
        self.server.poll(handle)
    }

    /// The output of a finished request, if ready.
    pub fn output(&self, handle: &RequestHandle) -> Option<&RequestOutput> {
        self.server.output(handle)
    }

    /// Removes and returns the output of a finished request.
    pub fn take_output(&mut self, handle: &RequestHandle) -> Option<RequestOutput> {
        self.server.take_output(handle)
    }

    /// The hidden-state rows a live request has decoded so far — the
    /// streaming seam the network driver diffs after every step (see
    /// [`MultiServer::partial_output`](vqllm_llm::MultiServer::partial_output)).
    pub fn partial_output(&self, handle: &RequestHandle) -> Option<&[Vec<f32>]> {
        self.server.partial_output(handle)
    }

    /// Cancels a live request: frees its decode slot or queue entry and
    /// resolves the handle to [`RequestStatus::Rejected`] with
    /// [`RejectReason::Cancelled`](vqllm_llm::RejectReason::Cancelled).
    /// Returns `false` (and changes nothing) when the request is not live.
    pub fn cancel(&mut self, handle: &RequestHandle) -> bool {
        self.server.cancel(handle)
    }

    /// Cancels every live request in one sweep — the escalation a
    /// graceful drain applies when its deadline passes with work still in
    /// flight. Returns how many queued or running requests were
    /// cancelled; finished outputs stay collectable.
    pub fn cancel_all(&mut self) -> usize {
        self.server.cancel_all()
    }

    /// One decode step across every live context group.
    ///
    /// # Errors
    ///
    /// Returns [`VqLlmError::Kernel`] if a kernel rejects its inputs (the
    /// admission invariants make this unreachable under normal use).
    pub fn step(&mut self) -> Result<StepReport> {
        Ok(self.server.step()?)
    }

    /// Steps until every submitted request has finished.
    ///
    /// # Errors
    ///
    /// Propagates the first [`Engine::step`] error.
    pub fn run_until_drained(&mut self) -> Result<Vec<StepReport>> {
        Ok(self.server.run_until_drained()?)
    }

    /// Requests waiting for a slot.
    pub fn queued(&self) -> usize {
        self.server.queued()
    }

    /// Requests currently holding a decode slot.
    pub fn running(&self) -> usize {
        self.server.running()
    }

    /// Whether no request is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.server.is_idle()
    }

    /// Cumulative scheduler counters.
    pub fn stats(&self) -> ServerStats {
        self.server.stats()
    }

    // --- plan-cache persistence ---

    /// Writes the warmed plan cache to the path configured via
    /// [`EngineBuilder::plan_cache_path`], so the next engine built with
    /// the same path skips cold-start planning. Returns the number of
    /// entries written.
    ///
    /// # Errors
    ///
    /// Returns [`VqLlmError::Persistence`] when no path is configured or
    /// the file cannot be written.
    pub fn save_plan_cache(&self) -> Result<usize> {
        let Some(path) = &self.plan_cache_path else {
            return Err(VqLlmError::Persistence {
                what: "saving the plan cache",
                detail: "no plan_cache_path configured on the builder".to_string(),
            });
        };
        self.save_plan_cache_to(path)
    }

    /// Writes the warmed plan cache to an explicit path.
    ///
    /// # Errors
    ///
    /// Returns [`VqLlmError::Persistence`] when the file cannot be
    /// written.
    pub fn save_plan_cache_to(&self, path: impl AsRef<Path>) -> Result<usize> {
        let path = path.as_ref();
        self.shared
            .plan_cache
            .save_to(path)
            .map_err(|e| VqLlmError::Persistence {
                what: "saving the plan cache",
                detail: format!("{}: {e}", path.display()),
            })
    }
}
