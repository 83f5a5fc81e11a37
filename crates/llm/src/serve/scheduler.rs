//! The single-context request scheduler: a thin compatibility facade over
//! the multi-context [`MultiServer`].
//!
//! [`Server`] is what `Session::serve` hands out — one shared
//! [`SharedContext`], bounded-queue admission, continuous batch
//! re-formation. Since the engine redesign all of that machinery lives in
//! [`MultiServer`] (requests tagged with a [`ContextHandle`], per-context
//! batch groups); a `Server` is a `MultiServer` with exactly one
//! registered context, planned under the same measured-profile keys an
//! `Engine` registration uses.
//!
//! [`MultiServer`]: crate::serve::MultiServer
//! [`ContextHandle`]: crate::serve::ContextHandle

use crate::pipeline::Pipeline;
use crate::serve::multi::{ContextHandle, MultiServer};
use crate::serve::request::{DecodeRequest, RequestHandle, RequestOutput, RequestStatus};
use crate::serve::{ServeConfig, SharedContext};
use crate::Result;
use std::sync::Arc;
use vqllm_core::KernelPlan;

pub use crate::serve::multi::{ServerStats, StepReport};

/// A batched request scheduler over one [`Pipeline`] and one
/// [`SharedContext`].
///
/// Construction plans two **canonical, batch-independent** kernel plans
/// through the pipeline's shared plan cache — one attention-decode shape
/// and one linear shape — and every step reuses them at whatever batch is
/// live. The host kernels read nothing from a plan and sum in one fixed
/// order: decode output is bitwise identical whether a request runs alone
/// or co-scheduled (`tests/serving.rs` pins this).
///
/// Drive it with [`Server::step`] (one batched decode step, deterministic)
/// or [`Server::run_until_drained`].
#[derive(Debug)]
pub struct Server {
    inner: MultiServer,
    handle: ContextHandle,
}

impl Server {
    /// Builds a server: validates the config and plans the canonical
    /// decode shapes once through the shared warm-up helper (both plans
    /// are memoized in the pipeline's shared `PlanCache`, so sibling
    /// servers — and the `Session`/`Engine` facades — reuse them: a
    /// second construction over the same context is a pure cache hit).
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::InvalidConfig`] on a degenerate config or when
    /// no launchable plan exists for the serving shapes.
    ///
    /// [`LlmError::InvalidConfig`]: crate::LlmError::InvalidConfig
    pub fn new(pipeline: Pipeline, ctx: SharedContext, config: ServeConfig) -> Result<Server> {
        let mut inner = MultiServer::new(pipeline, config)?;
        let handle = inner.register_context(ctx)?;
        Ok(Server { inner, handle })
    }

    // --- accessors ---

    /// The admission/batching limits.
    pub fn config(&self) -> ServeConfig {
        self.inner.config()
    }

    /// The handle of this server's single registered context (valid for
    /// the underlying [`MultiServer`] API).
    pub fn context_handle(&self) -> ContextHandle {
        self.handle
    }

    /// The shared quantized context.
    pub fn context(&self) -> &SharedContext {
        self.inner
            .context(self.handle)
            .expect("server always has its context registered")
    }

    /// The canonical attention plan every step executes (the parity
    /// harness runs its batch-of-one references through the same plan).
    pub fn attention_plan(&self) -> &Arc<KernelPlan> {
        self.inner
            .attention_plan(self.handle)
            .expect("server always has its context registered")
    }

    /// The canonical linear plan every step executes.
    pub fn linear_plan(&self) -> &Arc<KernelPlan> {
        self.inner
            .linear_plan(self.handle)
            .expect("server always has its context registered")
    }

    /// Requests waiting for a slot.
    pub fn queued(&self) -> usize {
        self.inner.queued()
    }

    /// Requests currently holding a decode slot.
    pub fn running(&self) -> usize {
        self.inner.running()
    }

    /// Whether no request is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.inner.is_idle()
    }

    /// Cumulative counters.
    pub fn stats(&self) -> ServerStats {
        self.inner.stats()
    }

    /// Where a submitted request currently is.
    pub fn status(&self, handle: &RequestHandle) -> RequestStatus {
        self.inner.poll(handle)
    }

    /// The output of a finished request, if ready.
    pub fn output(&self, handle: &RequestHandle) -> Option<&RequestOutput> {
        self.inner.output(handle)
    }

    /// Removes and returns the output of a finished request.
    pub fn take_output(&mut self, handle: &RequestHandle) -> Option<RequestOutput> {
        self.inner.take_output(handle)
    }

    /// The rows a live request has decoded so far (see
    /// [`MultiServer::partial_output`]).
    pub fn partial_output(&self, handle: &RequestHandle) -> Option<&[Vec<f32>]> {
        self.inner.partial_output(handle)
    }

    /// Cancels a live request, freeing its slot or queue entry (see
    /// [`MultiServer::cancel`]).
    pub fn cancel(&mut self, handle: &RequestHandle) -> bool {
        self.inner.cancel(handle)
    }

    // --- admission ---

    /// Admits a request into the bounded queue.
    ///
    /// Admission validates everything growth-related up front, so a
    /// request that enters the queue is guaranteed to complete: the query
    /// width must match the context, and the final attended length must
    /// fit both the shared context and the model's window.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::InvalidRequest`] or [`LlmError::KvCapacity`]
    /// for malformed/unservable requests and [`LlmError::QueueFull`] when
    /// the queue is at [`ServeConfig::max_queue`]. Every error counts as
    /// an explicit rejection in [`ServerStats::rejected`]; nothing is
    /// dropped silently.
    ///
    /// [`LlmError::InvalidRequest`]: crate::LlmError::InvalidRequest
    /// [`LlmError::KvCapacity`]: crate::LlmError::KvCapacity
    /// [`LlmError::QueueFull`]: crate::LlmError::QueueFull
    pub fn submit(&mut self, req: DecodeRequest) -> Result<RequestHandle> {
        self.inner.try_submit(self.handle, req)
    }

    // --- the decode loop ---

    /// One scheduler step: re-form the batch (finished requests already
    /// left their slots; queued requests take free ones), then run one
    /// batched ragged-attention decode and one batched linear projection
    /// for every live request.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::Kernel`] if a kernel rejects its inputs (the
    /// admission invariants make this unreachable under normal use).
    ///
    /// [`LlmError::Kernel`]: crate::LlmError::Kernel
    pub fn step(&mut self) -> Result<StepReport> {
        self.inner.step()
    }

    /// Steps until every submitted request has completed, returning the
    /// per-step reports.
    ///
    /// # Errors
    ///
    /// Propagates the first [`Server::step`] error.
    pub fn run_until_drained(&mut self) -> Result<Vec<StepReport>> {
        self.inner.run_until_drained()
    }
}
