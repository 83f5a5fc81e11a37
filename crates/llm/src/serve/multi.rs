//! The multi-context scheduler: one engine-wide queue and slot pool over a
//! registry of quantized contexts, with per-context canonical plans made
//! once, at registration, from measured access profiles.
//!
//! This is the generalization the single-context [`Server`] grew out of
//! (and now delegates to): requests are tagged with a [`ContextHandle`] at
//! submission, and every [`MultiServer::step`] re-forms the decode batch
//! **per context group** — the running set is partitioned by context, and
//! each live group runs one shared-K-decode ragged attention pass plus one
//! batched linear through that context's own canonical plans. Slots
//! (`max_batch`) and the bounded queue (`max_queue`) are shared across all
//! contexts, so one engine serves EVA/VecInfer-style traffic fanning out
//! over several quantized caches at once without per-context servers.
//!
//! **Registration profile**: a context's canonical plans are made from the
//! **measured** access histograms of its packed K codes and projection
//! weight, profiled once when it registers; a step never profiles, plans
//! or touches the `PlanCache`. The plans key the modelled counters a
//! backend reports — the host kernels read nothing else from them.
//!
//! [`Server`]: crate::serve::Server

use crate::kv::KvCache;
use crate::pipeline::{Pipeline, QuantScheme};
use crate::serve::request::{
    DecodeRequest, RejectReason, RequestHandle, RequestId, RequestOutput, RequestStatus,
};
use crate::serve::tenant_kv::TenantKv;
use crate::serve::{KvQuantMode, ServeConfig, SharedContext};
use crate::{LlmError, Result};
use serde::Serialize;
use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use vqllm_core::failpoint;
use vqllm_core::{ComputeOp, KernelPlan, OptLevel, ProfileSummary};
use vqllm_kernels::host_exec::AttentionBatch;
use vqllm_kernels::AccessProfile;
use vqllm_tensor::Tensor2D;
use vqllm_vq::stats::AccessHistogram;
use vqllm_vq::QuantizedTensor;

/// Typed handle to a registered quantized context. Handles are only
/// meaningful to the [`MultiServer`] (or engine) that issued them: each
/// carries the issuing scheduler's process-unique nonce, so a handle from
/// a *different* engine — even one whose registry index happens to be in
/// range — is rejected as [`RejectReason::UnknownContext`] instead of
/// silently decoding against the wrong context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ContextHandle {
    /// Nonce of the issuing scheduler.
    pub(crate) engine: u32,
    /// Registry index within that scheduler.
    pub(crate) id: u32,
}

impl ContextHandle {
    /// The engine-assigned id.
    pub fn id(&self) -> u64 {
        self.id as u64
    }

    /// A handle no live scheduler will ever accept (the nonce matches no
    /// engine) — for tests of layers that carry handles without resolving
    /// them.
    #[doc(hidden)]
    pub fn detached(id: u32) -> ContextHandle {
        ContextHandle {
            engine: u32::MAX,
            id,
        }
    }
}

/// Per-context counters, cheap to copy out for reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ContextStats {
    /// Requests admitted against this context.
    pub submitted: u64,
    /// Requests fully decoded against this context.
    pub completed: u64,
    /// Requests cancelled after admission against this context.
    pub cancelled: u64,
    /// Decode steps this context's group participated in.
    pub steps: u64,
    /// Requests quarantined mid-decode against this context by the
    /// fault-containment layer (contained panics, forced KV failures).
    pub quarantined: u64,
}

/// The canonical, batch-independent kernel plans of one context.
#[derive(Debug, Clone)]
struct CanonicalPlans {
    attn: Arc<KernelPlan>,
    linear: Arc<KernelPlan>,
}

/// Plans the two canonical serving shapes of `ctx` — attention decode at
/// batch 1 over the full cached sequence, and the `head_dim × head_dim`
/// projection GeMV — through the pipeline's shared `PlanCache`, each under
/// its tensor's [`measured`] profile. Every front end (single-context
/// `Server`, multi-context `MultiServer`/engine) registers through here,
/// so sibling registrations of the same context are pure cache hits.
fn warm_canonical_plans(
    pipeline: &Pipeline,
    ctx: &SharedContext,
    opt: OptLevel,
) -> Result<CanonicalPlans> {
    let plan = |q: &QuantizedTensor, op: ComputeOp, what| {
        let (profile, summary) = measured(q);
        pipeline
            .vq_plan_profiled(q.config(), &op, opt, &profile, &summary)
            .ok_or(LlmError::InvalidConfig { what })
    };
    let head_dim = ctx.head_dim();
    Ok(CanonicalPlans {
        attn: plan(
            ctx.kq(),
            ComputeOp::attention_decode(1, head_dim, ctx.seq(), 1),
            "no launchable plan for the serving attention shape",
        )?,
        linear: plan(
            ctx.wq(),
            ComputeOp::Gemv {
                n: head_dim,
                k: head_dim,
                batch: 1,
            },
            "no launchable plan for the serving linear shape",
        )?,
    })
}

/// The optimization level a scheme's serving plans are made at.
fn serve_opt_level(scheme: &QuantScheme) -> OptLevel {
    match scheme {
        QuantScheme::VqLlm { opt, .. } => *opt,
        _ => OptLevel::O4,
    }
}

/// Measured registration profile of a quantized tensor: histogram of
/// residual round 0 over the whole tensor (the paper's tensor-level
/// reordering choice, Fig. 9).
fn measured(q: &QuantizedTensor) -> (AccessProfile, ProfileSummary) {
    let hist = AccessHistogram::profile(q, 0);
    (
        AccessProfile::from_histogram(&hist),
        ProfileSummary::from_histogram(&hist),
    )
}

/// One registered context's live state.
#[derive(Debug)]
struct ContextState {
    ctx: SharedContext,
    plans: CanonicalPlans,
    stats: ContextStats,
}

/// One request's live scheduler state.
#[derive(Debug)]
struct Active {
    id: RequestId,
    ctx: ContextHandle,
    tenant: u64,
    /// Current query/hidden state (`head_dim` wide); rewritten each step
    /// from the projected decode output, so the stream is data-dependent.
    h: Vec<f32>,
    /// Per-tenant cache descriptor: `seq` counts this tenant's attended
    /// tokens, and growth is validated against the model's window.
    kv: KvCache,
    /// The fixed shared-context prefix this tenant attends. With live KV
    /// off, the attended prefix is `kv.seq` (teacher-forced growth over
    /// the shared context); with it on, the prefix stays pinned here and
    /// appended tokens live in `live`.
    prefix_len: usize,
    /// The private live KV cache (`None` when [`KvQuantMode::Off`]).
    live: Option<TenantKv>,
    remaining: usize,
    steps: Vec<Vec<f32>>,
    kv_quant_us: f64,
    submitted_step: u64,
}

/// What one [`MultiServer::step`] did.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StepReport {
    /// Scheduler step index (monotonic, counts non-idle steps and idle
    /// polls alike).
    pub step: u64,
    /// Requests decoded this step (0 = the server was idle).
    pub batch: usize,
    /// Live context groups the batch was partitioned into this step
    /// (one ragged-attention + one GeMM kernel pass each).
    pub groups: usize,
    /// Requests admitted from the queue into the batch this step.
    pub admitted: Vec<RequestId>,
    /// Requests that decoded their last token this step.
    pub finished: Vec<RequestId>,
    /// Requests still waiting after this step.
    pub queued: usize,
    /// KV-quantization overhead charged across the batch this step,
    /// microseconds.
    pub kv_quant_us: f64,
    /// Requests quarantined this step by the fault-containment layer:
    /// their group panicked or their KV append failed, they left the
    /// running set, and they poll as `Rejected` with a typed reason.
    pub quarantined: Vec<RequestId>,
}

/// Cumulative scheduler counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct ServerStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests refused at admission (sum of the per-reason counters
    /// below).
    pub rejected: u64,
    /// Admission refusals because the bounded queue was at `max_queue`.
    pub rejected_queue_full: u64,
    /// Admission refusals for malformed/unservable requests.
    pub rejected_invalid: u64,
    /// Admission refusals that would outgrow the model's KV window.
    pub rejected_kv_capacity: u64,
    /// Admission refusals naming a handle this engine never issued.
    pub rejected_unknown_context: u64,
    /// Requests cancelled *after* admission ([`MultiServer::cancel`]) —
    /// counted separately from `rejected`, which is admission-time only.
    pub cancelled: u64,
    /// Requests fully decoded.
    pub completed: u64,
    /// Decode steps executed (non-idle).
    pub steps: u64,
    /// Tokens decoded across all requests.
    pub decoded_tokens: u64,
    /// Requests quarantined mid-decode by the fault-containment layer —
    /// counted separately from `rejected` (admission-time) and
    /// `cancelled` (caller-initiated).
    pub quarantined: u64,
    /// Live-KV tokens folded into packed codes across retired requests.
    pub kv_folded_tokens: u64,
    /// Column groups that kept their exact residual in the live-KV
    /// outlier channel across retired requests (K and V combined).
    pub kv_outlier_groups: u64,
    /// Accumulated squared fold error across retired requests' live KV
    /// (numerator of [`ServerStats::kv_nmse`]).
    pub kv_err_sq: f64,
    /// Accumulated squared norm of everything those requests folded
    /// (denominator of [`ServerStats::kv_nmse`]).
    pub kv_data_sq: f64,
}

impl ServerStats {
    /// Mean decode-batch occupancy across non-idle steps.
    pub fn mean_batch(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.decoded_tokens as f64 / self.steps as f64
        }
    }

    /// Engine-wide normalized live-KV fold error across retired requests
    /// (0.0 with live KV off or nothing folded) — feed to
    /// [`accuracy::project_kv_accuracy`](crate::accuracy::project_kv_accuracy).
    pub fn kv_nmse(&self) -> f64 {
        if self.kv_data_sq <= 0.0 {
            0.0
        } else {
            self.kv_err_sq / self.kv_data_sq
        }
    }
}

/// A batched request scheduler over one [`Pipeline`] and **many**
/// registered [`SharedContext`]s.
///
/// Each context registers once ([`MultiServer::register_context`]) and
/// gets canonical, batch-independent kernel plans through the pipeline's
/// shared `PlanCache`; every step reuses them at whatever per-context
/// group is live. The host kernels read nothing from a plan and are
/// lane-stable across batch widths, so decode output is bitwise identical
/// whether a request runs alone on a single-context server or
/// co-scheduled in a mixed-context batch (`tests/serving.rs` pins this).
///
/// Drive it with [`MultiServer::step`] (one batched decode step,
/// deterministic) or [`MultiServer::run_until_drained`].
#[derive(Debug)]
pub struct MultiServer {
    pipeline: Pipeline,
    config: ServeConfig,
    opt: OptLevel,
    /// Process-unique identity stamped into every issued
    /// [`ContextHandle`] and verified on use.
    nonce: u32,
    contexts: Vec<ContextState>,
    queue: VecDeque<Active>,
    running: Vec<Active>,
    finished: HashMap<RequestId, RequestOutput>,
    /// Rejection tombstones so refused handles poll as `Rejected` with
    /// their reason. **Bounded** ([`REJECTED_TOMBSTONE_CAP`], FIFO
    /// eviction via `rejected_order`): a long-lived engine under
    /// sustained queue pressure must not grow without limit, so the
    /// oldest records age out and poll as `Unknown` thereafter.
    rejected: HashMap<RequestId, RejectReason>,
    rejected_order: VecDeque<RequestId>,
    next_id: RequestId,
    step: u64,
    stats: ServerStats,
}

/// Most rejection tombstones retained for [`MultiServer::poll`]; the
/// cumulative count stays in [`ServerStats::rejected`] forever.
pub const REJECTED_TOMBSTONE_CAP: usize = 1024;

impl MultiServer {
    /// Builds an empty multi-context scheduler (no contexts registered
    /// yet).
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::InvalidConfig`] on a degenerate config.
    pub fn new(pipeline: Pipeline, config: ServeConfig) -> Result<MultiServer> {
        config.validate()?;
        let opt = serve_opt_level(pipeline.scheme());
        static NONCE: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(1);
        Ok(MultiServer {
            pipeline,
            config,
            opt,
            nonce: NONCE.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            contexts: Vec::new(),
            queue: VecDeque::new(),
            running: Vec::new(),
            finished: HashMap::new(),
            rejected: HashMap::new(),
            rejected_order: VecDeque::new(),
            next_id: 1,
            step: 0,
            stats: ServerStats::default(),
        })
    }

    /// Registers a quantized context and warms its canonical plans in the
    /// shared `PlanCache`, made from the context's **measured** access
    /// histograms (profiled off its packed K codes and projection weight).
    /// The plans are fixed from here on.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::InvalidConfig`] when no launchable plan exists
    /// for the context's serving shapes.
    pub fn register_context(&mut self, ctx: SharedContext) -> Result<ContextHandle> {
        let plans = warm_canonical_plans(&self.pipeline, &ctx, self.opt)?;
        let engine = self.nonce;
        let id = u32::try_from(self.contexts.len()).map_err(|_| LlmError::InvalidConfig {
            what: "context registry overflow",
        })?;
        self.contexts.push(ContextState {
            ctx,
            plans,
            stats: ContextStats::default(),
        });
        Ok(ContextHandle { engine, id })
    }

    /// Resolves a handle, verifying it was issued by this scheduler (the
    /// nonce check catches cross-engine handles whose index happens to be
    /// in range).
    fn state(&self, handle: ContextHandle) -> Option<&ContextState> {
        if handle.engine != self.nonce {
            return None;
        }
        self.contexts.get(handle.id as usize)
    }

    // --- accessors ---

    /// The admission/batching limits.
    pub fn config(&self) -> ServeConfig {
        self.config
    }

    /// Registered contexts.
    pub fn context_count(&self) -> usize {
        self.contexts.len()
    }

    /// The shared quantized context behind a handle.
    pub fn context(&self, handle: ContextHandle) -> Option<&SharedContext> {
        self.state(handle).map(|s| &s.ctx)
    }

    /// The counters of a context.
    pub fn context_stats(&self, handle: ContextHandle) -> Option<ContextStats> {
        self.state(handle).map(|s| s.stats)
    }

    /// The canonical attention plan a context's groups execute (the parity
    /// harness runs its batch-of-one references through the same plan).
    pub fn attention_plan(&self, handle: ContextHandle) -> Option<&Arc<KernelPlan>> {
        self.state(handle).map(|s| &s.plans.attn)
    }

    /// The canonical linear plan a context's groups execute.
    pub fn linear_plan(&self, handle: ContextHandle) -> Option<&Arc<KernelPlan>> {
        self.state(handle).map(|s| &s.plans.linear)
    }

    /// Requests waiting for a slot.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Requests currently holding a decode slot.
    pub fn running(&self) -> usize {
        self.running.len()
    }

    /// Whether no request is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.running.is_empty()
    }

    /// Cumulative counters.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Where a submitted request currently is in its typed lifecycle.
    pub fn poll(&self, handle: &RequestHandle) -> RequestStatus {
        if self.running.iter().any(|r| r.id == handle.id) {
            RequestStatus::Running
        } else if self.queue.iter().any(|r| r.id == handle.id) {
            RequestStatus::Queued
        } else if let Some(out) = self.finished.get(&handle.id) {
            RequestStatus::Finished {
                tokens: out.steps.len(),
            }
        } else if let Some(&reason) = self.rejected.get(&handle.id) {
            RequestStatus::Rejected { reason }
        } else {
            RequestStatus::Unknown
        }
    }

    /// The output of a finished request, if ready.
    pub fn output(&self, handle: &RequestHandle) -> Option<&RequestOutput> {
        self.finished.get(&handle.id)
    }

    /// Removes and returns the output of a finished request.
    pub fn take_output(&mut self, handle: &RequestHandle) -> Option<RequestOutput> {
        self.finished.remove(&handle.id)
    }

    /// The hidden-state rows a live request has decoded *so far* — the
    /// streaming seam: a driver can diff the length after each step and
    /// forward the new rows as they decode. `Some(&[])` for a request
    /// still waiting in the queue, `None` once it is no longer live
    /// (finished, rejected, cancelled, or unknown — terminal rows live in
    /// [`MultiServer::output`]).
    pub fn partial_output(&self, handle: &RequestHandle) -> Option<&[Vec<f32>]> {
        if let Some(r) = self.running.iter().find(|r| r.id == handle.id) {
            Some(&r.steps)
        } else if self.queue.iter().any(|r| r.id == handle.id) {
            Some(&[])
        } else {
            None
        }
    }

    /// Cancels a live request: frees its decode slot or queue entry and
    /// resolves the handle to [`RequestStatus::Rejected`] with
    /// [`RejectReason::Cancelled`] (a bounded tombstone, like admission
    /// rejections). Returns `false` — and changes nothing — when the
    /// request is not live: already finished (its output stays
    /// collectable), already rejected, or never submitted. A freed slot is
    /// re-filled from the queue at the next [`MultiServer::step`].
    pub fn cancel(&mut self, handle: &RequestHandle) -> bool {
        let id = handle.id;
        let removed = if let Some(pos) = self.running.iter().position(|r| r.id == id) {
            Some(self.running.remove(pos))
        } else if let Some(pos) = self.queue.iter().position(|r| r.id == id) {
            self.queue.remove(pos)
        } else {
            None
        };
        let Some(r) = removed else {
            return false;
        };
        self.stats.cancelled += 1;
        self.contexts[r.ctx.id as usize].stats.cancelled += 1;
        self.absorb_live(&r);
        self.tombstone(id, RejectReason::Cancelled);
        true
    }

    /// Cancels every live request — queued or holding a slot — in one
    /// sweep (the deadline-escalation path of a graceful drain). Returns
    /// how many requests were cancelled; already-finished outputs stay
    /// collectable.
    pub fn cancel_all(&mut self) -> usize {
        let ids: Vec<u64> = self
            .running
            .iter()
            .map(|r| r.id)
            .chain(self.queue.iter().map(|r| r.id))
            .collect();
        for &id in &ids {
            self.cancel(&RequestHandle { id });
        }
        ids.len()
    }

    // --- admission ---

    /// Admits a request against a registered context into the engine-wide
    /// bounded queue. **Never fails**: a refused request gets a handle
    /// whose [`MultiServer::poll`] reports
    /// [`RequestStatus::Rejected`] with the typed reason — the
    /// `Result`-shaped twin is [`MultiServer::try_submit`]. Tombstones
    /// for the [`REJECTED_TOMBSTONE_CAP`] most recent rejections are
    /// retained; older ones age out and poll as
    /// [`RequestStatus::Unknown`].
    pub fn submit(&mut self, ctx: ContextHandle, req: DecodeRequest) -> RequestHandle {
        match self.try_submit(ctx, req) {
            Ok(handle) => handle,
            Err(e) => {
                let id = self.next_id;
                self.next_id += 1;
                self.tombstone(id, RejectReason::from_llm(&e));
                RequestHandle { id }
            }
        }
    }

    /// Records a bounded rejection tombstone so `id` polls as `Rejected`
    /// with its reason (the oldest age out past
    /// [`REJECTED_TOMBSTONE_CAP`]).
    fn tombstone(&mut self, id: RequestId, reason: RejectReason) {
        while self.rejected.len() >= REJECTED_TOMBSTONE_CAP {
            let Some(old) = self.rejected_order.pop_front() else {
                break;
            };
            self.rejected.remove(&old);
        }
        self.rejected.insert(id, reason);
        self.rejected_order.push_back(id);
    }

    /// Admits a request, erroring on refusal (the rejection still counts
    /// in [`ServerStats::rejected`]; nothing is dropped silently).
    ///
    /// Admission validates everything growth-related up front, so a
    /// request that enters the queue is guaranteed to complete: the query
    /// width must match its context, and the final attended length must
    /// fit both the shared context and the model's window.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::UnknownContext`], [`LlmError::InvalidRequest`],
    /// [`LlmError::KvCapacity`], or [`LlmError::QueueFull`].
    pub fn try_submit(&mut self, ctx: ContextHandle, req: DecodeRequest) -> Result<RequestHandle> {
        match self.admit(ctx, req) {
            Ok(handle) => {
                self.stats.submitted += 1;
                Ok(handle)
            }
            Err(e) => {
                self.stats.rejected += 1;
                match e {
                    LlmError::QueueFull { .. } => self.stats.rejected_queue_full += 1,
                    LlmError::InvalidRequest { .. } => self.stats.rejected_invalid += 1,
                    LlmError::KvCapacity { .. } => self.stats.rejected_kv_capacity += 1,
                    LlmError::UnknownContext { .. } => self.stats.rejected_unknown_context += 1,
                    _ => {}
                }
                Err(e)
            }
        }
    }

    fn admit(&mut self, ctx: ContextHandle, req: DecodeRequest) -> Result<RequestHandle> {
        let Some(state) = self.state(ctx) else {
            return Err(LlmError::UnknownContext { id: ctx.id() });
        };
        if req.query.len() != state.ctx.head_dim() {
            return Err(LlmError::InvalidRequest {
                what: "query width must equal the context's head_dim",
            });
        }
        if req.gen_tokens == 0 {
            return Err(LlmError::InvalidRequest {
                what: "gen_tokens must be at least 1",
            });
        }
        if req.context_len == 0 {
            return Err(LlmError::InvalidRequest {
                what: "context_len must be at least 1",
            });
        }
        // Checked: an absurd gen_tokens must reject, not wrap past the
        // admission bounds (gen_tokens >= 1 was verified above).
        let Some(final_len) = req.context_len.checked_add(req.gen_tokens - 1) else {
            return Err(LlmError::InvalidRequest {
                what: "request would decode past the shared context",
            });
        };
        let live_kv = self.config.kv_quant != KvQuantMode::Off;
        if live_kv {
            // Live mode: appended tokens go to the tenant's private
            // cache, so only the *fixed prefix* must fit the shared
            // context.
            if req.context_len > state.ctx.seq() {
                return Err(LlmError::InvalidRequest {
                    what: "context_len exceeds the shared context",
                });
            }
        } else if final_len > state.ctx.seq() {
            // Teacher-forced decode walks the shared context itself.
            return Err(LlmError::InvalidRequest {
                what: "request would decode past the shared context",
            });
        }
        // Per-tenant cache descriptor; `try_new` + the final-length check
        // make every later `append_token` infallible by construction.
        let model = self.pipeline.model();
        if final_len > model.max_seq {
            return Err(LlmError::KvCapacity {
                what: "request would decode past the model's context window",
                value: final_len,
                limit: model.max_seq,
            });
        }
        let kv = KvCache::try_new(
            model,
            req.context_len,
            1,
            self.pipeline.scheme().kv_storage(),
        )?;
        // Live-KV admission: build the tenant's private cache and price
        // its projected *compressed* footprint against the byte budget —
        // capacity denominated in real memory, not token counts.
        let live = if live_kv {
            let live = TenantKv::new(&state.ctx, self.config.kv_quant).map_err(|_| {
                LlmError::InvalidRequest {
                    what: "live KV is unsupported for this context's VQ config",
                }
            })?;
            if let Some(budget) = self.config.kv_budget_bytes {
                let projected = live.projected_bytes(req.gen_tokens - 1);
                if projected > budget {
                    return Err(LlmError::KvCapacity {
                        what: "projected compressed live-KV bytes exceed the per-request budget",
                        value: projected,
                        limit: budget,
                    });
                }
            }
            Some(live)
        } else {
            None
        };
        if self.queue.len() >= self.config.max_queue {
            return Err(LlmError::QueueFull {
                max_queue: self.config.max_queue,
            });
        }
        self.contexts[ctx.id as usize].stats.submitted += 1;
        let id = self.next_id;
        self.next_id += 1;
        self.queue.push_back(Active {
            id,
            ctx,
            tenant: req.tenant,
            h: req.query,
            kv,
            prefix_len: req.context_len,
            live,
            remaining: req.gen_tokens,
            steps: Vec::with_capacity(req.gen_tokens),
            kv_quant_us: 0.0,
            submitted_step: self.step,
        });
        Ok(RequestHandle { id })
    }

    // --- the decode loop ---

    /// One scheduler step: re-form the batch (finished requests already
    /// left their slots; queued requests take free ones, regardless of
    /// context), partition the running set into per-context groups, and
    /// run one batched ragged-attention decode plus one batched linear
    /// projection per live group.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::Kernel`] if a kernel rejects its inputs (the
    /// admission invariants make this unreachable under normal use).
    pub fn step(&mut self) -> Result<StepReport> {
        let step = self.step;
        self.step += 1;
        // Failpoint: force a whole-step failure (the driver's supervisor
        // path); a `panic` action here dies on the calling thread.
        if failpoint::fire("llm.step").is_some() {
            return Err(LlmError::Internal {
                what: "forced step failure (failpoint llm.step)",
            });
        }

        // Batch formation: fill free slots FIFO from the engine-wide
        // queue — context-blind, so a burst on one context cannot starve
        // another's queued requests beyond its own arrival order.
        let mut admitted = Vec::new();
        while self.running.len() < self.config.max_batch {
            let Some(r) = self.queue.pop_front() else {
                break;
            };
            admitted.push(r.id);
            self.running.push(r);
        }
        let batch = self.running.len();
        if batch == 0 {
            return Ok(StepReport {
                step,
                batch: 0,
                groups: 0,
                admitted,
                finished: Vec::new(),
                queued: self.queue.len(),
                kv_quant_us: 0.0,
                quarantined: Vec::new(),
            });
        }

        // Partition the running set by context, preserving slot order
        // within each group (first-seen context order, deterministic).
        let mut groups: Vec<(u32, Vec<usize>)> = Vec::new();
        for (i, r) in self.running.iter().enumerate() {
            match groups.iter_mut().find(|(c, _)| *c == r.ctx.id) {
                Some((_, idxs)) => idxs.push(i),
                None => groups.push((r.ctx.id, vec![i])),
            }
        }

        // One shared K-decode per group, ragged over each tenant's
        // attended prefix, then one fused GeMM through that context's
        // projection weight.
        //
        // Each group's kernel work runs under `catch_unwind`: a panic (or
        // kernel error) poisons only that group — its requests are
        // quarantined with a typed reason and shed *after* the loop (so
        // later groups' `idxs` stay valid), while the other groups' decode
        // proceeds untouched. A mid-decode KV append failure quarantines
        // only the one request it belongs to.
        let backend = self.pipeline.backend();
        let gpu = self.pipeline.gpu();
        let mut kv_quant_us = 0.0;
        let mut quarantine: Vec<(RequestId, RejectReason)> = Vec::new();
        for (ctx_id, idxs) in &groups {
            let (ctx, attn_plan, linear_plan) = {
                let state = &self.contexts[*ctx_id as usize];
                (
                    state.ctx.clone(),
                    Arc::clone(&state.plans.attn),
                    Arc::clone(&state.plans.linear),
                )
            };
            let head_dim = ctx.head_dim();
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| -> Result<()> {
                // Failpoint: fault exactly this group (panic/delay/error).
                if failpoint::fire("llm.step.group").is_some() {
                    return Err(LlmError::Internal {
                        what: "forced group fault (failpoint llm.step.group)",
                    });
                }
                let qs = {
                    let running = &self.running;
                    Tensor2D::from_fn(idxs.len(), head_dim, |i, d| running[idxs[i]].h[d])
                };
                // Teacher-forced decode attends a growing prefix of the
                // shared context (`kv.seq`); live-KV decode pins the
                // shared prefix and splices each tenant's private
                // extension (folded codes + outliers + f32 tail) in.
                let live_kv = self.config.kv_quant != KvQuantMode::Off;
                let lens: Vec<usize> = idxs
                    .iter()
                    .map(|&i| {
                        let r = &self.running[i];
                        if live_kv {
                            r.prefix_len
                        } else {
                            r.kv.seq
                        }
                    })
                    .collect();
                let ext_of = |&i: &usize| {
                    let live = self.running[i].live.as_ref();
                    live.map(TenantKv::ext).unwrap_or_default()
                };
                let exts: Vec<_> = if live_kv {
                    idxs.iter().map(ext_of).collect()
                } else {
                    Vec::new()
                };
                let batch = AttentionBatch {
                    qs: &qs,
                    lens: &lens,
                    exts: &exts,
                };
                let attn = backend
                    .run_attention(gpu, &attn_plan, &batch, ctx.kq(), ctx.vq())?
                    .0;
                let ys = backend.run_gemm(gpu, &linear_plan, &attn, ctx.wq())?.0;
                let budget = self.config.kv_budget_bytes;

                // Per-request bookkeeping: grow the tenant's cache
                // *first*, then record the step and advance the hidden
                // state. A failed append (capacity fault, byte-budget
                // overrun) quarantines that one request **before** its
                // token is recorded — the typed reject fires one token
                // early instead of after a partial write — and keeps its
                // batch-mates running.
                for (j, &i) in idxs.iter().enumerate() {
                    let r = &mut self.running[i];
                    if r.remaining > 1 {
                        let forced =
                            failpoint::fire("llm.step.append").map(|_| LlmError::KvCapacity {
                                what: "forced kv exhaustion (failpoint llm.step.append)",
                                value: r.kv.seq,
                                limit: r.kv.seq,
                            });
                        let appended = match forced {
                            Some(e) => Err(e),
                            None => r.kv.append_token(),
                        };
                        let appended = appended.and_then(|us| {
                            if let Some(live) = r.live.as_mut() {
                                // The decoded output row is this step's
                                // appended K and V row.
                                live.append(ys.row(j), ys.row(j))?;
                                if let Some(limit) = budget {
                                    let bytes = live.compressed_bytes();
                                    if bytes > limit {
                                        return Err(LlmError::KvCapacity {
                                            what: "compressed live-KV bytes exceeded \
                                                   the per-request budget",
                                            value: bytes,
                                            limit,
                                        });
                                    }
                                }
                            }
                            Ok(us)
                        });
                        match appended {
                            Ok(us) => {
                                r.kv_quant_us += us;
                                kv_quant_us += us;
                            }
                            Err(e) => {
                                quarantine.push((r.id, Self::quarantine_reason(&e)));
                                continue;
                            }
                        }
                    }
                    r.steps.push(ys.row(j).to_vec());
                    r.h.copy_from_slice(ys.row(j));
                    r.remaining -= 1;
                }
                self.contexts[*ctx_id as usize].stats.steps += 1;
                Ok(())
            }));
            match outcome {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
                    let reason = Self::quarantine_reason(&e);
                    for &i in idxs {
                        quarantine.push((self.running[i].id, reason));
                    }
                }
                Err(_payload) => {
                    // The panic payload message already surfaced through
                    // the pool's structured error path when the panic
                    // happened on a worker; a panic on this thread is
                    // contained here with a static tag.
                    let reason = RejectReason::Internal {
                        what: "contained panic in decode group",
                    };
                    for &i in idxs {
                        quarantine.push((self.running[i].id, reason));
                    }
                }
            }
        }
        self.stats.steps += 1;
        self.stats.decoded_tokens += batch as u64;

        // Shed quarantined requests: remove them from the running set and
        // tombstone them so they poll as `Rejected` with their typed
        // reason. Duplicates (a request quarantined by both its own KV
        // failure and a group fault) collapse on the first removal.
        let mut quarantined = Vec::new();
        for (id, reason) in quarantine {
            let Some(pos) = self.running.iter().position(|r| r.id == id) else {
                continue;
            };
            let r = self.running.remove(pos);
            self.stats.quarantined += 1;
            self.contexts[r.ctx.id as usize].stats.quarantined += 1;
            self.absorb_live(&r);
            self.tombstone(id, reason);
            quarantined.push(id);
        }

        // Retire finished requests (their slots are free next step).
        let mut finished = Vec::new();
        let mut i = 0;
        while i < self.running.len() {
            if self.running[i].remaining == 0 {
                let r = self.running.remove(i);
                finished.push(r.id);
                self.stats.completed += 1;
                self.contexts[r.ctx.id as usize].stats.completed += 1;
                self.absorb_live(&r);
                let (kv_nmse, kv_bytes) = r
                    .live
                    .as_ref()
                    .map(|l| (l.kv_nmse(), l.compressed_bytes()))
                    .unwrap_or((0.0, 0));
                self.finished.insert(
                    r.id,
                    RequestOutput {
                        id: r.id,
                        tenant: r.tenant,
                        steps: r.steps,
                        kv_quant_us: r.kv_quant_us,
                        submitted_step: r.submitted_step,
                        finished_step: step,
                        kv_nmse,
                        kv_bytes,
                    },
                );
            } else {
                i += 1;
            }
        }

        Ok(StepReport {
            step,
            batch,
            groups: groups.len(),
            admitted,
            finished,
            queued: self.queue.len(),
            kv_quant_us,
            quarantined,
        })
    }

    /// Folds a retiring request's live-KV accounting (fold error,
    /// compression counters) into the engine-wide stats. A no-op for
    /// teacher-forced requests.
    fn absorb_live(&mut self, r: &Active) {
        if let Some(live) = &r.live {
            let (err, data) = live.fold_error();
            self.stats.kv_err_sq += err;
            self.stats.kv_data_sq += data;
            self.stats.kv_folded_tokens += live.folded_tokens() as u64;
            self.stats.kv_outlier_groups += live.outlier_groups() as u64;
        }
    }

    /// The typed rejection a mid-decode fault quarantines a request with:
    /// KV-capacity faults keep their structured context, everything else
    /// (kernel failures, contained worker panics) becomes `Internal`.
    fn quarantine_reason(e: &LlmError) -> RejectReason {
        match *e {
            LlmError::KvCapacity { what, value, limit } => {
                RejectReason::KvCapacity { what, value, limit }
            }
            LlmError::Internal { what } => RejectReason::Internal { what },
            LlmError::Kernel(vqllm_kernels::KernelError::Panicked { site, .. }) => {
                RejectReason::Internal { what: site }
            }
            _ => RejectReason::Internal {
                what: "kernel failure in decode group",
            },
        }
    }

    /// Steps until every submitted request has finished, returning the
    /// per-step reports. Terminates because each non-idle step decodes one
    /// token of every live request and admission bounds total work.
    ///
    /// # Errors
    ///
    /// Propagates the first [`MultiServer::step`] error.
    pub fn run_until_drained(&mut self) -> Result<Vec<StepReport>> {
        let mut reports = Vec::new();
        while !self.is_idle() {
            let report = self.step()?;
            if report.batch == 0 && !self.is_idle() {
                // max_batch >= 1 makes this unreachable; guard against a
                // scheduling bug turning into an infinite loop.
                return Err(LlmError::InvalidConfig {
                    what: "scheduler made no progress with work pending",
                });
            }
            reports.push(report);
        }
        Ok(reports)
    }
}
