//! Batched request serving on top of the decode pipeline.
//!
//! The kernel substrate already speaks the serving shapes — one shared
//! K-decode feeds a whole batch of queries ([`Backend::run_attention`]),
//! and a multi-row linear streams the weight's packed rows once for the
//! whole batch ([`Backend::run_gemm`]) — so what this module adds is the
//! machinery that *keeps those batches full under traffic*
//! (EVA's decode-centric interface, PAPERS.md). It lives in one scheduler,
//! [`MultiServer`], which `vq_llm::Engine` wraps:
//!
//! * **a context registry** — [`MultiServer::register_context`] plans a
//!   [`SharedContext`] once, from its measured access distribution, and
//!   returns the [`ContextHandle`] requests are tagged with;
//! * **admission** — [`MultiServer::submit`] accepts a [`DecodeRequest`]
//!   into a bounded FIFO queue ([`ServeConfig::max_queue`]) or rejects it
//!   with a typed [`RejectReason`]; nothing is ever dropped silently;
//! * **continuous batch formation** — every [`MultiServer::step`]
//!   re-forms the decode batch: finished requests leave their slot,
//!   queued ones take it, up to [`ServeConfig::max_batch`] in flight
//!   engine-wide, and each live context group runs one ragged-attention
//!   pass plus one GeMM;
//! * **per-tenant KV ownership** — each request owns a [`KvCache`]
//!   descriptor (its position in the shared context, validated growth),
//!   while all tenants of a context share its quantized tensors, one
//!   `PlanCache`, and one backend through the [`Pipeline`];
//! * **a deterministic driver** — [`MultiServer::step`] is synchronous
//!   and side-effect-free beyond its own state, so tests can single-step
//!   the scheduler and a bench can meter tokens/second; the network
//!   driver (`vq_llm::net`) wraps it without touching the scheduling
//!   logic.
//!
//! Numerically the scheduler is *invisible*: each step runs the
//! context's canonical ragged-attention and linear plans at whatever
//! batch happens to be live, and both kernels are bitwise lane-stable
//! across batch widths — a request decoded in a full batch produces
//! exactly the bytes it would produce running alone (`tests/serving.rs`
//! pins this).
//!
//! [`Backend::run_attention`]: vqllm_kernels::backend::Backend::run_attention
//! [`Backend::run_gemm`]: vqllm_kernels::backend::Backend::run_gemm
//! [`KvCache`]: crate::KvCache
//! [`Pipeline`]: crate::Pipeline

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

pub mod fair;
pub mod multi;
pub mod request;
pub mod slo;
pub mod tenant_kv;

pub use fair::FairQueue;
pub use multi::{
    ContextHandle, ContextStats, MultiServer, ServerStats, StepReport, REJECTED_TOMBSTONE_CAP,
};
pub use request::{
    DecodeRequest, RejectReason, RequestHandle, RequestId, RequestOutput, RequestStatus,
};
pub use slo::SloEstimator;
pub use tenant_kv::TenantKv;

use crate::{LlmError, Result};
use std::sync::Arc;
use vqllm_vq::QuantizedTensor;

/// How a request's **live** (appended) KV rows are stored.
///
/// The historical serving path is teacher-forced decode: requests attend
/// growing prefixes of the shared pre-quantized context and own no live
/// KV at all — that is [`KvQuantMode::Off`], the default, and it is
/// bitwise untouched by the live-KV machinery. The live modes give each
/// request a private cache of its decoded rows (each step's output row
/// becomes the next step's appended K/V row), attended after the fixed
/// context prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvQuantMode {
    /// No live per-tenant KV (teacher-forced decode over the shared
    /// context only). The default.
    Off,
    /// Live per-tenant KV kept entirely in f32 — never folded. The
    /// accuracy/bitwise baseline the quantized mode is measured against.
    F32Tail,
    /// Live per-tenant KV with online VQ: the newest `tail_window` rows
    /// stay f32; older rows are folded into packed codes group-wise
    /// against the **context's** codebooks (amortized codebook reuse, no
    /// per-token re-clustering), with a per-group exact-residual outlier
    /// channel.
    Quantized {
        /// Rows kept unquantized at the hot end of the cache. Folding
        /// happens once the tail exceeds this window.
        tail_window: usize,
        /// Outlier threshold in thousandths: after all residual rounds, a
        /// group whose remaining error norm exceeds
        /// `outlier_keep_milli/1000` of the group's norm keeps its exact
        /// f32 residual (integer milli-units keep `ServeConfig: Eq`).
        ///
        /// What it bounds, with `keep = outlier_keep_milli / 1000`: every
        /// folded group left to its codes alone satisfies
        /// `‖resid‖² ≤ keep² · ‖orig‖²`, and a group past that is exact —
        /// so a cache's fold nMSE ([`TenantKv::kv_nmse`]) is at most
        /// `keep²`, and `keep = 0` folds without error at outlier cost
        /// (`tenant_kv`'s `outlier_keep_bounds_each_folded_group` pins
        /// the inequality per group).
        outlier_keep_milli: u32,
    },
}

/// Admission and batching limits of a [`MultiServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Largest decode batch formed per step (in-flight request slots).
    pub max_batch: usize,
    /// Largest number of requests waiting for a slot; a `submit` beyond
    /// this is rejected with [`LlmError::QueueFull`].
    pub max_queue: usize,
    /// Live-KV storage mode for appended rows (default
    /// [`KvQuantMode::Off`]: teacher-forced decode, no live KV).
    pub kv_quant: KvQuantMode,
    /// Per-request budget on **compressed** live-KV bytes (packed codes +
    /// outliers + f32 tail, K and V). Admission prices a request's final
    /// footprint against it, and growth past it mid-decode is a typed
    /// `KvCapacity` quarantine — capacity denominated in real memory, not
    /// token counts. `None` = unbounded. Ignored when `kv_quant` is
    /// [`KvQuantMode::Off`].
    pub kv_budget_bytes: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 8,
            max_queue: 64,
            kv_quant: KvQuantMode::Off,
            kv_budget_bytes: None,
        }
    }
}

impl ServeConfig {
    /// Config with explicit limits (live KV off).
    pub fn new(max_batch: usize, max_queue: usize) -> Self {
        ServeConfig {
            max_batch,
            max_queue,
            ..ServeConfig::default()
        }
    }

    /// Sets the live-KV storage mode.
    pub fn with_kv_quant(mut self, mode: KvQuantMode) -> Self {
        self.kv_quant = mode;
        self
    }

    /// Bounds each request's compressed live-KV bytes.
    pub fn with_kv_budget(mut self, bytes: usize) -> Self {
        self.kv_budget_bytes = Some(bytes);
        self
    }

    pub(crate) fn validate(&self) -> Result<()> {
        if self.max_batch == 0 {
            return Err(LlmError::InvalidConfig {
                what: "serve max_batch must be at least 1",
            });
        }
        Ok(())
    }
}

/// The quantized state a registered context's requests decode against:
/// one K cache, one V cache (`seq × head_dim` each), and one output-projection
/// weight (`head_dim × head_dim`).
///
/// This is the EVA/VecInfer serving scenario: tenants fan out over a
/// shared pre-quantized context (a shared prompt, a system prefix, a
/// beam), each attending its own prefix of it, so one K-decode per step
/// serves the whole batch. Tensors are `Arc`-shared — cloning the context
/// is cheap and servers can hand it to reporting threads.
#[derive(Debug, Clone)]
pub struct SharedContext {
    kq: Arc<QuantizedTensor>,
    vq: Arc<QuantizedTensor>,
    wq: Arc<QuantizedTensor>,
}

impl SharedContext {
    /// Validates and wraps the shared tensors.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::InvalidConfig`] when K and V disagree in shape
    /// or the projection weight is not `head_dim × head_dim`.
    pub fn new(
        kq: QuantizedTensor,
        vq: QuantizedTensor,
        wq: QuantizedTensor,
    ) -> Result<SharedContext> {
        if kq.shape() != vq.shape() {
            return Err(LlmError::InvalidConfig {
                what: "shared K and V caches must have identical shapes",
            });
        }
        let head_dim = kq.shape().1;
        if wq.shape() != (head_dim, head_dim) {
            return Err(LlmError::InvalidConfig {
                what: "projection weight must be head_dim x head_dim",
            });
        }
        if kq.shape().0 == 0 || head_dim == 0 {
            return Err(LlmError::InvalidConfig {
                what: "shared context must be non-empty",
            });
        }
        Ok(SharedContext {
            kq: Arc::new(kq),
            vq: Arc::new(vq),
            wq: Arc::new(wq),
        })
    }

    /// Cached tokens in the shared context.
    pub fn seq(&self) -> usize {
        self.kq.shape().0
    }

    /// Channels per head.
    pub fn head_dim(&self) -> usize {
        self.kq.shape().1
    }

    /// The quantized K cache.
    pub fn kq(&self) -> &QuantizedTensor {
        &self.kq
    }

    /// The quantized V cache.
    pub fn vq(&self) -> &QuantizedTensor {
        &self.vq
    }

    /// The quantized output-projection weight.
    pub fn wq(&self) -> &QuantizedTensor {
        &self.wq
    }
}
