//! Llama-shaped inference substrate for end-to-end evaluation.
//!
//! The paper's E2E experiments (Fig. 17) run Llama-7B with batch 16,
//! sequence 1024, generating 256 tokens, under FP16 / qServe (AWQ-4 +
//! QoQ-4) / VQ-LLM (QuiP#-4 weights + CQ-4 KV, or 2-bit variants). This
//! crate walks the per-token operator list of a Llama decoder and sums the
//! kernel latencies from `vqllm-kernels`, including the RMSNorm / SiLU /
//! RoPE operators the paper reports at ~10 % (FP16) to ~20 % (4-bit) of
//! total latency, plus the on-the-fly KV-quantization overhead it bounds
//! at <1 µs per decode step.
//!
//! Accuracy is evaluated through a documented *proxy* (DESIGN.md §5): the
//! reconstruction error of each quantization scheme on synthetic
//! correlated tensors drives a monotone task-accuracy model calibrated to
//! the paper's arc-challenge numbers.

pub mod accuracy;
pub mod kv;
pub mod model;
pub mod pipeline;
pub mod serve;

pub use accuracy::AccuracyProxy;
pub use kv::KvCache;
pub use model::LlamaConfig;
pub use pipeline::{DecodeBreakdown, E2eReport, Pipeline, QuantScheme};
pub use serve::{
    ContextHandle, ContextStats, DecodeRequest, FairQueue, KvQuantMode, MultiServer, RejectReason,
    RequestHandle, RequestId, RequestOutput, RequestStatus, ServeConfig, ServerStats,
    SharedContext, SloEstimator, StepReport, TenantKv,
};

/// Error type for pipeline configuration and the serving layer.
#[derive(Debug, Clone, PartialEq)]
pub enum LlmError {
    /// A configuration value was invalid.
    InvalidConfig {
        /// Description of the problem.
        what: &'static str,
    },
    /// KV-cache growth or geometry violated the configured model's limits
    /// (e.g. an `append_token` past the context window).
    KvCapacity {
        /// What was out of range.
        what: &'static str,
        /// The offending value.
        value: usize,
        /// The model's limit for it.
        limit: usize,
    },
    /// A serving request was refused at admission because the queue is at
    /// its configured `max_queue` limit. The request was **not** enqueued.
    QueueFull {
        /// The configured admission limit.
        max_queue: usize,
    },
    /// A serving request was rejected at admission as malformed or
    /// unservable (wrong query width, zero tokens, context overflow).
    InvalidRequest {
        /// Description of the problem.
        what: &'static str,
    },
    /// A request named a [`ContextHandle`](serve::ContextHandle) that this
    /// engine never issued.
    UnknownContext {
        /// The unrecognized handle id.
        id: u64,
    },
    /// The request was cancelled after admission
    /// ([`MultiServer::cancel`](serve::MultiServer::cancel)).
    Cancelled,
    /// SLO-aware admission projected the request cannot meet its deadline
    /// ([`SloEstimator`](serve::SloEstimator)); retry after the computed
    /// backoff, or ask for a longer deadline.
    DeadlineUnmeetable {
        /// Milliseconds after which the same deadline could be met if the
        /// queue ahead has drained (always at least 1).
        retry_after_ms: u64,
    },
    /// The tenant exhausted its token budget for the current rate-limit
    /// window; retry once the window slides past the oldest charge.
    RateLimited {
        /// Milliseconds until enough of the window has slid for the same
        /// request to fit the budget (always at least 1).
        retry_after_ms: u64,
    },
    /// The server is draining for shutdown: in-flight requests finish,
    /// but no new work is admitted. Retry against another replica, or
    /// after the suggested backoff if the drain is a rolling restart.
    Draining {
        /// Estimated milliseconds until the drain completes.
        retry_after_ms: u64,
    },
    /// The request was quarantined by the fault-containment layer (a
    /// contained kernel panic, a forced mid-decode failure, or a watchdog
    /// shed); its partial state is gone and it must be resubmitted.
    Internal {
        /// What faulted.
        what: &'static str,
    },
    /// The driver thread died and was rebuilt by the supervisor; requests
    /// alive across the restart resolve with this error and can be
    /// retried after the backoff.
    DriverRestarted {
        /// Computed backoff until the restarted driver is warm (always at
        /// least 1).
        retry_after_ms: u64,
    },
    /// A kernel failed underneath the serving decode loop.
    Kernel(vqllm_kernels::KernelError),
}

impl std::fmt::Display for LlmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LlmError::InvalidConfig { what } => write!(f, "invalid LLM config: {what}"),
            LlmError::KvCapacity { what, value, limit } => {
                write!(f, "kv capacity: {what} ({value} > limit {limit})")
            }
            LlmError::QueueFull { max_queue } => {
                write!(f, "serving queue full (max_queue = {max_queue})")
            }
            LlmError::InvalidRequest { what } => write!(f, "invalid request: {what}"),
            LlmError::UnknownContext { id } => {
                write!(f, "unknown context handle {id} (not issued by this engine)")
            }
            LlmError::Cancelled => write!(f, "request cancelled"),
            LlmError::DeadlineUnmeetable { retry_after_ms } => {
                write!(
                    f,
                    "deadline unmeetable under current load (retry after {retry_after_ms} ms)"
                )
            }
            LlmError::RateLimited { retry_after_ms } => {
                write!(
                    f,
                    "tenant rate limit exhausted (retry after {retry_after_ms} ms)"
                )
            }
            LlmError::Draining { retry_after_ms } => {
                write!(
                    f,
                    "server draining, not admitting (retry after {retry_after_ms} ms)"
                )
            }
            LlmError::Internal { what } => {
                write!(f, "internal fault, request quarantined: {what}")
            }
            LlmError::DriverRestarted { retry_after_ms } => {
                write!(
                    f,
                    "driver restarted, request dropped (retry after {retry_after_ms} ms)"
                )
            }
            LlmError::Kernel(e) => write!(f, "kernel: {e}"),
        }
    }
}

impl std::error::Error for LlmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LlmError::Kernel(e) => Some(e),
            _ => None,
        }
    }
}

impl From<vqllm_kernels::KernelError> for LlmError {
    fn from(e: vqllm_kernels::KernelError) -> Self {
        LlmError::Kernel(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LlmError>;
