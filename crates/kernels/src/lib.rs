//! Fused kernels and baselines for the VQ-LLM reproduction.
//!
//! Every kernel in this crate produces a [`KernelOutput`]: the performance
//! counters it tallied against the `vqllm-gpu` substrate and the latency
//! estimate derived from them. Functional variants additionally compute
//! real outputs so correctness can be checked against the reference math in
//! `vqllm-tensor`.
//!
//! Kernel families:
//!
//! * [`fp16`] — the FP16 baselines: cutlass-style GeMM, GeMV, and the four
//!   attention dataflows of Fig. 18 (FlashDecoding, FlashAttention, and
//!   their paged variants).
//! * [`vq_kernel`] — the plan-driven fused VQ kernels: executes any
//!   [`vqllm_core::KernelPlan`] from the GC baseline to fully-optimized O4.
//! * [`host_exec`] — real host execution: fused kernels that compute
//!   directly on packed codes with cache-resident codebooks/LUTs (the
//!   paper's insight translated to the CPU memory hierarchy).
//! * [`backend`] — the pluggable [`Backend`] seam ([`PerfModelBackend`]
//!   and the executing [`CpuBackend`]) shared by `Session` and `Pipeline`.
//! * [`elementwise`] — the element-wise quantization comparators: AWQ-4
//!   weight kernels and QoQ-4 KV-cache attention (Fig. 16/17).
//! * [`traffic`] — the codebook-access cost model shared by the VQ kernels.

pub mod backend;
pub mod elementwise;
pub mod fp16;
pub mod host_exec;
pub mod traffic;
pub mod vq_kernel;

pub use backend::{Backend, CpuBackend, PerfModelBackend};
pub use host_exec::HostBlocking;
pub use traffic::{l1_hit_rate, AccessProfile, CodebookAccessCost};

use vqllm_gpu::{LatencyBreakdown, LaunchConfig, PerfCounters};

/// The outcome of one (estimated or executed) kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelOutput {
    /// Whole-grid performance counters.
    pub counters: PerfCounters,
    /// Latency estimate from the timing model.
    pub latency: LatencyBreakdown,
    /// The launch shape used.
    pub launch: LaunchConfig,
}

impl KernelOutput {
    /// Latency in microseconds (shorthand).
    pub fn us(&self) -> f64 {
        self.latency.total_us
    }
}

/// Error type for kernel execution.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelError {
    /// Input shapes disagree with the plan or with each other.
    ShapeMismatch {
        /// Description of the mismatch.
        what: &'static str,
    },
    /// A required input was missing or inconsistent.
    InvalidInput {
        /// Description of the problem.
        what: &'static str,
    },
    /// Planning failed before anything could execute (the [`Backend`]
    /// planning entry points flow `CoreError` through here with its full
    /// structured context).
    Unplannable(vqllm_core::CoreError),
    /// A kernel job panicked and the panic was contained (by the
    /// [`host_exec::pool::WorkerPool`] or a `catch_unwind` wrapper). The
    /// panic does not cross this boundary; instead the captured payload
    /// travels as data so the serving layer can quarantine exactly the
    /// offending work.
    Panicked {
        /// The failpoint/callsite name where the panic surfaced.
        site: &'static str,
        /// Downcast panic payload (`&str`/`String`), or a placeholder for
        /// non-string payloads.
        message: String,
    },
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::ShapeMismatch { what } => write!(f, "shape mismatch: {what}"),
            KernelError::InvalidInput { what } => write!(f, "invalid input: {what}"),
            KernelError::Unplannable(e) => write!(f, "planning: {e}"),
            KernelError::Panicked { site, message } => {
                write!(f, "kernel panicked at {site}: {message}")
            }
        }
    }
}

impl std::error::Error for KernelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KernelError::Unplannable(e) => Some(e),
            _ => None,
        }
    }
}

impl From<vqllm_core::CoreError> for KernelError {
    fn from(e: vqllm_core::CoreError) -> Self {
        KernelError::Unplannable(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, KernelError>;
