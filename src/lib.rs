//! # VQ-LLM
//!
//! A Rust reproduction of *“VQ-LLM: High-performance Code Generation for
//! Vector Quantization Augmented LLM Inference”* (HPCA 2025).
//!
//! The front door is [`Session`]: a validated, cache-aware handle over the
//! whole framework (profile → codebook-cache placement → dataflow → fusion
//! → codegen → execute, paper Fig. 7) with a pluggable execution
//! [`Backend`] and a memoizing [`PlanCache`] shared by every pipeline it
//! creates.
//!
//! ## Quickstart
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
//!
//! // Plan an optimized fused attention kernel (memoized in the session's
//! // plan cache — a second call is a hash probe).
//! let op = session.attention_op(1024, 1);
//! let (plan, out) = session.best_kv_plan(&op)?;
//! println!("{}\n{:.1} us modelled", plan.describe(), out.us());
//!
//! // Emit the CUDA-like kernel source and project end-to-end latency.
//! let source = session.emit(&plan);
//! assert!(source.contains("__global__ void"));
//! let report = session.generate(1024, 256, 16);
//! assert!(report.total_ms() > 0.0);
//! # Ok(())
//! # }
//! ```
//!
//! ## Layers
//!
//! The low-level crates stay public for power users:
//!
//! * [`tensor`] — numeric substrate (tensors, dtypes, synthetic data).
//! * [`gpu`] — GPU performance-model substrate (occupancy, shared-memory
//!   banks, coalescing, warp shuffle, timing).
//! * [`vq`] — vector-quantization substrate (k-means, codebooks, residual
//!   quantization, bit packing, algorithm presets from the paper's Tbl. II).
//! * [`core`] — the paper's contribution: codebook cache, codebook-centric
//!   dataflow, hierarchical fusion, adaptive heuristics, the kernel-plan
//!   code generator, and the memoizing plan cache.
//! * [`kernels`] — fused VQ kernels plus every baseline the paper compares
//!   against (FP16 flash-decoding/attention, paged variants, VQ-GC/SC,
//!   AWQ-4, QoQ-4), the [`Backend`] seam, and the real host-execution
//!   kernels (`kernels::host_exec`) behind [`CpuBackend`].
//! * [`llm`] — Llama-shaped inference substrate for end-to-end evaluation.

pub mod backend;
pub mod engine;
pub mod error;
pub mod net;
pub mod session;

pub use vqllm_core as core;
pub use vqllm_gpu as gpu;
pub use vqllm_kernels as kernels;
pub use vqllm_llm as llm;
pub use vqllm_tensor as tensor;
pub use vqllm_vq as vq;

pub use backend::{Backend, BackendKind, CpuBackend, PerfModelBackend};
pub use engine::{Engine, EngineBuilder};
pub use error::{Result, VqLlmError};
pub use net::{
    AdmissionConfig, Client, DrainReport, EngineFactory, NetConfig, NetRequest, NetServer,
    RateLimitConfig, StreamEvent, SupervisorConfig, Ticket, TicketEnd, WaitError,
};
pub use session::{Session, SessionBuilder};

// The vocabulary types a `Session`/`Engine` consumer touches, re-exported
// at the top level so the quickstart needs one import line.
pub use vqllm_core::{CacheStats, ComputeOp, KernelPlan, OptLevel, PlanCache};
pub use vqllm_gpu::GpuSpec;
pub use vqllm_kernels::KernelOutput;
pub use vqllm_llm::{
    ContextHandle, ContextStats, DecodeRequest, E2eReport, KvQuantMode, LlamaConfig, Pipeline,
    QuantScheme, RejectReason, RequestHandle, RequestOutput, RequestStatus, ServeConfig, Server,
    ServerStats, SharedContext, StepReport, TenantKv,
};
pub use vqllm_vq::{VqAlgorithm, VqConfig};
