//! Pluggable execution backends (re-exported from `vqllm-kernels`).
//!
//! The [`Backend`] trait lives in [`vqllm_kernels::backend`] so both this
//! facade *and* the end-to-end [`Pipeline`](crate::Pipeline) can execute
//! through it; this module re-exports it together with the shipped
//! implementations and adds [`BackendKind`], the ergonomic selector for
//! [`SessionBuilder`](crate::SessionBuilder):
//!
//! * [`PerfModelBackend`] — the GPU performance model (the workspace's
//!   documented hardware substitution).
//! * [`CpuBackend`] — real host execution of the fused kernels
//!   ([`vqllm_kernels::host_exec`]): LUT GeMV, fused GeMM (a GeMV is its
//!   one-row case) and attention decode, all directly on packed codes.

use std::sync::Arc;

pub use vqllm_kernels::backend::{Backend, CpuBackend, PerfModelBackend};

/// Which shipped backend a [`SessionBuilder`](crate::SessionBuilder)
/// should instantiate (use [`SessionBuilder::backend`] to supply a custom
/// implementation instead).
///
/// [`SessionBuilder::backend`]: crate::SessionBuilder::backend
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The GPU performance model ([`PerfModelBackend`]) — plans and
    /// estimates; functional execution flows through the modelled
    /// codebook cache.
    PerfModel,
    /// Real host execution ([`CpuBackend`]) with `threads` worker
    /// partitions on the parallel paths (`0` means auto-detect).
    ///
    /// Partitions execute on the process-wide persistent
    /// [`vqllm_kernels::host_exec::pool::WorkerPool`], spawned once at
    /// backend instantiation and shared by every backend/session in the
    /// process — kernel calls enqueue work instead of spawning threads,
    /// so parallel decode never pays per-call thread startup.
    Cpu {
        /// Worker partitions (`0` = available parallelism).
        threads: usize,
    },
}

impl BackendKind {
    /// Instantiates the selected backend.
    pub fn instantiate(self) -> Arc<dyn Backend> {
        match self {
            BackendKind::PerfModel => Arc::new(PerfModelBackend),
            BackendKind::Cpu { threads: 0 } => Arc::new(CpuBackend::auto()),
            BackendKind::Cpu { threads } => Arc::new(CpuBackend::with_threads(threads)),
        }
    }
}
