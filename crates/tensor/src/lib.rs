//! Numeric substrate for the VQ-LLM reproduction.
//!
//! The paper's kernels operate on FP16 weight / KV-cache tensors. This crate
//! provides the host-side stand-in: a row-major 2-D tensor whose *compute*
//! precision is `f32` (for deterministic, portable math) but whose *storage*
//! precision is tracked explicitly through [`DType`], because the GPU
//! performance model in `vqllm-gpu` costs memory traffic in logical bytes.
//!
//! Also provided here:
//!
//! * [`synth`] — seeded synthetic data generators matching the statistics
//!   the paper evaluates on (Gaussian weights, outlier-heavy activations,
//!   correlated 2-D pairs for Fig. 2, token-correlated KV streams).
//! * [`linalg`] — reference math (matmul/GeMV/softmax/attention) used as
//!   ground truth by every fused-kernel correctness test.
//! * [`metrics`] — reconstruction-error metrics (MSE, relative Frobenius).
//! * [`isa`] — the [`Isa`] witness every SIMD dispatch in the workspace
//!   picks its body by.
//!
//! # Example
//!
//! ```
//! use vqllm_tensor::{DType, Tensor2D, synth};
//!
//! let w = synth::gaussian(64, 64, 0.02, 7);
//! assert_eq!(w.shape(), (64, 64));
//! assert_eq!(w.storage_bytes(DType::F16), 64 * 64 * 2);
//! ```

pub mod dtype;
pub mod isa;
pub mod linalg;
pub mod metrics;
pub mod synth;
pub mod tensor;

pub use dtype::DType;
pub use isa::Isa;
pub use tensor::Tensor2D;

/// Error type for tensor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two operands had incompatible shapes for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the operation.
        op: &'static str,
        /// Shape of the left-hand operand.
        lhs: (usize, usize),
        /// Shape of the right-hand operand.
        rhs: (usize, usize),
    },
    /// A dimension argument was zero or otherwise out of range.
    InvalidDimension {
        /// Which argument was invalid.
        what: &'static str,
        /// The offending value.
        value: usize,
    },
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: lhs {}x{} vs rhs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            TensorError::InvalidDimension { what, value } => {
                write!(f, "invalid dimension for {what}: {value}")
            }
        }
    }
}

impl std::error::Error for TensorError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
