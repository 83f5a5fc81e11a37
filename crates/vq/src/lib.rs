//! Vector-quantization substrate for the VQ-LLM reproduction.
//!
//! Implements the full VQ pipeline of the paper's Fig. 1: sub-vector
//! splitting, k-means codebook training (with k-means++ seeding), residual
//! quantization rounds, packed index storage (including AQLM's unaligned
//! 12-bit format), and exact dequantization. The five algorithm presets of
//! the paper's Tbl. II are provided in [`algorithms`]:
//!
//! | Algorithm | Compression | Vector | #Entry | Residual |
//! |-----------|-------------|--------|--------|----------|
//! | QuiP#-4   | 25 %        | 8      | 65536 (lattice: 256 looked up) | 2 |
//! | AQLM-3    | 18.75 %     | 8      | 4096   | 2 |
//! | GPTVQ-2   | 12.5 %      | 4      | 256    | 1 |
//! | CQ-4      | 25 %        | 2      | 256    | 1 |
//! | CQ-2      | 12.5 %      | 4      | 256    | 1 |
//!
//! The [`stats`] module profiles codebook-entry access frequency — the
//! hot/medium/cold structure (paper Fig. 8/9) that the codebook cache in
//! `vqllm-core` exploits.
//!
//! # Example
//!
//! ```
//! use vqllm_vq::{config::{CodebookScope, VqConfig}, quantizer::VqQuantizer};
//! use vqllm_tensor::{metrics, synth};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let w = synth::correlated_channels(64, 64, 4, 0.9, 42);
//! let cfg = VqConfig::new(4, 256, 1, CodebookScope::PerTensor)?;
//! let q = VqQuantizer::new(cfg).quantize(&w, 7)?;
//! let restored = q.dequantize()?;
//! assert!(vqllm_tensor::metrics::mse_tensor(&w, &restored) < 1e-2);
//! # Ok(())
//! # }
//! ```

pub mod algorithms;
pub mod codebook;
pub mod config;
pub mod kmeans;
pub mod packing;
pub mod quantizer;
pub mod scalar;
pub mod stats;

pub use algorithms::VqAlgorithm;
pub use codebook::{BookRun, Codebook, CodebookSet};
pub use config::{CodebookScope, VqConfig};
pub use packing::PackedIndices;
pub use quantizer::{QuantizedTensor, VqQuantizer};

/// Error type for quantization operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VqError {
    /// Configuration is internally inconsistent.
    InvalidConfig {
        /// What was wrong.
        what: &'static str,
        /// Offending value.
        value: usize,
    },
    /// Tensor shape is incompatible with the configuration (e.g. columns
    /// not divisible by the vector size).
    IncompatibleShape {
        /// What was expected.
        what: &'static str,
        /// Tensor shape.
        shape: (usize, usize),
    },
    /// Not enough data to train the requested codebook.
    InsufficientData {
        /// Points available.
        points: usize,
        /// Entries requested.
        entries: usize,
    },
}

impl std::fmt::Display for VqError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VqError::InvalidConfig { what, value } => {
                write!(f, "invalid VQ config: {what} = {value}")
            }
            VqError::IncompatibleShape { what, shape } => {
                write!(
                    f,
                    "incompatible tensor shape {}x{} for {what}",
                    shape.0, shape.1
                )
            }
            VqError::InsufficientData { points, entries } => {
                write!(f, "cannot train {entries} entries from {points} points")
            }
        }
    }
}

impl std::error::Error for VqError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, VqError>;
