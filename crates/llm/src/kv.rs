//! KV-cache bookkeeping with quantization-overhead accounting.
//!
//! The paper (§VII-F) bounds the runtime cost of on-the-fly KV
//! quantization: <1 µs per new token in decode, and <10 % of the linear
//! projections during prefill, hidden behind computation that does not yet
//! need the quantized values. [`KvCache`] tracks cache geometry, byte
//! footprints at each precision, and those overheads.

use crate::model::LlamaConfig;
use serde::Serialize;

/// Storage backing of the KV cache.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum KvStorage {
    /// FP16 (baseline).
    Fp16,
    /// Element-wise 4-bit (QoQ).
    Int4,
    /// Vector-quantized at `bits_per_element` equivalent bits (CQ-4 = 4.0,
    /// CQ-2 = 2.0).
    Vq {
        /// Equivalent bits per element.
        bits_per_element: f64,
    },
}

impl KvStorage {
    /// Equivalent bits per cached element.
    pub fn bits(self) -> f64 {
        match self {
            KvStorage::Fp16 => 16.0,
            KvStorage::Int4 => 4.0 + 0.5, // scales per 64-group
            KvStorage::Vq { bits_per_element } => bits_per_element,
        }
    }
}

/// Decode-phase quantization overhead per new token (paper: "negligible,
/// < 1 µs").
pub const DECODE_QUANT_OVERHEAD_US: f64 = 0.8;

/// Prefill quantization overhead as a fraction of the linear projections
/// (paper: "less than a 10 % overhead compared to linear projections").
pub const PREFILL_QUANT_OVERHEAD_FRAC: f64 = 0.08;

/// Geometry and footprint of a model-wide KV cache.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct KvCache {
    /// Model architecture.
    pub model: LlamaConfig,
    /// Cached tokens per sample.
    pub seq: usize,
    /// Batch size.
    pub batch: usize,
    /// Storage backing.
    pub storage: KvStorage,
}

impl KvCache {
    /// Creates a cache descriptor.
    ///
    /// Unvalidated (kept for footprint arithmetic on hypothetical
    /// geometries); the serving layer goes through [`KvCache::try_new`] so
    /// that every live cache starts inside the model's context window.
    pub fn new(model: LlamaConfig, seq: usize, batch: usize, storage: KvStorage) -> Self {
        KvCache {
            model,
            seq,
            batch,
            storage,
        }
    }

    /// Creates a cache descriptor, validating the geometry against the
    /// configured model: `seq` must fit the context window and `batch`
    /// must be non-zero.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::KvCapacity`](crate::LlmError::KvCapacity) when
    /// `seq > model.max_seq` or `batch == 0`.
    pub fn try_new(
        model: LlamaConfig,
        seq: usize,
        batch: usize,
        storage: KvStorage,
    ) -> crate::Result<Self> {
        if seq > model.max_seq {
            return Err(crate::LlmError::KvCapacity {
                what: "seq exceeds the model's context window",
                value: seq,
                limit: model.max_seq,
            });
        }
        if batch == 0 {
            return Err(crate::LlmError::KvCapacity {
                what: "batch must be non-zero",
                value: 0,
                limit: 1,
            });
        }
        Ok(KvCache::new(model, seq, batch, storage))
    }

    /// Total cache bytes at the configured precision (both K and V, all
    /// layers).
    pub fn bytes(&self) -> usize {
        let elems =
            2 * self.batch * self.model.layers * self.model.heads * self.seq * self.model.head_dim;
        (elems as f64 * self.storage.bits() / 8.0).ceil() as usize
    }

    /// Bytes the FP16 baseline would need.
    pub fn fp16_bytes(&self) -> usize {
        self.model.kv_bytes_fp16(self.seq, self.batch)
    }

    /// Bytes one cached token costs per sample at the configured
    /// precision (K and V, all layers) — the unit admission prices when
    /// capacity is denominated in memory instead of token counts.
    pub fn bytes_per_token(&self) -> f64 {
        let elems = 2 * self.model.layers * self.model.heads * self.model.head_dim;
        elems as f64 * self.storage.bits() / 8.0
    }

    /// Compression ratio against FP16.
    pub fn compression(&self) -> f64 {
        self.bytes() as f64 / self.fp16_bytes() as f64
    }

    /// Appends one token per sample, returning the quantization overhead in
    /// microseconds (0 for FP16).
    ///
    /// Growth is validated against the configured model instead of
    /// silently extrapolating: a cache at the context window refuses to
    /// grow, so a decode loop can never walk off the end of the window it
    /// was admitted for.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::KvCapacity`](crate::LlmError::KvCapacity) when
    /// the cache is already at `model.max_seq`.
    pub fn append_token(&mut self) -> crate::Result<f64> {
        if self.seq >= self.model.max_seq {
            return Err(crate::LlmError::KvCapacity {
                what: "append_token past the model's context window",
                value: self.seq + 1,
                limit: self.model.max_seq,
            });
        }
        self.seq += 1;
        Ok(match self.storage {
            KvStorage::Fp16 => 0.0,
            _ => DECODE_QUANT_OVERHEAD_US,
        })
    }

    /// Resizes the batch dimension (a tenant joining or leaving a shared
    /// model-wide cache), validating the new geometry.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::KvCapacity`](crate::LlmError::KvCapacity) when
    /// `batch == 0`.
    pub fn set_batch(&mut self, batch: usize) -> crate::Result<()> {
        if batch == 0 {
            return Err(crate::LlmError::KvCapacity {
                what: "batch must be non-zero",
                value: 0,
                limit: 1,
            });
        }
        self.batch = batch;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cq2_compresses_to_an_eighth() {
        let cache = KvCache::new(
            LlamaConfig::llama_7b(),
            1024,
            1,
            KvStorage::Vq {
                bits_per_element: 2.0,
            },
        );
        assert!((cache.compression() - 0.125).abs() < 1e-9);
    }

    #[test]
    fn append_advances_and_charges_overhead() {
        let mut cache = KvCache::new(
            LlamaConfig::llama_7b(),
            8,
            1,
            KvStorage::Vq {
                bits_per_element: 4.0,
            },
        );
        let us = cache.append_token().unwrap();
        assert_eq!(cache.seq, 9);
        assert!(us > 0.0 && us < 1.0, "paper: < 1 us");
        let mut fp = KvCache::new(LlamaConfig::llama_7b(), 8, 1, KvStorage::Fp16);
        assert_eq!(fp.append_token().unwrap(), 0.0);
    }

    #[test]
    fn growth_past_the_context_window_is_an_error_not_an_extrapolation() {
        let model = LlamaConfig::llama_7b();
        let mut cache = KvCache::new(
            model,
            model.max_seq - 1,
            1,
            KvStorage::Vq {
                bits_per_element: 4.0,
            },
        );
        // The last in-window append succeeds; the one past it is refused
        // and leaves the geometry untouched.
        assert!(cache.append_token().is_ok());
        assert_eq!(cache.seq, model.max_seq);
        let err = cache.append_token().unwrap_err();
        assert!(
            matches!(err, crate::LlmError::KvCapacity { limit, .. } if limit == model.max_seq),
            "{err}"
        );
        assert_eq!(cache.seq, model.max_seq);
        // Validated construction and batch resizing reject degenerate
        // geometry up front.
        assert!(KvCache::try_new(model, model.max_seq + 1, 1, KvStorage::Fp16).is_err());
        assert!(KvCache::try_new(model, 16, 0, KvStorage::Fp16).is_err());
        let mut ok = KvCache::try_new(model, 16, 2, KvStorage::Fp16).unwrap();
        assert!(ok.set_batch(0).is_err());
        assert_eq!(ok.batch, 2);
        ok.set_batch(5).unwrap();
        assert_eq!(ok.batch, 5);
    }

    #[test]
    fn fp16_batch16_cache_is_gigabytes() {
        let cache = KvCache::new(LlamaConfig::llama_7b(), 1280, 16, KvStorage::Fp16);
        let gb = cache.bytes() as f64 / 1e9;
        assert!(gb > 5.0 && gb < 12.0, "{gb}");
    }
}
