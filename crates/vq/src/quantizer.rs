//! The quantization / dequantization pipeline (paper Fig. 1).
//!
//! [`VqQuantizer::quantize`] splits a tensor into `vector_size`-wide
//! sub-vectors, trains one codebook per (scope, residual) slice with
//! k-means — every scope of a round in one [`kmeans_many`] call, so their
//! k-means++ seeding runs in lockstep — subtracts each sub-vector's
//! reconstruction, and repeats for each residual round.
//! [`QuantizedTensor::dequantize`] is the exact inverse path a fused
//! kernel performs on the fly.
//!
//! There is no encode search: a sub-vector's code is the cluster k-means'
//! final assignment put it in (for lattice books, the stored entry nearest
//! its `|v|`, with the signs of `v` ORed in above it). That assignment is
//! the search [`Codebook::encode`] runs — the same `nearest_many` over the
//! same element-major table, on the same points — so the code is the one
//! `encode` would give.

use crate::codebook::{Codebook, CodebookSet};
use crate::config::VqConfig;
use crate::kmeans::{kmeans_many, KmeansOptions};
use crate::packing::PackedIndices;
use crate::{Result, VqError};
use serde::{Deserialize, Serialize};
use vqllm_tensor::Tensor2D;

/// Trains codebooks and encodes tensors under one [`VqConfig`].
#[derive(Debug, Clone)]
pub struct VqQuantizer {
    config: VqConfig,
    opts: KmeansOptions,
}

impl VqQuantizer {
    /// Creates a quantizer with default k-means options.
    pub fn new(config: VqConfig) -> Self {
        VqQuantizer {
            config,
            opts: KmeansOptions::default(),
        }
    }

    /// Overrides the k-means training options.
    pub fn with_options(mut self, opts: KmeansOptions) -> Self {
        self.opts = opts;
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &VqConfig {
        &self.config
    }

    /// Quantizes `tensor`, training fresh codebooks.
    ///
    /// # Errors
    ///
    /// Returns [`VqError::IncompatibleShape`] if the column count is not a
    /// multiple of the vector size, or [`VqError::InsufficientData`] if a
    /// scope has fewer sub-vectors than codebook entries *stored* (lattice
    /// books only need their base entries).
    pub fn quantize(&self, tensor: &Tensor2D, seed: u64) -> Result<QuantizedTensor> {
        let cfg = &self.config;
        let (rows, cols) = tensor.shape();
        if rows == 0 || cols == 0 || cols % cfg.vector_size != 0 {
            return Err(VqError::IncompatibleShape {
                what: "quantize (cols must be a positive multiple of vector_size)",
                shape: tensor.shape(),
            });
        }

        let vs = cfg.vector_size;
        let col_groups = cols / vs;
        let num_scopes = CodebookSet::num_scopes(cfg, (rows, cols));
        let k = cfg.stored_entries();

        // Map each (row, col_group) sub-vector to its scope once.
        let scope_of = |row: usize, group: usize| -> usize {
            scope_index_static(cfg, (rows, cols), row, group * vs)
        };

        let mut residual = tensor.clone();
        let mut books: Vec<Vec<Codebook>> = Vec::with_capacity(cfg.residuals);
        let mut streams: Vec<PackedIndices> = Vec::with_capacity(cfg.residuals);

        for r in 0..cfg.residuals {
            // Gather sub-vectors per scope (flat buffers for k-means).
            let mut per_scope: Vec<Vec<f32>> = vec![Vec::new(); num_scopes];
            for row in 0..rows {
                let data = residual.row(row);
                for g in 0..col_groups {
                    let s = scope_of(row, g);
                    let sv = &data[g * vs..(g + 1) * vs];
                    if cfg.lattice {
                        per_scope[s].extend(sv.iter().map(|v| v.abs()));
                    } else {
                        per_scope[s].extend_from_slice(sv);
                    }
                }
            }

            // Train one codebook per scope, all scopes in one call.
            if let Some(pts) = per_scope.iter().find(|pts| pts.len() / vs < k) {
                return Err(VqError::InsufficientData {
                    points: pts.len() / vs,
                    entries: k,
                });
            }
            let scopes: Vec<(&[f32], u64)> = per_scope
                .iter()
                .enumerate()
                .map(|(s, pts)| (&pts[..], seed ^ ((r as u64) << 32) ^ s as u64))
                .collect();
            let trained = kmeans_many(&scopes, vs, k, &self.opts);
            drop(scopes);
            drop(per_scope);
            let mut round_books = Vec::with_capacity(num_scopes);
            let mut assignments = Vec::with_capacity(num_scopes);
            for km in trained {
                round_books.push(Codebook::new(km.centroids, vs, cfg.lattice)?);
                assignments.push(km.assignments.into_iter());
            }

            // Take every sub-vector's code from its scope's assignment (in
            // the order the scope's points were gathered) and subtract the
            // reconstruction for the next residual round.
            let mut indices = Vec::with_capacity(rows * col_groups);
            let mut recon = vec![0.0f32; vs];
            for row in 0..rows {
                for g in 0..col_groups {
                    let s = scope_of(row, g);
                    let book = &round_books[s];
                    let base = assignments[s].next().expect("one assignment per point");
                    let sv = &mut residual.row_mut(row)[g * vs..(g + 1) * vs];
                    let id = if cfg.lattice {
                        (Codebook::sign_mask(sv) << book.sign_shift()) | base
                    } else {
                        base
                    };
                    indices.push(id);
                    book.lookup(id, &mut recon);
                    for (x, &rv) in sv.iter_mut().zip(&recon) {
                        *x -= rv;
                    }
                }
            }

            streams.push(PackedIndices::pack(&indices, cfg.index_bits() as u8)?);
            books.push(round_books);
        }

        Ok(QuantizedTensor {
            config: *cfg,
            shape: (rows, cols),
            codebooks: CodebookSet::new(*cfg, (rows, cols), books)?,
            indices: streams,
        })
    }
}

fn scope_index_static(cfg: &VqConfig, shape: (usize, usize), row: usize, col: usize) -> usize {
    use crate::config::CodebookScope::*;
    match cfg.scope {
        PerTensor => 0,
        PerTile { rows, cols } => (row / rows) * shape.1.div_ceil(cols) + col / cols,
        PerChannelGroup { channels } => col / channels,
    }
}

/// A VQ-compressed tensor: packed index streams plus trained codebooks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedTensor {
    config: VqConfig,
    shape: (usize, usize),
    codebooks: CodebookSet,
    indices: Vec<PackedIndices>,
}

impl QuantizedTensor {
    /// Assembles a quantized tensor from pre-trained parts — the path a
    /// serving process takes when loading a quantized checkpoint (or a
    /// bench builds a large synthetic operand) instead of re-running
    /// k-means via [`VqQuantizer::quantize`].
    ///
    /// Index validity is implied by the bit width: every packed value is
    /// `< 2^index_bits = num_entries`, which equals each book's logical
    /// entry count (checked below, and enforced for lattice configs by
    /// [`VqConfig::new_lattice`]), so no O(elements) range scan is needed.
    /// The host kernels rely on exactly this — `code < 2^index_bits`, every
    /// book holding that many logical entries — to index by type instead of
    /// by check: an 8-bit stream's bytes ([`PackedIndices::as_bytes`]) go
    /// straight into 256-slot tables and 256-entry books with no range test
    /// per code. A change that lets a wider code or a shorter book through
    /// here must restore those tests there.
    ///
    /// # Errors
    ///
    /// Returns [`VqError::IncompatibleShape`] if the shape is not a
    /// positive multiple of the vector size or disagrees with the codebook
    /// set, and [`VqError::InvalidConfig`] if the stream count, stream
    /// lengths, bit widths, or per-book entry counts don't match `config`.
    pub fn from_parts(
        codebooks: CodebookSet,
        indices: Vec<PackedIndices>,
    ) -> Result<QuantizedTensor> {
        let config = *codebooks.config();
        let shape = codebooks.shape();
        let (rows, cols) = shape;
        if rows == 0 || cols == 0 || cols % config.vector_size != 0 {
            return Err(VqError::IncompatibleShape {
                what: "from_parts (cols must be a positive multiple of vector_size)",
                shape,
            });
        }
        if indices.len() != config.residuals {
            return Err(VqError::InvalidConfig {
                what: "from_parts stream count (must equal residuals)",
                value: indices.len(),
            });
        }
        // Every book must expose exactly the index space the packed codes
        // address, or decodes would panic (or silently alias) later.
        for r in 0..config.residuals {
            for s in 0..codebooks.scopes() {
                let book = codebooks.book(r, s);
                if book.vector_size() != config.vector_size
                    || book.is_lattice() != config.lattice
                    || book.logical_entries() != config.num_entries
                {
                    return Err(VqError::InvalidConfig {
                        what: "from_parts codebook (entry count / vector size / lattice \
                               flag must match the config)",
                        value: book.logical_entries(),
                    });
                }
            }
        }
        let vectors = rows * (cols / config.vector_size);
        for stream in &indices {
            if stream.len() != vectors {
                return Err(VqError::InvalidConfig {
                    what: "from_parts stream length (must equal sub-vector count)",
                    value: stream.len(),
                });
            }
            if u32::from(stream.bits()) != config.index_bits() {
                return Err(VqError::InvalidConfig {
                    what: "from_parts stream bit width (must equal index_bits)",
                    value: stream.bits() as usize,
                });
            }
        }
        Ok(QuantizedTensor {
            config,
            shape,
            codebooks,
            indices,
        })
    }

    /// The configuration this tensor was quantized under.
    pub fn config(&self) -> &VqConfig {
        &self.config
    }

    /// Original tensor shape.
    pub fn shape(&self) -> (usize, usize) {
        self.shape
    }

    /// Column groups per row (`cols / vector_size`).
    pub fn col_groups(&self) -> usize {
        self.shape.1 / self.config.vector_size
    }

    /// The trained codebooks.
    pub fn codebooks(&self) -> &CodebookSet {
        &self.codebooks
    }

    /// Packed index stream of residual round `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= residuals`.
    pub fn index_stream(&self, r: usize) -> &PackedIndices {
        &self.indices[r]
    }

    /// Logical entry id for residual `r`, element row `row`, column group
    /// `group`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn index_at(&self, r: usize, row: usize, group: usize) -> u32 {
        self.indices[r].get(row * self.col_groups() + group)
    }

    /// Full dequantization.
    ///
    /// Row-at-a-time: each residual stream is block-decoded per row
    /// ([`PackedIndices::unpack_block`]) and accumulated in place — no
    /// per-sub-vector allocation or random-access bit fiddling.
    ///
    /// # Errors
    ///
    /// Currently infallible for a well-formed value; returns `Result` for
    /// forward compatibility with streaming backends.
    pub fn dequantize(&self) -> Result<Tensor2D> {
        let (rows, cols) = self.shape;
        let vs = self.config.vector_size;
        let groups = self.col_groups();
        let mut t = Tensor2D::zeros(rows, cols);
        let mut codes = vec![0u32; groups];
        for row in 0..rows {
            let dst = t.row_mut(row);
            for (r, stream) in self.indices.iter().enumerate() {
                stream.unpack_block(row * groups, &mut codes);
                for (g, &code) in codes.iter().enumerate() {
                    let s = self.codebooks.scope_index(row, g * vs);
                    self.codebooks
                        .book(r, s)
                        .accumulate(code, &mut dst[g * vs..(g + 1) * vs]);
                }
            }
        }
        Ok(t)
    }

    /// Compressed payload size: packed indices + codebooks (FP16).
    pub fn compressed_bytes(&self) -> usize {
        self.indices
            .iter()
            .map(PackedIndices::byte_len)
            .sum::<usize>()
            + self.codebooks.total_bytes()
    }

    /// Index-stream bytes only (what streams from DRAM per use; codebooks
    /// are shared).
    pub fn index_bytes(&self) -> usize {
        self.indices.iter().map(PackedIndices::byte_len).sum()
    }

    /// Compression ratio of the index streams against FP16 storage.
    pub fn index_compression_vs_fp16(&self) -> f64 {
        let fp16 = self.shape.0 * self.shape.1 * 2;
        self.index_bytes() as f64 / fp16 as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CodebookScope;
    use vqllm_tensor::{metrics, synth};

    fn quantize_roundtrip(cfg: VqConfig, rows: usize, cols: usize) -> (Tensor2D, Tensor2D) {
        let w = synth::correlated_channels(rows, cols, cfg.vector_size, 0.9, 42);
        let q = VqQuantizer::new(cfg).quantize(&w, 7).unwrap();
        let restored = q.dequantize().unwrap();
        (w, restored)
    }

    #[test]
    fn per_tensor_roundtrip_has_low_error() {
        let cfg = VqConfig::new(4, 256, 1, CodebookScope::PerTensor).unwrap();
        let (w, r) = quantize_roundtrip(cfg, 64, 64);
        let rel = metrics::rel_frobenius(w.as_slice(), r.as_slice());
        assert!(rel < 0.7, "relative error {rel}");
    }

    #[test]
    fn residual_rounds_reduce_error() {
        let base = VqConfig::new(4, 64, 1, CodebookScope::PerTensor).unwrap();
        let twice = VqConfig::new(4, 64, 2, CodebookScope::PerTensor).unwrap();
        let w = synth::correlated_channels(64, 64, 4, 0.9, 3);
        let q1 = VqQuantizer::new(base).quantize(&w, 7).unwrap();
        let q2 = VqQuantizer::new(twice).quantize(&w, 7).unwrap();
        let e1 = metrics::mse_tensor(&w, &q1.dequantize().unwrap());
        let e2 = metrics::mse_tensor(&w, &q2.dequantize().unwrap());
        assert!(e2 < e1, "residual round must reduce MSE ({e2} !< {e1})");
    }

    #[test]
    fn channel_group_scope_trains_separate_books() {
        let cfg = VqConfig::new(2, 16, 1, CodebookScope::PerChannelGroup { channels: 2 }).unwrap();
        let w = synth::kv_stream(128, 8, 0.8, 9);
        let q = VqQuantizer::new(cfg).quantize(&w, 1).unwrap();
        assert_eq!(q.codebooks().scopes(), 4);
        let restored = q.dequantize().unwrap();
        assert!(metrics::rel_frobenius(w.as_slice(), restored.as_slice()) < 0.9);
    }

    #[test]
    fn tile_scope_counts_tiles() {
        let cfg = VqConfig::new(4, 16, 1, CodebookScope::PerTile { rows: 32, cols: 32 }).unwrap();
        let w = synth::gaussian(64, 64, 1.0, 5);
        let q = VqQuantizer::new(cfg).quantize(&w, 2).unwrap();
        assert_eq!(q.codebooks().scopes(), 4);
    }

    #[test]
    fn lattice_roundtrip_reconstructs_signs() {
        let cfg = VqConfig::new_lattice(8, 1 << 11, 8, 1, CodebookScope::PerTensor).unwrap();
        let w = synth::gaussian(32, 64, 1.0, 11);
        let q = VqQuantizer::new(cfg).quantize(&w, 3).unwrap();
        let restored = q.dequantize().unwrap();
        // Signs must match wherever the reconstruction is clearly non-zero.
        let mut sign_errors = 0;
        for (a, b) in w.as_slice().iter().zip(restored.as_slice()) {
            if b.abs() > 0.3 && a.signum() != b.signum() {
                sign_errors += 1;
            }
        }
        let frac = sign_errors as f64 / w.len() as f64;
        assert!(frac < 0.02, "sign error fraction {frac}");
    }

    #[test]
    fn index_bytes_match_config_math() {
        let cfg = VqConfig::new(4, 256, 1, CodebookScope::PerTensor).unwrap();
        let w = synth::gaussian(32, 32, 1.0, 1);
        let q = VqQuantizer::new(cfg).quantize(&w, 7).unwrap();
        assert_eq!(q.index_bytes(), cfg.index_bytes(32, 32));
        // 8 bits per 4 elements = 1/8 of FP16 bytes.
        assert!((q.index_compression_vs_fp16() - 0.125).abs() < 1e-9);
    }

    #[test]
    fn rejects_bad_shapes_and_starved_scopes() {
        let cfg = VqConfig::new(4, 256, 1, CodebookScope::PerTensor).unwrap();
        let w = synth::gaussian(8, 6, 1.0, 1); // 6 % 4 != 0
        assert!(VqQuantizer::new(cfg).quantize(&w, 0).is_err());

        let w = synth::gaussian(4, 8, 1.0, 1); // 8 subvectors < 256 entries
        assert!(matches!(
            VqQuantizer::new(cfg).quantize(&w, 0),
            Err(VqError::InsufficientData { .. })
        ));
    }

    #[test]
    fn from_parts_roundtrips_a_quantized_tensor() {
        let cfg = VqConfig::new(4, 64, 2, CodebookScope::PerTensor).unwrap();
        let w = synth::correlated_channels(32, 32, 4, 0.9, 13);
        let q = VqQuantizer::new(cfg).quantize(&w, 5).unwrap();
        let streams: Vec<_> = (0..cfg.residuals)
            .map(|r| q.index_stream(r).clone())
            .collect();
        let rebuilt = QuantizedTensor::from_parts(q.codebooks().clone(), streams).unwrap();
        assert_eq!(rebuilt, q);
        assert_eq!(rebuilt.dequantize().unwrap(), q.dequantize().unwrap());
    }

    #[test]
    fn from_parts_rejects_mismatched_parts() {
        let cfg = VqConfig::new(4, 64, 2, CodebookScope::PerTensor).unwrap();
        let w = synth::correlated_channels(32, 32, 4, 0.9, 13);
        let q = VqQuantizer::new(cfg).quantize(&w, 5).unwrap();
        // Too few streams for residuals = 2.
        let one = vec![q.index_stream(0).clone()];
        assert!(QuantizedTensor::from_parts(q.codebooks().clone(), one).is_err());
        // Wrong stream length.
        let short = PackedIndices::pack(&[0, 1, 2], cfg.index_bits() as u8).unwrap();
        assert!(
            QuantizedTensor::from_parts(q.codebooks().clone(), vec![short.clone(), short]).is_err()
        );
        // Wrong bit width.
        let vectors = 32 * 32 / 4;
        let wide = PackedIndices::pack(&vec![0u32; vectors], 8).unwrap();
        assert!(
            QuantizedTensor::from_parts(q.codebooks().clone(), vec![wide.clone(), wide]).is_err()
        );
        // Codebooks whose entry count disagrees with the config's index
        // space must be rejected, not panic at decode time.
        let small_books = vec![vec![plain_book_16()]; 2];
        let set = CodebookSet::new(cfg, (32, 32), small_books).unwrap();
        let streams: Vec<_> = (0..2).map(|r| q.index_stream(r).clone()).collect();
        assert!(QuantizedTensor::from_parts(set, streams).is_err());
    }

    fn plain_book_16() -> Codebook {
        Codebook::new((0..16 * 4).map(|i| i as f32).collect(), 4, false).unwrap()
    }

    /// Codebooks and packed codes are the ones the one-centroid-at-a-time
    /// search produced, under every preset: the whole pipeline — k-means++
    /// seeding, Lloyd assignment, final assignment, encode pass, lattice
    /// sign folding, residual rounds — re-run on the oracle compares equal.
    #[test]
    fn quantize_is_its_oracle_driven_run_under_every_preset() {
        use crate::{kmeans::oracle, VqAlgorithm};
        for algo in VqAlgorithm::ALL {
            // Smallest shape that fills every scope's codebook.
            let (rows, cols) = match algo {
                VqAlgorithm::QuipSharp4 | VqAlgorithm::Gptvq2 => (64, 64),
                // 4096 entries need 4096 sub-vectors: each search pass is
                // 16.7 M distances, minutes when unoptimised.
                VqAlgorithm::Aqlm3 if cfg!(debug_assertions) => continue,
                VqAlgorithm::Aqlm3 => (256, 128),
                VqAlgorithm::Cq4 | VqAlgorithm::Cq2 => (256, 8),
            };
            let w = synth::correlated_channels(rows, cols, algo.config().vector_size, 0.9, 31);
            let quantizer = VqQuantizer::new(algo.config()).with_options(KmeansOptions {
                max_iters: 3,
                ..KmeansOptions::default()
            });
            let got = quantizer.quantize(&w, 5).unwrap();
            let want = oracle::with(|| quantizer.quantize(&w, 5)).unwrap();
            assert!(got == want, "{algo}: codebooks or codes moved");
        }
    }

    /// Every code `quantize` takes from k-means' assignment is the one
    /// `Codebook::encode` gives the sub-vector it stands for — the encode
    /// pass replayed round by round on the residuals — under every preset.
    #[test]
    fn codes_are_what_encode_gives_under_every_preset() {
        use crate::VqAlgorithm;
        for algo in VqAlgorithm::ALL {
            let (rows, cols) = match algo {
                VqAlgorithm::QuipSharp4 | VqAlgorithm::Gptvq2 => (64, 64),
                VqAlgorithm::Aqlm3 if cfg!(debug_assertions) => continue,
                VqAlgorithm::Aqlm3 => (256, 128),
                VqAlgorithm::Cq4 | VqAlgorithm::Cq2 => (256, 8),
            };
            let cfg = algo.config();
            let w = synth::correlated_channels(rows, cols, cfg.vector_size, 0.9, 41);
            let quantizer = VqQuantizer::new(cfg).with_options(KmeansOptions {
                max_iters: 2,
                ..KmeansOptions::default()
            });
            let q = quantizer.quantize(&w, 9).unwrap();
            let vs = cfg.vector_size;
            let mut residual = w.clone();
            let mut recon = vec![0.0f32; vs];
            for r in 0..cfg.residuals {
                for row in 0..rows {
                    for g in 0..cols / vs {
                        let book = q
                            .codebooks()
                            .book(r, q.codebooks().scope_index(row, g * vs));
                        let sv = &mut residual.row_mut(row)[g * vs..(g + 1) * vs];
                        let id = book.encode(sv);
                        assert_eq!(q.index_at(r, row, g), id, "{algo} round {r} ({row}, {g})");
                        book.lookup(id, &mut recon);
                        for (x, &rv) in sv.iter_mut().zip(&recon) {
                            *x -= rv;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn quantization_is_deterministic() {
        let cfg = VqConfig::new(4, 64, 1, CodebookScope::PerTensor).unwrap();
        let w = synth::gaussian(32, 32, 1.0, 21);
        let a = VqQuantizer::new(cfg).quantize(&w, 5).unwrap();
        let b = VqQuantizer::new(cfg).quantize(&w, 5).unwrap();
        assert_eq!(a, b);
    }
}
