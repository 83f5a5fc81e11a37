//! Inputs shared by the integration tests, built by integer hashing alone
//! (no `sin` / `exp` / `ln`, whose last bits differ between C libraries):
//! values, quantized tensors assembled from parts, and ragged extensions.

use vq_llm::kernels::host_exec::{CodeStream, OutlierBuf, RaggedExt};
use vq_llm::vq::{Codebook, CodebookSet, PackedIndices, QuantizedTensor};
use vq_llm::VqConfig;

pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `n` values in `[-1, 1]`, multiples of 1/1000 each rounded once.
pub fn f32s(n: usize, rng: &mut u64) -> Vec<f32> {
    (0..n)
        .map(|_| (splitmix(rng) % 2001) as f32 / 1000.0 - 1.0)
        .collect()
}

/// A quantized tensor assembled from random codebooks and random codes —
/// no training, so any entry count fits any shape, and a debug build
/// makes it as quickly as a release one.
pub fn synthetic(cfg: VqConfig, rows: usize, cols: usize, seed: u64) -> QuantizedTensor {
    let mut rng = seed ^ 0x5717;
    let scopes = CodebookSet::num_scopes(&cfg, (rows, cols));
    let books = (0..cfg.residuals)
        .map(|_| {
            (0..scopes)
                .map(|_| {
                    let entries = f32s(cfg.stored_entries() * cfg.vector_size, &mut rng);
                    Codebook::new(entries, cfg.vector_size, cfg.lattice).unwrap()
                })
                .collect()
        })
        .collect();
    let set = CodebookSet::new(cfg, (rows, cols), books).unwrap();
    let streams = (0..cfg.residuals)
        .map(|_| {
            let codes: Vec<u32> = (0..rows * cols / cfg.vector_size)
                .map(|_| (splitmix(&mut rng) % cfg.num_entries as u64) as u32)
                .collect();
            PackedIndices::pack(&codes, cfg.index_bits() as u8).unwrap()
        })
        .collect();
    QuantizedTensor::from_parts(set, streams).unwrap()
}

/// Owned storage behind one query's [`RaggedExt`].
pub struct ExtData {
    pub rows: usize,
    pub k_codes: Vec<CodeStream>,
    pub v_codes: Vec<CodeStream>,
    pub k_outliers: OutlierBuf,
    pub v_outliers: OutlierBuf,
    pub k_tail: Vec<f32>,
    pub v_tail: Vec<f32>,
}

impl ExtData {
    /// `rows` folded rows of random codes, an outlier residual on about a
    /// quarter of their groups, `tail` f32 tail rows.
    pub fn new(
        cfg: &VqConfig,
        head_dim: usize,
        rows: usize,
        tail: usize,
        rng: &mut u64,
    ) -> ExtData {
        let groups = head_dim / cfg.vector_size;
        let codes = |rng: &mut u64| -> Vec<CodeStream> {
            (0..cfg.residuals)
                .map(|_| {
                    let mut stream = CodeStream::new(cfg.index_bits());
                    for _ in 0..rows * groups {
                        stream.push((splitmix(rng) % cfg.num_entries as u64) as u32);
                    }
                    stream
                })
                .collect()
        };
        let (k_codes, v_codes) = (codes(rng), codes(rng));
        let outliers = |rng: &mut u64| -> OutlierBuf {
            let mut out = OutlierBuf::default();
            for i in 0..rows * groups {
                if splitmix(rng).is_multiple_of(4) {
                    out.push(i / groups, i % groups, &f32s(cfg.vector_size, rng));
                }
            }
            out
        };
        let (k_outliers, v_outliers) = (outliers(rng), outliers(rng));
        ExtData {
            rows,
            k_codes,
            v_codes,
            k_outliers,
            v_outliers,
            k_tail: f32s(tail * head_dim, rng),
            v_tail: f32s(tail * head_dim, rng),
        }
    }

    pub fn ext(&self) -> RaggedExt<'_> {
        RaggedExt {
            rows: self.rows,
            k_codes: &self.k_codes,
            v_codes: &self.v_codes,
            k_outliers: self.k_outliers.view(),
            v_outliers: self.v_outliers.view(),
            k_tail: &self.k_tail,
            v_tail: &self.v_tail,
        }
    }
}
