//! Codebook-entry access-frequency profiling.
//!
//! The codebook cache's placement policy is driven by offline profiles of
//! how often each *stored* entry is dereferenced during dequantization:
//!
//! * Fig. 8 — the per-entry histogram with its µ and µ+3σ markers; the few
//!   entries above µ+3σ are the register-cached "hot" set.
//! * Fig. 9 — hot entries are consistent across tensor parts, which
//!   justifies reordering at the *tensor* level rather than per block.

use crate::quantizer::QuantizedTensor;
use serde::{Deserialize, Serialize};

/// Classification of one entry's access frequency (paper §IV: cold /
/// medium / hot).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EntryClass {
    /// Above µ+3σ: cached in registers.
    Hot,
    /// Above the mean: cached in shared memory.
    Medium,
    /// At or below the mean: left in global memory.
    Cold,
}

/// Access counts per stored codebook entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccessHistogram {
    counts: Vec<u64>,
}

impl AccessHistogram {
    /// Profiles residual round `r` of `q` across the whole tensor
    /// (aggregating every scope — the paper's tensor-level reordering
    /// choice, supported by Fig. 9).
    ///
    /// # Panics
    ///
    /// Panics if `r >= residuals`.
    pub fn profile(q: &QuantizedTensor, r: usize) -> Self {
        Self::profile_rows(q, r, 0, q.shape().0)
    }

    /// Profiles a band of rows only (one "tensor part" of Fig. 9).
    ///
    /// Serving registration profiles every context through here, so it
    /// reads codes the way the kernels do: a row per
    /// [`unpack_block`](crate::PackedIndices::unpack_block), with the
    /// group → codebook mapping resolved once per band of rows that share
    /// it ([`CodebookSet::band_rows`](crate::CodebookSet::band_rows)).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the tensor or `r >= residuals`.
    pub fn profile_rows(q: &QuantizedTensor, r: usize, row_start: usize, row_end: usize) -> Self {
        let groups = q.col_groups();
        let books = q.codebooks();
        let band = books.band_rows();
        let stream = q.index_stream(r);
        let mut counts = vec![0u64; q.config().stored_entries()];
        let mut codes = vec![0u32; groups];
        let mut row = row_start;
        while row < row_end {
            // The range may start mid-band: up to the next band boundary.
            let band_end = ((row / band + 1) * band).min(row_end);
            let band_books = books.row_books(r, row, 0..groups);
            for row in row..band_end {
                stream.unpack_block(row * groups, &mut codes);
                for (&code, book) in codes.iter().zip(&band_books) {
                    counts[book.stored_id_of(code) as usize] += 1;
                }
            }
            row = band_end;
        }
        AccessHistogram { counts }
    }

    /// Builds a histogram from raw counts.
    pub fn from_counts(counts: Vec<u64>) -> Self {
        AccessHistogram { counts }
    }

    /// Per-entry counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total accesses.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean accesses per entry.
    pub fn mean(&self) -> f64 {
        if self.counts.is_empty() {
            return 0.0;
        }
        self.total() as f64 / self.counts.len() as f64
    }

    /// Population standard deviation of per-entry accesses.
    pub fn std_dev(&self) -> f64 {
        if self.counts.is_empty() {
            return 0.0;
        }
        let m = self.mean();
        let var = self
            .counts
            .iter()
            .map(|&c| (c as f64 - m).powi(2))
            .sum::<f64>()
            / self.counts.len() as f64;
        var.sqrt()
    }

    /// The paper's hot threshold, µ+3σ.
    pub fn hot_threshold(&self) -> f64 {
        self.mean() + 3.0 * self.std_dev()
    }

    /// Classifies every entry (Fig. 8's partition).
    pub fn classify(&self) -> Vec<EntryClass> {
        let mean = self.mean();
        let hot = self.hot_threshold();
        self.counts
            .iter()
            .map(|&c| {
                let c = c as f64;
                if c > hot {
                    EntryClass::Hot
                } else if c > mean {
                    EntryClass::Medium
                } else {
                    EntryClass::Cold
                }
            })
            .collect()
    }

    /// Number of entries above µ+3σ (Tbl. V's "#Entry freq > µ+3σ" row).
    pub fn num_hot(&self) -> usize {
        self.classify()
            .iter()
            .filter(|c| **c == EntryClass::Hot)
            .count()
    }

    /// Entries accessed at or below the mean (the ">half yield little
    /// benefit in shared memory" population of §V-A).
    pub fn num_cold(&self) -> usize {
        self.classify()
            .iter()
            .filter(|c| **c == EntryClass::Cold)
            .count()
    }

    /// Permutation sorting entries by descending frequency: element `i` is
    /// the old entry id that moves to position `i`. This is the codebook
    /// cache's reorder-based static mapping (most frequent → index 0).
    pub fn sort_permutation(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = (0..self.counts.len() as u32).collect();
        ids.sort_by_key(|&id| std::cmp::Reverse(self.counts[id as usize]));
        ids
    }

    /// Pearson correlation with another histogram over the same entries
    /// (Fig. 9's cross-block consistency).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn correlation(&self, other: &AccessHistogram) -> f64 {
        assert_eq!(self.counts.len(), other.counts.len());
        let n = self.counts.len() as f64;
        if n == 0.0 {
            return 1.0;
        }
        let ma = self.mean();
        let mb = other.mean();
        let mut cov = 0.0;
        let mut va = 0.0;
        let mut vb = 0.0;
        for (&a, &b) in self.counts.iter().zip(&other.counts) {
            let da = a as f64 - ma;
            let db = b as f64 - mb;
            cov += da * db;
            va += da * da;
            vb += db * db;
        }
        if va == 0.0 || vb == 0.0 {
            return 1.0;
        }
        cov / (va.sqrt() * vb.sqrt())
    }
}

/// Per-block × entry access matrix (Fig. 9).
#[derive(Debug, Clone)]
pub struct BlockAccessMatrix {
    blocks: Vec<AccessHistogram>,
}

impl BlockAccessMatrix {
    /// Splits the tensor's rows into `num_blocks` contiguous bands and
    /// profiles each — one row of Fig. 9 per band.
    ///
    /// # Panics
    ///
    /// Panics if `num_blocks` is 0 or exceeds the row count.
    pub fn profile(q: &QuantizedTensor, r: usize, num_blocks: usize) -> Self {
        let (rows, _) = q.shape();
        assert!(num_blocks > 0 && num_blocks <= rows, "invalid block count");
        let band = rows.div_ceil(num_blocks);
        let blocks = (0..num_blocks)
            .map(|b| {
                let start = b * band;
                let end = ((b + 1) * band).min(rows);
                AccessHistogram::profile_rows(q, r, start, end)
            })
            .collect();
        BlockAccessMatrix { blocks }
    }

    /// Per-block histograms.
    pub fn blocks(&self) -> &[AccessHistogram] {
        &self.blocks
    }

    /// Mean pairwise correlation between block histograms — high values
    /// mean hot entries are consistent across tensor parts, validating
    /// tensor-level reordering.
    pub fn cross_block_consistency(&self) -> f64 {
        let n = self.blocks.len();
        if n < 2 {
            return 1.0;
        }
        let mut sum = 0.0;
        let mut pairs = 0usize;
        for i in 0..n {
            for j in (i + 1)..n {
                sum += self.blocks[i].correlation(&self.blocks[j]);
                pairs += 1;
            }
        }
        sum / pairs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CodebookScope, VqConfig};
    use crate::quantizer::VqQuantizer;
    use vqllm_tensor::synth;

    fn quantized() -> QuantizedTensor {
        let w = synth::gaussian_with_outliers(96, 64, 1.0, 0.02, 6.0, 17);
        let cfg = VqConfig::new(4, 64, 1, CodebookScope::PerTensor).unwrap();
        VqQuantizer::new(cfg).quantize(&w, 3).unwrap()
    }

    #[test]
    fn histogram_total_matches_subvector_count() {
        let q = quantized();
        let h = AccessHistogram::profile(&q, 0);
        assert_eq!(h.total(), (96 * 64 / 4) as u64);
        assert_eq!(h.counts().len(), 64);
    }

    /// The per-code walk `profile_rows` replaced, kept as its oracle:
    /// random-access index, scope and book resolved for every code.
    fn profile_rows_oracle(q: &QuantizedTensor, r: usize, start: usize, end: usize) -> Vec<u64> {
        let mut counts = vec![0u64; q.config().stored_entries()];
        for row in start..end {
            for g in 0..q.col_groups() {
                let id = q.index_at(r, row, g);
                let s = q.codebooks().scope_index(row, g * q.config().vector_size);
                let sid = q.codebooks().book(r, s).stored_id_of(id);
                counts[sid as usize] += 1;
            }
        }
        counts
    }

    #[test]
    fn profile_rows_counts_equal_the_per_code_walk() {
        let tile = CodebookScope::PerTile { rows: 16, cols: 16 };
        let configs = [
            VqConfig::new(4, 64, 1, CodebookScope::PerTensor).unwrap(),
            VqConfig::new(2, 16, 2, CodebookScope::PerChannelGroup { channels: 2 }).unwrap(),
            VqConfig::new(4, 16, 2, tile).unwrap(),
            VqConfig::new_lattice(4, 256, 16, 1, CodebookScope::PerTensor).unwrap(),
        ];
        for cfg in configs {
            let w = synth::gaussian_with_outliers(96, 32, 1.0, 0.02, 6.0, 23);
            let q = VqQuantizer::new(cfg).quantize(&w, 5).unwrap();
            // Whole tensor, ranges that start and end inside a tile row,
            // a single row, and the empty range.
            for (start, end) in [(0, 96), (5, 71), (16, 32), (40, 41), (96, 96)] {
                for r in 0..cfg.residuals {
                    assert_eq!(
                        AccessHistogram::profile_rows(&q, r, start, end).counts(),
                        profile_rows_oracle(&q, r, start, end),
                        "{cfg} round {r} rows {start}..{end}"
                    );
                }
            }
            assert_eq!(
                AccessHistogram::profile(&q, 0).counts(),
                profile_rows_oracle(&q, 0, 0, 96)
            );
        }
    }

    #[test]
    fn classes_partition_entries() {
        // 100 entries at 1 access, one at 1000: µ ≈ 10.9, σ ≈ 98.9, so the
        // big entry clears µ+3σ while the rest sit below the mean.
        let mut counts = vec![1u64; 100];
        counts.push(1000);
        let h = AccessHistogram::from_counts(counts);
        let classes = h.classify();
        assert_eq!(classes.len(), 101);
        assert_eq!(classes[100], EntryClass::Hot);
        assert_eq!(classes[0], EntryClass::Cold);
        assert_eq!(h.num_hot(), 1);
        assert_eq!(h.num_cold(), 100);
    }

    #[test]
    fn hot_threshold_is_mu_plus_3_sigma() {
        let h = AccessHistogram::from_counts(vec![10, 10, 10, 10]);
        assert_eq!(h.hot_threshold(), 10.0);
        assert_eq!(h.num_hot(), 0, "uniform histogram has no hot entries");
    }

    #[test]
    fn sort_permutation_is_descending_permutation() {
        let q = quantized();
        let h = AccessHistogram::profile(&q, 0);
        let perm = h.sort_permutation();
        let mut seen = vec![false; perm.len()];
        for &id in &perm {
            assert!(!seen[id as usize], "duplicate in permutation");
            seen[id as usize] = true;
        }
        for w in perm.windows(2) {
            assert!(h.counts()[w[0] as usize] >= h.counts()[w[1] as usize]);
        }
    }

    #[test]
    fn kmeans_populations_are_skewed() {
        // Gaussian-with-outliers data must produce non-uniform cluster
        // populations — the premise of hierarchical placement (Fig. 8:
        // "over half of the codebook entries are accessed less frequently
        // than the average").
        let q = quantized();
        let h = AccessHistogram::profile(&q, 0);
        // At least 40 % of entries at-or-below the mean on this synthetic
        // tensor (the paper reports "over half" on real Llama weights).
        assert!(
            h.num_cold() * 5 >= h.counts().len() * 2,
            "cold {}",
            h.num_cold()
        );
        assert!(
            h.std_dev() > 0.2 * h.mean(),
            "std {} mean {}",
            h.std_dev(),
            h.mean()
        );
    }

    #[test]
    fn blocks_are_mutually_consistent() {
        // Fig. 9: hot entries are consistent across tensor parts.
        let q = quantized();
        let m = BlockAccessMatrix::profile(&q, 0, 8);
        assert_eq!(m.blocks().len(), 8);
        assert!(
            m.cross_block_consistency() > 0.4,
            "consistency {}",
            m.cross_block_consistency()
        );
    }

    #[test]
    fn correlation_bounds() {
        let a = AccessHistogram::from_counts(vec![1, 2, 3, 4]);
        let b = AccessHistogram::from_counts(vec![2, 4, 6, 8]);
        let c = AccessHistogram::from_counts(vec![4, 3, 2, 1]);
        assert!((a.correlation(&b) - 1.0).abs() < 1e-9);
        assert!((a.correlation(&c) + 1.0).abs() < 1e-9);
    }
}
