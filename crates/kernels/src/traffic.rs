//! Codebook-access cost modelling.
//!
//! The cost of a dequantization lookup depends on *where* the entry lives
//! (register / shared / global — decided by the codebook cache) and on the
//! *distribution* of lookups (hot entries broadcast within a warp; uniform
//! random entries conflict). This module samples warp-wide lookup events
//! from a profiled (or synthetic) access distribution and replays them
//! against the bank/coalescing models of `vqllm-gpu`, yielding per-warp
//! average costs that the kernel counter assembly scales by the total
//! lookup count.

use vqllm_core::cache::CachePlacement;
use vqllm_gpu::{GlobalMemoryModel, GpuSpec, SharedMemoryModel, WARP_SIZE};
use vqllm_vq::stats::AccessHistogram;
use vqllm_vq::VqConfig;

/// A normalized access distribution over *reordered* entry ranks
/// (rank 0 = hottest).
#[derive(Debug, Clone)]
pub struct AccessProfile {
    /// Cumulative probability per rank (ascending, last = 1.0).
    cumulative: Vec<f64>,
}

impl AccessProfile {
    /// Builds the profile from a measured histogram (sorted descending —
    /// the codebook cache's reordering).
    pub fn from_histogram(hist: &AccessHistogram) -> Self {
        let mut counts: Vec<u64> = hist.counts().to_vec();
        counts.sort_unstable_by_key(|&c| std::cmp::Reverse(c));
        Self::from_sorted_weights(counts.iter().map(|&c| c as f64 + 1e-9).collect())
    }

    /// Synthetic Zipf-like profile: weight of rank `i` is `1/(i+1)^s`.
    pub fn zipf(entries: usize, s: f64) -> Self {
        assert!(entries > 0);
        Self::from_sorted_weights(
            (0..entries)
                .map(|i| 1.0 / ((i + 1) as f64).powf(s))
                .collect(),
        )
    }

    /// The synthetic default matching each algorithm's skew (Tbl. V's
    /// "#Entry freq > µ+3σ": AQLM 15-30, QuiP# 1-3, GPTVQ/CQ <1 — larger
    /// codebooks trained on long-tailed weight data are more skewed).
    pub fn default_for(vq: &VqConfig) -> Self {
        let s = if vq.num_entries >= 4096 {
            1.0
        } else if vq.lattice {
            0.8
        } else {
            0.5
        };
        Self::zipf(vq.stored_entries(), s)
    }

    fn from_sorted_weights(weights: Vec<f64>) -> Self {
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cumulative = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        AccessProfile { cumulative }
    }

    /// Number of entries in the distribution.
    pub fn entries(&self) -> usize {
        self.cumulative.len()
    }

    /// Stable fingerprint of the distribution (FNV-1a over the bit
    /// patterns), for use as a plan-cache key component: two profiles with
    /// different shapes must not alias to one cached best-rung decision.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &c in &self.cumulative {
            h = (h ^ c.to_bits()).wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Samples a rank from the distribution given `u ∈ [0, 1)`.
    pub fn sample(&self, u: f64) -> usize {
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&u).expect("no NaN"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cumulative.len() - 1),
        }
    }

    /// Kolmogorov–Smirnov distance between two rank distributions: the
    /// largest absolute gap between the cumulative curves, in `[0, 1]`.
    /// A shorter curve is treated as saturated (mass 1.0) past its end,
    /// so comparing profiles of different entry counts is well-defined.
    ///
    /// This is the serving layer's replan trigger: a measured per-context
    /// profile that drifts more than a configured threshold from the one
    /// its canonical plans were made under invalidates those plans.
    pub fn divergence(&self, other: &AccessProfile) -> f64 {
        let n = self.cumulative.len().max(other.cumulative.len());
        let mut d: f64 = 0.0;
        for i in 0..n {
            let a = self.cumulative.get(i).copied().unwrap_or(1.0);
            let b = other.cumulative.get(i).copied().unwrap_or(1.0);
            d = d.max((a - b).abs());
        }
        d
    }

    /// Fraction of accesses landing in ranks `[0, n)`.
    pub fn mass_below(&self, n: usize) -> f64 {
        if n == 0 {
            0.0
        } else if n >= self.cumulative.len() {
            1.0
        } else {
            self.cumulative[n - 1]
        }
    }
}

/// Averaged per-warp-lookup costs for one (profile, placement) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodebookAccessCost {
    /// Fraction of lookups served from registers.
    pub frac_reg: f64,
    /// Fraction served from shared memory.
    pub frac_shared: f64,
    /// Fraction served from global memory.
    pub frac_global: f64,
    /// Shared-memory cycles per warp lookup event (conflicts included).
    pub smem_cycles_per_warp: f64,
    /// Bank-conflict excess cycles per warp lookup event.
    pub conflict_cycles_per_warp: f64,
    /// Distinct 128 B lines touched in global memory per warp event.
    pub gmem_lines_per_warp: f64,
}

/// Deterministic xorshift for reproducible sampling.
struct XorShift(u64);

impl XorShift {
    fn next_f64(&mut self) -> f64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        (x >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Samples `samples` warp-wide lookup events and replays them against the
/// bank and coalescing models.
///
/// `entry_cache_bytes` is the per-entry footprint in the cache (int8
/// lattice points for QuiP#, FP16 otherwise).
pub fn model_codebook_access(
    profile: &AccessProfile,
    placement: &CachePlacement,
    entry_cache_bytes: usize,
    gpu: &GpuSpec,
    samples: usize,
    seed: u64,
) -> CodebookAccessCost {
    let smem = SharedMemoryModel::new(gpu);
    let gmem = GlobalMemoryModel::new(gpu);
    let mut rng = XorShift(seed | 1);

    let mut reg_hits = 0usize;
    let mut shared_hits = 0usize;
    let mut global_hits = 0usize;
    let mut smem_cycles = 0usize;
    let mut conflict_cycles = 0usize;
    let mut gmem_lines = 0usize;

    for _ in 0..samples.max(1) {
        let mut smem_addrs = [None; WARP_SIZE];
        let mut gmem_addrs = [None; WARP_SIZE];
        for lane in 0..WARP_SIZE {
            let rank = profile.sample(rng.next_f64());
            match placement.level_of(rank) {
                vqllm_core::CacheLevel::Register => reg_hits += 1,
                vqllm_core::CacheLevel::Shared => {
                    shared_hits += 1;
                    smem_addrs[lane] = Some((rank - placement.n_reg) * entry_cache_bytes);
                }
                vqllm_core::CacheLevel::Global => {
                    global_hits += 1;
                    gmem_addrs[lane] = Some(rank * entry_cache_bytes);
                }
            }
        }
        let sa = smem.warp_access(&smem_addrs, entry_cache_bytes);
        smem_cycles += sa.cycles;
        conflict_cycles += sa.conflict_cycles;
        let ga = gmem.warp_access(&gmem_addrs, entry_cache_bytes);
        gmem_lines += ga.transactions;
    }

    let total = (samples.max(1) * WARP_SIZE) as f64;
    let n = samples.max(1) as f64;
    CodebookAccessCost {
        frac_reg: reg_hits as f64 / total,
        frac_shared: shared_hits as f64 / total,
        frac_global: global_hits as f64 / total,
        smem_cycles_per_warp: smem_cycles as f64 / n,
        conflict_cycles_per_warp: conflict_cycles as f64 / n,
        gmem_lines_per_warp: gmem_lines as f64 / n,
    }
}

/// L1 hit-rate estimate for global-resident codebook entries: the resident
/// fraction of the working set, deflated by a `thrash` factor for the KV /
/// index streams competing for the same cache.
///
/// Per-tensor codebooks are a stable working set (`thrash ≈ 2`); CQ/GPTVQ
/// books churn as blocks sweep channels and tiles — the operating point
/// behind the paper's 12.45 % overall L1 hit rate for VQ-attn-GC
/// (`thrash ≈ 12`).
pub fn l1_hit_rate_with(working_set_bytes: usize, gpu: &GpuSpec, thrash: f64) -> f64 {
    if working_set_bytes == 0 {
        return 0.95;
    }
    (gpu.l1_bytes as f64 / (working_set_bytes as f64 * thrash.max(1.0))).min(0.9)
}

/// [`l1_hit_rate_with`] at the default (moderate) thrash factor.
pub fn l1_hit_rate(working_set_bytes: usize, gpu: &GpuSpec) -> f64 {
    l1_hit_rate_with(working_set_bytes, gpu, 3.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqllm_core::CachePlacement;
    use vqllm_vq::VqAlgorithm;

    fn gpu() -> GpuSpec {
        GpuSpec::rtx4090()
    }

    #[test]
    fn zipf_profile_is_normalized_and_skewed() {
        let p = AccessProfile::zipf(256, 1.0);
        assert_eq!(p.entries(), 256);
        assert!(p.mass_below(256) > 0.999);
        // Top 16 ranks carry far more than 16/256 of the mass.
        assert!(p.mass_below(16) > 0.4, "{}", p.mass_below(16));
    }

    #[test]
    fn sampling_respects_the_distribution() {
        let p = AccessProfile::zipf(64, 1.2);
        let mut rng = XorShift(42);
        let mut counts = vec![0usize; 64];
        for _ in 0..20_000 {
            counts[p.sample(rng.next_f64())] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[40]);
    }

    #[test]
    fn gc_placement_sends_everything_to_global() {
        let p = AccessProfile::zipf(256, 0.8);
        let cost = model_codebook_access(&p, &CachePlacement::global_only(), 8, &gpu(), 64, 1);
        assert_eq!(cost.frac_global, 1.0);
        assert_eq!(cost.smem_cycles_per_warp, 0.0);
        assert!(
            cost.gmem_lines_per_warp > 4.0,
            "{}",
            cost.gmem_lines_per_warp
        );
    }

    #[test]
    fn sc_placement_conflicts_in_shared_memory() {
        let p = AccessProfile::zipf(256, 0.5);
        let cost = model_codebook_access(&p, &CachePlacement::all_shared(256), 8, &gpu(), 64, 1);
        assert_eq!(cost.frac_global, 0.0);
        assert!(
            cost.conflict_cycles_per_warp > 1.0,
            "random wide entries must conflict: {}",
            cost.conflict_cycles_per_warp
        );
    }

    #[test]
    fn register_caching_reduces_conflicts() {
        // Skewed profile: moving the hot head into registers removes the
        // most frequent conflict sources.
        let p = AccessProfile::zipf(256, 1.0);
        let sc = model_codebook_access(&p, &CachePlacement::all_shared(256), 8, &gpu(), 128, 3);
        let o2 = model_codebook_access(
            &p,
            &CachePlacement {
                n_reg: 16,
                n_shared: 256,
            },
            8,
            &gpu(),
            128,
            3,
        );
        assert!(o2.frac_reg > 0.3, "hot head captures mass: {}", o2.frac_reg);
        assert!(
            o2.smem_cycles_per_warp < sc.smem_cycles_per_warp,
            "register hits bypass the banks: {} vs {}",
            o2.smem_cycles_per_warp,
            sc.smem_cycles_per_warp
        );
    }

    #[test]
    fn partial_shared_caching_splits_traffic() {
        let p = AccessProfile::zipf(256, 0.8);
        let cost = model_codebook_access(
            &p,
            &CachePlacement {
                n_reg: 0,
                n_shared: 64,
            },
            8,
            &gpu(),
            128,
            7,
        );
        assert!(cost.frac_shared > 0.5, "hot 64 entries capture most mass");
        assert!(cost.frac_global > 0.01);
        assert!((cost.frac_reg + cost.frac_shared + cost.frac_global - 1.0).abs() < 1e-9);
    }

    #[test]
    fn default_profiles_match_table_v_hotness() {
        // AQLM's 4096-entry profile is more skewed than CQ's 256-entry one.
        let aqlm = AccessProfile::default_for(&VqAlgorithm::Aqlm3.config());
        let cq = AccessProfile::default_for(&VqAlgorithm::Cq2.config());
        assert!(aqlm.mass_below(30) > cq.mass_below(30));
    }

    #[test]
    fn divergence_is_a_metric_on_rank_curves() {
        let flat = AccessProfile::zipf(256, 0.0);
        let skewed = AccessProfile::zipf(256, 1.2);
        assert_eq!(flat.divergence(&flat), 0.0);
        assert_eq!(skewed.divergence(&flat), flat.divergence(&skewed));
        assert!(skewed.divergence(&flat) > 0.3, "skew is a large shift");
        // A mild reshuffle is a small shift; different lengths still work.
        let mild = AccessProfile::zipf(256, 0.1);
        assert!(flat.divergence(&mild) < skewed.divergence(&flat));
        let short = AccessProfile::zipf(16, 0.0);
        let d = short.divergence(&flat);
        assert!(d > 0.0 && d <= 1.0, "{d}");
    }

    #[test]
    fn l1_hit_rate_is_monotone_and_bounded() {
        // Codebook-entry hit rate degrades with the working set and never
        // reaches 1 (cold misses always cost something).
        let small = l1_hit_rate(1024, &gpu());
        let medium = l1_hit_rate(64 * 1024, &gpu());
        let large = l1_hit_rate(512 * 1024, &gpu());
        assert!(small > medium && medium > large, "{small} {medium} {large}");
        assert!(small <= 0.9);
        assert!(large < 0.15, "{large}");
    }

    #[test]
    fn wider_entries_conflict_more() {
        let p = AccessProfile::zipf(256, 0.5);
        let narrow = model_codebook_access(&p, &CachePlacement::all_shared(256), 4, &gpu(), 128, 9);
        let wide = model_codebook_access(&p, &CachePlacement::all_shared(256), 16, &gpu(), 128, 9);
        assert!(
            wide.conflict_cycles_per_warp > narrow.conflict_cycles_per_warp,
            "vector-size-8 entries span more banks: {} vs {}",
            wide.conflict_cycles_per_warp,
            narrow.conflict_cycles_per_warp
        );
    }
}
