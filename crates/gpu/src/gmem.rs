//! Global-memory coalescing model.
//!
//! Global loads/stores are serviced in 128-byte transactions (the L1 line).
//! A warp touching `n` distinct lines costs `n` transactions regardless of
//! how few bytes each lane wants — this is why the paper's VQ-attn-GC
//! version, which chases random codebook entries in global memory, sees only
//! a 12.45 % L1 hit rate and wastes most of each line it pulls.

use crate::device::GpuSpec;

/// Model of global-memory access granularity.
#[derive(Debug, Clone)]
pub struct GlobalMemoryModel {
    line: usize,
}

/// Outcome of a warp-wide global access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GmemAccess {
    /// 128-byte transactions issued.
    pub transactions: usize,
    /// Bytes actually moved over DRAM (transactions × line).
    pub dram_bytes: usize,
    /// Bytes the warp asked for (useful bytes).
    pub useful_bytes: usize,
}

impl GmemAccess {
    /// Fraction of moved bytes that were requested (1.0 = perfectly
    /// coalesced).
    pub fn efficiency(&self) -> f64 {
        if self.dram_bytes == 0 {
            return 1.0;
        }
        self.useful_bytes as f64 / self.dram_bytes as f64
    }
}

impl GlobalMemoryModel {
    /// Creates a coalescing model from a device spec.
    pub fn new(gpu: &GpuSpec) -> Self {
        GlobalMemoryModel {
            line: gpu.gmem_transaction_bytes,
        }
    }

    /// Creates a model with an explicit line size (tests).
    pub fn with_line(line: usize) -> Self {
        assert!(line.is_power_of_two(), "line size must be a power of two");
        GlobalMemoryModel { line }
    }

    /// Simulates one warp access: each active lane touches `elem_bytes`
    /// bytes at its byte address.
    pub fn warp_access(&self, addrs: &[Option<usize>], elem_bytes: usize) -> GmemAccess {
        assert!(elem_bytes > 0);
        let mut lines: Vec<usize> = Vec::with_capacity(32);
        let mut useful = 0usize;
        for addr in addrs.iter().flatten() {
            useful += elem_bytes;
            let first = addr / self.line;
            let last = (addr + elem_bytes - 1) / self.line;
            for l in first..=last {
                if !lines.contains(&l) {
                    lines.push(l);
                }
            }
        }
        GmemAccess {
            transactions: lines.len(),
            dram_bytes: lines.len() * self.line,
            useful_bytes: useful,
        }
    }

    /// Convenience: all 32 lanes active.
    pub fn warp_access_full(&self, addrs: &[usize; 32], elem_bytes: usize) -> GmemAccess {
        let opt: Vec<Option<usize>> = addrs.iter().map(|&a| Some(a)).collect();
        self.warp_access(&opt, elem_bytes)
    }

    /// Transactions for a perfectly-contiguous block copy of `bytes`
    /// starting at an aligned address (streaming loads of weights/KV).
    pub fn contiguous_bytes(&self, bytes: usize) -> GmemAccess {
        let transactions = bytes.div_ceil(self.line);
        GmemAccess {
            transactions,
            dram_bytes: transactions * self.line,
            useful_bytes: bytes,
        }
    }

    /// Transaction (line) size in bytes.
    pub fn line(&self) -> usize {
        self.line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> GlobalMemoryModel {
        GlobalMemoryModel::with_line(128)
    }

    #[test]
    fn coalesced_fp32_warp_is_one_transaction() {
        let addrs: [usize; 32] = std::array::from_fn(|i| i * 4);
        let a = model().warp_access_full(&addrs, 4);
        assert_eq!(a.transactions, 1);
        assert!((a.efficiency() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn scattered_access_touches_many_lines() {
        let addrs: [usize; 32] = std::array::from_fn(|i| i * 4096);
        let a = model().warp_access_full(&addrs, 4);
        assert_eq!(a.transactions, 32);
        assert!(a.efficiency() < 0.05);
    }

    #[test]
    fn straddling_elements_count_both_lines() {
        let addrs = [Some(124usize)]; // 8-byte element crossing the 128 line
        let a = model().warp_access(&addrs, 8);
        assert_eq!(a.transactions, 2);
    }

    #[test]
    fn contiguous_rounds_up() {
        let a = model().contiguous_bytes(300);
        assert_eq!(a.transactions, 3);
        assert_eq!(a.dram_bytes, 384);
        assert_eq!(a.useful_bytes, 300);
    }

    #[test]
    fn random_codebook_fetch_has_low_efficiency() {
        // 256 entries × 8 bytes scattered over 2 KB: a warp of random
        // fetches touches many distinct lines.
        let addrs: [usize; 32] = std::array::from_fn(|i| ((i * 37 + 5) % 256) * 8);
        let a = model().warp_access_full(&addrs, 8);
        assert!(a.efficiency() < 0.5, "efficiency {}", a.efficiency());
    }
}
