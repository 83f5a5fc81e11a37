//! Plan-driven fused VQ kernels.
//!
//! [`estimate`] executes a [`KernelPlan`] against the performance-model
//! substrate: it assembles whole-grid [`PerfCounters`] from the plan's
//! placement / dataflow / fusion decisions and the profiled codebook access
//! distribution, then asks the timing model for a latency. [`run_gemm`]
//! and [`run_attention_head`] additionally execute the fused computation
//! *functionally* (dequantizing through the codebook cache) so the output
//! can be checked against dequantize-then-reference-compute.
//!
//! The counter assembly is where every effect from the paper's analysis
//! lives; each term is annotated with the corresponding observation.

use crate::traffic::{l1_hit_rate_with, model_codebook_access, AccessProfile};
use crate::{KernelError, KernelOutput, Result};
use vqllm_core::cache::CodebookCache;
use vqllm_core::engine::{entry_bytes, entry_cache_bytes, kernel_codebook_bytes};
use vqllm_core::{CacheLevel, ComputeOp, FusionLevel, KernelPlan, OptLevel};
use vqllm_gpu::{GpuSpec, PerfCounters, TimingModel, WARP_SIZE};
use vqllm_tensor::{linalg, Tensor2D};
use vqllm_vq::stats::AccessHistogram;
use vqllm_vq::QuantizedTensor;

/// LSU replay cycles per lane for an uncoalesced global codebook lookup
/// (L1 hit or miss both occupy the load-store pipe).
const GLOBAL_LOOKUP_CYCLES_PER_LANE: f64 = 1.5;

/// DRAM fetch granularity for sub-line random misses (the L1 sector size on
/// Ampere/Ada: 32 B, not the full 128 B line).
const L1_SECTOR_BYTES: usize = 32;

/// L2 catch rate for repeated streaming of the same quantized indices
/// (GeMM re-reads its weight indices once per output row-strip).
const L2_REREAD_HIT: f64 = 0.8;

/// Fraction of duplicated codebook staging served by L2 rather than DRAM.
const CODEBOOK_L2_HIT: f64 = 0.5;

/// Issue-pipeline cycles per warp lookup for the dependent
/// decode-index → compute-address → load → accumulate chain (the reason
/// real fused kernels cannot reach ideal bandwidth even when every entry
/// is cached).
const DEQUANT_ISSUE_CYCLES: f64 = 6.0;

thread_local! {
    static ESTIMATES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// [`estimate`] evaluations made on the calling thread so far. Thread-local
/// so concurrently running tests cannot perturb one another's count: the
/// "a decode step never runs the model" tests read it around an
/// engine stepped on their own thread.
#[doc(hidden)]
pub fn estimates_on_this_thread() -> u64 {
    ESTIMATES.with(std::cell::Cell::get)
}

/// Estimates the latency and counters of `plan` on `gpu` using `profile`
/// as the codebook access distribution.
pub fn estimate(gpu: &GpuSpec, plan: &KernelPlan, profile: &AccessProfile) -> KernelOutput {
    ESTIMATES.with(|n| n.set(n.get() + 1));
    let counters = assemble_counters(gpu, plan, profile);
    let launch = plan.launch_config();
    let mut latency = TimingModel::new(gpu.clone()).latency(&launch, &counters);
    // The explicit global reduction of the codebook-centric dataflow is a
    // second kernel launch.
    if plan.opt_level >= OptLevel::O3 && plan.dataflow.needs_global_reduce {
        latency.total_us += gpu.launch_overhead_us;
    }
    KernelOutput {
        counters,
        latency,
        launch,
    }
}

/// Plans every rung of the optimization ladder and returns the fastest —
/// the paper's adaptive framework ("best perform version", Fig. 13): each
/// technique is applied only where its heuristics predict a win (e.g. the
/// codebook-centric dataflow is skipped for GeMM's large outputs, §VII-C).
pub fn best_plan(
    gpu: &GpuSpec,
    vq: &vqllm_vq::VqConfig,
    op: &ComputeOp,
    profile: &AccessProfile,
) -> Result<(KernelPlan, KernelOutput)> {
    let planner = vqllm_core::KernelPlanner::new(gpu.clone());
    let summary = vqllm_core::ProfileSummary::default_for(vq);
    let mut best: Option<(KernelPlan, KernelOutput)> = None;
    for level in [OptLevel::O1, OptLevel::O2, OptLevel::O3, OptLevel::O4] {
        let Ok(plan) = planner.plan_at(vq, op, level, &summary) else {
            continue;
        };
        let out = estimate(gpu, &plan, profile);
        let better = best.as_ref().is_none_or(|(_, cur)| out.us() < cur.us());
        if better {
            best = Some((plan, out));
        }
    }
    best.ok_or(KernelError::InvalidInput {
        what: "no launchable plan at any optimization level",
    })
}

/// Dequantization lookups the whole kernel performs (sub-vector lookups ×
/// residual rounds, times any re-dequantization passes the dataflow forces).
pub fn total_lookups(plan: &KernelPlan) -> f64 {
    let vq = &plan.vq;
    let base = match plan.op {
        // Each 128-row strip of A re-dequantizes the whole weight tile
        // (the paper: compute-bound kernels "suffer more from the extra
        // operation (dequantization)").
        ComputeOp::Gemm { m, n, k } => (n * k / vq.vector_size) as f64 * m.div_ceil(128) as f64,
        // Weights are dequantized once and reused across the batch — the
        // reason GeMV speedups are batch-insensitive (§VII-B).
        ComputeOp::Gemv { n, k, .. } => (n * k / vq.vector_size) as f64,
        // Every batch element owns distinct KV data.
        ComputeOp::AttentionDecode {
            batch,
            heads,
            head_dim,
            seq,
        } => (2 * batch * heads * seq * head_dim / vq.vector_size) as f64,
    };
    base * vq.residuals as f64
}

fn assemble_counters(gpu: &GpuSpec, plan: &KernelPlan, profile: &AccessProfile) -> PerfCounters {
    let vq = &plan.vq;
    let op = &plan.op;
    let mut c = PerfCounters::default();

    let lookups = total_lookups(plan);
    let warp_lookups = lookups / WARP_SIZE as f64;
    let e_cache = entry_cache_bytes(vq);
    let e_value = entry_bytes(vq);

    // --- Codebook access path (placement-dependent) ---
    let access = model_codebook_access(profile, &plan.placement, e_cache, gpu, 256, 0x5eed);

    // Shared-memory lookups: bank cycles (with conflicts) + traffic, plus
    // the issue serialization of the dequantization dependency chain.
    c.smem_cycles += warp_lookups * (access.smem_cycles_per_warp + DEQUANT_ISSUE_CYCLES);
    c.bank_conflict_cycles += warp_lookups * access.conflict_cycles_per_warp;
    c.shared_to_reg_bytes += lookups * access.frac_shared * e_value as f64;

    // Global lookups (GC, or the cold tail above `n_shared`): sub-line
    // sectors from DRAM on miss, LSU replays either way. Only the *cold
    // slice* of each book competes for L1 once the hot/medium entries are
    // cached elsewhere. Per-tensor books are stable in L1 and enjoy
    // within-tile temporal reuse; CQ/GPTVQ books churn as blocks sweep
    // channels/tiles (the paper's 12.45 % L1 operating point).
    let stable = matches!(vq.scope, vqllm_vq::config::CodebookScope::PerTensor);
    let (thrash, reuse) = if stable { (2.0, 0.4) } else { (6.0, 0.7) };
    let cold_entries = vq.stored_entries().saturating_sub(plan.placement.n_shared);
    let ws = cold_entries * e_cache * plan.books_per_block;
    let hit = l1_hit_rate_with(ws, gpu, thrash);
    let global_lookups = lookups * access.frac_global;
    let sectors_per_entry = e_cache.div_ceil(L1_SECTOR_BYTES).max(1);
    c.dram_read_bytes +=
        global_lookups * (1.0 - hit) * reuse * (sectors_per_entry * L1_SECTOR_BYTES) as f64;
    c.smem_cycles += global_lookups * GLOBAL_LOOKUP_CYCLES_PER_LANE;
    c.gmem_transactions += warp_lookups * access.gmem_lines_per_warp;

    // Codebook staging Global→Shared (the duplicated traffic of Fig. 5).
    // The dataflow plan carries the predicted staging volume for full
    // books — `baseline / split` once O3 re-orients the partitioning —
    // scaled by the fraction of each book the placement actually caches.
    let full_books = (plan.books_per_block * kernel_codebook_bytes(vq)).max(1);
    let staged_frac = (plan.smem_codebook_bytes as f64 / full_books as f64).min(1.0);
    let g2s_codebook = plan.dataflow.codebook_traffic_bytes * staged_frac;
    c.global_to_shared_bytes += g2s_codebook;
    c.dram_read_bytes += g2s_codebook * (1.0 - CODEBOOK_L2_HIT);

    // --- Index stream ---
    let idx_bits = vq.index_bits() as f64 * vq.residuals as f64;
    let idx_bytes = op.quantized_elems() as f64 / vq.vector_size as f64 * idx_bits / 8.0;
    let idx_passes = match plan.op {
        ComputeOp::Gemm { m, .. } => m.div_ceil(128) as f64,
        _ => 1.0,
    };
    c.dram_read_bytes += idx_bytes * (1.0 + (idx_passes - 1.0) * (1.0 - L2_REREAD_HIT));
    // Quantized indices stage through shared memory (cp.async) on their
    // way to the decoders.
    c.global_to_shared_bytes += idx_bytes * idx_passes;

    // Index decode: shift/mask per lookup; AQLM's unaligned 12-bit format
    // pays extra unpack ops (§VII-B), lattice ids pay sign-apply bit ops.
    let mut decode_ops = 3.0;
    if !vq.index_bits().is_multiple_of(8) {
        decode_ops += 6.0;
    }
    if vq.lattice {
        decode_ops += 4.0;
    }
    c.int_ops += lookups * decode_ops;
    // Residual accumulation into the fragment.
    c.flops += lookups * vq.vector_size as f64;

    // --- Fusion (layout hand-off) ---
    // K-cache rows align with dequantization; everything else (V cache, mma
    // fragments, GeMV columns) must be rearranged (Fig. 6).
    let mismatched_frac = match op {
        ComputeOp::AttentionDecode { .. } => 0.5,
        _ => {
            if vq.vector_size > op.required_layout() {
                1.0
            } else {
                0.0
            }
        }
    };
    let mismatched_lookups = lookups * mismatched_frac;
    match plan.fusion {
        FusionLevel::Shared => {
            let bytes = mismatched_lookups * e_value as f64;
            c.reg_to_shared_bytes += bytes;
            c.shared_to_reg_bytes += bytes;
            // Store in dequant layout (strided: ~2-way conflicted) + load in
            // compute layout — the ≈5× cost the shuffle path avoids.
            c.smem_cycles += 3.0 * bytes / gpu.smem_bytes_per_cycle as f64;
        }
        FusionLevel::Register { shuffles } => {
            c.shuffles += mismatched_lookups / WARP_SIZE as f64 * shuffles as f64;
        }
    }

    // --- Computation + non-quantized operands ---
    let redundant = plan.dataflow.redundant_compute_factor;
    match *op {
        ComputeOp::Gemm { m, n, k } => {
            let a_bytes = (m * k * 2) as f64;
            c.dram_read_bytes += a_bytes * 1.15;
            c.dram_write_bytes += (m * n * 2) as f64;
            let a_staged = a_bytes * (n.div_ceil(128)) as f64;
            c.global_to_shared_bytes += a_staged;
            c.shared_to_reg_bytes += a_staged;
            c.smem_cycles += 2.0 * a_staged / gpu.smem_bytes_per_cycle as f64;
            c.tensor_flops += op.flops() * redundant;
        }
        ComputeOp::Gemv { n, k, batch } => {
            c.dram_read_bytes += (k * batch * 2) as f64;
            c.dram_write_bytes += (n * batch * 2) as f64;
            // Batched GeMV (m ≥ 8) runs as a skinny tensor-core GeMM.
            if batch >= 8 {
                c.tensor_flops += op.flops() * redundant;
            } else {
                c.flops += op.flops() * redundant;
            }
            let x_staged = (k * batch * 2) as f64 * plan.grid_blocks() as f64 / gpu.num_sms as f64;
            c.global_to_shared_bytes += x_staged;
            c.smem_cycles += x_staged / gpu.smem_bytes_per_cycle as f64;
        }
        ComputeOp::AttentionDecode {
            batch,
            heads,
            head_dim,
            ..
        } => {
            c.dram_read_bytes += (batch * heads * head_dim * 2) as f64; // Q
            c.dram_write_bytes += (batch * heads * head_dim * 2) as f64;
            c.flops += op.flops() * redundant;
        }
    }

    // --- Partial-result reduction ---
    if plan.opt_level >= OptLevel::O3 && plan.dataflow.needs_global_reduce {
        // Partials written by every split slice, then read back by the
        // reduction pass.
        c.dram_write_bytes += plan.dataflow.reduce_traffic_bytes;
        c.dram_read_bytes += plan.dataflow.reduce_traffic_bytes;
    } else if matches!(op, ComputeOp::AttentionDecode { .. }) {
        // Baseline FlashDecoding already reduces its token-chunk partials.
        let partials = (op.output_elems() * 2 * 2) as f64 * plan.tiling.reduce_chunks as f64;
        c.dram_write_bytes += partials;
        c.dram_read_bytes += partials;
    }

    c
}

/// Builds per-(residual, scope) codebook caches for a quantized tensor
/// under a plan's placement, profiling access frequency from the tensor
/// itself (tensor-level reordering, §V-B).
fn build_caches(plan: &KernelPlan, q: &QuantizedTensor) -> Vec<Vec<CodebookCache>> {
    (0..q.config().residuals)
        .map(|r| {
            let hist = AccessHistogram::profile(q, r);
            (0..q.codebooks().scopes())
                .map(|s| CodebookCache::load(q.codebooks().book(r, s), &hist, plan.placement))
                .collect()
        })
        .collect()
}

/// Dequantizes the whole tensor through the codebook caches, returning the
/// tensor and the fraction of lookups served per level (sanity statistics
/// for tests).
fn dequantize_via_cache(plan: &KernelPlan, q: &QuantizedTensor) -> (Tensor2D, [f64; 3]) {
    let caches = build_caches(plan, q);
    let (rows, cols) = q.shape();
    let vs = q.config().vector_size;
    let groups = q.col_groups();
    let mut t = Tensor2D::zeros(rows, cols);
    let mut entry = vec![0.0f32; vs];
    let mut level_counts = [0u64; 3];
    for row in 0..rows {
        for g in 0..groups {
            let mut acc = vec![0.0f32; vs];
            for (r, cache_row) in caches.iter().enumerate().take(q.config().residuals) {
                let s = q.codebooks().scope_index(row, g * vs);
                let lvl = cache_row[s].access(q.index_at(r, row, g), &mut entry);
                level_counts[match lvl {
                    CacheLevel::Register => 0,
                    CacheLevel::Shared => 1,
                    CacheLevel::Global => 2,
                }] += 1;
                for (a, &e) in acc.iter_mut().zip(&entry) {
                    *a += e;
                }
            }
            t.row_mut(row)[g * vs..(g + 1) * vs].copy_from_slice(&acc);
        }
    }
    let total: u64 = level_counts.iter().sum();
    let fracs = level_counts.map(|c| c as f64 / total.max(1) as f64);
    (t, fracs)
}

/// Functionally executes a fused VQ GeMM: `C = A × dequant(Wq)`, with the
/// dequantization flowing through the plan's codebook cache.
///
/// # Errors
///
/// Returns [`KernelError::ShapeMismatch`] if `a.cols() != wq.rows`.
pub fn run_gemm(
    gpu: &GpuSpec,
    plan: &KernelPlan,
    a: &Tensor2D,
    wq: &QuantizedTensor,
) -> Result<(Tensor2D, KernelOutput)> {
    if a.cols() != wq.shape().0 {
        return Err(KernelError::ShapeMismatch {
            what: "A.cols must equal quantized weight rows",
        });
    }
    let (w, _) = dequantize_via_cache(plan, wq);
    let out = linalg::matmul(a, &w).map_err(|_| KernelError::ShapeMismatch {
        what: "matmul shapes",
    })?;
    let profile = AccessProfile::from_histogram(&AccessHistogram::profile(wq, 0));
    Ok((out, estimate(gpu, plan, &profile)))
}

/// Functionally executes one head of fused VQ attention decode with
/// quantized K/V caches (`seq × head_dim` each).
///
/// # Errors
///
/// Returns [`KernelError::ShapeMismatch`] on inconsistent shapes.
pub fn run_attention_head(
    gpu: &GpuSpec,
    plan: &KernelPlan,
    q: &[f32],
    kq: &QuantizedTensor,
    vq: &QuantizedTensor,
) -> Result<(Vec<f32>, KernelOutput)> {
    if kq.shape() != vq.shape() || q.len() != kq.shape().1 {
        return Err(KernelError::ShapeMismatch {
            what: "q/K/V shapes disagree",
        });
    }
    let (k, _) = dequantize_via_cache(plan, kq);
    let (v, _) = dequantize_via_cache(plan, vq);
    let scale = 1.0 / (q.len() as f32).sqrt();
    let out =
        linalg::attention_decode_ref(q, &k, &v, scale).map_err(|_| KernelError::ShapeMismatch {
            what: "attention shapes",
        })?;
    let profile = AccessProfile::from_histogram(&AccessHistogram::profile(kq, 0));
    Ok((out, estimate(gpu, plan, &profile)))
}

/// Cache-level statistics of a functional dequantization (exposed for
/// tests and the figure harnesses).
pub fn cache_level_fractions(plan: &KernelPlan, q: &QuantizedTensor) -> [f64; 3] {
    dequantize_via_cache(plan, q).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqllm_core::{KernelPlanner, ProfileSummary};
    use vqllm_tensor::{metrics, synth};
    use vqllm_vq::config::CodebookScope;
    use vqllm_vq::{VqAlgorithm, VqQuantizer};

    fn gpu() -> GpuSpec {
        GpuSpec::rtx4090()
    }

    fn planner() -> KernelPlanner {
        KernelPlanner::new(gpu())
    }

    fn plan(algo: VqAlgorithm, op: ComputeOp, level: OptLevel) -> KernelPlan {
        let vq = algo.config();
        planner()
            .plan_at(&vq, &op, level, &ProfileSummary::default_for(&vq))
            .unwrap()
    }

    fn attn_op() -> ComputeOp {
        ComputeOp::attention_decode(32, 128, 1024, 1)
    }

    #[test]
    fn fused_gemm_matches_dequantize_then_matmul() {
        let vq = vqllm_vq::VqConfig::new(4, 64, 1, CodebookScope::PerTensor).unwrap();
        let w = synth::correlated_channels(64, 48, 4, 0.9, 3);
        let wq = VqQuantizer::new(vq).quantize(&w, 1).unwrap();
        let a = synth::gaussian(8, 64, 1.0, 5);
        let op = ComputeOp::Gemm { m: 8, n: 48, k: 64 };
        let p = planner()
            .plan_at(&vq, &op, OptLevel::O4, &ProfileSummary::default_for(&vq))
            .unwrap();

        let (fused, out) = run_gemm(&gpu(), &p, &a, &wq).unwrap();
        let reference = linalg::matmul(&a, &wq.dequantize().unwrap()).unwrap();
        assert!(metrics::allclose(
            fused.as_slice(),
            reference.as_slice(),
            1e-4,
            1e-4
        ));
        assert!(out.us().is_finite() && out.us() > 0.0);
    }

    #[test]
    fn fused_attention_matches_reference() {
        let vq = VqAlgorithm::Cq2.config();
        let k = synth::kv_stream(256, 64, 0.8, 7);
        let v = synth::kv_stream(256, 64, 0.8, 8);
        let kq = VqQuantizer::new(vq).quantize(&k, 1).unwrap();
        let vq_t = VqQuantizer::new(vq).quantize(&v, 2).unwrap();
        let q: Vec<f32> = (0..64).map(|i| (i as f32 * 0.37).sin()).collect();
        let op = ComputeOp::attention_decode(1, 64, 256, 1);
        let p = plan(VqAlgorithm::Cq2, op, OptLevel::O4);

        let (fused, _) = run_attention_head(&gpu(), &p, &q, &kq, &vq_t).unwrap();
        let kd = kq.dequantize().unwrap();
        let vd = vq_t.dequantize().unwrap();
        let reference = linalg::attention_decode_ref(&q, &kd, &vd, 1.0 / 8.0).unwrap();
        assert!(metrics::allclose(&fused, &reference, 1e-4, 1e-4));
    }

    #[test]
    fn sc_beats_gc_for_attention() {
        // Fig. 4: shared-memory codebooks outperform global-memory ones.
        let profile = AccessProfile::default_for(&VqAlgorithm::Cq2.config());
        let gc = estimate(
            &gpu(),
            &plan(VqAlgorithm::Cq2, attn_op(), OptLevel::Gc),
            &profile,
        );
        let sc = estimate(
            &gpu(),
            &plan(VqAlgorithm::Cq2, attn_op(), OptLevel::Sc),
            &profile,
        );
        assert!(sc.us() < gc.us(), "SC {} !< GC {}", sc.us(), gc.us());
    }

    #[test]
    fn vq_attention_gc_underperforms_fp16() {
        // Fig. 4 (left): both naive VQ versions lose to FP16-attn despite
        // the 8× memory reduction.
        let profile = AccessProfile::default_for(&VqAlgorithm::Cq2.config());
        let gc = estimate(
            &gpu(),
            &plan(VqAlgorithm::Cq2, attn_op(), OptLevel::Gc),
            &profile,
        );
        let fp16 = crate::fp16::attention(
            &gpu(),
            crate::fp16::AttnBaseline::FlashDecoding,
            1,
            32,
            128,
            1024,
        );
        assert!(gc.us() > fp16.us(), "GC {} !> FP16 {}", gc.us(), fp16.us());
    }

    #[test]
    fn optimized_attention_beats_gc_substantially() {
        let profile = AccessProfile::default_for(&VqAlgorithm::Cq2.config());
        let gc = estimate(
            &gpu(),
            &plan(VqAlgorithm::Cq2, attn_op(), OptLevel::Gc),
            &profile,
        );
        let o4 = estimate(
            &gpu(),
            &plan(VqAlgorithm::Cq2, attn_op(), OptLevel::O4),
            &profile,
        );
        let reduction = 1.0 - o4.us() / gc.us();
        assert!(
            reduction > 0.35,
            "O4 should cut latency well past a third: {reduction} (GC {} O4 {})",
            gc.us(),
            o4.us()
        );
    }

    #[test]
    fn o3_cuts_global_to_shared_traffic() {
        // The dataflow's whole point (Fig. 5 → Fig. 11).
        let profile = AccessProfile::default_for(&VqAlgorithm::Cq2.config());
        let o2 = estimate(
            &gpu(),
            &plan(VqAlgorithm::Cq2, attn_op(), OptLevel::O2),
            &profile,
        );
        let o3 = estimate(
            &gpu(),
            &plan(VqAlgorithm::Cq2, attn_op(), OptLevel::O3),
            &profile,
        );
        assert!(
            o3.counters.global_to_shared_bytes < o2.counters.global_to_shared_bytes,
            "O3 {} !< O2 {}",
            o3.counters.global_to_shared_bytes,
            o2.counters.global_to_shared_bytes
        );
    }

    #[test]
    fn o4_replaces_roundtrip_with_shuffles() {
        let profile = AccessProfile::default_for(&VqAlgorithm::Cq2.config());
        let o3 = estimate(
            &gpu(),
            &plan(VqAlgorithm::Cq2, attn_op(), OptLevel::O3),
            &profile,
        );
        let o4 = estimate(
            &gpu(),
            &plan(VqAlgorithm::Cq2, attn_op(), OptLevel::O4),
            &profile,
        );
        assert_eq!(o3.counters.shuffles, 0.0);
        assert!(o4.counters.shuffles > 0.0);
        assert!(o4.counters.reg_to_shared_bytes < o3.counters.reg_to_shared_bytes);
    }

    #[test]
    fn gemv_lookups_are_batch_invariant() {
        let vq = VqAlgorithm::Aqlm3.config();
        let p1 = plan(
            VqAlgorithm::Aqlm3,
            ComputeOp::Gemv {
                n: 4096,
                k: 4096,
                batch: 1,
            },
            OptLevel::O4,
        );
        let p16 = plan(
            VqAlgorithm::Aqlm3,
            ComputeOp::Gemv {
                n: 4096,
                k: 4096,
                batch: 16,
            },
            OptLevel::O4,
        );
        assert_eq!(total_lookups(&p1), total_lookups(&p16));
        let _ = vq;
    }

    #[test]
    fn gemm_redequantizes_per_row_strip() {
        let p_small = plan(
            VqAlgorithm::Gptvq2,
            ComputeOp::Gemm {
                m: 128,
                n: 4096,
                k: 4096,
            },
            OptLevel::O4,
        );
        let p_big = plan(
            VqAlgorithm::Gptvq2,
            ComputeOp::Gemm {
                m: 2048,
                n: 4096,
                k: 4096,
            },
            OptLevel::O4,
        );
        assert_eq!(total_lookups(&p_big), 16.0 * total_lookups(&p_small));
    }

    #[test]
    fn cache_levels_follow_placement() {
        let vq = vqllm_vq::VqConfig::new(4, 64, 1, CodebookScope::PerTensor).unwrap();
        let w = synth::gaussian_with_outliers(64, 64, 1.0, 0.05, 6.0, 11);
        let wq = VqQuantizer::new(vq).quantize(&w, 3).unwrap();
        let op = ComputeOp::Gemm { m: 8, n: 64, k: 64 };

        let p_gc = planner()
            .plan_at(&vq, &op, OptLevel::Gc, &ProfileSummary::default_for(&vq))
            .unwrap();
        let fr_gc = cache_level_fractions(&p_gc, &wq);
        assert_eq!(fr_gc[2], 1.0, "GC serves everything from global");

        let p_o2 = planner()
            .plan_at(&vq, &op, OptLevel::O2, &ProfileSummary { num_hot: 4 })
            .unwrap();
        let fr_o2 = cache_level_fractions(&p_o2, &wq);
        if p_o2.placement.n_reg > 0 {
            assert!(fr_o2[0] > 0.0, "hot entries must be served from registers");
        }
        assert!(fr_o2[2] < 0.7, "most mass should be cached: {fr_o2:?}");
    }
}
