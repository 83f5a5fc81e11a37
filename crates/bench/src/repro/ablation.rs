//! Sensitivity studies (paper §VII: "extensive sensitivity to verify the
//! effectiveness of each technique").

use vqllm_core::dataflow::optimal_split_factor;
use vqllm_core::engine::{entry_cache_bytes, kernel_codebook_bytes};
use vqllm_core::fusion::{choose_fusion, num_shuffles, FusionLevel};
use vqllm_core::{CachePlacement, ComputeOp, KernelPlanner, OptLevel, ProfileSummary};
use vqllm_gpu::GpuSpec;
use vqllm_kernels::traffic::model_codebook_access;
use vqllm_kernels::{vq_kernel, AccessProfile};
use vqllm_vq::VqAlgorithm;

use crate::{fmt_bytes, fmt_us, Report};

/// Four sweeps, each isolating one adaptive heuristic:
///
/// 1. **Split factor** — total dataflow traffic vs split, showing the
///    `sqrt(cb/output)` optimum the mean-value-theorem argument predicts.
/// 2. **Shared boundary (`n_shared`)** — attention latency vs how much of
///    each codebook is cached, showing the slack-point sweet spot between
///    cold-miss traffic and occupancy loss.
/// 3. **Register boundary (`n_reg`)** — bank-conflict cycles vs hot-entry
///    register caching, isolating O2's mechanism.
/// 4. **Shuffle threshold** — register vs shared fusion cost as the
///    vector-size/layout ratio grows, validating the threshold of 5.
pub fn ablation(r: &mut Report) {
    let gpu = GpuSpec::rtx4090();

    // --- 1. Split factor ---
    r.section("split factor: total traffic = cb/split + split x output");
    let cb_traffic = 16.0e6; // CQ-2 attention baseline staging
    let output = 8192.0;
    let best = optimal_split_factor(cb_traffic, output, 64);
    for split in [1usize, 2, 4, 8, 16, 32, 44, 64] {
        let total = cb_traffic / split as f64 + split as f64 * output;
        let marker = if split == best {
            "  <- chosen optimum"
        } else {
            ""
        };
        r.line(format!(
            "split {split:3}: codebook {} + reduce {} = {}{marker}",
            fmt_bytes(cb_traffic / split as f64),
            fmt_bytes(split as f64 * output),
            fmt_bytes(total),
        ));
    }
    let t = |s: usize| cb_traffic / s as f64 + s as f64 * output;
    r.check(
        format!("chosen split {best} minimizes total traffic"),
        t(best) <= t(best.saturating_sub(1).max(1)) && t(best) <= t(best + 1),
    );

    // --- 2. Shared boundary sweep (attention CQ-2) ---
    r.section("shared boundary: attention latency vs cached entries per book");
    let vq = VqAlgorithm::Cq2.config();
    let op = ComputeOp::attention_decode(32, 128, 4096, 8);
    let base = KernelPlanner::new(gpu.clone())
        .plan_at(&vq, &op, OptLevel::O2, &ProfileSummary::default_for(&vq))
        .expect("plan");
    let profile = AccessProfile::default_for(&vq);
    let mut best_seen = (0usize, f64::INFINITY);
    for n_shared in [0usize, 32, 64, 96, 128, 192, 256] {
        let mut plan = base.clone();
        plan.placement = CachePlacement { n_reg: 0, n_shared };
        plan.smem_codebook_bytes = (n_shared * entry_cache_bytes(&vq) * plan.books_per_block)
            .min(plan.books_per_block * kernel_codebook_bytes(&vq));
        let out = vq_kernel::estimate(&gpu, &plan, &profile);
        if out.us() < best_seen.1 {
            best_seen = (n_shared, out.us());
        }
        r.line(format!(
            "n_shared {n_shared:4}: {}  (occupancy {} blocks/SM)",
            fmt_us(out.us()),
            out.latency.occupancy.blocks_per_sm
        ));
    }
    r.line(format!(
        "slack heuristic chose n_shared = {}; sweep optimum at {} — \
         within the flat region around the slack point",
        base.placement.n_shared, best_seen.0
    ));

    // --- 3. Register boundary sweep (AQLM GeMV) ---
    r.section("register boundary: bank-conflict cycles vs hot entries in registers");
    let aqlm = VqAlgorithm::Aqlm3.config();
    let aprofile = AccessProfile::default_for(&aqlm);
    let access = |n_reg, entry_bytes| {
        let placement = CachePlacement {
            n_reg,
            n_shared: 2048,
        };
        model_codebook_access(&aprofile, &placement, entry_bytes, &gpu, 256, 7)
    };
    for n_reg in [0usize, 4, 8, 16, 32, 64] {
        let cost = access(n_reg, entry_cache_bytes(&aqlm));
        r.line(format!(
            "n_reg {n_reg:3}: conflicts/warp {:5.2}, served from regs {:4.1}%",
            cost.conflict_cycles_per_warp,
            cost.frac_reg * 100.0
        ));
    }
    r.check(
        "register caching of the hot head reduces bank conflicts",
        access(32, 32).conflict_cycles_per_warp < access(0, 32).conflict_cycles_per_warp,
    );

    // --- 4. Shuffle threshold ---
    r.section("fusion threshold: shuffle cost vs shared round-trip (per warp fragment)");
    // Cost model: shuffles ≈ 1 cycle each; shared round-trip ≈ 3 cycles per
    // 128 B (store w/ conflicts + load) over 32 lanes × v × 2 B.
    for (v, layout) in [(2usize, 1usize), (4, 1), (4, 2), (8, 2), (8, 1), (16, 1)] {
        let n = num_shuffles(v, layout);
        let shuffle_cycles = n as f64;
        let shared_cycles = 3.0 * (32 * v * 2) as f64 / 128.0;
        let decision = choose_fusion(v, layout);
        r.line(format!(
            "v={v:2} layout={layout}: {n} shuffles ({shuffle_cycles:4.1} cyc) vs shared {shared_cycles:4.1} cyc → {:?}",
            decision
        ));
    }
    r.check(
        "threshold keeps register fusion only while shuffles < 5",
        matches!(choose_fusion(8, 2), FusionLevel::Register { .. })
            && matches!(choose_fusion(8, 1), FusionLevel::Shared),
    );
}
