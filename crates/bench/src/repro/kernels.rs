//! Kernel-level results on the RTX 4090 model: the motivation study
//! (Fig. 4), the overall and per-level gains over the unoptimized kernel
//! (Figs. 13–15), and the comparisons against element-wise quantization
//! and FP16 baselines (Figs. 16, 18).

use vq_llm::{ComputeOp, GpuSpec, OptLevel, Session, VqAlgorithm};
use vqllm_core::{KernelPlanner, ProfileSummary};
use vqllm_kernels::fp16::{self, AttnBaseline};
use vqllm_kernels::{elementwise, vq_kernel, AccessProfile};

use crate::{fmt_us, Report};

fn gemm(m: usize, n: usize, k: usize) -> ComputeOp {
    ComputeOp::Gemm { m, n, k }
}

fn gemv(n: usize, k: usize, batch: usize) -> ComputeOp {
    ComputeOp::Gemv { n, k, batch }
}

fn rtx4090() -> Session {
    Session::builder()
        .gpu(GpuSpec::rtx4090())
        .build()
        .expect("valid session")
}

/// Latency (µs) of `op` planned at `level`.
fn at_level(s: &Session, algo: VqAlgorithm, op: ComputeOp, level: OptLevel) -> f64 {
    let plan = s.plan_at(&algo.config(), &op, level).expect("plan");
    s.estimate(&plan).us()
}

/// Latency (µs) of the best-performing version of `op`.
fn best(s: &Session, algo: VqAlgorithm, op: ComputeOp) -> f64 {
    s.best_plan(&algo.config(), &op).expect("best plan").1.us()
}

/// Latency (µs) at every level of the optimization ladder, in
/// [`OptLevel::ALL`] order.
fn ladder(s: &Session, algo: VqAlgorithm, op: ComputeOp) -> Vec<(OptLevel, f64)> {
    OptLevel::ALL
        .iter()
        .map(|&level| (level, at_level(s, algo, op, level)))
        .collect()
}

/// The ladder's latency at `level`.
fn rung(ladder: &[(OptLevel, f64)], level: OptLevel) -> f64 {
    ladder.iter().find(|(l, _)| *l == level).expect("level").1
}

/// A ladder as one `LEVEL latency | …` row.
fn ladder_row(ladder: &[(OptLevel, f64)]) -> String {
    let cells: Vec<String> = ladder
        .iter()
        .map(|(l, us)| format!("{l} {}", fmt_us(*us).trim()))
        .collect();
    cells.join(" | ")
}

/// Figure 4: the motivation study.
///
/// (left)  Latency of VQ-attn-GC and VQ-attn-SC relative to FP16-attn.
/// (right) Performance counters of VQ-attn-SC relative to FP16-attn: SM
///         utilization, shared usage, bank conflicts, Global→Shared
///         traffic, Shared→Reg traffic.
///
/// Workload: Llama-7B attention decode (32 heads × 128), seq 1024, CQ-2
/// (`VQ<4,8,1>`).
pub fn fig04(r: &mut Report) {
    let gpu = GpuSpec::rtx4090();
    let op = ComputeOp::attention_decode(32, 128, 1024, 1);
    let vq = VqAlgorithm::Cq2.config();
    let profile = AccessProfile::default_for(&vq);
    let planner = KernelPlanner::new(gpu.clone());
    let prof = ProfileSummary::default_for(&vq);

    let fp = fp16::attention(&gpu, AttnBaseline::FlashDecoding, 1, 32, 128, 1024);
    let gc_plan = planner
        .plan_at(&vq, &op, OptLevel::Gc, &prof)
        .expect("plan GC");
    let sc_plan = planner
        .plan_at(&vq, &op, OptLevel::Sc, &prof)
        .expect("plan SC");
    let gc = vq_kernel::estimate(&gpu, &gc_plan, &profile);
    let sc = vq_kernel::estimate(&gpu, &sc_plan, &profile);

    r.section("(left) latency relative to FP16-attn");
    r.line(format!("FP16-attn   {}  (1.00x)", fmt_us(fp.us())));
    r.line(format!(
        "VQ-attn-GC  {}  ({:.2}x)",
        fmt_us(gc.us()),
        gc.us() / fp.us()
    ));
    r.line(format!(
        "VQ-attn-SC  {}  ({:.2}x)",
        fmt_us(sc.us()),
        sc.us() / fp.us()
    ));
    r.line("Paper: GC ≈ 2.3x, SC ≈ 1.4x, both slower than FP16 despite the 8x");
    r.line("memory reduction.");

    r.section("(right) VQ-attn-SC counters relative to FP16-attn");
    let sm_util = sc.latency.sm_utilization / fp.latency.sm_utilization.max(1e-9);
    let smem_usage = (sc_plan.tiling.smem_data_bytes + sc_plan.smem_codebook_bytes) as f64
        / sc_plan.tiling.smem_data_bytes as f64;
    let g2s = sc.counters.global_to_shared_bytes / fp.counters.global_to_shared_bytes;
    let s2r = sc.counters.shared_reg_traffic() / fp.counters.shared_reg_traffic();
    r.line(format!(
        "SM utilization      {sm_util:6.2}x   (paper: > 30% drop, i.e. < 0.7)"
    ));
    r.line(format!(
        "Shared usage        {smem_usage:6.2}x   (paper: ~4-5x)"
    ));
    let conflicts = if fp.counters.bank_conflict_cycles > 0.0 {
        format!(
            "{:6.2}x",
            sc.counters.bank_conflict_cycles / fp.counters.bank_conflict_cycles
        )
    } else {
        format!("{:.2e} cycles vs 0", sc.counters.bank_conflict_cycles)
    };
    r.line(format!(
        "Bank conflicts      {conflicts}   (paper: enormous — FP16 has none)"
    ));
    r.line(format!(
        "Global→Shared       {g2s:6.2}x   (paper: > 1, counterintuitively)"
    ));
    r.line(format!(
        "Shared→Reg          {s2r:6.2}x   (paper: ~2x from the V-cache round-trip)"
    ));

    r.section("claims checked");
    r.check(
        "GC and SC both slower than FP16",
        gc.us() > fp.us() && sc.us() > fp.us(),
    );
    r.check("SC outperforms GC", sc.us() < gc.us());
    r.check("SC drops SM utilization > 30%", sm_util < 0.7);
    r.check("SC Global→Shared exceeds FP16", g2s > 1.0);
    r.check("SC Shared→Reg exceeds FP16", s2r > 1.0);
}

/// Figure 13: overall latency reduction of the best-performing version
/// against the unoptimized (GC) version, across VQ configurations, kernels,
/// and model scales: GeMM and GeMV at batch 1/16 (weight algorithms), and
/// attention decode at seq 1k/4k × batch 1/8 (CQ-2), on Llama-7B and
/// Llama-65B shapes.
pub fn fig13(r: &mut Report) {
    let session = rtx4090();
    let mut reductions = Vec::new();
    let mut row = |r: &mut Report, label: String, algo: VqAlgorithm, op: ComputeOp| {
        let gc = at_level(&session, algo, op, OptLevel::Gc);
        let opt = best(&session, algo, op);
        let red = (1.0 - opt / gc) * 100.0;
        reductions.push(red);
        r.line(format!(
            "{label} GC {} → best {}  reduction {red:5.1}%",
            fmt_us(gc),
            fmt_us(opt)
        ));
    };

    for (model, hidden, inter, heads) in [
        ("Llama-7B", 4096usize, 11008usize, 32usize),
        ("Llama-65B", 8192, 22016, 64),
    ] {
        r.section(model);
        for algo in VqAlgorithm::WEIGHT {
            for (name, op) in [
                ("GeMM", gemm(2048, inter, hidden)),
                ("GeMV BS1", gemv(inter, hidden, 1)),
                ("GeMV BS16", gemv(inter, hidden, 16)),
            ] {
                row(r, format!("{:9} {:10}", name, algo.name()), algo, op);
            }
        }
        for seq in [1024usize, 4096] {
            for batch in [1usize, 8] {
                let op = ComputeOp::attention_decode(heads, 128, seq, batch);
                let label = format!("Attn {}k BS{batch} CQ-2    ", seq / 1024);
                row(r, label, VqAlgorithm::Cq2, op);
            }
        }
    }

    let mean = reductions.iter().sum::<f64>() / reductions.len() as f64;
    let max = reductions.iter().cloned().fold(f64::MIN, f64::max);
    r.section("summary");
    r.line(format!(
        "mean latency reduction {mean:.2}% (paper: 46.13%), max {max:.2}% (paper: 53.73%+)"
    ));
    r.check(
        "every optimized kernel beats its GC baseline",
        reductions.iter().all(|&x| x > 0.0),
    );
    r.check(
        "mean reduction in a paper-compatible 35-70% band",
        (35.0..=70.0).contains(&mean),
    );
    r.line("Note: our attention reductions (79-90%) sit above the paper's mean");
    r.line("because the simulated optimized kernels run closer to the bandwidth");
    r.line("bound than the authors' measured CUDA kernels (the Attn rows above).");
}

/// Figure 14: breakdown of the optimization ladder for GeMM (upper) and
/// GeMV (lower) across QuiP#-4, AQLM-3 and GPTVQ-2 on Llama-7B shapes.
/// Each level of Tbl. IV is applied cumulatively: GC, SC, O1 (hierarchical
/// shared caching), O2 (+register caching), O3 (+codebook-centric
/// dataflow), O4 (+hierarchical fusion).
pub fn fig14(r: &mut Report) {
    use OptLevel::{Sc, O1, O2, O3, O4};
    let session = rtx4090();
    let (gemm, gemv1) = (gemm(2048, 11008, 4096), gemv(11008, 4096, 1));

    for (kind, op) in [
        ("GeMM 2048x11008x4096", gemm),
        ("GeMV 11008x4096 BS1", gemv1),
        ("GeMV 11008x4096 BS16", gemv(11008, 4096, 16)),
    ] {
        r.section(kind);
        for algo in VqAlgorithm::WEIGHT {
            let row = ladder_row(&ladder(&session, algo, op));
            r.line(format!("{:9} | {row}", algo.name()));
        }
    }

    r.section("paper-shape checks (GeMM)");
    let quip = ladder(&session, VqAlgorithm::QuipSharp4, gemm);
    let q = |l| rung(&quip, l);
    r.check(
        "QuiP#: SC ≈ O1 (2 KB codebook fits either way)",
        (q(Sc) - q(O1)).abs() / q(O1) < 0.1,
    );
    r.check(
        "QuiP#: O3 regresses GeMM (residual split → redundant compute)",
        q(O3) > q(O2),
    );
    r.check(
        "QuiP#: O4 recovers from O3 via register fusion",
        q(O4) <= q(O3),
    );
    let aqlm = ladder(&session, VqAlgorithm::Aqlm3, gemm);
    r.check(
        "AQLM: O2 register caching helps (15-30 hot entries)",
        rung(&aqlm, O2) < rung(&aqlm, O1),
    );

    r.section("paper-shape checks (GeMV)");
    let aqlm_v = ladder(&session, VqAlgorithm::Aqlm3, gemv1);
    r.check(
        "AQLM GeMV: O3 helps (small output, cheap reduction)",
        rung(&aqlm_v, O3) < rung(&aqlm_v, O2) * 1.02,
    );
    let quip_v = ladder(&session, VqAlgorithm::QuipSharp4, gemv1);
    let qv = |l| rung(&quip_v, l);
    r.check(
        "QuiP# GeMV: O4 does not shuffle (7 ≥ threshold → shared fusion)",
        (qv(O4) - qv(O3)).abs() / qv(O3) < 0.05,
    );
}

/// Figure 15: (left) optimization breakdown of CQ-2 for attention decode
/// across sequence length and batch; (right) CQ-4 latency relative to CQ-2
/// at the best level.
pub fn fig15(r: &mut Report) {
    use OptLevel::{Sc, O1, O2, O3, O4};
    let session = rtx4090();
    let shapes = [(1024usize, 1usize), (1024, 8), (4096, 1), (4096, 8)];
    let attn = |seq, batch| ComputeOp::attention_decode(32, 128, seq, batch);

    r.section("(left) CQ-2 optimization ladder, Llama-7B attention decode");
    for (seq, batch) in shapes {
        let row = ladder_row(&ladder(&session, VqAlgorithm::Cq2, attn(seq, batch)));
        r.line(format!("{}k BS{batch}: {row}", seq / 1024));
    }

    r.section("(right) CQ-4 relative latency against CQ-2 (best level)");
    for (seq, batch) in shapes {
        let cq2 = best(&session, VqAlgorithm::Cq2, attn(seq, batch));
        let cq4 = best(&session, VqAlgorithm::Cq4, attn(seq, batch));
        r.line(format!(
            "{}k BS{batch}: CQ-2 {} CQ-4 {} → relative {:.2}",
            seq / 1024,
            fmt_us(cq2),
            fmt_us(cq4),
            cq4 / cq2
        ));
    }

    r.section("paper-shape checks");
    // SC-vs-O1 at 4k BS8: with real parallel supply, SC's occupancy loss
    // shows (at 1k BS1 the grid is supply-limited either way).
    let big = ladder(&session, VqAlgorithm::Cq2, attn(4096, 8));
    let small = ladder(&session, VqAlgorithm::Cq2, attn(1024, 1));
    let s = |l| rung(&small, l);
    r.check(
        "SC hurts vs O1 at scale (large CQ codebooks kill occupancy)",
        rung(&big, Sc) > rung(&big, O1),
    );
    r.check("O3 gives the major dataflow win", s(O3) < s(O2) * 0.8);
    r.check("O4 adds a minor further gain", s(O4) <= s(O3) * 1.02);
    r.check(
        "O2 is minor for CQ (few hot entries)",
        (s(O2) - s(O1)).abs() / s(O1) < 0.15,
    );
    let cq2 = best(&session, VqAlgorithm::Cq2, attn(1024, 1));
    let cq4 = best(&session, VqAlgorithm::Cq4, attn(1024, 1));
    r.check(
        "CQ-4 lands within 2x of CQ-2 (similar optimization behaviour)",
        cq4 / cq2 < 2.0 && cq4 / cq2 > 0.8,
    );
}

/// Figure 16: latency against element-wise quantization works and FP16 —
/// GeMM 2048×11008×4096, GeMV BS16 and attention BS1 seq 1k. The
/// "open-source implementation" rows are the naive GC kernels (the paper
/// measured 2.83×-114× against the official QuiP#/AQLM repositories, which
/// ship exactly this kind of unfused global-codebook kernel).
pub fn fig16(r: &mut Report) {
    let session = rtx4090();
    let gpu = session.gpu().clone();
    let gc = |algo, op| at_level(&session, algo, op, OptLevel::Gc);
    let table = |r: &mut Report, rows: &[(&str, f64)], base: f64, unit: &str| {
        for &(name, us) in rows {
            r.line(format!(
                "{name:32} {} ({:5.2}x {unit})",
                fmt_us(us),
                us / base
            ));
        }
    };

    r.section("GeMM 2048x11008x4096 (relative to AWQ-4)");
    let gemm = gemm(2048, 11008, 4096);
    let awq = elementwise::awq_gemm(&gpu, 2048, 11008, 4096).us();
    let cutlass = fp16::gemm(&gpu, 2048, 11008, 4096).us();
    let quip = best(&session, VqAlgorithm::QuipSharp4, gemm);
    let quip_open = gc(VqAlgorithm::QuipSharp4, gemm);
    let rows = [
        ("AWQ-4bit (qServe)", awq),
        ("cutlass-16", cutlass),
        ("QuiP#-4 (VQ-LLM)", quip),
        (
            "GPTVQ-2 (VQ-LLM)",
            best(&session, VqAlgorithm::Gptvq2, gemm),
        ),
        ("QuiP#-4 (open-source style GC)", quip_open),
    ];
    table(r, &rows, awq, "AWQ");

    r.section("GeMV 11008x4096 BS16 (relative to AWQ-4)");
    let gemv = gemv(11008, 4096, 16);
    let awq_v = elementwise::awq_gemv(&gpu, 11008, 4096, 16).us();
    let fp_v = fp16::gemv(&gpu, 11008, 4096, 16).us();
    let quip_v = best(&session, VqAlgorithm::QuipSharp4, gemv);
    let quip_v_open = gc(VqAlgorithm::QuipSharp4, gemv);
    let rows = [
        ("AWQ-4bit (qServe)", awq_v),
        ("cutlass-16", fp_v),
        ("QuiP#-4 (VQ-LLM)", quip_v),
        (
            "GPTVQ-2 (VQ-LLM)",
            best(&session, VqAlgorithm::Gptvq2, gemv),
        ),
        ("QuiP#-4 (open-source style GC)", quip_v_open),
    ];
    table(r, &rows, awq_v, "AWQ");

    r.section("Attention decode BS1 seq 1k (relative to QoQ-4)");
    let attn = ComputeOp::attention_decode(32, 128, 1024, 1);
    let qoq = elementwise::qoq_attention(&gpu, 1, 32, 128, 1024).us();
    let flash = fp16::attention(&gpu, AttnBaseline::FlashDecoding, 1, 32, 128, 1024).us();
    let cq4 = best(&session, VqAlgorithm::Cq4, attn);
    let rows = [
        ("QoQ-4bit (qServe)", qoq),
        ("Flash-16", flash),
        ("CQ-4 (VQ-LLM)", cq4),
        ("CQ-2 (VQ-LLM)", best(&session, VqAlgorithm::Cq2, attn)),
    ];
    table(r, &rows, qoq, "QoQ");

    r.section("paper-shape checks");
    r.check(
        "4-bit VQ GeMV within 0.7-1.3x of AWQ (paper: 0.88x)",
        (0.7..1.3).contains(&(quip_v / awq_v)),
    );
    r.check(
        "4-bit VQ attention within 0.7-1.3x of QoQ (paper: 1.01x)",
        (0.7..1.3).contains(&(cq4 / qoq)),
    );
    r.check(
        "Both quantized GeMMs underperform cutlass-16",
        quip > cutlass * 0.95 && awq > cutlass * 0.95,
    );
    r.check(
        "Quantized GeMV/attention beat FP16",
        quip_v < fp_v && cq4 < flash,
    );
    r.check(
        "Open-source-style GC kernels are impractical (≥ 2x the optimized)",
        quip_open / quip > 2.0 || quip_v_open / quip_v > 2.0,
    );
}

/// Figure 18: relative latency of FP16 attention baselines against the
/// best-performing CQ-4 implementation across sequence length and batch.
pub fn fig18(r: &mut Report) {
    let gpu = GpuSpec::rtx4090();
    let vq = VqAlgorithm::Cq4.config();
    let profile = AccessProfile::default_for(&vq);

    let mut best_reduction: f64 = 0.0;
    for seq in [1024usize, 2048, 4096] {
        for batch in [1usize, 8] {
            r.section(&format!("seq {} BS{batch}", seq));
            let op = ComputeOp::attention_decode(32, 128, seq, batch);
            let (_, ours) = vq_kernel::best_plan(&gpu, &vq, &op, &profile).expect("best plan");
            r.line(format!(
                "VQ-LLM CQ-4          {} (1.00x)",
                fmt_us(ours.us())
            ));
            let mut best_fp16 = f64::INFINITY;
            for baseline in AttnBaseline::ALL {
                let out = fp16::attention(&gpu, baseline, batch, 32, 128, seq);
                best_fp16 = best_fp16.min(out.us());
                r.line(format!(
                    "{:20} {} ({:4.2}x)",
                    baseline.name(),
                    fmt_us(out.us()),
                    out.us() / ours.us()
                ));
            }
            if seq == 4096 && batch == 8 {
                best_reduction = (1.0 - ours.us() / best_fp16) * 100.0;
            }
        }
    }

    r.section("paper-shape checks");
    r.line(format!(
        "latency reduction vs best FP16 at 4k BS8: {best_reduction:.1}% (paper: 66.4%)"
    ));
    r.check(
        "reduction in the 45-80% band with a 75% smaller KV footprint",
        (45.0..=80.0).contains(&best_reduction),
    );
}
