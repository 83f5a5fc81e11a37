//! Criterion: fused host kernels vs naive dequantize-then-`linalg`.
//!
//! Small-enough operands to keep the bench quick; the full-size asserted
//! comparison (4096×4096, ≥ 3× gate) lives in the `host_speedup` binary.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use vq_llm::kernels::host_exec::{self, HostBlocking};
use vq_llm::tensor::linalg;
use vq_llm::vq::{CodebookScope, QuantizedTensor, VqConfig, VqQuantizer};
use vqllm_tensor::synth;

fn quantized(rows: usize, cols: usize) -> QuantizedTensor {
    let cfg = VqConfig::new(4, 256, 1, CodebookScope::PerTensor).expect("config");
    let w = synth::correlated_channels(rows, cols, 4, 0.9, 42);
    VqQuantizer::new(cfg).quantize(&w, 7).expect("quantize")
}

fn bench_host(c: &mut Criterion) {
    let (rows, cols) = (1024, 1024);
    let wq = quantized(rows, cols);
    let x: Vec<f32> = (0..cols).map(|i| (i as f32 * 0.37).sin()).collect();
    let xr: Vec<f32> = (0..rows).map(|i| (i as f32 * 0.23).cos()).collect();
    let blocking = HostBlocking::default();

    let mut g = c.benchmark_group("host");
    g.bench_with_input(BenchmarkId::new("gemv-naive", rows), &wq, |b, wq| {
        b.iter(|| {
            let w = wq.dequantize().expect("dequantize");
            black_box(linalg::gemv(&w, &x).expect("gemv"))
        });
    });
    g.bench_with_input(BenchmarkId::new("gemv-fused-lut", rows), &wq, |b, wq| {
        b.iter(|| black_box(host_exec::gemv_lut(wq, &x, &blocking).expect("gemv_lut")));
    });
    g.bench_with_input(BenchmarkId::new("gemv-xw-naive", rows), &wq, |b, wq| {
        b.iter(|| {
            let w = wq.dequantize().expect("dequantize").transposed();
            black_box(linalg::gemv(&w, &xr).expect("gemv"))
        });
    });
    g.bench_with_input(BenchmarkId::new("gemv-xw-fused", rows), &wq, |b, wq| {
        b.iter(|| black_box(host_exec::gemv_xw(&xr, wq, &blocking).expect("gemv_xw")));
    });

    let a = synth::gaussian(8, rows, 1.0, 5);
    g.bench_with_input(BenchmarkId::new("gemm-naive", 8), &wq, |b, wq| {
        b.iter(|| {
            let w = wq.dequantize().expect("dequantize");
            black_box(linalg::matmul(&a, &w).expect("matmul"))
        });
    });
    g.bench_with_input(BenchmarkId::new("gemm-fused", 8), &wq, |b, wq| {
        b.iter(|| black_box(host_exec::gemm_fused(&a, wq, &blocking).expect("gemm_fused")));
    });

    // Batched decode: shared code decode + batch-interleaved LUT vs
    // calling the single-activation kernel per batch lane.
    let batch = 8usize;
    let acts =
        vq_llm::tensor::Tensor2D::from_fn(batch, cols, |bi, c| ((bi * 31 + c) as f32 * 0.19).sin());
    g.bench_with_input(BenchmarkId::new("gemv-lut-looped", batch), &wq, |b, wq| {
        b.iter(|| {
            for bi in 0..batch {
                black_box(host_exec::gemv_lut(wq, acts.row(bi), &blocking).expect("gemv_lut"));
            }
        });
    });
    g.bench_with_input(BenchmarkId::new("gemv-lut-batch", batch), &wq, |b, wq| {
        b.iter(|| black_box(host_exec::gemv_lut_batch(wq, &acts, &blocking).expect("batch")));
    });
    g.finish();
}

/// Packed-index decode throughput: per-element `get()` (one word load +
/// shift/mask each, bit arithmetic recomputed per call) vs the bulk
/// `unpack_block()` fast path the kernels use — at the two whole-byte
/// widths, which it decodes as a widening copy, and at the unaligned
/// AQLM-12 class width, which takes the word-load path.
fn bench_unpack(c: &mut Criterion) {
    use vq_llm::vq::PackedIndices;
    let n = 64 * 1024;
    let mut g = c.benchmark_group("unpack");
    for bits in [8u8, 12, 16] {
        let max = (1u32 << bits) - 1;
        let idx: Vec<u32> = (0..n as u32)
            .map(|i| i.wrapping_mul(2654435761) & max)
            .collect();
        let p = PackedIndices::pack(&idx, bits).expect("pack");
        g.bench_with_input(BenchmarkId::new("get", bits), &p, |b, p| {
            b.iter(|| {
                let mut acc = 0u64;
                for i in 0..n {
                    acc = acc.wrapping_add(u64::from(black_box(p.get(i))));
                }
                black_box(acc)
            });
        });
        let mut out = vec![0u32; n];
        g.bench_with_input(BenchmarkId::new("unpack_block", bits), &p, |b, p| {
            b.iter(|| {
                p.unpack_block(0, &mut out);
                black_box(out[n - 1])
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_host, bench_unpack);
criterion_main!(benches);
