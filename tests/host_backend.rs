//! Property-based parity suite for the real host-execution backend.
//!
//! Every `CpuBackend` kernel (and the decode-orientation LUT GeMV it is
//! built from) is pinned to the `vqllm-tensor::linalg` oracles across
//! randomized VQ configurations — residual rounds, all three codebook
//! scopes, lattice on/off — and randomized shapes/seeds. The fused host
//! kernels compute directly on packed codes, so these tests are the
//! evidence that "no materialized weight matrix" loses no precision
//! beyond f32 summation-order noise (1e-4 relative tolerance).

mod common;

use common::{splitmix, synthetic, ExtData};
use proptest::prelude::*;
use std::sync::Arc;
use vq_llm::kernels::host_exec::{
    self, simd, AttentionBatch, CodeStream, HostBlocking, OutlierBuf, RaggedExt,
};
use vq_llm::tensor::{linalg, metrics, synth, Tensor2D};
use vq_llm::vq::config::CodebookScope;
use vq_llm::vq::{Codebook, QuantizedTensor, VqQuantizer};
use vq_llm::{Backend, BackendKind, ComputeOp, CpuBackend, GpuSpec, KernelPlan, Session, VqConfig};

/// The randomized configuration space: residuals × scopes × lattice.
fn config(case: usize) -> VqConfig {
    match case % 8 {
        0 => VqConfig::new(2, 16, 1, CodebookScope::PerTensor).unwrap(),
        1 => VqConfig::new(4, 16, 2, CodebookScope::PerTensor).unwrap(),
        2 => VqConfig::new(4, 32, 1, CodebookScope::PerChannelGroup { channels: 4 }).unwrap(),
        3 => VqConfig::new(2, 16, 2, CodebookScope::PerChannelGroup { channels: 2 }).unwrap(),
        4 => VqConfig::new(4, 16, 1, CodebookScope::PerTile { rows: 16, cols: 16 }).unwrap(),
        5 => VqConfig::new_lattice(4, 256, 16, 1, CodebookScope::PerTensor).unwrap(),
        6 => VqConfig::new_lattice(4, 256, 16, 2, CodebookScope::PerTensor).unwrap(),
        _ => VqConfig::new(8, 16, 1, CodebookScope::PerTensor).unwrap(),
    }
}

fn dims(rows_i: usize, cols_i: usize) -> (usize, usize) {
    ([32, 48, 64][rows_i % 3], [16, 32][cols_i % 2])
}

fn quantize(cfg: VqConfig, rows: usize, cols: usize, seed: u64) -> QuantizedTensor {
    let w = synth::correlated_channels(rows, cols, cfg.vector_size, 0.9, seed);
    VqQuantizer::new(cfg).quantize(&w, seed).expect("quantize")
}

/// `host_exec::attention_decode` on the descriptor's parts.
fn attend(
    qs: &Tensor2D,
    lens: &[usize],
    exts: &[RaggedExt<'_>],
    kq: &QuantizedTensor,
    vq: &QuantizedTensor,
    blocking: &HostBlocking,
) -> Tensor2D {
    host_exec::attention_decode(&AttentionBatch { qs, lens, exts }, kq, vq, blocking)
        .expect("attention_decode")
}

/// Any launchable plan for the op (the host kernels read nothing from it,
/// so the rung doesn't matter for correctness).
fn plan_for(cfg: &VqConfig, op: &ComputeOp) -> Option<KernelPlan> {
    let backend = CpuBackend::new();
    let profile = vq_llm::kernels::AccessProfile::default_for(cfg);
    backend
        .best_plan(&GpuSpec::rtx4090(), cfg, op, &profile)
        .map(|(plan, _)| plan)
        .ok()
}

proptest! {
    /// `CpuBackend::run_gemv` (`y = xᵀ · dequant(Wq)`) vs the dequantize
    /// oracle.
    #[test]
    fn cpu_gemv_matches_oracle(
        case in 0usize..8,
        rows_i in 0usize..3,
        cols_i in 0usize..2,
        seed in 0u64..500,
    ) {
        let cfg = config(case);
        let (rows, cols) = dims(rows_i, cols_i);
        let wq = quantize(cfg, rows, cols, seed);
        let x: Vec<f32> = (0..rows).map(|i| ((i as f32) * 0.37 + seed as f32).sin()).collect();
        let op = ComputeOp::Gemv { n: cols, k: rows, batch: 1 };
        let Some(plan) = plan_for(&cfg, &op) else { return Ok(()); };
        // Exercise the sequential path and the persistent-pool path at the
        // partition counts the serving layer will use.
        let threads = [1, 2, 4][(seed as usize) % 3];
        let (y, out) = CpuBackend::with_threads(threads)
            .run_gemv(&GpuSpec::rtx4090(), &plan, &x, &wq)
            .expect("run_gemv");
        let oracle = linalg::gemv(&wq.dequantize().unwrap().transposed(), &x).unwrap();
        prop_assert!(metrics::allclose(&y, &oracle, 1e-4, 1e-4), "{cfg} {rows}x{cols}");
        prop_assert!(out.us() > 0.0);
    }

    /// The decode-orientation LUT GeMV (`y = dequant(Wq) · x`) vs the
    /// dequantize oracle.
    #[test]
    fn lut_gemv_matches_oracle(
        case in 0usize..8,
        rows_i in 0usize..3,
        cols_i in 0usize..2,
        seed in 0u64..500,
    ) {
        let cfg = config(case);
        let (rows, cols) = dims(rows_i, cols_i);
        let wq = quantize(cfg, rows, cols, seed);
        let x: Vec<f32> = (0..cols).map(|i| ((i as f32) * 0.23 + seed as f32).cos()).collect();
        let blocking = HostBlocking { threads: 1 + (seed as usize) % 4 };
        let y = host_exec::gemv_lut(&wq, &x, &blocking).expect("gemv_lut");
        let oracle = linalg::gemv(&wq.dequantize().unwrap(), &x).unwrap();
        prop_assert!(metrics::allclose(&y, &oracle, 1e-4, 1e-4), "{cfg} {rows}x{cols}");
    }

    /// The batched LUT GeMV (`Y = dequant(Wq) · Xᵀ`, the serving-layer
    /// multi-token decode shape) vs per-column dequantize oracles, across
    /// batch sizes and pool partition counts.
    #[test]
    fn lut_gemv_batch_matches_oracle(
        case in 0usize..8,
        rows_i in 0usize..3,
        cols_i in 0usize..2,
        batch in 1usize..9,
        seed in 0u64..500,
    ) {
        let cfg = config(case);
        let (rows, cols) = dims(rows_i, cols_i);
        let wq = quantize(cfg, rows, cols, seed);
        let acts = vq_llm::tensor::Tensor2D::from_fn(batch, cols, |b, c| {
            ((b * 13 + c) as f32 * 0.23 + seed as f32).cos()
        });
        let blocking = HostBlocking { threads: 1 + (seed as usize + 1) % 4 };
        let y = host_exec::gemv_lut_batch(&wq, &acts, &blocking).expect("gemv_lut_batch");
        prop_assert_eq!(y.shape(), (rows, batch));
        let w = wq.dequantize().unwrap();
        for b in 0..batch {
            let oracle = linalg::gemv(&w, acts.row(b)).unwrap();
            let col: Vec<f32> = (0..rows).map(|r| y.get(r, b)).collect();
            prop_assert!(
                metrics::allclose(&col, &oracle, 1e-4, 1e-4),
                "{} {}x{} batch {} lane {}", cfg, rows, cols, batch, b
            );
        }
    }

    /// `CpuBackend::run_gemm` (`C = A × dequant(Wq)`) vs the dequantize
    /// oracle.
    #[test]
    fn cpu_gemm_matches_oracle(
        case in 0usize..8,
        rows_i in 0usize..3,
        m in 1usize..9,
        seed in 0u64..500,
    ) {
        let cfg = config(case);
        let (rows, cols) = dims(rows_i, 1);
        let wq = quantize(cfg, rows, cols, seed);
        let a = synth::gaussian(m, rows, 1.0, seed ^ 0xa5);
        let op = ComputeOp::Gemm { m, n: cols, k: rows };
        let Some(plan) = plan_for(&cfg, &op) else { return Ok(()); };
        // m in 1..9 crosses the 6-row micro-kernel boundary, and the
        // thread counts cover the column-strip pool path of the
        // panel-blocked GeMM.
        let (c, _) = CpuBackend::with_threads([1, 2, 4][(seed as usize) % 3])
            .run_gemm(&GpuSpec::rtx4090(), &plan, &a, &wq)
            .expect("run_gemm");
        let oracle = linalg::matmul(&a, &wq.dequantize().unwrap()).unwrap();
        prop_assert!(
            metrics::allclose(c.as_slice(), oracle.as_slice(), 1e-4, 1e-4),
            "{cfg} {rows}x{cols} m={m}"
        );
    }

    /// Ragged `CpuBackend::run_attention_ragged` (per-query softmax
    /// lengths over shared K/V — mask/short-seq tenants) vs looping the
    /// single-query fused path over row-truncated caches.
    #[test]
    fn ragged_attention_batch_matches_looped_single(
        case in 0usize..8,
        rows_i in 0usize..3,
        cols_i in 0usize..2,
        batch in 1usize..6,
        seed in 0u64..500,
    ) {
        let cfg = config(case);
        let (seq, head_dim) = dims(rows_i, cols_i);
        let kq = quantize(cfg, seq, head_dim, seed);
        let vq = quantize(cfg, seq, head_dim, seed ^ 0x3333);
        let qs = vq_llm::tensor::Tensor2D::from_fn(batch, head_dim, |b, d| {
            ((b * 23 + d) as f32 * 0.29 + seed as f32).sin()
        });
        // Lengths spread over the whole range, always including one
        // full-length tenant so the unmasked path is co-tested.
        let lens: Vec<usize> = (0..batch)
            .map(|b| if b == 0 { seq } else { 1 + (seed as usize * 31 + b * 97) % seq })
            .collect();
        let op = ComputeOp::attention_decode(1, head_dim, seq, batch);
        let Some(plan) = plan_for(&cfg, &op) else { return Ok(()); };
        let backend = CpuBackend::with_threads([1, 2, 4][(seed as usize) % 3]);
        let gpu = GpuSpec::rtx4090();
        let (out, _) = backend
            .run_attention_ragged(&gpu, &plan, &qs, &lens, &kq, &vq)
            .expect("run_attention_ragged");
        prop_assert_eq!(out.shape(), (batch, head_dim));
        let kd = kq.dequantize().unwrap();
        let vd = vq.dequantize().unwrap();
        let scale = 1.0 / (head_dim as f32).sqrt();
        for (b, &len) in lens.iter().enumerate() {
            // The looped single-query oracle: reference attention over the
            // cache truncated to this tenant's prefix.
            let oracle = linalg::attention_decode_ref(
                qs.row(b),
                &kd.slice(0, 0, len, head_dim),
                &vd.slice(0, 0, len, head_dim),
                scale,
            )
            .unwrap();
            prop_assert!(
                metrics::allclose(out.row(b), &oracle, 1e-4, 1e-4),
                "{} {}x{} lane {} len {}", cfg, seq, head_dim, b, len
            );
        }
        // The full-length lane must match the unmasked batch kernel
        // bitwise (same arithmetic path).
        let (full, _) = backend
            .run_attention_batch(&gpu, &plan, &qs, &kq, &vq)
            .expect("run_attention_batch");
        prop_assert_eq!(out.row(0), full.row(0));
    }

    /// Host kernel output is **bitwise** independent of the
    /// [`HostBlocking`] a caller supplies (1 to 4 worker partitions), so a
    /// backend's thread count can never change decoded bytes. Ragged
    /// attention over the randomized configuration space here; every other
    /// public kernel, and the sizes at which blocked loops take a second
    /// trip, in `kernel_bytes_are_blocking_independent_across_panels`.
    #[test]
    fn kernel_bytes_are_blocking_independent(
        case in 0usize..8,
        rows_i in 0usize..3,
        cols_i in 0usize..2,
        batch in 1usize..5,
        seed in 0u64..500,
    ) {
        let cfg = config(case);
        let (seq, head_dim) = dims(rows_i, cols_i);
        let kq = quantize(cfg, seq, head_dim, seed);
        let vq = quantize(cfg, seq, head_dim, seed ^ 0x5a5a);
        let qs = vq_llm::tensor::Tensor2D::from_fn(batch, head_dim, |b, d| {
            ((b * 19 + d) as f32 * 0.27 + seed as f32).sin()
        });
        let lens: Vec<usize> = (0..batch)
            .map(|b| if b == 0 { seq } else { 1 + (seed as usize * 13 + b * 89) % seq })
            .collect();
        let blockings = thread_sweep();
        let base_attn = attend(&qs, &lens, &[], &kq, &vq, &blockings[0]);
        for b in &blockings[1..] {
            let attn = attend(&qs, &lens, &[], &kq, &vq, b);
            prop_assert_eq!(
                base_attn.as_slice(),
                attn.as_slice(),
                "attention bytes depend on blocking {:?} ({} {}x{})", b, cfg, seq, head_dim
            );
        }
    }

    /// `CpuBackend::run_attention_head` vs the reference decode attention.
    #[test]
    fn cpu_attention_matches_oracle(
        case in 0usize..8,
        rows_i in 0usize..3,
        cols_i in 0usize..2,
        seed in 0u64..500,
    ) {
        let cfg = config(case);
        let (seq, head_dim) = dims(rows_i, cols_i);
        let kq = quantize(cfg, seq, head_dim, seed);
        let vq = quantize(cfg, seq, head_dim, seed ^ 0x7777);
        let q: Vec<f32> = (0..head_dim).map(|i| ((i as f32) * 0.31 + seed as f32).sin()).collect();
        let op = ComputeOp::attention_decode(1, head_dim, seq, 1);
        let Some(plan) = plan_for(&cfg, &op) else { return Ok(()); };
        let (out, _) = CpuBackend::with_threads([1, 2, 4][(seed as usize) % 3])
            .run_attention_head(&GpuSpec::rtx4090(), &plan, &q, &kq, &vq)
            .expect("run_attention_head");
        let scale = 1.0 / (head_dim as f32).sqrt();
        let oracle = linalg::attention_decode_ref(
            &q,
            &kq.dequantize().unwrap(),
            &vq.dequantize().unwrap(),
            scale,
        )
        .unwrap();
        prop_assert!(metrics::allclose(&out, &oracle, 1e-4, 1e-4), "{cfg} {seq}x{head_dim}");
    }
}

// --- prefix-bounded ragged attention: bitwise parity ---

/// Scope × residual-round grid of the bounded-kernel parity tests
/// (`case % 3` picks the scope, `case / 3` the rounds).
fn bounded_config(case: usize) -> VqConfig {
    let scope = match case % 3 {
        0 => CodebookScope::PerTensor,
        1 => CodebookScope::PerChannelGroup { channels: 4 },
        _ => CodebookScope::PerTile { rows: 16, cols: 16 },
    };
    VqConfig::new(4, 16, 1 + (case / 3) % 2, scope).unwrap()
}

/// The blockings the suites sweep: 1 to 4 worker partitions (3 leaves a
/// short last partition).
fn thread_sweep() -> Vec<HostBlocking> {
    (1..=4).map(|threads| HostBlocking { threads }).collect()
}

/// The configuration grid of the tailed parity test: the old
/// 4-wide / 16-entry cases first (`bounded_config`'s row-invariant
/// scopes × rounds), then one case per way a private row can be decoded —
/// each register-kernel sub-vector width at a one-byte and at a sub-byte
/// index, a width no register kernel takes (16), codes two bytes wide (a
/// 9-bit index) and the lattice loops (8- and 16-bit ids). `true` marks
/// a context assembled from random parts: these shapes hold too few
/// sub-vectors per scope to train its books.
fn tailed_config(case: usize) -> (VqConfig, bool) {
    let group = |channels| CodebookScope::PerChannelGroup { channels };
    match case {
        0..=3 => (bounded_config(case % 2 + 3 * (case / 2)), false),
        4 => (vq_llm::VqAlgorithm::Cq4.config(), true),
        5 => (VqConfig::new(2, 16, 2, group(2)).unwrap(), false),
        6 => (VqConfig::new(4, 256, 1, group(4)).unwrap(), true),
        7 => (
            VqConfig::new(8, 256, 2, CodebookScope::PerTensor).unwrap(),
            true,
        ),
        8 => (VqConfig::new(8, 16, 1, group(8)).unwrap(), false),
        9 => (VqConfig::new(16, 16, 1, group(16)).unwrap(), false),
        10 => (
            VqConfig::new(4, 512, 1, CodebookScope::PerTensor).unwrap(),
            true,
        ),
        11 => (
            VqConfig::new_lattice(4, 256, 16, 2, CodebookScope::PerTensor).unwrap(),
            false,
        ),
        _ => (
            VqConfig::new_lattice(8, 65_536, 256, 1, CodebookScope::PerTensor).unwrap(),
            true,
        ),
    }
}
const TAILED_CONFIGS: usize = 13;

/// This suite's two other ways to fill an [`ExtData`].
impl ExtData {
    /// 0..=9 folded rows of random codes (every remainder of the kernels'
    /// row block, and none), an outlier residual on about a quarter of
    /// their groups, 0..=2 f32 tail rows.
    fn random(cfg: &VqConfig, head_dim: usize, rng: &mut u64) -> ExtData {
        let rows = (splitmix(rng) % 10) as usize;
        let tail = (splitmix(rng) % 3) as usize;
        ExtData::new(cfg, head_dim, rows, tail, rng)
    }

    /// Rows `[start, start + rows)` of the context itself, folded: their
    /// K and V codes copied code by code, no outlier, no tail.
    fn context_rows(
        kq: &QuantizedTensor,
        vq: &QuantizedTensor,
        start: usize,
        rows: usize,
    ) -> ExtData {
        let cfg = kq.config();
        let copy = |t: &QuantizedTensor| -> Vec<CodeStream> {
            (0..cfg.residuals)
                .map(|r| {
                    let mut stream = CodeStream::new(cfg.index_bits());
                    for row in start..start + rows {
                        for g in 0..t.col_groups() {
                            stream.push(t.index_at(r, row, g));
                        }
                    }
                    stream
                })
                .collect()
        };
        ExtData {
            rows,
            k_codes: copy(kq),
            v_codes: copy(vq),
            k_outliers: OutlierBuf::default(),
            v_outliers: OutlierBuf::default(),
            k_tail: Vec::new(),
            v_tail: Vec::new(),
        }
    }
}

/// Ragged (tailed) attention as a plain scalar statement of the one order
/// the kernels sum in, on every SIMD tier alike. Per query: scores over
/// `[context prefix | folded rows | tail rows]` (the context's from
/// `gemv_lut_batch` over **every** row, so the bound the kernels stop at
/// cannot hide in it; a folded row's the context rows' sum over its codes
/// — per residual round, per group left to right, `+=` the LUT slot,
/// itself the fused multiply-add chain from +0.0 over the entry's nonzero
/// elements; lattice books: the signed entry's dot), outlier residuals and
/// tail rows by dot products, scaled; softmax numerators `exp(s − max)`
/// through the kernels' `exp`, summed in row order; then every output
/// element is one chain from +0.0 over the same rows — context and folded
/// rows alike by a fused multiply-add per residual round, outlier
/// residuals and tail rows by `+= w · v` — divided by the sum last. A
/// lattice code's entry is materialised (signs applied) before the same
/// arithmetic. With all-default `exts` this is plain ragged attention.
fn full_range_attention(
    qs: &Tensor2D,
    lens: &[usize],
    exts: &[RaggedExt<'_>],
    kq: &QuantizedTensor,
    vq: &QuantizedTensor,
) -> Tensor2D {
    let vs = kq.config().vector_size;
    let groups = kq.col_groups();
    let dot = |a: &[f32], b: &[f32]| a.iter().zip(b).map(|(&e, &x)| e * x).sum::<f32>();
    let slot = |e: &[f32], x: &[f32]| {
        e.iter().zip(x).fold(
            0.0f32,
            |s, (&e, &x)| if e == 0.0 { s } else { e.mul_add(x, s) },
        )
    };
    fn book(t: &QuantizedTensor, r: usize, row: usize, g: usize) -> &Codebook {
        let books = t.codebooks();
        books.book(r, books.scope_index(row, g * t.config().vector_size))
    }
    let mut entry = vec![0.0f32; vs];
    let scores = host_exec::gemv_lut_batch(kq, qs, &HostBlocking::default()).unwrap();
    let scale = 1.0 / (qs.cols() as f32).sqrt();
    let mut out = Tensor2D::zeros(qs.rows(), qs.cols());
    for (b, (ext, &len)) in exts.iter().zip(lens).enumerate() {
        let q = qs.row(b);
        let mut srow: Vec<f32> = (0..len).map(|t| scores.get(t, b)).collect();
        for row in 0..ext.rows {
            let mut acc = 0.0f32;
            for (r, stream) in ext.k_codes.iter().enumerate() {
                for g in 0..groups {
                    let (code, qg) = (stream.get(row * groups + g), &q[g * vs..(g + 1) * vs]);
                    let kbook = book(kq, r, 0, g);
                    acc += if kbook.is_lattice() {
                        kbook.lookup(code, &mut entry);
                        dot(&entry, qg)
                    } else {
                        slot(kbook.stored_entry(code as usize), qg)
                    };
                }
            }
            srow.push(acc);
        }
        for (row, group, values) in ext.k_outliers.iter() {
            srow[len + row] += dot(values, &q[group * vs..(group + 1) * vs]);
        }
        for t in ext.k_tail.chunks_exact(qs.cols()) {
            srow.push(dot(t, q));
        }
        let mut max = f32::NEG_INFINITY;
        for s in srow.iter_mut() {
            *s *= scale;
            max = if *s > max { *s } else { max };
        }
        let mut sum = 0.0f32;
        for s in srow.iter_mut() {
            *s = simd::exp(*s - max);
            sum += *s;
        }
        let orow = out.row_mut(b);
        // Context rows, then folded rows: (code of round r, group g, book).
        let code_of = |t: usize, r: usize, g: usize| {
            if t < len {
                (vq.index_at(r, t, g), book(vq, r, t, g))
            } else {
                (
                    ext.v_codes[r].get((t - len) * groups + g),
                    book(vq, r, 0, g),
                )
            }
        };
        for (t, &w) in srow.iter().enumerate().take(len + ext.rows) {
            for r in 0..vq.config().residuals {
                for g in 0..groups {
                    let (code, vbook) = code_of(t, r, g);
                    vbook.lookup(code, &mut entry);
                    for (o, &e) in orow[g * vs..].iter_mut().zip(&entry) {
                        *o = w.mul_add(e, *o);
                    }
                }
            }
        }
        let ext_weights = &srow[len..];
        for (row, group, values) in ext.v_outliers.iter() {
            for (j, &v) in values.iter().enumerate() {
                orow[group * vs + j] += ext_weights[row] * v;
            }
        }
        for (t, vrow) in ext.v_tail.chunks_exact(qs.cols()).enumerate() {
            for (o, &v) in orow.iter_mut().zip(vrow) {
                *o += ext_weights[ext.rows + t] * v;
            }
        }
        for o in orow.iter_mut() {
            *o /= sum;
        }
    }
    out
}

/// The shared fixture of the two parity properties: quantized K/V,
/// queries, and random prefix lengths — *not* forced to reach `seq`, so
/// the bound the kernels stop at is usually inside the cache.
fn bounded_case(
    (cfg, synthetic_parts): (VqConfig, bool),
    rows_i: usize,
    cols_i: usize,
    batch: usize,
    seed: u64,
) -> (QuantizedTensor, QuantizedTensor, Tensor2D, Vec<usize>, u64) {
    let (seq, head_dim) = dims(rows_i, cols_i);
    let build = if synthetic_parts { synthetic } else { quantize };
    let kq = build(cfg, seq, head_dim, seed);
    let vq = build(cfg, seq, head_dim, seed ^ 0x1212);
    let qs = Tensor2D::from_fn(batch, head_dim, |b, d| {
        ((b * 29 + d) as f32 * 0.31 + seed as f32).sin()
    });
    let mut rng = seed ^ 0xb0bd;
    let lens = (0..batch)
        .map(|_| 1 + (splitmix(&mut rng) % seq as u64) as usize)
        .collect();
    (kq, vq, qs, lens, rng)
}

proptest! {
    /// Bounded ragged `attention_decode` is, bit for bit, (a) the scalar
    /// statement of its order over the full range and (b) every lane
    /// decoded alone — so neither the bound, nor the batch-mates that set
    /// it, nor the lane block they share can be seen in a lane's bytes.
    #[test]
    fn bounded_ragged_attention_is_bitwise_full_range_and_solo(
        case in 0usize..6,
        rows_i in 0usize..3,
        cols_i in 0usize..2,
        batch in 1usize..=9,
        threads in 1usize..=4,
        seed in 0u64..500,
    ) {
        let cfg = bounded_config(case);
        let (kq, vq, qs, lens, _) = bounded_case((cfg, false), rows_i, cols_i, batch, seed);
        let blocking = HostBlocking { threads };
        let out = attend(&qs, &lens, &[], &kq, &vq, &blocking);
        let none = vec![RaggedExt::default(); batch];
        let full = full_range_attention(&qs, &lens, &none, &kq, &vq);
        prop_assert_eq!(
            out.as_slice(), full.as_slice(),
            "{} lens {:?} {:?}: bounded != full-range statement", cfg, lens, blocking
        );
        for (b, &len) in lens.iter().enumerate() {
            let solo_q = Tensor2D::from_vec(1, qs.cols(), qs.row(b).to_vec()).unwrap();
            let solo = attend(&solo_q, &[len], &[], &kq, &vq, &blocking);
            prop_assert_eq!(out.row(b), solo.row(0), "{} lane {} len {}", cfg, b, len);
        }
    }

    /// The same with random extensions under every extension-pass body
    /// (`tailed_config`; row-invariant scopes: per-tile books cannot take
    /// extensions); with every extension empty it stays the plain ragged
    /// kernel; and a folded row *is* a context row: a lane whose extension
    /// holds the codes of the context's own rows `[len, len + k)` decodes,
    /// under every blocking, exactly what plain ragged attention at
    /// `len + k` decodes — plain and lattice books alike.
    #[test]
    fn bounded_tailed_attention_is_bitwise_full_range_and_solo(
        config_i in 0usize..TAILED_CONFIGS,
        rows_i in 0usize..3,
        cols_i in 0usize..2,
        batch in 1usize..=9,
        threads in 1usize..=4,
        seed in 0u64..500,
    ) {
        let (cfg, synthetic_parts) = tailed_config(config_i);
        let (kq, vq, qs, lens, mut rng) =
            bounded_case((cfg, synthetic_parts), rows_i, cols_i, batch, seed);
        let blocking = HostBlocking { threads };
        let data: Vec<ExtData> = (0..batch)
            .map(|_| ExtData::random(&cfg, qs.cols(), &mut rng))
            .collect();
        let exts: Vec<RaggedExt<'_>> = data.iter().map(ExtData::ext).collect();
        let out = attend(&qs, &lens, &exts, &kq, &vq, &blocking);
        let full = full_range_attention(&qs, &lens, &exts, &kq, &vq);
        prop_assert_eq!(
            out.as_slice(), full.as_slice(),
            "{} lens {:?} {:?}: bounded != full-range statement", cfg, lens, blocking
        );
        for (b, &len) in lens.iter().enumerate() {
            let solo_q = Tensor2D::from_vec(1, qs.cols(), qs.row(b).to_vec()).unwrap();
            let solo = attend(&solo_q, &[len], &exts[b..=b], &kq, &vq, &blocking);
            prop_assert_eq!(out.row(b), solo.row(0), "{} lane {} len {}", cfg, b, len);
        }
        let none = vec![RaggedExt::default(); batch];
        prop_assert_eq!(
            attend(&qs, &lens, &none, &kq, &vq, &blocking),
            attend(&qs, &lens, &[], &kq, &vq, &blocking),
            "empty extensions must stay bitwise invisible"
        );

        let seq = kq.shape().0;
        let grown: Vec<usize> = lens
            .iter()
            .map(|&len| len + (splitmix(&mut rng) % (seq - len + 1) as u64) as usize)
            .collect();
        let copies: Vec<ExtData> = lens
            .iter()
            .zip(&grown)
            .map(|(&len, &to)| ExtData::context_rows(&kq, &vq, len, to - len))
            .collect();
        let copied: Vec<RaggedExt<'_>> = copies.iter().map(ExtData::ext).collect();
        for b in thread_sweep() {
            prop_assert_eq!(
                attend(&qs, &lens, &copied, &kq, &vq, &b),
                attend(&qs, &grown, &[], &kq, &vq, &b),
                "{} lens {:?} → {:?} {:?}: folded rows != the context rows they copy",
                cfg, lens, grown, b
            );
        }
    }
}

/// Sizes at which a loop blocked by `block` never completes a block, runs
/// exactly one, and runs two and a remainder.
fn rungs(block: usize) -> [usize; 3] {
    [(block - 1).max(1), block, 2 * block + 1]
}

/// Every public weight kernel on `wq` under `blocking`, labelled: the two
/// GeMVs, then `gemm_fused` at each batch of `ms` and — `score_batches` —
/// the batched score pass beside it (`gemv_lut` is its one-lane case; a
/// 4096-entry LUT eight lanes wide is too slow to build unoptimized).
fn weight_kernels(
    wq: &QuantizedTensor,
    ms: &[usize],
    score_batches: bool,
    blocking: &HostBlocking,
) -> Vec<(String, Vec<f32>)> {
    let (rows, cols) = wq.shape();
    let wave =
        |n: usize, phase: f32| -> Vec<f32> { (0..n).map(|i| (i as f32 * phase).sin()).collect() };
    let gemv_lut = host_exec::gemv_lut(wq, &wave(cols, 0.23), blocking).expect("gemv_lut");
    let gemv_xw = host_exec::gemv_xw(&wave(rows, 0.37), wq, blocking).expect("gemv_xw");
    let mut out = vec![("gemv_lut".into(), gemv_lut), ("gemv_xw".into(), gemv_xw)];
    for &m in ms {
        let a = Tensor2D::from_fn(m, rows, |b, d| ((b * 11 + d) as f32 * 0.17).cos());
        let gemm = host_exec::gemm_fused(&a, wq, blocking).expect("gemm_fused");
        out.push((format!("gemm_fused m {m}"), gemm.into_vec()));
        if !score_batches {
            continue;
        }
        let acts = Tensor2D::from_fn(m, cols, |b, d| ((b * 19 + d) as f32 * 0.27).sin());
        let scores = host_exec::gemv_lut_batch(wq, &acts, blocking).expect("gemv_lut_batch");
        out.push((format!("gemv_lut_batch m {m}"), scores.into_vec()));
    }
    out
}

/// Asserts `run` emits the same bytes under every blocking of `blockings`.
fn assert_blocking_independent(
    what: &str,
    blockings: &[HostBlocking],
    run: impl Fn(&HostBlocking) -> Vec<(String, Vec<f32>)>,
) {
    let base = run(&blockings[0]);
    for b in &blockings[1..] {
        for ((kernel, want), (_, got)) in base.iter().zip(run(b)) {
            assert_eq!(
                want, &got,
                "{kernel} bytes depend on blocking {b:?} ({what})"
            );
        }
    }
}

/// No public kernel's bytes depend on the [`HostBlocking`] a caller hands
/// it — 1 to 4 worker partitions — or on the plan it executes, at the
/// sizes where that could show. Shapes are a ladder over the kernels' own
/// blocking constants, so every blocked loop takes no full trip, one, and
/// two plus a remainder: lane blocks (`simd::LANES`: batch 1, 4, 9), the
/// score pass's row block, the group blocks of the score LUT and of
/// `gemv_xw`'s aggregation table, the value pass's register block of
/// column groups, codebook bands, and the panel body's K-chunk and
/// micro-kernel tile. Then the serving-size rungs: a 512² GPTVQ-2 weight,
/// a 2048×128 CQ-4 cache (two LUT group blocks at batch 9), and a 512²
/// AQLM-3 and QuIP#-4 weight on the panel side. Threads partition score
/// rows and value column groups — disjoint outputs — so no count can move
/// a sum.
///
/// What it would catch: a K-split sized by a blocking (a panel-blocked
/// `gemm_fused` moved 15 216 of 16 384 floats at 16×1024×1024 when a
/// plan-derived slab sized it), score sums regrouped by the LUT block, or
/// a second body behind a named shape (`run_attention_head` as `gemv_lut`
/// + `gemv_xw` moved 99 of 128 floats at 2048×128 CQ-4).
#[test]
fn kernel_bytes_are_blocking_independent_across_panels() {
    let threads = thread_sweep();
    let lane_ms = [1, simd::LANES / 2, simd::LANES + 1];
    let plain =
        |vs, entries, rounds| VqConfig::new(vs, entries, rounds, CodebookScope::PerTensor).unwrap();

    // --- Small rungs, weight kernels. ---
    // The value pass's register block, per covered sub-vector width.
    for vs in [2usize, 4, 8] {
        let cfg = plain(vs, 256, 1);
        for groups in rungs(simd::value_group_block(vs)) {
            for rows in rungs(simd::LUT_ROW_BLOCK) {
                let wq = synthetic(cfg, rows, groups * vs, 3);
                assert_blocking_independent(
                    &format!("{cfg} {rows}x{}", groups * vs),
                    &threads,
                    |b| weight_kernels(&wq, &[0, 1, 4, 9], true, b),
                );
            }
        }
    }
    // The group blocks of a 256-entry book: `gemv_xw`'s aggregation table
    // and, at eight lanes, the score LUT both take 32 groups a block. A
    // lane of the multi-block score pass is also its one-block solo chain.
    let cfg = plain(2, 256, 1);
    let group_block = host_exec::SLAB_BYTES / (256 * 4);
    assert_eq!(
        8 * host_exec::SLAB_BYTES / (256 * simd::LANES * 4),
        group_block
    );
    for groups in rungs(group_block) {
        let (rows, cols) = (simd::LUT_ROW_BLOCK + 1, groups * 2);
        let wq = synthetic(cfg, rows, cols, 11);
        assert_blocking_independent(&format!("{cfg} {rows}x{cols}"), &threads, |b| {
            weight_kernels(&wq, &[0, 1, 4, 9], true, b)
        });
        let acts = Tensor2D::from_fn(simd::LANES, cols, |b, d| ((b * 7 + d) as f32 * 0.31).sin());
        let scores = host_exec::gemv_lut_batch(&wq, &acts, &threads[0]).expect("gemv_lut_batch");
        for b in 0..simd::LANES {
            let solo = host_exec::gemv_lut(&wq, acts.row(b), &threads[0]).expect("gemv_lut");
            let lane: Vec<f32> = (0..rows).map(|r| scores.get(r, b)).collect();
            assert_eq!(lane, solo, "{cfg} {rows}x{cols} lane {b} != solo");
        }
    }
    // The panel body, on the proptests' configuration space (16- and
    // 32-entry books: none is covered): micro-kernel column tiles, and
    // rows across the 16-row bands of the per-tile case.
    let nr = simd::GEMM_NR;
    for case in 0..8 {
        let cfg = config(case);
        for cols in [nr / 2, nr, 2 * nr + nr / 2] {
            for rows in rungs(16) {
                let wq = synthetic(cfg, rows, cols, 5);
                assert_blocking_independent(&format!("{cfg} {rows}x{cols}"), &threads, |b| {
                    weight_kernels(&wq, &[0, 1, 4, 9], true, b)
                });
            }
        }
    }
    // Its K-chunk: 32 rows of a 2048-wide AQLM-3 weight.
    let aqlm3 = vq_llm::VqAlgorithm::Aqlm3.config();
    for rows in rungs(host_exec::PANEL_BYTES / (2048 * 4)) {
        let wq = synthetic(aqlm3, rows, 2048, 9);
        let a = Tensor2D::from_fn(lane_ms[2], rows, |b, d| ((b * 11 + d) as f32 * 0.17).cos());
        assert_blocking_independent(&format!("{aqlm3} {rows}x2048"), &threads, |b| {
            let gemm = host_exec::gemm_fused(&a, &wq, b).expect("gemm_fused");
            vec![("gemm_fused".into(), gemm.into_vec())]
        });
    }

    // --- Serving-size rungs, weight kernels. ---
    let quip4 = vq_llm::VqAlgorithm::QuipSharp4.config();
    for (cfg, rows, cols) in [
        (vq_llm::VqAlgorithm::Gptvq2.config(), 512usize, 512usize),
        (vq_llm::VqAlgorithm::Cq4.config(), 2048, 128),
        (aqlm3, 512, 512),
        (quip4, 512, 512),
    ] {
        let wq = synthetic(cfg, rows, cols, 7);
        assert_blocking_independent(&format!("{cfg} {rows}x{cols}"), &threads, |b| {
            weight_kernels(&wq, &lane_ms, cfg.num_entries == 256, b)
        });
    }

    // --- Attention: ragged, tailed, and one head through the backend. ---
    let cfg = vq_llm::VqAlgorithm::Cq4.config();
    let (seq, head_dim) = (2048usize, 128usize);
    let kq = synthetic(cfg, seq, head_dim, 7);
    let vq = synthetic(cfg, seq, head_dim, 7 ^ 0x5a5a);
    let mut rng = 0xface ^ seq as u64;
    for batch in lane_ms {
        let qs = Tensor2D::from_fn(batch, head_dim, |b, d| ((b * 19 + d) as f32 * 0.27).sin());
        let lens: Vec<usize> = (0..batch)
            .map(|b| match b {
                0 => seq,
                _ => 1 + (splitmix(&mut rng) % seq as u64) as usize,
            })
            .collect();
        let data: Vec<ExtData> = (0..batch)
            .map(|_| ExtData::random(&cfg, head_dim, &mut rng))
            .collect();
        let exts: Vec<RaggedExt<'_>> = data.iter().map(ExtData::ext).collect();
        assert_blocking_independent(&format!("{seq}x{head_dim} batch {batch}"), &threads, |b| {
            vec![
                (
                    "ragged attention".into(),
                    attend(&qs, &lens, &[], &kq, &vq, b).into_vec(),
                ),
                (
                    "tailed attention".into(),
                    attend(&qs, &lens, &exts, &kq, &vq, b).into_vec(),
                ),
            ]
        });
    }
    // `run_attention_head` reads nothing from its plan: the same head
    // under plans staging a small and a large shared-memory footprint is
    // lane 0 above, alone.
    let q = Tensor2D::from_fn(1, head_dim, |_, d| (d as f32 * 0.27).sin());
    let solo = attend(&q, &[seq], &[], &kq, &vq, &threads[0]);
    let op = ComputeOp::attention_decode(1, head_dim, seq, 1);
    let plan = plan_for(&cfg, &op).expect("attention plan");
    let gpu = GpuSpec::rtx4090();
    for smem in [16 << 10, 256 << 10] {
        let mut staged = plan.clone();
        staged.smem_codebook_bytes = smem;
        for b in &threads {
            let (head, _) = CpuBackend::with_threads(b.threads)
                .run_attention_head(&gpu, &staged, q.row(0), &kq, &vq)
                .expect("run_attention_head");
            assert_eq!(
                solo.row(0),
                head,
                "run_attention_head bytes depend on the plan ({smem} B staged) or {b:?}"
            );
        }
    }
}

/// The whole stack through the facade: a CPU-backend session executes the
/// same fused kernels and matches the oracle end to end.
#[test]
fn cpu_session_runs_fused_kernels() {
    let session = Session::builder()
        .backend_kind(BackendKind::Cpu { threads: 2 })
        .weight_algo(vq_llm::VqAlgorithm::Gptvq2)
        .build()
        .expect("valid session");
    assert_eq!(session.backend().name(), "cpu");

    let w = synth::correlated_channels(256, 64, 4, 0.9, 3);
    let wq = session.quantize_weights(&w, 11).unwrap();
    let x: Vec<f32> = (0..256).map(|i| (i as f32 * 0.13).sin()).collect();
    let plan = session
        .weight_plan(&ComputeOp::Gemv {
            n: 64,
            k: 256,
            batch: 1,
        })
        .unwrap();
    let (y, out) = session.run_gemv(&plan, &x, &wq).unwrap();
    let oracle = linalg::gemv(&wq.dequantize().unwrap().transposed(), &x).unwrap();
    assert!(metrics::allclose(&y, &oracle, 1e-4, 1e-4));
    assert!(out.us() > 0.0);

    // Batched decode attention through the facade: a query alone is one
    // lane of the CPU backend's one attention body — the same bits.
    let kd = synth::kv_stream(320, 64, 0.8, 4);
    let vd = synth::kv_stream(320, 64, 0.8, 5);
    let kq = session.quantize_kv(&kd, 1).unwrap();
    let vq = session.quantize_kv(&vd, 2).unwrap();
    let (kv_plan, _) = session.best_kv_plan(&session.attention_op(320, 2)).unwrap();
    let qs = vq_llm::tensor::Tensor2D::from_fn(2, 64, |b, d| ((b * 7 + d) as f32 * 0.21).sin());
    let (batch_out, _) = session
        .run_attention_batch(&kv_plan, &qs, &kq, &vq)
        .unwrap();
    assert_eq!(batch_out.shape(), (2, 64));
    for b in 0..2 {
        let (single, _) = session
            .run_attention_head(&kv_plan, qs.row(b), &kq, &vq)
            .unwrap();
        assert_eq!(batch_out.row(b), single, "query {b}");
    }

    // The session's pipelines inherit the backend, including the real
    // execution hooks.
    let pipeline = session.pipeline(session.scheme());
    assert_eq!(pipeline.backend().name(), "cpu");
    assert!(pipeline.generate(512, 64, 4).total_ms() > 0.0);
    let acts = vq_llm::tensor::Tensor2D::from_fn(3, 256, |b, i| ((b + i) as f32 * 0.17).cos());
    let (y_batch, _) = pipeline
        .run_linear(&acts, &wq)
        .expect("pipeline run_linear");
    let oracle_b = linalg::matmul(&acts, &wq.dequantize().unwrap()).unwrap();
    assert!(metrics::allclose(
        y_batch.as_slice(),
        oracle_b.as_slice(),
        1e-4,
        1e-4
    ));

    // An explicit Arc-ed backend and the cpu_threads shortcut work the
    // same way.
    let session2 = Session::builder()
        .backend(Arc::new(CpuBackend::auto()))
        .build()
        .expect("valid session");
    assert_eq!(session2.backend().name(), "cpu");
    let session3 = Session::builder()
        .cpu_threads(0)
        .build()
        .expect("valid session");
    assert_eq!(session3.backend().name(), "cpu");
}
