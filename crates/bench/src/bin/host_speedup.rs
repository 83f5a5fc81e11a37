//! Fused-vs-naive host execution speedup report (`BENCH_host.json`).
//!
//! Measures the real host kernels of `vqllm_kernels::host_exec` against
//! the naive dequantize-then-`linalg` path on large synthetic quantized
//! operands (assembled with `QuantizedTensor::from_parts` — no k-means
//! training), and emits a machine-readable `BENCH_host.json` at the
//! workspace root so future PRs have a perf trajectory to regress
//! against.
//!
//! `--smoke` runs a reduced-size variant and **asserts** the gates CI
//! relies on (exit code 1 otherwise):
//!
//! * fused LUT GeMV ≥ 3× over naive dequantize-then-GeMV (4096², 1 thread)
//! * fused GeMM ≥ 2.5× over naive dequantize-then-matmul on a configuration
//!   the value pass covers (the batch rides its lanes), and ≥ 1.3× on one it
//!   does not (AQLM-3 8×512×512: the panel body) — both sides of the
//!   selection `gemm_fused` makes from the tensor's `VqConfig`
//! * fused attention decode ≥ 3× over the dequantized reference
//! * pool-parallel GeMV no slower than serial at any core count (the two
//!   timed in alternating rounds, each side's best kept), and ≥ 1.8× over
//!   single-threaded when ≥ 4 cores are available
//! * batched LUT GeMV ≥ 1.5× over looping the single-activation kernel
//! * over a 2048×128 CQ-4 cache at batch 8, the score pass
//!   (`gemv_lut_batch`) and the value pass (`simd::value_accumulate`) cost
//!   at most 2 ns per packed code each and the whole `attention_decode`
//!   call at most 4 per K/V code pair; the
//!   batch-16 score pass (two lane blocks) at most 4; batch 6 — a padded
//!   lane block — costs at most 1.25× batch 8 (ceilings at least twice the
//!   measured cost: they trip on a return to per-code dispatch, a decoded
//!   panel or a per-width slow path, not on a noisy box)
//! * a live-KV extension (8 lanes × 128 folded CQ-4 rows, head_dim 64)
//!   costs at most 1.5 ns per private code over its K and V passes — at
//!   least twice its cost once folded rows are scored from the context's
//!   LUT and accumulated by the one-lane register kernel; a return to
//!   per-code decoding trips it — and folding one appended K/V row pair at
//!   most 20 µs (a scalar codebook search trips that; the ceiling holds
//!   on runners without AVX-512, whose fold reads ≈ 9 µs)
//! * folding 8 tenants' rows by one `TenantKv::append_batch` costs at most
//!   0.75× the one-tenant fold per appended row pair, both measured in the
//!   same run (a batch that falls back to per-tenant searches trips it)
//! * seeding 8 k-means books in lockstep (`kmeans::kmeans_many`) costs at
//!   most 0.75× seeding each alone (`kmeans::kmeans`) per book — 2048
//!   points, vs 2, 256 entries, `max_iters: 0`, so k-means++ seeding plus
//!   the final assignment; the two alternate in rounds. On a 2-core
//!   AVX-512 Xeon VM it reads 0.40–0.49, 0.52–0.62 with the AVX2 tier
//!   forced, and 0.91–1.23 with the portable tier forced, where lockstep
//!   gains nothing: what a return to one-book-at-a-time seeding reads
//!
//! Beside the fold it records the search inside it alone —
//! `nearest_ns_per_search` (256 entries, vs 2) and `nearest_tier`, the
//! arm `kmeans::nearest` dispatched to — ungated, and beside the softmax
//! and value-pass costs the arms those ran: `softmax_tier` and
//! `value_tier` (`avx512f`, `avx2+fma` or `scalar-8w`). Beside the
//! lockstep gate it records `quantize_cq4_ms`, a whole 2048×128 CQ-4
//! `VqQuantizer::quantize` (what a context's K or V costs to register),
//! best of 3, ungated.

use std::hint::black_box;
use std::time::Instant;
use vq_llm::kernels::host_exec::{
    self, pool::WorkerPool, simd, AttentionBatch, HostBlocking, RaggedExt,
};
use vq_llm::llm::{KvQuantMode, SharedContext, TenantKv};
use vq_llm::net::json::Json;
use vq_llm::tensor::{linalg, metrics, Tensor2D};
use vq_llm::vq::config::CodebookScope;
use vq_llm::vq::{
    kmeans, Codebook, CodebookSet, PackedIndices, QuantizedTensor, VqConfig, VqQuantizer,
};
use vqllm_bench::{fmt_us, merge_bench_json, num, Gates, Report};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a large quantized tensor directly from synthetic parts — random
/// Gaussian-ish codebooks and uniform packed codes — sidestepping k-means.
fn synth_quantized(cfg: VqConfig, rows: usize, cols: usize, seed: u64) -> QuantizedTensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let gauss = |r: &mut StdRng| {
        // Sum of uniforms ≈ normal; plenty for a bench operand.
        let s: f64 = (0..4)
            .map(|_| (r.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
            .sum();
        (s - 2.0) as f32
    };
    let scopes = CodebookSet::num_scopes(&cfg, (rows, cols));
    let stored = cfg.stored_entries();
    let books: Vec<Vec<Codebook>> = (0..cfg.residuals)
        .map(|_| {
            (0..scopes)
                .map(|_| {
                    let entries: Vec<f32> = (0..stored * cfg.vector_size)
                        .map(|_| gauss(&mut rng))
                        .collect();
                    Codebook::new(entries, cfg.vector_size, cfg.lattice).expect("codebook")
                })
                .collect()
        })
        .collect();
    let set = CodebookSet::new(cfg, (rows, cols), books).expect("codebook set");
    let vectors = rows * cols / cfg.vector_size;
    let limit = cfg.num_entries as u64;
    let streams: Vec<PackedIndices> = (0..cfg.residuals)
        .map(|_| {
            let codes: Vec<u32> = (0..vectors)
                .map(|_| (rng.next_u64() % limit) as u32)
                .collect();
            PackedIndices::pack(&codes, cfg.index_bits() as u8).expect("pack")
        })
        .collect();
    QuantizedTensor::from_parts(set, streams).expect("from_parts")
}

fn wave(n: usize, phase: f32) -> Vec<f32> {
    (0..n).map(|i| (i as f32 * phase).sin()).collect()
}

/// Best-of-`reps` wall-clock seconds for `f` (best-of suppresses the
/// scheduling noise of shared CI/VM cores that a mean would absorb).
fn time_s<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

struct Measured {
    naive_s: f64,
    fused_s: f64,
}

impl Measured {
    fn speedup(&self) -> f64 {
        self.naive_s / self.fused_s
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let reps = 3;
    let mut gates = Gates::default();
    let mut report = Report::new(
        "host_speedup",
        "Fused host execution vs naive dequantize-then-linalg",
    );

    // --- Headline: LUT GeMV on a 4096×4096 quantized weight ---
    let (rows, cols) = (4096, 4096);
    let cfg = VqConfig::new(4, 256, 1, CodebookScope::PerTensor).expect("config");
    let wq = synth_quantized(cfg, rows, cols, 0x5eed);
    let x = wave(cols, 0.37);
    let single = HostBlocking::default();
    // The one attention entry, on the descriptor's parts.
    let attend = |qs: &Tensor2D,
                  lens: &[usize],
                  exts: &[RaggedExt<'_>],
                  k: &QuantizedTensor,
                  v: &QuantizedTensor| {
        host_exec::attention_decode(&AttentionBatch { qs, lens, exts }, k, v, &single)
            .expect("attention")
    };

    // Parity first: the measurement is meaningless if the outputs differ.
    let fused_y = host_exec::gemv_lut(&wq, &x, &single).expect("gemv_lut");
    let w_full = wq.dequantize().expect("dequantize");
    let naive_y = linalg::gemv(&w_full, &x).expect("gemv");
    assert!(
        metrics::allclose(&fused_y, &naive_y, 1e-4, 1e-4),
        "fused LUT GeMV diverged from the oracle"
    );
    drop(w_full);

    let gemv = Measured {
        naive_s: time_s(reps, || {
            let w = wq.dequantize().expect("dequantize");
            linalg::gemv(&w, &x).expect("gemv")
        }),
        fused_s: time_s(reps, || {
            host_exec::gemv_lut(&wq, &x, &single).expect("gemv_lut")
        }),
    };
    let fp16_bytes = (rows * cols * 2) as f64;
    let fused_gbps = fp16_bytes / gemv.fused_s / 1e9;
    let naive_gbps = fp16_bytes / gemv.naive_s / 1e9;
    report.section(&format!(
        "LUT GeMV  y = dequant(Wq)·x   ({rows}×{cols}, {cfg}, lane kernels' simd tier {})",
        simd::tier()
    ));
    report.line(format!(
        "  naive  (dequantize + linalg::gemv): {}  ({naive_gbps:6.2} GB/s fp16-equivalent)",
        fmt_us(gemv.naive_s * 1e6)
    ));
    report.line(format!(
        "  fused  (codebook-resident LUT)    : {}  ({fused_gbps:6.2} GB/s fp16-equivalent)",
        fmt_us(gemv.fused_s * 1e6)
    ));
    report.line(format!(
        "  speedup: {:.2}x (single-threaded)",
        gemv.speedup()
    ));

    // --- Pool-parallel scaling on top of the fused kernel ---
    // Threads come from the machine, and the *real* count is recorded: the
    // partitions run on the shared persistent WorkerPool (spawned once),
    // so parallel dispatch costs queue pushes, not thread spawns.
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    WorkerPool::shared(); // warm outside the timed region
    let par = HostBlocking::default().with_threads(threads);
    // Serial and parallel alternate in rounds, each side keeping its best,
    // so a shift in the machine's speed reaches both.
    let (mut serial_s, mut fused_par_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        serial_s = serial_s.min(time_s(1, || {
            host_exec::gemv_lut(&wq, &x, &single).expect("gemv_lut")
        }));
        fused_par_s = fused_par_s.min(time_s(1, || {
            host_exec::gemv_lut(&wq, &x, &par).expect("gemv_lut")
        }));
    }
    let par_speedup = serial_s / fused_par_s;
    report.line(format!(
        "  fused @ {threads} threads (persistent pool): {}  ({par_speedup:.2}x vs 1 thread, {} in alternate rounds)",
        fmt_us(fused_par_s * 1e6),
        fmt_us(serial_s * 1e6)
    ));
    // At any core count the pool must not lose to serial (PR 2's scoped
    // spawns did); beyond that, scaling is only gated where the hardware
    // can express it.
    let par4_speedup = if threads >= 4 {
        let par4 = HostBlocking::default().with_threads(4);
        let s = time_s(reps, || {
            host_exec::gemv_lut(&wq, &x, &par4).expect("gemv_lut")
        });
        report.line(format!(
            "  fused @ 4 threads: {}  ({:.2}x vs 1 thread)",
            fmt_us(s * 1e6),
            serial_s / s
        ));
        serial_s / s
    } else {
        report.line(format!(
            "  ({threads} core(s) available: 4-thread scaling gate skipped)"
        ));
        par_speedup
    };

    // --- Batched LUT GeMV (the serving-layer multi-token decode shape) ---
    let batch = 8usize;
    let acts = Tensor2D::from_fn(batch, cols, |b, c| ((b * 31 + c) as f32 * 0.19).sin());
    let batched = host_exec::gemv_lut_batch(&wq, &acts, &single).expect("gemv_lut_batch");
    for b in 0..batch {
        let one = host_exec::gemv_lut(&wq, acts.row(b), &single).expect("gemv_lut");
        let col: Vec<f32> = (0..rows).map(|r| batched.get(r, b)).collect();
        assert!(
            metrics::allclose(&col, &one, 1e-4, 1e-4),
            "batched LUT GeMV diverged from per-activation fused (lane {b})"
        );
    }
    let gemv_batch = Measured {
        naive_s: time_s(reps, || {
            for b in 0..batch {
                black_box(host_exec::gemv_lut(&wq, acts.row(b), &single).expect("gemv_lut"));
            }
        }),
        fused_s: time_s(reps, || {
            host_exec::gemv_lut_batch(&wq, &acts, &single).expect("gemv_lut_batch")
        }),
    };
    report.section(&format!(
        "Batched LUT GeMV  (batch {batch}: shared code decode + B-wide LUT slabs)"
    ));
    report.line(format!(
        "  {batch}× single {}   batched {}   speedup {:.2}x",
        fmt_us(gemv_batch.naive_s * 1e6),
        fmt_us(gemv_batch.fused_s * 1e6),
        gemv_batch.speedup()
    ));

    // --- Trait orientation: y = xᵀ·dequant(Wq) (scatter-aggregate) ---
    let xr = wave(rows, 0.23);
    let fused_t = host_exec::gemv_xw(&xr, &wq, &single).expect("gemv_xw");
    let naive_t = linalg::gemv(&wq.dequantize().unwrap().transposed(), &xr).expect("gemv");
    assert!(metrics::allclose(&fused_t, &naive_t, 1e-4, 1e-4));
    let gemv_xw = Measured {
        naive_s: time_s(reps, || {
            let w = wq.dequantize().expect("dequantize").transposed();
            linalg::gemv(&w, &xr).expect("gemv")
        }),
        fused_s: time_s(reps, || {
            host_exec::gemv_xw(&xr, &wq, &single).expect("gemv_xw")
        }),
    };
    report.section("Backend GeMV  y = xᵀ·dequant(Wq)   (code aggregation)");
    report.line(format!(
        "  naive {}   fused {}   speedup {:.2}x",
        fmt_us(gemv_xw.naive_s * 1e6),
        fmt_us(gemv_xw.fused_s * 1e6),
        gemv_xw.speedup()
    ));

    // --- Fused GeMM: both sides of the selection `gemm_fused` makes ---
    // Against dequantize-then-matmul, parity first.
    let measure_gemm = |wq: &QuantizedTensor, m: usize, reps: usize| {
        let a = Tensor2D::from_fn(m, wq.shape().0, |r, c| ((r * 31 + c) as f32 * 0.11).sin());
        let fused_c = host_exec::gemm_fused(&a, wq, &single).expect("gemm_fused");
        let naive_c = linalg::matmul(&a, &wq.dequantize().unwrap()).expect("matmul");
        assert!(metrics::allclose(
            fused_c.as_slice(),
            naive_c.as_slice(),
            1e-4,
            1e-4
        ));
        Measured {
            naive_s: time_s(reps, || {
                let w = wq.dequantize().expect("dequantize");
                linalg::matmul(&a, &w).expect("matmul")
            }),
            fused_s: time_s(reps, || {
                host_exec::gemm_fused(&a, wq, &single).expect("gemm_fused")
            }),
        }
    };
    // Covered: the value pass with the batch as lanes.
    let (gk, gn, gm) = if smoke {
        (1024, 1024, 16)
    } else {
        (2048, 2048, 32)
    };
    let gemm = measure_gemm(&synth_quantized(cfg, gk, gn, 0xbeef), gm, reps);
    // Not covered (12-bit codes, two residual rounds): the panel body.
    let aqlm3 = vq_llm::vq::VqAlgorithm::Aqlm3.config();
    let (pk_k, pk_n, pk_m) = (512usize, 512usize, 8usize);
    let gemm_panel = measure_gemm(&synth_quantized(aqlm3, pk_k, pk_n, 0xa3), pk_m, 10 * reps);
    // The serving linear: head_dim × head_dim GPTVQ-2 at batch 8.
    let gptvq2 = vq_llm::vq::VqAlgorithm::Gptvq2.config();
    let gemm_serving_us =
        measure_gemm(&synth_quantized(gptvq2, 128, 128, 0x92), 8, 100 * reps).fused_s * 1e6;
    report.section("Fused GeMM  C = A×dequant(Wq)");
    report.line(format!(
        "  value pass, batch as lanes ({gm}×{gk}×{gn}, {cfg}): naive {}   fused {}   speedup {:.2}x",
        fmt_us(gemm.naive_s * 1e6),
        fmt_us(gemm.fused_s * 1e6),
        gemm.speedup()
    ));
    report.line(format!(
        "  panel body, K-chunks + {}×{} tiles ({pk_m}×{pk_k}×{pk_n}, {aqlm3}): naive {}   fused {}   speedup {:.2}x",
        simd::GEMM_MR,
        simd::GEMM_NR,
        fmt_us(gemm_panel.naive_s * 1e6),
        fmt_us(gemm_panel.fused_s * 1e6),
        gemm_panel.speedup()
    ));
    report.line(format!(
        "  serving linear (8×128×128, {gptvq2}): fused {}",
        fmt_us(gemm_serving_us)
    ));

    // --- Fused attention decode over quantized K/V ---
    let (seq, head_dim) = if smoke { (2048, 128) } else { (4096, 128) };
    let kv_cfg =
        VqConfig::new(4, 256, 1, CodebookScope::PerChannelGroup { channels: 4 }).expect("config");
    let kq = synth_quantized(kv_cfg, seq, head_dim, 0x6b);
    let vq = synth_quantized(kv_cfg, seq, head_dim, 0x7777);
    let q = wave(head_dim, 0.31);
    let scale = 1.0 / (head_dim as f32).sqrt();
    let q1 = Tensor2D::from_fn(1, head_dim, |_, d| q[d]);
    let fused_o = attend(&q1, &[seq], &[], &kq, &vq).into_vec();
    let naive_o = linalg::attention_decode_ref(
        &q,
        &kq.dequantize().unwrap(),
        &vq.dequantize().unwrap(),
        scale,
    )
    .expect("attention ref");
    assert!(metrics::allclose(&fused_o, &naive_o, 1e-4, 1e-4));
    let attn = Measured {
        naive_s: time_s(reps, || {
            let k = kq.dequantize().expect("dequantize K");
            let v = vq.dequantize().expect("dequantize V");
            linalg::attention_decode_ref(&q, &k, &v, scale).expect("attention ref")
        }),
        fused_s: time_s(reps, || attend(&q1, &[seq], &[], &kq, &vq)),
    };
    report.section(&format!(
        "Fused attention decode   (seq {seq}, head_dim {head_dim}, {kv_cfg})"
    ));
    report.line(format!(
        "  naive {}   fused {}   speedup {:.2}x",
        fmt_us(attn.naive_s * 1e6),
        fmt_us(attn.fused_s * 1e6),
        attn.speedup()
    ));

    // --- The serving step's attention call and its stages, per packed code ---
    // The batch-8 decode shape of the benchmark of record: CQ-4 K/V
    // (2-wide sub-vectors, one 256-entry book per channel pair), 2048
    // cached tokens, head_dim 128, default blocking. Batch 6 — the mean
    // batch of `offline_long` is 5.7 — rides the same 8-lane block padded.
    let (pseq, pdim, pbatch) = (2048usize, 128usize, 8usize);
    let cq4 = vq_llm::vq::VqAlgorithm::Cq4.config();
    let pk = synth_quantized(cq4, pseq, pdim, 0xc4);
    let pv = synth_quantized(cq4, pseq, pdim, 0xc5);
    let queries =
        |batch: usize| Tensor2D::from_fn(batch, pdim, |b, d| ((b * 19 + d) as f32 * 0.27).sin());
    let pq = queries(pbatch);
    let pgroups = pdim / cq4.vector_size;
    let codes = (pseq * pgroups) as f64;
    let pass_reps = 50;
    let score_pass_ns_per_code = time_s(pass_reps, || {
        host_exec::gemv_lut_batch(&pk, &pq, &single).expect("score pass")
    }) * 1e9
        / codes;
    // Two lane blocks: a batch wider than the SIMD lanes streams the rows
    // once per block of 8.
    let pq16 = queries(2 * pbatch);
    let score_pass_b16_ns_per_code = time_s(pass_reps, || {
        host_exec::gemv_lut_batch(&pk, &pq16, &single).expect("score pass, batch 16")
    }) * 1e9
        / codes;
    let attn_ns = |batch: usize| {
        let (q, lens) = (queries(batch), vec![pseq; batch]);
        time_s(pass_reps, || attend(&q, &lens, &[], &pk, &pv)) * 1e9 / codes
    };
    let attn_ns_per_code = attn_ns(pbatch);
    let attn_b6_ns_per_code = attn_ns(6);
    // One query alone over the same cache: the solo shape of the public API.
    let attn_solo_us = attn_ns(1) * codes / 1e3;
    // The two stages behind the score pass, on the buffer it leaves: the
    // lane-wise softmax in place, then the value pass over V's codes.
    let scores: Vec<[f32; 8]> = host_exec::gemv_lut_batch(&pk, &pq, &single)
        .expect("score pass")
        .as_slice()
        .chunks_exact(pbatch)
        .map(|row| row.try_into().expect("8 lanes"))
        .collect();
    let scale = 1.0 / (pdim as f32).sqrt();
    let mut weights = scores.clone();
    let softmax_ns_per_score = time_s(pass_reps, || {
        weights.copy_from_slice(&scores);
        simd::softmax_lanes(
            &mut weights,
            &[pseq; 8],
            scale,
            std::array::from_fn(|_| &mut [][..]),
        )
    }) * 1e9
        / (pseq * pbatch) as f64;
    let v_books = pv.codebooks().row_books(0, 0, 0..pgroups);
    let v_round = simd::ValueRound {
        stream: simd::CodeSource::Packed(pv.index_stream(0)),
        first: 0,
        books: &v_books,
        run: pv.codebooks().book_run(0, 0, 0..pgroups),
    };
    let value_pass_ns_per_code = time_s(pass_reps, || {
        let mut acc = vec![[0.0f32; 8]; pdim];
        simd::value_accumulate(&mut acc, &weights, &[v_round], pgroups, 0);
        acc
    }) * 1e9
        / codes;
    // Both lane kernels dispatch to the widest arm the machine has; at this
    // shape (8 lanes, 64 groups a consecutive arena run) the value pass
    // takes its lane-pair kernel there.
    let lane_tier = simd::tier();
    report.section(&format!(
        "Attention per packed code   (batch {pbatch}, {pseq}×{pdim}, {cq4})"
    ));
    report.line(format!(
        "  attention_decode {attn_ns_per_code:.2} ns/code pair   \
         at batch 6 {attn_b6_ns_per_code:.2}   solo {attn_solo_us:.1} us"
    ));
    report.line(format!(
        "  score pass (gemv_lut_batch) {score_pass_ns_per_code:.2} ns/code   \
         at batch 16 {score_pass_b16_ns_per_code:.2}   \
         softmax ({lane_tier}) {softmax_ns_per_score:.2} ns/score   \
         value pass (value_accumulate, {lane_tier}) {value_pass_ns_per_code:.2} ns/code"
    ));

    // --- Live KV: the private extension's passes and the fold ---
    // The benchmark of record's live workload: a 512×64 CQ-4 context, 8
    // lanes, each with 128 rows folded against the context's books behind
    // a 2-row f32 tail. The extension's cost is the tailed call minus the
    // same call without extensions, over the private codes it decoded
    // (lanes × rows × groups, K and V).
    let (lseq, ldim, llanes, lrows, ltail) = (512usize, 64usize, 8usize, 128usize, 2usize);
    let live_ctx = SharedContext::new(
        synth_quantized(cq4, lseq, ldim, 0x11),
        synth_quantized(cq4, lseq, ldim, 0x12),
        synth_quantized(cfg, ldim, ldim, 0x13),
    )
    .expect("live context");
    let live_mode = KvQuantMode::Quantized {
        tail_window: ltail,
        outlier_keep_milli: 1000,
    };
    let live_rows: Vec<Vec<Vec<f32>>> = (0..llanes)
        .map(|lane| {
            (0..lrows + ltail)
                .map(|t| wave(ldim, 0.05 + (lane * 131 + t) as f32 * 0.013))
                .collect()
        })
        .collect();
    let fill = |lane: usize| -> TenantKv {
        let mut kv = TenantKv::new(&live_ctx, live_mode).expect("live cache");
        for row in &live_rows[lane] {
            kv.append(row, row).expect("append");
        }
        kv
    };
    // One sample is a whole cache's worth of appends (the first `ltail`
    // fold nothing). Beside it, the same appends for all lanes in
    // lockstep, one `append_batch` a step: what a decode step's context
    // group folds. Per appended row pair, so a batch that falls back to
    // per-tenant searches reads as `fold_us_per_row`. The two alternate
    // in rounds, so a shift in the machine's speed reaches both.
    let fill_batch = || -> Vec<TenantKv> {
        let mut kvs: Vec<TenantKv> = (0..llanes)
            .map(|_| TenantKv::new(&live_ctx, live_mode).expect("live cache"))
            .collect();
        for t in 0..lrows + ltail {
            let mut step: Vec<(&mut TenantKv, &[f32], &[f32])> = kvs
                .iter_mut()
                .zip(&live_rows)
                .map(|(kv, rows)| (kv, &rows[t][..], &rows[t][..]))
                .collect();
            TenantKv::append_batch(&mut step).expect("append");
        }
        kvs
    };
    let (mut fold_s, mut fold_batch8_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        fold_s = fold_s.min(time_s(pass_reps / 5, || fill(0)));
        fold_batch8_s = fold_batch8_s.min(time_s(pass_reps / 5, fill_batch));
    }
    let fold_us_per_row = fold_s * 1e6 / lrows as f64;
    let fold_batch8_us_per_row = fold_batch8_s * 1e6 / (llanes * lrows) as f64;
    // The codebook search the fold runs once per group and side, alone:
    // lane 0's rows against the context's first K book, the fold's shape.
    let book = live_ctx.kq().codebooks().book(0, 0);
    let (book_em, vs) = (book.entries_interleaved(), book.vector_size());
    let search_points: Vec<f32> = live_rows[0].concat();
    let nearest_ns_per_search = time_s(pass_reps, || {
        search_points
            .chunks_exact(vs)
            .map(|p| kmeans::nearest(p, book_em, vs).0)
            .fold(0u32, u32::wrapping_add)
    }) * 1e9
        / (search_points.len() / vs) as f64;
    let nearest_tier = kmeans::nearest_tier();
    let kvs: Vec<TenantKv> = (0..llanes).map(fill).collect();
    let exts: Vec<_> = kvs.iter().map(TenantKv::ext).collect();
    let lq = Tensor2D::from_fn(llanes, ldim, |b, d| ((b * 19 + d) as f32 * 0.27).sin());
    let llens = vec![lseq / 2 + 1; llanes];
    let (lk, lv) = (live_ctx.kq(), live_ctx.vq());
    let tailed_s = time_s(4 * pass_reps, || attend(&lq, &llens, &exts, lk, lv));
    let ragged_s = time_s(4 * pass_reps, || attend(&lq, &llens, &[], lk, lv));
    let private_codes = (2 * llanes * lrows * ldim / cq4.vector_size) as f64;
    let ext_attn_ns_per_code = (tailed_s - ragged_s) * 1e9 / private_codes;
    report.section(&format!(
        "Live KV   ({llanes} lanes × {lrows} folded rows + {ltail} tail, {lseq}×{ldim} context, {cq4})"
    ));
    report.line(format!(
        "  tailed {}   ragged {}   extension {ext_attn_ns_per_code:.2} ns/private code (K + V)   \
         fold {fold_us_per_row:.2} us/appended row pair   \
         batch of {llanes} {fold_batch8_us_per_row:.2}",
        fmt_us(tailed_s * 1e6),
        fmt_us(ragged_s * 1e6),
    ));
    report.line(format!(
        "  codebook search (kmeans::nearest, {} entries, vs {vs}, {nearest_tier} tier) \
         {nearest_ns_per_search:.1} ns/search",
        book.stored_entries(),
    ));

    // --- Codebook training: the KV quantize of the benchmark's contexts ---
    // A 2048×128 CQ-4 tensor of the serving workloads' kind: 64 books of
    // 2048 two-wide sub-vectors, one per channel pair.
    let kv = vq_llm::tensor::synth::kv_stream(2048, 128, 0.85, 0x4b);
    let kv_quantizer = VqQuantizer::new(cq4);
    let quantize_cq4_ms =
        time_s(reps, || kv_quantizer.quantize(&kv, 0x4b).expect("quantize")) * 1e3;
    // Its first 8 books seeded in lockstep by one `kmeans_many` call, against
    // the same books one `kmeans` each, per book: k-means++ seeding and the
    // final assignment (`max_iters: 0`), the two alternating in rounds.
    let books: Vec<Vec<f32>> = (0..kmeans::MAX_BOOKS)
        .map(|g| {
            (0..kv.rows())
                .flat_map(|r| kv.row(r)[g * cq4.vector_size..][..cq4.vector_size].to_vec())
                .collect()
        })
        .collect();
    let books: Vec<(&[f32], u64)> = books.iter().zip(0..).map(|(b, s)| (&b[..], s)).collect();
    let (vs, k) = (cq4.vector_size, cq4.stored_entries());
    let seed_only = kmeans::KmeansOptions {
        max_iters: 0,
        ..kmeans::KmeansOptions::default()
    };
    let (mut lone_s, mut lockstep_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..10 {
        lone_s = lone_s.min(time_s(1, || {
            for &(points, seed) in &books {
                black_box(kmeans::kmeans(points, vs, k, seed, &seed_only));
            }
        }));
        lockstep_s = lockstep_s.min(time_s(1, || kmeans::kmeans_many(&books, vs, k, &seed_only)));
    }
    let kmeans_book_ms = lone_s * 1e3 / books.len() as f64;
    let kmeans_lockstep8_book_ms = lockstep_s * 1e3 / books.len() as f64;
    report.section(&format!("Codebook training   (2048×128 KV tensor, {cq4})"));
    report.line(format!(
        "  quantize {quantize_cq4_ms:.1} ms   \
         k-means++ seeding + final assignment per book (2048 points, {k} entries): \
         alone {kmeans_book_ms:.3} ms   {} in lockstep {kmeans_lockstep8_book_ms:.3} ms",
        books.len()
    ));

    // --- Machine-readable trajectory ---
    let json = merge_bench_json(
        "BENCH_host.json",
        vec![
            ("gemv_rows", num(rows as f64)),
            ("gemv_cols", num(cols as f64)),
            ("gemv_naive_ms", num(gemv.naive_s * 1e3)),
            ("gemv_fused_ms", num(gemv.fused_s * 1e3)),
            ("gemv_speedup", num(gemv.speedup())),
            ("gemv_fused_gbps", num(fused_gbps)),
            ("gemv_naive_gbps", num(naive_gbps)),
            ("gemv_parallel_threads", num(threads as f64)),
            ("gemv_parallel_ms", num(fused_par_s * 1e3)),
            ("gemv_parallel_speedup", num(par_speedup)),
            ("gemv_parallel4_speedup", num(par4_speedup)),
            ("gemv_batch", num(batch as f64)),
            ("gemv_batch_speedup", num(gemv_batch.speedup())),
            ("gemv_xw_speedup", num(gemv_xw.speedup())),
            ("gemm_m", num(gm as f64)),
            ("gemm_speedup", num(gemm.speedup())),
            ("gemm_panel_speedup", num(gemm_panel.speedup())),
            ("gemm_serving_us", num(gemm_serving_us)),
            ("attention_speedup", num(attn.speedup())),
            ("attn_solo_us", num(attn_solo_us)),
            ("attn_ns_per_code", num(attn_ns_per_code)),
            ("attn_b6_ns_per_code", num(attn_b6_ns_per_code)),
            ("score_pass_ns_per_code", num(score_pass_ns_per_code)),
            (
                "score_pass_b16_ns_per_code",
                num(score_pass_b16_ns_per_code),
            ),
            ("softmax_ns_per_score", num(softmax_ns_per_score)),
            ("value_pass_ns_per_code", num(value_pass_ns_per_code)),
            ("ext_attn_ns_per_code", num(ext_attn_ns_per_code)),
            ("fold_us_per_row", num(fold_us_per_row)),
            ("fold_batch8_us_per_row", num(fold_batch8_us_per_row)),
            ("nearest_ns_per_search", num(nearest_ns_per_search)),
            ("nearest_tier", Json::Str(nearest_tier.to_string())),
            ("quantize_cq4_ms", num(quantize_cq4_ms)),
            ("kmeans_book_ms", num(kmeans_book_ms)),
            ("kmeans_lockstep8_book_ms", num(kmeans_lockstep8_book_ms)),
            ("softmax_tier", Json::Str(lane_tier.to_string())),
            ("value_tier", Json::Str(lane_tier.to_string())),
            ("simd_tier", Json::Str(simd::tier().to_string())),
            ("smoke", Json::Bool(smoke)),
        ],
    );
    report.section("BENCH_host.json");
    report.line(json.trim_end());
    report.finish();

    // --- The acceptance gates (asserted in --smoke / CI) ---
    gates.min("fused LUT GeMV speedup over naive", gemv.speedup(), 3.0);
    gates.min(
        "fused GeMM speedup over naive (value pass, batch as lanes)",
        gemm.speedup(),
        2.5,
    );
    gates.min(
        "fused GeMM speedup over naive (panel body, AQLM-3 8×512×512)",
        gemm_panel.speedup(),
        1.3,
    );
    gates.min("fused attention decode speedup", attn.speedup(), 3.0);
    gates.min(
        "batched LUT GeMV speedup over looped",
        gemv_batch.speedup(),
        1.5,
    );
    gates.max(
        "attention ns per K/V code pair (batch 8, CQ-4)",
        attn_ns_per_code,
        4.0,
    );
    gates.max(
        "attention at batch 6 vs batch 8 (a padded lane block)",
        attn_b6_ns_per_code / attn_ns_per_code,
        1.25,
    );
    gates.max(
        "score pass ns per packed code (batch 8, CQ-4)",
        score_pass_ns_per_code,
        2.0,
    );
    gates.max(
        "value pass ns per packed code (batch 8, CQ-4)",
        value_pass_ns_per_code,
        2.0,
    );
    gates.max(
        "score pass ns per packed code (batch 16, CQ-4)",
        score_pass_b16_ns_per_code,
        4.0,
    );
    gates.max(
        "live-KV extension ns per private code (8 × 128 rows, CQ-4, K + V)",
        ext_attn_ns_per_code,
        1.5,
    );
    gates.max(
        "live-KV fold us per appended row pair (head_dim 64, CQ-4)",
        fold_us_per_row,
        20.0,
    );
    gates.max(
        "live-KV batched fold of 8 tenants vs one (per appended row pair)",
        fold_batch8_us_per_row / fold_us_per_row,
        0.75,
    );
    gates.max(
        "k-means++ seeding of 8 books in lockstep vs one alone (per book)",
        kmeans_lockstep8_book_ms / kmeans_book_ms,
        0.75,
    );
    // The pool must never lose to serial (15 % noise allowance on shared
    // 1-core runners where both paths are the same code).
    gates.min(
        "pool-parallel GeMV vs serial (1.0 = parity)",
        par_speedup,
        0.85,
    );
    if threads >= 4 {
        gates.min("pool-parallel GeMV scaling @ 4 threads", par4_speedup, 1.8);
    }

    gates.finish(smoke);
}
