//! Checked-in digests of the host kernels' output bytes.
//!
//! Each case runs one kernel — `attention_decode`, `gemm_fused`,
//! `Session::run_gemv`, `gemv_lut_batch` or `VqQuantizer::quantize` — on inputs
//! built by integer hashing (no `sin` / `exp` / `ln`, whose last bits
//! differ between C libraries) and hashes its output with FNV-1a over the
//! little-endian bytes. The digests in `output_digests.txt` were taken on
//! a machine that runs every SIMD tier (AVX2 + FMA and AVX-512F), so a
//! machine that dispatches to another tier — or a change that moves a
//! rounding — fails here, in either build profile.
//!
//! Shapes take every blocking loop more than one trip: a 1040-row
//! context, weights past one K-panel and one codebook tile.
//!
//! Regenerate the file only when a change to the bytes is intended:
//! `cargo test --test output_digests -- --ignored rewrite_output_digests`.

mod common;

use common::{f32s, synthetic, ExtData};
use std::collections::BTreeMap;
use vq_llm::core::plan_cache::persist::{fnv1a64, FNV_SEED};
use vq_llm::kernels::host_exec::{self, AttentionBatch, HostBlocking, RaggedExt};
use vq_llm::tensor::Tensor2D;
use vq_llm::vq::config::CodebookScope;
use vq_llm::vq::VqQuantizer;
use vq_llm::{BackendKind, ComputeOp, Session, VqAlgorithm};

/// The checked-in digests, one `case hex` line each.
const DIGESTS: &str = include_str!("output_digests.txt");
const DIGESTS_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/output_digests.txt");

/// Context rows of the attention cases: past 1024, on no block boundary.
const SEQ: usize = 1040;
const HEAD_DIM: usize = 128;

fn matrix(rows: usize, cols: usize, seed: u64) -> Tensor2D {
    Tensor2D::from_vec(rows, cols, f32s(rows * cols, &mut (seed ^ 0x3a7))).unwrap()
}

fn digest(xs: &[f32]) -> u64 {
    xs.iter()
        .fold(FNV_SEED, |h, x| fnv1a64(h, &x.to_le_bytes()))
}

/// `(case, digest)` pairs of one kernel.
type Cases = Vec<(String, u64)>;

/// Every preset's K/V cache of `SEQ × HEAD_DIM`: one query alone, eight
/// over the whole context, and eight ragged ones — prefixes from the full
/// context down, each with folded rows, outliers and a tail where the
/// scope allows extensions (not per-tile).
fn attention_cases() -> Cases {
    let mut cases = Vec::new();
    for (i, alg) in VqAlgorithm::ALL.into_iter().enumerate() {
        let cfg = alg.config();
        let seed = 0xa77e_0000 + i as u64;
        let kq = synthetic(cfg, SEQ, HEAD_DIM, seed);
        let vq = synthetic(cfg, SEQ, HEAD_DIM, seed ^ 0x5eed);
        let qs = matrix(8, HEAD_DIM, seed ^ 0x9e11);
        let run = |qs: &Tensor2D, lens: &[usize], exts: &[RaggedExt<'_>]| {
            let batch = AttentionBatch { qs, lens, exts };
            let out = host_exec::attention_decode(&batch, &kq, &vq, &HostBlocking::default());
            digest(out.unwrap().as_slice())
        };
        let solo = Tensor2D::from_vec(1, HEAD_DIM, qs.row(0).to_vec()).unwrap();
        cases.push((
            format!("attention_decode/{alg}/solo"),
            run(&solo, &[SEQ], &[]),
        ));
        cases.push((
            format!("attention_decode/{alg}/batch8"),
            run(&qs, &[SEQ; 8], &[]),
        ));
        let lens: Vec<usize> = (0..8).map(|b| SEQ - 131 * b).collect();
        let mut state = seed ^ 0xe47;
        let exts: Vec<ExtData> = match cfg.scope {
            CodebookScope::PerTile { .. } => Vec::new(),
            _ => (0..8)
                .map(|b| ExtData::new(&cfg, HEAD_DIM, b + 2, b % 3, &mut state))
                .collect(),
        };
        let views: Vec<RaggedExt<'_>> = exts.iter().map(ExtData::ext).collect();
        let kind = if views.is_empty() {
            "ragged"
        } else {
            "ragged_tailed"
        };
        cases.push((
            format!("attention_decode/{alg}/{kind}"),
            run(&qs, &lens, &views),
        ));
    }
    cases
}

/// Every preset's `512 × 512` weight (two 256-row codebook tiles, four
/// K-panels of the panel body) against 11 rows of `A`: a full lane block
/// and a padded one on the configurations the value pass covers (the KV
/// presets and GPTVQ-2), two tile rows of the panel body on the others.
fn gemm_fused_cases() -> Cases {
    VqAlgorithm::ALL
        .into_iter()
        .enumerate()
        .map(|(i, alg)| {
            let seed = 0x9e33_0000 + i as u64;
            let wq = synthetic(alg.config(), 512, 512, seed);
            let a = matrix(11, 512, seed ^ 0xa);
            let c = host_exec::gemm_fused(&a, &wq, &HostBlocking::default()).unwrap();
            (format!("gemm_fused/{alg}"), digest(c.as_slice()))
        })
        .collect()
}

/// `y = xᵀ · dequant(Wq)` over every preset's `512 × 256` weight through
/// `Session::run_gemv` on a one-thread CPU backend: `gemm_fused` on one
/// row, the value pass one lane wide or the panel body.
fn run_gemv_cases() -> Cases {
    let session = Session::builder()
        .backend_kind(BackendKind::Cpu { threads: 1 })
        .build()
        .unwrap();
    let op = ComputeOp::Gemv {
        n: 256,
        k: 512,
        batch: 1,
    };
    VqAlgorithm::ALL
        .into_iter()
        .enumerate()
        .map(|(i, alg)| {
            let seed = 0x9e77_0000 + i as u64;
            let wq = synthetic(alg.config(), 512, 256, seed);
            let x = f32s(512, &mut (seed ^ 0xb));
            let plan = session.plan(wq.config(), &op).unwrap();
            let (y, _) = session.run_gemv(&plan, &x, &wq).unwrap();
            (format!("run_gemv/{alg}"), digest(&y))
        })
        .collect()
}

/// The score pass over every preset's `520 × 256` weight at one lane and
/// at eleven (a full and a padded lane block).
fn gemv_lut_batch_cases() -> Cases {
    let mut cases = Vec::new();
    for (i, alg) in VqAlgorithm::ALL.into_iter().enumerate() {
        let seed = 0x1b70_0000 + i as u64;
        let wq = synthetic(alg.config(), 520, 256, seed);
        for batch in [1, 11] {
            let xs = matrix(batch, 256, seed ^ batch as u64);
            let y = host_exec::gemv_lut_batch(&wq, &xs, &HostBlocking::default()).unwrap();
            cases.push((
                format!("gemv_lut_batch/{alg}/b{batch}"),
                digest(y.as_slice()),
            ));
        }
    }
    cases
}

/// k-means training and encoding (`kmeans::nearest`) of a `512 × 16`
/// weight under every preset with 256 stored entries — AQLM-3's 4096 take
/// minutes unoptimised — hashing each round's books and codes.
fn quantize_cases() -> Cases {
    VqAlgorithm::ALL
        .into_iter()
        .filter(|alg| alg.config().stored_entries() == 256)
        .enumerate()
        .map(|(i, alg)| {
            let seed = 0x9a47_0000 + i as u64;
            let cfg = alg.config();
            let w = matrix(512, 16, seed);
            let q = VqQuantizer::new(cfg).quantize(&w, seed).unwrap();
            let books = q.codebooks();
            let mut hash = FNV_SEED;
            for r in 0..cfg.residuals {
                for s in 0..books.scopes() {
                    let entries = books.book(r, s).entries_flat();
                    hash = fnv1a64(hash, &digest(entries).to_le_bytes());
                }
                for code in q.index_stream(r).unpack() {
                    hash = fnv1a64(hash, &code.to_le_bytes());
                }
            }
            (format!("quantize/{alg}"), hash)
        })
        .collect()
}

/// The checked-in digests of the cases named `kernel/…`.
fn checked_in(kernel: &str) -> BTreeMap<String, String> {
    DIGESTS
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| l.split_once(' '))
        .filter(|(case, _)| case.split('/').next() == Some(kernel))
        .map(|(case, hex)| (case.to_string(), hex.trim().to_string()))
        .collect()
}

fn render(cases: &[(String, u64)]) -> BTreeMap<String, String> {
    cases
        .iter()
        .map(|(case, hash)| (case.clone(), format!("{hash:016x}")))
        .collect()
}

/// Fails, naming every case whose bytes moved (or that the file lacks or
/// no longer has), with the command that reruns the kernel's test
/// (`{kernel}_bytes`).
fn check(kernel: &str, cases: Cases) {
    let (want, got) = (checked_in(kernel), render(&cases));
    let mut moved: Vec<String> = got
        .iter()
        .filter(|(case, hex)| want.get(*case) != Some(hex))
        .map(|(case, hex)| format!("{case}: got {hex}, file {:?}", want.get(case)))
        .collect();
    moved.extend(
        want.keys()
            .filter(|case| !got.contains_key(*case))
            .map(|case| format!("{case}: in the file, not produced")),
    );
    assert!(
        moved.is_empty(),
        "{kernel} output bytes differ from tests/output_digests.txt:\n  {}\n\
         rerun: cargo test --test output_digests {kernel}_bytes\n\
         regenerate (only for an intended change to the bytes): \
         cargo test --test output_digests -- --ignored rewrite_output_digests",
        moved.join("\n  "),
    );
}

#[test]
fn attention_decode_bytes() {
    check("attention_decode", attention_cases());
}

#[test]
fn gemm_fused_bytes() {
    check("gemm_fused", gemm_fused_cases());
}

#[test]
fn run_gemv_bytes() {
    check("run_gemv", run_gemv_cases());
}

#[test]
fn gemv_lut_batch_bytes() {
    check("gemv_lut_batch", gemv_lut_batch_cases());
}

#[test]
fn quantize_bytes() {
    check("quantize", quantize_cases());
}

#[test]
#[ignore = "rewrites tests/output_digests.txt from this machine's bytes"]
fn rewrite_output_digests() {
    let cases = [
        attention_cases(),
        gemm_fused_cases(),
        run_gemv_cases(),
        gemv_lut_batch_cases(),
        quantize_cases(),
    ]
    .concat();
    let mut text = String::from(
        "# FNV-1a 64 of each case's output bytes (f32 little-endian); see\n\
         # tests/output_digests.rs. Taken on x86-64 with AVX2, FMA and AVX-512F.\n",
    );
    for (case, hex) in render(&cases) {
        text.push_str(&format!("{case} {hex}\n"));
    }
    std::fs::write(DIGESTS_PATH, text).unwrap();
}
