//! Fused host execution of VQ kernels — real computation on packed codes.
//!
//! This module is the paper's core insight (§IV: keep codebooks
//! cache-resident and fuse dequantization into the consuming op) mapped
//! onto the host memory hierarchy. No kernel here ever materializes the
//! dequantized weight matrix; every inner loop reads **packed codes**
//! (via [`PackedIndices::unpack_block`], or as the stream's own bytes when
//! an index is eight bits wide) and small cache-resident tables.
//!
//! Two arithmetic bodies do the work, over **lane blocks**: up to
//! [`simd::LANES`] activations ride the lanes of one vector, a block of `w`
//! of them padded to `W = `[`simd::padded_lanes`]`(w)` ∈ {1, 2, 4, 8}.
//!
//! * **The score pass** (`lut_scores`) — `Y = dequant(Wq) · Xᵀ`,
//!   sub-vectors along the *reduction* axis (the decode-centric LUT GeMV of
//!   EVA/VPTQ): per (residual round, column group) a lane-interleaved table
//!   of activation · centroid partial dots, then one load and one add per
//!   packed code into sums a small row block keeps in registers
//!   ([`simd::lut_batch_accumulate`]). [`gemv_lut_batch`] is this pass,
//!   [`gemv_lut`] its one-lane case, attention's K side its prefix.
//! * **The value pass** (`value_lanes` → [`simd::value_accumulate`]) —
//!   `C = A × dequant(Wq)`, sub-vectors along the *output* axis: per packed
//!   code, one broadcast of its entry from the codebook arena
//!   ([`CodebookSet::book_run`]) and the multiply-adds by the row's `W`
//!   weights, into register-resident lane-pair accumulators; rows streamed
//!   once per block of column groups (at one lane the output row itself is
//!   packed into the vectors instead). It is
//!   attention's V side (weights: the softmax numerators) and
//!   [`gemm_fused`], the linear layer (weights: the batch rows of `A`,
//!   transposed). A GeMV `y = xᵀ · dequant(Wq)` is [`gemm_fused`] on one
//!   row: the value pass one lane wide.
//! * [`attention_decode`] — the one attention entry: score pass, lane-wise
//!   softmax, value pass in one buffer (see below). One query, a full
//!   batch, per-query prefixes and private live-KV extensions are all
//!   descriptions ([`AttentionBatch`]) of the same call.
//!
//! **Where the value pass hands over.** [`simd::value_accumulate`]'s
//! register kernels cover what serving uses: one residual round of one-byte
//! codes over plain 256-entry books with 2-, 4- or 8-wide entries
//! (`lanes_cover`); a span whose books are neither consecutive scopes nor
//! one shared book runs its lane-array body. For every other configuration — codes wider than a
//! byte, more residual rounds, lattice signs, other sub-vector widths —
//! re-decoding a row once per lane block costs more than decoding it once
//! to memory, so [`gemm_fused`] runs the **panel body** (`gemm_panels`:
//! decode a K-chunk of rows, reuse it across a register-blocked
//! micro-kernel). That is the paper's register- versus shared-memory-level
//! fusion threshold, and like it the choice is a function of the tensor's
//! [`VqConfig`] alone — never of the plan, the SIMD tier or the caller — and
//! the chunk a function of the tensor's shape alone.
//!
//! # Attention: three stages in one buffer
//!
//! The paper's dataflow is codebook-centric with **register-level** fusion:
//! a dequantized value goes from the codebook cache into the consuming
//! instruction, never through memory. The attention body
//! (`attention_lanes`) is that on the host. A lane block of queries works
//! in one token-major buffer of `bound × W` floats (`bound`: the longest
//! prefix a lane attends — packed K/V rows no query attends are never
//! streamed):
//!
//! 1. **Score** (`lut_scores`): the LUT pass writes
//!    `q_b · dequant(K)[t]` into `buf[t][b]`, and scores lane `b`'s folded
//!    extension rows out of lane `b`'s column of the same table.
//! 2. **Softmax** ([`simd::softmax_lanes`]): lane-wise and in place. Each
//!    lane takes the maximum over its own prefix and private rows, then
//!    every score becomes the numerator `exp(s·scale − max)` through one
//!    polynomial [`simd::exp`]; rows past a lane's prefix become exactly
//!    +0.0. The normalising sum is kept per lane and divides last.
//! 3. **Value** (`value_lanes`): column groups outermost — a block's
//!    codebooks, one run of the arena, are its L1-resident codebook cache,
//!    its `vector_size × groups` output elements × `W` lanes its
//!    register-resident accumulators — and the rows are streamed once per
//!    block against the row's weight vector `buf[t]`. No row is decoded,
//!    no panel exists, nothing is gathered between the stages (the
//!    accumulators are laid out lane-pair inside a block and element-major
//!    outside it).
//!
//! # The one summation order
//!
//! For every configuration, batch width, lane position, thread count and
//! SIMD tier, an output's bytes are these and no others — every
//! multiply-add below rounds once (`f32::mul_add`, or the FMA instruction
//! that is the same operation), so one machine's bytes are every
//! machine's (`tests/output_digests.rs` pins them):
//!
//! * a score — a [`gemv_lut`] / [`gemv_lut_batch`] output, attention's
//!   score of a context row or of a folded extension row — is, per
//!   residual round, LUT slots added left to right over the column groups
//!   (lattice books: the signed dots, in the same order); a folded row then
//!   adds its outlier residuals' dots, in push order, and a tail row is a
//!   dot;
//! * softmax maximum (order-free: the AVX-512 tier reduces it per row
//!   slot of a vector, and a ±0 tie moves no numerator), then numerators
//!   and their sum, run in row order over [context prefix | folded
//!   extension rows | f32 tail rows];
//! * a value-pass output — a [`gemm_fused`] element on a covered
//!   configuration, an attention output element — is **one** chain of
//!   multiply-adds from +0.0 over the rows: a context or folded row
//!   contributes `weight · entry` once per residual round, rounds in order.
//!   Attention continues it over the outlier residuals (push order) and
//!   the tail rows with `+= weight · value` and divides by the lane's sum;
//! * a panel-body [`gemm_fused`] element is the sum, in row order, of one
//!   such chain per K-chunk of the row's codebook band — chunks of
//!   `256 KiB ÷ row bytes` rows, fixed by the tensor's shape.
//!
//! Zero-weight rows between a lane's prefix and the bound add exact zeros,
//! so solo ≡ batched ≡ tailed-with-empty-extensions bit for bit, and since
//! no sum is ever split by a block or worker boundary, the thread count
//! cannot move a byte either. [`SLAB_BYTES`] sizes the score LUT's and the
//! value pass's *group blocks*, which reorder work and never a sum.
//! Shapes the register kernels do not cover run the same chains through the
//! generic lane-array bodies.
//!
//! A live-KV extension ([`RaggedExt`]) is private to one query and folded
//! against the context's own books, so a folded row is computed like a
//! context row holding the same codes, by the same kernels, to the same
//! bits: scored out of lane `b`'s column of the LUT just built for the
//! context, accumulated by the value pass one lane wide straight into the
//! lane's output row. It borrows the owning cache's flat buffers —
//! byte-wide [`CodeStream`]s (read through [`simd::CodeSource`]),
//! [`Outliers`] as one coordinate and one value array, the f32 tail as one
//! slice. Each lane's private chain is its own, so solo ≡ batched ≡ tailed
//! holds by construction.
//!
//! Nothing here reads a kernel plan: the planner's decisions describe GPU
//! shared memory and registers, while a host group block is a function of
//! the tensor's shape and [`SLAB_BYTES`] alone. Row partitioning
//! ([`HostBlocking::threads`]) runs on the persistent
//! [`pool::WorkerPool`] — workers are spawned once per process and fed
//! through a channel, so a parallel kernel call costs two queue pushes,
//! not N thread spawns. A lane block's LUT, score rows and accumulators
//! are carved from a scratch buffer each thread keeps across calls (see
//! `with_scratch`), so a call allocates none of them. Inner loops dispatch
//! through [`simd`]: AVX2 + FMA when the CPU has them (AVX-512F beside it
//! for softmax and the value pass), 8-wide unrolled scalar lanes
//! otherwise — per primitive for the dense ones, once per kernel call for
//! the lane-block stages, whose per-code work is too small to carry a
//! dispatch. The tier decides speed, never bytes.
//!
//! [`CodebookSet::book_run`]: vqllm_vq::CodebookSet::book_run
//! [`PackedIndices::unpack_block`]: vqllm_vq::PackedIndices::unpack_block

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

pub mod pool;
pub mod simd;

use crate::{KernelError, Result};
use vqllm_core::failpoint::Site;
use vqllm_tensor::Tensor2D;
use vqllm_vq::config::CodebookScope;
use vqllm_vq::{QuantizedTensor, VqConfig};

/// Threading decisions for the host kernels. Cache blocking is not among
/// them: every group block is a function of the tensor's shape and
/// [`SLAB_BYTES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostBlocking {
    /// Worker partitions for the parallel paths (1 = sequential). The
    /// partitions execute on the shared [`pool::WorkerPool`]; this knob
    /// decides how many chunks a call is split into, not how many OS
    /// threads exist.
    pub threads: usize,
}

impl Default for HostBlocking {
    fn default() -> Self {
        HostBlocking { threads: 1 }
    }
}

impl HostBlocking {
    /// The default blocking, whatever the plan: a plan describes GPU
    /// shared memory and registers, and nothing in it sizes host work.
    /// Kept only for the benchmark of record's probe
    /// (`benchmark/src/probe.rs`), which still calls it; remove it
    /// together with that call.
    #[doc(hidden)]
    pub fn for_plan(_plan: &vqllm_core::KernelPlan) -> Self {
        HostBlocking::default()
    }

    /// Sets the worker count for the parallel paths.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// Byte budget of a cache-resident group block: a typical L1 data cache.
/// The value pass's books are blocked to it, the score LUT — whose every
/// block is one more sweep over all the packed rows — to 8× it, the
/// typical L2:L1 ratio. A block orders work, never a sum.
pub const SLAB_BYTES: usize = 32 << 10;

/// Column groups per block so `block × slot_width` f32 slots fit `budget`
/// bytes (at least one group, at most `groups`).
fn group_block(budget: usize, slot_width: usize, groups: usize) -> usize {
    (budget / (slot_width * 4).max(1)).clamp(1, groups.max(1))
}

/// Dot product against a lattice entry with per-element sign bits applied.
#[inline]
fn signed_dot(entry: &[f32], xs: &[f32], signs: u32) -> f32 {
    let mut acc = 0.0;
    for (j, (&e, &x)) in entry.iter().zip(xs).enumerate() {
        acc += if signs & (1 << j) != 0 { -e * x } else { e * x };
    }
    acc
}

/// The `(residual round, group)` → codebook table of the band that `row`
/// lies in ([`CodebookSet::band_rows`](vqllm_vq::CodebookSet::band_rows)),
/// for groups `[gs, ge)`: kernels resolve the mapping once per band
/// instead of per code.
fn band_books(
    books: &vqllm_vq::CodebookSet,
    row: usize,
    gs: usize,
    ge: usize,
) -> Vec<Vec<&vqllm_vq::Codebook>> {
    (0..books.config().residuals)
        .map(|r| books.row_books(r, row, gs..ge))
        .collect()
}

/// Evaluates the failpoint at a kernel entry (`vqllm_core::failpoint`):
/// a fired `Error` action surfaces as a contained
/// [`KernelError::Panicked`] so fault drills can force a kernel failure
/// without unwinding. Disabled failpoints cost one relaxed atomic load.
fn failpoint(site: Site) -> Result<()> {
    match vqllm_core::failpoint::fire(site) {
        Some(message) => Err(KernelError::Panicked {
            site: site.name(),
            message,
        }),
        None => Ok(()),
    }
}

/// Splits `data` (`rows × row_width` elements, row-major) into row-aligned
/// chunks and runs `f(first_row, chunk)` on each — on the shared
/// [`pool::WorkerPool`] when `threads > 1`, sequentially otherwise. Chunks
/// are disjoint `&mut` slices, so workers never race.
///
/// # Errors
///
/// Returns [`KernelError::Panicked`] (tagged with `site`) if a chunk job
/// panicked; the panic is contained by the pool, not re-raised.
fn parallel_row_chunks<T, F>(
    data: &mut [T],
    row_width: usize,
    threads: usize,
    site: Site,
    f: F,
) -> Result<()>
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let rows = data.len() / row_width.max(1);
    let workers = threads.max(1).min(rows.max(1));
    if workers <= 1 {
        f(0, data);
        return Ok(());
    }
    let chunk_rows = rows.div_ceil(workers);
    pool::WorkerPool::shared().try_scope(site, |scope| {
        for (ci, chunk) in data.chunks_mut(chunk_rows * row_width).enumerate() {
            let f = &f;
            scope.spawn(move || f(ci * chunk_rows, chunk));
        }
    })
}

/// Fused LUT GeMV: `y = dequant(Wq) · x` with `x.len() == cols`,
/// `y.len() == rows` — the decode-orientation GeMV where quantized
/// sub-vectors run along the reduction axis. This is [`gemv_lut_batch`] at
/// batch 1: the score pass on one lane, every output the sum a lane of any
/// wider batch gets.
///
/// # Errors
///
/// Returns [`KernelError::ShapeMismatch`] if `x.len() != cols`.
#[expect(
    clippy::indexing_slicing,
    reason = "decode-kernel inner loops: indices derive from the tensor's shape, validated at kernel entry; bounds are pinned by the proptest parity suite, and `get` per element defeats autovectorization."
)]
pub fn gemv_lut(wq: &QuantizedTensor, x: &[f32], blocking: &HostBlocking) -> Result<Vec<f32>> {
    if x.len() != wq.shape().1 {
        return Err(KernelError::ShapeMismatch {
            what: "x length must equal quantized cols",
        });
    }
    let xs = Tensor2D::from_fn(1, x.len(), |_, c| x[c]);
    Ok(gemv_lut_batch(wq, &xs, blocking)?.into_vec())
}

/// Batched fused LUT GeMV: `Y = dequant(Wq) · Xᵀ` for a batch of
/// activation rows `xs` (`batch × cols`, row-major), returning `Y` as
/// `rows × batch` (token-major: `Y[row][b] = (dequant(Wq) · xs[b])[row]`).
///
/// This is the score pass, the serving-layer multi-token decode shape: the
/// packed-code decode is shared across the whole batch, and the LUT slab
/// is **lane-interleaved** (one slot of [`simd::padded_lanes`] partial dots
/// per (group, code); a batch wider than [`simd::LANES`] is taken a lane
/// block at a time) so a packed code costs a single contiguous load and
/// add ([`simd::lut_batch_accumulate`]) instead of B scattered gathers,
/// visited in group blocks sized to 8 × [`SLAB_BYTES`] so the active LUT
/// slab stays cache-resident. Lattice books (sign-extended logical entries)
/// take a fused sign-aware path per lane instead — a per-base-entry LUT
/// cannot absorb element-wise sign masks.
///
/// # Errors
///
/// Returns [`KernelError::ShapeMismatch`] if `xs.cols() != cols`.
pub fn gemv_lut_batch(
    wq: &QuantizedTensor,
    xs: &Tensor2D,
    blocking: &HostBlocking,
) -> Result<Tensor2D> {
    failpoint(Site::HostGemvLutBatch)?;
    let (rows, cols) = wq.shape();
    if xs.cols() != cols {
        return Err(KernelError::ShapeMismatch {
            what: "batch activation cols must equal quantized cols",
        });
    }
    let batch = xs.rows();
    let mut y = Tensor2D::zeros(rows, batch);
    for l0 in (0..batch).step_by(simd::LANES) {
        let w = (batch - l0).min(simd::LANES);
        simd::with_padded_lanes!(
            simd::padded_lanes(w), lut_scores_into;
            wq, xs, l0, w, blocking, &mut y
        )?;
    }
    Ok(y)
}

/// Lanes `[l0, l0 + w)` of [`gemv_lut_batch`], written into `y`.
fn lut_scores_into<const W: usize>(
    wq: &QuantizedTensor,
    xs: &Tensor2D,
    l0: usize,
    w: usize,
    blocking: &HostBlocking,
    y: &mut Tensor2D,
) -> Result<()> {
    let (rows, slots) = (wq.shape().0, lut_slots(wq));
    with_scratch((slots + rows) * W, |mut buf| {
        let lut = carve::<W>(&mut buf, slots);
        let scores = carve::<W>(&mut buf, rows);
        scores.fill([0.0; W]);
        lut_scores(wq, xs, l0..l0 + w, &[], lut, scores, blocking)?;
        simd::with_lanes!(w, copy_lanes, W; y.as_mut_slice(), xs.rows(), l0, scores);
        Ok(())
    })
}

thread_local! {
    /// The calling thread's kernel scratch (see [`with_scratch`]).
    static SCRATCH: std::cell::Cell<Vec<f32>> = const { std::cell::Cell::new(Vec::new()) };
}

/// Runs `f` on `len` floats of the calling thread's scratch: 64-byte
/// aligned (no LUT slot straddles a cache line), contents unspecified,
/// kept across calls at the largest size the thread has asked for. A call
/// nested inside `f` (a pool job run while waiting) gets its own.
#[expect(
    clippy::indexing_slicing,
    reason = "decode-kernel inner loops: indices derive from the tensor's shape, validated at kernel entry; bounds are pinned by the proptest parity suite, and `get` per element defeats autovectorization."
)]
fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    const ALIGN: usize = 64 / std::mem::size_of::<f32>();
    let mut buf = SCRATCH.take();
    if buf.len() < len + ALIGN {
        buf = vec![0.0; len + ALIGN];
    }
    // `align_offset` may decline to answer; only speed depends on it.
    let start = buf.as_ptr().align_offset(64).min(ALIGN);
    let out = f(&mut buf[start..start + len]);
    SCRATCH.set(buf);
    out
}

/// Splits `rows` rows of `W` lanes off the front of `buf`.
fn carve<'a, const W: usize>(buf: &mut &'a mut [f32], rows: usize) -> &'a mut [[f32; W]] {
    let (head, rest) = std::mem::take(buf).split_at_mut(rows * W);
    *buf = rest;
    head.as_chunks_mut::<W>().0
}

/// Slots of a lane block's LUT over `wq`: (column group, stored entry) pairs.
fn lut_slots(wq: &QuantizedTensor) -> usize {
    let cfg = wq.config();
    if cfg.lattice {
        0
    } else {
        wq.col_groups() * cfg.stored_entries()
    }
}

/// Lanes `[0, N)` of every row of `scores` into columns `[l0, l0 + N)` of
/// `y` (`batch` columns). `N` is a constant so a row is a few moves, where
/// a runtime length would make it a `memcpy` call.
#[expect(
    clippy::indexing_slicing,
    reason = "decode-kernel inner loops: indices derive from the tensor's shape, validated at kernel entry; bounds are pinned by the proptest parity suite, and `get` per element defeats autovectorization."
)]
fn copy_lanes<const N: usize, const W: usize>(
    y: &mut [f32],
    batch: usize,
    l0: usize,
    scores: &[[f32; W]],
) {
    for (yrow, lanes) in y.chunks_exact_mut(batch).zip(scores) {
        yrow[l0..l0 + N].copy_from_slice(&lanes[..N]);
    }
}

/// The score pass of one padded lane block: the leading rows of `scores`
/// are rows `[0, n)` of [`gemv_lut_batch`] for activation lanes `lanes` of
/// `xs`, token-major in `W = padded_lanes(w)` lanes (the padding lanes
/// score a zero activation), built in `lut` (`groups × stored` slots of
/// scratch, none for lattice books). Output rows are independent of one
/// another and codebook bands keep the boundaries of the full tensor, so
/// every row computed is bitwise the row the full-range call computes —
/// and each lane's sum is its own chain, so neither `W` nor the lane's
/// position in the block can be read from it.
///
/// The rows after them are lane `b`'s folded extension rows, lane after
/// lane, scored in the same loop by the same kernel out of the same table,
/// so a private row's sum is a context row's sum over the same codes (all
/// lanes of a slot are added; only lane `b` is read). `scores` arrives
/// zeroed.
#[expect(
    clippy::indexing_slicing,
    reason = "decode-kernel inner loops: indices derive from the tensor's shape, validated at kernel entry; bounds are pinned by the proptest parity suite, and `get` per element defeats autovectorization."
)]
fn lut_scores<const W: usize>(
    wq: &QuantizedTensor,
    xs: &Tensor2D,
    lanes: std::ops::Range<usize>,
    exts: &[RaggedExt<'_>],
    lut: &mut [[f32; W]],
    scores: &mut [[f32; W]],
    blocking: &HostBlocking,
) -> Result<()> {
    let (l0, w) = (lanes.start, lanes.len());
    let private_rows: usize = exts.iter().map(|e| e.rows).sum();
    let (ctx, private) = scores.split_at_mut(scores.len() - private_rows);
    let vq = *wq.config();
    let vs = vq.vector_size;
    let groups = wq.col_groups();
    let stored = vq.stored_entries();
    let books = wq.codebooks();
    let band = books.band_rows();
    let row_end = ctx.len();
    // Lane-interleaved LUT: one partial dot per lane in every (group,
    // code) slot, one fused build per group over the interleaved codebook
    // layout (`xt`: that group's activation sub-vectors, element-major).
    let mut xt = vec![[0.0f32; W]; vs];
    let mut codes = vec![0u32; if vq.lattice { groups } else { 0 }];
    // Group blocks are sized to the outer budget: a slot this wide leaves
    // an L1 slab room for a group or two, and every block is one more
    // sweep over all the packed rows, reloading every sum.
    let gb = group_block(8 * SLAB_BYTES, stored * W, groups);

    let mut band_start = 0;
    while band_start < row_end {
        let band_len = band.min(row_end - band_start);
        let band_out = &mut ctx[band_start..band_start + band_len];
        let band_books = band_books(books, band_start, 0, groups);
        for (r, round_books) in band_books.iter().enumerate() {
            let stream = wq.index_stream(r);
            if vq.lattice {
                parallel_row_chunks(
                    band_out,
                    1,
                    blocking.threads,
                    Site::HostGemvLutBatch,
                    |first, chunk| {
                        let mut codes = vec![0u32; groups];
                        for (local, yrow) in chunk.iter_mut().enumerate() {
                            stream.unpack_block((band_start + first + local) * groups, &mut codes);
                            lattice_scores(&mut yrow[..w], &codes, round_books, xs, l0);
                        }
                    },
                )?;
            } else {
                for ((g, gslab), book) in lut.chunks_exact_mut(stored).enumerate().zip(round_books)
                {
                    for (j, xj) in xt.iter_mut().enumerate() {
                        for (b, x) in xj[..w].iter_mut().enumerate() {
                            *x = xs.row(l0 + b)[g * vs + j];
                        }
                    }
                    simd::lut_batch_build(
                        gslab.as_flattened_mut(),
                        book.entries_interleaved(),
                        xt.as_flattened(),
                        W,
                    );
                }
                let lut = &*lut;
                parallel_row_chunks(
                    band_out,
                    1,
                    blocking.threads,
                    Site::HostGemvLutBatch,
                    |first, chunk| {
                        let codes = simd::RowCodes {
                            stream: simd::CodeSource::Packed(stream),
                            first: (band_start + first) * groups,
                            groups,
                        };
                        simd::lut_batch_accumulate(chunk, lut, stored, codes, gb);
                    },
                )?;
            }
            // Extension scopes are row-invariant: the first band's books
            // are the private rows' books.
            if band_start > 0 {
                continue;
            }
            let mut rest = &mut *private;
            for (b, ext) in exts.iter().enumerate() {
                let rows;
                (rows, rest) = std::mem::take(&mut rest).split_at_mut(ext.rows);
                let Some(source) = ext.k_codes.get(r).filter(|_| ext.rows > 0) else {
                    continue;
                };
                if vq.lattice {
                    for (i, row) in rows.iter_mut().enumerate() {
                        simd::CodeSource::Stream(source).unpack(i * groups, &mut codes);
                        lattice_scores(&mut row[b..=b], &codes, round_books, xs, l0 + b);
                    }
                } else {
                    let codes = simd::RowCodes {
                        stream: simd::CodeSource::Stream(source),
                        first: 0,
                        groups,
                    };
                    simd::lut_batch_accumulate(rows, lut, stored, codes, gb);
                }
            }
        }
        band_start += band_len;
    }
    Ok(())
}

/// One row of a lattice score pass: `out[b] += signed_dot(..)` of each
/// group's entry against row `lane0 + b` of `xs`, groups left to right.
#[expect(
    clippy::indexing_slicing,
    reason = "decode-kernel inner loops: indices derive from the tensor's shape, validated at kernel entry; bounds are pinned by the proptest parity suite, and `get` per element defeats autovectorization."
)]
fn lattice_scores(
    out: &mut [f32],
    codes: &[u32],
    books: &[&vqllm_vq::Codebook],
    xs: &Tensor2D,
    lane0: usize,
) {
    let vs = xs.cols() / codes.len().max(1);
    for (g, (&code, book)) in codes.iter().zip(books).enumerate() {
        let entry = book.stored_entry(book.stored_id_of(code) as usize);
        let signs = code >> book.sign_shift();
        for (b, o) in out.iter_mut().enumerate() {
            *o += signed_dot(entry, &xs.row(lane0 + b)[g * vs..(g + 1) * vs], signs);
        }
    }
}

use simd::{GEMM_MR, GEMM_NR};

/// Whether [`simd::value_accumulate`]'s register kernel covers `cfg`: one
/// residual round of one-byte codes over plain 256-entry books with 2-, 4-
/// or 8-wide entries. [`gemm_fused`] runs the value pass on these and the
/// panel body on everything else; nothing but the tensor's configuration
/// enters the choice.
fn lanes_cover(cfg: &VqConfig) -> bool {
    !cfg.lattice
        && cfg.residuals == 1
        && cfg.num_entries == 256
        && matches!(cfg.vector_size, 2 | 4 | 8)
}

/// Fused GeMM: `C = A (m×k) × dequant(Wq) (k×n)` — the linear layer's
/// kernel.
///
/// On a configuration the register kernel covers (`lanes_cover`) this is
/// the **value pass** with the batch as lanes: up to [`simd::LANES`] rows
/// of `A` are transposed into a `k × W` weight buffer, `value_lanes`
/// streams `Wq`'s packed rows against it, and the accumulators are
/// transposed out — every output one multiply-add chain over `k`, no
/// panel, no K-split; the worker count only partitions column groups.
/// Every other configuration runs the panel body (`gemm_panels`).
///
/// # Errors
///
/// Returns [`KernelError::ShapeMismatch`] if `a.cols() != wq.rows`.
pub fn gemm_fused(a: &Tensor2D, wq: &QuantizedTensor, blocking: &HostBlocking) -> Result<Tensor2D> {
    failpoint(Site::HostGemmFused)?;
    if a.cols() != wq.shape().0 {
        return Err(KernelError::ShapeMismatch {
            what: "A.cols must equal quantized weight rows",
        });
    }
    let (m, n) = (a.rows(), wq.shape().1);
    let mut c = Tensor2D::zeros(m, n);
    if m == 0 || n == 0 {
        return Ok(c);
    }
    if !lanes_cover(wq.config()) {
        gemm_panels(a, wq, blocking.threads, &mut c)?;
        return Ok(c);
    }
    for l0 in (0..m).step_by(simd::LANES) {
        let w = (m - l0).min(simd::LANES);
        simd::with_padded_lanes!(
            simd::padded_lanes(w), gemm_lanes;
            a, wq, l0, w, blocking.threads, &mut c
        )?;
    }
    Ok(c)
}

/// Rows `[l0, l0 + w)` of [`gemm_fused`]'s output through the value pass,
/// in `W = padded_lanes(w)` lanes (the padding lanes weigh every row zero).
#[expect(
    clippy::indexing_slicing,
    reason = "decode-kernel inner loops: indices derive from the tensor's shape, validated at kernel entry; bounds are pinned by the proptest parity suite, and `get` per element defeats autovectorization."
)]
fn gemm_lanes<const W: usize>(
    a: &Tensor2D,
    wq: &QuantizedTensor,
    l0: usize,
    w: usize,
    threads: usize,
    c: &mut Tensor2D,
) -> Result<()> {
    let mut weights = vec![[0.0f32; W]; a.cols()];
    for b in 0..w {
        for (lanes, &v) in weights.iter_mut().zip(a.row(l0 + b)) {
            lanes[b] = v;
        }
    }
    let mut acc = vec![[0.0f32; W]; c.cols()];
    value_lanes(wq, &weights, &mut acc, threads, Site::HostGemmFused)?;
    for b in 0..w {
        for (o, lanes) in c.row_mut(l0 + b).iter_mut().zip(&acc) {
            *o = lanes[b];
        }
    }
    Ok(())
}

/// Bytes of decoded rows one K-chunk of the panel body holds: an L2's
/// worth, since the micro-kernel re-streams the chunk `m / MR` times.
pub const PANEL_BYTES: usize = 256 << 10;

/// [`gemm_fused`] for the configurations [`lanes_cover`] excludes —
/// **panel-blocked**. The quantized weight is decoded one K-chunk at a time
/// (`chunk × strip` floats assembled directly from packed codes, all
/// residual rounds folded — the full dequantized matrix never exists), and
/// each chunk is reused across every row of `A` through an `MR × NR`
/// register-blocked micro-kernel: a row is decoded once for all `m`, where
/// the lane form would decode it once per lane block. Workers own disjoint
/// column-group strips, so the packed stream is decoded exactly once per
/// strip. The chunk is [`PANEL_BYTES`]` ÷ row bytes` rows (at least 8),
/// restarted at every codebook band: a function of the tensor's shape, so
/// the order these sums run in is too.
#[expect(
    clippy::indexing_slicing,
    reason = "decode-kernel inner loops: indices derive from the tensor's shape, validated at kernel entry; bounds are pinned by the proptest parity suite, and `get` per element defeats autovectorization."
)]
fn gemm_panels(a: &Tensor2D, wq: &QuantizedTensor, threads: usize, c: &mut Tensor2D) -> Result<()> {
    let m = a.rows();
    let vs = wq.config().vector_size;
    let groups = wq.col_groups();
    let workers = threads.max(1).min(groups);
    if workers <= 1 {
        gemm_strip(a, wq, 0, groups, c.as_mut_slice());
        return Ok(());
    }

    // Column-parallel: each worker owns a contiguous group strip and a
    // private output buffer (C is row-major, so strips interleave in C and
    // cannot be handed out as disjoint `&mut` chunks directly).
    let gchunk = groups.div_ceil(workers);
    let strips: Vec<(usize, usize)> = (0..workers)
        .map(|w| (w * gchunk, ((w + 1) * gchunk).min(groups)))
        .filter(|(gs, ge)| gs < ge)
        .collect();
    let mut bufs: Vec<Vec<f32>> = strips
        .iter()
        .map(|(gs, ge)| vec![0.0f32; m * (ge - gs) * vs])
        .collect();
    pool::WorkerPool::shared().try_scope(Site::HostGemmFused, |scope| {
        for (&(gs, ge), buf) in strips.iter().zip(bufs.iter_mut()) {
            scope.spawn(move || gemm_strip(a, wq, gs, ge, buf));
        }
    })?;
    for (&(gs, ge), buf) in strips.iter().zip(&bufs) {
        let strip_n = (ge - gs) * vs;
        for p in 0..m {
            c.row_mut(p)[gs * vs..ge * vs].copy_from_slice(&buf[p * strip_n..(p + 1) * strip_n]);
        }
    }
    Ok(())
}

/// One worker's share of [`gemm_panels`]: groups `[gs, ge)` of the weight,
/// accumulated into `cs` (`m × (ge-gs)·vs`, row-major).
#[expect(
    clippy::indexing_slicing,
    reason = "decode-kernel inner loops: indices derive from the tensor's shape, validated at kernel entry; bounds are pinned by the proptest parity suite, and `get` per element defeats autovectorization."
)]
fn gemm_strip(a: &Tensor2D, wq: &QuantizedTensor, gs: usize, ge: usize, cs: &mut [f32]) {
    let (k, _) = wq.shape();
    let m = a.rows();
    let vq = *wq.config();
    let vs = vq.vector_size;
    let groups = wq.col_groups();
    let books = wq.codebooks();
    let sw = ge - gs;
    let strip_n = sw * vs;
    let band = books.band_rows();
    // Panel depth is derived from the FULL row width, not the strip, so
    // the K-split — and therefore the f32 summation order — is identical
    // at every thread count.
    let panel_rows = (PANEL_BYTES / (groups * vs * 4)).clamp(8.min(k), k);
    // The panel is padded to a whole number of micro-kernel tiles (the
    // padding stays zero), and short A-row sets are padded with a zero
    // column, so every tile runs the one full-size kernel — uniform
    // numerics at every strip partitioning.
    let padded_n = strip_n.next_multiple_of(GEMM_NR);
    let mut panel = vec![0.0f32; panel_rows * padded_n];
    let zero_col = vec![0.0f32; panel_rows];
    let mut codes = vec![0u32; sw];

    let mut band_start = 0;
    while band_start < k {
        let band_len = band.min(k - band_start);
        let strip_books = band_books(books, band_start, gs, ge);
        let mut p0 = 0;
        while p0 < band_len {
            let kb = panel_rows.min(band_len - p0);
            let i0 = band_start + p0;
            // Decode the K-panel (all residual rounds) from packed codes:
            // the first round writes entries straight into the panel, later
            // rounds accumulate.
            let panel_slice = &mut panel[..kb * padded_n];
            for (r, row_books) in strip_books.iter().enumerate() {
                let stream = wq.index_stream(r);
                for (ii, prow) in panel_slice.chunks_mut(padded_n).enumerate() {
                    stream.unpack_block((i0 + ii) * groups + gs, &mut codes);
                    if vq.lattice {
                        for (gi, &code) in codes.iter().enumerate() {
                            let book = row_books[gi];
                            let base = book.stored_id_of(code) as usize;
                            let signs = code >> book.sign_shift();
                            let entry = &book.entries_flat()[base * vs..(base + 1) * vs];
                            let out = &mut prow[gi * vs..(gi + 1) * vs];
                            for (j, (o, &e)) in out.iter_mut().zip(entry).enumerate() {
                                let v = if signs & (1 << j) != 0 { -e } else { e };
                                if r == 0 {
                                    *o = v;
                                } else {
                                    *o += v;
                                }
                            }
                        }
                    } else {
                        // The common sub-vector widths get a fixed-size
                        // entry copy (one or two moves) instead of a
                        // runtime-length memcpy per code.
                        match vs {
                            2 => decode_entries::<2>(prow, &codes, row_books, vs, r == 0),
                            4 => decode_entries::<4>(prow, &codes, row_books, vs, r == 0),
                            8 => decode_entries::<8>(prow, &codes, row_books, vs, r == 0),
                            _ => decode_entries::<0>(prow, &codes, row_books, vs, r == 0),
                        }
                    }
                }
            }
            // Register-blocked tile updates over the resident panel.
            for pr0 in (0..m).step_by(GEMM_MR) {
                let mr = GEMM_MR.min(m - pr0);
                let arows: [&[f32]; GEMM_MR] = std::array::from_fn(|p| {
                    if p < mr {
                        &a.row(pr0 + p)[i0..i0 + kb]
                    } else {
                        &zero_col[..kb]
                    }
                });
                for j0 in (0..strip_n).step_by(GEMM_NR) {
                    let nr = GEMM_NR.min(strip_n - j0);
                    let mut acc = [[0.0f32; GEMM_NR]; GEMM_MR];
                    simd::gemm_acc_tile(&arows, panel_slice, padded_n, j0, kb, &mut acc);
                    for (p, accp) in acc.iter().enumerate().take(mr) {
                        let crow = &mut cs[(pr0 + p) * strip_n + j0..(pr0 + p) * strip_n + j0 + nr];
                        for (o, &v) in crow.iter_mut().zip(accp) {
                            *o += v;
                        }
                    }
                }
            }
            p0 += kb;
        }
        band_start += band_len;
    }
}

/// One panel row of [`gemm_strip`]'s decode for plain (non-lattice) books:
/// stored entry `codes[gi]` of `books[gi]` is written to (`first`: the
/// first residual round) or added into sub-vector `gi` of `prow`. `VS` is
/// the sub-vector width as a constant, or 0 to take it from `vs`.
#[inline(always)]
#[expect(
    clippy::indexing_slicing,
    reason = "decode-kernel inner loops: indices derive from the tensor's shape, validated at kernel entry; bounds are pinned by the proptest parity suite, and `get` per element defeats autovectorization."
)]
fn decode_entries<const VS: usize>(
    prow: &mut [f32],
    codes: &[u32],
    books: &[&vqllm_vq::Codebook],
    vs: usize,
    first: bool,
) {
    let vs = if VS == 0 { vs } else { VS };
    let slots = prow.chunks_exact_mut(vs).zip(codes).zip(books);
    let slots = slots.map(|((out, &code), book)| {
        let c = code as usize;
        (out, &book.entries_flat()[c * vs..(c + 1) * vs])
    });
    if first {
        for (out, entry) in slots {
            out.copy_from_slice(entry);
        }
    } else {
        for (out, entry) in slots {
            for (o, &e) in out.iter_mut().zip(entry) {
                *o += e;
            }
        }
    }
}

/// One residual round of a live-KV extension's codes: `rows × col_groups`
/// codes (row-major, group-minor), each stored little-endian at the
/// narrowest whole-byte width that holds the context's
/// [`index_bits`](vqllm_vq::VqConfig::index_bits) — one byte for CQ's
/// 8-bit (and any narrower) index, two up to 16 bits, four beyond. Codes
/// are appended a row at a time and read back a byte at a time, so a
/// whole-byte width costs neither a repack on append nor a shift on read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodeStream {
    width: usize,
    bytes: Vec<u8>,
}

impl CodeStream {
    /// An empty stream for codes of `index_bits` bits.
    pub fn new(index_bits: u32) -> Self {
        CodeStream {
            width: Self::width_for(index_bits),
            bytes: Vec::new(),
        }
    }

    /// Bytes per stored code for an `index_bits`-bit index.
    fn width_for(index_bits: u32) -> usize {
        match index_bits {
            0..=8 => 1,
            9..=16 => 2,
            _ => 4,
        }
    }

    /// Appends one code (its low `8 · width` bits).
    #[inline]
    pub fn push(&mut self, code: u32) {
        match self.width {
            1 => self.bytes.push(code as u8),
            2 => self.bytes.extend_from_slice(&(code as u16).to_le_bytes()),
            _ => self.bytes.extend_from_slice(&code.to_le_bytes()),
        }
    }

    /// Stored codes.
    pub fn len(&self) -> usize {
        self.bytes.len() / self.width
    }

    /// Whether no code has been pushed.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Code `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        Self::code_at(&self.bytes, self.width, i)
    }

    /// Code `i` of `bytes`, `width` little-endian bytes a code.
    #[inline(always)]
    #[expect(
        clippy::indexing_slicing,
        reason = "decode-kernel inner loops: indices derive from the tensor's shape, validated at kernel entry; bounds are pinned by the proptest parity suite, and `get` per element defeats autovectorization."
    )]
    fn code_at(bytes: &[u8], width: usize, i: usize) -> u32 {
        let mut le = [0u8; 4];
        le[..width].copy_from_slice(&bytes[i * width..(i + 1) * width]);
        u32::from_le_bytes(le)
    }
}

/// Sparse exact residuals over an extension's folded rows (the outlier
/// channel of VecInfer-style KV VQ): a group the packed codes alone
/// reconstructed too poorly keeps its f32 residual, added on top of its
/// decoded codes. Flat storage — one `(row, group)` array, one value
/// array at `vector_size` floats a residual — so keeping an outlier
/// allocates nothing. This is the owned side; kernels take its
/// [`view`](OutlierBuf::view).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OutlierBuf {
    coords: Vec<(u32, u32)>,
    values: Vec<f32>,
}

impl OutlierBuf {
    /// Keeps `residual` (`vector_size` floats) for `group` of extension
    /// row `row`.
    pub fn push(&mut self, row: usize, group: usize, residual: &[f32]) {
        self.coords.push((row as u32, group as u32));
        self.values.extend_from_slice(residual);
    }

    /// Outliers kept.
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// Whether no outlier is kept.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Borrows the buffer for a [`RaggedExt`].
    pub fn view(&self) -> Outliers<'_> {
        Outliers {
            coords: &self.coords,
            values: &self.values,
        }
    }
}

/// A borrowed [`OutlierBuf`]; the default is empty.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Outliers<'a> {
    coords: &'a [(u32, u32)],
    values: &'a [f32],
}

impl<'a> Outliers<'a> {
    /// `(row, group, residual)` of every outlier, in push order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, &'a [f32])> {
        let vs = self.values.len() / self.coords.len().max(1);
        self.coords
            .iter()
            .zip(self.values.chunks_exact(vs.max(1)))
            .map(|(&(row, group), v)| (row as usize, group as usize, v))
    }
}

/// Runs `$f::<VS>` with a common sub-vector width `$vs` as the constant
/// `VS` (a residual is then a fixed-size array), else `VS = 0`.
macro_rules! with_vs {
    ($vs:expr, $f:ident; $($a:expr),*) => {
        match $vs {
            2 => $f::<2>($($a),*),
            4 => $f::<4>($($a),*),
            8 => $f::<8>($($a),*),
            _ => $f::<0>($($a),*),
        }
    };
}

/// Adds a lane's K outlier residuals to its folded scores, in push order:
/// `folded[row] += Σ_j residual[j] · q[group·vs + j]`, a run of one row's
/// summed in a register (the same chain, no store and reload per link).
#[expect(
    clippy::indexing_slicing,
    reason = "decode-kernel inner loops: indices derive from the tensor's shape, validated at kernel entry; bounds are pinned by the proptest parity suite, and `get` per element defeats autovectorization."
)]
fn outlier_scores<const VS: usize>(
    folded: &mut [f32],
    outliers: Outliers<'_>,
    q: &[f32],
    vs: usize,
) {
    let vs = if VS == 0 { vs } else { VS };
    let (mut at, mut sum) = (None, 0.0f32);
    for (&(row, group), values) in outliers.coords.iter().zip(outliers.values.chunks_exact(vs)) {
        let (row, group) = (row as usize, group as usize);
        if at != Some(row) {
            if let Some(done) = at {
                folded[done] = sum;
            }
            (at, sum) = (Some(row), folded[row]);
        }
        let qg = &q[group * vs..][..vs];
        sum += values.iter().zip(qg).map(|(&e, &x)| e * x).sum::<f32>();
    }
    if let Some(done) = at {
        folded[done] = sum;
    }
}

/// Adds a lane's V outlier residuals to its output row, in push order:
/// `orow[group·vs + j] += folded[row] · residual[j]`.
#[expect(
    clippy::indexing_slicing,
    reason = "decode-kernel inner loops: indices derive from the tensor's shape, validated at kernel entry; bounds are pinned by the proptest parity suite, and `get` per element defeats autovectorization."
)]
fn outlier_values<const VS: usize>(
    orow: &mut [f32],
    outliers: Outliers<'_>,
    folded: &[f32],
    vs: usize,
) {
    let vs = if VS == 0 { vs } else { VS };
    for (&(row, group), values) in outliers.coords.iter().zip(outliers.values.chunks_exact(vs)) {
        let w = folded[row as usize];
        let out = &mut orow[group as usize * vs..][..vs];
        for (o, &v) in out.iter_mut().zip(&values[..vs]) {
            *o += w * v;
        }
    }
}

/// One query's private KV extension for
/// [`attention_decode`]: `rows` appended tokens folded into
/// packed codes (encoded against the **shared context's** codebooks, so
/// the kernel reuses the already-resident tables), sparse per-group
/// outlier residuals on top, and an unquantized f32 tail window of the
/// newest tokens. Every field borrows a flat buffer of the owning cache.
#[derive(Debug, Clone, Copy, Default)]
pub struct RaggedExt<'a> {
    /// Folded (packed) extension rows.
    pub rows: usize,
    /// K codes, one stream per residual round, `rows × col_groups` long
    /// each.
    pub k_codes: &'a [CodeStream],
    /// V codes, same layout as `k_codes`.
    pub v_codes: &'a [CodeStream],
    /// Sparse K outlier residuals over the folded rows.
    pub k_outliers: Outliers<'a>,
    /// Sparse V outlier residuals over the folded rows.
    pub v_outliers: Outliers<'a>,
    /// Unquantized K tail rows, oldest first, row-major `tail × head_dim`.
    pub k_tail: &'a [f32],
    /// Unquantized V tail rows, same shape as `k_tail`.
    pub v_tail: &'a [f32],
}

impl RaggedExt<'_> {
    fn validate(&self, kq: &QuantizedTensor) -> Result<()> {
        let cfg = kq.config();
        let groups = kq.col_groups();
        let head_dim = kq.shape().1;
        let width = CodeStream::width_for(cfg.index_bits());
        for codes in [self.k_codes, self.v_codes] {
            // With no folded rows, an absent stream set (the `Default`)
            // is as valid as `residuals` empty streams.
            if codes.len() != cfg.residuals && !(self.rows == 0 && codes.is_empty()) {
                return Err(KernelError::ShapeMismatch {
                    what: "extension code streams must match the context's residual rounds",
                });
            }
            if codes
                .iter()
                .any(|s| s.width != width || s.len() != self.rows * groups)
            {
                return Err(KernelError::ShapeMismatch {
                    what: "extension code streams must hold rows × col_groups codes \
                           at the context's index width",
                });
            }
        }
        for outs in [self.k_outliers, self.v_outliers] {
            if outs.values.len() != outs.coords.len() * cfg.vector_size
                || outs
                    .coords
                    .iter()
                    .any(|&(row, group)| row as usize >= self.rows || group as usize >= groups)
            {
                return Err(KernelError::InvalidInput {
                    what: "outlier residual outside the folded extension",
                });
            }
        }
        if self.k_tail.len() != self.v_tail.len() || !self.k_tail.len().is_multiple_of(head_dim) {
            return Err(KernelError::ShapeMismatch {
                what: "tail rows must be head_dim wide with matching K/V lengths",
            });
        }
        Ok(())
    }
}

/// One attention decode call over a shared quantized context: query `b`
/// (row `b` of `qs`, `batch × head_dim`) attends the first `lens[b]` cached
/// tokens of the shared K/V, then its private live-KV extension `exts[b]`.
/// `exts` empty means no query has one. A single head is one row with
/// `lens = [seq]`; the plain batch is every length `seq`; continuous
/// batching — co-scheduled tenants at different positions in one cache —
/// is ragged `lens`; live KV adds the extensions.
#[derive(Debug, Clone, Copy)]
pub struct AttentionBatch<'a> {
    /// One query row per sequence.
    pub qs: &'a Tensor2D,
    /// Attended context prefix per query, each in `1..=seq`.
    pub lens: &'a [usize],
    /// One private extension per query, or empty for none.
    pub exts: &'a [RaggedExt<'a>],
}

impl AttentionBatch<'_> {
    /// The one validation every attention body — fused or reference —
    /// runs first.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::InvalidInput`] on an empty batch, a length
    /// outside `1..=seq`, extensions under a row-dependent (per-tile)
    /// scope or an outlier outside its extension, and
    /// [`KernelError::ShapeMismatch`] when `lens`, `exts`, the queries and
    /// the caches disagree in shape or an extension does not match the
    /// context's VQ configuration.
    pub fn validate(&self, kq: &QuantizedTensor, vq: &QuantizedTensor) -> Result<()> {
        let batch = self.qs.rows();
        if batch == 0 {
            return Err(KernelError::InvalidInput {
                what: "empty query batch",
            });
        }
        if self.lens.len() != batch || !(self.exts.is_empty() || self.exts.len() == batch) {
            return Err(KernelError::ShapeMismatch {
                what: "one prefix length and at most one extension per query row",
            });
        }
        if kq.shape() != vq.shape() || self.qs.cols() != kq.shape().1 {
            return Err(KernelError::ShapeMismatch {
                what: "qs/K/V shapes disagree",
            });
        }
        let seq = kq.shape().0;
        if self.lens.iter().any(|&l| l == 0 || l > seq) {
            return Err(KernelError::InvalidInput {
                what: "softmax lengths must be in 1..=seq",
            });
        }
        if !self.exts.is_empty() && matches!(kq.config().scope, CodebookScope::PerTile { .. }) {
            return Err(KernelError::InvalidInput {
                what: "per-tile codebook scopes are row-dependent; live-KV extensions \
                       require a row-invariant scope (PerTensor or PerChannelGroup)",
            });
        }
        self.exts.iter().try_for_each(|ext| ext.validate(kq))
    }
}

/// Fused attention decode over quantized K/V caches (`seq × head_dim`
/// each): `softmax(q · dequant(Kq)ᵀ / √d) · dequant(Vq)` per query of
/// `batch`, over its own prefix and private extension; returns
/// `batch × head_dim` outputs. Neither K nor V is ever materialized.
///
/// The K-decode is shared across a lane block, and both context passes
/// stop at the longest attended prefix: the score pass and the value pass
/// stream rows `[0, max(lens))` of the packed K/V codes and nothing past
/// them. Each query's softmax runs over its own prefix and its weights
/// beyond it (up to the block's bound) are exactly zero, so the value pass
/// contributes nothing there. A folded extension row is decoded against
/// the context's codebooks (+ sparse outlier residuals), the f32 tail
/// window is attended dense; one softmax spans the whole attended sequence
/// and every output element is one sum over it (see the module doc for the
/// three stages and the one order they sum in). So every lane's result is
/// bitwise independent of the other lanes in the batch — and therefore of
/// the bound they set and of whether anyone carries an extension: the
/// serving scheduler's parity contract.
///
/// # Errors
///
/// Whatever [`AttentionBatch::validate`] rejects.
pub fn attention_decode(
    batch: &AttentionBatch<'_>,
    kq: &QuantizedTensor,
    vq: &QuantizedTensor,
    blocking: &HostBlocking,
) -> Result<Tensor2D> {
    failpoint(Site::HostAttentionRagged)?;
    batch.validate(kq, vq)?;
    let &AttentionBatch { qs, lens, exts } = batch;
    // Extensions are encoded against the context's books, and extension
    // scopes are row-invariant: V's first band holds their books.
    let v_books = if exts.is_empty() {
        Vec::new()
    } else {
        band_books(vq.codebooks(), 0, 0, vq.col_groups())
    };
    let call = AttentionCall {
        qs,
        lens,
        exts,
        kq,
        vq,
        blocking,
        v_books,
    };
    let mut out = Tensor2D::zeros(qs.rows(), qs.cols());
    for l0 in (0..qs.rows()).step_by(simd::LANES) {
        let w = (qs.rows() - l0).min(simd::LANES);
        simd::with_padded_lanes!(simd::padded_lanes(w), attention_lanes; &call, l0, w, &mut out)?;
    }
    Ok(out)
}

/// What every lane block of one [`attention_decode`] call shares.
struct AttentionCall<'a> {
    qs: &'a Tensor2D,
    lens: &'a [usize],
    exts: &'a [RaggedExt<'a>],
    kq: &'a QuantizedTensor,
    vq: &'a QuantizedTensor,
    blocking: &'a HostBlocking,
    /// The `(residual round, group)` → codebook table extension rows of V
    /// decode against (empty without extensions).
    v_books: Vec<Vec<&'a vqllm_vq::Codebook>>,
}

/// Queries `[l0, l0 + w)` of an attention call, side by side in the
/// `W = padded_lanes(w)` lanes of one token-major buffer that all three
/// stages work in: [`lut_scores`] fills it, [`simd::softmax_lanes`] turns
/// scores into softmax numerators where they lie, [`value_lanes`] streams
/// it against V's packed codes into element-major accumulators. A lane's
/// private rows are scored beside it by the same pass, share the lane's
/// maximum and sum, and continue its accumulators — through the same value
/// kernel, one lane wide — once those are transposed into the output row;
/// the sum divides last. Every buffer is the thread's scratch.
#[expect(
    clippy::indexing_slicing,
    reason = "decode-kernel inner loops: indices derive from the tensor's shape, validated at kernel entry; bounds are pinned by the proptest parity suite, and `get` per element defeats autovectorization."
)]
fn attention_lanes<const W: usize>(
    call: &AttentionCall<'_>,
    l0: usize,
    w: usize,
    out: &mut Tensor2D,
) -> Result<()> {
    let &AttentionCall {
        qs,
        lens,
        kq,
        vq,
        blocking,
        ..
    } = call;
    let exts = call.exts.get(l0..l0 + w).unwrap_or_default();
    let vs = kq.config().vector_size;
    let groups = kq.col_groups();
    let head_dim = qs.cols();

    let mut lane_lens = [0usize; W];
    lane_lens[..w].copy_from_slice(&lens[l0..l0 + w]);
    let bound = lane_lens.iter().copied().max().unwrap_or(0);
    let private_rows: usize = exts.iter().map(|e| e.rows).sum();
    let ext_len = |e: &RaggedExt<'_>| e.rows + e.k_tail.len() / head_dim;
    let ext_scores: usize = exts.iter().map(ext_len).sum();
    let slots = lut_slots(kq);
    let floats = (slots + bound + private_rows + head_dim) * W + ext_scores;
    with_scratch(floats, |mut buf| {
        let lut = carve::<W>(&mut buf, slots);
        let scores = carve::<W>(&mut buf, bound + private_rows);
        let acc = carve::<W>(&mut buf, head_dim);
        scores.fill([0.0; W]);
        acc.fill([0.0; W]);
        lut_scores(kq, qs, l0..l0 + w, exts, lut, scores, blocking)?;
        let (weights, private) = scores.split_at_mut(bound);

        // Private score rows, lane after lane: [folded ext | f32 tail].
        let ext_weights = buf;
        let mut ext_lens = [0usize; W];
        let (mut rest, mut rows) = (&mut *ext_weights, &*private);
        for (b, ext) in exts.iter().enumerate() {
            let q = qs.row(l0 + b);
            ext_lens[b] = ext_len(ext);
            let (lane, lane_rows);
            (lane, rest) = std::mem::take(&mut rest).split_at_mut(ext_lens[b]);
            (lane_rows, rows) = rows.split_at(ext.rows);
            let (folded, tail) = lane.split_at_mut(ext.rows);
            for (s, row) in folded.iter_mut().zip(lane_rows) {
                *s = row[b];
            }
            with_vs!(vs, outlier_scores; folded, ext.k_outliers, q, vs);
            for (s, t) in tail.iter_mut().zip(ext.k_tail.chunks_exact(head_dim)) {
                *s = t.iter().zip(q).map(|(&e, &x)| e * x).sum::<f32>();
            }
        }

        let scale = 1.0 / (head_dim as f32).sqrt();
        let mut rest = &mut *ext_weights;
        let lane_exts: [&mut [f32]; W] = ext_lens.map(|len| {
            let lane;
            (lane, rest) = std::mem::take(&mut rest).split_at_mut(len);
            lane
        });
        let sums = simd::softmax_lanes(weights, &lane_lens, scale, lane_exts);
        value_lanes(
            vq,
            weights,
            acc,
            blocking.threads,
            Site::HostAttentionRagged,
        )?;

        let mut ext_weights = &*ext_weights;
        for (b, &sum) in sums.iter().enumerate().take(w) {
            let orow = out.row_mut(l0 + b);
            for (o, lanes) in orow.iter_mut().zip(&*acc) {
                *o = lanes[b];
            }
            if let Some(ext) = exts.get(b) {
                let lane;
                (lane, ext_weights) = ext_weights.split_at(ext_lens[b]);
                let (folded, tail) = lane.split_at(ext.rows);
                let rounds: Vec<simd::ValueRound<'_>> = ext
                    .v_codes
                    .iter()
                    .zip(&call.v_books)
                    .map(|(codes, books)| simd::ValueRound {
                        stream: simd::CodeSource::Stream(codes),
                        first: 0,
                        books,
                        run: None,
                    })
                    .collect();
                let (lane_acc, lane_w) = (orow.as_chunks_mut::<1>().0, folded.as_chunks::<1>().0);
                simd::value_accumulate(lane_acc, lane_w, &rounds, groups, 0);
                with_vs!(vs, outlier_values; orow, ext.v_outliers, folded, vs);
                for (&w, vrow) in tail.iter().zip(ext.v_tail.chunks_exact(head_dim)) {
                    for (o, &v) in orow.iter_mut().zip(vrow) {
                        *o += w * v;
                    }
                }
            }
            for o in orow.iter_mut() {
                *o /= sum;
            }
        }
        Ok(())
    })
}

/// The value pass of one lane block: `acc[d][b] = Σ_t weights[t][b] ·
/// dequant(Vq)[t][d]` over the rows `weights` covers, each accumulator one
/// chain from +0.0 in row order, residual rounds in order inside a row
/// ([`simd::value_accumulate`]). Workers own disjoint spans of column
/// groups (`site` tags a contained worker panic), and codebook bands and
/// the tile edges a per-tile span is cut at (so each piece's books are one
/// arena run, [`CodebookSet::book_run`](vqllm_vq::CodebookSet::book_run))
/// only swap the books under a chain, so neither the thread count nor
/// anything else a caller passes can move a sum.
#[expect(
    clippy::indexing_slicing,
    reason = "decode-kernel inner loops: indices derive from the tensor's shape, validated at kernel entry; bounds are pinned by the proptest parity suite, and `get` per element defeats autovectorization."
)]
fn value_lanes<const W: usize>(
    vq: &QuantizedTensor,
    weights: &[[f32; W]],
    acc: &mut [[f32; W]],
    threads: usize,
    site: Site,
) -> Result<()> {
    let vs = vq.config().vector_size;
    let groups = vq.col_groups();
    let books = vq.codebooks();
    let band = books.band_rows();
    // Groups per tile column: a per-tile span is cut at the tile edges, so
    // each piece's books are one run of the arena.
    let piece = match vq.config().scope {
        CodebookScope::PerTile { cols, .. } => cols / vs,
        _ => groups,
    };
    parallel_row_chunks(acc, vs, threads, site, |gs, span| {
        let ge = gs + span.len() / vs;
        for band_start in (0..weights.len()).step_by(band) {
            let band_end = weights.len().min(band_start + band);
            let span_books = band_books(books, band_start, gs, ge);
            let mut ps = gs;
            while ps < ge {
                let pe = ge.min((ps / piece + 1) * piece);
                let rounds: Vec<simd::ValueRound<'_>> = span_books
                    .iter()
                    .enumerate()
                    .map(|(r, round_books)| simd::ValueRound {
                        stream: simd::CodeSource::Packed(vq.index_stream(r)),
                        first: band_start * groups,
                        books: &round_books[ps - gs..pe - gs],
                        run: books.book_run(r, band_start, ps..pe),
                    })
                    .collect();
                let out = &mut span[(ps - gs) * vs..(pe - gs) * vs];
                simd::value_accumulate(out, &weights[band_start..band_end], &rounds, groups, ps);
                ps = pe;
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqllm_tensor::{linalg, metrics, synth};
    use vqllm_vq::{VqAlgorithm, VqQuantizer};

    fn quantized(cfg: VqConfig, rows: usize, cols: usize, seed: u64) -> QuantizedTensor {
        let w = synth::correlated_channels(rows, cols, cfg.vector_size, 0.9, seed);
        VqQuantizer::new(cfg).quantize(&w, seed).unwrap()
    }

    fn xs(n: usize, phase: f32) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * phase).sin()).collect()
    }

    /// [`attention_decode`] on the descriptor's parts.
    fn attend(
        qs: &Tensor2D,
        lens: &[usize],
        exts: &[RaggedExt<'_>],
        kq: &QuantizedTensor,
        vq: &QuantizedTensor,
        blocking: &HostBlocking,
    ) -> Result<Tensor2D> {
        attention_decode(&AttentionBatch { qs, lens, exts }, kq, vq, blocking)
    }

    /// One query over the whole cache: the solo shape.
    fn attend_one(
        q: &[f32],
        kq: &QuantizedTensor,
        vq: &QuantizedTensor,
        blocking: &HostBlocking,
    ) -> Result<Vec<f32>> {
        let qs = Tensor2D::from_fn(1, q.len(), |_, d| q[d]);
        attend(&qs, &[kq.shape().0], &[], kq, vq, blocking).map(Tensor2D::into_vec)
    }

    /// Every preset the repo ships, at a size each scope supports.
    fn preset_cases() -> Vec<(VqConfig, usize, usize)> {
        vec![
            (
                VqConfig::new(4, 64, 1, CodebookScope::PerTensor).unwrap(),
                48,
                64,
            ),
            (
                VqConfig::new(4, 64, 2, CodebookScope::PerTensor).unwrap(),
                48,
                64,
            ),
            (VqAlgorithm::Cq4.config(), 256, 32),
            (VqAlgorithm::Cq2.config(), 256, 32),
            (
                VqConfig::new(4, 32, 1, CodebookScope::PerTile { rows: 16, cols: 16 }).unwrap(),
                32,
                32,
            ),
            (
                VqConfig::new_lattice(4, 256, 16, 1, CodebookScope::PerTensor).unwrap(),
                32,
                32,
            ),
        ]
    }

    #[test]
    fn gemv_lut_matches_dequantized_gemv() {
        for (cfg, rows, cols) in preset_cases() {
            let wq = quantized(cfg, rows, cols, 7);
            let x = xs(cols, 0.37);
            let fused = gemv_lut(&wq, &x, &HostBlocking::default()).unwrap();
            let reference = linalg::gemv(&wq.dequantize().unwrap(), &x).unwrap();
            assert!(
                metrics::allclose(&fused, &reference, 1e-4, 1e-4),
                "{cfg} {rows}x{cols}"
            );
        }
    }

    #[test]
    fn gemv_lut_batch_matches_per_row_gemv() {
        for (cfg, rows, cols) in preset_cases() {
            let wq = quantized(cfg, rows, cols, 13);
            for batch in [1usize, 3, 8] {
                let acts =
                    Tensor2D::from_fn(batch, cols, |b, c| ((b * 31 + c) as f32 * 0.17).sin());
                let out = gemv_lut_batch(&wq, &acts, &HostBlocking::default()).unwrap();
                assert_eq!(out.shape(), (rows, batch));
                for b in 0..batch {
                    // One chain: a lane of the batch is the solo call, bit
                    // for bit.
                    let single = gemv_lut(&wq, acts.row(b), &HostBlocking::default()).unwrap();
                    let col: Vec<f32> = (0..rows).map(|r| out.get(r, b)).collect();
                    assert_eq!(col, single, "{cfg} {rows}x{cols} batch {batch} lane {b}");
                }
            }
        }
    }

    #[test]
    fn gemv_lut_batch_lane_is_its_solo_chain() {
        // Real widths 1..=9 (9 = a block of eight and a block of one): a
        // lane's column is, bit for bit, that activation scored alone —
        // whatever padded block it rode, wherever it sat in it, however
        // many workers split its rows. CQ-4 takes the byte-indexed slabs,
        // the 16-entry config the widened codes, the lattice one the
        // signed dots; 80 groups of a 256-entry book make the LUT's group
        // loop take 32 + 32 + 16 at eight lanes and 64 + 16 at four, where
        // a lane alone takes one block.
        assert_eq!(group_block(8 * SLAB_BYTES, 256 * 8, 80), 32);
        for (cfg, rows, cols) in [
            (VqAlgorithm::Cq4.config(), 256usize, 32usize),
            (
                VqConfig::new(4, 16, 2, CodebookScope::PerTensor).unwrap(),
                48,
                64,
            ),
            (
                VqConfig::new_lattice(4, 256, 16, 1, CodebookScope::PerTensor).unwrap(),
                32,
                32,
            ),
            (wide_groups(), 64, 160),
        ] {
            let wq = quantized(cfg, rows, cols, 29);
            for batch in 1..=9usize {
                let acts =
                    Tensor2D::from_fn(batch, cols, |b, c| ((b * 31 + c) as f32 * 0.17).sin());
                let solos: Vec<Tensor2D> = (0..batch)
                    .map(|b| {
                        let solo_x = Tensor2D::from_vec(1, cols, acts.row(b).to_vec()).unwrap();
                        gemv_lut_batch(&wq, &solo_x, &HostBlocking::default()).unwrap()
                    })
                    .collect();
                for threads in 1..=4 {
                    let blocking = HostBlocking { threads };
                    let out = gemv_lut_batch(&wq, &acts, &blocking).unwrap();
                    for (b, solo) in solos.iter().enumerate() {
                        let col: Vec<f32> = (0..rows).map(|r| out.get(r, b)).collect();
                        assert_eq!(
                            col,
                            solo.as_slice(),
                            "{cfg} batch {batch} lane {b} threads {threads}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gemv_lut_batch_empty_batch_is_empty() {
        let cfg = VqConfig::new(4, 32, 1, CodebookScope::PerTensor).unwrap();
        let wq = quantized(cfg, 32, 32, 5);
        let out = gemv_lut_batch(&wq, &Tensor2D::zeros(0, 32), &HostBlocking::default()).unwrap();
        assert_eq!(out.shape(), (32, 0));
    }

    /// 2-wide sub-vectors over a 256-entry book: at 160 columns, 80 column
    /// groups, which the score LUT takes in blocks of 32 + 32 + 16 at
    /// eight lanes.
    fn wide_groups() -> VqConfig {
        VqConfig::new(2, 256, 1, CodebookScope::PerTensor).unwrap()
    }

    #[test]
    fn gemm_fused_matches_dequantized_matmul() {
        for (cfg, rows, cols) in preset_cases() {
            let wq = quantized(cfg, rows, cols, 3);
            // Lane-block and micro-kernel edges: padded blocks, a full one,
            // a block of eight and a block of one.
            for m in [1usize, 4, 5, 8, 9] {
                let a = synth::gaussian(m, rows, 1.0, 9 + m as u64);
                let fused = gemm_fused(&a, &wq, &HostBlocking::default()).unwrap();
                let reference = linalg::matmul(&a, &wq.dequantize().unwrap()).unwrap();
                assert!(
                    metrics::allclose(fused.as_slice(), reference.as_slice(), 1e-4, 1e-4),
                    "{cfg} {rows}x{cols} m={m}"
                );
            }
        }
    }

    #[test]
    fn gemm_fused_tiny_panels_still_correct() {
        // Two residual rounds: the panel body. Its K-chunk is the
        // tensor's, so no worker count can move a bit.
        let cfg = VqConfig::new(4, 64, 2, CodebookScope::PerTensor).unwrap();
        assert!(!lanes_cover(&cfg));
        let wq = quantized(cfg, 48, 64, 2);
        let a = synth::gaussian(6, 48, 1.0, 21);
        let fused = gemm_fused(&a, &wq, &HostBlocking::default()).unwrap();
        let reference = linalg::matmul(&a, &wq.dequantize().unwrap()).unwrap();
        assert!(metrics::allclose(
            fused.as_slice(),
            reference.as_slice(),
            1e-4,
            1e-4
        ));
        for threads in 2..=4 {
            assert_eq!(
                fused,
                gemm_fused(&a, &wq, &HostBlocking { threads }).unwrap()
            );
        }
    }

    #[test]
    fn attention_matches_reference() {
        let cfg = VqAlgorithm::Cq2.config();
        let k = synth::kv_stream(320, 64, 0.8, 4);
        let v = synth::kv_stream(320, 64, 0.8, 5);
        let kq = VqQuantizer::new(cfg).quantize(&k, 1).unwrap();
        let vq = VqQuantizer::new(cfg).quantize(&v, 2).unwrap();
        let q = xs(64, 0.31);
        let fused = attend_one(&q, &kq, &vq, &HostBlocking::default()).unwrap();
        let reference = linalg::attention_decode_ref(
            &q,
            &kq.dequantize().unwrap(),
            &vq.dequantize().unwrap(),
            1.0 / 8.0,
        )
        .unwrap();
        assert!(metrics::allclose(&fused, &reference, 1e-4, 1e-4));
    }

    #[test]
    fn attention_batch_matches_per_query_fused() {
        let cfg = VqAlgorithm::Cq4.config();
        let k = synth::kv_stream(320, 32, 0.8, 14);
        let v = synth::kv_stream(320, 32, 0.8, 15);
        let kq = VqQuantizer::new(cfg).quantize(&k, 1).unwrap();
        let vq = VqQuantizer::new(cfg).quantize(&v, 2).unwrap();
        let qs = Tensor2D::from_fn(5, 32, |b, d| ((b * 17 + d) as f32 * 0.29).cos());
        for threads in [1usize, 3] {
            let blocking = HostBlocking::default().with_threads(threads);
            let batch = attend(&qs, &[320; 5], &[], &kq, &vq, &blocking).unwrap();
            assert_eq!(batch.shape(), (5, 32));
            for b in 0..qs.rows() {
                // Solo is one lane of the same body: the same bits.
                let single = attend_one(qs.row(b), &kq, &vq, &blocking).unwrap();
                assert_eq!(batch.row(b), single, "query {b} threads {threads}");
            }
        }
    }

    #[test]
    fn attention_ragged_matches_truncated_reference() {
        let cfg = VqAlgorithm::Cq4.config();
        let k = synth::kv_stream(320, 32, 0.8, 24);
        let v = synth::kv_stream(320, 32, 0.8, 25);
        let kq = VqQuantizer::new(cfg).quantize(&k, 1).unwrap();
        let vq = VqQuantizer::new(cfg).quantize(&v, 2).unwrap();
        let qs = Tensor2D::from_fn(4, 32, |b, d| ((b * 19 + d) as f32 * 0.27).sin());
        let lens = [17usize, 320, 40, 1];
        let blocking = HostBlocking::default();
        let out = attend(&qs, &lens, &[], &kq, &vq, &blocking).unwrap();
        let kd = kq.dequantize().unwrap();
        let vd = vq.dequantize().unwrap();
        for (b, &len) in lens.iter().enumerate() {
            let oracle = linalg::attention_decode_ref(
                qs.row(b),
                &kd.slice(0, 0, len, 32),
                &vd.slice(0, 0, len, 32),
                1.0 / (32.0f32).sqrt(),
            )
            .unwrap();
            assert!(
                metrics::allclose(out.row(b), &oracle, 1e-4, 1e-4),
                "query {b} len {len}"
            );
        }
        // Each lane is bitwise independent of its batch-mates: the request
        // alone (batch 1, same length) reproduces its row exactly.
        for (b, &len) in lens.iter().enumerate() {
            let solo_q = Tensor2D::from_vec(1, 32, qs.row(b).to_vec()).unwrap();
            let solo = attend(&solo_q, &[len], &[], &kq, &vq, &blocking).unwrap();
            assert_eq!(out.row(b), solo.row(0), "lane {b} not batch-invariant");
        }
        // Degenerate lengths are rejected.
        assert!(attend(&qs, &[0, 1, 1, 1], &[], &kq, &vq, &blocking).is_err());
        assert!(attend(&qs, &[321, 1, 1, 1], &[], &kq, &vq, &blocking).is_err());
        assert!(attend(&qs, &[1, 1], &[], &kq, &vq, &blocking).is_err());
    }

    /// Encodes f32 rows against a codebook set the way the live-KV fold
    /// does: all residual rounds per group, plus an exact outlier
    /// residual when the remaining error exceeds `keep` of the group's
    /// norm. Returns the packed code streams, the outliers, and the
    /// reconstruction (codes + outliers) for the oracle.
    fn fold_rows(
        rows: &[Vec<f32>],
        books: &vqllm_vq::CodebookSet,
        keep: f32,
    ) -> (Vec<CodeStream>, OutlierBuf, Tensor2D) {
        let cfg = books.config();
        let vs = cfg.vector_size;
        let d = rows.first().map_or(0, Vec::len);
        let groups = d / vs;
        let mut codes = vec![CodeStream::new(cfg.index_bits()); cfg.residuals];
        let mut outliers = OutlierBuf::default();
        let mut recon = Tensor2D::zeros(rows.len(), d);
        for (i, row) in rows.iter().enumerate() {
            for g in 0..groups {
                let orig = &row[g * vs..(g + 1) * vs];
                let mut resid = orig.to_vec();
                let mut dec = vec![0.0f32; vs];
                let mut entry = vec![0.0f32; vs];
                for (r, stream) in codes.iter_mut().enumerate().take(cfg.residuals) {
                    let book = books.book(r, books.scope_index(0, g * vs));
                    let code = book.encode(&resid);
                    stream.push(code);
                    book.lookup(code, &mut entry);
                    for ((res, dv), &e) in resid.iter_mut().zip(dec.iter_mut()).zip(&entry) {
                        *res -= e;
                        *dv += e;
                    }
                }
                let rn: f32 = resid.iter().map(|x| x * x).sum();
                let on: f32 = orig.iter().map(|x| x * x).sum();
                if rn > keep * keep * on {
                    for (dv, &rv) in dec.iter_mut().zip(&resid) {
                        *dv += rv;
                    }
                    outliers.push(i, g, &resid);
                }
                recon.row_mut(i)[g * vs..(g + 1) * vs].copy_from_slice(&dec);
            }
        }
        (codes, outliers, recon)
    }

    #[test]
    fn attention_ragged_tailed_matches_spliced_reference() {
        let cfg = VqAlgorithm::Cq4.config();
        let d = 32usize;
        let k = synth::kv_stream(320, d, 0.8, 24);
        let v = synth::kv_stream(320, d, 0.8, 25);
        let kq = VqQuantizer::new(cfg).quantize(&k, 1).unwrap();
        let vq = VqQuantizer::new(cfg).quantize(&v, 2).unwrap();
        let qs = Tensor2D::from_fn(3, d, |b, j| ((b * 19 + j) as f32 * 0.27).sin());
        let lens = [17usize, 320, 40];
        let blocking = HostBlocking::default();

        // Empty extensions: bitwise the plain ragged kernel.
        let empty = vec![RaggedExt::default(); 3];
        let tailed = attend(&qs, &lens, &empty, &kq, &vq, &blocking).unwrap();
        let plain = attend(&qs, &lens, &[], &kq, &vq, &blocking).unwrap();
        assert_eq!(tailed, plain, "empty extensions must be invisible");

        // Per-query extensions: query 0 gets 3 folded rows (keep=0 → every
        // group carries an exact outlier residual, so reconstruction is
        // exact) + 2 tail rows; query 1 gets folded rows without outliers;
        // query 2 gets tail rows only.
        let ext_rows: Vec<Vec<f32>> = (0..5)
            .map(|i| (0..d).map(|j| ((i * 7 + j) as f32 * 0.31).cos()).collect())
            .collect();
        let (k0, ko0, krec0) = fold_rows(&ext_rows[..3], kq.codebooks(), 0.0);
        let (v0, vo0, vrec0) = fold_rows(&ext_rows[..3], vq.codebooks(), 0.0);
        let (k1, ko1, krec1) = fold_rows(&ext_rows[..2], kq.codebooks(), f32::INFINITY);
        let (v1, vo1, vrec1) = fold_rows(&ext_rows[..2], vq.codebooks(), f32::INFINITY);
        assert!(ko1.is_empty() && vo1.is_empty());
        let no_codes = vec![CodeStream::new(cfg.index_bits()); cfg.residuals];
        let (tail0, tail2) = (ext_rows[3..5].concat(), ext_rows[..4].concat());
        let exts = vec![
            RaggedExt {
                rows: 3,
                k_codes: &k0,
                v_codes: &v0,
                k_outliers: ko0.view(),
                v_outliers: vo0.view(),
                k_tail: &tail0,
                v_tail: &tail0,
            },
            RaggedExt {
                rows: 2,
                k_codes: &k1,
                v_codes: &v1,
                k_outliers: ko1.view(),
                v_outliers: vo1.view(),
                k_tail: &[],
                v_tail: &[],
            },
            RaggedExt {
                rows: 0,
                k_codes: &no_codes,
                v_codes: &no_codes,
                k_outliers: Outliers::default(),
                v_outliers: Outliers::default(),
                k_tail: &tail2,
                v_tail: &tail2,
            },
        ];
        let out = attend(&qs, &lens, &exts, &kq, &vq, &blocking).unwrap();

        // Oracle: dequantize the context prefix, splice the extension's
        // reconstruction and tail underneath, run the dense reference.
        let kd = kq.dequantize().unwrap();
        let vd = vq.dequantize().unwrap();
        let splice = |base: &Tensor2D, len: usize, rec: &Tensor2D, tail: &[Vec<f32>]| {
            let mut rows: Vec<f32> = Vec::new();
            for r in 0..len {
                rows.extend_from_slice(base.row(r));
            }
            for r in 0..rec.shape().0 {
                rows.extend_from_slice(rec.row(r));
            }
            for t in tail {
                rows.extend_from_slice(t);
            }
            Tensor2D::from_vec(len + rec.shape().0 + tail.len(), d, rows).unwrap()
        };
        let no_rec = Tensor2D::zeros(0, d);
        let recs = [
            (&krec0, &vrec0, &ext_rows[3..5]),
            (&krec1, &vrec1, &ext_rows[0..0]),
            (&no_rec, &no_rec, &ext_rows[..4]),
        ];
        for (b, &(krec, vrec, tail)) in recs.iter().enumerate() {
            let kfull = splice(&kd, lens[b], krec, tail);
            let vfull = splice(&vd, lens[b], vrec, tail);
            let oracle =
                linalg::attention_decode_ref(qs.row(b), &kfull, &vfull, 1.0 / (d as f32).sqrt())
                    .unwrap();
            assert!(
                metrics::allclose(out.row(b), &oracle, 1e-4, 1e-4),
                "query {b} spliced oracle"
            );
        }

        // Query 0's extension reconstructs exactly (outliers keep the full
        // residual), so it must also match attending the *raw* f32 rows.
        let kexact = splice(
            &kd,
            lens[0],
            &Tensor2D::from_vec(3, d, ext_rows[..3].concat()).unwrap(),
            &ext_rows[3..5],
        );
        let vexact = splice(
            &vd,
            lens[0],
            &Tensor2D::from_vec(3, d, ext_rows[..3].concat()).unwrap(),
            &ext_rows[3..5],
        );
        let oracle =
            linalg::attention_decode_ref(qs.row(0), &kexact, &vexact, 1.0 / (d as f32).sqrt())
                .unwrap();
        assert!(metrics::allclose(out.row(0), &oracle, 1e-4, 1e-4));

        // Lane independence: each query solo reproduces its batched row.
        for (b, ext) in exts.iter().enumerate() {
            let solo_q = Tensor2D::from_vec(1, d, qs.row(b).to_vec()).unwrap();
            let solo = attend(
                &solo_q,
                &[lens[b]],
                std::slice::from_ref(ext),
                &kq,
                &vq,
                &blocking,
            )
            .unwrap();
            assert_eq!(out.row(b), solo.row(0), "lane {b} not batch-invariant");
        }

        // Malformed extensions are rejected.
        let bad_stream = RaggedExt {
            rows: 2,
            k_codes: &k1[..0],
            v_codes: &v1,
            ..RaggedExt::default()
        };
        assert!(attend(
            &qs,
            &lens,
            &[bad_stream, exts[1], exts[2]],
            &kq,
            &vq,
            &blocking
        )
        .is_err());
    }

    #[test]
    fn threaded_path_matches_sequential() {
        for (cfg, rows, cols) in preset_cases() {
            let wq = quantized(cfg, rows, cols, 17);
            let xc = xs(cols, 0.41);
            let xr = xs(rows, 0.19);
            let seq = HostBlocking::default();
            let par = HostBlocking::default().with_threads(4);
            assert_eq!(
                gemv_lut(&wq, &xc, &seq).unwrap(),
                gemv_lut(&wq, &xc, &par).unwrap(),
                "{cfg} lut"
            );
            let x = Tensor2D::from_vec(1, rows, xr).unwrap();
            assert_eq!(
                gemm_fused(&x, &wq, &seq).unwrap(),
                gemm_fused(&x, &wq, &par).unwrap(),
                "{cfg} gemv"
            );
            let acts = Tensor2D::from_fn(3, cols, |b, c| ((b + 2 * c) as f32 * 0.13).sin());
            assert_eq!(
                gemv_lut_batch(&wq, &acts, &seq).unwrap(),
                gemv_lut_batch(&wq, &acts, &par).unwrap(),
                "{cfg} lut-batch"
            );
            let a = synth::gaussian(6, rows, 1.0, 21);
            assert_eq!(
                gemm_fused(&a, &wq, &seq).unwrap(),
                gemm_fused(&a, &wq, &par).unwrap(),
                "{cfg} gemm"
            );
        }
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let cfg = VqConfig::new(4, 32, 1, CodebookScope::PerTensor).unwrap();
        let wq = quantized(cfg, 64, 32, 1);
        let b = HostBlocking::default();
        assert!(gemv_lut(&wq, &[0.0; 3], &b).is_err());
        assert!(gemm_fused(&Tensor2D::zeros(2, 3), &wq, &b).is_err());
        assert!(gemv_lut_batch(&wq, &Tensor2D::zeros(2, 3), &b).is_err());
        let other = quantized(cfg, 32, 32, 2);
        assert!(attend_one(&[0.0; 32], &wq, &other, &b).is_err());
        assert!(attend(&Tensor2D::zeros(2, 32), &[64; 2], &[], &wq, &other, &b).is_err());
        // An empty batch, and a stray extension count, are rejected too.
        assert!(attend(&Tensor2D::zeros(0, 32), &[], &[], &wq, &wq, &b).is_err());
        let one_ext = [RaggedExt::default()];
        assert!(attend(&Tensor2D::zeros(2, 32), &[64; 2], &one_ext, &wq, &wq, &b).is_err());
    }
}
