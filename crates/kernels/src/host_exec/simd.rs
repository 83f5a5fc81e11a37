//! SIMD-wide inner loops for the host kernels.
//!
//! Every primitive here ships two tiers behind one safe entry point, and
//! the lane kernels — softmax and the value pass — a third, each entry a
//! `match` on the [`Isa`] witness of the tier this machine runs
//! ([`Isa::detect`]):
//!
//! * an **AVX2 + FMA** path (`#[cfg(target_arch = "x86_64")]`);
//! * for [`softmax_lanes`] and [`value_accumulate`], an **AVX-512F** path
//!   beside it: the same operations on 512-bit vectors;
//! * a **scalar** fallback restructured into 8-wide unrolled accumulator
//!   lanes so LLVM's autovectorizer reliably emits packed math on any
//!   target (and out-of-order cores get independent dependency chains even
//!   when it does not).
//!
//! **One rounding on every tier.** Every multiply-add is `a.mul_add(b, c)`
//! — or the intrinsic FMA that is the same operation — rounded once, and
//! every sum runs in one order whatever the tier, so the tiers agree bit
//! for bit and a request's bytes do not depend on the machine. On aarch64
//! and x86-64 with FMA a multiply-add is one instruction. On an x86-64
//! whose CPUID does not report AVX2 and FMA (an older CPU, or a VM or
//! emulator that hides them) the scalar tier runs, and there each
//! multiply-add is a software `fmaf` call, an order of magnitude slower,
//! to stay correctly rounded.
//!
//! The primitives are exactly the inner loops of
//! [`host_exec`](crate::host_exec): the panel body's GeMM micro-kernel
//! tile, and the score, softmax and value stages, which all work on **lane
//! blocks**: up to [`LANES`] activations side by side in the lanes of one
//! vector, a block of `w` real lanes padded to `W =`
//! [`padded_lanes`]`(w)` ∈ {1, 2, 4, 8} so every lane count in an inner
//! loop is a constant. Buffers are slices of `[f32; W]` — one row of lanes
//! per weight row (or per table slot, or per output element):
//!
//! * [`lut_batch_build`] / [`lut_batch_accumulate`] — the score pass: a
//!   lane-interleaved table of query · centroid partial dots per column
//!   group, then one `W`-wide load and add per packed code. Codes eight
//!   bits wide are read as bytes straight from the packed stream and index
//!   a slab typed `[[f32; W]; 256]`, which no byte can overrun;
//!   a live-KV extension's private rows run through the same accumulate,
//!   their codes a [`CodeSource::Stream`];
//! * [`softmax_lanes`] — lane-wise softmax numerators in that same buffer,
//!   through one polynomial [`exp`] whose bits depend on the element alone
//!   (on AVX-512, `16 / W` rows a vector);
//! * [`value_accumulate`] — the value pass (attention's V side, and the
//!   linear layer with the batch as lanes): per packed code, the codebook
//!   entry times the row's weights straight into `W`-lane accumulators —
//!   at one lane (a solo query, a private extension) the output row itself
//!   packed into vectors. No row is ever decoded to memory.
//!
//! The generic loops are written once, as `#[inline(always)]` bodies over
//! const lane counts, and compiled per tier: each tier's entry is a
//! `#[target_feature]` function the body inlines into, so the tier is
//! picked once per call, not once per packed code. Two primitives keep
//! hand-written intrinsic kernels beside their scalar bodies, computing
//! the same chains: the value pass (the body alone left the accumulators
//! in memory) — one lane-pair kernel for lane blocks, generic over the
//! vector width, and one for a single lane — and the GeMM tile, whose
//! scalar body compiled for AVX2 is slower.

#![expect(
    clippy::indexing_slicing,
    clippy::expect_used,
    reason = "lane-block inner loops (score LUT build/accumulate, lane softmax, value pass) and the panel body's MR x NR tile: indices are const-generic lane counts, fixed tile shapes, and code-stream offsets asserted at each primitive's entry; pinned bitwise by the per-primitive chain tests and the proptest parity suite, and per-element `get` would take the accumulators out of registers."
)]

use super::CodeStream;
use vqllm_tensor::isa::{Isa, Tier};
use vqllm_vq::{BookRun, Codebook, PackedIndices};

/// Width of the accumulator-lane unroll (one AVX2 register of f32).
pub const LANES: usize = 8;

/// Rows of A per GeMM micro-kernel tile: 6 rows × two 8-wide vectors fills
/// 12 of the 16 AVX registers with accumulators, leaving room for the two
/// panel vectors and the broadcast.
pub const GEMM_MR: usize = 6;
/// Output columns per GeMM micro-kernel tile (two 8-wide vectors).
pub const GEMM_NR: usize = 16;

/// Name of the tier this machine runs (for reports/benches): `avx512f`,
/// `avx2+fma` or `scalar-8w`. Only the lane kernels have an AVX-512 arm;
/// the other primitives run their AVX2 + FMA one on an AVX-512 machine.
pub fn tier() -> &'static str {
    Isa::detect().name()
}

/// Runs `$f::<W, ..>` for the lane count `$w` (`1..=LANES`): the batched
/// LUT loops are monomorphised per width, so slot offsets are constant
/// multiples and a row block's sums live in registers.
macro_rules! with_lanes {
    ($w:expr, $f:ident $(, $extra:tt)?; $($a:expr),*) => {
        match $w {
            1 => $f::<1 $(, $extra)?>($($a),*),
            2 => $f::<2 $(, $extra)?>($($a),*),
            3 => $f::<3 $(, $extra)?>($($a),*),
            4 => $f::<4 $(, $extra)?>($($a),*),
            5 => $f::<5 $(, $extra)?>($($a),*),
            6 => $f::<6 $(, $extra)?>($($a),*),
            7 => $f::<7 $(, $extra)?>($($a),*),
            _ => $f::<8 $(, $extra)?>($($a),*),
        }
    };
}
pub(crate) use with_lanes;

/// Lanes of the padded block that `w` (`1..=LANES`) real lanes ride: the
/// next power of two — 1, 2, 4 or 8.
#[inline]
pub fn padded_lanes(w: usize) -> usize {
    debug_assert!((1..=LANES).contains(&w), "lane block width");
    w.next_power_of_two()
}

/// Runs `$f::<W>` for the padded lane count `$wp` (see [`padded_lanes`]).
macro_rules! with_padded_lanes {
    ($wp:expr, $f:ident; $($a:expr),*) => {
        match $wp {
            1 => $f::<1>($($a),*),
            2 => $f::<2>($($a),*),
            4 => $f::<4>($($a),*),
            _ => $f::<8>($($a),*),
        }
    };
}
pub(crate) use with_padded_lanes;

/// Builds one column group's slab of the lane-interleaved LUT for a block
/// of `w` (`1..=LANES`) activation lanes:
/// `gslab[c·w + b] = Σ_j inter[j·stored + c] · xt[j·w + b]` — the partial
/// dot of stored entry `c` (element-major `inter`, see
/// `Codebook::entries_interleaved`) against lane `b`'s activation
/// sub-vector (`xt`, element-major too: `vs × w`). Each slot is the
/// `+= e · x` chain over `j` ascending from +0.0 — a zero centroid element
/// leaves the sum as it is, so a non-finite activation cannot reach a slot
/// through one (a book with no zero element, the usual case, is built
/// without the test) — eight slots' sums in registers at a time, each
/// written once. Every step is one fused multiply-add on every tier, so a
/// lane's bits do not depend on the block it sits in (the serving
/// scheduler's parity contract) or on the machine.
///
/// # Panics
///
/// Panics if `w` is outside `1..=LANES`, the slices are not whole
/// multiples of it, or `inter` does not hold `vs × stored` elements.
#[inline]
pub fn lut_batch_build(gslab: &mut [f32], inter: &[f32], xt: &[f32], w: usize) {
    assert!((1..=LANES).contains(&w), "lane block width");
    assert!(
        gslab.len().is_multiple_of(w) && xt.len().is_multiple_of(w),
        "slab and activations are lane-interleaved"
    );
    assert_eq!(
        inter.len(),
        (gslab.len() / w) * (xt.len() / w),
        "interleaved codebook is vs × stored"
    );
    match Isa::detect().tier() {
        Tier::Portable => with_lanes!(w, lut_build_lanes; gslab, inter, xt),
        // SAFETY: an `Avx2` or `Avx512` witness means this machine runs
        // AVX2 and FMA.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 | Tier::Avx512 => unsafe {
            with_lanes!(w, lut_build_lanes_avx2; gslab, inter, xt)
        },
    }
}

/// Slots whose sums [`lut_batch_build`] holds in registers at once: enough
/// independent chains to hide the multiply-add latency, and one vector of
/// consecutive entries when a slot is a single lane.
const LUT_SLOT_BLOCK: usize = 8;

#[inline(always)]
fn lut_build_lanes<const W: usize>(gslab: &mut [f32], inter: &[f32], xt: &[f32]) {
    const N: usize = LUT_SLOT_BLOCK;
    let stored = gslab.len() / W;
    // A book rarely holds an exact zero, and without one no step is ever
    // skipped: the loops below then run without the test.
    let dense = inter.iter().map(|&e| u32::from(e == 0.0)).sum::<u32>() == 0;
    let mut blocks = gslab.chunks_exact_mut(N * W);
    let mut c = 0;
    for slots in &mut blocks {
        lut_build_slots::<W, N>(slots, inter, xt, stored, c, dense);
        c += N;
    }
    for slot in blocks.into_remainder().chunks_exact_mut(W) {
        lut_build_slots::<W, 1>(slot, inter, xt, stored, c, dense);
        c += 1;
    }
}

/// Slots `[c, c + N)` of [`lut_build_lanes`]: `N × W` sums from +0.0,
/// written once. `dense`: no element of `inter` is zero.
#[inline(always)]
fn lut_build_slots<const W: usize, const N: usize>(
    slots: &mut [f32],
    inter: &[f32],
    xt: &[f32],
    stored: usize,
    c: usize,
    dense: bool,
) {
    let mut acc = [[0.0f32; W]; N];
    for (xj, ej) in xt.chunks_exact(W).zip(inter.chunks_exact(stored)) {
        for (a, &e) in acc.iter_mut().zip(&ej[c..c + N]) {
            if dense || e != 0.0 {
                for (s, &x) in a.iter_mut().zip(xj) {
                    *s = e.mul_add(x, *s);
                }
            }
        }
    }
    for (slot, a) in slots.chunks_exact_mut(W).zip(&acc) {
        slot.copy_from_slice(a);
    }
}

/// Rows whose sums [`lut_batch_accumulate`] holds in registers at once.
/// The adds of one row are a dependent chain (that order *is* the result),
/// so instruction-level parallelism has to come from independent rows.
pub const LUT_ROW_BLOCK: usize = 4;

/// Stored entries a one-byte code addresses: the slab height at which
/// [`lut_batch_accumulate`] indexes with the packed bytes themselves.
const BYTE_ENTRIES: usize = 256;

/// Where a kernel reads one residual round's codes from: a quantized
/// tensor's bit-packed index stream, or a live-KV extension's whole-byte
/// [`CodeStream`] — so a private row runs through the very kernels a
/// context row does.
#[derive(Debug, Clone, Copy)]
pub enum CodeSource<'a> {
    /// A [`QuantizedTensor`](vqllm_vq::QuantizedTensor)'s index stream.
    Packed(&'a PackedIndices),
    /// An extension's codes.
    Stream(&'a CodeStream),
}

impl<'a> CodeSource<'a> {
    /// The codes as bytes, when each is one byte wide.
    #[inline]
    fn bytes(self) -> Option<&'a [u8]> {
        match self {
            CodeSource::Packed(p) => p.as_bytes(),
            CodeSource::Stream(s) => (s.width == 1).then_some(&s.bytes),
        }
    }

    /// Codes `[start, start + out.len())`, widened.
    #[inline]
    pub(super) fn unpack(self, start: usize, out: &mut [u32]) {
        match self {
            CodeSource::Packed(p) => p.unpack_block(start, out),
            CodeSource::Stream(s) => {
                for (i, o) in out.iter_mut().enumerate() {
                    *o = CodeStream::code_at(&s.bytes, s.width, start + i);
                }
            }
        }
    }
}

/// The packed codes of consecutive rows of one index stream: row `i`'s
/// are indices `first + i·groups ..` of `stream`, `groups` of them.
#[derive(Debug, Clone, Copy)]
pub struct RowCodes<'a> {
    /// The residual round's codes.
    pub stream: CodeSource<'a>,
    /// Index of the first row's first code.
    pub first: usize,
    /// Codes (column groups) per row.
    pub groups: usize,
}

/// The score-pass inner kernel of `gemv_lut_batch`, for one padded lane
/// block: `y[i][b] += Σ_g lut[g·stored + code(i, g)][b]` for every row `i`
/// of `y`, where `code(i, g)` comes from `codes` and `lut` is the block's
/// lane-interleaved table (`groups × stored` slots, see
/// [`lut_batch_build`]). Groups are visited in blocks of `gb` (the
/// cache-resident share of the LUT), all rows per block; within a block a
/// few rows' sums stay in registers, so the cost per packed code is one
/// load and one add. Each sum is the same left-to-right chain over `g`
/// whatever `gb`, the row blocking and the lane block are.
///
/// An 8-bit stream over 256-entry books takes its codes as bytes straight
/// from the packed stream, and a byte cannot index past a slab whose
/// height is the constant 256: no widened scratch and — in safe code — no
/// bounds check left to pay per code (`QuantizedTensor::from_parts`
/// guarantees `code < 2^index_bits`, which is why 256 slots are enough).
/// Every other shape widens its codes through `unpack_block` and indexes
/// checked; the sums are the same.
///
/// # Panics
///
/// Panics if `lut` is not `groups × stored` slots, the stream ends before
/// the last row's codes, or a code is not below `stored`.
#[inline]
pub fn lut_batch_accumulate<const W: usize>(
    y: &mut [[f32; W]],
    lut: &[[f32; W]],
    stored: usize,
    codes: RowCodes<'_>,
    gb: usize,
) {
    assert_eq!(lut.len(), codes.groups * stored, "lut is groups × stored");
    if lut.is_empty() {
        return;
    }
    match Isa::detect().tier() {
        Tier::Portable => lut_accumulate_lanes(y, lut, stored, codes, gb),
        // SAFETY: an `Avx2` or `Avx512` witness means this machine runs
        // AVX2 and FMA.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 | Tier::Avx512 => unsafe {
            lut_accumulate_lanes_avx2(y, lut, stored, codes, gb)
        },
    }
}

/// Group blocks outermost, then row blocks of [`LUT_ROW_BLOCK`] (single
/// rows for the remainder). The byte / widened choice is made once, out
/// here, and spelled out at each call: folded into a per-block helper the
/// same loops compiled to half the speed (one row's lanes fell out of the
/// vector registers).
#[inline(always)]
fn lut_accumulate_lanes<const W: usize>(
    y: &mut [[f32; W]],
    lut: &[[f32; W]],
    stored: usize,
    codes: RowCodes<'_>,
    gb: usize,
) {
    const R: usize = LUT_ROW_BLOCK;
    let RowCodes {
        stream,
        first,
        groups,
    } = codes;
    let gb = gb.clamp(1, groups);
    let bytes = stream.bytes().filter(|_| stored == BYTE_ENTRIES);
    let mut widened = vec![0u32; if bytes.is_some() { 0 } else { R * gb }];
    for g0 in (0..groups).step_by(gb) {
        let gl = gb.min(groups - g0);
        let slab = &lut[g0 * stored..(g0 + gl) * stored];
        let mut at = first + g0;
        let mut blocks = y.chunks_exact_mut(R);
        for yblock in &mut blocks {
            if let Some(bytes) = bytes {
                let rows: [&[u8]; R] = std::array::from_fn(|i| &bytes[at + i * groups..][..gl]);
                lut_accumulate_block::<W, R, BYTE_ENTRIES, u8>(yblock, slab, stored, rows);
            } else {
                for (i, row) in widened[..R * gl].chunks_exact_mut(gl).enumerate() {
                    stream.unpack(at + i * groups, row);
                }
                let rows: [&[u32]; R] = std::array::from_fn(|i| &widened[i * gl..][..gl]);
                lut_accumulate_block::<W, R, 0, u32>(yblock, slab, stored, rows);
            }
            at += R * groups;
        }
        for yrow in blocks.into_remainder().chunks_exact_mut(1) {
            if let Some(bytes) = bytes {
                lut_accumulate_block::<W, 1, BYTE_ENTRIES, u8>(
                    yrow,
                    slab,
                    stored,
                    [&bytes[at..][..gl]],
                );
            } else {
                stream.unpack(at, &mut widened[..gl]);
                lut_accumulate_block::<W, 1, 0, u32>(yrow, slab, stored, [&widened[..gl]]);
            }
            at += groups;
        }
    }
}

/// A packed code as the kernels index with it: a byte of the stream or a
/// widened `u32`.
trait Code: Copy {
    fn index(self) -> usize;
}

impl Code for u8 {
    #[inline(always)]
    fn index(self) -> usize {
        usize::from(self)
    }
}

impl Code for u32 {
    #[inline(always)]
    fn index(self) -> usize {
        self as usize
    }
}

/// `R` rows × `W` lanes of sums, loaded from `y` once, carried in
/// registers over the block's codes (`rows`: `R` rows of one code per
/// group of `slab`) and stored once. `STORED` is the slab height as a
/// constant — with byte codes an index then cannot leave its slab — or 0
/// to take it from `stored`.
#[inline(always)]
fn lut_accumulate_block<const W: usize, const R: usize, const STORED: usize, C: Code>(
    y: &mut [[f32; W]],
    slab: &[[f32; W]],
    stored: usize,
    rows: [&[C]; R],
) {
    let stored = if STORED == 0 { stored } else { STORED };
    // The trip count the loop below shows the compiler: with the rows cut
    // to it, no code load is bounds-checked.
    let gl = slab.len() / stored;
    let rows = rows.map(|row| &row[..gl]);
    let mut acc: [[f32; W]; R] = std::array::from_fn(|i| y[i]);
    for (gi, gslab) in slab.chunks_exact(stored).enumerate() {
        for (a, row) in acc.iter_mut().zip(&rows) {
            let slot = &gslab[row[gi].index()];
            for (s, &v) in a.iter_mut().zip(slot) {
                *s += v;
            }
        }
    }
    y[..R].copy_from_slice(&acc);
}

/// One GeMM micro-kernel tile: `acc[p][l] += Σ_ii arows[p][ii] ·
/// panel[ii·stride + j0 + l]` — `GEMM_MR × GEMM_NR` sums held live across
/// the whole panel depth `kb`, each a chain of multiply-adds from +0.0 in
/// `ii` order, added to `acc` once at the end. Callers pad the panel width
/// and the A-row set so every tile runs this one full-size kernel, which
/// keeps results bitwise identical at every strip partitioning.
///
/// # Panics
///
/// Debug-asserts that each `arows[p]` covers `kb` and the panel covers
/// the tile.
#[inline]
pub fn gemm_acc_tile(
    arows: &[&[f32]; GEMM_MR],
    panel: &[f32],
    stride: usize,
    j0: usize,
    kb: usize,
    acc: &mut [[f32; GEMM_NR]; GEMM_MR],
) {
    debug_assert!(arows.iter().all(|r| r.len() >= kb), "A rows cover kb");
    debug_assert!(
        kb == 0 || (kb - 1) * stride + j0 + GEMM_NR <= panel.len(),
        "panel covers tile"
    );
    match Isa::detect().tier() {
        Tier::Portable => gemm_acc_tile_scalar(arows, panel, stride, j0, kb, acc),
        // SAFETY: an `Avx2` or `Avx512` witness means this machine runs
        // AVX2 and FMA; bounds are debug-asserted above and enforced by the
        // slice indexing in the scalar path's shared contract.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 | Tier::Avx512 => unsafe {
            gemm_acc_tile_avx2(arows, panel, stride, j0, kb, acc)
        },
    }
}

fn gemm_acc_tile_scalar(
    arows: &[&[f32]; GEMM_MR],
    panel: &[f32],
    stride: usize,
    j0: usize,
    kb: usize,
    acc: &mut [[f32; GEMM_NR]; GEMM_MR],
) {
    let mut sums = [[0.0f32; GEMM_NR]; GEMM_MR];
    for ii in 0..kb {
        let pvec: &[f32; GEMM_NR] = panel[ii * stride + j0..][..GEMM_NR]
            .try_into()
            .expect("tile panel slice");
        for (sp, a) in sums.iter_mut().zip(arows) {
            for (s, &v) in sp.iter_mut().zip(pvec) {
                *s = a[ii].mul_add(v, *s);
            }
        }
    }
    for (accp, sp) in acc.iter_mut().zip(&sums) {
        for (o, &s) in accp.iter_mut().zip(sp) {
            *o += s;
        }
    }
}

// `exp(x) = 2^n · e^r` with `n = round(x / ln 2)`, `r = x − n · ln 2`
// (`ln 2` split so `n · LN2_HI` is exact) and `e^r = 1 + r + r² · p(r)`
// on `|r| ≤ ln 2 / 2`, `p` the degree-5 polynomial of Cephes' `expf`.
const EXP_LN2_HI: f32 = 0.693_359_4;
const EXP_LN2_LO: f32 = -2.121_944_4e-4;
/// `1.5 · 2^23`: added to a float of magnitude below `2^22` it leaves the
/// nearest integer in the low mantissa bits.
const EXP_ROUND: f32 = 12_582_912.0;
const EXP_POLY: [f32; 6] = [
    1.987_569_1e-4,
    1.398_199_9e-3,
    8.333_452e-3,
    4.166_579_6e-2,
    1.666_666_5e-1,
    5.0e-1,
];
/// Inputs below this — `-inf` among them — give exactly +0.0; at and above
/// it the result is a normal number (`exp(-87.3) > 2^-126`).
const EXP_CUTOFF: f32 = -87.3;

/// `e^x` for `W` lanes of `x ≤ 0`, the only range softmax asks for: at
/// most 2 ulp from the exact value on `[EXP_CUTOFF, 0]`, exactly 1 at 0,
/// exactly +0.0 below `EXP_CUTOFF`, NaN for NaN. Every step is one IEEE
/// operation on one element (a multiply-add rounds once), so a result's
/// bits depend on its input alone — not on `W`, the lane it sits in, what
/// its neighbours hold, or the tier.
#[inline(always)]
fn exp_lanes<const W: usize>(x: [f32; W]) -> [f32; W] {
    // Plain loops over the lanes, no closures: the body must inline whole
    // into the tier's `#[target_feature]` frame to be compiled for it.
    let mut out = [0.0f32; W];
    for b in 0..W {
        let clamped = if x[b] < EXP_CUTOFF { EXP_CUTOFF } else { x[b] };
        let shifted = clamped.mul_add(std::f32::consts::LOG2_E, EXP_ROUND);
        let n = shifted - EXP_ROUND;
        let r = n.mul_add(-EXP_LN2_LO, n.mul_add(-EXP_LN2_HI, clamped));
        let mut p = EXP_POLY[0];
        for &c in &EXP_POLY[1..] {
            p = p.mul_add(r, c);
        }
        let y = p.mul_add(r * r, r) + 1.0;
        // `n` sits in `shifted`'s low mantissa bits; `n + 127 ≥ 1` is the
        // biased exponent of `2^n`.
        let n = (shifted.to_bits() as i32).wrapping_sub(EXP_ROUND.to_bits() as i32);
        let e = y * f32::from_bits(((n + 127) << 23) as u32);
        out[b] = if x[b] < EXP_CUTOFF { 0.0 } else { e };
    }
    out
}

/// The kernels' `e^x` for one `x ≤ 0`: within 2 ulp on `[-87.3, 0]`,
/// exactly 1 at 0, exactly +0.0 below -87.3 (`-inf` included). Every lane
/// of [`softmax_lanes`] computes exactly this, on every tier. It runs the
/// scalar body (a reference for tests, not a hot loop).
#[inline]
pub fn exp(x: f32) -> f32 {
    exp_lanes([x])[0]
}

/// Lane-wise softmax numerators, in place. Lane `b` attends rows
/// `[0, lens[b])` of `scores` (token-major, one row of lanes per cached
/// token) and then its private rows `ext[b]`; on return every attended
/// element holds `exp(s · scale − max_b)`, every element of `scores` past a
/// lane's prefix holds exactly +0.0, and the result is each lane's sum of
/// numerators. Maximum and sum are per-lane chains in row order — context
/// rows, then the lane's private ones — and the exponential is [`exp`], so
/// a lane's bits depend on that lane alone: not on `W`, its position, or
/// the rows other lanes make the buffer hold. A lane with nothing to attend
/// (a padded slot: `lens[b] == 0`, no private rows) gets all zeros and sum
/// 0. The AVX-512 tier takes `16 / W` rows a vector: it reduces the
/// maximum per row slot and then combines the slots (a maximum is
/// order-free, and a ±0 tie moves no numerator), and adds each vector's
/// rows into the sums one after the other.
#[inline]
pub fn softmax_lanes<const W: usize>(
    scores: &mut [[f32; W]],
    lens: &[usize; W],
    scale: f32,
    ext: [&mut [f32]; W],
) -> [f32; W] {
    match Isa::detect().tier() {
        Tier::Portable => softmax_lanes_body::<W, W>(scores, lens, scale, ext),
        // SAFETY: an `Avx2` witness means this machine runs AVX2 and FMA.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => unsafe { softmax_lanes_avx2(scores, lens, scale, ext) },
        // SAFETY: an `Avx512` witness means this machine runs AVX-512F,
        // AVX2 and FMA.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => unsafe { softmax_lanes_avx512(scores, lens, scale, ext) },
    }
}

/// [`softmax_lanes`] with `L` floats a vector: lane `l` of a vector is lane
/// `l % W` of row `l / W` among the vector's `L / W` rows (`L = W` on the
/// AVX2 and scalar tiers, one row a vector).
#[inline(always)]
fn softmax_lanes_body<const W: usize, const L: usize>(
    scores: &mut [[f32; W]],
    lens: &[usize; W],
    scale: f32,
    ext: [&mut [f32]; W],
) -> [f32; W] {
    const MASKED: f32 = f32::NEG_INFINITY;
    let per = L / W;
    // Row indices compare as `u32` — one vector compare a row.
    assert!(
        u32::try_from(scores.len() + per).is_ok(),
        "rows index as u32"
    );
    let mut prefix = [0u32; L];
    let mut slot = [0u32; L];
    for l in 0..L {
        prefix[l] = lens[l % W].min(scores.len()) as u32;
        slot[l] = (l / W) as u32;
    }
    let rows = scores.len();
    let (vectors, tail) = scores.as_flattened_mut().as_chunks_mut::<L>();
    // The rows past the last whole vector, padded with rows past every
    // prefix.
    let mut last = [0.0f32; L];
    last[..tail.len()].copy_from_slice(tail);
    let padded = usize::from(!tail.is_empty());

    let mut slot_max = [MASKED; L];
    let last_vector = std::iter::once(&last).take(padded);
    for (c, v) in vectors.iter().chain(last_vector).enumerate() {
        let t0 = (c * per) as u32;
        for l in 0..L {
            let s = v[l] * scale;
            let s = if t0 + slot[l] < prefix[l] { s } else { MASKED };
            slot_max[l] = if s > slot_max[l] { s } else { slot_max[l] };
        }
    }
    let mut max = [MASKED; W];
    for (l, &m) in slot_max.iter().enumerate() {
        let b = l % W;
        max[b] = if m > max[b] { m } else { max[b] };
    }
    for b in 0..W {
        for &s in ext[b].iter() {
            let s = s * scale;
            max[b] = if s > max[b] { s } else { max[b] };
        }
        // Nothing attended (a padded slot): any finite maximum keeps the
        // masked rows' `-inf − max` from being NaN.
        if max[b] == MASKED {
            max[b] = 0.0;
        }
    }
    let mut sum = [0.0f32; W];
    let last_vector = std::iter::once(&mut last).take(padded);
    for (c, v) in vectors.iter_mut().chain(last_vector).enumerate() {
        let t0 = (c * per) as u32;
        let mut x = [MASKED; L];
        for l in 0..L {
            let s = v[l] * scale - max[l % W];
            x[l] = if t0 + slot[l] < prefix[l] { s } else { MASKED };
        }
        *v = exp_lanes(x);
        // Each lane's sum, one row after the other; the padded vector's
        // rows past the buffer are not added.
        for r in 0..per.min(rows - c * per) {
            for b in 0..W {
                sum[b] += v[r * W + b];
            }
        }
    }
    tail.copy_from_slice(&last[..tail.len()]);
    for b in 0..W {
        for s in ext[b].iter_mut() {
            *s = exp_lanes([*s * scale - max[b]])[0];
            sum[b] += *s;
        }
    }
    sum
}

/// f32 lanes of the AVX-512 tier's vectors.
const ZMM_LANES: usize = 16;

/// Vector registers of the 256-bit (AVX2) and 512-bit (AVX-512) tiers.
const YMM_REGISTERS: usize = 16;
const ZMM_REGISTERS: usize = 32;

/// The lane-pair value pass's layout for `w` lanes of `vs`-wide entries on
/// a tier of `registers` vectors of `lanes` f32: `(sub, vectors, block)`.
///
/// * `sub`: an entry is broadcast `sub` floats at a time — all of it,
///   unless its lane pairs would need more than `registers / 16` weight
///   vectors a row (each with an index vector to build it): on 256-bit
///   vectors one, so eight lanes take an entry a float at a time (the
///   element-major layout) and four lanes two at a time; on 512-bit
///   vectors two, so eight lanes take an 8-wide entry in halves;
/// * `vectors`: registers a column group's accumulators take, each
///   sub-entry's `w × sub` outputs side by side in `⌈w·sub / lanes⌉`;
/// * `block`: column groups taken at a time — as many as have their books
///   fit [`SLAB_BYTES`](super::SLAB_BYTES) (256 entries of `vs` floats
///   each) and leave at least four registers free beside the accumulators.
const fn pair_shape(w: usize, vs: usize, lanes: usize, registers: usize) -> (usize, usize, usize) {
    let mut sub = vs;
    while sub > 1 && w * sub > lanes * registers / 16 {
        sub /= 2;
    }
    let vectors = vs / sub * (w * sub).div_ceil(lanes);
    let books = super::SLAB_BYTES / (BYTE_ENTRIES * vs * 4);
    let fit = (registers - 4) / vectors;
    (sub, vectors, if books < fit { books } else { fit })
}

/// Column groups per block of the register-resident value pass for an
/// eight-lane block of `vs`-wide entries (2, 4 or 8), on the widest tier
/// this machine runs — the 256-bit block where it has no AVX-512 — or 0
/// for widths only the lane-array body runs.
pub fn value_group_block(vs: usize) -> usize {
    if !matches!(vs, 2 | 4 | 8) {
        return 0;
    }
    match Isa::detect().tier() {
        #[cfg(target_arch = "x86_64")]
        Tier::Avx512 => pair_shape(LANES, vs, ZMM_LANES, ZMM_REGISTERS).2,
        _ => pair_shape(LANES, vs, LANES, YMM_REGISTERS).2,
    }
}

/// One residual round of the value pass over a run of rows that share
/// their books: row `t`'s codes are indices `first + t·groups ..` of
/// `stream`, and `books[i]` decodes group `gs + i` of the span the call
/// accumulates (see [`value_accumulate`]).
#[derive(Debug, Clone, Copy)]
pub struct ValueRound<'a> {
    /// The round's codes.
    pub stream: CodeSource<'a>,
    /// Index of the run's first row's first code.
    pub first: usize,
    /// The round's codebook for each column group of the span.
    pub books: &'a [&'a Codebook],
    /// The same books as one run of their set's codebook arena
    /// ([`CodebookSet::book_run`](vqllm_vq::CodebookSet::book_run)), when
    /// they form one: what the lane-pair kernel reads.
    pub run: Option<BookRun<'a>>,
}

/// The value-pass inner kernel of attention, for one padded lane
/// block and a span of column groups `[gs, gs + span)`:
/// `acc[(i·vs + j)][b] += Σ_t Σ_round weights[t][b] · entry(t, round, gs + i)[j]`
/// — every accumulator one chain of multiply-adds in (row, round) order,
/// continued from the value `acc` holds on entry, each step one fused
/// multiply-add on every tier. `weights` is token-major
/// like the score buffer (the numerators [`softmax_lanes`] left there),
/// `acc` is element-major (`span · vs` rows of lanes), `groups` the codes
/// per row.
///
/// Nothing is decoded to memory. One round of byte codes over plain
/// 256-entry books with 2-, 4- or 8-wide entries runs an intrinsic kernel
/// on the AVX2 and AVX-512 tiers. In lane blocks that is the **lane-pair**
/// kernel: its accumulators hold a group's `W × vs` outputs side by side
/// (`[b][j]`), so a code costs one broadcast of its whole entry from the
/// round's [`BookRun`] and `⌈W·vs / 16⌉` fused multiply-adds by the row's
/// weights, each repeated `vs` times (512-bit vectors: one at CQ-4 and
/// eight lanes). Where that would take more weight vectors a row than the
/// tier's registers afford, an entry is broadcast in sub-entries instead
/// (`pair_shape`: on 256-bit vectors at eight lanes a float at a time, the
/// element-major layout, `vs` multiply-adds a code). Groups are taken in
/// blocks whose books fit L1 and whose accumulators stay in registers,
/// rows streamed once per block. At
/// `W = 1` the block's accumulators are the output row's elements side by
/// side in vectors. Everything else (no arena run, lattice signs, other
/// widths, residual rounds, spans shorter than a block, the scalar tier)
/// runs the lane-array body. All are the chain above, so which one ran
/// cannot be read from a result.
///
/// # Panics
///
/// Panics if the rounds disagree on the span, `acc` is not a whole number
/// of sub-vectors per group, or a stream ends before the last row's codes.
#[inline]
pub fn value_accumulate<const W: usize>(
    acc: &mut [[f32; W]],
    weights: &[[f32; W]],
    rounds: &[ValueRound<'_>],
    groups: usize,
    gs: usize,
) {
    let Some(round) = rounds.first() else {
        return;
    };
    let span = round.books.len();
    assert!(
        rounds.iter().all(|r| r.books.len() == span),
        "rounds cover one span of groups"
    );
    assert!(
        span > 0 && acc.len().is_multiple_of(span) && gs + span <= groups,
        "acc is span × vs rows of lanes"
    );
    let isa = Isa::detect();
    match isa.tier() {
        Tier::Portable => value_accumulate_lanes(acc, weights, rounds, groups, gs),
        // SAFETY: an `Avx2` or `Avx512` witness means this machine runs
        // AVX2 and FMA.
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 | Tier::Avx512 => unsafe {
            x86::value_accumulate_avx2(isa, acc, weights, rounds, groups, gs)
        },
    }
}

/// [`value_accumulate`]'s lane-array body: rows outermost, each row's
/// codes widened once per round, accumulators in `acc`.
#[inline(always)]
fn value_accumulate_lanes<const W: usize>(
    acc: &mut [[f32; W]],
    weights: &[[f32; W]],
    rounds: &[ValueRound<'_>],
    groups: usize,
    gs: usize,
) {
    let span = rounds[0].books.len();
    let vs = acc.len() / span;
    let mut codes = vec![0u32; span];
    for (t, w) in weights.iter().enumerate() {
        for round in rounds {
            round
                .stream
                .unpack(round.first + t * groups + gs, &mut codes);
            for ((&code, book), out) in codes.iter().zip(round.books).zip(acc.chunks_exact_mut(vs))
            {
                let base = book.stored_id_of(code) as usize;
                let signs = if book.is_lattice() {
                    code >> book.sign_shift()
                } else {
                    0
                };
                let entry = &book.entries_flat()[base * vs..(base + 1) * vs];
                for (j, (lanes, &e)) in out.iter_mut().zip(entry).enumerate() {
                    let e = if signs & (1 << j) != 0 { -e } else { e };
                    for (o, &wb) in lanes.iter_mut().zip(w) {
                        *o = wb.mul_add(e, *o);
                    }
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{
        pair_shape, RowCodes, ValueRound, BYTE_ENTRIES, LANES, YMM_REGISTERS, ZMM_LANES,
        ZMM_REGISTERS,
    };
    use std::arch::x86_64::*;
    use vqllm_tensor::isa::{Isa, Tier};
    use vqllm_vq::Codebook;

    /// [`super::lut_batch_build`]'s loop for `W` lanes, compiled for AVX2 +
    /// FMA: the generic body inlines into this frame.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn lut_build_lanes_avx2<const W: usize>(
        gslab: &mut [f32],
        inter: &[f32],
        xt: &[f32],
    ) {
        super::lut_build_lanes::<W>(gslab, inter, xt);
    }

    /// [`super::lut_batch_accumulate`]'s loops for `W` lanes, compiled for
    /// AVX2 + FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn lut_accumulate_lanes_avx2<const W: usize>(
        y: &mut [[f32; W]],
        lut: &[[f32; W]],
        stored: usize,
        codes: RowCodes<'_>,
        gb: usize,
    ) {
        super::lut_accumulate_lanes(y, lut, stored, codes, gb);
    }

    /// [`super::softmax_lanes`]'s body for `W` lanes, compiled for AVX2 +
    /// FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn softmax_lanes_avx2<const W: usize>(
        scores: &mut [[f32; W]],
        lens: &[usize; W],
        scale: f32,
        ext: [&mut [f32]; W],
    ) -> [f32; W] {
        super::softmax_lanes_body::<W, W>(scores, lens, scale, ext)
    }

    /// [`super::softmax_lanes`]'s body for `W` lanes, `16 / W` rows a
    /// vector, compiled for AVX-512F (+ AVX2, FMA).
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub unsafe fn softmax_lanes_avx512<const W: usize>(
        scores: &mut [[f32; W]],
        lens: &[usize; W],
        scale: f32,
        ext: [&mut [f32]; W],
    ) -> [f32; W] {
        super::softmax_lanes_body::<W, ZMM_LANES>(scores, lens, scale, ext)
    }

    /// [`super::value_accumulate`] on the AVX2 and AVX-512 tiers: the
    /// intrinsic kernels for the spans they cover — the 512-bit lane-pair
    /// kernel where `isa` witnesses AVX-512F, else (or on a span shorter
    /// than its block) the 256-bit one, the row kernel at one lane — and
    /// the lane-array body for the rest.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn value_accumulate_avx2<const W: usize>(
        isa: Isa,
        acc: &mut [[f32; W]],
        weights: &[[f32; W]],
        rounds: &[ValueRound<'_>],
        groups: usize,
        gs: usize,
    ) {
        let [round] = rounds else {
            return super::value_accumulate_lanes(acc, weights, rounds, groups, gs);
        };
        let done = if W == 1 {
            let (books, vs) = (round.books, acc.len() / round.books.len());
            let plain =
                |b: &&Codebook| !b.is_lattice() && b.entries_flat().len() == BYTE_ENTRIES * vs;
            match round.stream.bytes() {
                Some(c) if books.iter().all(plain) => {
                    let (acc, weights) = (acc.as_flattened_mut(), weights.as_flattened());
                    let c = &c[round.first + gs..];
                    // SAFETY: AVX2+FMA are enabled for this function; every
                    // book was checked above.
                    unsafe {
                        match vs {
                            2 => value_row_bytes_avx2::<2>(acc, weights, c, books, groups),
                            4 => value_row_bytes_avx2::<4>(acc, weights, c, books, groups),
                            8 => value_row_bytes_avx2::<8>(acc, weights, c, books, groups),
                            _ => 0,
                        }
                    }
                }
                _ => 0,
            }
        } else {
            let mut done = 0;
            if isa.tier() == Tier::Avx512 {
                // SAFETY: an `Avx512` witness means this machine runs
                // AVX-512F; AVX2 and FMA are enabled for this function.
                done = unsafe { value_pairs_avx512(acc, weights, round, groups, gs) };
            }
            if done == 0 {
                // SAFETY: AVX2+FMA are enabled for this function.
                done = unsafe { value_pairs_avx2(acc, weights, round, groups, gs) };
            }
            done
        };
        if done < round.books.len() {
            let vs = acc.len() / round.books.len();
            let rest = ValueRound {
                books: &round.books[done..],
                run: None,
                ..*round
            };
            let acc = &mut acc[done * vs..];
            super::value_accumulate_lanes(acc, weights, &[rest], groups, gs + done);
        }
    }

    /// The value pass at one lane, register-resident the other way
    /// round: the output row's elements side by side in vectors, groups
    /// taken eight at a time (`VS` vectors; their books' pointers stay in
    /// general registers) and the rows streamed once per block — per row a
    /// broadcast of its weight, per code a byte load and the entry's `VS`
    /// floats moved into its group's place, per vector one fused
    /// multiply-add. Returns the groups covered, the whole blocks, having
    /// touched no accumulator past them.
    ///
    /// # Safety
    ///
    /// The CPU has AVX2 and FMA, and every book holds 256 plain `VS`-wide
    /// entries; lengths are asserted here.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn value_row_bytes_avx2<const VS: usize>(
        acc: &mut [f32],
        weights: &[f32],
        codes: &[u8],
        books: &[&Codebook],
        groups: usize,
    ) -> usize {
        const BLOCK: usize = 8;
        let covered = books.len() / BLOCK * BLOCK;
        assert_eq!(acc.len(), books.len() * VS, "acc is span × VS floats");
        let rows = weights.len();
        assert!(
            rows == 0 || covered == 0 || (rows - 1) * groups + covered <= codes.len(),
            "codes cover every row of the blocks"
        );
        for g0 in (0..covered).step_by(BLOCK) {
            let flat: [*const f32; BLOCK] =
                std::array::from_fn(|i| books[g0 + i].entries_flat().as_ptr());
            // SAFETY: AVX2+FMA are enabled for this function. The block's
            // accumulators are floats `[g0·VS, (g0 + BLOCK)·VS)` of `acc`,
            // row `t`'s codes bytes `t·groups + g0 + i` of `codes` (both
            // asserted above); a byte is below 256, so `code·VS + j` lies
            // in its 256 × VS book (the caller's guarantee).
            unsafe {
                let out = acc.as_mut_ptr().add(g0 * VS);
                let mut sums = [_mm256_setzero_ps(); VS];
                for (k, sum) in sums.iter_mut().enumerate() {
                    *sum = _mm256_loadu_ps(out.add(LANES * k));
                }
                for (t, &w) in weights.iter().enumerate() {
                    let w = _mm256_set1_ps(w);
                    let row = codes.as_ptr().add(t * groups + g0);
                    let entry = |i: usize| flat[i].add(usize::from(*row.add(i)) * VS);
                    for (k, sum) in sums.iter_mut().enumerate() {
                        let e = match VS {
                            // Four groups a vector: each entry's pair
                            // broadcast, then blended into its place.
                            2 => {
                                let pair = |i: usize| {
                                    let bits = entry(4 * k + i).cast::<f64>().read_unaligned();
                                    _mm256_castpd_ps(_mm256_set1_pd(bits))
                                };
                                let lo = _mm256_blend_ps::<0b0000_1100>(pair(0), pair(1));
                                let hi = _mm256_blend_ps::<0b1100_0000>(pair(2), pair(3));
                                _mm256_blend_ps::<0b1111_0000>(lo, hi)
                            }
                            4 => _mm256_loadu2_m128(entry(2 * k + 1), entry(2 * k)),
                            _ => _mm256_loadu_ps(entry(k)),
                        };
                        *sum = _mm256_fmadd_ps(w, e, *sum);
                    }
                }
                for (k, sum) in sums.iter().enumerate() {
                    _mm256_storeu_ps(out.add(LANES * k), *sum);
                }
            }
        }
        covered
    }

    /// A vector register of the lane-pair value pass ([`value_pairs`]).
    /// Every method is one instruction (or a load and one) of the tier
    /// whose `#[target_feature]` frame it inlines into.
    trait PairVector: Copy {
        /// f32 lanes.
        const LANES: usize;
        /// All lanes +0.0.
        unsafe fn zero() -> Self;
        /// `LANES` floats from `p`.
        unsafe fn load(p: *const f32) -> Self;
        /// `LANES` floats to `p`.
        unsafe fn store(self, p: *mut f32);
        /// `a · b + c` per lane, one rounding.
        unsafe fn fmadd(a: Self, b: Self, c: Self) -> Self;
        /// The `S` floats at `p` repeated across the lanes.
        unsafe fn entry<const S: usize>(p: *const f32) -> Self;
        /// Vector `k` of a row's lane-pair weights for `S`-wide
        /// sub-entries: lane `l` holds the `W` floats at `w` indexed by
        /// `(k·LANES + l) / S` — each weight repeated `S` times — and +0.0
        /// past the `W`-th.
        unsafe fn weights<const W: usize, const S: usize>(w: *const f32, k: usize) -> Self;
    }

    impl PairVector for __m256 {
        const LANES: usize = LANES;

        #[inline(always)]
        unsafe fn zero() -> Self {
            // SAFETY: the caller's frame has AVX2 (the trait's contract).
            unsafe { _mm256_setzero_ps() }
        }

        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            // SAFETY: AVX2, and `LANES` readable floats at `p` (the
            // caller's contract).
            unsafe { _mm256_loadu_ps(p) }
        }

        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            // SAFETY: AVX2, and `LANES` writable floats at `p`.
            unsafe { _mm256_storeu_ps(p, self) }
        }

        #[inline(always)]
        unsafe fn fmadd(a: Self, b: Self, c: Self) -> Self {
            // SAFETY: the caller's frame has FMA.
            unsafe { _mm256_fmadd_ps(a, b, c) }
        }

        #[inline(always)]
        unsafe fn entry<const S: usize>(p: *const f32) -> Self {
            // SAFETY: AVX2, and `S` readable floats at `p`; each arm
            // reads exactly those.
            unsafe {
                match S {
                    1 => _mm256_set1_ps(*p),
                    2 => _mm256_castpd_ps(_mm256_set1_pd(p.cast::<f64>().read_unaligned())),
                    4 => {
                        let e = _mm_loadu_ps(p);
                        _mm256_set_m128(e, e)
                    }
                    _ => _mm256_loadu_ps(p),
                }
            }
        }

        /// `pair_shape` gives 256-bit vectors one weight vector a row
        /// (`k == 0`, `W·S ≤ 8`): the row itself at eight lanes, each
        /// weight twice at four, twice or four times at two.
        #[inline(always)]
        unsafe fn weights<const W: usize, const S: usize>(w: *const f32, k: usize) -> Self {
            debug_assert!(k == 0 && W * S <= LANES, "one weight vector a row");
            // SAFETY: AVX2, and `W` readable floats at `w`; each arm reads
            // exactly those.
            unsafe {
                match (W, S) {
                    (8, _) => _mm256_loadu_ps(w),
                    (4, _) => {
                        let x = _mm_loadu_ps(w);
                        _mm256_set_m128(_mm_unpackhi_ps(x, x), _mm_unpacklo_ps(x, x))
                    }
                    (_, 2) => {
                        let x = _mm_castpd_ps(_mm_load_sd(w.cast()));
                        _mm256_zextps128_ps256(_mm_unpacklo_ps(x, x))
                    }
                    _ => _mm256_set_m128(_mm_set1_ps(*w.add(1)), _mm_set1_ps(*w)),
                }
            }
        }
    }

    impl PairVector for __m512 {
        const LANES: usize = ZMM_LANES;

        #[inline(always)]
        unsafe fn zero() -> Self {
            // SAFETY: the caller's frame has AVX-512F (the trait's
            // contract).
            unsafe { _mm512_setzero_ps() }
        }

        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            // SAFETY: AVX-512F, and `LANES` readable floats at `p`.
            unsafe { _mm512_loadu_ps(p) }
        }

        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            // SAFETY: AVX-512F, and `LANES` writable floats at `p`.
            unsafe { _mm512_storeu_ps(p, self) }
        }

        #[inline(always)]
        unsafe fn fmadd(a: Self, b: Self, c: Self) -> Self {
            // SAFETY: the caller's frame has AVX-512F.
            unsafe { _mm512_fmadd_ps(a, b, c) }
        }

        #[inline(always)]
        unsafe fn entry<const S: usize>(p: *const f32) -> Self {
            // SAFETY: AVX-512F, and `S` readable floats at `p`; each arm
            // reads exactly those.
            unsafe {
                match S {
                    2 => _mm512_castpd_ps(_mm512_set1_pd(p.cast::<f64>().read_unaligned())),
                    4 => _mm512_broadcast_f32x4(_mm_loadu_ps(p)),
                    _ => _mm512_castpd_ps(_mm512_broadcast_f64x4(_mm256_loadu_pd(p.cast()))),
                }
            }
        }

        #[inline(always)]
        unsafe fn weights<const W: usize, const S: usize>(w: *const f32, k: usize) -> Self {
            let idx: [i32; ZMM_LANES] = std::array::from_fn(|l| ((k * ZMM_LANES + l) / S) as i32);
            // SAFETY: AVX-512F (+ AVX2), and `W` readable floats at `w`;
            // each arm reads exactly those, and `idx` is below 16.
            unsafe {
                let src = match W {
                    8 => _mm512_zextps256_ps512(_mm256_loadu_ps(w)),
                    4 => _mm512_zextps128_ps512(_mm_loadu_ps(w)),
                    _ => _mm512_zextps128_ps512(_mm_castpd_ps(_mm_load_sd(w.cast()))),
                };
                _mm512_permutexvar_ps(_mm512_loadu_si512(idx.as_ptr().cast()), src)
            }
        }
    }

    /// The lane-pair value pass: one round of byte `codes`
    /// (`weights.len() / W` rows of `groups`, from the span's first group)
    /// over plain 256-entry books of `VS`-wide entries, one per group of
    /// the span, read from the arena run `entries` — consecutive books
    /// (`SHARED == false`) or one book all groups share. `acc` and
    /// `weights` are the flattened element-major accumulators
    /// (`span · VS` rows of `W` lanes) and weight rows; `(S, NV, G)` is
    /// [`pair_shape`] for `V`.
    ///
    /// Groups are taken `G` at a time and each block streams the rows
    /// once. A group's accumulators are lane pairs: for each `S`-wide
    /// sub-entry (the whole entry unless `S < VS`) its `W × S` outputs
    /// side by side as `[b][j]`, `NV` vectors in all. Per row: the row's
    /// weights, each repeated `S` times; per code: per sub-entry one
    /// broadcast of its `S` floats — one base address plus a constant
    /// offset per group — and a fused multiply-add per vector. Lane
    /// `b·S + j` of a sub-entry's vectors thus runs output `(j, b)`'s chain
    /// of `weight · entry` multiply-adds in row order, exactly as
    /// element-major accumulators would. The accumulators enter and leave
    /// in `acc`'s element-major layout. A span that is not a multiple of
    /// `G` ends with a block moved back over groups already done, whose
    /// accumulators are recomputed and dropped. Returns the groups covered:
    /// the span, or none — having touched nothing — when it is shorter than
    /// one block.
    ///
    /// # Safety
    ///
    /// The CPU has the instructions `V`'s methods use, and FMA. Lengths
    /// are asserted here.
    #[inline(always)]
    unsafe fn value_pairs<
        V: PairVector,
        const W: usize,
        const VS: usize,
        const S: usize,
        const NV: usize,
        const G: usize,
        const SHARED: bool,
    >(
        acc: &mut [f32],
        weights: &[f32],
        codes: &[u8],
        entries: &[f32],
        groups: usize,
    ) -> usize {
        // Floats of a group's vectors: at most 64 for every shape
        // `pair_shape` gives.
        const PAIR_FLOATS: usize = 64;
        // Vectors per sub-entry, and floats of a sub-entry's vectors.
        let nk = NV / (VS / S);
        let sub_floats = nk * V::LANES;
        assert!(
            NV * V::LANES <= PAIR_FLOATS && sub_floats >= W * S,
            "a group's lane pairs fit its vectors"
        );
        let span = acc.len() / (VS * W);
        if span < G {
            return 0;
        }
        let book = BYTE_ENTRIES * VS;
        let stride = if SHARED { 0 } else { book };
        assert_eq!(acc.len(), span * VS * W, "acc is span × VS rows of W lanes");
        assert_eq!(
            entries.len(),
            if SHARED { book } else { span * book },
            "the run holds the span's books"
        );
        let rows = weights.len() / W;
        assert!(
            rows == 0 || (rows - 1) * groups + span <= codes.len(),
            "codes cover every row of the span"
        );
        // Float `h·sub_floats + b·S + j` of a group's vectors is output
        // `(h·S + j, b)`: element-major float `(h·S + j)·W + b`.
        let element = |p: usize| {
            let (h, q) = (p / sub_floats, p % sub_floats);
            (q < W * S).then(|| (h * S + q % S) * W + q / S)
        };
        let starts = (0..span / G)
            .map(|i| (i * G, 0))
            .chain((!span.is_multiple_of(G)).then_some((span - G, G - span % G)));
        for (g0, redone) in starts {
            // SAFETY: the caller guarantees `V`'s instructions. A group's
            // vectors are `NV · LANES ≤ 64` floats of `pair` (asserted
            // above). Accumulator floats `(g0 + i)·VS·W ..` lie in `acc`
            // (`g0 + G ≤ span`, length asserted above); row `t`'s weights
            // are floats `t·W ..` of `weights`, its codes bytes
            // `t·groups + g0 + i` of `codes` (asserted above); a byte is
            // below 256, so `(g0 + i)·stride + code·VS + j` lies in
            // `entries` (its length asserted above).
            unsafe {
                let base = entries.as_ptr().add(g0 * stride);
                // The accumulators enter and leave through `staged`, whose
                // transposes may stay loops: `sums` itself is only ever
                // indexed by constants once the row loop unrolls, so it
                // lives in registers.
                let mut staged = [[V::zero(); NV]; G];
                for (i, group) in staged.iter_mut().enumerate().skip(redone) {
                    let out = &acc[(g0 + i) * VS * W..][..VS * W];
                    let mut pair = [0.0f32; PAIR_FLOATS];
                    for (p, x) in pair[..NV * V::LANES].iter_mut().enumerate() {
                        if let Some(e) = element(p) {
                            *x = out[e];
                        }
                    }
                    for (k, sum) in group.iter_mut().enumerate() {
                        *sum = V::load(pair.as_ptr().add(k * V::LANES));
                    }
                }
                let mut sums = staged;
                for t in 0..rows {
                    let w = weights.as_ptr().add(t * W);
                    let mut wv = [V::zero(); NV];
                    for (k, v) in wv[..nk].iter_mut().enumerate() {
                        *v = V::weights::<W, S>(w, k);
                    }
                    let row = codes.as_ptr().add(t * groups + g0);
                    for (i, group) in sums.iter_mut().enumerate() {
                        let entry = base.add(i * stride + usize::from(*row.add(i)) * VS);
                        for (h, vectors) in group.chunks_exact_mut(nk).enumerate() {
                            let e = V::entry::<S>(entry.add(h * S));
                            for (sum, &w) in vectors.iter_mut().zip(&wv) {
                                *sum = V::fmadd(w, e, *sum);
                            }
                        }
                    }
                }
                staged = sums;
                for (i, group) in staged.iter().enumerate().skip(redone) {
                    let mut pair = [0.0f32; PAIR_FLOATS];
                    for (k, sum) in group.iter().enumerate() {
                        V::store(*sum, pair.as_mut_ptr().add(k * V::LANES));
                    }
                    let out = &mut acc[(g0 + i) * VS * W..][..VS * W];
                    for (p, &x) in pair[..NV * V::LANES].iter().enumerate() {
                        if let Some(e) = element(p) {
                            out[e] = x;
                        }
                    }
                }
            }
        }
        span
    }

    /// Runs [`value_pairs`] on vector type `$v` for the runtime lane count,
    /// entry width and sharing of `$key = (W, VS, SHARED)`, the layout
    /// [`pair_shape`] derives for the type: 0 (nothing covered) for a
    /// shape the kernel does not take.
    macro_rules! value_pairs_on {
        ($v:ty, $regs:expr; $key:expr; $args:tt) => {
            value_pairs_on!(@ $v, $regs; $key; $args;
                (2, 2) (2, 4) (2, 8) (4, 2) (4, 4) (4, 8) (8, 2) (8, 4) (8, 8))
        };
        (@ $v:ty, $regs:expr; $key:expr; $args:tt; $(($w:literal, $vs:literal))*) => {
            match $key {
                $(
                    ($w, $vs, true) => value_pairs_on!(@arm $v, $regs, $w, $vs, true, $args),
                    ($w, $vs, false) => value_pairs_on!(@arm $v, $regs, $w, $vs, false, $args),
                )*
                _ => 0,
            }
        };
        (@arm $v:ty, $regs:expr, $w:literal, $vs:literal, $shared:literal, ($($a:expr),*)) => {
            value_pairs::<
                $v,
                $w,
                $vs,
                { pair_shape($w, $vs, <$v as PairVector>::LANES, $regs).0 },
                { pair_shape($w, $vs, <$v as PairVector>::LANES, $regs).1 },
                { pair_shape($w, $vs, <$v as PairVector>::LANES, $regs).2 },
                $shared,
            >($($a),*)
        };
    }

    /// What [`value_pairs`] reads of `round`, for `vs`-wide entries from
    /// group `gs`: its byte codes from the span's first group, its arena
    /// run's entries and whether they are one shared book — `None` without
    /// byte codes or a run of 256-entry books.
    fn pair_operands<'a>(
        round: &ValueRound<'a>,
        vs: usize,
        gs: usize,
    ) -> Option<(&'a [u8], &'a [f32], bool)> {
        let codes = round.stream.bytes()?;
        let run = round.run?;
        let shared = match run.stride {
            0 => true,
            s if s == BYTE_ENTRIES * vs => false,
            _ => return None,
        };
        Some((&codes[round.first + gs..], run.entries, shared))
    }

    /// The 256-bit lane-pair value pass ([`value_pairs`]) over `round`'s
    /// span from group `gs`: returns the groups covered, the span or none.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn value_pairs_avx2<const W: usize>(
        acc: &mut [[f32; W]],
        weights: &[[f32; W]],
        round: &ValueRound<'_>,
        groups: usize,
        gs: usize,
    ) -> usize {
        let vs = acc.len() / round.books.len();
        let Some((codes, entries, shared)) = pair_operands(round, vs, gs) else {
            return 0;
        };
        let (acc, weights) = (acc.as_flattened_mut(), weights.as_flattened());
        // SAFETY: AVX2+FMA are enabled for this function; the kernel
        // checks the rest of its contract itself.
        unsafe {
            value_pairs_on!(__m256, YMM_REGISTERS; (W, vs, shared); (acc, weights, codes, entries, groups))
        }
    }

    /// [`value_pairs_avx2`] on 512-bit vectors.
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub unsafe fn value_pairs_avx512<const W: usize>(
        acc: &mut [[f32; W]],
        weights: &[[f32; W]],
        round: &ValueRound<'_>,
        groups: usize,
        gs: usize,
    ) -> usize {
        let vs = acc.len() / round.books.len();
        let Some((codes, entries, shared)) = pair_operands(round, vs, gs) else {
            return 0;
        };
        let (acc, weights) = (acc.as_flattened_mut(), weights.as_flattened());
        // SAFETY: AVX-512F, AVX2 and FMA are enabled for this function;
        // the kernel checks the rest of its contract itself.
        unsafe {
            value_pairs_on!(__m512, ZMM_REGISTERS; (W, vs, shared); (acc, weights, codes, entries, groups))
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn gemm_acc_tile_avx2(
        arows: &[&[f32]; super::GEMM_MR],
        panel: &[f32],
        stride: usize,
        j0: usize,
        kb: usize,
        acc: &mut [[f32; super::GEMM_NR]; super::GEMM_MR],
    ) {
        // SAFETY: caller guarantees AVX2+FMA and that every `arows[p]`
        // covers `kb` and the panel covers the `GEMM_NR`-wide tile at
        // `j0` for all `kb` rows.
        unsafe {
            let mut r: [[__m256; 2]; super::GEMM_MR] = [[_mm256_setzero_ps(); 2]; super::GEMM_MR];
            for ii in 0..kb {
                let p = panel.as_ptr().add(ii * stride + j0);
                let v0 = _mm256_loadu_ps(p);
                let v1 = _mm256_loadu_ps(p.add(8));
                for (q, rq) in r.iter_mut().enumerate() {
                    let av = _mm256_set1_ps(*arows[q].get_unchecked(ii));
                    rq[0] = _mm256_fmadd_ps(av, v0, rq[0]);
                    rq[1] = _mm256_fmadd_ps(av, v1, rq[1]);
                }
            }
            for (q, rq) in r.iter().enumerate() {
                let a0 = _mm256_add_ps(_mm256_loadu_ps(acc[q].as_ptr()), rq[0]);
                let a1 = _mm256_add_ps(_mm256_loadu_ps(acc[q].as_ptr().add(8)), rq[1]);
                _mm256_storeu_ps(acc[q].as_mut_ptr(), a0);
                _mm256_storeu_ps(acc[q].as_mut_ptr().add(8), a1);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
use x86::{
    gemm_acc_tile_avx2, lut_accumulate_lanes_avx2, lut_build_lanes_avx2, softmax_lanes_avx2,
    softmax_lanes_avx512,
};

#[cfg(test)]
mod tests {
    use super::*;
    use vqllm_vq::{CodebookScope, CodebookSet, VqConfig};

    fn series(n: usize, phase: f32) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * phase).sin()).collect()
    }

    /// Bit patterns, so NaN slots and the sign of zero compare too.
    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// One LUT-build loop called by name: `(gslab, inter, xt)`.
    type LutBuild = unsafe fn(&mut [f32], &[f32], &[f32]);

    /// `lut_batch_build`'s loop at `W` lanes on `isa`'s tier.
    fn lut_build_on<const W: usize>(isa: Isa) -> LutBuild {
        match isa.tier() {
            Tier::Portable => lut_build_lanes::<W>,
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 | Tier::Avx512 => lut_build_lanes_avx2::<W>,
        }
    }

    #[test]
    fn lut_batch_build_is_the_per_slot_axpy_chain() {
        // Bitwise a zeroed slot, then one fused `e · x + s` per sub-vector
        // element — at every lane-block width, dispatched and on every
        // tier by name. Zero centroid elements (one of each sign, and a
        // whole zero entry) meet an infinite and a NaN activation lane: the
        // chain skips them, so those slots stay finite and +0.0 stays +0.0.
        let (stored, vs) = (19usize, 3usize);
        let mut inter = series(vs * stored, 0.29);
        inter[stored + 4] = 0.0;
        inter[2 * stored + 7] = -0.0;
        for j in 0..vs {
            inter[j * stored + 11] = 0.0;
        }
        for w in 1..=LANES {
            let mut xt = series(vs * w, 0.37);
            xt[w] = f32::INFINITY;
            xt[2 * w + (w - 1)] = f32::NAN;
            let mut want = vec![0.0f32; stored * w];
            for c in 0..stored {
                for j in 0..vs {
                    let e = inter[j * stored + c];
                    let xj = &xt[j * w..(j + 1) * w];
                    if e != 0.0 {
                        for (o, &x) in want[c * w..(c + 1) * w].iter_mut().zip(xj) {
                            *o = e.mul_add(x, *o);
                        }
                    }
                }
            }
            assert!(want[11 * w..12 * w].iter().all(|s| s.to_bits() == 0));
            // Stale contents must be overwritten, not accumulated into.
            let mut got = vec![7.0f32; stored * w];
            lut_batch_build(&mut got, &inter, &xt, w);
            assert_eq!(bits(&got), bits(&want), "w {w}");
            for isa in Isa::every() {
                let build = with_lanes!(w, lut_build_on; isa);
                let mut got = vec![7.0f32; stored * w];
                // SAFETY: the loop's tier is `isa`'s, which this machine runs.
                unsafe { build(&mut got, &inter, &xt) };
                assert_eq!(bits(&got), bits(&want), "w {w} {}", isa.name());
            }
        }
    }

    /// `lut_batch_accumulate` at `W` lanes against `y[row] += lut[code]`
    /// one code at a time in group order: row counts that are not
    /// multiples of the row block, group blocks from one group to the
    /// whole row, on the dispatched tier and the scalar one — with 16
    /// stored entries (codes widened through `unpack_block`) and with 256
    /// (codes read as bytes of the stream, every byte value among them).
    fn accumulate_is_the_per_code_add_chain<const W: usize>() {
        let groups = 64usize;
        let lanes = |xs: Vec<f32>| -> Vec<[f32; W]> {
            xs.chunks_exact(W)
                .map(|c| c.try_into().expect("W lanes"))
                .collect()
        };
        for stored in [16usize, BYTE_ENTRIES] {
            let lut = lanes(series(groups * stored * W, 0.013));
            for rows in 0..=9usize {
                // One leading row the kernel must skip (`first` > 0).
                let codes: Vec<u32> = (0..(rows + 1) * groups)
                    .map(|i| (i as u32).wrapping_mul(2654435761).rotate_left(9) % stored as u32)
                    .collect();
                let stream = PackedIndices::pack(&codes, 8).unwrap();
                assert!(stream.as_bytes().is_some());
                let start = lanes(series(rows * W, 0.71));
                let mut want = start.clone();
                for (row, yrow) in want.iter_mut().enumerate() {
                    for g in 0..groups {
                        let code = codes[(row + 1) * groups + g] as usize;
                        for (o, &v) in yrow.iter_mut().zip(&lut[g * stored + code]) {
                            *o += v;
                        }
                    }
                }
                let rc = RowCodes {
                    stream: CodeSource::Packed(&stream),
                    first: groups,
                    groups,
                };
                for gb in [1usize, 2, 17, 64] {
                    let mut got = start.clone();
                    lut_batch_accumulate(&mut got, &lut, stored, rc, gb);
                    assert_eq!(got, want, "W {W} stored {stored} rows {rows} gb {gb}");
                    let mut got = start.clone();
                    lut_accumulate_lanes(&mut got, &lut, stored, rc, gb);
                    assert_eq!(
                        got, want,
                        "W {W} stored {stored} rows {rows} gb {gb} scalar"
                    );
                }
            }
        }
    }

    #[test]
    fn lut_batch_accumulate_is_the_per_code_add_chain() {
        accumulate_is_the_per_code_add_chain::<1>();
        accumulate_is_the_per_code_add_chain::<2>();
        accumulate_is_the_per_code_add_chain::<4>();
        accumulate_is_the_per_code_add_chain::<8>();
    }

    /// Distance in units in the last place between `got` and the exact
    /// `want`.
    fn ulps(got: f32, want: f64) -> f64 {
        let near = want as f32;
        let ulp = f64::from(f32::from_bits(near.to_bits() + 1)) - f64::from(near);
        (f64::from(got) - want).abs() / ulp
    }

    /// `exp_lanes` at `W` lanes compiled for AVX2 + FMA, as the softmax
    /// tiers compile it.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn exp_lanes_avx2<const W: usize>(x: [f32; W]) -> [f32; W] {
        exp_lanes(x)
    }

    /// One `exp_lanes` called by name.
    type ExpLanes<const W: usize> = unsafe fn([f32; W]) -> [f32; W];

    /// `exp_lanes` at `W` lanes on `isa`'s tier.
    fn exp_on<const W: usize>(isa: Isa) -> ExpLanes<W> {
        match isa.tier() {
            Tier::Portable => exp_lanes::<W>,
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 | Tier::Avx512 => exp_lanes_avx2::<W>,
        }
    }

    /// `exp(x)` on every tier the machine has, by name.
    fn exp_on_tiers(x: f32) -> impl Iterator<Item = (&'static str, f32)> {
        Isa::every().map(move |isa| {
            // SAFETY: the body's tier is `isa`'s, which this machine runs.
            (isa.name(), unsafe { exp_on::<1>(isa)([x]) }[0])
        })
    }

    #[test]
    fn exp_is_within_two_ulp_on_the_softmax_range() {
        // Every 4099th float of [EXP_CUTOFF, -0.0] (≈ 270 k of them), on
        // each tier by name, against `f64::exp`.
        let mut bits = EXP_CUTOFF.to_bits();
        let mut worst = 0.0f64;
        while bits >= (-0.0f32).to_bits() {
            let x = f32::from_bits(bits);
            let want = f64::from(x).exp();
            for (name, got) in exp_on_tiers(x) {
                let err = ulps(got, want);
                assert!(
                    err <= 2.0,
                    "{name}: exp({x}) = {got}, {err} ulp from {want}"
                );
                worst = worst.max(err);
            }
            bits = bits.saturating_sub(4099);
        }
        assert!(worst > 0.0, "the sweep ran");
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        assert!(
            exp(EXP_CUTOFF) >= f32::MIN_POSITIVE,
            "normal at the cut-off"
        );
        // Below the cut-off — the -inf that masks a row past a lane's
        // prefix included — exactly +0.0.
        let below = f32::from_bits(EXP_CUTOFF.to_bits() + 1);
        for x in [below, -88.0, -1000.0, f32::MIN, f32::NEG_INFINITY] {
            assert_eq!(exp(x).to_bits(), 0, "exp({x})");
            for (name, got) in exp_on_tiers(x) {
                assert_eq!(got.to_bits(), 0, "{name}: exp({x})");
            }
        }
    }

    /// Checks `exp` of `x` sitting in lane `b` of `W` with `fill`
    /// everywhere else against `want`, on each tier by name.
    fn exp_in_lane<const W: usize>(x: f32, b: usize, fill: f32, want: u32) {
        let mut lanes = [fill; W];
        lanes[b] = x;
        for isa in Isa::every() {
            // SAFETY: the body's tier is `isa`'s, which this machine runs.
            let got = unsafe { exp_on::<W>(isa)(lanes) }[b].to_bits();
            assert_eq!(got, want, "{}: x {x} lane {b}/{W}", isa.name());
        }
    }

    #[test]
    fn exp_bits_depend_on_the_element_alone() {
        // The same input gives the same bits on every tier, at every width,
        // in every lane position, beside every kind of neighbour (a masked
        // slot's -inf, a padded slot's 0, an ordinary score).
        let xs = series(257, 0.37)
            .into_iter()
            .map(|s| (s - 1.0) * 44.0)
            .chain([0.0, EXP_CUTOFF, -87.4, f32::NEG_INFINITY]);
        for x in xs {
            let want = exp(x).to_bits();
            for fill in [f32::NEG_INFINITY, 0.0, -3.25] {
                for b in 0..LANES {
                    exp_in_lane::<8>(x, b, fill, want);
                    if b < 4 {
                        exp_in_lane::<4>(x, b, fill, want);
                    }
                    if b < 2 {
                        exp_in_lane::<2>(x, b, fill, want);
                    }
                }
                exp_in_lane::<1>(x, 0, fill, want);
            }
        }
    }

    /// Lane `b`'s softmax over `ctx` (its context scores) and `ext` (its
    /// private ones), alone in a one-lane block: `(numerators, sum)` bits.
    fn softmax_solo(ctx: &[f32], ext: &[f32], scale: f32) -> (Vec<u32>, u32) {
        let mut scores: Vec<[f32; 1]> = ctx.iter().map(|&s| [s]).collect();
        let mut ext = ext.to_vec();
        let sum = softmax_lanes(&mut scores, &[ctx.len()], scale, [&mut ext[..]]);
        let ctx_bits = scores.iter().map(|s| s[0].to_bits());
        (
            ctx_bits.chain(ext.iter().map(|e| e.to_bits())).collect(),
            sum[0].to_bits(),
        )
    }

    #[test]
    fn softmax_lanes_is_the_scalar_statement_per_lane() {
        // Eight lanes of different prefix lengths — a padded slot (nothing
        // to attend) and a lane living on its private rows alone among them
        // — against the plain scalar loops, and against each lane alone in
        // a block of one.
        let rows = 37usize;
        let scale = 0.125f32;
        let lens = [37usize, 1, 0, 20, 36, 5, 0, 19];
        let ext_lens = [3usize, 0, 0, 9, 1, 2, 4, 0];
        let raw = series(rows * LANES, 0.41);
        let mut scores: Vec<[f32; LANES]> = raw
            .chunks_exact(LANES)
            .map(|c| std::array::from_fn(|b| c[b] * 40.0))
            .collect();
        let start = scores.clone();
        let mut exts: Vec<Vec<f32>> = ext_lens
            .iter()
            .enumerate()
            .map(|(b, &n)| series(n, 0.3 + b as f32).iter().map(|s| s * 50.0).collect())
            .collect();
        let ext_start = exts.clone();
        let mut ext_refs = exts.iter_mut();
        let lane_exts: [&mut [f32]; LANES] =
            std::array::from_fn(|_| ext_refs.next().expect("eight lanes").as_mut_slice());
        let sums = softmax_lanes(&mut scores, &lens, scale, lane_exts);
        for b in 0..LANES {
            let ctx: Vec<f32> = start[..lens[b]].iter().map(|row| row[b]).collect();
            let all: Vec<f32> = ctx.iter().chain(&ext_start[b]).map(|s| s * scale).collect();
            let got: Vec<u32> = scores
                .iter()
                .map(|row| row[b])
                .chain(exts[b].iter().copied())
                .map(f32::to_bits)
                .collect();
            if all.is_empty() {
                assert!(got.iter().all(|&e| e == 0), "padded lane {b} is all +0.0");
                assert_eq!(sums[b].to_bits(), 0);
                continue;
            }
            let max = all.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            let mut want = Vec::new();
            for (t, &s) in all.iter().enumerate() {
                if t == ctx.len() {
                    // Rows past the prefix: exact zeros, adding nothing.
                    want.extend(std::iter::repeat_n(0u32, rows - ctx.len()));
                }
                let e = exp(s - max);
                sum += e;
                want.push(e.to_bits());
            }
            if ext_start[b].is_empty() {
                want.extend(std::iter::repeat_n(0u32, rows - ctx.len()));
            }
            assert_eq!(got, want, "lane {b}");
            assert_eq!(sums[b].to_bits(), sum.to_bits(), "lane {b} sum");
            // And alone: no zero rows behind the prefix, same bits.
            let (solo, solo_sum) = softmax_solo(&ctx, &ext_start[b], scale);
            let attended: Vec<u32> = got[..ctx.len()]
                .iter()
                .chain(&got[rows..])
                .copied()
                .collect();
            assert_eq!(attended, solo, "lane {b} solo");
            assert_eq!(sums[b].to_bits(), solo_sum, "lane {b} solo sum");
        }
    }

    /// `value_accumulate` at `W` lanes — the intrinsic kernel where the
    /// tier and shape select it — and the lane-array body, both
    /// against the plain per-element chain of fused multiply-adds.
    fn value_is_one_chain_per_output<const W: usize>() {
        let rows = 23usize;
        for vs in [2usize, 4, 8, 3] {
            // Spans of whole blocks, with a remainder, and shorter than one
            // (one lane: the row kernel's blocks of eight groups, then the
            // lane-array body on the rest).
            for (groups, gs, span) in [
                (16usize, 0usize, 16usize),
                (16, 3, 7),
                (16, 14, 2),
                (24, 3, 13),
            ] {
                let scope = CodebookScope::PerChannelGroup { channels: vs };
                let (set, stream) = scoped_fixture(scope, vs, groups, rows);
                let book_refs = set.row_books(0, 0, gs..gs + span);
                let round = ValueRound {
                    stream: CodeSource::Packed(&stream),
                    first: groups,
                    books: &book_refs,
                    run: set.book_run(0, 0, gs..gs + span),
                };
                let weights: Vec<[f32; W]> = series(rows * W, 0.23)
                    .chunks_exact(W)
                    .map(|c| c.try_into().unwrap())
                    .collect();
                let start: Vec<[f32; W]> = series(span * vs * W, 0.57)
                    .chunks_exact(W)
                    .map(|c| c.try_into().unwrap())
                    .collect();
                let mut want = start.clone();
                for (t, w) in weights.iter().enumerate() {
                    for i in 0..span {
                        let code = stream.get((t + 1) * groups + gs + i) as usize;
                        let entry = set.book(0, gs + i).stored_entry(code);
                        for (j, &e) in entry.iter().enumerate() {
                            for (o, &wb) in want[i * vs + j].iter_mut().zip(w) {
                                *o = wb.mul_add(e, *o);
                            }
                        }
                    }
                }
                let mut got = start.clone();
                value_accumulate(&mut got, &weights, &[round], groups, gs);
                assert_eq!(got, want, "W {W} vs {vs} span {gs}+{span}");
                let mut body = start.clone();
                value_accumulate_lanes(&mut body, &weights, &[round], groups, gs);
                assert_eq!(body, want, "W {W} vs {vs} span {gs}+{span} lane body");
            }
        }
    }

    #[test]
    fn value_accumulate_is_one_chain_per_output() {
        value_is_one_chain_per_output::<1>();
        value_is_one_chain_per_output::<2>();
        value_is_one_chain_per_output::<4>();
        value_is_one_chain_per_output::<8>();
    }

    /// One value-pass kernel called by name: `(acc, weights, round,
    /// groups, gs) → groups covered`.
    type ValueKernel<const W: usize> =
        unsafe fn(&mut [[f32; W]], &[[f32; W]], &ValueRound<'_>, usize, usize) -> usize;

    /// The lane-pair kernel of `isa`'s tier by name, with its vector width
    /// in `f32`; none on the portable tier, whose lane-array body is what
    /// the kernels are checked against.
    fn pair_kernel<const W: usize>(isa: Isa) -> Option<(&'static str, usize, ValueKernel<W>)> {
        match isa.tier() {
            Tier::Portable => None,
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => Some(("lane-pair 256", LANES, x86::value_pairs_avx2::<W>)),
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => Some(("lane-pair 512", ZMM_LANES, x86::value_pairs_avx512::<W>)),
        }
    }

    /// Groups a lane-pair block of `vs`-wide entries takes at `W` lanes on
    /// vectors of `lanes` f32.
    fn pair_block_of<const W: usize>(vs: usize, lanes: usize) -> usize {
        let registers = if lanes == ZMM_LANES {
            ZMM_REGISTERS
        } else {
            YMM_REGISTERS
        };
        pair_shape(W, vs, lanes, registers).2
    }

    /// Runs every lane-pair kernel the machine has on `round` and checks it
    /// against the lane-array body, bit for bit:
    /// a kernel covers the whole span when it has a run and the span is at
    /// least `block` groups long (with the block moved back over a
    /// remainder), and otherwise touches nothing.
    fn assert_pair_tiers<const W: usize>(
        start: &[[f32; W]],
        weights: &[[f32; W]],
        round: ValueRound<'_>,
        groups: usize,
        gs: usize,
        what: &str,
    ) {
        let span = round.books.len();
        let mut want = start.to_vec();
        value_accumulate_lanes(&mut want, weights, &[round], groups, gs);
        let vs = start.len() / span;
        for (name, lanes, kernel) in Isa::every().filter_map(pair_kernel::<W>) {
            let mut got = start.to_vec();
            // SAFETY: the kernel's tier is one this machine runs.
            let done = unsafe { kernel(&mut got, weights, &round, groups, gs) };
            let covers = round.run.is_some() && span >= pair_block_of::<W>(vs, lanes);
            assert_eq!(done, if covers { span } else { 0 }, "{name}: {what}");
            let want = if covers { &want[..] } else { start };
            assert_eq!(got, want, "{name}: {what}");
        }
    }

    /// `n` rows of `W` lanes from a phase-shifted sine.
    fn lane_rows<const W: usize>(n: usize, phase: f32) -> Vec<[f32; W]> {
        series(n * W, phase)
            .chunks_exact(W)
            .map(|c| c.try_into().expect("W lanes"))
            .collect()
    }

    /// A set of 256-entry `vs`-wide books under `scope` over `rows ×
    /// groups·vs`, and one more row of byte codes than `rows` (the first,
    /// skipped by the rounds).
    fn scoped_fixture(
        scope: CodebookScope,
        vs: usize,
        groups: usize,
        rows: usize,
    ) -> (CodebookSet, PackedIndices) {
        let cfg = VqConfig::new(vs, 256, 1, scope).unwrap();
        let shape = (rows + 1, groups * vs);
        let books = (0..CodebookSet::num_scopes(&cfg, shape))
            .map(|s| Codebook::new(series(BYTE_ENTRIES * vs, 0.13 + s as f32), vs, false).unwrap())
            .collect();
        let codes: Vec<u32> = (0..shape.0 * groups)
            .map(|i| (i as u32).wrapping_mul(2654435761).rotate_left(7) % 256)
            .collect();
        (
            CodebookSet::new(cfg, shape, vec![books]).unwrap(),
            PackedIndices::pack(&codes, 8).unwrap(),
        )
    }

    /// The lane-pair kernels at `W` lanes against the lane-array
    /// body, bit for bit, per entry width: spans of whole blocks, a
    /// moved-back remainder and one group short of a block (each tier's
    /// block), over consecutive, shared and run-less books; then a
    /// per-tile range across tile edges, cut at them.
    fn value_tiers_agree<const W: usize>() {
        let rows = 23usize;
        let weights = lane_rows::<W>(rows, 0.23);
        for vs in [2usize, 4, 8] {
            let blocks = [LANES, ZMM_LANES].map(|lanes| pair_block_of::<W>(vs, lanes));
            // Per block width: whole blocks, a moved-back remainder, and
            // one group short of a block.
            let mut spans: Vec<usize> = blocks
                .iter()
                .flat_map(|&g| [g, 2 * g, 2 * g + 3, g - 1])
                .filter(|&n| n > 0)
                .collect();
            spans.sort_unstable();
            spans.dedup();
            for span in spans {
                let (gs, groups) = (3, span + 5);
                let scopes = [
                    (
                        "consecutive",
                        CodebookScope::PerChannelGroup { channels: vs },
                        true,
                    ),
                    ("shared", CodebookScope::PerTensor, true),
                    (
                        "two groups a book",
                        CodebookScope::PerChannelGroup { channels: 2 * vs },
                        false,
                    ),
                ];
                for (kind, scope, has_run) in scopes {
                    let (set, stream) = scoped_fixture(scope, vs, groups, rows);
                    let books = set.row_books(0, 0, gs..gs + span);
                    let run = set.book_run(0, 0, gs..gs + span);
                    assert_eq!(run.is_some(), has_run || span <= 2, "{kind} run");
                    let round = ValueRound {
                        stream: CodeSource::Packed(&stream),
                        first: groups,
                        books: &books,
                        run,
                    };
                    let start = lane_rows::<W>(span * vs, 0.57);
                    let what = format!("W {W} vs {vs} span {span} {kind}");
                    assert_pair_tiers(&start, &weights, round, groups, gs, &what);
                }
            }
        }
        // Per-tile books: a range across a tile edge has no run; cut at the
        // edge, each piece is one shared book, on every tier the same
        // chains as the lane-array body over the whole range.
        for vs in [2usize, 4, 8] {
            let tile = 2 * pair_block_of::<W>(vs, LANES).max(pair_block_of::<W>(vs, ZMM_LANES));
            let groups = 3 * tile;
            let scope = CodebookScope::PerTile {
                rows: rows + 1,
                cols: tile * vs,
            };
            let (set, stream) = scoped_fixture(scope, vs, groups, rows);
            let (gs, ge) = (tile / 2, 2 * tile + 3);
            assert_eq!(set.book_run(0, 1, gs..ge), None, "a run across tile edges");
            let start = lane_rows::<W>((ge - gs) * vs, 0.61);
            let all_books = set.row_books(0, 1, gs..ge);
            let whole = ValueRound {
                stream: CodeSource::Packed(&stream),
                first: groups,
                books: &all_books,
                run: None,
            };
            let mut want = start.clone();
            value_accumulate_lanes(&mut want, &weights, &[whole], groups, gs);
            for (name, _, kernel) in Isa::every().filter_map(pair_kernel::<W>) {
                let mut got = start.clone();
                for (ps, pe) in [(gs, tile), (tile, 2 * tile), (2 * tile, ge)] {
                    let books = set.row_books(0, 1, ps..pe);
                    let piece = ValueRound {
                        books: &books,
                        run: set.book_run(0, 1, ps..pe),
                        ..whole
                    };
                    assert_eq!(piece.run.map(|r| r.stride), Some(0), "one book a tile");
                    let acc = &mut got[(ps - gs) * vs..(pe - gs) * vs];
                    // SAFETY: the kernel's tier is one this machine runs.
                    let done = unsafe { kernel(acc, &weights, &piece, groups, ps) };
                    if done == 0 {
                        value_accumulate_lanes(acc, &weights, &[piece], groups, ps);
                    }
                }
                assert_eq!(got, want, "{name}: W {W} vs {vs} per-tile pieces");
            }
        }
    }

    #[test]
    fn value_tiers_agree_bit_for_bit() {
        value_tiers_agree::<2>();
        value_tiers_agree::<4>();
        value_tiers_agree::<8>();
    }

    #[test]
    fn value_tiers_agree_at_serving_size() {
        // A 2048-token CQ-4 cache of head_dim 128, eight lanes: every block
        // loop of every tier takes many trips.
        let (rows, groups, vs) = (2048usize, 64usize, 2usize);
        let scope = CodebookScope::PerChannelGroup { channels: vs };
        let (set, stream) = scoped_fixture(scope, vs, groups, rows);
        let books = set.row_books(0, 0, 0..groups);
        let round = ValueRound {
            stream: CodeSource::Packed(&stream),
            first: groups,
            books: &books,
            run: set.book_run(0, 0, 0..groups),
        };
        let weights = lane_rows::<8>(rows, 0.0071);
        let start = vec![[0.0f32; 8]; groups * vs];
        assert_pair_tiers(&start, &weights, round, groups, 0, "2048x128 CQ-4");
    }

    /// One softmax body called by name, [`softmax_lanes`]'s signature.
    type SoftmaxBody<const W: usize> =
        unsafe fn(&mut [[f32; W]], &[usize; W], f32, [&mut [f32]; W]) -> [f32; W];

    /// Softmax bodies of `isa`'s tier by name: on the portable tier the
    /// scalar body one row a vector and sixteen lanes a vector (the
    /// row-slot logic, on any machine).
    fn softmax_bodies<const W: usize>(isa: Isa) -> Vec<(&'static str, SoftmaxBody<W>)> {
        match isa.tier() {
            Tier::Portable => vec![
                ("scalar, a row a vector", softmax_lanes_body::<W, W>),
                (
                    "scalar, 16 lanes a vector",
                    softmax_lanes_body::<W, ZMM_LANES>,
                ),
            ],
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => vec![("avx2", softmax_lanes_avx2::<W>)],
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => vec![("avx512", softmax_lanes_avx512::<W>)],
        }
    }

    /// Every softmax body at `W` lanes on the same buffers, bit for bit
    /// against the first one's result: row counts odd, even and past a
    /// vector, prefixes ending mid-pair, a padded lane, a ±0 tie at a
    /// lane's maximum and a NaN score.
    fn softmax_tiers_agree<const W: usize>() {
        let bodies: Vec<_> = Isa::every().flat_map(softmax_bodies::<W>).collect();
        let scale = 0.125f32;
        for rows in [0usize, 1, 2, 3, 15, 16, 17, 37] {
            let mut scores: Vec<[f32; W]> = lane_rows::<W>(rows, 0.41)
                .into_iter()
                .map(|r| r.map(|s| s * 40.0 - 20.0))
                .collect();
            // Lane 0: a ±0 tie at its maximum. The last lane: a NaN score.
            for row in scores.iter_mut() {
                row[0] = -row[0].abs();
            }
            if rows >= 3 {
                scores[0][0] = -0.0;
                scores[rows / 2][0] = 0.0;
                scores[rows - 1][0] = -0.0;
                scores[rows / 3][W - 1] = f32::NAN;
            }
            // Prefixes: the whole buffer, one row short (mid-pair), a
            // padded lane, half of it.
            let lens: [usize; W] = std::array::from_fn(|b| match b % 4 {
                0 => rows,
                1 => rows.saturating_sub(1),
                2 if b == 2 => 0,
                _ => rows / 2 + 1,
            });
            let ext_lens: [usize; W] = std::array::from_fn(|b| if b == 2 { 0 } else { b % 3 });
            let exts: Vec<Vec<f32>> = ext_lens
                .iter()
                .enumerate()
                .map(|(b, &n)| {
                    series(n, 0.7 + b as f32)
                        .iter()
                        .map(|s| s * 30.0 - 10.0)
                        .collect()
                })
                .collect();
            let mut want: Option<(Vec<u32>, Vec<u32>)> = None;
            for (name, body) in &bodies {
                let mut got = scores.clone();
                let mut got_ext = exts.clone();
                let mut refs = got_ext.iter_mut();
                let lane_exts: [&mut [f32]; W] =
                    std::array::from_fn(|_| refs.next().expect("W lanes").as_mut_slice());
                // SAFETY: the body's tier is one this machine runs.
                let sums = unsafe { body(&mut got, &lens, scale, lane_exts) };
                let out: Vec<u32> = got
                    .as_flattened()
                    .iter()
                    .chain(got_ext.concat().iter())
                    .map(|x| x.to_bits())
                    .collect();
                let result = (out, sums.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
                match &want {
                    None => want = Some(result),
                    Some(want) => assert_eq!(&result, want, "{name}: W {W} rows {rows}"),
                }
            }
        }
    }

    #[test]
    fn softmax_tiers_agree_bit_for_bit() {
        softmax_tiers_agree::<1>();
        softmax_tiers_agree::<2>();
        softmax_tiers_agree::<4>();
        softmax_tiers_agree::<8>();
    }

    /// One GeMM tile called by name, [`gemm_acc_tile`]'s signature.
    type GemmTile =
        unsafe fn(&[&[f32]; GEMM_MR], &[f32], usize, usize, usize, &mut [[f32; GEMM_NR]; GEMM_MR]);

    /// The GeMM tile on `isa`'s tier.
    fn gemm_tile_on(isa: Isa) -> GemmTile {
        match isa.tier() {
            Tier::Portable => gemm_acc_tile_scalar,
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 | Tier::Avx512 => gemm_acc_tile_avx2,
        }
    }

    #[test]
    fn gemm_tile_matches_naive_triple_loop() {
        // Depths 0, 1, 11 and 37 onto a nonzero `acc`, both tile columns
        // of a two-tile panel: near the exact sums, and bit for bit one
        // chain of fused multiply-adds from +0.0 per element, added to
        // `acc` once — dispatched and on each tier by name.
        let stride = 2 * GEMM_NR;
        let start: [[f32; GEMM_NR]; GEMM_MR] =
            std::array::from_fn(|p| std::array::from_fn(|l| ((p * GEMM_NR + l) as f32).cos()));
        for kb in [0usize, 1, 11, 37] {
            let panel = series(kb * stride, 0.21);
            let a: Vec<Vec<f32>> = (0..GEMM_MR)
                .map(|p| series(kb, 0.31 + p as f32 * 0.07))
                .collect();
            let arows: [&[f32]; GEMM_MR] = std::array::from_fn(|p| a[p].as_slice());
            for j0 in [0, GEMM_NR] {
                let want: [[f32; GEMM_NR]; GEMM_MR] = std::array::from_fn(|p| {
                    std::array::from_fn(|l| {
                        let chain = (0..kb).fold(0.0f32, |s, ii| {
                            arows[p][ii].mul_add(panel[ii * stride + j0 + l], s)
                        });
                        start[p][l] + chain
                    })
                });
                let mut got = start;
                gemm_acc_tile(&arows, &panel, stride, j0, kb, &mut got);
                for p in 0..GEMM_MR {
                    for l in 0..GEMM_NR {
                        let naive: f64 = (0..kb)
                            .map(|ii| f64::from(arows[p][ii] * panel[ii * stride + j0 + l]))
                            .sum();
                        let err = f64::from(got[p][l]) - (f64::from(start[p][l]) + naive);
                        assert!(err.abs() < 1e-4, "kb {kb} p {p} l {l} j0 {j0}");
                    }
                }
                let want = bits(want.as_flattened());
                assert_eq!(bits(got.as_flattened()), want, "kb {kb} j0 {j0}");
                for isa in Isa::every() {
                    let mut got = start;
                    // SAFETY: the tile's tier is `isa`'s, which this machine
                    // runs; the panel covers the tile at every depth.
                    unsafe { gemm_tile_on(isa)(&arows, &panel, stride, j0, kb, &mut got) };
                    let got = bits(got.as_flattened());
                    assert_eq!(got, want, "{}: kb {kb} j0 {j0}", isa.name());
                }
            }
        }
    }

    #[test]
    fn tier_is_reported() {
        // On x86_64 CI this exercises the AVX2 or AVX-512 path; elsewhere
        // the scalar tier. Either way the selection is stable across calls.
        assert_eq!(tier(), tier());
        assert!(["avx512f", "avx2+fma", "scalar-8w"].contains(&tier()));
    }
}
