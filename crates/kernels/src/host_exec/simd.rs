//! SIMD-wide inner loops for the host kernels.
//!
//! Every primitive here ships two tiers behind one safe entry point:
//!
//! * an **AVX2 + FMA** path (`#[cfg(target_arch = "x86_64")]`, selected at
//!   runtime via `is_x86_feature_detected!`, which caches the CPUID
//!   probe), and
//! * a **scalar** fallback restructured into 8-wide unrolled accumulator
//!   lanes so LLVM's autovectorizer reliably emits packed math on any
//!   target (and out-of-order cores get independent dependency chains even
//!   when it does not).
//!
//! The primitives are exactly the inner loops of
//! [`host_exec`](crate::host_exec): contiguous dot products and AXPYs
//! (interleaved-codebook expansions), the panel body's GeMM micro-kernel
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
//!   through one polynomial [`exp`] whose bits depend on the element alone;
//! * [`value_accumulate`] — the value pass (attention's V side, and the
//!   linear layer with the batch as lanes): per packed code, `vector_size`
//!   broadcast multiply-adds from the codebook entry straight into `W`-lane
//!   accumulators — at one lane (a solo query, a private extension) the
//!   output row itself packed into vectors. No row is ever decoded to
//!   memory.
//!
//! The generic loops are written once, as `#[inline(always)]` bodies over
//! const lane counts, and compiled twice: the AVX2 entry is a
//! `#[target_feature]` function the body inlines into, so the tier is
//! picked once per call, not once per packed code. Only the value pass has
//! hand-written intrinsic kernels beside its lane-array body (the body
//! alone left the accumulators in memory) — one for lane blocks, one for a
//! single lane; all three run the same chain of fused multiply-adds.

use super::CodeStream;
use vqllm_vq::{Codebook, PackedIndices};

/// Width of the accumulator-lane unroll (one AVX2 register of f32).
pub const LANES: usize = 8;

/// Rows of A per GeMM micro-kernel tile: 6 rows × two 8-wide vectors fills
/// 12 of the 16 AVX registers with accumulators, leaving room for the two
/// panel vectors and the broadcast.
pub const GEMM_MR: usize = 6;
/// Output columns per GeMM micro-kernel tile (two 8-wide vectors).
pub const GEMM_NR: usize = 16;

/// Whether the AVX2 + FMA tier is selected on this machine.
#[inline]
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        // std caches the CPUID probe; this is a load + test after the
        // first call.
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Human-readable name of the selected tier (for reports/benches).
pub fn tier() -> &'static str {
    if avx2_available() {
        "avx2+fma"
    } else {
        "scalar-8w"
    }
}

/// Dense dot product `Σ a[i]·b[i]`.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot operand lengths");
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2+FMA presence was just verified.
        return unsafe { dot_avx2(a, b) };
    }
    dot_scalar(a, b)
}

fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    let mut lanes = [0.0f32; LANES];
    let chunks = a.len() / LANES;
    for i in 0..chunks {
        let (xa, xb) = (&a[i * LANES..][..LANES], &b[i * LANES..][..LANES]);
        for l in 0..LANES {
            lanes[l] += xa[l] * xb[l];
        }
    }
    let mut acc = lanes.iter().sum::<f32>();
    for i in chunks * LANES..a.len() {
        acc += a[i] * b[i];
    }
    acc
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
/// written once; the AVX2 tier fuses the multiply-add, the scalar tier
/// does not — per tier, a lane rounds the same way whatever block it sits
/// in (the serving scheduler's parity contract).
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
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2+FMA presence was just verified.
        unsafe { with_lanes!(w, lut_build_lanes_avx2; gslab, inter, xt) };
        return;
    }
    with_lanes!(w, lut_build_lanes, false; gslab, inter, xt);
}

/// Slots whose sums [`lut_batch_build`] holds in registers at once: enough
/// independent chains to hide the multiply-add latency, and one vector of
/// consecutive entries when a slot is a single lane.
const LUT_SLOT_BLOCK: usize = 8;

#[inline(always)]
fn lut_build_lanes<const W: usize, const FMA: bool>(gslab: &mut [f32], inter: &[f32], xt: &[f32]) {
    const N: usize = LUT_SLOT_BLOCK;
    let stored = gslab.len() / W;
    // A book rarely holds an exact zero, and without one no step is ever
    // skipped: the loops below then run without the test.
    let dense = inter.iter().map(|&e| u32::from(e == 0.0)).sum::<u32>() == 0;
    let mut blocks = gslab.chunks_exact_mut(N * W);
    let mut c = 0;
    for slots in &mut blocks {
        lut_build_slots::<W, FMA, N>(slots, inter, xt, stored, c, dense);
        c += N;
    }
    for slot in blocks.into_remainder().chunks_exact_mut(W) {
        lut_build_slots::<W, FMA, 1>(slot, inter, xt, stored, c, dense);
        c += 1;
    }
}

/// Slots `[c, c + N)` of [`lut_build_lanes`]: `N × W` sums from +0.0,
/// written once. `dense`: no element of `inter` is zero.
#[inline(always)]
fn lut_build_slots<const W: usize, const FMA: bool, const N: usize>(
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
                    *s = madd::<FMA>(e, x, *s);
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
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2+FMA presence was just verified.
        unsafe { lut_accumulate_lanes_avx2(y, lut, stored, codes, gb) };
        return;
    }
    lut_accumulate_lanes(y, lut, stored, codes, gb);
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
/// panel[ii·stride + j0 + l]` — `GEMM_MR × GEMM_NR` accumulators held
/// live across the whole panel depth `kb`. Callers pad the panel width
/// and the A-row set so every tile runs this one full-size kernel; the
/// per-machine tier (FMA vs mul+add) is then uniform across all tiles,
/// keeping results bitwise identical at every strip partitioning.
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
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2+FMA presence was just verified; bounds are
        // debug-asserted above and enforced by the slice indexing in the
        // scalar path's shared contract.
        unsafe { gemm_acc_tile_avx2(arows, panel, stride, j0, kb, acc) };
        return;
    }
    gemm_acc_tile_scalar(arows, panel, stride, j0, kb, acc);
}

fn gemm_acc_tile_scalar(
    arows: &[&[f32]; GEMM_MR],
    panel: &[f32],
    stride: usize,
    j0: usize,
    kb: usize,
    acc: &mut [[f32; GEMM_NR]; GEMM_MR],
) {
    for ii in 0..kb {
        let pvec: &[f32; GEMM_NR] = panel[ii * stride + j0..ii * stride + j0 + GEMM_NR]
            .try_into()
            .expect("tile panel slice");
        for (p, accp) in acc.iter_mut().enumerate() {
            let av = arows[p][ii];
            for l in 0..GEMM_NR {
                accp[l] += av * pvec[l];
            }
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
/// operation on one element (`FMA` picks fused or separate multiply-adds,
/// per tier), so a result's bits depend on its input alone — not on `W`,
/// the lane it sits in, or what its neighbours hold.
#[inline(always)]
fn exp_lanes<const W: usize, const FMA: bool>(x: [f32; W]) -> [f32; W] {
    // Plain loops over the lanes, no closures: the body must inline whole
    // into the tier's `#[target_feature]` frame to be compiled for it.
    let mut out = [0.0f32; W];
    for b in 0..W {
        let clamped = if x[b] < EXP_CUTOFF { EXP_CUTOFF } else { x[b] };
        let shifted = madd::<FMA>(clamped, std::f32::consts::LOG2_E, EXP_ROUND);
        let n = shifted - EXP_ROUND;
        let r = madd::<FMA>(n, -EXP_LN2_LO, madd::<FMA>(n, -EXP_LN2_HI, clamped));
        let mut p = EXP_POLY[0];
        for &c in &EXP_POLY[1..] {
            p = madd::<FMA>(p, r, c);
        }
        let y = madd::<FMA>(p, r * r, r) + 1.0;
        // `n` sits in `shifted`'s low mantissa bits; `n + 127 ≥ 1` is the
        // biased exponent of `2^n`.
        let n = (shifted.to_bits() as i32).wrapping_sub(EXP_ROUND.to_bits() as i32);
        let e = y * f32::from_bits(((n + 127) << 23) as u32);
        out[b] = if x[b] < EXP_CUTOFF { 0.0 } else { e };
    }
    out
}

/// `a · b + c`, fused or in two roundings.
#[inline(always)]
fn madd<const FMA: bool>(a: f32, b: f32, c: f32) -> f32 {
    if FMA {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}

/// The kernels' `e^x` for one `x ≤ 0`: within 2 ulp on `[-87.3, 0]`,
/// exactly 1 at 0, exactly +0.0 below -87.3 (`-inf` included). Every lane
/// of [`softmax_lanes`] computes exactly this.
#[inline]
pub fn exp(x: f32) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2+FMA presence was just verified.
        return unsafe { exp_lanes_avx2([x]) }[0];
    }
    exp_lanes::<1, false>([x])[0]
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
/// 0.
#[inline]
pub fn softmax_lanes<const W: usize>(
    scores: &mut [[f32; W]],
    lens: &[usize; W],
    scale: f32,
    ext: [&mut [f32]; W],
) -> [f32; W] {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2+FMA presence was just verified.
        return unsafe { softmax_lanes_avx2(scores, lens, scale, ext) };
    }
    softmax_lanes_body::<W, false>(scores, lens, scale, ext)
}

#[inline(always)]
fn softmax_lanes_body<const W: usize, const FMA: bool>(
    scores: &mut [[f32; W]],
    lens: &[usize; W],
    scale: f32,
    ext: [&mut [f32]; W],
) -> [f32; W] {
    const MASKED: f32 = f32::NEG_INFINITY;
    // Row indices compare as `u32` — one vector compare a row.
    assert!(u32::try_from(scores.len()).is_ok(), "rows index as u32");
    let mut prefix = [0u32; W];
    for b in 0..W {
        prefix[b] = lens[b].min(scores.len()) as u32;
    }
    let mut max = [MASKED; W];
    for (t, row) in scores.iter().enumerate() {
        for b in 0..W {
            let s = row[b] * scale;
            let s = if (t as u32) < prefix[b] { s } else { MASKED };
            max[b] = if s > max[b] { s } else { max[b] };
        }
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
    for (t, row) in scores.iter_mut().enumerate() {
        let mut x = [MASKED; W];
        for b in 0..W {
            let s = row[b] * scale - max[b];
            x[b] = if (t as u32) < prefix[b] { s } else { MASKED };
        }
        *row = exp_lanes::<W, FMA>(x);
        for b in 0..W {
            sum[b] += row[b];
        }
    }
    for b in 0..W {
        for s in ext[b].iter_mut() {
            *s = exp_lanes::<1, FMA>([*s * scale - max[b]])[0];
            sum[b] += *s;
        }
    }
    sum
}

/// Column groups per block of the register-resident value pass for
/// `vs`-wide entries — `G · vs` vector accumulators fill the register file
/// — or 0 where only the lane-array body runs.
pub const fn value_group_block(vs: usize) -> usize {
    match vs {
        2 => 6,
        4 => 3,
        8 => 1,
        _ => 0,
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
}

/// The value-pass inner kernel of attention, for one padded lane
/// block and a span of column groups `[gs, gs + span)`:
/// `acc[(i·vs + j)][b] += Σ_t Σ_round weights[t][b] · entry(t, round, gs + i)[j]`
/// — every accumulator one chain of multiply-adds in (row, round) order,
/// continued from the value `acc` holds on entry, fused on the AVX2 tier
/// and separate on the scalar one. `weights` is token-major like the score
/// buffer (the numerators [`softmax_lanes`] left there), `acc` is
/// element-major (`span · vs` rows of lanes), `groups` the codes per row.
///
/// Nothing is decoded to memory: a packed code is an index into
/// `Codebook::entries_flat` and `vs` broadcast multiply-adds. One round of
/// byte codes over plain 256-entry books with 2-, 4- or 8-wide sub-vectors
/// runs an intrinsic kernel on the AVX2 tier — a block of groups whose
/// books fit L1 and whose accumulators fill the register file, rows
/// streamed once per block; at `W = 1` the block's accumulators are the
/// output row's elements side by side in vectors. Everything else (lattice
/// signs, other widths, residual rounds, the scalar tier) runs the
/// lane-array body. All are the chain above, so which one ran cannot be
/// read from a result.
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
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2+FMA presence was just verified.
        unsafe { x86::value_accumulate_avx2(acc, weights, rounds, groups, gs) };
        return;
    }
    value_accumulate_lanes::<W, false>(acc, weights, rounds, groups, gs);
}

/// [`value_accumulate`]'s lane-array body: rows outermost, each row's
/// codes widened once per round, accumulators in `acc`.
#[inline(always)]
fn value_accumulate_lanes<const W: usize, const FMA: bool>(
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
                        *o = if FMA { wb.mul_add(e, *o) } else { *o + wb * e };
                    }
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{value_group_block as G, RowCodes, ValueRound, BYTE_ENTRIES, LANES};
    use std::arch::x86_64::*;
    use vqllm_vq::Codebook;

    #[inline]
    unsafe fn hsum(v: __m256) -> f32 {
        // SAFETY: caller guarantees AVX2.
        unsafe {
            let hi = _mm256_extractf128_ps(v, 1);
            let lo = _mm256_castps256_ps128(v);
            let s = _mm_add_ps(lo, hi);
            let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
            let s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0b01));
            _mm_cvtss_f32(s)
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot_avx2(a: &[f32], b: &[f32]) -> f32 {
        // SAFETY: caller guarantees AVX2+FMA and equal lengths.
        unsafe {
            let chunks = a.len() / LANES;
            let mut acc = _mm256_setzero_ps();
            for i in 0..chunks {
                let va = _mm256_loadu_ps(a.as_ptr().add(i * LANES));
                let vb = _mm256_loadu_ps(b.as_ptr().add(i * LANES));
                acc = _mm256_fmadd_ps(va, vb, acc);
            }
            let mut sum = hsum(acc);
            for i in chunks * LANES..a.len() {
                sum += a[i] * b[i];
            }
            sum
        }
    }

    /// [`super::lut_batch_build`]'s loop for `W` lanes, compiled for AVX2 +
    /// FMA: the generic body inlines into this frame.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn lut_build_lanes_avx2<const W: usize>(
        gslab: &mut [f32],
        inter: &[f32],
        xt: &[f32],
    ) {
        super::lut_build_lanes::<W, true>(gslab, inter, xt);
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

    /// [`super::exp_lanes`] with fused multiply-adds, compiled for AVX2 +
    /// FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn exp_lanes_avx2<const W: usize>(x: [f32; W]) -> [f32; W] {
        super::exp_lanes::<W, true>(x)
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
        super::softmax_lanes_body::<W, true>(scores, lens, scale, ext)
    }

    /// [`super::value_accumulate`] on the AVX2 tier: the intrinsic kernels
    /// for the groups they cover, the lane-array body with fused
    /// multiply-adds for the rest.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn value_accumulate_avx2<const W: usize>(
        acc: &mut [[f32; W]],
        weights: &[[f32; W]],
        rounds: &[ValueRound<'_>],
        groups: usize,
        gs: usize,
    ) {
        let [round] = rounds else {
            return super::value_accumulate_lanes::<W, true>(acc, weights, rounds, groups, gs);
        };
        let (books, vs) = (round.books, acc.len() / round.books.len());
        // The run's rows, from group `gs` of the first one.
        let bytes = round.stream.bytes().map(|b| &b[round.first + gs..]);
        // SAFETY: AVX2+FMA are enabled for this function; the kernels
        // check the rest of their contract themselves.
        let done = unsafe {
            match (bytes, vs) {
                (Some(c), 2) => value_bytes_avx2::<2, { G(2) }, W>(acc, weights, c, books, groups),
                (Some(c), 4) => value_bytes_avx2::<4, { G(4) }, W>(acc, weights, c, books, groups),
                (Some(c), 8) => value_bytes_avx2::<8, { G(8) }, W>(acc, weights, c, books, groups),
                _ => 0,
            }
        };
        if done < books.len() {
            let rest = ValueRound {
                books: &books[done..],
                ..*round
            };
            let acc = &mut acc[done * vs..];
            super::value_accumulate_lanes::<W, true>(acc, weights, &[rest], groups, gs + done);
        }
    }

    /// [`value_bytes_avx2`] at one lane, register-resident the other way
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

    /// The first `W` lanes of a vector from a row of lanes, the rest zero.
    #[inline(always)]
    unsafe fn load_lanes<const W: usize>(row: &[f32; W]) -> __m256 {
        let p = row.as_ptr();
        // SAFETY: caller guarantees AVX2; each arm reads exactly the `W`
        // floats `row` holds.
        unsafe {
            match W {
                8 => _mm256_loadu_ps(p),
                4 => _mm256_zextps128_ps256(_mm_loadu_ps(p)),
                2 => _mm256_zextps128_ps256(_mm_castpd_ps(_mm_load_sd(p.cast()))),
                _ => _mm256_zextps128_ps256(_mm_load_ss(p)),
            }
        }
    }

    /// The first `W` lanes of `v` into a row of lanes.
    #[inline(always)]
    unsafe fn store_lanes<const W: usize>(row: &mut [f32; W], v: __m256) {
        let p = row.as_mut_ptr();
        // SAFETY: caller guarantees AVX2; each arm writes exactly the `W`
        // floats `row` holds.
        unsafe {
            let lo = _mm256_castps256_ps128(v);
            match W {
                8 => _mm256_storeu_ps(p, v),
                4 => _mm_storeu_ps(p, lo),
                2 => _mm_store_sd(p.cast(), _mm_castps_pd(lo)),
                _ => _mm_store_ss(p, lo),
            }
        }
    }

    /// The register-resident value pass: one residual round of byte
    /// `codes` (`weights.len()` rows of `groups`, from the span's first
    /// group) over plain 256-entry `books` of `VS`-wide entries, one book
    /// per group of the span. Groups are taken `G` at a time — `G · VS`
    /// vector accumulators, `G` books (L1-resident: the codebook cache) —
    /// and each block streams the rows once: per row one load of its `W`
    /// weights, per code `VS` broadcasts from the entry and `VS` fused
    /// multiply-adds. A span that is not a multiple of `G` ends with a
    /// block moved back over groups already done, whose accumulators are
    /// recomputed and dropped; at one lane [`value_row_bytes_avx2`] runs
    /// instead. Returns the groups covered: none — having touched nothing —
    /// when the span is shorter than one block or a book is not such a
    /// book.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn value_bytes_avx2<const VS: usize, const G: usize, const W: usize>(
        acc: &mut [[f32; W]],
        weights: &[[f32; W]],
        codes: &[u8],
        books: &[&Codebook],
        groups: usize,
    ) -> usize {
        let span = books.len();
        let plain = |b: &&Codebook| !b.is_lattice() && b.entries_flat().len() == BYTE_ENTRIES * VS;
        if span < G || !books.iter().all(plain) {
            return 0;
        }
        if W == 1 {
            let (acc, weights) = (acc.as_flattened_mut(), weights.as_flattened());
            // SAFETY: AVX2+FMA are enabled; every book was checked above.
            return unsafe { value_row_bytes_avx2::<VS>(acc, weights, codes, books, groups) };
        }
        assert_eq!(acc.len(), span * VS, "acc is span × VS rows of lanes");
        let rows = weights.len();
        assert!(
            rows == 0 || (rows - 1) * groups + span <= codes.len(),
            "codes cover every row of the span"
        );
        let starts = (0..span / G)
            .map(|i| (i * G, 0))
            .chain((!span.is_multiple_of(G)).then_some((span - G, G - span % G)));
        for (g0, redone) in starts {
            let flat: [*const f32; G] =
                std::array::from_fn(|i| books[g0 + i].entries_flat().as_ptr());
            // SAFETY: AVX2+FMA are enabled for this function. Accumulator
            // rows `(g0 + i)·VS + j` lie in `acc` (`g0 + G ≤ span`, length
            // asserted above). Row `t`'s codes are bytes
            // `t·groups + g0 + i` of `codes`, inside it by the assertion
            // above; a byte is below 256, so `code·VS + j` is inside its
            // 256 × VS book (checked above).
            unsafe {
                let mut sums = [[_mm256_setzero_ps(); VS]; G];
                let kept = &mut acc[(g0 + redone) * VS..(g0 + G) * VS];
                for (group, rows) in sums[redone..].iter_mut().zip(kept.chunks_exact(VS)) {
                    for (sum, row) in group.iter_mut().zip(rows) {
                        *sum = load_lanes(row);
                    }
                }
                for (t, w) in weights.iter().enumerate() {
                    let w = load_lanes(w);
                    let row = codes.as_ptr().add(t * groups + g0);
                    for (i, group) in sums.iter_mut().enumerate() {
                        let entry = flat[i].add(usize::from(*row.add(i)) * VS);
                        for (j, sum) in group.iter_mut().enumerate() {
                            *sum = _mm256_fmadd_ps(w, _mm256_broadcast_ss(&*entry.add(j)), *sum);
                        }
                    }
                }
                for (group, rows) in sums[redone..].iter().zip(kept.chunks_exact_mut(VS)) {
                    for (&sum, row) in group.iter().zip(rows) {
                        store_lanes(row, sum);
                    }
                }
            }
        }
        span
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
    dot_avx2, exp_lanes_avx2, gemm_acc_tile_avx2, lut_accumulate_lanes_avx2, lut_build_lanes_avx2,
    softmax_lanes_avx2,
};

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize, phase: f32) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * phase).sin()).collect()
    }

    /// Bit patterns, so NaN slots and the sign of zero compare too.
    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn dot_matches_naive_at_all_remainders() {
        for n in [0, 1, 7, 8, 9, 31, 64, 100] {
            let a = series(n, 0.37);
            let b = series(n, 0.23);
            let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!((dot(&a, &b) - naive).abs() < 1e-4, "n = {n}");
            assert!((dot_scalar(&a, &b) - naive).abs() < 1e-4, "n = {n}");
        }
    }

    #[test]
    fn lut_batch_build_is_the_per_slot_axpy_chain() {
        // Bitwise a zeroed slot, then one `+= e · x` per sub-vector element
        // (fused on the AVX2 tier) — at every lane-block width, on the
        // dispatched tier; the scalar tier against its unfused chain. Zero
        // centroid elements (one of each sign, and a whole zero entry) meet
        // an infinite and a NaN activation lane: the chain skips them, so
        // those slots stay finite and +0.0 stays +0.0.
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
            let mut want_scalar = want.clone();
            for c in 0..stored {
                for j in 0..vs {
                    let e = inter[j * stored + c];
                    let xj = &xt[j * w..(j + 1) * w];
                    if e != 0.0 {
                        let slots = c * w..(c + 1) * w;
                        for (o, &x) in want[slots.clone()].iter_mut().zip(xj) {
                            *o = if avx2_available() {
                                e.mul_add(x, *o)
                            } else {
                                *o + e * x
                            };
                        }
                        for (o, &x) in want_scalar[slots].iter_mut().zip(xj) {
                            *o += e * x;
                        }
                    }
                }
            }
            assert!(want[11 * w..12 * w].iter().all(|s| s.to_bits() == 0));
            // Stale contents must be overwritten, not accumulated into.
            let mut got = vec![7.0f32; stored * w];
            lut_batch_build(&mut got, &inter, &xt, w);
            assert_eq!(bits(&got), bits(&want), "w {w}");
            let mut got = vec![7.0f32; stored * w];
            with_lanes!(w, lut_build_lanes, false; &mut got, &inter, &xt);
            assert_eq!(bits(&got), bits(&want_scalar), "w {w} scalar tier");
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

    #[test]
    fn exp_is_within_two_ulp_on_the_softmax_range() {
        // Every 4099th float of [EXP_CUTOFF, -0.0] (≈ 270 k of them), both
        // tiers, against `f64::exp`.
        let mut bits = EXP_CUTOFF.to_bits();
        let mut worst = 0.0f64;
        while bits >= (-0.0f32).to_bits() {
            let x = f32::from_bits(bits);
            let want = f64::from(x).exp();
            for got in [exp(x), exp_lanes::<1, false>([x])[0]] {
                let err = ulps(got, want);
                assert!(err <= 2.0, "exp({x}) = {got}, {err} ulp from {want}");
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
            assert_eq!(
                exp_lanes::<1, false>([x])[0].to_bits(),
                0,
                "exp({x}) scalar"
            );
        }
    }

    /// `exp_lanes` at `W` lanes on the dispatched tier.
    fn exp_dispatched<const W: usize>(x: [f32; W]) -> [f32; W] {
        #[cfg(target_arch = "x86_64")]
        if avx2_available() {
            // SAFETY: AVX2+FMA presence was just verified.
            return unsafe { exp_lanes_avx2(x) };
        }
        exp_lanes::<W, false>(x)
    }

    /// `exp` of `x` sitting in lane `b` of `W` with `fill` everywhere else:
    /// bits on the dispatched tier and on the scalar one.
    fn exp_in_lane<const W: usize>(x: f32, b: usize, fill: f32) -> (u32, u32) {
        let mut lanes = [fill; W];
        lanes[b] = x;
        (
            exp_dispatched(lanes)[b].to_bits(),
            exp_lanes::<W, false>(lanes)[b].to_bits(),
        )
    }

    #[test]
    fn exp_bits_depend_on_the_element_alone() {
        // The same input gives the same bits at every width, in every lane
        // position, beside every kind of neighbour (a masked slot's -inf, a
        // padded slot's 0, an ordinary score).
        let xs = series(257, 0.37)
            .into_iter()
            .map(|s| (s - 1.0) * 44.0)
            .chain([0.0, EXP_CUTOFF, -87.4, f32::NEG_INFINITY]);
        for x in xs {
            let want = (exp(x).to_bits(), exp_lanes::<1, false>([x])[0].to_bits());
            for fill in [f32::NEG_INFINITY, 0.0, -3.25] {
                for b in 0..LANES {
                    assert_eq!(exp_in_lane::<8>(x, b, fill), want, "x {x} lane {b}/8");
                    if b < 4 {
                        assert_eq!(exp_in_lane::<4>(x, b, fill), want, "x {x} lane {b}/4");
                    }
                    if b < 2 {
                        assert_eq!(exp_in_lane::<2>(x, b, fill), want, "x {x} lane {b}/2");
                    }
                }
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

    /// Random plain books and byte codes for the value-pass tests.
    fn value_fixture(vs: usize, groups: usize, rows: usize) -> (Vec<Codebook>, PackedIndices) {
        let books = (0..groups)
            .map(|g| Codebook::new(series(BYTE_ENTRIES * vs, 0.11 + g as f32), vs, false).unwrap())
            .collect();
        let codes: Vec<u32> = (0..rows * groups)
            .map(|i| (i as u32).wrapping_mul(2654435761).rotate_left(11) % 256)
            .collect();
        (books, PackedIndices::pack(&codes, 8).unwrap())
    }

    /// `value_accumulate` at `W` lanes — the intrinsic kernel where the
    /// tier and shape select it — against the lane-array body with the
    /// tier's multiply-add and against the plain per-element chain.
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
                let (books, stream) = value_fixture(vs, groups, rows + 1);
                let book_refs: Vec<&Codebook> = books[gs..gs + span].iter().collect();
                let round = ValueRound {
                    stream: CodeSource::Packed(&stream),
                    first: groups,
                    books: &book_refs,
                };
                let weights: Vec<[f32; W]> = series(rows * W, 0.23)
                    .chunks_exact(W)
                    .map(|c| c.try_into().unwrap())
                    .collect();
                let start: Vec<[f32; W]> = series(span * vs * W, 0.57)
                    .chunks_exact(W)
                    .map(|c| c.try_into().unwrap())
                    .collect();
                let fused = avx2_available();
                let mut want = start.clone();
                for (t, w) in weights.iter().enumerate() {
                    for i in 0..span {
                        let code = stream.get((t + 1) * groups + gs + i) as usize;
                        let entry = books[gs + i].stored_entry(code);
                        for (j, &e) in entry.iter().enumerate() {
                            for (o, &wb) in want[i * vs + j].iter_mut().zip(w) {
                                *o = if fused {
                                    wb.mul_add(e, *o)
                                } else {
                                    *o + wb * e
                                };
                            }
                        }
                    }
                }
                let mut got = start.clone();
                value_accumulate(&mut got, &weights, &[round], groups, gs);
                assert_eq!(got, want, "W {W} vs {vs} span {gs}+{span}");
                let mut body = start.clone();
                if fused {
                    value_accumulate_lanes::<W, true>(&mut body, &weights, &[round], groups, gs);
                } else {
                    value_accumulate_lanes::<W, false>(&mut body, &weights, &[round], groups, gs);
                }
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

    #[test]
    fn gemm_tile_matches_naive_triple_loop() {
        let kb = 11;
        let stride = 2 * GEMM_NR;
        let panel = series(kb * stride, 0.21);
        let a: Vec<Vec<f32>> = (0..GEMM_MR)
            .map(|p| series(kb, 0.31 + p as f32 * 0.07))
            .collect();
        let arows: [&[f32]; GEMM_MR] = std::array::from_fn(|p| a[p].as_slice());
        for j0 in [0, GEMM_NR] {
            let mut acc = [[0.5f32; GEMM_NR]; GEMM_MR];
            gemm_acc_tile(&arows, &panel, stride, j0, kb, &mut acc);
            for p in 0..GEMM_MR {
                for l in 0..GEMM_NR {
                    let naive: f32 = (0..kb)
                        .map(|ii| arows[p][ii] * panel[ii * stride + j0 + l])
                        .sum();
                    assert!(
                        (acc[p][l] - (0.5 + naive)).abs() < 1e-4,
                        "p {p} l {l} j0 {j0}"
                    );
                }
            }
        }
    }

    #[test]
    fn tier_is_reported() {
        // On x86_64 CI this exercises the AVX2 path; elsewhere the scalar
        // tier. Either way the selection is stable across calls.
        assert_eq!(tier(), tier());
        assert!(["avx2+fma", "scalar-8w"].contains(&tier()));
    }
}
