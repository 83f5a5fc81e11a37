//! SIMD-wide inner loops for the host kernels.
//!
//! Every primitive here ships two tiers behind one safe entry point:
//!
//! * an **AVX2 + FMA** intrinsic path (`#[cfg(target_arch = "x86_64")]`,
//!   selected at runtime via `is_x86_feature_detected!`, which caches the
//!   CPUID probe), and
//! * a **scalar** fallback restructured into 8-wide unrolled accumulator
//!   lanes so LLVM's autovectorizer reliably emits packed math on any
//!   target (and out-of-order cores get independent dependency chains even
//!   when it does not).
//!
//! The primitives are exactly the inner loops of
//! [`host_exec`](crate::host_exec): contiguous dot products (LUT builds and
//! interleaved-codebook expansions), the `acc += lut[code]` gather of the
//! LUT GeMV (an `vpgatherdps` over a group-blocked slab), and the two
//! halves of `gemv_lut_batch` — [`lut_batch_build`] and
//! [`lut_batch_accumulate`]. Those two are written once, as generic
//! `#[inline(always)]` loops over const lane counts, and compiled twice:
//! the AVX2 entry is a `#[target_feature]` function the loops inline into,
//! so the tier is picked once per call, not once per packed code.

use vqllm_vq::PackedIndices;

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

/// `out[i] += s · src[i]` — the AXPY behind LUT builds over the
/// interleaved codebook layout.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn axpy(out: &mut [f32], s: f32, src: &[f32]) {
    assert_eq!(out.len(), src.len(), "axpy operand lengths");
    if s == 0.0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2+FMA presence was just verified.
        unsafe { axpy_avx2(out, s, src) };
        return;
    }
    for (o, &v) in out.iter_mut().zip(src) {
        *o += s * v;
    }
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

/// Builds one column group's slab of the lane-interleaved LUT for a block
/// of `w` (`1..=LANES`) activation lanes:
/// `gslab[c·w + b] = Σ_j inter[j·stored + c] · xt[j·w + b]` — the partial
/// dot of stored entry `c` (element-major `inter`, see
/// `Codebook::entries_interleaved`) against lane `b`'s activation
/// sub-vector (`xt`, element-major too: `vs × w`). Each slot is the
/// [`axpy`] chain over `j` ascending from +0.0 — zero centroid elements
/// skipped, so a non-finite activation cannot reach a slot through one —
/// summed in registers and written once; the AVX2 tier fuses the
/// multiply-add, the scalar tier does not — per tier, a lane rounds the
/// same way whatever block it sits in (the serving scheduler's parity
/// contract).
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

#[inline(always)]
fn lut_build_lanes<const W: usize, const FMA: bool>(gslab: &mut [f32], inter: &[f32], xt: &[f32]) {
    let stored = gslab.len() / W;
    for (c, slot) in gslab.chunks_exact_mut(W).enumerate() {
        let mut acc = [0.0f32; W];
        for (j, xj) in xt.chunks_exact(W).enumerate() {
            let e = inter[j * stored + c];
            if e == 0.0 {
                continue;
            }
            for (a, &x) in acc.iter_mut().zip(xj) {
                *a = if FMA { e.mul_add(x, *a) } else { *a + e * x };
            }
        }
        slot.copy_from_slice(&acc);
    }
}

/// Rows whose sums [`lut_batch_accumulate`] holds in registers at once.
/// The adds of one row are a dependent chain (that order *is* the result),
/// so instruction-level parallelism has to come from independent rows.
const LUT_ROW_BLOCK: usize = 4;

/// The packed codes of consecutive rows of one index stream: row `i`'s
/// are indices `first + i·groups ..` of `stream`, `groups` of them.
#[derive(Debug, Clone, Copy)]
pub struct RowCodes<'a> {
    /// The residual round's packed index stream.
    pub stream: &'a PackedIndices,
    /// Index of the first row's first code.
    pub first: usize,
    /// Codes (column groups) per row.
    pub groups: usize,
}

/// The score-pass inner kernel of `gemv_lut_batch`, for one lane block
/// `[l0, l0 + w)` of the batch:
/// `y[i·batch + l0 + b] += Σ_g lut[(g·stored + code(i, g))·w + b]` for
/// every row `i` of `y` (`rows × batch`), where `code(i, g)` comes from
/// `codes` and `lut` is the block's lane-interleaved table
/// (`groups × stored × w`, see [`lut_batch_build`]; its length gives `w`).
/// Groups are visited in blocks of `gb` (the cache-resident share of the
/// LUT), all rows per block; within a block a few rows' sums stay in
/// registers, so the cost per packed code is one load and one add. Each
/// sum is the same left-to-right chain over `g` whatever `gb`, the row
/// blocking and the lane block are.
///
/// # Panics
///
/// Panics if `lut` is not `groups × stored × w` for a `w` in `1..=LANES`,
/// the lanes are outside the batch, `y` is not whole rows, the stream ends
/// before the last row's codes, or a code is not below `stored`.
#[inline]
pub fn lut_batch_accumulate(
    y: &mut [f32],
    batch: usize,
    l0: usize,
    lut: &[f32],
    stored: usize,
    codes: RowCodes<'_>,
    gb: usize,
) {
    if lut.is_empty() {
        return;
    }
    let w = lut.len() / (codes.groups * stored).max(1);
    assert_eq!(
        lut.len(),
        codes.groups * stored * w,
        "lut is groups × stored × w"
    );
    assert!(
        (1..=LANES).contains(&w) && l0 + w <= batch,
        "lane block inside the batch"
    );
    assert!(y.len().is_multiple_of(batch), "y is rows × batch");
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2+FMA presence was just verified.
        unsafe { with_lanes!(w, lut_accumulate_lanes_avx2; y, batch, l0, lut, stored, codes, gb) };
        return;
    }
    with_lanes!(w, lut_accumulate_lanes; y, batch, l0, lut, stored, codes, gb);
}

/// Group blocks outermost, then row blocks of [`LUT_ROW_BLOCK`] (single
/// rows for the remainder).
#[inline(always)]
fn lut_accumulate_lanes<const W: usize>(
    y: &mut [f32],
    batch: usize,
    l0: usize,
    lut: &[f32],
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
    let mut block = vec![0u32; R * gb];
    for g0 in (0..groups).step_by(gb) {
        let gl = gb.min(groups - g0);
        let slab = &lut[g0 * stored * W..(g0 + gl) * stored * W];
        let mut at = first + g0;
        let mut blocks = y.chunks_exact_mut(R * batch);
        for yblock in &mut blocks {
            for row_codes in block[..R * gl].chunks_exact_mut(gl) {
                stream.unpack_block(at, row_codes);
                at += groups;
            }
            lut_accumulate_block::<W, R>(yblock, batch, l0, slab, stored, &block[..R * gl]);
        }
        for yrow in blocks.into_remainder().chunks_exact_mut(batch) {
            stream.unpack_block(at, &mut block[..gl]);
            at += groups;
            lut_accumulate_block::<W, 1>(yrow, batch, l0, slab, stored, &block[..gl]);
        }
    }
}

/// `R` rows × `W` lanes of sums, loaded from `y` once, carried in
/// registers over the block's `codes` (`R` rows of equal length,
/// row-major) and stored once.
#[inline(always)]
fn lut_accumulate_block<const W: usize, const R: usize>(
    y: &mut [f32],
    batch: usize,
    l0: usize,
    slab: &[f32],
    stored: usize,
    codes: &[u32],
) {
    let gl = codes.len() / R;
    let rows: [&[u32]; R] = std::array::from_fn(|i| &codes[i * gl..][..gl]);
    let mut acc = [[0.0f32; W]; R];
    for (a, yrow) in acc.iter_mut().zip(y.chunks_exact(batch)) {
        a.copy_from_slice(&yrow[l0..l0 + W]);
    }
    for (gi, gslab) in slab.chunks_exact(stored * W).enumerate() {
        for (a, row) in acc.iter_mut().zip(&rows) {
            let at = row[gi] as usize * W;
            for (s, &v) in a.iter_mut().zip(&gslab[at..at + W]) {
                *s += v;
            }
        }
    }
    for (a, yrow) in acc.iter().zip(y.chunks_exact_mut(batch)) {
        yrow[l0..l0 + W].copy_from_slice(a);
    }
}

/// The LUT GeMV inner loop: `Σ_g slab[g·stored + codes[g]]` — one gather
/// and one add per packed code, 8 group lanes at a time.
///
/// # Panics
///
/// Panics (scalar tier) or debug-asserts (AVX2 tier) if any code indexes
/// outside its `stored`-entry slab row.
#[inline]
pub fn lut_row_sum(slab: &[f32], stored: usize, codes: &[u32]) -> f32 {
    debug_assert!(codes.len() * stored <= slab.len(), "slab covers codes");
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2+FMA presence was just verified; index bounds are
        // debug-asserted inside.
        return unsafe { lut_row_sum_avx2(slab, stored, codes) };
    }
    lut_row_sum_scalar(slab, stored, codes)
}

fn lut_row_sum_scalar(slab: &[f32], stored: usize, codes: &[u32]) -> f32 {
    let mut lanes = [0.0f32; LANES];
    let chunks = codes.len() / LANES;
    for c in 0..chunks {
        let base = c * LANES;
        for l in 0..LANES {
            lanes[l] += slab[(base + l) * stored + codes[base + l] as usize];
        }
    }
    let mut acc = lanes.iter().sum::<f32>();
    for g in chunks * LANES..codes.len() {
        acc += slab[g * stored + codes[g] as usize];
    }
    acc
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

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{RowCodes, LANES};
    use std::arch::x86_64::*;

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

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn axpy_avx2(out: &mut [f32], s: f32, src: &[f32]) {
        // SAFETY: caller guarantees AVX2+FMA and equal lengths.
        unsafe {
            let chunks = out.len() / LANES;
            let vs = _mm256_set1_ps(s);
            for i in 0..chunks {
                let o = out.as_mut_ptr().add(i * LANES);
                let v = _mm256_fmadd_ps(
                    vs,
                    _mm256_loadu_ps(src.as_ptr().add(i * LANES)),
                    _mm256_loadu_ps(o),
                );
                _mm256_storeu_ps(o, v);
            }
            // Fused like the vector body: a lane must land on the same
            // rounding whether it fell in the 8-wide chunks or the tail,
            // so batch-interleaved LUT slabs are bitwise identical at
            // every batch width (the serving scheduler's parity contract).
            for i in chunks * LANES..out.len() {
                out[i] = s.mul_add(src[i], out[i]);
            }
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
        y: &mut [f32],
        batch: usize,
        l0: usize,
        lut: &[f32],
        stored: usize,
        codes: RowCodes<'_>,
        gb: usize,
    ) {
        super::lut_accumulate_lanes::<W>(y, batch, l0, lut, stored, codes, gb);
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

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn lut_row_sum_avx2(slab: &[f32], stored: usize, codes: &[u32]) -> f32 {
        // SAFETY: caller guarantees AVX2+FMA; every gathered index is
        // `g·stored + code` with `code < stored` (debug-asserted), which
        // the caller's bound `codes.len()·stored ≤ slab.len()` keeps in
        // range.
        unsafe {
            let chunks = codes.len() / LANES;
            let mut acc = _mm256_setzero_ps();
            // Lane offsets 0·stored … 7·stored, advanced by 8·stored.
            let lane_off = _mm256_mullo_epi32(
                _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                _mm256_set1_epi32(stored as i32),
            );
            let step = _mm256_set1_epi32((LANES * stored) as i32);
            let mut base = lane_off;
            for c in 0..chunks {
                if cfg!(debug_assertions) {
                    for l in 0..LANES {
                        debug_assert!((codes[c * LANES + l] as usize) < stored, "code in range");
                    }
                }
                let vcodes = _mm256_loadu_si256(codes.as_ptr().add(c * LANES).cast());
                let vidx = _mm256_add_epi32(base, vcodes);
                acc = _mm256_add_ps(acc, _mm256_i32gather_ps::<4>(slab.as_ptr(), vidx));
                base = _mm256_add_epi32(base, step);
            }
            let mut sum = hsum(acc);
            for g in chunks * LANES..codes.len() {
                sum += slab[g * stored + codes[g] as usize];
            }
            sum
        }
    }
}

#[cfg(target_arch = "x86_64")]
use x86::{
    axpy_avx2, dot_avx2, gemm_acc_tile_avx2, lut_accumulate_lanes_avx2, lut_build_lanes_avx2,
    lut_row_sum_avx2,
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
    fn axpy_matches_naive() {
        for n in [0, 3, 8, 19, 40] {
            let src = series(n, 0.41);
            let mut out = series(n, 0.11);
            let mut naive = out.clone();
            axpy(&mut out, 1.5, &src);
            for (o, &s) in naive.iter_mut().zip(&src) {
                *o += 1.5 * s;
            }
            assert_eq!(out.len(), naive.len());
            for (x, y) in out.iter().zip(&naive) {
                assert!((x - y).abs() < 1e-5, "n = {n}");
            }
        }
    }

    #[test]
    fn lut_batch_build_is_the_per_slot_axpy_chain() {
        // Bitwise the composition it replaced — a zeroed slot, then one
        // `axpy` per sub-vector element — at every lane-block width, on
        // the dispatched tier; the scalar tier against its unfused chain.
        // Zero centroid elements (one of each sign, and a whole zero
        // entry) meet an infinite and a NaN activation lane: `axpy` skips
        // them, so those slots stay finite and +0.0 stays +0.0.
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
                    axpy(&mut want[c * w..(c + 1) * w], e, xj);
                    if e != 0.0 {
                        for (o, &x) in want_scalar[c * w..(c + 1) * w].iter_mut().zip(xj) {
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

    #[test]
    fn lut_batch_accumulate_is_the_per_code_add_chain() {
        // Bitwise `y[row] += lut[code]` one code at a time in group order,
        // for row counts that are not multiples of the row block, batches
        // on both sides of the lane block (9 = a block of 8 and one of 1),
        // and group blocks from one group to the whole row — on the
        // dispatched tier and the scalar one.
        let (stored, groups) = (16usize, 64usize);
        for batch in 1..=9usize {
            for rows in 0..=9usize {
                // One leading row the kernel must skip (`first` > 0).
                let codes: Vec<u32> = (0..(rows + 1) * groups)
                    .map(|i| (i as u32).wrapping_mul(2654435761).rotate_left(9) % stored as u32)
                    .collect();
                let stream = PackedIndices::pack(&codes, 8).unwrap();
                let start = series(rows * batch, 0.71);
                let mut want = start.clone();
                let mut luts = Vec::new();
                for l0 in (0..batch).step_by(LANES) {
                    let w = (batch - l0).min(LANES);
                    let lut = series(groups * stored * w, 0.013 + l0 as f32);
                    for (row, yrow) in want.chunks_mut(batch).enumerate() {
                        for g in 0..groups {
                            let code = codes[(row + 1) * groups + g] as usize;
                            let slot = &lut[(g * stored + code) * w..][..w];
                            for (o, &v) in yrow[l0..l0 + w].iter_mut().zip(slot) {
                                *o += v;
                            }
                        }
                    }
                    luts.push((l0, w, lut));
                }
                for gb in [1usize, 2, 17, 64] {
                    let mut got = start.clone();
                    let mut got_scalar = start.clone();
                    let rc = RowCodes {
                        stream: &stream,
                        first: groups,
                        groups,
                    };
                    for (l0, w, lut) in &luts {
                        lut_batch_accumulate(&mut got, batch, *l0, lut, stored, rc, gb);
                        with_lanes!(
                            *w, lut_accumulate_lanes;
                            &mut got_scalar, batch, *l0, lut, stored, rc, gb
                        );
                    }
                    assert_eq!(got, want, "batch {batch} rows {rows} gb {gb}");
                    assert_eq!(
                        got_scalar, want,
                        "batch {batch} rows {rows} gb {gb} scalar tier"
                    );
                }
            }
        }
    }

    #[test]
    fn lut_row_sum_matches_naive_gather() {
        let stored = 16;
        for groups in [1usize, 5, 8, 13, 24] {
            let slab = series(groups * stored, 0.19);
            let codes: Vec<u32> = (0..groups as u32)
                .map(|g| (g * 7 + 3) % stored as u32)
                .collect();
            let naive: f32 = codes
                .iter()
                .enumerate()
                .map(|(g, &c)| slab[g * stored + c as usize])
                .sum();
            assert!(
                (lut_row_sum(&slab, stored, &codes) - naive).abs() < 1e-5,
                "groups = {groups}"
            );
            assert!(
                (lut_row_sum_scalar(&slab, stored, &codes) - naive).abs() < 1e-5,
                "groups = {groups}"
            );
        }
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
