//! K-means clustering with k-means++ seeding.
//!
//! The codebook-training workhorse (paper Fig. 1: "conduct k-means
//! clustering to group these sub-vectors into #Entry clusters"). Points are
//! flat `f32` slices (`n × dim`, row-major) to keep the inner distance loop
//! allocation-free.
//!
//! Training is codebook-centric, as the search is ([`nearest_many`]):
//! [`kmeans_many`] trains many books at once and seeds up to
//! [`MAX_BOOKS`] of them in lockstep, one book per lane. Their training
//! points are laid out element-major `[e][j][book]`, and their
//! nearest-centre distances `[j][book]`, so one pass measures every book's
//! newest centre and each step of seeding's two serial `f64` chains — the
//! distance total and the target scan — advances all the books. Each lane
//! runs exactly its book's chains, in its book's point order, and each book
//! draws from its own generator in its own order, so every book is bit for
//! bit what it is trained alone. [`kmeans`] is [`kmeans_many`] of one book.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of a k-means run.
#[derive(Debug, Clone)]
pub struct KmeansResult {
    /// Flat `k × dim` centroid matrix.
    pub centroids: Vec<f32>,
    /// Dimensionality of points/centroids.
    pub dim: usize,
    /// Cluster id per input point.
    pub assignments: Vec<u32>,
    /// Final within-cluster sum of squared distances.
    pub inertia: f64,
    /// Lloyd iterations actually executed.
    pub iterations: usize,
}

/// Tuning knobs for [`kmeans`].
#[derive(Debug, Clone, Copy)]
pub struct KmeansOptions {
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// Stop when relative inertia improvement drops below this.
    pub tol: f64,
    /// Train on at most this many points (sampled uniformly); all points
    /// are still assigned at the end. Large-tensor codebooks do not need
    /// every sub-vector to converge.
    pub train_sample: usize,
}

impl Default for KmeansOptions {
    fn default() -> Self {
        KmeansOptions {
            max_iters: 12,
            tol: 1e-4,
            train_sample: 65_536,
        }
    }
}

/// Stored entries searched per iteration of [`nearest_many`]'s portable
/// and AVX2 tiers (one AVX2 register of `f32`, two SSE ones), and training
/// slots per block of the portable k-means++ distance update. The AVX-512
/// tier searches [`WIDE_LANES`]; the lockstep seeding's lanes hold one
/// book each, up to this many ([`MAX_BOOKS`]).
const LANES: usize = 8;

/// Stored entries searched per iteration of [`nearest_many`]'s AVX-512
/// tier: one zmm register of `f32`.
#[cfg(target_arch = "x86_64")]
const WIDE_LANES: usize = 16;

/// The most points [`nearest_many`] searches in one pass over the table
/// (each block of entries loaded once and measured against all of them);
/// its AVX-512 tier takes this many, AVX2 four, the portable body one.
pub const MAX_POINTS: usize = 8;

/// Squared Euclidean distance between two `dim`-length slices.
#[inline]
fn dist2(a: &[f32], b: &[f32]) -> f32 {
    let mut s = 0.0;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        s += d * d;
    }
    s
}

/// Writes the element-major mirror of a row-major `n × dim` buffer:
/// `out[j · n + c] = rows[c · dim + j]` — the layout [`nearest_many`]
/// searches and [`Codebook::entries_interleaved`](crate::Codebook::entries_interleaved)
/// holds.
pub(crate) fn element_major_into(rows: &[f32], dim: usize, out: &mut [f32]) {
    let n = rows.len() / dim;
    for (c, row) in rows.chunks_exact(dim).enumerate() {
        for (j, &v) in row.iter().enumerate() {
            out[j * n + c] = v;
        }
    }
}

/// Squared distances from each of `points` (each `dim` long, `dim` the
/// table's row count) to the [`LANES`] consecutive entries starting at
/// `c0` of an element-major table with `k` entries per row.
///
/// Each lane runs [`dist2`]'s chain — `s = 0; s += (x_j − c_j)²` in `j`
/// order, multiply and add **unfused** — so a lane's distance has exactly
/// the bits the entry-at-a-time loop produced. A fused multiply-add rounds
/// once instead of twice and would move near-tie codes: the codebooks,
/// packed streams and folded live-KV rows of every earlier commit. The
/// points' chains are independent and interleaved: each row of the block
/// is read once for all of them.
#[inline(always)]
fn dist2_lanes<const N: usize>(
    points: &[&[f32]; N],
    em: &[f32],
    k: usize,
    c0: usize,
) -> [[f32; LANES]; N] {
    let mut s = [[0.0f32; LANES]; N];
    for (j, row) in em.chunks_exact(k).enumerate() {
        let row = &row[c0..c0 + LANES];
        for (s, point) in s.iter_mut().zip(points) {
            let x = point[j];
            for l in 0..LANES {
                let d = x - row[l];
                s[l] += d * d;
            }
        }
    }
    s
}

/// [`dist2_lanes`] for one point and the single entry `c` (the `k % LANES`
/// remainder).
#[inline(always)]
fn dist2_strided(point: &[f32], em: &[f32], k: usize, c: usize) -> f32 {
    let mut s = 0.0;
    for (&x, row) in point.iter().zip(em.chunks_exact(k)) {
        let d = x - row[c];
        s += d * d;
    }
    s
}

/// The first `dim` elements of each point.
#[inline(always)]
fn prefixes<'a, const N: usize>(points: &[&'a [f32]; N], dim: usize) -> [&'a [f32]; N] {
    let mut out = [&[][..]; N];
    for (out, point) in out.iter_mut().zip(points) {
        *out = &point[..dim];
    }
    out
}

/// The portable body of [`nearest_many`] for `N` points, inlined into one
/// function per SIMD tier below AVX-512.
#[inline(always)]
fn nearest_lanes<const N: usize>(
    points: &[&[f32]; N],
    em: &[f32],
    dim: usize,
    k: usize,
) -> [(u32, f32); N] {
    let points = prefixes(points, dim);
    let blocks = k / LANES;
    // Lane `l` of a point keeps the first minimum among entries
    // `≡ l (mod LANES)` as its distance and the block it sits in — the
    // block as an `f32`, so both updates are selects on one vector compare
    // (block numbers are exact up to 2²⁴).
    assert!(blocks <= 1 << 24, "codebook too large for the lane search");
    let mut best_d = [[f32::INFINITY; LANES]; N];
    let mut best_b = [[0.0f32; LANES]; N];
    for b in 0..blocks {
        let s = dist2_lanes(&points, em, k, b * LANES);
        let bf = b as f32;
        for ((s, best_d), best_b) in s.iter().zip(&mut best_d).zip(&mut best_b) {
            for l in 0..LANES {
                let closer = s[l] < best_d[l];
                best_d[l] = if closer { s[l] } else { best_d[l] };
                best_b[l] = if closer { bf } else { best_b[l] };
            }
        }
    }
    // A point's first global minimum is its smallest distance, lowest index
    // on ties: entry `b · LANES + l` precedes another exactly when its
    // (block, lane) does, and lanes are visited in order. The remainder
    // entries sit past every lane's, so plain `<` keeps the tie-break.
    // (Merged by constant index, then continued in a loop of its own, so
    // the minima stay in registers through the block loop.)
    let mut out = [(0u32, 0.0f32); N];
    for p in 0..N {
        let (mut lane, mut b_min, mut d_min) = (0, 0.0f32, f32::INFINITY);
        for l in 0..LANES {
            if best_d[p][l] < d_min || (best_d[p][l] == d_min && best_b[p][l] < b_min) {
                (lane, b_min, d_min) = (l, best_b[p][l], best_d[p][l]);
            }
        }
        out[p] = ((b_min as usize * LANES + lane) as u32, d_min);
    }
    for (o, point) in out.iter_mut().zip(points) {
        *o = scan_rest(point, em, k, blocks * LANES, *o);
    }
    out
}

/// Continues a search whose first minimum over entries `..from` is `best`
/// through the remaining entries `from..k`, one at a time. They sit past
/// every entry already searched, so strict `<` keeps the first minimum.
#[inline(always)]
fn scan_rest(point: &[f32], em: &[f32], k: usize, from: usize, best: (u32, f32)) -> (u32, f32) {
    let (mut best, mut d_min) = best;
    for c in from..k {
        let d = dist2_strided(point, em, k, c);
        if d < d_min {
            d_min = d;
            best = c as u32;
        }
    }
    (best, d_min)
}

/// [`nearest_many`] on AVX2 for `N` points: [`LANES`] entries per block in
/// one ymm register, each block row loaded once and measured against
/// every point, each lane [`dist2_lanes`]'s unfused chain, each point's
/// running minimum kept by strict-`<` blends (a NaN distance, every
/// compare false, is never taken).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn nearest_avx2<const N: usize>(
    points: &[&[f32]; N],
    em: &[f32],
    dim: usize,
    k: usize,
) -> [(u32, f32); N] {
    use std::arch::x86_64::*;
    let points = prefixes(points, dim);
    let blocks = k / LANES;
    let mut best_d = [_mm256_set1_ps(f32::INFINITY); N];
    let mut best_i = [_mm256_setzero_si256(); N];
    let mut idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let step = _mm256_set1_epi32(LANES as i32);
    for b in 0..blocks {
        let row0 = em[b * LANES..].as_ptr();
        // `0 + d·d` is `d·d` bit for bit (a square is never −0), so each
        // chain starts at its first square.
        let mut s = [_mm256_setzero_ps(); N];
        for j in 0..dim {
            // SAFETY: `j < dim` and `(b + 1) · 8 ≤ k`, so this reads
            // `em[j·k + b·8 ..][..8]`, inside `dim · k ≤ em.len()`.
            let c = unsafe { _mm256_loadu_ps(row0.add(j * k)) };
            for (s, point) in s.iter_mut().zip(&points) {
                let d = _mm256_sub_ps(_mm256_set1_ps(point[j]), c);
                let dd = _mm256_mul_ps(d, d);
                *s = if j == 0 { dd } else { _mm256_add_ps(*s, dd) };
            }
        }
        for ((&s, best_d), best_i) in s.iter().zip(&mut best_d).zip(&mut best_i) {
            let closer = _mm256_cmp_ps::<_CMP_LT_OQ>(s, *best_d);
            *best_d = _mm256_blendv_ps(*best_d, s, closer);
            *best_i = _mm256_blendv_epi8(*best_i, idx, _mm256_castps_si256(closer));
        }
        idx = _mm256_add_epi32(idx, step);
    }
    // A point's first global minimum is its smallest distance, lowest index
    // on ties; no lane holds a NaN. (Merged by constant index, then
    // continued in a loop of its own, so the minima stay in registers
    // through the block loop.)
    let mut out = [(0u32, 0.0f32); N];
    for p in 0..N {
        let (mut d, mut i) = ([0.0f32; LANES], [0u32; LANES]);
        // SAFETY: both arrays hold exactly one 256-bit vector.
        unsafe {
            _mm256_storeu_ps(d.as_mut_ptr(), best_d[p]);
            _mm256_storeu_si256(i.as_mut_ptr().cast(), best_i[p]);
        }
        let (mut i_min, mut d_min) = (0u32, f32::INFINITY);
        for l in 0..LANES {
            if d[l] < d_min || (d[l] == d_min && i[l] < i_min) {
                (i_min, d_min) = (i[l], d[l]);
            }
        }
        out[p] = (i_min, d_min);
    }
    for (o, point) in out.iter_mut().zip(points) {
        *o = scan_rest(point, em, k, blocks * LANES, *o);
    }
    out
}

/// [`nearest_many`] on AVX-512 for `N` points: [`WIDE_LANES`] entries per
/// block, each block row loaded once and measured against every point,
/// each lane [`dist2_lanes`]'s unfused chain, each point's running minimum
/// kept by mask selects and its lanes merged without a branch.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn nearest_avx512<const N: usize>(
    points: &[&[f32]; N],
    em: &[f32],
    dim: usize,
    k: usize,
) -> [(u32, f32); N] {
    use std::arch::x86_64::*;
    let points = prefixes(points, dim);
    let blocks = k / WIDE_LANES;
    // Lane `l` of a point keeps the first minimum among entries
    // `≡ l (mod 16)`: its distance and its entry index, both replaced under
    // one strict-`<` mask, so a NaN distance (every compare false) is never
    // taken.
    let mut best_d = [_mm512_set1_ps(f32::INFINITY); N];
    let mut best_i = [_mm512_setzero_si512(); N];
    let mut idx = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    let step = _mm512_set1_epi32(WIDE_LANES as i32);
    for b in 0..blocks {
        let row0 = em[b * WIDE_LANES..].as_ptr();
        // `0 + d·d` is `d·d` bit for bit (a square is never −0), so each
        // chain starts at its first square.
        let mut s = [_mm512_setzero_ps(); N];
        for j in 0..dim {
            // SAFETY: `j < dim` and `(b + 1) · 16 ≤ k`, so this reads
            // `em[j·k + b·16 ..][..16]`, inside `dim · k ≤ em.len()`.
            let c = unsafe { _mm512_loadu_ps(row0.add(j * k)) };
            for (s, point) in s.iter_mut().zip(&points) {
                let d = _mm512_sub_ps(_mm512_set1_ps(point[j]), c);
                let dd = _mm512_mul_ps(d, d);
                *s = if j == 0 { dd } else { _mm512_add_ps(*s, dd) };
            }
        }
        for ((&s, best_d), best_i) in s.iter().zip(&mut best_d).zip(&mut best_i) {
            let closer = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(s, *best_d);
            *best_d = _mm512_mask_blend_ps(closer, *best_d, s);
            *best_i = _mm512_mask_blend_epi32(closer, *best_i, idx);
        }
        idx = _mm512_add_epi32(idx, step);
    }
    // A point's first global minimum is its smallest distance, lowest index
    // on ties. No lane holds a NaN, so the minimum is exact; with none
    // finite every lane ties at ∞ on index 0.
    // (Merged by constant index, then continued in a loop of its own, so
    // the minima stay in registers through the block loop.)
    let mut out = [(0u32, 0.0f32); N];
    for p in 0..N {
        let d_min = _mm512_reduce_min_ps(best_d[p]);
        let ties = _mm512_cmp_ps_mask::<_CMP_EQ_OQ>(best_d[p], _mm512_set1_ps(d_min));
        out[p] = (_mm512_mask_reduce_min_epu32(ties, best_i[p]), d_min);
    }
    for (o, point) in out.iter_mut().zip(points) {
        *o = scan_rest(point, em, k, blocks * WIDE_LANES, *o);
    }
    out
}

/// The instruction tiers [`nearest_many`] and k-means++ seeding have a
/// body for. A value other than `Portable` is a witness that the machine
/// runs that tier — and `Avx512` that it runs AVX2 as well: only
/// [`Tier::detect`] (and tests, after the same check) make one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Tier {
    /// The widest tier this machine runs.
    fn detect() -> Tier {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                if std::arch::is_x86_feature_detected!("avx512f") {
                    return Tier::Avx512;
                }
                return Tier::Avx2;
            }
        }
        Tier::Portable
    }

    fn name(self) -> &'static str {
        match self {
            Tier::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => "avx512f",
        }
    }

    /// Searches `N` points on this tier over a table of `k` entries.
    #[inline(always)]
    fn search<const N: usize>(
        self,
        points: &[&[f32]],
        em: &[f32],
        dim: usize,
        k: usize,
        out: &mut [(u32, f32)],
    ) {
        let points: &[&[f32]; N] = points.try_into().expect("N points");
        let found = match self {
            Tier::Portable => nearest_lanes(points, em, dim, k),
            // SAFETY: a `Tier::Avx2` exists only where AVX2 was detected.
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => unsafe { nearest_avx2(points, em, dim, k) },
            // SAFETY: a `Tier::Avx512` exists only where AVX-512F was
            // detected.
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => unsafe { nearest_avx512(points, em, dim, k) },
        };
        out.copy_from_slice(&found);
    }

    /// Points this tier searches in one pass: what its registers hold
    /// without spilling — eight on AVX-512's 32 registers, four on AVX2's
    /// 16, and one for the portable body, which the compiler only keeps
    /// in registers for a single point.
    fn points_per_pass(self) -> usize {
        match self {
            Tier::Portable => 1,
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => 4,
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => MAX_POINTS,
        }
    }

    /// Searches 1..=[`MAX_POINTS`] points in one pass over a table of `k`
    /// entries.
    #[inline(always)]
    fn search_some(
        self,
        points: &[&[f32]],
        em: &[f32],
        dim: usize,
        k: usize,
        out: &mut [(u32, f32)],
    ) {
        match points.len() {
            1 => self.search::<1>(points, em, dim, k, out),
            2 => self.search::<2>(points, em, dim, k, out),
            3 => self.search::<3>(points, em, dim, k, out),
            4 => self.search::<4>(points, em, dim, k, out),
            5 => self.search::<5>(points, em, dim, k, out),
            6 => self.search::<6>(points, em, dim, k, out),
            7 => self.search::<7>(points, em, dim, k, out),
            _ => self.search::<MAX_POINTS>(points, em, dim, k, out),
        }
    }
}

/// The tier [`nearest_many`] dispatches to on this machine: `"avx512f"`,
/// `"avx2"` or `"portable"`.
pub fn nearest_tier() -> &'static str {
    Tier::detect().name()
}

/// Index of the nearest centroid and its squared distance for each of
/// `points`, written to `out` in point order, over an **element-major**
/// centroid table (`dim × k`: row `j` holds element `j` of every centroid
/// — [`element_major_into`]'s layout).
///
/// Codebook-centric: the points are searched up to [`MAX_POINTS`] at a
/// time (eight on AVX-512, four on AVX2, one on the portable body), and
/// each block of entries is loaded once and measured against all of them,
/// their distance chains interleaved. Entry-parallel, in one of three
/// tiers picked once per call ([`nearest_tier`]): AVX-512 ([`WIDE_LANES`]
/// centroids a block), AVX2 or portable ([`LANES`] a block); the `k mod`
/// width remainder is scanned one entry at a time. Every tier returns,
/// for every point, bit for bit the one-centroid-at-a-time scan's result
/// for that point alone, for three reasons:
///
/// * each lane runs the scan's **unfused** chain `s += (x_j − c_j)²` in
///   `j` order (see [`dist2_lanes`]), so a distance has the scan's bits;
/// * a lane replaces its minimum only on a **strict `<`** (a select on
///   the compare mask), so it keeps its first minimum and never a NaN;
/// * the lanes merge by **(distance, index)** — the smallest distance,
///   the lowest entry index on ties — which is the scan's first minimum.
///
/// NaN distances are never selected; `(0, ∞)` when none is finite.
///
/// # Panics
///
/// Panics if `points` and `out` differ in length, a point is shorter than
/// `dim`, or `centroids` is not `dim`-aligned.
#[inline(always)]
pub fn nearest_many(points: &[&[f32]], centroids: &[f32], dim: usize, out: &mut [(u32, f32)]) {
    nearest_many_k(points, centroids, dim, centroids.len() / dim, out);
}

/// [`nearest_many`] over a table whose entry count `k` the caller already
/// holds ([`Codebook`](crate::Codebook) keeps its own), so the search
/// divides nothing.
///
/// # Panics
///
/// Panics if `points` and `out` differ in length, a point is shorter than
/// `dim`, or `centroids` is not `k × dim` long.
#[inline(always)]
pub(crate) fn nearest_many_k(
    points: &[&[f32]],
    centroids: &[f32],
    dim: usize,
    k: usize,
    out: &mut [(u32, f32)],
) {
    assert_eq!(points.len(), out.len(), "one result per point");
    assert_eq!(centroids.len(), k * dim, "a k × dim table");
    let tier = Tier::detect();
    let pass = tier.points_per_pass();
    for (points, out) in points.chunks(pass).zip(out.chunks_mut(pass)) {
        #[cfg(test)]
        if oracle::forced() {
            for (point, out) in points.iter().zip(out) {
                *out = oracle::nearest_element_major(point, centroids, dim);
            }
            continue;
        }
        tier.search_some(points, centroids, dim, k, out);
    }
}

/// [`nearest_many`] for one point: the index of its nearest centroid and
/// the squared distance, over an element-major table.
///
/// # Panics
///
/// Panics if `point` is shorter than `dim` or `centroids` is not
/// `dim`-aligned.
#[inline]
pub fn nearest(point: &[f32], centroids: &[f32], dim: usize) -> (u32, f32) {
    let mut out = [(0, 0.0)];
    nearest_many(&[point], centroids, dim, &mut out);
    out[0]
}

/// The most books [`kmeans_many`] seeds in lockstep: one per `f64` lane of
/// two AVX2 registers.
pub const MAX_BOOKS: usize = LANES;

/// Training slots a lockstep centre pattern spans: two AVX2 registers of
/// `f32`, the widest block [`Tier::lower`] measures at once. Lane `l` of a
/// pattern belongs to book `l % L`.
const PATTERN: usize = 16;

/// Floats from one element's row of a lockstep training set to the next:
/// its `slots`, then one cache line. Rows `slots` apart would sit a
/// multiple of 4 KiB apart whenever the slot count is a multiple of 1024
/// (8 books of 2048 points: 64 KiB), and so, by the allocator's choice,
/// might the distances stored beside them; the core's 4 KiB store-to-load
/// alias check then stalls the loads of a block behind the last block's
/// stores in some runs and not in others.
fn row_stride(slots: usize) -> usize {
    slots + PATTERN
}

impl Tier {
    /// k-means++ bookkeeping for `L` books seeded in lockstep: lowers every
    /// training slot's `min_d2` to its distance from its book's newest centre,
    /// and returns each book's `min_d2` total.
    ///
    /// Slot `i` is training point `i / L` of book `i % L`. `train` is
    /// element-major over the slots (`train[e · row_stride(slots) + i]`),
    /// and `centre[e]` holds element `e` of book `l % L`'s centre in lane
    /// `l`, so a block of slots meets its books' centres one vector op per
    /// element — sixteen slots a block on AVX2 (and AVX-512), eight on the
    /// portable body. Each slot runs [`dist2_lanes`]'s unfused chain
    /// (`(a − b)²` and `(b − a)²` are the same bits, so the centre plays its
    /// point) and is lowered by a select, `if d < m { d } else { m }`:
    /// `minps`, no branch on the data, and the value the branch gave for NaN
    /// (never taken), ±0 (the older kept) and ∞. Each book's total is its
    /// own `f64` chain over its slots in point order, from `−0` as
    /// `Iterator::sum` starts: the one-book sum's bits.
    fn lower<const L: usize>(
        self,
        centre: &[[f32; PATTERN]],
        train: &[f32],
        min_d2: &mut [f32],
    ) -> [f64; L] {
        let rows = centre.len() * row_stride(min_d2.len());
        assert_eq!(train.len(), rows, "dim rows of row_stride(slots)");
        match self {
            Tier::Portable => lower_lanes(centre, train, min_d2),
            // The 256-bit body on AVX-512 machines too. On a 2-core AVX-512
            // Xeon VM a zmm body seeded 8 books of 2048 points about 0.05 ms
            // a book faster (3 ms of a 2048×128 CQ-4 quantize's 120) and a
            // lone book about 30 % slower.
            // SAFETY: a `Tier::Avx2` or `Tier::Avx512` exists only where AVX2
            // was detected.
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 | Tier::Avx512 => unsafe { lower_avx2(centre, train, min_d2) },
        }
    }

    /// [`scan`] compiled for this tier, picked as [`Tier::lower`] picks:
    /// a group of eight scans its eight `f64` targets in two ymm registers.
    fn scan<const L: usize>(
        self,
        target: &mut [f64; L],
        min_d2: &[f32],
        chosen: &mut [usize; L],
        open: usize,
    ) {
        match self {
            Tier::Portable => scan(target, min_d2, chosen, open),
            // SAFETY: as in `lower`.
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 | Tier::Avx512 => unsafe { scan_avx2(target, min_d2, chosen, open) },
        }
    }
}

/// Adds a block of lowered slots, which starts on a multiple of `L`, to
/// their books' totals in slot order.
#[inline(always)]
fn add_totals<const L: usize>(total: &mut [f64; L], mins: &[f32]) {
    for (i, &m) in mins.iter().enumerate() {
        total[i % L] += f64::from(m);
    }
}

/// [`Tier::lower`] for slots `from..`, one at a time.
#[inline(always)]
fn lower_rest<const L: usize>(
    centre: &[[f32; PATTERN]],
    train: &[f32],
    min_d2: &mut [f32],
    from: usize,
    total: &mut [f64; L],
) {
    let stride = row_stride(min_d2.len());
    for (i, m) in min_d2.iter_mut().enumerate().skip(from) {
        let mut s = 0.0f32;
        for (row, c) in train.chunks_exact(stride).zip(centre) {
            let d = c[i % PATTERN] - row[i];
            s += d * d;
        }
        *m = if s < *m { s } else { *m };
        total[i % L] += f64::from(*m);
    }
}

/// The portable body of [`Tier::lower`]: [`LANES`] slots a block.
fn lower_lanes<const L: usize>(
    centre: &[[f32; PATTERN]],
    train: &[f32],
    min_d2: &mut [f32],
) -> [f64; L] {
    let (slots, stride) = (min_d2.len(), row_stride(min_d2.len()));
    let mut total = [-0.0f64; L];
    let mut blocks = min_d2.chunks_exact_mut(LANES);
    for (b, mins) in blocks.by_ref().enumerate() {
        let mut s = [0.0f32; LANES];
        for (row, c) in train.chunks_exact(stride).zip(centre) {
            let row = &row[b * LANES..][..LANES];
            for l in 0..LANES {
                let d = c[l] - row[l];
                s[l] += d * d;
            }
        }
        for (m, &d) in mins.iter_mut().zip(&s) {
            *m = if d < *m { d } else { *m };
        }
        add_totals(&mut total, mins);
    }
    lower_rest(centre, train, min_d2, slots / LANES * LANES, &mut total);
    total
}

/// [`Tier::lower`] on AVX2: [`PATTERN`] slots a block in two ymm
/// registers, lowered by `vminps` (the select: the slot's distance when it
/// is the smaller, else the old minimum). Written in intrinsics because the
/// compiler, given the portable body widened to sixteen slots under
/// `avx2`, splits an 8-book block into four xmm quarters (it vectorises
/// the `f32` work at the width of the `f64` totals it feeds), which seeded
/// 8 books about 25 % slower.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn lower_avx2<const L: usize>(
    centre: &[[f32; PATTERN]],
    train: &[f32],
    min_d2: &mut [f32],
) -> [f64; L] {
    use std::arch::x86_64::*;
    let (slots, stride) = (min_d2.len(), row_stride(min_d2.len()));
    let mut total = [-0.0f64; L];
    let mut blocks = min_d2.chunks_exact_mut(PATTERN);
    for (b, mins) in blocks.by_ref().enumerate() {
        let (mut lo, mut hi) = (_mm256_setzero_ps(), _mm256_setzero_ps());
        for (e, c) in centre.iter().enumerate() {
            // SAFETY: `e < dim` and `(b + 1) · 16 ≤ slots < stride`, so this
            // reads `train[e·stride + b·16 ..][..16]`, inside `dim · stride
            // == train.len()` (asserted by the caller); `c` holds 16 floats.
            let (x_lo, x_hi, c_lo, c_hi) = unsafe {
                let x = train.as_ptr().add(e * stride + b * PATTERN);
                (
                    _mm256_loadu_ps(x),
                    _mm256_loadu_ps(x.add(LANES)),
                    _mm256_loadu_ps(c.as_ptr()),
                    _mm256_loadu_ps(c.as_ptr().add(LANES)),
                )
            };
            let (d_lo, d_hi) = (_mm256_sub_ps(c_lo, x_lo), _mm256_sub_ps(c_hi, x_hi));
            let (dd_lo, dd_hi) = (_mm256_mul_ps(d_lo, d_lo), _mm256_mul_ps(d_hi, d_hi));
            // `0 + d·d` is `d·d` bit for bit (a square is never −0).
            (lo, hi) = if e == 0 {
                (dd_lo, dd_hi)
            } else {
                (_mm256_add_ps(lo, dd_lo), _mm256_add_ps(hi, dd_hi))
            };
        }
        // SAFETY: `mins` holds exactly two 256-bit vectors, and two of them
        // are sixteen `f32` (totalled from registers, not re-read).
        let mins: [f32; PATTERN] = unsafe {
            let lo = _mm256_min_ps(lo, _mm256_loadu_ps(mins.as_ptr()));
            let hi = _mm256_min_ps(hi, _mm256_loadu_ps(mins.as_ptr().add(LANES)));
            _mm256_storeu_ps(mins.as_mut_ptr(), lo);
            _mm256_storeu_ps(mins.as_mut_ptr().add(LANES), hi);
            std::mem::transmute([lo, hi])
        };
        add_totals(&mut total, &mins);
    }
    lower_rest(centre, train, min_d2, slots / PATTERN * PATTERN, &mut total);
    total
}

/// Assigns point `j` (`point(j)`, for every slot `j` of `assignments`) to
/// its nearest centroid — `em` is the centroids' element-major mirror, `k`
/// of them — [`MAX_POINTS`] points a search, and returns the squared
/// distances' sum, accumulated in point order.
fn assign<'a>(
    point: impl Fn(usize) -> &'a [f32],
    em: &[f32],
    dim: usize,
    k: usize,
    assignments: &mut [u32],
) -> f64 {
    let mut inertia = 0.0f64;
    let mut found = [(0u32, 0.0f32); MAX_POINTS];
    for (c, slots) in assignments.chunks_mut(MAX_POINTS).enumerate() {
        let n = slots.len();
        let points: [&[f32]; MAX_POINTS] = std::array::from_fn(|p| {
            if p < n {
                point(c * MAX_POINTS + p)
            } else {
                &[]
            }
        });
        let found = &mut found[..n];
        nearest_many_k(&points[..n], em, dim, k, found);
        for (slot, &(a, d)) in slots.iter_mut().zip(found.iter()) {
            *slot = a;
            inertia += f64::from(d);
        }
    }
    inertia
}

/// One book's k-means run: its points, its generator, its training
/// subsample and its centroids.
struct Run<'a> {
    points: &'a [f32],
    dim: usize,
    rng: StdRng,
    train_idx: Vec<usize>,
    centroids: Vec<f32>,
}

impl<'a> Run<'a> {
    /// Seeds the book's generator and draws its training subsample
    /// (uniform without replacement when sampling).
    fn new(points: &'a [f32], dim: usize, k: usize, seed: u64, opts: &KmeansOptions) -> Self {
        assert_eq!(points.len() % dim, 0, "points must be n × dim");
        let n = points.len() / dim;
        assert!(n > 0, "need at least one point");
        let mut rng = StdRng::seed_from_u64(seed);
        let train_idx: Vec<usize> = if n <= opts.train_sample {
            (0..n).collect()
        } else {
            // Floyd-ish sampling: step through with random stride; uniform
            // enough for codebook training and deterministic.
            let stride = n as f64 / opts.train_sample as f64;
            (0..opts.train_sample)
                .map(|i| {
                    ((i as f64 * stride) as usize + rng.gen_range(0..stride.max(1.0) as usize + 1))
                        .min(n - 1)
                })
                .collect()
        };
        Run {
            points,
            dim,
            rng,
            train_idx,
            centroids: vec![0.0; k * dim],
        }
    }

    fn point(&self, i: usize) -> &'a [f32] {
        &self.points[i * self.dim..(i + 1) * self.dim]
    }

    /// Lloyd iterations on the training set, with empty-cluster repair,
    /// then the assignment of every point.
    fn finish(self, k: usize, opts: &KmeansOptions) -> KmeansResult {
        let Run {
            points,
            dim,
            train_idx,
            mut centroids,
            ..
        } = self;
        let point = |i: usize| -> &[f32] { &points[i * dim..(i + 1) * dim] };
        let t = train_idx.len();
        let mut train_assign = vec![0u32; t];
        let mut prev_inertia = f64::INFINITY;
        let mut iters_done = 0;
        // Element-major scratch of `centroids` for `nearest`, refreshed
        // whenever an assignment pass is about to read them.
        let mut centroids_em = vec![0.0f32; k * dim];
        for iter in 0..opts.max_iters {
            iters_done = iter + 1;
            element_major_into(&centroids, dim, &mut centroids_em);
            let inertia = assign(
                |j| point(train_idx[j]),
                &centroids_em,
                dim,
                k,
                &mut train_assign,
            );

            // Recompute centroids.
            let mut sums = vec![0.0f64; k * dim];
            let mut counts = vec![0usize; k];
            for (j, &i) in train_idx.iter().enumerate() {
                let a = train_assign[j] as usize;
                counts[a] += 1;
                for (s, &v) in sums[a * dim..(a + 1) * dim].iter_mut().zip(point(i)) {
                    *s += f64::from(v);
                }
            }
            // Empty-cluster repair: seed on the point currently farthest
            // from its centroid.
            for c in 0..k {
                if counts[c] == 0 {
                    let (far_j, _) = train_idx
                        .iter()
                        .enumerate()
                        .map(|(j, &i)| {
                            (
                                j,
                                dist2(
                                    point(i),
                                    &centroids[train_assign[j] as usize * dim..][..dim],
                                ),
                            )
                        })
                        .fold((0, -1.0f32), |acc, x| if x.1 > acc.1 { x } else { acc });
                    let src = point(train_idx[far_j]);
                    centroids[c * dim..(c + 1) * dim].copy_from_slice(src);
                    counts[c] = 1;
                    for (s, &v) in sums[c * dim..(c + 1) * dim].iter_mut().zip(src) {
                        *s = f64::from(v);
                    }
                    train_assign[far_j] = c as u32;
                } else {
                    for (ci, s) in centroids[c * dim..(c + 1) * dim]
                        .iter_mut()
                        .zip(&sums[c * dim..(c + 1) * dim])
                    {
                        *ci = (s / counts[c] as f64) as f32;
                    }
                }
            }

            if prev_inertia.is_finite()
                && (prev_inertia - inertia).abs() <= opts.tol * prev_inertia.abs()
            {
                break;
            }
            prev_inertia = inertia;
        }

        // --- Final assignment of all points ---
        let mut assignments = vec![0u32; points.len() / dim];
        element_major_into(&centroids, dim, &mut centroids_em);
        let inertia = assign(point, &centroids_em, dim, k, &mut assignments);

        KmeansResult {
            centroids,
            dim,
            assignments,
            inertia,
            iterations: iters_done,
        }
    }
}

/// Each of `L` lockstep books' next k-means++ centre, as a training-point
/// index: a uniform draw when the book's `total` is ~0 (all points
/// identical or covered), else the first point at which a uniform target
/// in `[0, total)` minus the running `min_d2` sum reaches 0 ([`scan`]).
fn draw<const L: usize>(
    runs: &mut [Run<'_>],
    total: &[f64; L],
    min_d2: &[f32],
    t: usize,
) -> [usize; L] {
    let mut chosen = [t - 1; L];
    let mut target = [f64::INFINITY; L];
    let mut open = 0;
    for ((run, &total), (chosen, target)) in runs
        .iter_mut()
        .zip(total)
        .zip(chosen.iter_mut().zip(&mut target))
    {
        if total <= f64::EPSILON {
            *chosen = run.rng.gen_range(0..t);
        } else {
            *target = run.rng.gen_range(0.0..total);
            open += 1;
        }
    }
    if open > 0 {
        Tier::detect().scan(&mut target, min_d2, &mut chosen, open);
    }
    chosen
}

/// The k-means++ target scan of `open` lockstep books: each book subtracts
/// its own slots from its own target in point order — the one-book scan's
/// chain — and takes the first point that brings it to 0 or below. The
/// scan stops once every book has hit; a book that hit (or never scans)
/// holds `∞`, which no slot brings to 0.
#[inline(always)]
fn scan<const L: usize>(
    target: &mut [f64; L],
    min_d2: &[f32],
    chosen: &mut [usize; L],
    mut open: usize,
) {
    for (j, mins) in min_d2.as_chunks::<L>().0.iter().enumerate() {
        let mut hit = false;
        for (target, &m) in target.iter_mut().zip(mins) {
            *target -= f64::from(m);
            hit |= *target <= 0.0;
        }
        if hit {
            for (target, chosen) in target.iter_mut().zip(chosen.iter_mut()) {
                if *target <= 0.0 {
                    (*chosen, *target) = (j, f64::INFINITY);
                    open -= 1;
                }
            }
            if open == 0 {
                break;
            }
        }
    }
}

/// [`scan`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn scan_avx2<const L: usize>(
    target: &mut [f64; L],
    min_d2: &[f32],
    chosen: &mut [usize; L],
    open: usize,
) {
    scan(target, min_d2, chosen, open);
}

/// k-means++ seeding of up to `L` books with one training count in
/// lockstep (see [`kmeans_many`]); lanes past `runs.len()` hold zeros and
/// draw nothing.
fn seed_lockstep<const L: usize>(runs: &mut [Run<'_>], k: usize) {
    let (dim, t) = (runs[0].dim, runs[0].train_idx.len());
    let (slots, stride) = (t * L, row_stride(t * L));
    // The training rows and, after them, the distances: one buffer, so
    // their distances apart are fixed, whatever the allocator does.
    let mut buf = vec![0.0f32; dim * stride + slots];
    let (train, min_d2) = buf.split_at_mut(dim * stride);
    for (b, run) in runs.iter().enumerate() {
        for (j, &i) in run.train_idx.iter().enumerate() {
            for (e, &v) in run.point(i).iter().enumerate() {
                train[e * stride + j * L + b] = v;
            }
        }
    }
    min_d2.fill(f32::INFINITY);
    let mut centre = vec![[0.0f32; PATTERN]; dim];
    let mut chosen = [0; L];
    for (chosen, run) in chosen.iter_mut().zip(runs.iter_mut()) {
        *chosen = run.rng.gen_range(0..t);
    }
    let mut total = [0.0f64; L];
    for c in 0..k {
        if c > 0 {
            chosen = draw(runs, &total, min_d2, t);
        }
        for (b, run) in runs.iter_mut().enumerate() {
            let src = run.point(run.train_idx[chosen[b]]);
            run.centroids[c * dim..(c + 1) * dim].copy_from_slice(src);
            for (lanes, &v) in centre.iter_mut().zip(src) {
                for lane in lanes.iter_mut().skip(b).step_by(L) {
                    *lane = v;
                }
            }
        }
        total = Tier::detect().lower(&centre, train, min_d2);
    }
}

/// Seeds one lockstep group in the narrowest lane count that holds it.
fn seed_group(runs: &mut [Run<'_>], k: usize) {
    #[cfg(test)]
    if oracle::forced() {
        for run in runs {
            oracle::seed(run, k);
        }
        return;
    }
    match runs.len() {
        1 => seed_lockstep::<1>(runs, k),
        2 => seed_lockstep::<2>(runs, k),
        3 | 4 => seed_lockstep::<4>(runs, k),
        _ => seed_lockstep::<MAX_BOOKS>(runs, k),
    }
}

/// Runs k-means on each of `books` (each a flat `n × dim` point set and
/// its seed) for `k` clusters: k-means++ seeding on a training subsample,
/// Lloyd iterations with empty-cluster repair (an empty cluster is
/// re-seeded on the point farthest from its centroid), then the assignment
/// of *all* points — every book exactly its [`kmeans`] run.
///
/// Codebook-centric seeding: books with the same training count are
/// seeded up to [`MAX_BOOKS`] at a time (in book order; a book whose count
/// differs joins a group of its own count), one book per lane. Their
/// training points are laid out element-major `[e][j][book]` and their
/// nearest-centre distances `[j][book]`, so one pass over the training set
/// measures every book's newest centre ([`Tier::lower`]), and the two
/// serial `f64` chains seeding runs per centre — the `min_d2` total and
/// the target scan ([`draw`]) — advance all the books' lanes a step at a
/// time: their latency is paid once per group, not per book. Each lane
/// runs its own book's chains in point order, and each book keeps its own
/// generator and makes its own draws in its own order, so every book's
/// centroids are bit for bit its lone run's. Lloyd and the final
/// assignment stay per book; a group is trained to the end before the
/// next is laid out, so at most [`MAX_BOOKS`] runs' buffers are alive.
///
/// # Panics
///
/// Panics if `dim == 0`, `k == 0`, or a book is empty or not a multiple
/// of `dim` long.
pub fn kmeans_many(
    books: &[(&[f32], u64)],
    dim: usize,
    k: usize,
    opts: &KmeansOptions,
) -> Vec<KmeansResult> {
    assert!(dim > 0 && k > 0, "dim and k must be positive");
    // A book's training count: all its points, or `train_sample` of them.
    let count = |b: usize| (books[b].0.len() / dim).min(opts.train_sample);
    let mut out: Vec<Option<KmeansResult>> = books.iter().map(|_| None).collect();
    let mut left: Vec<usize> = (0..books.len()).collect();
    while let Some(&first) = left.first() {
        let t = count(first);
        let (mut group, mut rest) = (Vec::with_capacity(MAX_BOOKS), Vec::new());
        for b in left {
            if group.len() < MAX_BOOKS && count(b) == t {
                group.push(b);
            } else {
                rest.push(b);
            }
        }
        // One group's runs at a time, trained to the end before the next.
        let mut runs: Vec<Run<'_>> = group
            .iter()
            .map(|&b| Run::new(books[b].0, dim, k, books[b].1, opts))
            .collect();
        seed_group(&mut runs, k);
        for (&b, run) in group.iter().zip(runs) {
            out[b] = Some(run.finish(k, opts));
        }
        left = rest;
    }
    out.into_iter()
        .map(|r| r.expect("every book is in one group"))
        .collect()
}

/// Runs k-means on `points` (flat `n × dim`) for `k` clusters:
/// [`kmeans_many`] of one book.
///
/// # Panics
///
/// Panics if `dim == 0`, `k == 0`, or `points` is empty or not a multiple
/// of `dim` long.
pub fn kmeans(
    points: &[f32],
    dim: usize,
    k: usize,
    seed: u64,
    opts: &KmeansOptions,
) -> KmeansResult {
    let mut out = kmeans_many(&[(points, seed)], dim, k, opts);
    out.pop().expect("one book in, one result out")
}

/// The one-centroid-at-a-time search exactly as it stood before
/// [`nearest`] went entry-parallel, kept as the reference the new search
/// is pinned to — directly, and (through [`oracle::with`]) underneath
/// whole `kmeans` / `quantize` runs.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{dist2, Run};
    use rand::Rng;
    use std::cell::Cell;

    thread_local!(static FORCED: Cell<bool> = const { Cell::new(false) });

    /// Whether this thread's searches are routed to the oracle.
    pub fn forced() -> bool {
        FORCED.with(Cell::get)
    }

    /// Runs `f` with every search on this thread routed to the oracle.
    pub fn with<R>(f: impl FnOnce() -> R) -> R {
        FORCED.with(|c| c.set(true));
        let out = f();
        FORCED.with(|c| c.set(false));
        out
    }

    /// Index of the nearest centroid and its squared distance, over a
    /// row-major `k × dim` table.
    pub fn nearest(point: &[f32], centroids: &[f32], dim: usize) -> (u32, f32) {
        let mut best = 0u32;
        let mut best_d = f32::INFINITY;
        for (i, c) in centroids.chunks_exact(dim).enumerate() {
            let d = dist2(point, c);
            if d < best_d {
                best_d = d;
                best = i as u32;
            }
        }
        (best, best_d)
    }

    /// Row `c` of a row-major table, read back out of its element-major
    /// mirror (`n` entries per element row).
    fn row_of(em: &[f32], dim: usize, c: usize) -> Vec<f32> {
        let n = em.len() / dim;
        (0..dim).map(|j| em[j * n + c]).collect()
    }

    pub fn nearest_element_major(point: &[f32], em: &[f32], dim: usize) -> (u32, f32) {
        let rows: Vec<f32> = (0..em.len() / dim)
            .flat_map(|c| row_of(em, dim, c))
            .collect();
        nearest(point, &rows, dim)
    }

    /// k-means++ seeding of one book exactly as it stood before books were
    /// seeded in lockstep: the branchy distance update below, one serial
    /// total and one serial target scan per centre.
    pub(super) fn seed(run: &mut Run<'_>, k: usize) {
        let (dim, t) = (run.dim, run.train_idx.len());
        let mut train_em = vec![0.0f32; t * dim];
        for (j, &i) in run.train_idx.iter().enumerate() {
            for (e, &v) in run.point(i).iter().enumerate() {
                train_em[e * t + j] = v;
            }
        }
        let first = run.train_idx[run.rng.gen_range(0..t)];
        let first = run.point(first);
        run.centroids[..dim].copy_from_slice(first);
        let mut min_d2 = vec![f32::INFINITY; t];
        lower_min_dists(&run.centroids[..dim], &train_em, &mut min_d2);
        for c in 1..k {
            let total: f64 = min_d2.iter().map(|&d| f64::from(d)).sum();
            let chosen = if total <= f64::EPSILON {
                run.rng.gen_range(0..t)
            } else {
                let mut target = run.rng.gen_range(0.0..total);
                let mut idx = t - 1;
                for (j, &d) in min_d2.iter().enumerate() {
                    target -= f64::from(d);
                    if target <= 0.0 {
                        idx = j;
                        break;
                    }
                }
                idx
            };
            let src = run.point(run.train_idx[chosen]);
            run.centroids[c * dim..(c + 1) * dim].copy_from_slice(src);
            lower_min_dists(src, &train_em, &mut min_d2);
        }
    }

    /// Lowers `min_d2[j]` to training point `j`'s distance from `centre`
    /// (element-major `train`), one branch per point.
    pub fn lower_min_dists(centre: &[f32], train: &[f32], min_d2: &mut [f32]) {
        for (j, m) in min_d2.iter_mut().enumerate() {
            let d = dist2(&row_of(train, centre.len(), j), centre);
            if d < *m {
                *m = d;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs(n_per: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pts = Vec::with_capacity(n_per * 2 * 2);
        for _ in 0..n_per {
            pts.push(5.0 + rng.gen_range(-0.5f32..0.5));
            pts.push(5.0 + rng.gen_range(-0.5f32..0.5));
        }
        for _ in 0..n_per {
            pts.push(-5.0 + rng.gen_range(-0.5f32..0.5));
            pts.push(-5.0 + rng.gen_range(-0.5f32..0.5));
        }
        pts
    }

    #[test]
    fn separates_two_blobs() {
        let pts = two_blobs(100, 1);
        let r = kmeans(&pts, 2, 2, 42, &KmeansOptions::default());
        // Centroids near (5,5) and (-5,-5) in some order.
        let c0 = &r.centroids[0..2];
        let c1 = &r.centroids[2..4];
        let near = |c: &[f32], x: f32| (c[0] - x).abs() < 1.0 && (c[1] - x).abs() < 1.0;
        assert!((near(c0, 5.0) && near(c1, -5.0)) || (near(c0, -5.0) && near(c1, 5.0)));
        // First 100 points share a cluster, last 100 the other.
        assert!(r.assignments[..100].windows(2).all(|w| w[0] == w[1]));
        assert!(r.assignments[100..].windows(2).all(|w| w[0] == w[1]));
        assert_ne!(r.assignments[0], r.assignments[150]);
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let pts = vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 5.0, 5.0];
        let r = kmeans(&pts, 2, 4, 7, &KmeansOptions::default());
        assert!(r.inertia < 1e-9, "inertia {}", r.inertia);
    }

    #[test]
    fn deterministic_under_seed() {
        let pts = two_blobs(64, 3);
        let a = kmeans(&pts, 2, 4, 11, &KmeansOptions::default());
        let b = kmeans(&pts, 2, 4, 11, &KmeansOptions::default());
        assert_eq!(a.centroids, b.centroids);
        assert_eq!(a.assignments, b.assignments);
    }

    #[test]
    fn handles_more_clusters_than_distinct_points() {
        // 4 identical points, k = 3: must not panic, must assign all.
        let pts = vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let r = kmeans(&pts, 2, 3, 5, &KmeansOptions::default());
        assert_eq!(r.assignments.len(), 4);
    }

    #[test]
    fn subsampled_training_still_assigns_everything() {
        let pts = two_blobs(5000, 9);
        let opts = KmeansOptions {
            train_sample: 256,
            ..Default::default()
        };
        let r = kmeans(&pts, 2, 2, 1, &opts);
        assert_eq!(r.assignments.len(), 10_000);
        assert_ne!(r.assignments[0], r.assignments[9_999]);
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let pts = two_blobs(200, 13);
        let r2 = kmeans(&pts, 2, 2, 1, &KmeansOptions::default());
        let r8 = kmeans(&pts, 2, 8, 1, &KmeansOptions::default());
        assert!(r8.inertia <= r2.inertia);
    }

    #[test]
    fn nearest_returns_argmin() {
        // Element-major: x row, then y row.
        let centroids = vec![0.0, 10.0, 0.0, 10.0];
        let (id, d) = nearest(&[9.0, 9.0], &centroids, 2);
        assert_eq!(id, 1);
        assert!((d - 2.0).abs() < 1e-6);
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A coordinate from a small grid (so distances tie), now and then a
    /// full-mantissa one (so a fused multiply-add would round
    /// differently), a signed zero, or an infinity or a NaN when `wild`.
    fn coord(rng: &mut u64, wild: bool) -> f32 {
        let pick = splitmix(rng) % 64;
        match pick {
            0 if wild => f32::NAN,
            1 if wild => f32::INFINITY,
            2 if wild => f32::NEG_INFINITY,
            3 => -0.0,
            4 => 0.0,
            5..=20 => (splitmix(rng) >> 40) as f32 / (1 << 23) as f32 - 1.0,
            _ => (splitmix(rng) % 9) as f32 * 0.25 - 1.0,
        }
    }

    /// Every tier of [`nearest_many`] this machine has; the missing ones
    /// are reported once as skipped.
    fn tiers() -> Vec<Tier> {
        static SKIPPED: std::sync::Once = std::sync::Once::new();
        #[allow(unused_mut)]
        let mut tiers = vec![Tier::Portable];
        #[cfg(target_arch = "x86_64")]
        {
            let mut missing = Vec::new();
            for (tier, have) in [
                (Tier::Avx2, std::arch::is_x86_feature_detected!("avx2")),
                (
                    Tier::Avx512,
                    std::arch::is_x86_feature_detected!("avx2")
                        && std::arch::is_x86_feature_detected!("avx512f"),
                ),
            ] {
                if have {
                    tiers.push(tier);
                } else {
                    missing.push(tier.name());
                }
            }
            if !missing.is_empty() {
                SKIPPED
                    .call_once(|| eprintln!("nearest: tiers SKIPPED, CPU lacks them: {missing:?}"));
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        SKIPPED.call_once(|| eprintln!("nearest: tiers SKIPPED, not x86-64: avx2, avx512f"));
        tiers
    }

    /// Checks 1..=[`MAX_POINTS`] `points` searched together on every tier
    /// this machine has, each point searched alone on each tier, and the
    /// dispatched [`nearest_many`] and [`nearest`], against the oracle's
    /// one-point scan over the row-major `rows` (`em` is their mirror).
    fn assert_tiers_match(points: &[&[f32]], rows: &[f32], em: &[f32], dim: usize) {
        let k = rows.len() / dim;
        let bits = |found: &[(u32, f32)]| -> Vec<(u32, u32)> {
            found.iter().map(|&(i, d)| (i, d.to_bits())).collect()
        };
        let want: Vec<(u32, u32)> = points
            .iter()
            .map(|p| {
                let (i, d) = oracle::nearest(p, rows, dim);
                (i, d.to_bits())
            })
            .collect();
        let n = points.len();
        let mut found = vec![(0, 0.0); n];
        for tier in tiers() {
            let name = tier.name();
            tier.search_some(points, em, dim, k, &mut found);
            assert_eq!(
                bits(&found),
                want,
                "{name} tier, {n} points, k {k} dim {dim}, {points:?}"
            );
            for (point, want) in points.iter().zip(&want) {
                let mut one = [(0, 0.0)];
                tier.search_some(&[point], em, dim, k, &mut one);
                assert_eq!(
                    bits(&one)[0],
                    *want,
                    "{name} tier alone, k {k} dim {dim}, {point:?}"
                );
            }
        }
        nearest_many(points, em, dim, &mut found);
        assert_eq!(
            bits(&found),
            want,
            "nearest_many, {n} points, k {k} dim {dim}"
        );
        let alone: Vec<(u32, f32)> = points.iter().map(|p| nearest(p, em, dim)).collect();
        assert_eq!(bits(&alone), want, "nearest, k {k} dim {dim}");
    }

    fn element_major(rows: &[f32], dim: usize) -> Vec<f32> {
        let mut em = vec![0.0f32; rows.len()];
        element_major_into(rows, dim, &mut em);
        em
    }

    /// A tie-heavy table: grid coordinates, with a quarter of the
    /// centroids duplicated onto earlier ones.
    fn tie_heavy_rows(k: usize, dim: usize, wild: bool, rng: &mut u64) -> Vec<f32> {
        let mut rows: Vec<f32> = (0..k * dim).map(|_| coord(rng, wild)).collect();
        for c in 1..k {
            if splitmix(rng).is_multiple_of(4) {
                let src = (splitmix(rng) % c as u64) as usize;
                rows.copy_within(src * dim..(src + 1) * dim, c * dim);
            }
        }
        rows
    }

    /// `n` probes, half of them sitting exactly on a centroid.
    fn probes(rows: &[f32], dim: usize, n: usize, wild: bool, rng: &mut u64) -> Vec<Vec<f32>> {
        let k = rows.len() / dim;
        (0..n)
            .map(|_| {
                if splitmix(rng).is_multiple_of(2) {
                    let c = (splitmix(rng) % k as u64) as usize;
                    rows[c * dim..(c + 1) * dim].to_vec()
                } else {
                    (0..dim).map(|_| coord(rng, wild)).collect()
                }
            })
            .collect()
    }

    proptest::proptest! {
        /// The entry-parallel search returns the oracle's index and the
        /// oracle's distance bits — on every tier this machine has, each
        /// called by name — over tie-heavy tables (grid coordinates,
        /// duplicated centroids), signed zeros and non-finite coordinates,
        /// at block-aligned and ragged `k` for both block widths.
        #[test]
        fn nearest_is_the_scalar_scan_bit_for_bit(
            dim_i in 0usize..6,
            k_i in 0usize..10,
            wild in proptest::any::<bool>(),
            seed in 0u64..10_000,
        ) {
            let dim = [1, 2, 3, 4, 8, 16][dim_i];
            let k = [1, 7, 8, 9, 15, 16, 17, 33, 256, 4096][k_i];
            let mut rng = seed;
            let rows = tie_heavy_rows(k, dim, wild, &mut rng);
            let em = element_major(&rows, dim);
            for point in probes(&rows, dim, 8, wild, &mut rng) {
                assert_tiers_match(&[&point], &rows, &em, dim);
            }
        }

        /// Searched together, every point gets what it gets alone and what
        /// the oracle's scan gives it: 1..=8 points at every dimension up
        /// to 8, across `k` on both sides of each block width, with exact
        /// ties, duplicate entries, NaN and ±∞ coordinates.
        #[test]
        fn nearest_many_is_nearest_is_the_oracle(
            dim in 1usize..=8,
            k_i in 0usize..6,
            n in 1usize..=MAX_POINTS,
            wild in proptest::any::<bool>(),
            seed in 0u64..10_000,
        ) {
            let k = [1, 15, 16, 17, 256, 4096][k_i];
            let mut rng = seed;
            let rows = tie_heavy_rows(k, dim, wild, &mut rng);
            let em = element_major(&rows, dim);
            let points = probes(&rows, dim, n, wild, &mut rng);
            let points: Vec<&[f32]> = points.iter().map(Vec::as_slice).collect();
            assert_tiers_match(&points, &rows, &em, dim);
        }
    }

    /// More points than one pass takes: the search runs them eight at a
    /// time, and each still gets its own scan's answer.
    #[test]
    fn nearest_many_splits_long_point_lists() {
        let (dim, k) = (3, 40);
        let mut rng = 5;
        let rows = tie_heavy_rows(k, dim, true, &mut rng);
        let em = element_major(&rows, dim);
        let points = probes(&rows, dim, 19, true, &mut rng);
        let points: Vec<&[f32]> = points.iter().map(Vec::as_slice).collect();
        let mut found = vec![(0, 0.0); points.len()];
        nearest_many(&points, &em, dim, &mut found);
        for (point, &(i, d)) in points.iter().zip(&found) {
            let (want_i, want_d) = oracle::nearest(point, &rows, dim);
            assert_eq!((i, d.to_bits()), (want_i, want_d.to_bits()), "{point:?}");
        }
    }

    #[test]
    fn nearest_tiers_agree_on_pinned_edge_cases() {
        for dim in [1, 2, 3, 4, 8, 16] {
            for k in [1, 15, 16, 17, 33, 256] {
                // No finite distance anywhere: every tier answers (0, ∞).
                let nan = vec![f32::NAN; k * dim];
                let point = vec![0.5f32; dim];
                assert_eq!(oracle::nearest(&point, &nan, dim).0, 0);
                assert_tiers_match(&[&point], &nan, &element_major(&nan, dim), dim);

                // An infinite coordinate in the point: ∞ or NaN distances.
                let rows: Vec<f32> = (0..k * dim).map(|i| (i % 7) as f32 - 3.0).collect();
                let em = element_major(&rows, dim);
                let points: Vec<Vec<f32>> = [f32::INFINITY, f32::NEG_INFINITY]
                    .iter()
                    .map(|&inf| {
                        let mut point = rows[(k - 1) * dim..].to_vec();
                        point[dim - 1] = inf;
                        point
                    })
                    .collect();
                // Alone, and beside a finite point in one search.
                for point in &points {
                    assert_tiers_match(&[point], &rows, &em, dim);
                }
                let finite = &rows[..dim];
                assert_tiers_match(&[&points[0], finite, &points[1]], &rows, &em, dim);
            }
            // The same entry at `c`, `c + 8` and `c + 16`: a tie across
            // 8-wide lanes and across 16-wide blocks, first index wins.
            for c in [0, 3, 7, 8, 15, 16, 200] {
                let k = 256;
                let mut rows: Vec<f32> = (0..k * dim).map(|i| i as f32 * 0.5 + 10.0).collect();
                let target = vec![-1.0f32; dim];
                for e in [c, c + 8, c + 16] {
                    rows[e * dim..(e + 1) * dim].copy_from_slice(&target);
                }
                let point = vec![-1.25f32; dim];
                assert_eq!(oracle::nearest(&point, &rows, dim).0, c as u32);
                let em = element_major(&rows, dim);
                assert_tiers_match(&[&point], &rows, &em, dim);
                let far = vec![1e3f32; dim];
                assert_tiers_match(&[&far, &point, &target, &point], &rows, &em, dim);
            }
        }
    }

    #[test]
    fn kmeans_is_its_oracle_driven_run() {
        // Ragged training-set and cluster counts, sampled and unsampled.
        for (n_per, k, sample) in [(37, 5, usize::MAX), (100, 16, usize::MAX), (300, 9, 64)] {
            let pts = two_blobs(n_per, 17);
            let opts = KmeansOptions {
                train_sample: sample,
                ..Default::default()
            };
            let got = kmeans(&pts, 2, k, 3, &opts);
            let want = oracle::with(|| kmeans(&pts, 2, k, 3, &opts));
            assert_eq!(got.centroids, want.centroids);
            assert_eq!(got.assignments, want.assignments);
            assert_eq!(got.inertia.to_bits(), want.inertia.to_bits());
            assert_eq!(got.iterations, want.iterations);
        }
    }

    /// The `L`-book lowering on `tier` against one branch per slot, over
    /// `t` points a book: every slot's minimum bits and every book's total
    /// bits.
    fn assert_lowering_is_the_branch<const L: usize>(tier: Tier, t: usize, rng: &mut u64) {
        let dim = 1 + (splitmix(rng) % 4) as usize;
        let (slots, stride) = (t * L, row_stride(t * L));
        let train: Vec<f32> = (0..dim * stride).map(|_| coord(rng, true)).collect();
        let centres: Vec<Vec<f32>> = (0..L)
            .map(|_| (0..dim).map(|_| coord(rng, true)).collect())
            .collect();
        let mut centre = vec![[0.0f32; PATTERN]; dim];
        for (e, lanes) in centre.iter_mut().enumerate() {
            for (l, lane) in lanes.iter_mut().enumerate() {
                *lane = centres[l % L][e];
            }
        }
        let special = [f32::NAN, -0.0, 0.0, f32::INFINITY, 0.5, 2.0];
        let start: Vec<f32> = (0..slots)
            .map(|_| special[(splitmix(rng) % special.len() as u64) as usize])
            .collect();
        let mut want = start.clone();
        for (i, m) in want.iter_mut().enumerate() {
            let point: Vec<f32> = (0..dim).map(|e| train[e * stride + i]).collect();
            let d = dist2(&point, &centres[i % L]);
            if d < *m {
                *m = d;
            }
        }
        let want_total: Vec<u64> = (0..L)
            .map(|b| {
                let sum: f64 = want.iter().skip(b).step_by(L).map(|&m| f64::from(m)).sum();
                sum.to_bits()
            })
            .collect();
        let mut got = start;
        let total = tier.lower::<L>(&centre, &train, &mut got);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let name = tier.name();
        assert_eq!(
            bits(&got),
            bits(&want),
            "{name}, {L} books, {t} points, dim {dim}"
        );
        let total: Vec<u64> = total.iter().map(|x| x.to_bits()).collect();
        assert_eq!(total, want_total, "{name} totals, {L} books, {t} points");
    }

    /// The branch-free `d < m` select lowers each slot exactly as the branch
    /// did — NaN distances never taken, a NaN minimum kept, `+0` against
    /// `−0` keeping the older, ∞ on either side — on every tier, for 1, 2,
    /// 4 and 8 books, at slot counts on and off every block width.
    #[test]
    fn lowering_select_is_the_branch() {
        let mut rng = 7;
        for tier in tiers() {
            for t in [1, 2, 3, 5, 8, 16, 17, 33] {
                assert_lowering_is_the_branch::<1>(tier, t, &mut rng);
                assert_lowering_is_the_branch::<2>(tier, t, &mut rng);
                assert_lowering_is_the_branch::<4>(tier, t, &mut rng);
                assert_lowering_is_the_branch::<8>(tier, t, &mut rng);
            }
        }
    }

    /// The lockstep target scan takes, for each book, the first point its
    /// own chain brings to 0 — the one-book scan's answer — on every tier,
    /// for 1, 2, 4 and 8 books, with a book
    /// that never scans (target ∞) beside them, and books whose target is
    /// exactly a prefix of their distances (quarter-grid values, so the
    /// chain reaches exactly 0 at that point, which `<= 0` takes).
    #[test]
    fn lockstep_scan_is_each_books_scan() {
        let mut rng = 3;
        for tier in tiers() {
            for t in [1, 2, 9, 40] {
                assert_scan_is_each_books::<1>(tier, t, &mut rng);
                assert_scan_is_each_books::<2>(tier, t, &mut rng);
                assert_scan_is_each_books::<4>(tier, t, &mut rng);
                assert_scan_is_each_books::<8>(tier, t, &mut rng);
            }
        }
    }

    /// [`Tier::scan`] of `L` books over `t` points each on `tier`, against
    /// each book's serial scan: odd books draw a fraction of their total,
    /// even ones an exact prefix of it, and book 1 (when there is one)
    /// never scans.
    fn assert_scan_is_each_books<const L: usize>(tier: Tier, t: usize, rng: &mut u64) {
        let min_d2: Vec<f32> = (0..t * L)
            .map(|_| (splitmix(rng) % 9) as f32 * 0.25)
            .collect();
        let mut target = [0.0f64; L];
        let mut want = [t - 1; L];
        let mut open = 0;
        for (b, (target, want)) in target.iter_mut().zip(&mut want).enumerate() {
            let mins = || min_d2.iter().skip(b).step_by(L).map(|&m| f64::from(m));
            if b == 1 {
                *target = f64::INFINITY;
                continue;
            }
            open += 1;
            *target = if b % 2 == 0 {
                let prefix = 1 + (splitmix(rng) % t as u64) as usize;
                mins().take(prefix).sum()
            } else {
                mins().sum::<f64>() * (splitmix(rng) % 1000) as f64 / 1000.0
            };
            let mut left = *target;
            for (j, m) in mins().enumerate() {
                left -= m;
                if left <= 0.0 {
                    *want = j;
                    break;
                }
            }
        }
        let mut chosen = [t - 1; L];
        tier.scan(&mut target, &min_d2, &mut chosen, open);
        assert_eq!(chosen, want, "{} tier, {L} books, {t} points", tier.name());
    }

    proptest::proptest! {
        /// Seeded in lockstep, every book is bit for bit its lone run on the
        /// oracle (the one-book seeding and one-centroid-at-a-time search
        /// of before): centroids, assignments, inertia and iterations. 1..=9
        /// books of mixed sizes (unequal training counts seed in smaller
        /// groups), a book whose points are all one point (its totals reach
        /// 0 and it draws uniformly), and subsampled training sets.
        #[test]
        fn kmeans_many_is_each_books_lone_oracle_run(
            books in 1usize..=9,
            dim_i in 0usize..3,
            k_i in 0usize..4,
            iters in 0usize..=2,
            sampled in proptest::any::<bool>(),
            seed in 0u64..10_000,
        ) {
            let dim = [2, 4, 8][dim_i];
            let k = [1, 7, 16, 256][k_i];
            let mut rng = seed;
            let opts = KmeansOptions {
                max_iters: iters,
                train_sample: if sampled { 24 } else { usize::MAX },
                ..KmeansOptions::default()
            };
            let flat = (splitmix(&mut rng) % books as u64) as usize;
            let sets: Vec<Vec<f32>> = (0..books)
                .map(|b| {
                    let n = [20, 20, 20, 31][(splitmix(&mut rng) % 4) as usize];
                    if b == flat {
                        let point: Vec<f32> = (0..dim).map(|_| coord(&mut rng, false)).collect();
                        point.repeat(n)
                    } else {
                        (0..n * dim).map(|_| coord(&mut rng, false)).collect()
                    }
                })
                .collect();
            let pairs: Vec<(&[f32], u64)> = sets
                .iter()
                .enumerate()
                .map(|(b, set)| (&set[..], seed ^ b as u64))
                .collect();
            let got = kmeans_many(&pairs, dim, k, &opts);
            for (b, (got, &(points, seed))) in got.iter().zip(&pairs).enumerate() {
                let want = oracle::with(|| kmeans(points, dim, k, seed, &opts));
                assert_eq!(got.centroids, want.centroids, "book {b} of {books}");
                assert_eq!(got.assignments, want.assignments, "book {b}");
                assert_eq!(got.inertia.to_bits(), want.inertia.to_bits(), "book {b}");
                assert_eq!(got.iterations, want.iterations, "book {b}");
            }
        }
    }
}
