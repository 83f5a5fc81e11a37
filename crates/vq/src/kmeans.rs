//! K-means clustering with k-means++ seeding.
//!
//! The codebook-training workhorse (paper Fig. 1: "conduct k-means
//! clustering to group these sub-vectors into #Entry clusters"). Points are
//! flat `f32` slices (`n × dim`, row-major) to keep the inner distance loop
//! allocation-free.

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

/// Stored entries searched per iteration of [`nearest`] (one AVX2 register
/// of `f32`, two SSE ones).
const LANES: usize = 8;

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
/// `out[j · n + c] = rows[c · dim + j]` — the layout [`nearest`] searches
/// and [`Codebook::entries_interleaved`](crate::Codebook::entries_interleaved)
/// holds.
pub(crate) fn element_major_into(rows: &[f32], dim: usize, out: &mut [f32]) {
    let n = rows.len() / dim;
    for (c, row) in rows.chunks_exact(dim).enumerate() {
        for (j, &v) in row.iter().enumerate() {
            out[j * n + c] = v;
        }
    }
}

/// Squared distances from `point` to the [`LANES`] consecutive entries
/// starting at `c0` of an element-major table with `k` entries per row.
///
/// Each lane runs [`dist2`]'s chain — `s = 0; s += (x_j − c_j)²` in `j`
/// order, multiply and add **unfused** — so a lane's distance has exactly
/// the bits the entry-at-a-time loop produced. A fused multiply-add rounds
/// once instead of twice and would move near-tie codes: the codebooks,
/// packed streams and folded live-KV rows of every earlier commit.
#[inline(always)]
fn dist2_lanes(point: &[f32], em: &[f32], k: usize, c0: usize) -> [f32; LANES] {
    let mut s = [0.0f32; LANES];
    for (&x, row) in point.iter().zip(em.chunks_exact(k)) {
        let row = &row[c0..c0 + LANES];
        for l in 0..LANES {
            let d = x - row[l];
            s[l] += d * d;
        }
    }
    s
}

/// [`dist2_lanes`] for the single entry `c` (the `k % LANES` remainder).
#[inline(always)]
fn dist2_strided(point: &[f32], em: &[f32], k: usize, c: usize) -> f32 {
    let mut s = 0.0;
    for (&x, row) in point.iter().zip(em.chunks_exact(k)) {
        let d = x - row[c];
        s += d * d;
    }
    s
}

/// The body of [`nearest`], inlined into one function per SIMD tier.
#[inline(always)]
fn nearest_lanes(point: &[f32], em: &[f32], dim: usize) -> (u32, f32) {
    let k = em.len() / dim;
    let point = &point[..dim];
    let blocks = k / LANES;
    // Lane `l` keeps the first minimum among entries `≡ l (mod LANES)` as
    // its distance and the block it sits in — the block as an `f32`, so
    // both updates are selects on one vector compare (block numbers are
    // exact up to 2²⁴).
    assert!(blocks <= 1 << 24, "codebook too large for the lane search");
    let mut best_d = [f32::INFINITY; LANES];
    let mut best_b = [0.0f32; LANES];
    for b in 0..blocks {
        let s = dist2_lanes(point, em, k, b * LANES);
        let bf = b as f32;
        for l in 0..LANES {
            let closer = s[l] < best_d[l];
            best_d[l] = if closer { s[l] } else { best_d[l] };
            best_b[l] = if closer { bf } else { best_b[l] };
        }
    }
    // The first global minimum is the smallest distance, lowest index on
    // ties: entry `b · LANES + l` precedes another exactly when its
    // (block, lane) does, and lanes are visited in order. The remainder
    // entries sit past every lane's, so plain `<` keeps the tie-break.
    let (mut lane, mut b_min, mut d_min) = (0, 0.0f32, f32::INFINITY);
    for l in 0..LANES {
        if best_d[l] < d_min || (best_d[l] == d_min && best_b[l] < b_min) {
            (lane, b_min, d_min) = (l, best_b[l], best_d[l]);
        }
    }
    let mut best = (b_min as usize * LANES + lane) as u32;
    for c in blocks * LANES..k {
        let d = dist2_strided(point, em, k, c);
        if d < d_min {
            d_min = d;
            best = c as u32;
        }
    }
    (best, d_min)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn nearest_avx2(point: &[f32], em: &[f32], dim: usize) -> (u32, f32) {
    nearest_lanes(point, em, dim)
}

/// Index of the nearest centroid and its squared distance, over an
/// **element-major** centroid table (`dim × k`: row `j` holds element `j`
/// of every centroid — [`element_major_into`]'s layout).
///
/// Entry-parallel: [`LANES`] centroids per iteration, each lane an
/// unfused scalar chain (see [`dist2_lanes`]), first minimum wins — the
/// result is bit for bit the one-centroid-at-a-time scan's, NaN distances
/// never selected, `(0, ∞)` when none is finite.
///
/// # Panics
///
/// Panics if `point` is shorter than `dim` or `centroids` is not
/// `dim`-aligned.
#[inline]
pub fn nearest(point: &[f32], centroids: &[f32], dim: usize) -> (u32, f32) {
    #[cfg(test)]
    if oracle::forced() {
        return oracle::nearest_element_major(point, centroids, dim);
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 presence was just verified.
        return unsafe { nearest_avx2(point, centroids, dim) };
    }
    nearest_lanes(point, centroids, dim)
}

/// k-means++ bookkeeping: lowers `min_d2[j]` to the distance between
/// training point `j` (element-major `train`, `min_d2.len()` points per
/// row) and the newly chosen centre. `(a − b)²` and `(b − a)²` are the
/// same bits, so the centre plays [`dist2_lanes`]'s point and the
/// training set its table.
fn lower_min_dists(centre: &[f32], train: &[f32], min_d2: &mut [f32]) {
    let t = min_d2.len();
    #[cfg(test)]
    if oracle::forced() {
        return oracle::lower_min_dists(centre, train, min_d2);
    }
    let mut blocks = min_d2.chunks_exact_mut(LANES);
    for (b, mins) in blocks.by_ref().enumerate() {
        let d = dist2_lanes(centre, train, t, b * LANES);
        for (m, &d) in mins.iter_mut().zip(&d) {
            if d < *m {
                *m = d;
            }
        }
    }
    for (j, m) in (t / LANES * LANES..).zip(blocks.into_remainder()) {
        let d = dist2_strided(centre, train, t, j);
        if d < *m {
            *m = d;
        }
    }
}

/// Runs k-means on `points` (flat `n × dim`) for `k` clusters.
///
/// Uses k-means++ seeding on a training subsample, Lloyd iterations with
/// empty-cluster repair (an empty cluster is re-seeded on the point
/// farthest from its centroid), then assigns *all* points.
///
/// # Panics
///
/// Panics if `dim == 0`, `k == 0`, or `points.len()` is not a multiple of
/// `dim`.
pub fn kmeans(
    points: &[f32],
    dim: usize,
    k: usize,
    seed: u64,
    opts: &KmeansOptions,
) -> KmeansResult {
    assert!(dim > 0 && k > 0, "dim and k must be positive");
    assert_eq!(points.len() % dim, 0, "points must be n × dim");
    let n = points.len() / dim;
    assert!(n > 0, "need at least one point");

    let mut rng = StdRng::seed_from_u64(seed);

    // Training subsample (uniform without replacement when sampling).
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
    let t = train_idx.len();
    let point = |i: usize| -> &[f32] { &points[i * dim..(i + 1) * dim] };

    // Element-major copy of the training set: the seeding pass measures
    // one new centre against every training point, LANES points at a time.
    let mut train_em = vec![0.0f32; t * dim];
    for (j, &i) in train_idx.iter().enumerate() {
        for (e, &v) in point(i).iter().enumerate() {
            train_em[e * t + j] = v;
        }
    }

    // --- k-means++ seeding on the training set ---
    let mut centroids = vec![0.0f32; k * dim];
    let first = train_idx[rng.gen_range(0..t)];
    centroids[..dim].copy_from_slice(point(first));
    let mut min_d2 = vec![f32::INFINITY; t];
    lower_min_dists(&centroids[..dim], &train_em, &mut min_d2);
    for c in 1..k {
        let total: f64 = min_d2.iter().map(|&d| f64::from(d)).sum();
        let chosen = if total <= f64::EPSILON {
            // All points identical / already covered: random pick.
            rng.gen_range(0..t)
        } else {
            let mut target = rng.gen_range(0.0..total);
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
        let src = point(train_idx[chosen]);
        centroids[c * dim..(c + 1) * dim].copy_from_slice(src);
        lower_min_dists(src, &train_em, &mut min_d2);
    }

    // --- Lloyd iterations on the training set ---
    let mut train_assign = vec![0u32; t];
    let mut prev_inertia = f64::INFINITY;
    let mut iters_done = 0;
    // Element-major scratch of `centroids` for `nearest`, refreshed
    // whenever an assignment pass is about to read them.
    let mut centroids_em = vec![0.0f32; k * dim];
    for iter in 0..opts.max_iters {
        iters_done = iter + 1;
        let mut inertia = 0.0f64;
        element_major_into(&centroids, dim, &mut centroids_em);
        for (j, &i) in train_idx.iter().enumerate() {
            let (a, d) = nearest(point(i), &centroids_em, dim);
            train_assign[j] = a;
            inertia += f64::from(d);
        }

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
        // Empty-cluster repair: seed on the point currently farthest from
        // its centroid.
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
                let src = point(train_idx[far_j]).to_vec();
                centroids[c * dim..(c + 1) * dim].copy_from_slice(&src);
                counts[c] = 1;
                for (s, &v) in sums[c * dim..(c + 1) * dim].iter_mut().zip(&src) {
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
    let mut assignments = vec![0u32; n];
    let mut inertia = 0.0f64;
    element_major_into(&centroids, dim, &mut centroids_em);
    for (i, slot) in assignments.iter_mut().enumerate() {
        let (a, d) = nearest(point(i), &centroids_em, dim);
        *slot = a;
        inertia += f64::from(d);
    }

    KmeansResult {
        centroids,
        dim,
        assignments,
        inertia,
        iterations: iters_done,
    }
}

/// The one-centroid-at-a-time search exactly as it stood before
/// [`nearest`] went entry-parallel, kept as the reference the new search
/// is pinned to — directly, and (through [`oracle::with`]) underneath
/// whole `kmeans` / `quantize` runs.
#[cfg(test)]
pub(crate) mod oracle {
    use super::dist2;
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
    /// signed zero, an infinity or a NaN when `wild`.
    fn coord(rng: &mut u64, wild: bool) -> f32 {
        let pick = splitmix(rng) % 64;
        match pick {
            0 if wild => f32::NAN,
            1 if wild => f32::INFINITY,
            2 if wild => f32::NEG_INFINITY,
            3 => -0.0,
            4 => 0.0,
            _ => (splitmix(rng) % 9) as f32 * 0.25 - 1.0,
        }
    }

    proptest::proptest! {
        /// The entry-parallel search returns the oracle's index and the
        /// oracle's distance bits — on every tier this machine has — over
        /// tie-heavy tables (grid coordinates, duplicated centroids),
        /// signed zeros and non-finite coordinates, at block-aligned and
        /// ragged `k`.
        #[test]
        fn nearest_is_the_scalar_scan_bit_for_bit(
            dim_i in 0usize..4,
            k_i in 0usize..6,
            wild in proptest::any::<bool>(),
            seed in 0u64..10_000,
        ) {
            let dim = [1, 2, 4, 8][dim_i];
            let k = [1, 7, 8, 9, 256, 4096][k_i];
            let mut rng = seed;
            let mut rows: Vec<f32> = (0..k * dim).map(|_| coord(&mut rng, wild)).collect();
            // Duplicate a quarter of the centroids onto earlier ones.
            for c in 1..k {
                if splitmix(&mut rng).is_multiple_of(4) {
                    let src = (splitmix(&mut rng) % c as u64) as usize;
                    rows.copy_within(src * dim..(src + 1) * dim, c * dim);
                }
            }
            let mut em = vec![0.0f32; k * dim];
            element_major_into(&rows, dim, &mut em);
            for _ in 0..8 {
                // Half the probes sit exactly on a centroid.
                let point: Vec<f32> = if splitmix(&mut rng).is_multiple_of(2) {
                    let c = (splitmix(&mut rng) % k as u64) as usize;
                    rows[c * dim..(c + 1) * dim].to_vec()
                } else {
                    (0..dim).map(|_| coord(&mut rng, wild)).collect()
                };
                let (want_i, want_d) = oracle::nearest(&point, &rows, dim);
                let want = (want_i, want_d.to_bits());
                let (i, d) = nearest_lanes(&point, &em, dim);
                proptest::prop_assert_eq!((i, d.to_bits()), want, "portable tier, k {} dim {}", k, dim);
                let (i, d) = nearest(&point, &em, dim);
                proptest::prop_assert_eq!((i, d.to_bits()), want, "dispatched tier, k {} dim {}", k, dim);
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
}
