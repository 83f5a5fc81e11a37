//! Per-tenant live KV cache with online vector quantization.
//!
//! The serving layer's historical shape is teacher-forced decode over a
//! shared pre-quantized context; [`TenantKv`] is what a request owns once
//! [`KvQuantMode`] turns live KV on: every decoded output row is appended
//! as the request's next private K/V row, kept f32 inside a hot tail
//! window and **folded** into packed VQ codes once it ages out of it.
//!
//! Folding re-encodes against the *shared context's* codebooks
//! ([`SharedContext::kq`]/[`SharedContext::vq`]) — the paper's amortized
//! codebook reuse: no per-token re-clustering, and the attention kernel
//! ([`attention_decode`]) decodes extension rows from tables it already
//! holds for the context — a folded K row is scored out of the lane's
//! column of the score LUT built for the context rows, a folded V row is
//! accumulated from the context's value books by the same value kernel,
//! so a folded row costs and sums like a context row. Groups the codebooks
//! reconstruct too poorly keep their exact f32 residual in a sparse
//! outlier channel, so one pathological token cannot poison a tenant's
//! whole cache.
//!
//! The struct is also the accounting surface: it tracks the fold-time
//! reconstruction error (for [`accuracy::project_kv_accuracy`]) and
//! prices its own **compressed** footprint (packed codes + outliers +
//! tail) so admission and the byte-denominated KV budget can reason in
//! real memory instead of token counts.
//!
//! # Storage
//!
//! A decode step appends one row to every running request and reads every
//! request's whole cache, so the cache is flat buffers the kernel borrows
//! as they are ([`TenantKv::ext`]) and an append that allocates nothing
//! beyond their amortised growth:
//!
//! * **tail** — one `Vec<f32>` per side, `head_dim` floats a row, oldest
//!   first. Folding a row only advances a start index; the folded prefix
//!   is dropped once it is as long as what is kept.
//! * **codes** — one [`CodeStream`] per side and residual round,
//!   `[row · groups + group]`, each code at the narrowest whole-byte
//!   width its index fits (one byte for CQ's 8-bit codes: what
//!   [`TenantKv::compressed_bytes`] prices is then what is stored).
//! * **outliers** — per side one `(row, group)` array and one value
//!   array, `vector_size` floats an outlier.
//!
//! The `(round, group) → codebook` mapping is the context's, not the
//! cache's: the books live in the shared [`QuantizedTensor`]s, live-KV
//! scopes are row-invariant, and a group's scope is the same in every
//! round — so [`TenantKv::new`] resolves one scope index per group and
//! the fold indexes the context's books with it. (The kernel builds its
//! own table of borrowed books once per attention call; a cache holding
//! borrows into the `Arc` it owns would be self-referential.) The fold
//! works in `2 · vector_size` floats of scratch owned by the cache.
//!
//! # The fold is book-major
//!
//! A decode step appends one row to every tenant of a context group, and
//! every tenant folds against the same books. [`TenantKv::append_batch`]
//! takes the whole group's `(cache, k_row, v_row)` list and turns the
//! work around the codebooks, as the paper's compute engine does: for K,
//! then V, for each column group and residual round, one
//! [`Codebook::encode_many`] searches the book for every tenant's pending
//! sub-vector at once — each block of entries loaded once for up to eight
//! tenants (four on AVX2), their distance chains interleaved — and then
//! each tenant pushes its code, subtracts the entry and, after the last
//! round, runs its outlier test. [`TenantKv::append`] is that fold for one
//! tenant; there is no second fold body.
//!
//! Which entry a group folds to is the entry-parallel search
//! (`vqllm_vq::kmeans::nearest_many`: sixteen entries a block under
//! AVX-512, eight under AVX2 or portable code). Each point's distances are
//! unfused multiply-adds in element order and its lanes merge by
//! (distance, index), so every code is the one the scalar search chose for
//! that sub-vector alone, whichever tier the machine runs and however many
//! tenants share the search. The rest of a tenant's fold is its own
//! arithmetic in its own order — its error and energy sums run over its
//! groups in order, K's total added before V's — so a batched cache holds
//! the codes, outliers, tail and [`fold_error`](TenantKv::fold_error) bits
//! its own sequential `append`s would leave.
//!
//! [`QuantizedTensor`]: vqllm_vq::QuantizedTensor
//! [`Codebook::encode_many`]: vqllm_vq::Codebook::encode_many
//! [`attention_decode`]: vqllm_kernels::host_exec::attention_decode
//! [`accuracy::project_kv_accuracy`]: crate::accuracy::project_kv_accuracy

use crate::serve::{KvQuantMode, SharedContext};
use crate::{LlmError, Result};
use vqllm_kernels::host_exec::{CodeStream, OutlierBuf, RaggedExt};
use vqllm_vq::kmeans::MAX_POINTS;
use vqllm_vq::{CodebookScope, CodebookSet};

/// Bytes charged per outlier beyond its `vector_size` f32 payload: the
/// `(row, group)` coordinates at `u32` each.
const OUTLIER_COORD_BYTES: usize = 8;

/// The folded rows of one side (K or V) of a [`TenantKv`].
#[derive(Debug, Clone)]
struct FoldedSide {
    /// One code stream per residual round, `[row * groups + g]`.
    codes: Vec<CodeStream>,
    /// Exact residuals of the groups the codes reconstruct too poorly.
    outliers: OutlierBuf,
}

impl FoldedSide {
    fn new(books: &CodebookSet) -> Self {
        let cfg = books.config();
        FoldedSide {
            codes: vec![CodeStream::new(cfg.index_bits()); cfg.residuals],
            outliers: OutlierBuf::default(),
        }
    }
}

/// One request's private, growing KV cache: an f32 tail window of the
/// newest appended rows, with older rows folded into packed codes against
/// the shared context's codebooks plus sparse exact-residual outliers.
///
/// Constructed per admitted request when [`ServeConfig::kv_quant`] is a
/// live mode; [`TenantKv::ext`] borrows the state in the exact shape the
/// tailed attention kernel consumes.
///
/// [`ServeConfig::kv_quant`]: crate::serve::ServeConfig::kv_quant
#[derive(Debug, Clone)]
pub struct TenantKv {
    ctx: SharedContext,
    /// Rows kept f32 at the hot end (`usize::MAX` for `F32Tail`: never
    /// fold).
    tail_window: usize,
    /// Outlier threshold as a fraction of the group norm.
    outlier_keep: f32,
    /// Scope (codebook index within a residual round) of each column
    /// group, shared by K and V.
    group_scopes: Vec<usize>,
    k: FoldedSide,
    v: FoldedSide,
    folded_rows: usize,
    /// Unquantized rows, oldest first, `head_dim` floats each. Rows before
    /// `tail_start` are already folded and await the next compaction.
    k_tail: Vec<f32>,
    v_tail: Vec<f32>,
    tail_start: usize,
    /// The fold's scratch: a group's working residual, then the entry
    /// being subtracted from it — `2 · vector_size` floats.
    scratch: Vec<f32>,
    /// Fold-time squared reconstruction error (outlier-kept groups are
    /// exact and contribute zero).
    err_sq: f64,
    /// Squared norm of everything folded (the nMSE denominator).
    data_sq: f64,
    outlier_groups: usize,
}

impl TenantKv {
    /// Creates an empty live cache for one request against `ctx`.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::InvalidConfig`] when `mode` is
    /// [`KvQuantMode::Off`] (callers must not build live state for the
    /// teacher-forced path), when the context's K and V caches were
    /// quantized under different configurations (folding encodes one row
    /// against each and the kernel assumes one geometry), or when the
    /// scope is row-dependent ([`CodebookScope::PerTile`]) — appended
    /// rows sit past the trained tile grid, so there is no principled
    /// codebook to fold them against.
    pub fn new(ctx: &SharedContext, mode: KvQuantMode) -> Result<TenantKv> {
        let (tail_window, outlier_keep) = match mode {
            KvQuantMode::Off => {
                return Err(LlmError::InvalidConfig {
                    what: "TenantKv requires a live KV mode (F32Tail or Quantized)",
                });
            }
            KvQuantMode::F32Tail => (usize::MAX, 0.0),
            KvQuantMode::Quantized {
                tail_window,
                outlier_keep_milli,
            } => (tail_window, outlier_keep_milli as f32 / 1000.0),
        };
        let cfg = ctx.kq().config();
        if cfg != ctx.vq().config() {
            return Err(LlmError::InvalidConfig {
                what: "live KV requires the context's K and V caches to share one VQ config",
            });
        }
        if matches!(cfg.scope, CodebookScope::PerTile { .. }) {
            return Err(LlmError::InvalidConfig {
                what: "live KV requires a row-invariant codebook scope \
                       (PerTensor or PerChannelGroup), not PerTile",
            });
        }
        let books = ctx.kq().codebooks();
        Ok(TenantKv {
            ctx: ctx.clone(),
            tail_window,
            outlier_keep,
            group_scopes: (0..ctx.kq().col_groups())
                .map(|g| books.scope_index(0, g * cfg.vector_size))
                .collect(),
            k: FoldedSide::new(books),
            v: FoldedSide::new(ctx.vq().codebooks()),
            folded_rows: 0,
            k_tail: Vec::new(),
            v_tail: Vec::new(),
            tail_start: 0,
            scratch: vec![0.0; 2 * cfg.vector_size],
            err_sq: 0.0,
            data_sq: 0.0,
            outlier_groups: 0,
        })
    }

    /// Appends one decoded token's K and V rows, folding the oldest tail
    /// rows into packed codes once the tail exceeds its window: the batched
    /// fold ([`append_batch`](Self::append_batch)) of this one cache.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::InvalidRequest`] when a row is not `head_dim`
    /// wide; nothing is appended then.
    pub fn append(&mut self, k_row: &[f32], v_row: &[f32]) -> Result<()> {
        Self::append_batch(&mut [(self, k_row, v_row)])
    }

    /// Appends one decoded token's `(k_row, v_row)` to each cache of
    /// `rows` — a context group's tenants in one decode step — and folds,
    /// book-major, every row that aged out of its cache's tail window.
    ///
    /// Each cache ends exactly as its own [`append`](Self::append) of the
    /// same rows leaves it: the same codes, outliers, tail and
    /// [`fold_error`](Self::fold_error) bits (see the module docs for
    /// why).
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::InvalidRequest`] when a row is not `head_dim`
    /// wide or the caches do not share one context's K and V tensors;
    /// nothing is appended to any cache then.
    #[expect(
        clippy::indexing_slicing,
        reason = "flat tail-buffer row ranges: `tail_start` only advances past rows this module appended (`append` checks each row is `head_dim` wide before extending both sides together), so every range lies inside the buffers; pinned by the flat-vs-nested storage proptest."
    )]
    pub fn append_batch(rows: &mut [(&mut TenantKv, &[f32], &[f32])]) -> Result<()> {
        let Some((first, ..)) = rows.first() else {
            return Ok(());
        };
        let ctx = first.ctx.clone();
        let d = ctx.head_dim();
        for (kv, k_row, v_row) in rows.iter() {
            if k_row.len() != d || v_row.len() != d {
                return Err(LlmError::InvalidRequest {
                    what: "appended KV rows must be head_dim wide",
                });
            }
            if !std::ptr::eq(kv.ctx.kq(), ctx.kq()) || !std::ptr::eq(kv.ctx.vq(), ctx.vq()) {
                return Err(LlmError::InvalidRequest {
                    what: "a batched KV append must share one context",
                });
            }
        }
        for (kv, k_row, v_row) in rows.iter_mut() {
            kv.k_tail.extend_from_slice(k_row);
            kv.v_tail.extend_from_slice(v_row);
        }
        // Every cache's tail was within its window before this row, so
        // each folds at most its one oldest row: `MAX_POINTS` caches a
        // fold.
        let mut due: [Option<&mut TenantKv>; MAX_POINTS] = Default::default();
        let mut n = 0;
        for (kv, ..) in rows.iter_mut() {
            if kv.tail_len() > kv.tail_window {
                due[n] = Some(&mut **kv);
                n += 1;
                if n == MAX_POINTS {
                    fold_due(&ctx, &mut due);
                    n = 0;
                }
            }
        }
        if n > 0 {
            fold_due(&ctx, &mut due[..n]);
        }
        for (kv, ..) in rows.iter_mut() {
            // Drop the folded prefix once it is as long as what is kept: a
            // row is moved at most once after it is written, and the
            // buffers stay within twice the window.
            let folded = kv.tail_start * d;
            if folded > 0 && 2 * folded >= kv.k_tail.len() {
                kv.k_tail.drain(..folded);
                kv.v_tail.drain(..folded);
                kv.tail_start = 0;
            }
        }
        Ok(())
    }

    /// One side of this cache as the fold of its oldest tail row sees it.
    #[expect(
        clippy::indexing_slicing,
        reason = "flat tail-buffer row ranges: `tail_start` only advances past rows this module appended (`append` checks each row is `head_dim` wide before extending both sides together), so every range lies inside the buffers; pinned by the flat-vs-nested storage proptest."
    )]
    fn folding(&mut self, side: Side) -> Folding<'_> {
        let d = self.ctx.head_dim();
        let at = self.tail_start * d..(self.tail_start + 1) * d;
        let (tail, folded) = match side {
            Side::K => (&self.k_tail, &mut self.k),
            Side::V => (&self.v_tail, &mut self.v),
        };
        let half = self.scratch.len() / 2;
        let (resid, entry) = self.scratch.split_at_mut(half);
        Folding {
            row: &tail[at],
            scopes: &self.group_scopes,
            index: self.folded_rows,
            keep: self.outlier_keep,
            folded,
            resid,
            entry,
        }
    }

    /// Borrows the state as the extension the tailed attention kernel
    /// consumes.
    #[expect(
        clippy::indexing_slicing,
        reason = "flat tail-buffer row ranges: `tail_start` only advances past rows this module appended (`append` checks each row is `head_dim` wide before extending both sides together), so every range lies inside the buffers; pinned by the flat-vs-nested storage proptest."
    )]
    pub fn ext(&self) -> RaggedExt<'_> {
        let live = self.tail_start * self.ctx.head_dim()..;
        RaggedExt {
            rows: self.folded_rows,
            k_codes: &self.k.codes,
            v_codes: &self.v.codes,
            k_outliers: self.k.outliers.view(),
            v_outliers: self.v.outliers.view(),
            k_tail: &self.k_tail[live.clone()],
            v_tail: &self.v_tail[live],
        }
    }

    /// Total appended tokens (folded + tail).
    pub fn len(&self) -> usize {
        self.folded_rows + self.tail_len()
    }

    /// Whether nothing has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tokens folded into packed codes so far.
    pub fn folded_tokens(&self) -> usize {
        self.folded_rows
    }

    /// Tokens still f32 in the tail window.
    pub fn tail_len(&self) -> usize {
        self.k_tail.len() / self.ctx.head_dim() - self.tail_start
    }

    /// Groups that kept their exact residual in the outlier channel
    /// (K and V combined).
    pub fn outlier_groups(&self) -> usize {
        self.outlier_groups
    }

    /// Normalized fold-time reconstruction MSE — squared error of the
    /// packed codes against the rows they replaced, over the folded
    /// rows' energy. Outlier-kept groups reconstruct exactly and push
    /// this **down**; an all-f32 cache (nothing folded) is 0. At most
    /// `keep²` for `keep = outlier_keep_milli / 1000` (see
    /// [`KvQuantMode::Quantized`]). Feed to
    /// [`accuracy::project_kv_accuracy`].
    ///
    /// [`accuracy::project_kv_accuracy`]: crate::accuracy::project_kv_accuracy
    pub fn kv_nmse(&self) -> f64 {
        if self.data_sq <= 0.0 {
            0.0
        } else {
            self.err_sq / self.data_sq
        }
    }

    /// Raw `(err_sq, data_sq)` fold-error sums, for engine-wide
    /// aggregation across requests (summing nMSEs would weight tenants
    /// wrongly; summing the numerators and denominators does not).
    pub fn fold_error(&self) -> (f64, f64) {
        (self.err_sq, self.data_sq)
    }

    /// Current compressed footprint in bytes: packed index streams (K and
    /// V, all residual rounds, at [`VqConfig::index_bits`] per code),
    /// outlier residuals (f32 payload + coordinates), and the f32 tail.
    ///
    /// Codes are priced at their packed width, as [`QuantizedTensor`]
    /// prices its own indices. For a whole-byte index — CQ's 8 bits — that
    /// is exactly what the [`CodeStream`]s hold; a narrower index sits in
    /// a byte here and would be bit-packed by a device cache.
    ///
    /// [`VqConfig::index_bits`]: vqllm_vq::VqConfig::index_bits
    /// [`QuantizedTensor`]: vqllm_vq::QuantizedTensor
    pub fn compressed_bytes(&self) -> usize {
        let cfg = self.ctx.kq().config();
        let bits = cfg.index_bits() as usize;
        let code_bytes: usize = self
            .k
            .codes
            .iter()
            .chain(&self.v.codes)
            .map(|s| (s.len() * bits).div_ceil(8))
            .sum();
        let outlier_bytes = (self.k.outliers.len() + self.v.outliers.len())
            * (cfg.vector_size * 4 + OUTLIER_COORD_BYTES);
        let tail_bytes = 2 * self.tail_len() * self.ctx.head_dim() * 4;
        code_bytes + outlier_bytes + tail_bytes
    }

    /// Bytes the same cache would cost fully unquantized (K and V rows at
    /// f32) — the baseline the compression gate divides by.
    pub fn f32_bytes(&self) -> usize {
        2 * self.len() * self.ctx.head_dim() * 4
    }

    /// Projected compressed footprint after `appends` total tokens,
    /// assuming no outliers fire — the admission-time lower bound priced
    /// against [`ServeConfig::kv_budget_bytes`]. The runtime budget check
    /// on the *measured* [`TenantKv::compressed_bytes`] catches requests
    /// whose outlier channel grows past the projection.
    ///
    /// [`ServeConfig::kv_budget_bytes`]: crate::serve::ServeConfig::kv_budget_bytes
    pub fn projected_bytes(&self, appends: usize) -> usize {
        let cfg = self.ctx.kq().config();
        let folded = if self.tail_window == usize::MAX {
            0
        } else {
            appends.saturating_sub(self.tail_window)
        };
        let tail = appends - folded;
        let groups = self.ctx.kq().col_groups();
        let per_stream = (folded * groups * cfg.index_bits() as usize).div_ceil(8);
        2 * cfg.residuals * per_stream + 2 * tail * self.ctx.head_dim() * 4
    }
}

/// One side of a K/V row pair.
#[derive(Debug, Clone, Copy)]
enum Side {
    K,
    V,
}

/// One side of a cache while the fold of its oldest tail row runs
/// ([`TenantKv::folding`]).
struct Folding<'a> {
    /// This side of the row being folded, `head_dim` floats.
    row: &'a [f32],
    /// The scope of each column group (the cache's `group_scopes`).
    scopes: &'a [usize],
    /// The row's index among the folded rows.
    index: usize,
    /// The cache's outlier threshold.
    keep: f32,
    folded: &'a mut FoldedSide,
    /// A group's working residual, `vector_size` floats.
    resid: &'a mut [f32],
    /// The entry being subtracted from it.
    entry: &'a mut [f32],
}

/// Folds the oldest tail row of each cache in `due` (1..=[`MAX_POINTS`]
/// caches, all over `ctx`): [`fold_oldest`] at that count. (One body per
/// count keeps its per-cache arrays and loops exact: a one-tenant fold
/// then costs what a loop written for one tenant does.)
fn fold_due(ctx: &SharedContext, due: &mut [Option<&mut TenantKv>]) {
    fn fold<const N: usize>(ctx: &SharedContext, due: &mut [Option<&mut TenantKv>]) {
        if let Ok(due) = due.try_into() {
            fold_oldest::<N>(ctx, due);
        }
    }
    match due.len() {
        1 => fold::<1>(ctx, due),
        2 => fold::<2>(ctx, due),
        3 => fold::<3>(ctx, due),
        4 => fold::<4>(ctx, due),
        5 => fold::<5>(ctx, due),
        6 => fold::<6>(ctx, due),
        7 => fold::<7>(ctx, due),
        _ => fold::<MAX_POINTS>(ctx, due),
    }
}

/// Folds the oldest tail row of each of `N` caches, all over `ctx`, into
/// codes + outliers.
///
/// Book-major: for K, then V, for each column group and residual round,
/// one [`Codebook::encode_many`] searches the group's book for every
/// cache's working residual; then each cache pushes its code and
/// subtracts the entry. After a group's last round each cache runs its
/// outlier test: when the leftover error norm exceeds its `keep` of the
/// group norm, the exact residual goes to the outlier channel. A cache's
/// error and energy are summed per side in group order and added K
/// first, then V.
///
/// [`Codebook::encode_many`]: vqllm_vq::Codebook::encode_many
#[expect(
    clippy::indexing_slicing,
    reason = "flat tail-buffer row ranges: `tail_start` only advances past rows this module appended (`append` checks each row is `head_dim` wide before extending both sides together), so every range lies inside the buffers; pinned by the flat-vs-nested storage proptest."
)]
fn fold_oldest<const N: usize>(ctx: &SharedContext, due: &mut [Option<&mut TenantKv>; N]) {
    let sq_norm = |xs: &[f32]| -> f64 { xs.iter().map(|&x| f64::from(x) * f64::from(x)).sum() };
    for (side, books) in [(Side::K, ctx.kq()), (Side::V, ctx.vq())] {
        let books = books.codebooks();
        let cfg = books.config();
        let vs = cfg.vector_size;
        let mut folds = due
            .each_mut()
            .map(|kv| kv.as_deref_mut().map(|kv| kv.folding(side)));
        // Every cache shares the context, and with it the group scopes.
        let scopes = folds
            .iter()
            .flatten()
            .map(|f| f.scopes)
            .next()
            .unwrap_or(&[]);
        // Per cache: (err_sq, data_sq, outlier groups) of this side.
        let mut sums = [(0.0f64, 0.0f64, 0usize); N];
        for (g, &scope) in scopes.iter().enumerate() {
            let at = g * vs..(g + 1) * vs;
            for f in folds.iter_mut().flatten() {
                f.resid.copy_from_slice(&f.row[at.clone()]);
            }
            for r in 0..cfg.residuals {
                let book = books.book(r, scope);
                let mut codes = [0u32; N];
                let resids = folds
                    .each_ref()
                    .map(|f| f.as_ref().map_or(&[][..], |f| &*f.resid));
                book.encode_many(&resids, &mut codes);
                for (f, &code) in folds.iter_mut().zip(&codes) {
                    let Some(f) = f else { continue };
                    f.folded.codes[r].push(code);
                    book.lookup(code, f.entry);
                    for (x, &e) in f.resid.iter_mut().zip(f.entry.iter()) {
                        *x -= e;
                    }
                }
            }
            for (f, (err_sq, data_sq, outliers)) in folds.iter_mut().zip(&mut sums) {
                let Some(f) = f else { continue };
                let orig_sq = sq_norm(&f.row[at.clone()]);
                let resid_sq = sq_norm(f.resid);
                *data_sq += orig_sq;
                if resid_sq > f64::from(f.keep) * f64::from(f.keep) * orig_sq {
                    f.folded.outliers.push(f.index, g, f.resid);
                    *outliers += 1;
                } else {
                    *err_sq += resid_sq;
                }
            }
        }
        for (kv, &(err_sq, data_sq, outliers)) in due.iter_mut().zip(&sums) {
            if let Some(kv) = kv {
                kv.err_sq += err_sq;
                kv.data_sq += data_sq;
                kv.outlier_groups += outliers;
            }
        }
    }
    for kv in due.iter_mut().flatten() {
        kv.folded_rows += 1;
        kv.tail_start += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::OnceLock;
    use vqllm_tensor::synth;
    use vqllm_vq::{VqConfig, VqQuantizer};

    const SEQ: usize = 48;
    const DIM: usize = 64;

    fn context(cfg: VqConfig) -> SharedContext {
        let quant = |rows: usize, seed: u64| {
            let w = synth::correlated_channels(rows, DIM, cfg.vector_size, 0.9, seed);
            VqQuantizer::new(cfg).quantize(&w, seed).unwrap()
        };
        SharedContext::new(quant(SEQ, 11), quant(SEQ, 12), quant(DIM, 13)).unwrap()
    }

    /// A small shared context cheap enough for unit tests: PerTensor
    /// scope trains on `rows × col_groups` points, so 48×16 ≥ 64 entries.
    fn ctx() -> SharedContext {
        context(VqConfig::new(4, 64, 2, CodebookScope::PerTensor).unwrap())
    }

    fn row(phase: f32) -> Vec<f32> {
        (0..DIM).map(|i| (i as f32 * phase).sin()).collect()
    }

    /// Folded extension row `r` of one side, by the fold's own arithmetic
    /// run backwards from `orig`: each group's leftover after subtracting
    /// its round-by-round entries (what the fold measured), and the
    /// outlier residual kept for it, if any.
    fn leftovers<'a>(
        orig: &[f32],
        codes: &[CodeStream],
        outliers: vqllm_kernels::host_exec::Outliers<'a>,
        books: &CodebookSet,
        r: usize,
    ) -> Vec<(Vec<f32>, Option<&'a [f32]>)> {
        let vs = books.config().vector_size;
        let groups = DIM / vs;
        let mut entry = vec![0.0f32; vs];
        (0..groups)
            .map(|g| {
                let mut resid = orig[g * vs..(g + 1) * vs].to_vec();
                for (ri, stream) in codes.iter().enumerate() {
                    let book = books.book(ri, books.scope_index(0, g * vs));
                    book.lookup(stream.get(r * groups + g), &mut entry);
                    for (x, &e) in resid.iter_mut().zip(&entry) {
                        *x -= e;
                    }
                }
                let kept = outliers
                    .iter()
                    .find(|&(row, group, _)| (row, group) == (r, g))
                    .map(|(_, _, values)| values);
                (resid, kept)
            })
            .collect()
    }

    /// Decodes folded extension row `r` of one side back to f32.
    fn decode_row(
        codes: &[CodeStream],
        outliers: vqllm_kernels::host_exec::Outliers<'_>,
        books: &CodebookSet,
        r: usize,
    ) -> Vec<f32> {
        let vs = books.config().vector_size;
        let groups = DIM / vs;
        let mut out = vec![0.0f32; DIM];
        for (ri, stream) in codes.iter().enumerate() {
            for g in 0..groups {
                books
                    .book(ri, books.scope_index(0, g * vs))
                    .accumulate(stream.get(r * groups + g), &mut out[g * vs..(g + 1) * vs]);
            }
        }
        for (_, group, values) in outliers.iter().filter(|&(row, ..)| row == r) {
            for (o, &v) in out[group * vs..].iter_mut().zip(values) {
                *o += v;
            }
        }
        out
    }

    #[test]
    fn exact_outliers_reconstruct_folded_rows_exactly() {
        let ctx = ctx();
        // keep = 0: every imperfect group holds its exact residual, so
        // folded rows must reconstruct to the appended bytes.
        let mut kv = TenantKv::new(
            &ctx,
            KvQuantMode::Quantized {
                tail_window: 2,
                outlier_keep_milli: 0,
            },
        )
        .unwrap();
        let rows: Vec<(Vec<f32>, Vec<f32>)> = (0..5)
            .map(|i| (row(0.3 + i as f32 * 0.11), row(0.7 + i as f32 * 0.13)))
            .collect();
        for (k, v) in &rows {
            kv.append(k, v).unwrap();
        }
        assert_eq!(kv.folded_tokens(), 3);
        assert_eq!(kv.tail_len(), 2);
        assert_eq!(kv.len(), 5);
        assert_eq!(kv.kv_nmse(), 0.0, "exact outliers leave zero error");
        assert!(kv.outlier_groups() > 0);
        let ext = kv.ext();
        for (r, (krow, vrow)) in rows.iter().enumerate().take(3) {
            let kdec = decode_row(ext.k_codes, ext.k_outliers, ctx.kq().codebooks(), r);
            let vdec = decode_row(ext.v_codes, ext.v_outliers, ctx.vq().codebooks(), r);
            for (got, want) in kdec.iter().zip(krow).chain(vdec.iter().zip(vrow)) {
                assert!((got - want).abs() < 1e-5, "row {r}: {got} vs {want}");
            }
        }
        // The tail is the two newest rows, bitwise.
        assert_eq!(ext.k_tail[..DIM], rows[3].0);
        assert_eq!(ext.v_tail[DIM..], rows[4].1);
    }

    #[test]
    fn tail_window_controls_folding() {
        let ctx = ctx();
        let mut f32_only = TenantKv::new(&ctx, KvQuantMode::F32Tail).unwrap();
        let mut eager = TenantKv::new(
            &ctx,
            KvQuantMode::Quantized {
                tail_window: 0,
                outlier_keep_milli: u32::MAX,
            },
        )
        .unwrap();
        for i in 0..10 {
            let (k, v) = (row(0.2 + i as f32 * 0.1), row(0.5 + i as f32 * 0.1));
            f32_only.append(&k, &v).unwrap();
            eager.append(&k, &v).unwrap();
        }
        assert_eq!(f32_only.folded_tokens(), 0);
        assert_eq!(f32_only.tail_len(), 10);
        assert_eq!(f32_only.kv_nmse(), 0.0);
        assert_eq!(eager.folded_tokens(), 10);
        assert_eq!(eager.tail_len(), 0);
        // keep = MAX: no outliers, so folding leaves measurable error.
        assert_eq!(eager.outlier_groups(), 0);
        assert!(eager.kv_nmse() > 0.0);
        // ... and still compresses: well under the 0.5×f32 gate without a
        // tail or outliers (2 rounds × 6 bits / 4 elems = 3 bits/elem).
        assert!(
            (eager.compressed_bytes() as f64) < 0.5 * eager.f32_bytes() as f64,
            "{} vs {}",
            eager.compressed_bytes(),
            eager.f32_bytes()
        );
        // With no outliers the admission projection is exact.
        assert_eq!(eager.projected_bytes(10), eager.compressed_bytes());
        // The f32-only cache projects at full f32 cost.
        assert_eq!(f32_only.projected_bytes(10), f32_only.f32_bytes());
    }

    #[test]
    fn rejects_invalid_modes_and_rows() {
        let ctx = ctx();
        assert!(matches!(
            TenantKv::new(&ctx, KvQuantMode::Off),
            Err(LlmError::InvalidConfig { .. })
        ));
        let mut kv = TenantKv::new(&ctx, KvQuantMode::F32Tail).unwrap();
        assert!(matches!(
            kv.append(&[0.0; DIM - 1], &[0.0; DIM]),
            Err(LlmError::InvalidRequest { .. })
        ));
        assert!(kv.is_empty(), "failed append must not mutate");

        // PerTile scope is row-dependent: no codebook covers appended rows.
        let tile_cfg =
            VqConfig::new(4, 32, 1, CodebookScope::PerTile { rows: 16, cols: 16 }).unwrap();
        let quant = |rows: usize, seed: u64| {
            let w = synth::correlated_channels(rows, 32, 4, 0.9, seed);
            VqQuantizer::new(tile_cfg).quantize(&w, seed).unwrap()
        };
        let tiled = SharedContext::new(quant(32, 3), quant(32, 4), quant(32, 5)).unwrap();
        assert!(matches!(
            TenantKv::new(&tiled, KvQuantMode::F32Tail),
            Err(LlmError::InvalidConfig { .. })
        ));
    }

    /// The live cache as it stood before its storage went flat — nested
    /// `Vec` tails popped from the front, `u32` codes, one heap-allocated
    /// residual per outlier, a fresh working `Vec` per group — kept as the
    /// reference [`TenantKv`] is pinned to.
    mod parent {
        use super::super::OUTLIER_COORD_BYTES;
        use crate::serve::SharedContext;
        use vqllm_vq::CodebookSet;

        pub struct OutlierResidual {
            pub row: usize,
            pub group: usize,
            pub values: Vec<f32>,
        }

        pub struct Kv {
            pub tail_window: usize,
            pub outlier_keep: f32,
            pub k_codes: Vec<Vec<u32>>,
            pub v_codes: Vec<Vec<u32>>,
            pub folded_rows: usize,
            pub k_outliers: Vec<OutlierResidual>,
            pub v_outliers: Vec<OutlierResidual>,
            pub k_tail: Vec<Vec<f32>>,
            pub v_tail: Vec<Vec<f32>>,
            pub err_sq: f64,
            pub data_sq: f64,
            pub outlier_groups: usize,
        }

        impl Kv {
            pub fn new(ctx: &SharedContext, tail_window: usize, outlier_keep: f32) -> Kv {
                let residuals = ctx.kq().config().residuals;
                Kv {
                    tail_window,
                    outlier_keep,
                    k_codes: vec![Vec::new(); residuals],
                    v_codes: vec![Vec::new(); residuals],
                    folded_rows: 0,
                    k_outliers: Vec::new(),
                    v_outliers: Vec::new(),
                    k_tail: Vec::new(),
                    v_tail: Vec::new(),
                    err_sq: 0.0,
                    data_sq: 0.0,
                    outlier_groups: 0,
                }
            }

            pub fn append(&mut self, ctx: &SharedContext, k_row: &[f32], v_row: &[f32]) {
                self.k_tail.push(k_row.to_vec());
                self.v_tail.push(v_row.to_vec());
                while self.k_tail.len() > self.tail_window {
                    self.fold_oldest(ctx);
                }
            }

            fn fold_oldest(&mut self, ctx: &SharedContext) {
                let k_row = self.k_tail.remove(0);
                let v_row = self.v_tail.remove(0);
                let row = self.folded_rows;
                for (vals, books, codes, outliers) in [
                    (
                        &k_row,
                        ctx.kq().codebooks(),
                        &mut self.k_codes,
                        &mut self.k_outliers,
                    ),
                    (
                        &v_row,
                        ctx.vq().codebooks(),
                        &mut self.v_codes,
                        &mut self.v_outliers,
                    ),
                ] {
                    let (err, data, outs) =
                        fold_side(vals, books, codes, outliers, row, self.outlier_keep);
                    self.err_sq += err;
                    self.data_sq += data;
                    self.outlier_groups += outs;
                }
                self.folded_rows += 1;
            }

            pub fn compressed_bytes(&self, ctx: &SharedContext) -> usize {
                let cfg = ctx.kq().config();
                let bits = cfg.index_bits() as usize;
                let code_bytes: usize = self
                    .k_codes
                    .iter()
                    .chain(&self.v_codes)
                    .map(|s| (s.len() * bits).div_ceil(8))
                    .sum();
                let outlier_bytes = (self.k_outliers.len() + self.v_outliers.len())
                    * (cfg.vector_size * 4 + OUTLIER_COORD_BYTES);
                let tail_bytes = (self.k_tail.len() + self.v_tail.len()) * ctx.head_dim() * 4;
                code_bytes + outlier_bytes + tail_bytes
            }

            pub fn projected_bytes(&self, ctx: &SharedContext, appends: usize) -> usize {
                let cfg = ctx.kq().config();
                let folded = if self.tail_window == usize::MAX {
                    0
                } else {
                    appends.saturating_sub(self.tail_window)
                };
                let tail = appends - folded;
                let groups = ctx.kq().col_groups();
                let per_stream = (folded * groups * cfg.index_bits() as usize).div_ceil(8);
                2 * cfg.residuals * per_stream + 2 * tail * ctx.head_dim() * 4
            }
        }

        fn fold_side(
            vals: &[f32],
            books: &CodebookSet,
            codes: &mut [Vec<u32>],
            outliers: &mut Vec<OutlierResidual>,
            row: usize,
            keep: f32,
        ) -> (f64, f64, usize) {
            let cfg = books.config();
            let vs = cfg.vector_size;
            let groups = vals.len() / vs;
            let mut recon = vec![0.0f32; vs];
            let mut err_sq = 0.0f64;
            let mut data_sq = 0.0f64;
            let mut outlier_count = 0usize;
            for g in 0..groups {
                let orig = &vals[g * vs..(g + 1) * vs];
                let mut resid = orig.to_vec();
                for (r, stream) in codes.iter_mut().enumerate() {
                    let book = books.book(r, books.scope_index(0, g * vs));
                    let code = book.encode(&resid);
                    stream.push(code);
                    book.lookup(code, &mut recon);
                    for (x, &e) in resid.iter_mut().zip(&recon) {
                        *x -= e;
                    }
                }
                let orig_sq: f64 = orig.iter().map(|&x| f64::from(x) * f64::from(x)).sum();
                let resid_sq: f64 = resid.iter().map(|&x| f64::from(x) * f64::from(x)).sum();
                data_sq += orig_sq;
                if resid_sq > f64::from(keep) * f64::from(keep) * orig_sq {
                    outliers.push(OutlierResidual {
                        row,
                        group: g,
                        values: resid,
                    });
                    outlier_count += 1;
                } else {
                    err_sq += resid_sq;
                }
            }
            (err_sq, data_sq, outlier_count)
        }
    }

    /// Row-invariant scopes × plain / lattice × 1–2 residual rounds, at a
    /// sub-byte, a one-byte and a two-byte (lattice id) index — trained
    /// once, shared by the property tests.
    fn contexts() -> &'static [SharedContext] {
        static CONTEXTS: OnceLock<Vec<SharedContext>> = OnceLock::new();
        CONTEXTS.get_or_init(|| {
            let group = CodebookScope::PerChannelGroup { channels: 4 };
            [
                VqConfig::new(4, 64, 1, CodebookScope::PerTensor),
                VqConfig::new(4, 64, 2, CodebookScope::PerTensor),
                VqConfig::new(4, 16, 1, group),
                VqConfig::new(4, 16, 2, group),
                VqConfig::new(2, 256, 1, CodebookScope::PerTensor),
                VqConfig::new_lattice(4, 256, 16, 1, CodebookScope::PerTensor),
                VqConfig::new_lattice(4, 256, 16, 2, group),
                VqConfig::new_lattice(8, 2048, 8, 2, CodebookScope::PerTensor),
            ]
            .into_iter()
            .map(|cfg| context(cfg.unwrap()))
            .collect()
        })
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// `n` K/V row pairs in [-1, 1] — some K groups zeroed (no energy),
    /// some copied from the codebook they will meet first (no error).
    fn random_rows(ctx: &SharedContext, n: usize, rng: &mut u64) -> Vec<(Vec<f32>, Vec<f32>)> {
        let books = ctx.kq().codebooks();
        let vs = books.config().vector_size;
        let mut f32s = |n: usize| -> Vec<f32> {
            (0..n)
                .map(|_| (splitmix(rng) % 2001) as f32 / 1000.0 - 1.0)
                .collect()
        };
        let mut rows: Vec<(Vec<f32>, Vec<f32>)> = (0..n).map(|_| (f32s(DIM), f32s(DIM))).collect();
        for (k, _) in &mut rows {
            for (g, group) in k.chunks_exact_mut(vs).enumerate() {
                let book = books.book(0, books.scope_index(0, g * vs));
                match splitmix(rng) % 8 {
                    0 => group.fill(0.0),
                    1 => book.lookup(
                        (splitmix(rng) % book.logical_entries() as u64) as u32,
                        group,
                    ),
                    _ => {}
                }
            }
        }
        rows
    }

    const KEEP_MILLI: [u32; 4] = [0, 250, 1000, u32::MAX];

    /// A `rows × DIM` tensor under `cfg` from synthetic parts: books on a
    /// quarter grid (so distances tie) and random codes — no k-means, so
    /// even AQLM-3's 4096-entry books cost nothing to build.
    fn synth_tensor(cfg: VqConfig, rows: usize, rng: &mut u64) -> vqllm_vq::QuantizedTensor {
        let books = (0..cfg.residuals)
            .map(|_| {
                (0..CodebookSet::num_scopes(&cfg, (rows, DIM)))
                    .map(|_| {
                        let entries = (0..cfg.stored_entries() * cfg.vector_size)
                            .map(|_| (splitmix(rng) % 9) as f32 * 0.25 - 1.0)
                            .collect();
                        vqllm_vq::Codebook::new(entries, cfg.vector_size, cfg.lattice).unwrap()
                    })
                    .collect()
            })
            .collect();
        let set = CodebookSet::new(cfg, (rows, DIM), books).unwrap();
        let codes: Vec<u32> = (0..rows * DIM / cfg.vector_size)
            .map(|_| (splitmix(rng) % cfg.num_entries as u64) as u32)
            .collect();
        let streams = (0..cfg.residuals)
            .map(|_| vqllm_vq::PackedIndices::pack(&codes, cfg.index_bits() as u8).unwrap())
            .collect();
        vqllm_vq::QuantizedTensor::from_parts(set, streams).unwrap()
    }

    /// One context per preset of the paper's Tbl. II, GPTVQ-2's per-tile
    /// scope swapped for a row-invariant one (live KV refuses tiles).
    fn preset_contexts() -> &'static [SharedContext] {
        static CONTEXTS: OnceLock<Vec<SharedContext>> = OnceLock::new();
        CONTEXTS.get_or_init(|| {
            vqllm_vq::VqAlgorithm::ALL
                .iter()
                .map(|alg| {
                    let mut cfg = alg.config();
                    if matches!(cfg.scope, CodebookScope::PerTile { .. }) {
                        cfg.scope = CodebookScope::PerChannelGroup {
                            channels: 4 * cfg.vector_size,
                        };
                    }
                    let mut rng = cfg.num_entries as u64;
                    SharedContext::new(
                        synth_tensor(cfg, 16, &mut rng),
                        synth_tensor(cfg, 16, &mut rng),
                        synth_tensor(cfg, DIM, &mut rng),
                    )
                    .unwrap()
                })
                .collect()
        })
    }

    /// Asserts two caches hold the same bits: folded codes, outliers,
    /// tails, fold error and counts.
    fn assert_same_cache(got: &TenantKv, want: &TenantKv, what: &str) {
        let (g, w) = (got.ext(), want.ext());
        assert_eq!(g.rows, w.rows, "{what}: folded rows");
        for (g, w) in [(g.k_codes, w.k_codes), (g.v_codes, w.v_codes)] {
            let all = |s: &[CodeStream]| -> Vec<Vec<u32>> {
                s.iter()
                    .map(|s| (0..s.len()).map(|i| s.get(i)).collect())
                    .collect()
            };
            assert_eq!(all(g), all(w), "{what}: codes");
        }
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (g, w) in [(g.k_outliers, w.k_outliers), (g.v_outliers, w.v_outliers)] {
            let all = |o: vqllm_kernels::host_exec::Outliers<'_>| -> Vec<(usize, usize, Vec<u32>)> {
                o.iter().map(|(r, grp, v)| (r, grp, bits(v))).collect()
            };
            assert_eq!(all(g), all(w), "{what}: outliers");
        }
        assert_eq!(bits(g.k_tail), bits(w.k_tail), "{what}: K tail");
        assert_eq!(bits(g.v_tail), bits(w.v_tail), "{what}: V tail");
        let fold_bits = |kv: &TenantKv| {
            let (e, d) = kv.fold_error();
            (e.to_bits(), d.to_bits())
        };
        assert_eq!(fold_bits(got), fold_bits(want), "{what}: fold_error");
        assert_eq!(
            got.outlier_groups(),
            want.outlier_groups(),
            "{what}: outlier groups"
        );
        assert_eq!(
            got.compressed_bytes(),
            want.compressed_bytes(),
            "{what}: bytes"
        );
    }

    #[test]
    fn batched_append_rejects_before_mutating_any_cache() {
        let (a, b) = (
            ctx(),
            context(VqConfig::new(4, 64, 1, CodebookScope::PerTensor).unwrap()),
        );
        let mode = KvQuantMode::Quantized {
            tail_window: 0,
            outlier_keep_milli: 250,
        };
        let mut x = TenantKv::new(&a, mode).unwrap();
        let mut y = TenantKv::new(&a, mode).unwrap();
        let mut z = TenantKv::new(&b, mode).unwrap();
        let (k, v) = (row(0.3), row(0.4));
        let err = TenantKv::append_batch(&mut [(&mut x, &k, &v), (&mut z, &k, &v)]);
        assert!(
            matches!(err, Err(LlmError::InvalidRequest { .. })),
            "mixed contexts"
        );
        let err = TenantKv::append_batch(&mut [(&mut x, &k, &v), (&mut y, &k[1..], &v)]);
        assert!(
            matches!(err, Err(LlmError::InvalidRequest { .. })),
            "short row"
        );
        assert!(
            x.is_empty() && y.is_empty() && z.is_empty(),
            "a refused batch must not mutate"
        );
        TenantKv::append_batch(&mut []).unwrap();
        TenantKv::append_batch(&mut [(&mut x, &k, &v), (&mut y, &k, &v)]).unwrap();
        assert_eq!((x.folded_tokens(), y.folded_tokens()), (1, 1));
    }

    proptest! {
        /// Flat tails, byte-wide code streams, flat outliers and fixed
        /// scratch change no byte: after any append sequence the cache
        /// holds the codes, outliers, tail, error sums and byte counts of
        /// the implementation it replaced.
        #[test]
        fn flat_storage_is_the_nested_cache_bit_for_bit(
            ctx_i in 0usize..8,
            window_i in 0usize..3,
            keep_i in 0usize..4,
            n in 0usize..12,
            seed in 0u64..10_000,
        ) {
            let ctx = &contexts()[ctx_i];
            let mut rng = seed;
            let tail_window = [0, 2, n][window_i];
            let mut kv = TenantKv::new(ctx, KvQuantMode::Quantized {
                tail_window,
                outlier_keep_milli: KEEP_MILLI[keep_i],
            }).unwrap();
            let mut want = parent::Kv::new(ctx, tail_window, KEEP_MILLI[keep_i] as f32 / 1000.0);
            for (i, (k, v)) in random_rows(ctx, n, &mut rng).iter().enumerate() {
                kv.append(k, v).unwrap();
                want.append(ctx, k, v);
                prop_assert_eq!(kv.compressed_bytes(), want.compressed_bytes(ctx), "append {}", i);
            }
            let ext = kv.ext();
            prop_assert_eq!(ext.rows, want.folded_rows);
            for (got, want) in [(ext.k_codes, &want.k_codes), (ext.v_codes, &want.v_codes)] {
                prop_assert_eq!(got.len(), want.len());
                for (got, want) in got.iter().zip(want) {
                    let got: Vec<u32> = (0..got.len()).map(|i| got.get(i)).collect();
                    prop_assert_eq!(&got, want);
                }
            }
            for (got, want) in [(ext.k_outliers, &want.k_outliers), (ext.v_outliers, &want.v_outliers)] {
                let got: Vec<_> = got
                    .iter()
                    .map(|(row, group, v)| (row, group, v.iter().map(|x| x.to_bits()).collect()))
                    .collect();
                let want: Vec<(usize, usize, Vec<u32>)> = want
                    .iter()
                    .map(|o| (o.row, o.group, o.values.iter().map(|x| x.to_bits()).collect()))
                    .collect();
                prop_assert_eq!(got, want);
            }
            prop_assert_eq!(ext.k_tail, want.k_tail.concat());
            prop_assert_eq!(ext.v_tail, want.v_tail.concat());
            let (err, data) = kv.fold_error();
            prop_assert_eq!((err.to_bits(), data.to_bits()), (want.err_sq.to_bits(), want.data_sq.to_bits()));
            prop_assert_eq!(kv.outlier_groups(), want.outlier_groups);
            prop_assert_eq!(kv.tail_len(), want.k_tail.len());
            for appends in [0, n, n + 7] {
                prop_assert_eq!(kv.projected_bytes(appends), want.projected_bytes(ctx, appends));
            }
        }

        /// The book-major fold of a decode step's tenants leaves every
        /// cache with exactly the bits its own sequential `append`s leave:
        /// 1..=9 tenants (past one search's eight points), each preset,
        /// per-tenant windows and outlier bounds, over several steps.
        #[test]
        fn batched_fold_is_per_tenant_append_bit_for_bit(
            preset_i in 0usize..5,
            tenants in 1usize..=9,
            window_i in 0usize..3,
            keep_i in 0usize..4,
            steps in 1usize..7,
            seed in 0u64..10_000,
        ) {
            let ctx = &preset_contexts()[preset_i];
            let mut rng = seed;
            let mode = |t: usize| KvQuantMode::Quantized {
                tail_window: [0, 1, 3][(window_i + t) % 3],
                outlier_keep_milli: KEEP_MILLI[(keep_i + t) % 4],
            };
            let mut batched: Vec<TenantKv> =
                (0..tenants).map(|t| TenantKv::new(ctx, mode(t)).unwrap()).collect();
            let mut solo = batched.clone();
            for _ in 0..steps {
                let rows = random_rows(ctx, tenants, &mut rng);
                let mut batch: Vec<(&mut TenantKv, &[f32], &[f32])> = batched
                    .iter_mut()
                    .zip(&rows)
                    .map(|(kv, (k, v))| (kv, &k[..], &v[..]))
                    .collect();
                TenantKv::append_batch(&mut batch).unwrap();
                for (kv, (k, v)) in solo.iter_mut().zip(&rows) {
                    kv.append(k, v).unwrap();
                }
            }
            for (t, (got, want)) in batched.iter().zip(&solo).enumerate() {
                assert_same_cache(got, want, &format!("preset {preset_i} tenant {t}"));
            }
        }

        /// What `outlier_keep_milli` bounds: with `keep` its value over
        /// 1000, a folded group stays out of the outlier channel exactly
        /// when `‖resid‖² ≤ keep² · ‖orig‖²` (its leftover after every
        /// residual round against what it was); a group past the bound
        /// keeps that leftover bit for bit and is charged no error. So
        /// the cache's nMSE is at most `keep²`, and `keep = 0` leaves
        /// none: every inexact group sits in the outlier channel.
        #[test]
        fn outlier_keep_bounds_each_folded_group(
            ctx_i in 0usize..8,
            keep_i in 0usize..4,
            n in 1usize..8,
            seed in 0u64..10_000,
        ) {
            let ctx = &contexts()[ctx_i];
            let mut rng = seed;
            let keep = KEEP_MILLI[keep_i] as f32 / 1000.0;
            let keep_sq = f64::from(keep) * f64::from(keep);
            let mut kv = TenantKv::new(ctx, KvQuantMode::Quantized {
                tail_window: 0,
                outlier_keep_milli: KEEP_MILLI[keep_i],
            }).unwrap();
            let rows = random_rows(ctx, n, &mut rng);
            for (k, v) in &rows {
                kv.append(k, v).unwrap();
            }
            let ext = kv.ext();
            let sq_norm = |xs: &[f32]| -> f64 { xs.iter().map(|&x| f64::from(x) * f64::from(x)).sum() };
            let vs = ctx.kq().config().vector_size;
            let mut outliers = 0;
            for (r, (k, v)) in rows.iter().enumerate() {
                for (orig, codes, kept, q) in [
                    (k, ext.k_codes, ext.k_outliers, ctx.kq()),
                    (v, ext.v_codes, ext.v_outliers, ctx.vq()),
                ] {
                    let groups = leftovers(orig, codes, kept, q.codebooks(), r);
                    for (g, (resid, kept)) in groups.iter().enumerate() {
                        let bound = keep_sq * sq_norm(&orig[g * vs..(g + 1) * vs]);
                        match kept {
                            None => prop_assert!(sq_norm(resid) <= bound, "row {} group {}", r, g),
                            Some(values) => {
                                prop_assert!(sq_norm(resid) > bound, "row {} group {}", r, g);
                                let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                                prop_assert_eq!(bits(values), bits(resid));
                                outliers += 1;
                            }
                        }
                    }
                }
            }
            prop_assert_eq!(kv.outlier_groups(), outliers);
            // The sums round; the bound holds to well inside that.
            prop_assert!(kv.kv_nmse() <= keep_sq * (1.0 + 1e-12), "{} > {}", kv.kv_nmse(), keep_sq);
            if keep == 0.0 {
                prop_assert_eq!(kv.kv_nmse(), 0.0);
            }
        }
    }
}
