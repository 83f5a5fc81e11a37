//! Codebooks and their mapping onto tensor regions.
//!
//! A [`Codebook`] is the trained centroid table of one (scope, residual)
//! slice. [`CodebookSet`] owns every codebook of a quantized tensor and
//! answers the question the compute engine keeps asking: *which codebook do
//! I need for element (row, col) at residual r?* — the "codebook switch
//! axes" of the paper's Tbl. III fall directly out of
//! [`CodebookSet::scope_index`].

use crate::config::{CodebookScope, VqConfig};
use crate::kmeans;
use crate::{Result, VqError};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// One trained codebook: `stored_entries × vector_size` centroids, plus the
/// optional QuiP#-style lattice extension where logical entries are a
/// stored entry with a per-element sign pattern applied.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Codebook {
    vector_size: usize,
    entries: Vec<f32>,
    lattice: bool,
    /// Element-major mirror of `entries` (`vector_size × stored_entries`):
    /// `interleaved[j · stored + c] == entries[c · vector_size + j]`.
    /// Derived at construction; [`Codebook::encode`] searches it eight
    /// entries at a time, and the SIMD-wide host kernels stream it so LUT
    /// builds and aggregated expansions become contiguous FMA loops over
    /// all stored entries instead of `vector_size`-long strided dots.
    interleaved: Vec<f32>,
}

impl Codebook {
    /// Wraps a flat `stored × vector_size` centroid buffer.
    ///
    /// # Errors
    ///
    /// Returns [`VqError::InvalidConfig`] if the buffer is not a non-empty
    /// multiple of `vector_size`, or (for lattice books) the stored count is
    /// not a power of two.
    pub fn new(entries: Vec<f32>, vector_size: usize, lattice: bool) -> Result<Self> {
        if vector_size == 0 || entries.is_empty() || !entries.len().is_multiple_of(vector_size) {
            return Err(VqError::InvalidConfig {
                what: "codebook buffer length",
                value: entries.len(),
            });
        }
        let stored = entries.len() / vector_size;
        if lattice && !stored.is_power_of_two() {
            return Err(VqError::InvalidConfig {
                what: "lattice stored entries (power of two)",
                value: stored,
            });
        }
        if lattice && vector_size > 16 {
            return Err(VqError::InvalidConfig {
                what: "lattice vector size (sign bits must fit)",
                value: vector_size,
            });
        }
        let interleaved = Self::interleave(&entries, vector_size);
        Ok(Codebook {
            vector_size,
            entries,
            lattice,
            interleaved,
        })
    }

    /// Builds the element-major mirror of a `stored × vector_size` buffer.
    fn interleave(entries: &[f32], vector_size: usize) -> Vec<f32> {
        let mut interleaved = vec![0.0f32; entries.len()];
        kmeans::element_major_into(entries, vector_size, &mut interleaved);
        interleaved
    }

    /// Elements per entry.
    #[inline]
    pub fn vector_size(&self) -> usize {
        self.vector_size
    }

    /// Entries physically stored (and looked up by kernels).
    #[inline]
    pub fn stored_entries(&self) -> usize {
        self.entries.len() / self.vector_size
    }

    /// Flat borrow of the whole centroid storage
    /// (`stored_entries × vector_size`, row-major): host kernels index
    /// `&flat[id * vs..]` directly instead of paying a bounds-computed
    /// slice per lookup.
    #[inline]
    pub fn entries_flat(&self) -> &[f32] {
        &self.entries
    }

    /// Element-major mirror of the centroid storage
    /// (`vector_size × stored_entries`): row `j` holds element `j` of
    /// every stored entry contiguously, so a kernel loop over all entries
    /// at a fixed element — a LUT build (`lut[c] += x[j] · entry_c[j]`) or
    /// an aggregated expansion (`out[j] = Σ_c wsum[c] · entry_c[j]`) —
    /// reads/FMAs a dense `stored_entries`-long run that vectorizes
    /// 8-wide. Derived from [`Codebook::entries_flat`] at construction.
    ///
    /// Lattice books mirror their stored (unsigned) entries: the kernels'
    /// sign-aware paths never read it, but [`Codebook::encode`]'s search
    /// over `|v|` does.
    #[inline]
    pub fn entries_interleaved(&self) -> &[f32] {
        &self.interleaved
    }

    /// For lattice books: how far the sign mask is shifted above the base
    /// entry id (`log2 stored_entries`). Zero for plain books.
    #[inline]
    pub fn sign_shift(&self) -> u32 {
        if self.lattice {
            self.stored_entries().trailing_zeros()
        } else {
            0
        }
    }

    /// Logical entries addressable by an index (`stored × 2^vector_size`
    /// for lattice books).
    pub fn logical_entries(&self) -> usize {
        if self.lattice {
            self.stored_entries() << self.vector_size
        } else {
            self.stored_entries()
        }
    }

    /// Whether this is a lattice (sign-extended) codebook.
    #[inline]
    pub fn is_lattice(&self) -> bool {
        self.lattice
    }

    /// Borrow of stored entry `id` (the table a kernel would cache).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn stored_entry(&self, id: usize) -> &[f32] {
        &self.entries[id * self.vector_size..(id + 1) * self.vector_size]
    }

    /// Stored-entry id that logical index `id` dereferences (identity for
    /// plain books, low bits for lattice books). This is the id whose
    /// *access frequency* matters for cache placement.
    #[inline]
    pub fn stored_id_of(&self, id: u32) -> u32 {
        if self.lattice {
            id & (self.stored_entries() as u32 - 1)
        } else {
            id
        }
    }

    /// Materializes logical entry `id` into `out`.
    ///
    /// For lattice books the high bits of `id` are a sign mask applied
    /// element-wise — the "bit operations" of Tbl. II's footnote.
    /// Allocation-free: writes into the caller's buffer.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != vector_size` or `id` is out of range.
    #[inline]
    pub fn lookup(&self, id: u32, out: &mut [f32]) {
        assert_eq!(out.len(), self.vector_size, "output buffer size");
        assert!(
            (id as usize) < self.logical_entries(),
            "entry id out of range"
        );
        let base = self.stored_id_of(id) as usize;
        let entry = self.stored_entry(base);
        if self.lattice {
            let signs = id >> self.stored_entries().trailing_zeros();
            for (j, (o, &e)) in out.iter_mut().zip(entry).enumerate() {
                *o = if signs & (1 << j) != 0 { -e } else { e };
            }
        } else {
            out.copy_from_slice(entry);
        }
    }

    /// Accumulates logical entry `id` into `out` (`out[j] += entry[j]`,
    /// sign-applied for lattice books) — the residual-accumulation step of
    /// every fused dequantization loop, without a scratch buffer.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != vector_size` or `id` is out of range.
    #[inline]
    pub fn accumulate(&self, id: u32, out: &mut [f32]) {
        assert_eq!(out.len(), self.vector_size, "output buffer size");
        assert!(
            (id as usize) < self.logical_entries(),
            "entry id out of range"
        );
        let entry = self.stored_entry(self.stored_id_of(id) as usize);
        if self.lattice {
            let signs = id >> self.sign_shift();
            for (j, (o, &e)) in out.iter_mut().zip(entry).enumerate() {
                *o += if signs & (1 << j) != 0 { -e } else { e };
            }
        } else {
            for (o, &e) in out.iter_mut().zip(entry) {
                *o += e;
            }
        }
    }

    /// Scaled accumulate: `out[j] += w · entry[j]` for logical entry `id`
    /// (sign-applied for lattice books) — the expansion step of aggregated
    /// kernels, where `w` is the sum of activations that mapped to `id`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != vector_size` or `id` is out of range.
    #[inline]
    pub fn axpy(&self, id: u32, w: f32, out: &mut [f32]) {
        assert_eq!(out.len(), self.vector_size, "output buffer size");
        assert!(
            (id as usize) < self.logical_entries(),
            "entry id out of range"
        );
        let entry = self.stored_entry(self.stored_id_of(id) as usize);
        if self.lattice {
            let signs = id >> self.sign_shift();
            for (j, (o, &e)) in out.iter_mut().zip(entry).enumerate() {
                *o += w * if signs & (1 << j) != 0 { -e } else { e };
            }
        } else {
            for (o, &e) in out.iter_mut().zip(entry) {
                *o += w * e;
            }
        }
    }

    /// Encodes `v` to the nearest logical entry id.
    ///
    /// Plain books scan all stored entries; lattice books pick the sign
    /// mask from `v`'s signs and scan stored entries against `|v|`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != vector_size`.
    pub fn encode(&self, v: &[f32]) -> u32 {
        assert_eq!(v.len(), self.vector_size, "input vector size");
        if self.lattice {
            let mut signs = 0u32;
            // `new` caps lattice vectors at 16 elements (the sign bits).
            let mut abs = [0.0f32; 16];
            let abs = &mut abs[..self.vector_size];
            for (j, &x) in v.iter().enumerate() {
                if x < 0.0 {
                    signs |= 1 << j;
                }
                abs[j] = x.abs();
            }
            let (base, _) = kmeans::nearest(abs, &self.interleaved, self.vector_size);
            (signs << self.stored_entries().trailing_zeros()) | base
        } else {
            kmeans::nearest(v, &self.interleaved, self.vector_size).0
        }
    }

    /// Bytes this codebook occupies at FP16 entry precision (what a kernel
    /// stages into shared memory).
    pub fn bytes_fp16(&self) -> usize {
        self.entries.len() * 2
    }

    /// Returns a copy with stored entries permuted by `perm` (new position
    /// → old id). Used by the codebook cache's frequency reordering; the
    /// caller is responsible for rewriting indices to match.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..stored_entries()`.
    pub fn reordered(&self, perm: &[u32]) -> Codebook {
        assert_eq!(perm.len(), self.stored_entries(), "permutation length");
        let vs = self.vector_size;
        let mut entries = vec![0.0f32; self.entries.len()];
        for (new_pos, &old_id) in perm.iter().enumerate() {
            entries[new_pos * vs..(new_pos + 1) * vs]
                .copy_from_slice(self.stored_entry(old_id as usize));
        }
        let interleaved = Self::interleave(&entries, vs);
        Codebook {
            vector_size: vs,
            entries,
            lattice: self.lattice,
            interleaved,
        }
    }
}

/// All codebooks of one quantized tensor: `books[residual][scope]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CodebookSet {
    config: VqConfig,
    shape: (usize, usize),
    books: Vec<Vec<Codebook>>,
}

impl CodebookSet {
    /// Assembles a set from per-residual, per-scope codebooks.
    ///
    /// # Errors
    ///
    /// Returns [`VqError::InvalidConfig`] if the nesting does not match
    /// `config.residuals` × `num_scopes`.
    pub fn new(config: VqConfig, shape: (usize, usize), books: Vec<Vec<Codebook>>) -> Result<Self> {
        let scopes = Self::num_scopes(&config, shape);
        if books.len() != config.residuals || books.iter().any(|b| b.len() != scopes) {
            return Err(VqError::InvalidConfig {
                what: "codebook set nesting",
                value: books.len(),
            });
        }
        Ok(CodebookSet {
            config,
            shape,
            books,
        })
    }

    /// Number of distinct codebooks per residual level for `shape`.
    pub fn num_scopes(config: &VqConfig, shape: (usize, usize)) -> usize {
        match config.scope {
            CodebookScope::PerTensor => 1,
            CodebookScope::PerTile { rows, cols } => {
                shape.0.div_ceil(rows) * shape.1.div_ceil(cols)
            }
            CodebookScope::PerChannelGroup { channels } => shape.1.div_ceil(channels),
        }
    }

    /// Scope index owning element `(row, col)`.
    pub fn scope_index(&self, row: usize, col: usize) -> usize {
        match self.config.scope {
            CodebookScope::PerTensor => 0,
            CodebookScope::PerTile { rows, cols } => {
                (row / rows) * self.shape.1.div_ceil(cols) + col / cols
            }
            CodebookScope::PerChannelGroup { channels } => col / channels,
        }
    }

    /// The codebook for residual level `r`, scope `s`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn book(&self, r: usize, s: usize) -> &Codebook {
        &self.books[r][s]
    }

    /// Height of a row band: rows `[i·h, (i+1)·h)` all map every column to
    /// the same scope, so a row-at-a-time reader resolves its books once
    /// per band ([`row_books`](Self::row_books)), not per code. A tile row
    /// under per-tile scopes, the whole tensor otherwise; at least 1.
    pub fn band_rows(&self) -> usize {
        match self.config.scope {
            CodebookScope::PerTile { rows, .. } => rows.min(self.shape.0).max(1),
            _ => self.shape.0.max(1),
        }
    }

    /// The residual-`r` codebook of each column group in `groups`
    /// (sub-vectors of `vector_size` columns) at `row` — and at every other
    /// row of its band.
    ///
    /// # Panics
    ///
    /// Panics if `r`, `row` or a group is out of range.
    pub fn row_books(&self, r: usize, row: usize, groups: Range<usize>) -> Vec<&Codebook> {
        groups
            .map(|g| self.book(r, self.scope_index(row, g * self.config.vector_size)))
            .collect()
    }

    /// Codebooks per residual level.
    pub fn scopes(&self) -> usize {
        self.books.first().map_or(0, Vec::len)
    }

    /// The configuration this set was trained under.
    pub fn config(&self) -> &VqConfig {
        &self.config
    }

    /// Shape of the quantized tensor.
    pub fn shape(&self) -> (usize, usize) {
        self.shape
    }

    /// Total FP16 bytes across all codebooks (the model-size overhead VQ
    /// pays for its codebooks).
    pub fn total_bytes(&self) -> usize {
        self.books.iter().flatten().map(Codebook::bytes_fp16).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plain_book() -> Codebook {
        // 4 entries × 2 dims.
        Codebook::new(vec![0.0, 0.0, 1.0, 1.0, -1.0, 1.0, 2.0, -2.0], 2, false).unwrap()
    }

    #[test]
    fn lookup_and_encode_roundtrip() {
        let cb = plain_book();
        let mut out = [0.0f32; 2];
        for id in 0..4 {
            cb.lookup(id, &mut out);
            assert_eq!(cb.encode(&out), id);
        }
    }

    #[test]
    fn encode_picks_nearest() {
        let cb = plain_book();
        assert_eq!(cb.encode(&[0.9, 1.1]), 1);
        assert_eq!(cb.encode(&[0.1, -0.1]), 0);
    }

    #[test]
    fn lattice_lookup_applies_signs() {
        // 2 stored entries × 2 dims, lattice.
        let cb = Codebook::new(vec![1.0, 2.0, 3.0, 4.0], 2, true).unwrap();
        assert_eq!(cb.stored_entries(), 2);
        assert_eq!(cb.logical_entries(), 8); // 2 × 2^2
        let mut out = [0.0f32; 2];
        // id = signs(0b10) << 1 | base(1) = 0b101 = 5 → entry 1 with dim-1
        // negated.
        cb.lookup(5, &mut out);
        assert_eq!(out, [3.0, -4.0]);
    }

    #[test]
    fn lattice_encode_roundtrips_signs() {
        let cb = Codebook::new(vec![1.0, 2.0, 3.0, 4.0], 2, true).unwrap();
        let id = cb.encode(&[-1.1, 1.9]);
        let mut out = [0.0f32; 2];
        cb.lookup(id, &mut out);
        assert_eq!(out, [-1.0, 2.0]);
        // Stored id only reflects the base entry.
        assert_eq!(cb.stored_id_of(id), 0);
    }

    #[test]
    fn entries_flat_and_accumulate_match_lookup() {
        let plain = plain_book();
        assert_eq!(plain.entries_flat().len(), 8);
        assert_eq!(plain.sign_shift(), 0);
        let lattice = Codebook::new(vec![1.0, 2.0, 3.0, 4.0], 2, true).unwrap();
        assert_eq!(lattice.sign_shift(), 1);
        for book in [plain, lattice] {
            for id in 0..book.logical_entries() as u32 {
                let mut via_lookup = vec![0.5f32; book.vector_size()];
                let mut via_acc = vec![0.5f32; book.vector_size()];
                let mut entry = vec![0.0f32; book.vector_size()];
                book.lookup(id, &mut entry);
                for (o, &e) in via_lookup.iter_mut().zip(&entry) {
                    *o += e;
                }
                book.accumulate(id, &mut via_acc);
                assert_eq!(via_acc, via_lookup, "id {id}");
                // Flat storage indexes the same centroids.
                let base = book.stored_id_of(id) as usize;
                let vs = book.vector_size();
                assert_eq!(
                    &book.entries_flat()[base * vs..(base + 1) * vs],
                    book.stored_entry(base)
                );
            }
        }
    }

    #[test]
    fn interleaved_mirrors_entries() {
        let book = plain_book();
        let stored = book.stored_entries();
        let vs = book.vector_size();
        let inter = book.entries_interleaved();
        assert_eq!(inter.len(), book.entries_flat().len());
        for c in 0..stored {
            for j in 0..vs {
                assert_eq!(inter[j * stored + c], book.stored_entry(c)[j]);
            }
        }
        // Reordering rebuilds the mirror consistently.
        let re = book.reordered(&[2, 0, 3, 1]);
        assert_eq!(re.entries_interleaved()[0], re.stored_entry(0)[0]);
        // Lattice books mirror their stored entries for `encode`.
        let lattice = Codebook::new(vec![1.0, 2.0, 3.0, 4.0], 2, true).unwrap();
        assert_eq!(lattice.entries_interleaved(), [1.0, 3.0, 2.0, 4.0]);
    }

    #[test]
    fn axpy_is_scaled_accumulate() {
        let plain = plain_book();
        let lattice = Codebook::new(vec![1.0, 2.0, 3.0, 4.0], 2, true).unwrap();
        for book in [plain, lattice] {
            for id in 0..book.logical_entries() as u32 {
                let mut entry = vec![0.0f32; book.vector_size()];
                book.lookup(id, &mut entry);
                let mut out = vec![0.25f32; book.vector_size()];
                book.axpy(id, -1.5, &mut out);
                for (o, &e) in out.iter().zip(&entry) {
                    assert!((o - (0.25 - 1.5 * e)).abs() < 1e-6, "id {id}");
                }
            }
        }
    }

    #[test]
    fn reorder_permutes_entries() {
        let cb = plain_book();
        let re = cb.reordered(&[2, 0, 3, 1]);
        assert_eq!(re.stored_entry(0), cb.stored_entry(2));
        assert_eq!(re.stored_entry(3), cb.stored_entry(1));
    }

    #[test]
    fn scope_indices_per_variant() {
        let per_tile =
            VqConfig::new(4, 256, 1, CodebookScope::PerTile { rows: 16, cols: 16 }).unwrap();
        let books = vec![vec![plain_book_4(); 4]];
        let set = CodebookSet::new(per_tile, (32, 32), books).unwrap();
        assert_eq!(set.scopes(), 4);
        assert_eq!(set.scope_index(0, 0), 0);
        assert_eq!(set.scope_index(0, 16), 1);
        assert_eq!(set.scope_index(16, 0), 2);
        assert_eq!(set.scope_index(31, 31), 3);

        let per_group =
            VqConfig::new(4, 256, 1, CodebookScope::PerChannelGroup { channels: 8 }).unwrap();
        let set = CodebookSet::new(per_group, (32, 32), vec![vec![plain_book_4(); 4]]).unwrap();
        assert_eq!(set.scope_index(5, 0), 0);
        assert_eq!(set.scope_index(5, 9), 1);
        assert_eq!(set.scope_index(31, 31), 3);
    }

    #[test]
    fn row_books_hold_across_a_band() {
        let tile = CodebookScope::PerTile { rows: 16, cols: 8 };
        let group = CodebookScope::PerChannelGroup { channels: 8 };
        // Distinct books, so a wrong scope is a wrong pointer.
        let books = |n: usize| vec![(0..n).map(|_| plain_book_4()).collect::<Vec<_>>()];
        for (scope, shape, scopes, band) in [
            (tile, (40, 32), 12, 16),
            (tile, (8, 32), 4, 8),
            (group, (40, 32), 4, 40),
            (CodebookScope::PerTensor, (40, 32), 1, 40),
        ] {
            let cfg = VqConfig::new(4, 256, 1, scope).unwrap();
            let set = CodebookSet::new(cfg, shape, books(scopes)).unwrap();
            assert_eq!(set.band_rows(), band, "{scope:?}");
            for row in 0..shape.0 {
                let first_of_band = row / band * band;
                let got = set.row_books(0, first_of_band, 2..8);
                for (g, book) in (2..8).zip(got) {
                    let want = set.book(0, set.scope_index(row, g * 4));
                    assert!(std::ptr::eq(book, want), "{scope:?} row {row} group {g}");
                }
            }
        }
    }

    fn plain_book_4() -> Codebook {
        Codebook::new((0..256 * 4).map(|i| i as f32).collect(), 4, false).unwrap()
    }

    #[test]
    fn set_rejects_wrong_nesting() {
        let cfg = VqConfig::new(4, 256, 2, CodebookScope::PerTensor).unwrap();
        // Only one residual level supplied for residuals = 2.
        assert!(CodebookSet::new(cfg, (8, 8), vec![vec![plain_book_4()]]).is_err());
    }

    #[test]
    fn total_bytes_counts_all_books() {
        let cfg = VqConfig::new(4, 256, 1, CodebookScope::PerChannelGroup { channels: 4 }).unwrap();
        let books = vec![vec![plain_book_4(), plain_book_4()]];
        let set = CodebookSet::new(cfg, (8, 8), books).unwrap();
        assert_eq!(set.total_bytes(), 2 * 256 * 4 * 2);
    }
}
