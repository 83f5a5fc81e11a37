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
    /// `entries.len() / vector_size`, counted once at construction so the
    /// lookups and searches on the fold's path divide nothing.
    stored: usize,
    lattice: bool,
    /// Element-major mirror of `entries` (`vector_size × stored_entries`):
    /// `interleaved[j · stored + c] == entries[c · vector_size + j]`.
    /// Derived at construction; [`Codebook::encode_many`] searches it a
    /// block of entries at a time, and the SIMD-wide host kernels stream it
    /// so LUT builds become contiguous FMA loops over all stored entries
    /// instead of `vector_size`-long strided dots.
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
            stored,
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
        self.stored
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
    /// at a fixed element — a LUT build (`lut[c] += x[j] · entry_c[j]`) —
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
            self.stored.trailing_zeros()
        } else {
            0
        }
    }

    /// Logical entries addressable by an index (`stored × 2^vector_size`
    /// for lattice books).
    pub fn logical_entries(&self) -> usize {
        if self.lattice {
            self.stored << self.vector_size
        } else {
            self.stored
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
            id & (self.stored as u32 - 1)
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
            let signs = id >> self.sign_shift();
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

    /// The sign mask a lattice code carries for `v`: bit `j` set where
    /// `v[j] < 0` (a `-0.0` counts as positive). The code of `v` is this
    /// mask shifted by [`sign_shift`](Self::sign_shift), OR the stored
    /// entry nearest `|v|`.
    #[inline]
    pub(crate) fn sign_mask(v: &[f32]) -> u32 {
        v.iter()
            .enumerate()
            .fold(0, |signs, (j, &x)| signs | (u32::from(x < 0.0) << j))
    }

    /// Encodes `v` to the nearest logical entry id: [`encode_many`] of one
    /// vector.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != vector_size`.
    ///
    /// [`encode_many`]: Self::encode_many
    pub fn encode(&self, v: &[f32]) -> u32 {
        let mut code = [0];
        self.encode_many(&[v], &mut code);
        code[0]
    }

    /// Encodes each of `vs` to its nearest logical entry id, into `codes`
    /// in order: one [`kmeans::nearest_many`] pass over the book serves up
    /// to [`kmeans::MAX_POINTS`] vectors, and each gets the id
    /// [`encode`](Self::encode) gives it alone.
    ///
    /// Plain books search all stored entries; lattice books pick the sign
    /// mask from a vector's signs and search stored entries against its
    /// `|v|`.
    ///
    /// # Panics
    ///
    /// Panics if `vs` and `codes` differ in length or a vector is not
    /// `vector_size` long.
    // Always inlined: a caller with a fixed count (one vector, or the
    // live-KV fold's tenants) then calls that count's search directly.
    #[inline(always)]
    pub fn encode_many(&self, vs: &[&[f32]], codes: &mut [u32]) {
        assert_eq!(vs.len(), codes.len(), "one code per vector");
        const N: usize = kmeans::MAX_POINTS;
        let dim = self.vector_size;
        let mut found = [(0u32, 0.0f32); N];
        for (vs, codes) in vs.chunks(N).zip(codes.chunks_mut(N)) {
            assert!(vs.iter().all(|v| v.len() == dim), "input vector size");
            let found = &mut found[..vs.len()];
            if self.lattice {
                // `new` caps lattice vectors at 16 elements (the sign bits).
                let mut abs = [[0.0f32; 16]; N];
                for (v, abs) in vs.iter().zip(&mut abs) {
                    for (&x, a) in v.iter().zip(abs.iter_mut()) {
                        *a = x.abs();
                    }
                }
                let points: [&[f32]; N] = std::array::from_fn(|p| &abs[p][..dim]);
                let points = &points[..vs.len()];
                kmeans::nearest_many_k(points, &self.interleaved, dim, self.stored, found);
                let shift = self.sign_shift();
                for ((code, &(base, _)), v) in codes.iter_mut().zip(found.iter()).zip(vs) {
                    *code = (Self::sign_mask(v) << shift) | base;
                }
            } else {
                kmeans::nearest_many_k(vs, &self.interleaved, dim, self.stored, found);
                for (code, &(id, _)) in codes.iter_mut().zip(found.iter()) {
                    *code = id;
                }
            }
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
            stored: self.stored,
            lattice: self.lattice,
            interleaved,
        }
    }
}

/// All codebooks of one quantized tensor: `books[residual][scope]`.
///
/// Beside the books the set keeps a **codebook arena** per residual round:
/// every scope's stored entries back to back, scope-major (book `s` starts
/// at float `s · stored · vs`), built once here like [`Codebook`]'s
/// element-major mirror. It is what a kernel stages as its codebook cache:
/// a run of column groups whose books are consecutive scopes, or one
/// shared scope, is one base address and a constant stride
/// ([`book_run`](Self::book_run)), so a block of books needs no pointer
/// table. Rounds of lattice or unequally sized books get no arena.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CodebookSet {
    config: VqConfig,
    shape: (usize, usize),
    books: Vec<Vec<Codebook>>,
    /// `arena[r]`: round `r`'s books' stored entries, scope-major; empty
    /// when the round has none (see the type's docs).
    arena: Vec<Vec<f32>>,
}

/// The codebooks of a run of column groups inside one round's arena
/// ([`CodebookSet::book_run`]): group `i` of the run decodes through the
/// book starting at float `i · stride` of `entries`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BookRun<'a> {
    /// The run's books back to back, or the one book all of them share.
    pub entries: &'a [f32],
    /// Floats from one group's book to the next: `stored · vs` when the
    /// groups' scopes are consecutive, 0 when they share one book.
    pub stride: usize,
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
        let arena = books.iter().map(|round| Self::arena_of(round)).collect();
        Ok(CodebookSet {
            config,
            shape,
            books,
            arena,
        })
    }

    /// One round's books' stored entries, scope-major — or nothing when a
    /// book is a lattice book or the books differ in size.
    fn arena_of(round: &[Codebook]) -> Vec<f32> {
        let len = round.first().map_or(0, |b| b.entries_flat().len());
        if round
            .iter()
            .any(|b| b.is_lattice() || b.entries_flat().len() != len)
        {
            return Vec::new();
        }
        round
            .iter()
            .flat_map(Codebook::entries_flat)
            .copied()
            .collect()
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

    /// The residual-`r` books of column groups `groups` at `row` (and at
    /// every other row of its band) as one run of the round's arena: a base
    /// and a stride of `stored · vs` when the groups' scopes are
    /// consecutive (CQ-4, CQ-2: one book per group), 0 when they all share
    /// one book (per-tensor scopes, a per-tile range inside one tile), and
    /// `None` for any other pattern, an empty range, or a round without an
    /// arena. A per-tile range that crosses a tile edge is `None`: callers
    /// split their spans there.
    ///
    /// # Panics
    ///
    /// Panics if `r`, `row` or a group is out of range.
    pub fn book_run(&self, r: usize, row: usize, groups: Range<usize>) -> Option<BookRun<'_>> {
        let arena = &self.arena[r];
        let (first, n) = (groups.start, groups.len());
        if arena.is_empty() || n == 0 {
            return None;
        }
        let book = arena.len() / self.scopes();
        // Every scope is a whole number of groups wide, so along a row the
        // scope never skips one from a group to the next: the two ends of
        // the range decide the pattern.
        let scope = |g: usize| self.scope_index(row, g * self.config.vector_size);
        let (s0, last) = (scope(first), scope(groups.end - 1));
        let (stride, books) = if last == s0 {
            (0, 1)
        } else if last - s0 == n - 1 {
            (book, n)
        } else {
            return None;
        };
        Some(BookRun {
            entries: &arena[s0 * book..(s0 + books) * book],
            stride,
        })
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

    #[test]
    fn book_run_addresses_the_arena_per_scope_pattern() {
        // Distinct books: book `s` holds `s` in every element.
        let books = |n: usize, vs: usize| {
            (0..n)
                .map(|s| Codebook::new(vec![s as f32; 256 * vs], vs, false).unwrap())
                .collect::<Vec<_>>()
        };
        let set = |scope, shape, vs| {
            let cfg = VqConfig::new(vs, 256, 1, scope).unwrap();
            let n = CodebookSet::num_scopes(&cfg, shape);
            CodebookSet::new(cfg, shape, vec![books(n, vs)]).unwrap()
        };
        // `(first scope, stride in books, books in the run)` of a run.
        let run_of = |set: &CodebookSet, row, groups| {
            let run = set.book_run(0, row, groups)?;
            let book = 256 * set.config().vector_size;
            Some((
                run.entries[0] as usize,
                run.stride / book,
                run.entries.len() / book,
            ))
        };
        // CQ-4 / CQ-2 shape: one book per group, consecutive.
        let cq = set(CodebookScope::PerChannelGroup { channels: 2 }, (8, 32), 2);
        assert_eq!(run_of(&cq, 5, 3..9), Some((3, 1, 6)));
        for g in 3..9 {
            let at = (g - 3) * 512;
            assert_eq!(
                cq.book_run(0, 0, 3..9).unwrap().entries[at..at + 512],
                *cq.book(0, g).entries_flat()
            );
        }
        // Per tensor: one shared book.
        let tensor = set(CodebookScope::PerTensor, (8, 32), 4);
        assert_eq!(run_of(&tensor, 7, 0..8), Some((0, 0, 1)));
        // Per tile: shared inside a tile, nothing across its edge; the
        // band picks the tile row.
        let tile = set(CodebookScope::PerTile { rows: 4, cols: 16 }, (8, 32), 4);
        assert_eq!(run_of(&tile, 0, 0..4), Some((0, 0, 1)));
        assert_eq!(run_of(&tile, 4, 4..8), Some((3, 0, 1)));
        assert_eq!(run_of(&tile, 0, 2..6), None);
        // Two groups a book: shared within a pair, no pattern beyond.
        let pairs = set(CodebookScope::PerChannelGroup { channels: 8 }, (8, 32), 4);
        assert_eq!(run_of(&pairs, 0, 2..4), Some((1, 0, 1)));
        assert_eq!(run_of(&pairs, 0, 1..4), None);
        assert_eq!(run_of(&pairs, 0, 2..2), None);
        // Lattice books get no arena.
        let cfg = VqConfig::new_lattice(2, 16, 4, 1, CodebookScope::PerTensor).unwrap();
        let lattice = Codebook::new(vec![1.0; 8], 2, true).unwrap();
        let set = CodebookSet::new(cfg, (8, 8), vec![vec![lattice]]).unwrap();
        assert_eq!(set.book_run(0, 0, 0..4), None);
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
