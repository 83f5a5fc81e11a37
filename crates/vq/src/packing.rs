//! Bit-packed index streams.
//!
//! VQ indices occupy `log2 #entry` bits: 8 for GPTVQ/CQ, 16 for QuiP#'s
//! lattice ids — and 12 for AQLM, whose "unaligned 12-bit storage format …
//! necessitates additional unpacking and decoding logic" (paper §VII-B).
//! Packing is LSB-first within little-endian bytes, the layout a CUDA
//! kernel would decode with shift/mask ops.

use crate::{Result, VqError};
use serde::{Deserialize, Serialize};

/// A bit-packed stream of equal-width indices.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PackedIndices {
    bits: u8,
    len: usize,
    data: Vec<u8>,
}

impl PackedIndices {
    /// Packs `indices` at `bits` bits each.
    ///
    /// # Errors
    ///
    /// Returns [`VqError::InvalidConfig`] if `bits` is 0 or > 32, or an
    /// index does not fit in `bits` bits.
    pub fn pack(indices: &[u32], bits: u8) -> Result<Self> {
        if bits == 0 || bits > 32 {
            return Err(VqError::InvalidConfig {
                what: "index bits",
                value: bits as usize,
            });
        }
        let limit = if bits == 32 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        };
        let mut buf = Vec::with_capacity((indices.len() * bits as usize).div_ceil(8));
        let mut acc: u64 = 0;
        let mut nbits: u32 = 0;
        for &idx in indices {
            if u64::from(idx) > limit {
                return Err(VqError::InvalidConfig {
                    what: "index exceeds bit width",
                    value: idx as usize,
                });
            }
            acc |= u64::from(idx) << nbits;
            nbits += u32::from(bits);
            while nbits >= 8 {
                buf.push((acc & 0xff) as u8);
                acc >>= 8;
                nbits -= 8;
            }
        }
        if nbits > 0 {
            buf.push((acc & 0xff) as u8);
        }
        Ok(PackedIndices {
            bits,
            len: indices.len(),
            data: buf,
        })
    }

    /// Value mask for a `bits`-wide index.
    #[inline]
    fn mask_of(bits: u8) -> u64 {
        if bits >= 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        }
    }

    /// Little-endian 64-bit word starting at byte offset `byte`, zero-padded
    /// past the end of the stream. One unaligned load replaces the per-byte
    /// shift/OR loop on the hot path.
    #[inline]
    fn word_at(&self, byte: usize) -> u64 {
        let d = &self.data;
        if byte + 8 <= d.len() {
            u64::from_le_bytes(d[byte..byte + 8].try_into().expect("8-byte slice"))
        } else {
            let mut buf = [0u8; 8];
            if byte < d.len() {
                buf[..d.len() - byte].copy_from_slice(&d[byte..]);
            }
            u64::from_le_bytes(buf)
        }
    }

    /// Index at position `i`.
    ///
    /// Decodes with a single word load + shift + mask (any index of width
    /// ≤ 32 spans at most 5 bytes, so the containing 8-byte word always
    /// holds it), instead of recomputing a byte-span loop per call.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        assert!(i < self.len, "index out of bounds");
        let bit_pos = i * self.bits as usize;
        (self.word_at(bit_pos >> 3) >> (bit_pos & 7) & Self::mask_of(self.bits)) as u32
    }

    /// Batched decode of `out.len()` consecutive indices starting at
    /// `start` — the kernel-facing fast path. Whole-byte widths (8 for
    /// GPTVQ/CQ, 16 for lattice ids) are a widening copy of the byte
    /// stream; every other width computes the shift amount and mask once
    /// and pays one word load per index, so hot loops decode a whole row
    /// (or row-block) of codes at a time instead of re-running
    /// [`PackedIndices::get`]'s bit arithmetic per element.
    ///
    /// # Panics
    ///
    /// Panics if `start + out.len() > len`.
    #[inline]
    pub fn unpack_block(&self, start: usize, out: &mut [u32]) {
        assert!(
            start + out.len() <= self.len,
            "block [{start}, {}) out of bounds (len {})",
            start + out.len(),
            self.len
        );
        match self.bits {
            8 => {
                let src = &self.data[start..start + out.len()];
                for (o, &b) in out.iter_mut().zip(src) {
                    *o = u32::from(b);
                }
            }
            16 => {
                let src = &self.data[2 * start..2 * (start + out.len())];
                for (o, b) in out.iter_mut().zip(src.chunks_exact(2)) {
                    *o = u32::from(u16::from_le_bytes([b[0], b[1]]));
                }
            }
            _ => {
                let bits = self.bits as usize;
                let mask = Self::mask_of(self.bits);
                let mut bit_pos = start * bits;
                for o in out.iter_mut() {
                    *o = (self.word_at(bit_pos >> 3) >> (bit_pos & 7) & mask) as u32;
                    bit_pos += bits;
                }
            }
        }
    }

    /// The stream as one byte per index — `Some` exactly when indices are
    /// 8 bits wide, where the packed layout *is* that array. Kernels index
    /// 256-slot tables with these bytes directly: no widening scratch, and
    /// no range check a `u8` could fail.
    #[inline]
    pub fn as_bytes(&self) -> Option<&[u8]> {
        (self.bits == 8).then_some(self.data.as_slice())
    }

    /// Iterator over `count` indices starting at `start` — a lazy wrapper
    /// over [`PackedIndices::get`]'s word-at-a-time decode for callers
    /// that don't want a scratch buffer ([`PackedIndices::unpack_block`]
    /// is the bulk fast path).
    ///
    /// # Panics
    ///
    /// Panics if `start + count > len`.
    pub fn iter_range(&self, start: usize, count: usize) -> impl Iterator<Item = u32> + '_ {
        assert!(start + count <= self.len, "range out of bounds");
        (start..start + count).map(move |i| self.get(i))
    }

    /// Unpacks the whole stream. Kept as the straightforward slow-path
    /// oracle that [`PackedIndices::unpack_block`] is tested against.
    pub fn unpack(&self) -> Vec<u32> {
        (0..self.len).map(|i| self.get_slow(i)).collect()
    }

    /// Original per-byte decode: the reference implementation `get` and
    /// `unpack_block` must agree with at every width.
    fn get_slow(&self, i: usize) -> u32 {
        assert!(i < self.len, "index out of bounds");
        let bits = self.bits as usize;
        let bit_pos = i * bits;
        let mut acc: u64 = 0;
        let first = bit_pos / 8;
        // An index spans at most ceil((bits + 7) / 8) + 1 bytes.
        let span = (bits + (bit_pos % 8)).div_ceil(8);
        for (j, &b) in self.data[first..(first + span).min(self.data.len())]
            .iter()
            .enumerate()
        {
            acc |= u64::from(b) << (8 * j);
        }
        acc >>= bit_pos % 8;
        (acc & Self::mask_of(self.bits)) as u32
    }

    /// Number of stored indices.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bits per index.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Packed size in bytes.
    pub fn byte_len(&self) -> usize {
        self.data.len()
    }

    /// Whether decoding an index at position `i` requires non-byte-aligned
    /// shifts — true for widths like 12 that straddle byte boundaries on
    /// odd positions. This is the property that costs AQLM extra integer
    /// ops in the compute engine.
    pub fn is_byte_aligned(&self) -> bool {
        self.bits.is_multiple_of(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_byte_aligned() {
        let idx: Vec<u32> = (0..256).collect();
        let p = PackedIndices::pack(&idx, 8).unwrap();
        assert_eq!(p.unpack(), idx);
        assert_eq!(p.byte_len(), 256);
        assert!(p.is_byte_aligned());
    }

    #[test]
    fn roundtrip_12_bit() {
        let idx: Vec<u32> = (0..4096).step_by(7).collect();
        let p = PackedIndices::pack(&idx, 12).unwrap();
        assert_eq!(p.unpack(), idx);
        // 586 indices × 12 bits = 7032 bits = 879 bytes.
        assert_eq!(p.byte_len(), (idx.len() * 12).div_ceil(8));
        assert!(!p.is_byte_aligned());
    }

    #[test]
    fn roundtrip_odd_widths() {
        for bits in [1u8, 3, 5, 11, 13, 16, 17, 31] {
            let max = if bits == 32 {
                u32::MAX
            } else {
                (1u32 << bits) - 1
            };
            let idx: Vec<u32> = (0..100u32)
                .map(|i| i.wrapping_mul(2654435761) & max)
                .collect();
            let p = PackedIndices::pack(&idx, bits).unwrap();
            assert_eq!(p.unpack(), idx, "width {bits}");
        }
    }

    #[test]
    fn random_access_matches_unpack() {
        let idx: Vec<u32> = (0..977).map(|i| (i * 31) as u32 % 4096).collect();
        let p = PackedIndices::pack(&idx, 12).unwrap();
        for (i, &v) in idx.iter().enumerate() {
            assert_eq!(p.get(i), v);
        }
    }

    #[test]
    fn rejects_oversized_values() {
        assert!(PackedIndices::pack(&[256], 8).is_err());
        assert!(PackedIndices::pack(&[4096], 12).is_err());
        assert!(PackedIndices::pack(&[0], 0).is_err());
    }

    /// Deterministic pseudo-random indices that fit in `bits`.
    fn mixed_indices(n: usize, bits: u8) -> Vec<u32> {
        let max = if bits >= 32 {
            u32::MAX
        } else {
            (1u32 << bits) - 1
        };
        (0..n as u32)
            .map(|i| i.wrapping_mul(2654435761).rotate_left(7) & max)
            .collect()
    }

    #[test]
    fn block_decode_matches_oracle_at_all_widths() {
        // Every width the kernels can see, including every non-byte-aligned
        // one in 1..=16 (the AQLM-12 class) plus a few wide outliers.
        for bits in (1u8..=16).chain([17, 24, 31, 32]) {
            let idx = mixed_indices(203, bits);
            let p = PackedIndices::pack(&idx, bits).unwrap();
            // Whole-stream block decode vs the slow-path oracle.
            let mut block = vec![0u32; idx.len()];
            p.unpack_block(0, &mut block);
            assert_eq!(block, p.unpack(), "width {bits}");
            assert_eq!(block, idx, "width {bits}");
            // Unaligned interior blocks.
            for (start, count) in [(0, 1), (1, 7), (13, 64), (190, 13), (203, 0)] {
                let mut out = vec![0u32; count];
                p.unpack_block(start, &mut out);
                assert_eq!(out, &idx[start..start + count], "width {bits} @ {start}");
            }
            // get() (word-load fast path) agrees everywhere too.
            for (i, &v) in idx.iter().enumerate() {
                assert_eq!(p.get(i), v, "width {bits} get({i})");
            }
        }
    }

    #[test]
    fn block_decode_straddles_word_boundaries() {
        // Odd widths whose indices land astride the 64-bit words that
        // `word_at` loads: for each width, pick block starts so the first
        // decoded index begins in the last bits of a word and spills into
        // the next (bit_pos/64 != (bit_pos+bits-1)/64), plus blocks that
        // end exactly at, one before, and one past each word seam.
        for bits in [3u8, 5, 7, 31] {
            let n = 403usize;
            let idx = mixed_indices(n, bits);
            let p = PackedIndices::pack(&idx, bits).unwrap();
            let b = bits as usize;
            // Every straddling start position in the stream.
            let straddles: Vec<usize> = (0..n)
                .filter(|i| (i * b) / 64 != (i * b + b - 1) / 64)
                .collect();
            assert!(!straddles.is_empty(), "width {bits} has straddles");
            for &start in &straddles {
                for count in [1usize, 2, 64 / b + 1] {
                    let count = count.min(n - start);
                    let mut out = vec![0u32; count];
                    p.unpack_block(start, &mut out);
                    assert_eq!(out, &idx[start..start + count], "width {bits} @ {start}");
                    // The word-load `get` agrees at the same positions.
                    assert_eq!(p.get(start), idx[start], "width {bits} get({start})");
                }
            }
            // Blocks ending at / around the final byte of the stream (the
            // zero-padded tail load of `word_at`).
            for tail in 1..=(64 / b).min(n) {
                let start = n - tail;
                let mut out = vec![0u32; tail];
                p.unpack_block(start, &mut out);
                assert_eq!(out, &idx[start..], "width {bits} tail {tail}");
            }
        }
    }

    #[test]
    fn byte_aligned_block_decode_matches_oracle() {
        // The widening-copy paths (8- and 16-bit codes): unaligned starts,
        // empty / single / odd-length blocks, and blocks that end on the
        // last code of the stream, against the per-byte `unpack()` oracle.
        for bits in [8u8, 16] {
            for n in [1usize, 2, 203] {
                let idx = mixed_indices(n, bits);
                let p = PackedIndices::pack(&idx, bits).unwrap();
                let oracle = p.unpack();
                assert_eq!(oracle, idx, "width {bits}");
                for start in [0usize, 1, 3, 7, 64, 101, n - 1, n] {
                    for count in [0usize, 1, 5, 17, 64] {
                        if start + count > n {
                            continue;
                        }
                        let mut out = vec![u32::MAX; count];
                        p.unpack_block(start, &mut out);
                        assert_eq!(out, &oracle[start..start + count], "width {bits} @ {start}");
                    }
                    // Through the last code of the stream.
                    if start <= n {
                        let mut out = vec![u32::MAX; n - start];
                        p.unpack_block(start, &mut out);
                        assert_eq!(out, &oracle[start..], "width {bits} tail from {start}");
                    }
                }
            }
        }
    }

    #[test]
    fn byte_view_is_the_eight_bit_stream() {
        for bits in (1u8..=16).chain([24, 32]) {
            let idx = mixed_indices(203, bits);
            let p = PackedIndices::pack(&idx, bits).unwrap();
            match p.as_bytes() {
                Some(bytes) => {
                    assert_eq!(bits, 8);
                    let widened: Vec<u32> = bytes.iter().map(|&b| u32::from(b)).collect();
                    assert_eq!(widened, p.unpack());
                }
                None => assert_ne!(bits, 8),
            }
        }
        let empty = PackedIndices::pack(&[], 8).unwrap();
        assert_eq!(empty.as_bytes(), Some(&[][..]));
    }

    #[test]
    fn iter_range_matches_block_decode() {
        let idx = mixed_indices(151, 11);
        let p = PackedIndices::pack(&idx, 11).unwrap();
        let via_iter: Vec<u32> = p.iter_range(9, 100).collect();
        assert_eq!(via_iter, &idx[9..109]);
        assert_eq!(p.iter_range(0, 0).count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn block_decode_rejects_overrun() {
        let p = PackedIndices::pack(&[1, 2, 3], 8).unwrap();
        let mut out = [0u32; 2];
        p.unpack_block(2, &mut out);
    }

    #[test]
    fn empty_stream() {
        let p = PackedIndices::pack(&[], 12).unwrap();
        assert!(p.is_empty());
        assert_eq!(p.byte_len(), 0);
        assert_eq!(p.unpack(), Vec::<u32>::new());
    }
}
