use bytes::{BufMut, Bytes, BytesMut};
use std::fmt;

/// A compact growable bit vector used for bitmap-encoded safe regions.
///
/// Bits are appended with [`BitVec::push`] and addressed by index; the
/// wire form ([`BitVec::to_bytes`]) packs bits MSB-first into octets, which
/// is what the downstream-bandwidth accounting of the evaluation charges.
///
/// ```
/// use sa_core::BitVec;
/// let mut bits = BitVec::new();
/// for b in [false, true, true, false, true] {
///     bits.push(b);
/// }
/// assert_eq!(bits.len(), 5);
/// assert_eq!(bits.get(1), Some(true));
/// assert_eq!(bits.count_ones(), 3);
/// assert_eq!(bits.to_bitstring(), "01101");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// An empty bit vector.
    pub fn new() -> BitVec {
        BitVec::default()
    }

    /// An empty bit vector with room for `bits` bits.
    pub fn with_capacity(bits: usize) -> BitVec {
        BitVec { words: Vec::with_capacity(bits.div_ceil(64)), len: 0 }
    }

    /// Number of stored bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no bits are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one bit.
    pub fn push(&mut self, bit: bool) {
        let word = self.len / 64;
        let offset = self.len % 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[word] |= 1u64 << offset;
        }
        self.len += 1;
    }

    /// The bit at `index`, or `None` past the end.
    pub fn get(&self, index: usize) -> Option<bool> {
        if index >= self.len {
            return None;
        }
        Some((self.words[index / 64] >> (index % 64)) & 1 == 1)
    }

    /// Overwrites the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index >= len`.
    pub fn set(&mut self, index: usize, bit: bool) {
        assert!(index < self.len, "set index {index} out of bounds {}", self.len);
        let mask = 1u64 << (index % 64);
        if bit {
            self.words[index / 64] |= mask;
        } else {
            self.words[index / 64] &= !mask;
        }
    }

    /// Empties the vector, keeping its allocation for reuse.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// Appends the low `nbits` bits of `word` (LSB first) in one or two
    /// word operations — the primitive every word-parallel append builds
    /// on.
    pub(crate) fn push_word(&mut self, word: u64, nbits: usize) {
        debug_assert!(nbits <= 64);
        if nbits == 0 {
            return;
        }
        let word = if nbits == 64 { word } else { word & ((1u64 << nbits) - 1) };
        let offset = self.len % 64;
        if offset == 0 {
            self.words.push(word);
        } else {
            *self.words.last_mut().expect("offset > 0 implies a tail word") |= word << offset;
            if nbits > 64 - offset {
                self.words.push(word >> (64 - offset));
            }
        }
        self.len += nbits;
    }

    /// Reads up to 64 bits starting at bit `start` into the low bits of a
    /// word (LSB first).
    fn read_word(&self, start: usize, nbits: usize) -> u64 {
        debug_assert!(nbits <= 64 && start + nbits <= self.len);
        if nbits == 0 {
            return 0;
        }
        let word = start / 64;
        let off = start % 64;
        let mut w = self.words[word] >> off;
        if off != 0 && word + 1 < self.words.len() {
            w |= self.words[word + 1] << (64 - off);
        }
        if nbits < 64 {
            w &= (1u64 << nbits) - 1;
        }
        w
    }

    /// Appends `n` clear bits, 64 at a time — the bulk append used for the
    /// all-zero child blocks under solid pyramid cells, replacing `n`
    /// single-bit pushes with `n/64` word writes.
    pub fn push_zeros(&mut self, mut n: usize) {
        while n > 0 {
            let take = n.min(64);
            self.push_word(0, take);
            n -= take;
        }
    }

    /// Appends `n` set bits, 64 at a time.
    pub fn push_ones(&mut self, mut n: usize) {
        while n > 0 {
            let take = n.min(64);
            self.push_word(u64::MAX, take);
            n -= take;
        }
    }

    /// Appends `len` bits copied from `src` starting at bit `start`, in
    /// 64-bit chunks (two shifts per chunk) rather than bit by bit.
    ///
    /// # Panics
    ///
    /// Panics when `start + len` exceeds `src.len()`.
    pub fn extend_range(&mut self, src: &BitVec, start: usize, len: usize) {
        assert!(
            start + len <= src.len,
            "range {start}..{} out of bounds {}",
            start + len,
            src.len
        );
        let mut pos = start;
        let end = start + len;
        while pos < end {
            let take = (end - pos).min(64);
            self.push_word(src.read_word(pos, take), take);
            pos += take;
        }
    }

    /// A word-parallel copy of bits `start..start + len`.
    ///
    /// # Panics
    ///
    /// Panics when `start + len` exceeds `len()`.
    pub fn slice(&self, start: usize, len: usize) -> BitVec {
        let mut out = BitVec::with_capacity(len);
        out.extend_range(self, start, len);
        out
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of clear bits.
    pub fn count_zeros(&self) -> usize {
        self.len - self.count_ones()
    }

    /// Number of **clear** bits strictly before `index` — the rank query
    /// used to locate a blocked cell's child block in the next pyramid
    /// level. Linear scan; a [`crate::BitmapSafeRegion`] keeps its own
    /// rank directory for O(1) queries.
    ///
    /// # Panics
    ///
    /// Panics when `index > len`.
    pub fn rank_zeros(&self, index: usize) -> usize {
        assert!(index <= self.len, "rank index {index} out of bounds {}", self.len);
        let full_words = index / 64;
        let mut ones = 0usize;
        for w in &self.words[..full_words] {
            ones += w.count_ones() as usize;
        }
        let rem = index % 64;
        if rem > 0 {
            let mask = (1u64 << rem) - 1;
            ones += (self.words[full_words] & mask).count_ones() as usize;
        }
        index - ones
    }

    /// The backing words, LSB first; bits past `len` are clear.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// The backing words, handed over without a copy.
    pub(crate) fn into_words(self) -> Vec<u64> {
        self.words
    }

    /// Iterates over the bits in order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i).expect("index in range"))
    }

    /// Serializes MSB-first into octets (the wire format whose size the
    /// bandwidth model charges).
    ///
    /// Word-parallel: each 64-bit word yields eight output octets by
    /// byte-reversal (`reverse_bits` converts the word's LSB-first bit
    /// order to the wire's MSB-first octet order); padding bits of the
    /// final partial octet are zero because bits past `len` are kept clear.
    pub fn to_bytes(&self) -> Bytes {
        let nbytes = self.len.div_ceil(8);
        let mut buf = BytesMut::with_capacity(nbytes);
        let mut remaining = nbytes;
        for w in &self.words {
            let le = w.to_le_bytes();
            let take = remaining.min(8);
            for b in &le[..take] {
                buf.put_u8(b.reverse_bits());
            }
            remaining -= take;
        }
        buf.freeze()
    }

    /// Renders the bits as a `0`/`1` string (for tests and examples).
    pub fn to_bitstring(&self) -> String {
        self.iter().map(|b| if b { '1' } else { '0' }).collect()
    }

    /// Deserializes the MSB-first octet form produced by
    /// [`BitVec::to_bytes`], keeping the first `len` bits and ignoring the
    /// zero padding of the final partial octet.
    ///
    /// ```
    /// use sa_core::BitVec;
    /// let bits: BitVec = [true, false, true, true, false].into_iter().collect();
    /// let round = BitVec::from_bytes(&bits.to_bytes(), bits.len()).unwrap();
    /// assert_eq!(round, bits);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns `None` when `bytes` is shorter than `len` bits requires.
    pub fn from_bytes(bytes: &[u8], len: usize) -> Option<BitVec> {
        let nbytes = len.div_ceil(8);
        if bytes.len() < nbytes {
            return None;
        }
        // Word-parallel inverse of `to_bytes`: reverse each octet back to
        // LSB-first order and assemble little-endian words, then clear any
        // bits past `len` that came from the final octet's padding.
        let nwords = len.div_ceil(64);
        let mut words = Vec::with_capacity(nwords);
        for chunk in 0..nwords {
            let base = chunk * 8;
            let end = (base + 8).min(nbytes);
            let mut le = [0u8; 8];
            for (k, byte) in bytes[base..end].iter().enumerate() {
                le[k] = byte.reverse_bits();
            }
            words.push(u64::from_le_bytes(le));
        }
        if !len.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << (len % 64)) - 1;
            }
        }
        Some(BitVec { words, len })
    }
}

impl fmt::Display for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_bitstring())
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> BitVec {
        let mut bv = BitVec::new();
        for b in iter {
            bv.push(b);
        }
        bv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_across_word_boundaries() {
        let mut bv = BitVec::new();
        for i in 0..200 {
            bv.push(i % 3 == 0);
        }
        assert_eq!(bv.len(), 200);
        for i in 0..200 {
            assert_eq!(bv.get(i), Some(i % 3 == 0), "bit {i}");
        }
        assert_eq!(bv.get(200), None);
    }

    #[test]
    fn counts_are_consistent() {
        let bv: BitVec = (0..100).map(|i| i % 4 == 0).collect();
        assert_eq!(bv.count_ones(), 25);
        assert_eq!(bv.count_zeros(), 75);
        assert_eq!(bv.count_ones() + bv.count_zeros(), bv.len());
    }

    #[test]
    fn rank_zeros_matches_linear_scan() {
        let bv: BitVec = (0..150).map(|i| (i * 7) % 5 < 2).collect();
        for idx in 0..=150 {
            let expected = (0..idx).filter(|&i| !bv.get(i).unwrap()).count();
            assert_eq!(bv.rank_zeros(idx), expected, "rank at {idx}");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rank_past_end_panics() {
        let bv: BitVec = [true, false].into_iter().collect();
        bv.rank_zeros(3);
    }

    #[test]
    fn byte_serialization_is_msb_first() {
        let bv: BitVec = "01101001".chars().map(|c| c == '1').collect();
        assert_eq!(bv.to_bytes().as_ref(), &[0b0110_1001]);
        // Partial trailing byte is zero-padded.
        let bv: BitVec = "101".chars().map(|c| c == '1').collect();
        assert_eq!(bv.to_bytes().as_ref(), &[0b1010_0000]);
    }

    #[test]
    fn bitstring_round_trip() {
        let s = "0000011010";
        let bv: BitVec = s.chars().map(|c| c == '1').collect();
        assert_eq!(bv.to_bitstring(), s);
        assert_eq!(format!("{bv}"), s);
    }

    #[test]
    fn empty_bitvec() {
        let bv = BitVec::new();
        assert!(bv.is_empty());
        assert_eq!(bv.count_ones(), 0);
        assert_eq!(bv.rank_zeros(0), 0);
        assert!(bv.to_bytes().is_empty());
    }

    #[test]
    fn set_and_clear_update_in_place() {
        let mut bv: BitVec = (0..130).map(|_| false).collect();
        bv.set(0, true);
        bv.set(64, true);
        bv.set(129, true);
        assert_eq!(bv.count_ones(), 3);
        bv.set(64, false);
        assert_eq!(bv.get(64), Some(false));
        assert_eq!(bv.count_ones(), 2);
        bv.clear();
        assert!(bv.is_empty());
    }

    #[test]
    fn bulk_push_matches_single_bit_push() {
        for prefix in [0usize, 1, 7, 63, 64, 65] {
            let mut bulk = BitVec::new();
            let mut single = BitVec::new();
            for i in 0..prefix {
                bulk.push(i % 2 == 0);
                single.push(i % 2 == 0);
            }
            bulk.push_zeros(131);
            bulk.push_ones(67);
            for _ in 0..131 {
                single.push(false);
            }
            for _ in 0..67 {
                single.push(true);
            }
            assert_eq!(bulk, single, "prefix {prefix}");
        }
    }

    #[test]
    fn extend_range_and_slice_match_per_bit_copy() {
        let src: BitVec = (0..300).map(|i| (i * 11) % 7 < 3).collect();
        for (start, len) in [(0, 300), (1, 64), (63, 65), (64, 64), (7, 0), (130, 129)] {
            let sliced = src.slice(start, len);
            let expected: BitVec = (start..start + len)
                .map(|i| src.get(i).unwrap())
                .collect();
            assert_eq!(sliced, expected, "slice {start}+{len}");
            let mut appended: BitVec = [true, false, true].into_iter().collect();
            appended.extend_range(&src, start, len);
            assert_eq!(appended.len(), 3 + len);
            for i in 0..len {
                assert_eq!(appended.get(3 + i), src.get(start + i), "bit {i}");
            }
        }
    }

    #[test]
    fn byte_round_trip_across_word_boundaries() {
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 300] {
            let bv: BitVec = (0..len).map(|i| (i * 17) % 13 < 6).collect();
            let bytes = bv.to_bytes();
            assert_eq!(bytes.len(), len.div_ceil(8), "len {len}");
            let back = BitVec::from_bytes(&bytes, len).unwrap();
            assert_eq!(back, bv, "len {len}");
        }
    }

    #[test]
    fn from_bytes_clears_padding_bits() {
        // All-ones octets with a ragged length: the padding bits must not
        // leak into the word representation (count_ones and rank depend on
        // the bits past `len` staying clear).
        let back = BitVec::from_bytes(&[0xFF, 0xFF], 11).unwrap();
        assert_eq!(back.len(), 11);
        assert_eq!(back.count_ones(), 11);
        let mut extended = back.clone();
        extended.push(true);
        assert_eq!(extended.count_ones(), 12);
    }
}
