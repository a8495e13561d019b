//! Tuple-match bitmasks.

/// A per-tuple match bitmask, the intermediate result of
/// column-at-a-time scans ("1" for match, "0" for no match, as in the
/// paper's experiment description).
///
/// # Example
///
/// ```
/// use hipe_db::Bitmask;
/// let mut m = Bitmask::ones(10);
/// m.clear(3);
/// assert!(!m.get(3));
/// assert_eq!(m.count_ones(), 9);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Bitmask {
    words: Vec<u64>,
    len: usize,
}

impl Bitmask {
    /// Creates an all-zero mask over `len` tuples.
    pub fn zeros(len: usize) -> Self {
        Bitmask {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Creates an all-one mask over `len` tuples.
    pub fn ones(len: usize) -> Self {
        let mut m = Bitmask {
            words: vec![!0u64; len.div_ceil(64)],
            len,
        };
        m.trim();
        m
    }

    /// Builds a mask over `len` tuples one packed word at a time:
    /// `f(w)` supplies the 64-tuple word `w` in the format of
    /// [`Bitmask::words`]. Bits past `len` in the last word are
    /// discarded, so `f` may fill its final word without masking.
    ///
    /// This is the allocation-free counterpart of collecting a
    /// `FromIterator<bool>` per tuple: scan kernels evaluate 64 rows
    /// into a register and hand the finished word over.
    pub fn from_fn(len: usize, f: impl FnMut(usize) -> u64) -> Self {
        let mut m = Bitmask {
            words: (0..len.div_ceil(64)).map(f).collect(),
            len,
        };
        m.trim();
        m
    }

    /// Overwrites packed word `w` (tuples `[64 * w, 64 * w + 64)`) with
    /// `bits`. Bits past `len` in the last word are discarded, keeping
    /// the zero-tail invariant.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not a valid word index.
    #[inline]
    pub fn set_word(&mut self, w: usize, bits: u64) {
        assert!(w < self.words.len(), "word {w} out of range");
        self.words[w] = bits;
        if w + 1 == self.words.len() {
            self.trim();
        }
    }

    fn trim(&mut self) {
        let extra = self.words.len() * 64 - self.len;
        if extra > 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= !0u64 >> extra;
            }
        }
    }

    /// Number of tuples covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the mask covers zero tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit value for tuple `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Clears bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// The mask as packed little-endian `u64` words (bit `i` of word
    /// `i / 64` is tuple `64 * (i / 64) + i % 64`; trailing bits of the
    /// last word are zero).
    ///
    /// This is exactly the in-memory format the simulated scan kernels
    /// store at the mask output area.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// In-place intersection with `other`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn and_with(&mut self, other: &Bitmask) {
        assert_eq!(self.len, other.len, "bitmask length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over the indices of set bits, in ascending order.
    ///
    /// Word-level `trailing_zeros` scanning: all-zero words cost one
    /// comparison each, so iterating a near-empty mask is `O(words +
    /// ones)` rather than `O(len)` — this is the hot path of the
    /// host-side aggregate gather at low selectivity.
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes {
            words: &self.words,
            word: 0,
            bits: self.words.first().copied().unwrap_or(0),
        }
    }
}

/// Iterator over the set bits of a [`Bitmask`]; see
/// [`Bitmask::iter_ones`].
///
/// Relies on the mask's invariant that bits past `len` in the last
/// word are always zero.
#[derive(Debug, Clone)]
pub struct IterOnes<'a> {
    words: &'a [u64],
    /// Index of the word `bits` was taken from.
    word: usize,
    /// Unconsumed set bits of the current word.
    bits: u64,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.word += 1;
            if self.word >= self.words.len() {
                return None;
            }
            self.bits = self.words[self.word];
        }
        let bit = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(self.word * 64 + bit)
    }
}

impl FromIterator<bool> for Bitmask {
    /// Packs the bools into words as they stream by — no intermediate
    /// `Vec<bool>`, and the zero-tail invariant holds by construction.
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut words = Vec::new();
        let mut len = 0usize;
        let mut word = 0u64;
        for b in iter {
            word |= (b as u64) << (len % 64);
            len += 1;
            if len.is_multiple_of(64) {
                words.push(word);
                word = 0;
            }
        }
        if !len.is_multiple_of(64) {
            words.push(word);
        }
        Bitmask { words, len }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ones_trims_tail() {
        let m = Bitmask::ones(70);
        assert_eq!(m.count_ones(), 70);
    }

    #[test]
    fn set_get_clear() {
        let mut m = Bitmask::zeros(100);
        m.set(0);
        m.set(63);
        m.set(64);
        m.set(99);
        assert!(m.get(0) && m.get(63) && m.get(64) && m.get(99));
        assert_eq!(m.count_ones(), 4);
        m.clear(63);
        assert!(!m.get(63));
    }

    #[test]
    fn and_intersects() {
        let b: Bitmask = (0..10).map(|i| i < 5).collect();
        let mut c: Bitmask = (0..10).map(|i| i % 2 == 0).collect();
        c.and_with(&b);
        assert_eq!(c.iter_ones().collect::<Vec<_>>(), vec![0, 2, 4]);
    }

    #[test]
    fn words_pack_little_endian_with_zero_tail() {
        let mut m = Bitmask::zeros(70);
        m.set(0);
        m.set(63);
        m.set(65);
        assert_eq!(m.words(), &[1 | (1 << 63), 2]);
        // Trailing bits beyond `len` stay zero even after `ones`.
        assert_eq!(Bitmask::ones(70).words()[1], 0b11_1111);
    }

    #[test]
    fn from_fn_matches_per_bit_collect() {
        for len in [0usize, 1, 63, 64, 65, 130, 200] {
            let per_bit: Bitmask = (0..len).map(|i| i % 3 == 0).collect();
            let per_word = Bitmask::from_fn(len, |w| {
                let mut bits = 0u64;
                for b in 0..64 {
                    let i = w * 64 + b;
                    if i < len && i % 3 == 0 {
                        bits |= 1 << b;
                    }
                }
                bits
            });
            assert_eq!(per_bit, per_word, "len {len}");
        }
    }

    #[test]
    fn from_fn_discards_bits_past_len() {
        // An all-ones generator must still respect the zero tail.
        let m = Bitmask::from_fn(70, |_| !0u64);
        assert_eq!(m, Bitmask::ones(70));
        assert_eq!(m.count_ones(), 70);
    }

    #[test]
    fn set_word_overwrites_and_trims() {
        let mut m = Bitmask::zeros(70);
        m.set_word(0, 0b101);
        assert_eq!(m.iter_ones().collect::<Vec<_>>(), vec![0, 2]);
        m.set_word(0, 0b010);
        assert_eq!(m.iter_ones().collect::<Vec<_>>(), vec![1]);
        // The last word trims bits past len.
        m.set_word(1, !0u64);
        assert_eq!(m.count_ones(), 1 + 6);
        assert_eq!(m.words()[1], 0b11_1111);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_word_out_of_range_panics() {
        Bitmask::zeros(64).set_word(1, 0);
    }

    #[test]
    fn iter_ones_matches_per_bit_scan() {
        for (len, bits) in [
            (1usize, vec![0usize]),
            (64, vec![]),
            (64, vec![0, 63]),
            (65, vec![64]),
            (130, vec![1, 63, 64, 65, 127, 128, 129]),
            (200, vec![199]),
        ] {
            let mut m = Bitmask::zeros(len);
            for &b in &bits {
                m.set(b);
            }
            let naive: Vec<usize> = (0..len).filter(|&i| m.get(i)).collect();
            assert_eq!(m.iter_ones().collect::<Vec<_>>(), naive, "len {len}");
            assert_eq!(naive, bits);
        }
        // Empty and full masks.
        assert_eq!(Bitmask::zeros(777).iter_ones().count(), 0);
        assert!(Bitmask::ones(777).iter_ones().eq(0..777));
        assert_eq!(Bitmask::zeros(0).iter_ones().next(), None);
    }

    #[test]
    fn iter_ones_skips_zero_words_cheaply() {
        // A one-in-a-million mask iterates in a handful of word reads;
        // functionally it must still find exactly the set bit.
        let mut m = Bitmask::zeros(1 << 20);
        m.set(999_999);
        assert_eq!(m.iter_ones().collect::<Vec<_>>(), vec![999_999]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let m = Bitmask::zeros(8);
        let _ = m.get(8);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn and_length_mismatch_panics() {
        let mut a = Bitmask::zeros(8);
        let b = Bitmask::zeros(9);
        a.and_with(&b);
    }
}
