//! Model words stored at the width their values need.
//!
//! The simulated machines address, move and time 8 B words. A host
//! buffer that no run writes, such as a table's columns, can keep each
//! word in the narrowest integer type its values fit: [`WordVec`] owns
//! one such buffer, [`WordArea`] places buffers back to back in one
//! word-address space, and [`Words`] borrows a run of words of any
//! width and widens each to `i64` on read.
//!
//! A [`Words`] view chooses its width once per call: the bulk readers
//! ([`widen_into`](Words::widen_into) and
//! [`chunk_extremes`](Words::chunk_extremes)) run one loop over the
//! native type, and only [`get`](Words::get) and [`iter`](Words::iter)
//! match the width per word.

use std::ops::{Bound, RangeBounds};

/// A borrowed run of consecutive model words, each stored at one host
/// width and widened to `i64` on read. Two views are equal when they
/// hold the same widened values, whatever their widths.
///
/// # Example
///
/// ```
/// use hipe_sim::Words;
/// let narrow = Words::U8(&[3, 1, 2]);
/// assert_eq!(narrow.get(0), 3);
/// assert_eq!(narrow, Words::I64(&[3, 1, 2]));
/// let mut wide = [0; 2];
/// narrow.slice(1..).widen_into(&mut wide);
/// assert_eq!(wide, [1, 2]);
/// ```
#[derive(Debug, Clone, Copy)]
pub enum Words<'a> {
    /// Words stored as `u8`.
    U8(&'a [u8]),
    /// Words stored as `u16`.
    U16(&'a [u16]),
    /// Words stored as `i32`.
    I32(&'a [i32]),
    /// Words stored at their full 8 B.
    I64(&'a [i64]),
}

/// Applies `$body` to the view's slice, bound as `$s`, in whichever
/// width it is stored: one match per call, one monomorphic body per
/// width.
macro_rules! each_width {
    ($words:expr, $s:ident => $body:expr) => {
        match $words {
            Words::U8($s) => $body,
            Words::U16($s) => $body,
            Words::I32($s) => $body,
            Words::I64($s) => $body,
        }
    };
}

/// `v` as an `i64`: the widening every width shares (the identity on
/// the full width).
fn wide<T: Into<i64>>(v: T) -> i64 {
    v.into()
}

impl<'a> Words<'a> {
    /// Number of words.
    pub fn len(&self) -> usize {
        each_width!(*self, s => s.len())
    }

    /// Whether the view holds no word.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Word `i`, widened to `i64`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn get(&self, i: usize) -> i64 {
        each_width!(*self, s => wide(s[i]))
    }

    /// The words in `range`, at the same width.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Words<'a> {
        let r: (Bound<usize>, Bound<usize>) =
            (range.start_bound().cloned(), range.end_bound().cloned());
        match *self {
            Words::U8(s) => Words::U8(&s[r]),
            Words::U16(s) => Words::U16(&s[r]),
            Words::I32(s) => Words::I32(&s[r]),
            Words::I64(s) => Words::I64(&s[r]),
        }
    }

    /// The words in address order, widened to `i64`. This matches the
    /// width once per word; a hot loop reads through
    /// [`widen_into`](Self::widen_into) instead.
    pub fn iter(&self) -> impl Iterator<Item = i64> + 'a {
        let words = *self;
        (0..words.len()).map(move |i| words.get(i))
    }

    /// Widens every word into `out`, in address order.
    ///
    /// # Panics
    ///
    /// Panics unless `out` holds exactly [`len`](Self::len) words.
    pub fn widen_into(&self, out: &mut [i64]) {
        assert_eq!(
            out.len(),
            self.len(),
            "widening into a buffer of another length"
        );
        each_width!(*self, s => {
            for (o, &v) in out.iter_mut().zip(s) {
                *o = wide(v);
            }
        })
    }

    /// Calls `f(i, min, max)` for each `chunk`-word run `i` of the view
    /// in order (the last one may be shorter), with the run's smallest
    /// and largest word. Each run's extremes are taken in the stored
    /// type and widened once.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    pub fn chunk_extremes(&self, chunk: usize, mut f: impl FnMut(usize, i64, i64)) {
        assert!(chunk > 0, "zero-word chunks");
        each_width!(*self, s => {
            for (i, run) in s.chunks(chunk).enumerate() {
                let min = run.iter().copied().min().expect("chunks are not empty");
                let max = run.iter().copied().max().expect("chunks are not empty");
                f(i, wide(min), wide(max));
            }
        })
    }
}

impl PartialEq for Words<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for Words<'_> {}

/// An owned buffer of model words, stored at one host width (see
/// [`Words`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WordVec {
    /// Words stored as `u8`.
    U8(Vec<u8>),
    /// Words stored as `u16`.
    U16(Vec<u16>),
    /// Words stored as `i32`.
    I32(Vec<i32>),
}

impl WordVec {
    /// A view of every word.
    pub fn words(&self) -> Words<'_> {
        match self {
            WordVec::U8(v) => Words::U8(v),
            WordVec::U16(v) => Words::U16(v),
            WordVec::I32(v) => Words::I32(v),
        }
    }

    /// Bytes the words take on the host.
    fn host_bytes(&self) -> usize {
        each_width!(self.words(), s => std::mem::size_of_val(s))
    }
}

/// A read-only word-address space made of [`WordVec`] buffers placed
/// back to back: buffer `k` starts at the word where buffer `k - 1`
/// ends. Each buffer keeps its own width, so a read returns words of
/// one buffer only.
///
/// # Example
///
/// ```
/// use hipe_sim::{WordArea, WordVec, Words};
/// let area = WordArea::new(vec![WordVec::U8(vec![7, 8]), WordVec::I32(vec![-1, 300])]);
/// assert_eq!(area.len(), 4);
/// // From word 1 to the end of the first buffer; from word 2 on, the second.
/// assert_eq!(area.words_from(1), Some(Words::U8(&[8])));
/// assert_eq!(area.words_from(2), Some(Words::I32(&[-1, 300])));
/// assert_eq!(area.words_from(4), None);
/// assert_eq!(area.host_bytes(), 2 + 8);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WordArea {
    buffers: Vec<WordVec>,
    /// Words in every buffer together.
    len: usize,
}

impl WordArea {
    /// An area of `buffers`, in address order.
    pub fn new(buffers: Vec<WordVec>) -> Self {
        let len = buffers.iter().map(|b| b.words().len()).sum();
        WordArea { buffers, len }
    }

    /// The buffers, in address order.
    pub fn buffers(&self) -> &[WordVec] {
        &self.buffers
    }

    /// Number of words in every buffer together.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the area holds no word.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes the words take on the host.
    pub fn host_bytes(&self) -> usize {
        self.buffers.iter().map(WordVec::host_bytes).sum()
    }

    /// The words from word `w` to the end of the buffer that holds it,
    /// or `None` if `w` lies past the area.
    pub fn words_from(&self, mut w: usize) -> Option<Words<'_>> {
        for b in &self.buffers {
            let words = b.words();
            if w < words.len() {
                return Some(words.slice(w..));
            }
            w -= words.len();
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn views() -> [Words<'static>; 4] {
        [
            Words::U8(&[0, 255, 7, 1, 9]),
            Words::U16(&[0, 65535, 7, 1, 9]),
            Words::I32(&[i32::MIN, i32::MAX, 7, 1, 9]),
            Words::I64(&[i64::MIN, i64::MAX, 7, 1, 9]),
        ]
    }

    #[test]
    fn every_width_widens_the_same_way() {
        for w in views() {
            let mut out = [0; 5];
            w.widen_into(&mut out);
            assert_eq!(out.to_vec(), w.iter().collect::<Vec<_>>(), "{w:?}");
            assert_eq!((0..5).map(|i| w.get(i)).collect::<Vec<_>>(), out);
            assert_eq!((w.len(), w.is_empty()), (5, false));
            assert_eq!(w.slice(2..), Words::I64(&[7, 1, 9]), "{w:?}");
            assert!(w.slice(5..).is_empty());
        }
        assert_eq!(Words::U8(&[255]).get(0), 255);
        assert_eq!(Words::U16(&[65535]).get(0), 65535);
    }

    #[test]
    fn chunk_extremes_cover_every_run_in_order() {
        for w in views() {
            let mut seen = Vec::new();
            w.chunk_extremes(2, |i, min, max| seen.push((i, min, max)));
            let (a, b) = (w.get(0), w.get(1));
            assert_eq!(
                seen,
                [(0, a.min(b), a.max(b)), (1, 1, 7), (2, 9, 9)],
                "{w:?}"
            );
        }
        Words::U8(&[]).chunk_extremes(4, |_, _, _| panic!("an empty view has no chunk"));
    }

    #[test]
    fn views_compare_by_widened_value() {
        assert_eq!(Words::U8(&[1, 2]), Words::I32(&[1, 2]));
        assert_ne!(Words::U8(&[1, 2]), Words::U8(&[1, 3]));
        assert_ne!(Words::U16(&[1, 2]), Words::U16(&[1]));
    }

    #[test]
    fn an_area_places_buffers_back_to_back() {
        let area = WordArea::new(vec![
            WordVec::U16(vec![1, 2, 3]),
            WordVec::U8(vec![4]),
            WordVec::U8(Vec::new()),
            WordVec::I32(vec![5, 6]),
        ]);
        assert_eq!((area.len(), area.host_bytes()), (6, 6 + 1 + 8));
        let reads: Vec<Vec<i64>> = (0..6)
            .map(|w| area.words_from(w).unwrap().iter().collect())
            .collect();
        assert_eq!(
            reads,
            [
                vec![1, 2, 3],
                vec![2, 3],
                vec![3],
                vec![4],
                vec![5, 6],
                vec![6]
            ]
        );
        assert_eq!(area.words_from(6), None);
        assert!(WordArea::default().is_empty());
        assert_eq!(WordArea::default().words_from(0), None);
    }

    #[test]
    #[should_panic(expected = "another length")]
    fn widening_into_a_short_buffer_panics() {
        Words::U8(&[1, 2]).widen_into(&mut [0; 1]);
    }
}
