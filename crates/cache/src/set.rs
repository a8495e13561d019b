//! Set-associative tag array with LRU replacement.

use crate::LINE_BYTES;
use hipe_sim::Divisor;
use std::ops::Range;

/// A timing-model tag array: tracks presence and dirtiness of lines,
/// not their data (data lives in the HMC's functional image).
///
/// All sets live in one flat vector of `sets × ways` tags. A tag is the
/// line address with the dirty flag in bit 0 (line addresses are
/// line-aligned, so the bit is free); each set's slice is in MRU order,
/// with its valid tags first and empty slots after them.
///
/// # Example
///
/// ```
/// use hipe_cache::SetArray;
/// let mut a = SetArray::new(2, 2); // 2 sets x 2 ways
/// assert!(!a.probe(0x000, false));
/// a.fill(0x000);
/// assert!(a.probe(0x000, false));
/// ```
#[derive(Debug, Clone)]
pub struct SetArray {
    /// Set `s` holds tags `s * ways .. (s + 1) * ways`.
    tags: Vec<u64>,
    sets: Divisor,
    ways: usize,
}

/// An invalid way. Its address part is not line-aligned, so it never
/// matches a line.
const EMPTY: u64 = u64::MAX;

/// The dirty flag of a tag.
const DIRTY: u64 = 1;

impl SetArray {
    /// Creates an empty array of `sets` sets with `ways` ways each.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero, or `sets` is 2³² or more.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "cache geometry must be non-zero");
        SetArray {
            tags: vec![EMPTY; sets * ways],
            sets: Divisor::new(sets as u64),
            ways,
        }
    }

    /// Where the tags of the set `line_addr` maps to sit, MRU first.
    #[inline]
    fn set_of(&self, line_addr: u64) -> Range<usize> {
        debug_assert!(
            line_addr.is_multiple_of(LINE_BYTES),
            "unaligned line {line_addr:#x}"
        );
        let first = self.sets.remainder(line_addr / LINE_BYTES) as usize * self.ways;
        first..first + self.ways
    }

    #[inline]
    fn set_mut(&mut self, line_addr: u64) -> &mut [u64] {
        let set = self.set_of(line_addr);
        &mut self.tags[set]
    }

    /// Looks up `line_addr`; on hit moves it to MRU, marks dirty if
    /// `write`, and returns `true`.
    ///
    /// `line_addr` must be line-aligned, here and in every other
    /// method.
    pub fn probe(&mut self, line_addr: u64, write: bool) -> bool {
        let ways = self.set_mut(line_addr);
        match ways.iter().position(|&t| t & !DIRTY == line_addr) {
            Some(pos) => {
                let tag = ways[pos] | write as u64;
                ways[..=pos].rotate_right(1);
                ways[0] = tag;
                true
            }
            None => false,
        }
    }

    /// Looks up without disturbing LRU or dirtiness (diagnostics).
    pub fn contains(&self, line_addr: u64) -> bool {
        self.tags[self.set_of(line_addr)]
            .iter()
            .any(|&t| t & !DIRTY == line_addr)
    }

    /// Inserts `line_addr` as MRU and clean; returns the evicted
    /// `(line, dirty)` victim, if the set was full.
    pub fn fill(&mut self, line_addr: u64) -> Option<(u64, bool)> {
        let ways = self.set_mut(line_addr);
        debug_assert!(!ways.iter().any(|&t| t & !DIRTY == line_addr));
        // The LRU way leaves the set: a victim if valid, otherwise the
        // first empty slot, which the valid tags shift into.
        let lru = ways[ways.len() - 1];
        ways.rotate_right(1);
        ways[0] = line_addr;
        (lru != EMPTY).then_some((lru & !DIRTY, lru & DIRTY != 0))
    }

    /// Marks a present line dirty (no-op when absent).
    pub fn mark_dirty(&mut self, line_addr: u64) {
        if let Some(t) = self
            .set_mut(line_addr)
            .iter_mut()
            .find(|t| **t & !DIRTY == line_addr)
        {
            *t |= DIRTY;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recent() {
        let mut a = SetArray::new(1, 2);
        a.fill(0);
        a.fill(64);
        a.probe(0, false); // 0 becomes MRU
        let victim = a.fill(128);
        assert_eq!(victim, Some((64, false)));
        assert!(a.contains(0) && a.contains(128) && !a.contains(64));
    }

    #[test]
    fn dirty_propagates_to_eviction() {
        let mut a = SetArray::new(1, 1);
        a.fill(0);
        a.probe(0, true);
        let victim = a.fill(64);
        assert_eq!(victim, Some((0, true)));
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut a = SetArray::new(2, 1);
        assert!(a.fill(0).is_none());
        assert!(a.fill(64).is_none()); // different set
        assert!(a.fill(128).is_some()); // back to set 0
    }

    #[test]
    fn mark_dirty_on_absent_is_noop() {
        let mut a = SetArray::new(2, 1);
        a.mark_dirty(0);
        assert!(!a.contains(0));
        // The set is still empty: the first fill evicts nothing.
        assert_eq!(a.fill(0), None);
        assert_eq!(a.fill(128), Some((0, false)));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_geometry_panics() {
        let _ = SetArray::new(0, 4);
    }
}
