//! Exact latency samples with nearest-rank percentiles.

use crate::time::Cycle;

/// An exact sample set with nearest-rank percentiles.
///
/// It keeps every observed value, which is what a service report
/// needs for exact p50/p95/p99 tail latencies. Percentiles use the
/// *nearest-rank* definition: for `n` sorted samples, percentile `p`
/// is the value at rank `ceil(p/100 * n)` (1-based), so p100 is the
/// maximum and every returned value is an actually observed sample.
///
/// Percentiles are found by selection, not by sorting: each query
/// partially reorders the samples in O(n) (Hoare's FIND), and
/// [`percentiles`](Self::percentiles) reads several ranks in one pass
/// over successively shrinking suffixes.
///
/// # Example
///
/// ```
/// use hipe_sim::Samples;
/// let mut s = Samples::new();
/// for v in [30, 10, 20, 40] { s.push(v); }
/// assert_eq!(s.percentile(50.0), Some(20));
/// assert_eq!(s.percentiles([95.0, 99.0]), Some([40, 40]));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<Cycle>,
}

impl Samples {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        Samples::default()
    }

    /// Observes one sample.
    pub fn push(&mut self, v: Cycle) {
        self.values.push(v);
    }

    /// Number of samples observed.
    pub fn count(&self) -> u64 {
        self.values.len() as u64
    }

    /// Mean of samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().map(|&v| v as u128).sum::<u128>() as f64 / self.values.len() as f64
        }
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<Cycle> {
        self.values.iter().copied().max()
    }

    /// The nearest-rank `p`-th percentile (`None` when empty).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 100.0`.
    pub fn percentile(&mut self, p: f64) -> Option<Cycle> {
        self.percentiles([p]).map(|[v]| v)
    }

    /// The nearest-rank percentiles `ps`, in order (`None` when empty).
    ///
    /// One selection per entry, each over the suffix that starts at
    /// the previous entry's rank: every sample before that rank is no
    /// larger than every sample from it on, so a later, higher rank
    /// lies in the suffix. Reading p50, p95, p99, p99.9 and p100 thus
    /// costs a few linear passes, not a sort.
    ///
    /// # Panics
    ///
    /// Panics unless every `p` lies in `0.0..=100.0` and `ps` ascends.
    pub fn percentiles<const N: usize>(&mut self, ps: [f64; N]) -> Option<[Cycle; N]> {
        for p in ps {
            assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        }
        assert!(ps.is_sorted(), "percentiles {ps:?} do not ascend");
        if self.values.is_empty() {
            return None;
        }
        let n = self.values.len();
        let mut from = 0;
        Some(ps.map(|p| {
            // Nearest rank: ceil(p/100 * n), clamped to [1, n] so p = 0
            // yields the minimum rather than an invalid rank of zero.
            // Multiply before dividing: rounding p/100.0 first can push
            // an exact boundary (p = 7, n = 100) just above its integer
            // rank, and ceil would then overshoot by one.
            let at = ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n) - 1;
            let (_, &mut v, _) = self.values[from..].select_nth_unstable(at - from);
            from = at;
            v
        }))
    }

    /// Absorbs every sample of `other`, leaving it untouched — the
    /// cross-shard latency merge: each shard accumulates its own
    /// `Samples`, and the service folds them into one distribution
    /// before taking percentiles.
    pub fn merge(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_empty_has_no_percentiles() {
        let mut s = Samples::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.max(), None);
        assert_eq!(s.percentile(50.0), None);
        assert_eq!(s.percentile(99.0), None);
    }

    #[test]
    fn samples_single_value_is_every_percentile() {
        let mut s = Samples::new();
        s.push(42);
        for p in [0.0, 1.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(s.percentile(p), Some(42), "p{p}");
        }
    }

    #[test]
    fn nearest_rank_small_sample_boundaries() {
        // Exhaustive boundary table for n = 2..=5 over sorted samples
        // 10, 20, ..., 10n — nearest rank means rank ceil(p/100 * n).
        // n = 2: p50 -> rank 1, p51 -> rank 2.
        let mut s = Samples::new();
        for v in [20, 10] {
            s.push(v);
        }
        assert_eq!(s.percentile(50.0), Some(10));
        assert_eq!(s.percentile(50.1), Some(20));
        assert_eq!(s.percentile(100.0), Some(20));
        // n = 3: thirds at 33.33… and 66.67…
        let mut s = Samples::new();
        for v in [30, 10, 20] {
            s.push(v);
        }
        assert_eq!(s.percentile(33.3), Some(10));
        assert_eq!(s.percentile(33.4), Some(20));
        assert_eq!(s.percentile(50.0), Some(20));
        assert_eq!(s.percentile(66.6), Some(20));
        assert_eq!(s.percentile(66.7), Some(30));
        // n = 4: quarter boundaries are exact.
        let mut s = Samples::new();
        for v in [40, 20, 30, 10] {
            s.push(v);
        }
        assert_eq!(s.percentile(25.0), Some(10));
        assert_eq!(s.percentile(25.1), Some(20));
        assert_eq!(s.percentile(50.0), Some(20));
        assert_eq!(s.percentile(75.0), Some(30));
        assert_eq!(s.percentile(75.1), Some(40));
        // n = 5: p50 is the true median; p95/p99 are the maximum.
        let mut s = Samples::new();
        for v in [50, 10, 40, 20, 30] {
            s.push(v);
        }
        assert_eq!(s.percentile(0.0), Some(10));
        assert_eq!(s.percentile(20.0), Some(10));
        assert_eq!(s.percentile(20.1), Some(20));
        assert_eq!(s.percentile(50.0), Some(30));
        assert_eq!(s.percentile(80.0), Some(40));
        assert_eq!(s.percentile(80.1), Some(50));
        assert_eq!(s.percentile(95.0), Some(50));
        assert_eq!(s.percentile(99.0), Some(50));
    }

    #[test]
    fn p999_nearest_rank_boundaries() {
        // n = 1000 over 1..=1000: rank ceil(99.9 * 1000 / 100) = 999.
        let mut s = Samples::new();
        for v in (1..=1000).rev() {
            s.push(v);
        }
        assert_eq!(s.percentiles([99.0, 99.9]), Some([990, 999]));
        // n = 1001: rank ceil(99.9 * 1001 / 100) = ceil(999.999) = 1000.
        s.push(1001);
        assert_eq!(s.percentile(99.9), Some(1000));
        // n = 2000: rank ceil(1998.0) = 1998 — exact boundary, no
        // overshoot from the multiply-before-divide order.
        let mut s = Samples::new();
        for v in 1..=2000 {
            s.push(v);
        }
        assert_eq!(s.percentile(99.9), Some(1998));
        // Tiny sample sets clamp to the maximum.
        let mut s = Samples::new();
        s.push(5);
        s.push(9);
        assert_eq!(s.percentile(99.9), Some(9));
    }

    #[test]
    fn merge_equals_concatenation() {
        let mut a = Samples::new();
        let mut b = Samples::new();
        let mut all = Samples::new();
        for v in [50, 10, 40] {
            a.push(v);
            all.push(v);
        }
        for v in [30, 20, 60] {
            b.push(v);
            all.push(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.mean(), all.mean());
        assert_eq!(a.max(), all.max());
        for p in [0.0, 25.0, 50.0, 75.0, 99.0, 99.9, 100.0] {
            assert_eq!(a.percentile(p), all.percentile(p), "p{p}");
        }
        // The source is untouched, and merging it again double-counts.
        assert_eq!(b.count(), 3);
        a.merge(&b);
        assert_eq!(a.count(), 9);
    }

    #[test]
    fn merge_empty_and_into_sorted() {
        let mut a = Samples::new();
        a.push(3);
        a.push(1);
        assert_eq!(a.percentile(50.0), Some(1)); // reorders the samples
        let empty = Samples::new();
        a.merge(&empty);
        assert_eq!(a.count(), 2);
        let mut b = Samples::new();
        b.push(2);
        a.merge(&b); // appends after the reordered samples
        assert_eq!(a.percentile(50.0), Some(2));
        let mut c = Samples::new();
        c.merge(&a);
        assert_eq!(c.count(), 3);
    }

    #[test]
    fn samples_track_mean_max_and_interleave_pushes() {
        let mut s = Samples::new();
        for v in [100, 300] {
            s.push(v);
        }
        assert_eq!(s.percentile(50.0), Some(100));
        // Pushing after a percentile query selects anew.
        s.push(200);
        assert_eq!(s.percentile(50.0), Some(200));
        assert_eq!(s.mean(), 200.0);
        assert_eq!(s.max(), Some(300));
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn percentiles_are_monotone_in_p() {
        let mut s = Samples::new();
        let mut x = 7u64;
        for _ in 0..137 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            s.push(x >> 40);
        }
        let mut prev = 0;
        for p in 0..=100 {
            let v = s.percentile(p as f64).unwrap();
            assert!(v >= prev, "p{p}: {v} < {prev}");
            prev = v;
        }
        assert_eq!(s.percentile(100.0), s.max());
    }

    #[test]
    fn integer_percentiles_of_100_samples_hit_exact_ranks() {
        // Exact nearest-rank boundaries: with n = 100, percentile p
        // must return the p-th smallest value for every integer p.
        // Dividing p by 100.0 before multiplying rounds some
        // boundaries (p = 7) just past their integer rank, and ceil
        // then overshoots by one.
        let mut s = Samples::new();
        for v in 1..=100 {
            s.push(v);
        }
        for p in 1..=100u64 {
            assert_eq!(s.percentile(p as f64), Some(p), "p{p}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn percentile_above_100_panics() {
        let mut s = Samples::new();
        s.push(1);
        let _ = s.percentile(100.1);
    }
}
