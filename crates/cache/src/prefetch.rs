//! Hardware prefetchers.

use crate::LINE_BYTES;

/// The L1 stride prefetcher of Table I.
///
/// Detects a repeated line-granular stride in the demand stream and,
/// once confident, predicts the next `degree` strided lines.
///
/// # Example
///
/// ```
/// use hipe_cache::StridePrefetcher;
/// let mut p = StridePrefetcher::new(2);
/// let mut pred = Vec::new();
/// p.observe_into(0x000, &mut pred); // first touch
/// p.observe_into(0x040, &mut pred); // stride learned
/// assert!(pred.is_empty());
/// p.observe_into(0x080, &mut pred); // stride confirmed
/// assert_eq!(pred, vec![0x0C0, 0x100]);
/// ```
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    degree: usize,
    last_line: Option<u64>,
    stride: i64,
    confident: bool,
}

impl StridePrefetcher {
    /// Creates a prefetcher issuing up to `degree` predictions per
    /// trigger. A degree of 0 disables it.
    pub fn new(degree: usize) -> Self {
        StridePrefetcher {
            degree,
            last_line: None,
            stride: 0,
            confident: false,
        }
    }

    /// Observes a demand access to the line containing `addr`; appends
    /// the line addresses to prefetch to a caller-owned (reused)
    /// buffer.
    pub fn observe_into(&mut self, addr: u64, out: &mut Vec<u64>) {
        let line = addr / LINE_BYTES * LINE_BYTES;
        if self.degree == 0 {
            return;
        }
        if let Some(prev) = self.last_line {
            if line == prev {
                return; // same line: no new information
            }
            let stride = line as i64 - prev as i64;
            if stride == self.stride {
                self.confident = true;
            } else {
                self.stride = stride;
                self.confident = false;
            }
            if self.confident {
                for d in 1..=self.degree as i64 {
                    let target = line as i64 + self.stride * d;
                    if target >= 0 {
                        out.push(target as u64);
                    }
                }
            }
        }
        self.last_line = Some(line);
    }
}

/// The L2 stream prefetcher of Table I.
///
/// On a miss it fetches the next `depth` sequential lines — the classic
/// next-N-lines streamer, which is what makes streaming scans on the
/// x86 baseline bandwidth-bound rather than latency-bound.
///
/// # Example
///
/// ```
/// use hipe_cache::StreamPrefetcher;
/// let p = StreamPrefetcher::new(3);
/// let mut lines = Vec::new();
/// p.on_miss_into(0x1000, &mut lines);
/// assert_eq!(lines, vec![0x1040, 0x1080, 0x10C0]);
/// ```
#[derive(Debug, Clone)]
pub struct StreamPrefetcher {
    depth: usize,
}

impl StreamPrefetcher {
    /// Creates a streamer fetching `depth` lines ahead (0 disables).
    pub fn new(depth: usize) -> Self {
        StreamPrefetcher { depth }
    }

    /// Appends the lines to prefetch after a miss on the line
    /// containing `addr` to a caller-owned (reused) buffer.
    pub fn on_miss_into(&self, addr: u64, out: &mut Vec<u64>) {
        let line = addr / LINE_BYTES * LINE_BYTES;
        out.extend((1..=self.depth as u64).map(|d| line + d * LINE_BYTES));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `observe_into` on a fresh buffer.
    fn observe(p: &mut StridePrefetcher, addr: u64) -> Vec<u64> {
        let mut out = Vec::new();
        p.observe_into(addr, &mut out);
        out
    }

    #[test]
    fn stride_needs_two_confirmations() {
        let mut p = StridePrefetcher::new(1);
        assert!(observe(&mut p, 0).is_empty());
        assert!(observe(&mut p, 64).is_empty());
        assert_eq!(observe(&mut p, 128), vec![192]);
    }

    #[test]
    fn stride_relearns_after_change() {
        let mut p = StridePrefetcher::new(1);
        observe(&mut p, 0);
        observe(&mut p, 64);
        observe(&mut p, 128); // confident at +64
        assert!(observe(&mut p, 1024).is_empty()); // stride broken
        assert!(observe(&mut p, 2048).is_empty()); // new stride observed once
        assert_eq!(observe(&mut p, 3072), vec![4096]); // confident again
    }

    #[test]
    fn negative_strides_supported() {
        let mut p = StridePrefetcher::new(1);
        observe(&mut p, 4096);
        observe(&mut p, 4032);
        assert_eq!(observe(&mut p, 3968), vec![3904]);
    }

    #[test]
    fn repeated_same_line_is_ignored() {
        let mut p = StridePrefetcher::new(2);
        observe(&mut p, 0);
        observe(&mut p, 64);
        observe(&mut p, 128);
        assert!(observe(&mut p, 130).is_empty()); // same line as 128
        assert_eq!(observe(&mut p, 192), vec![256, 320]);
    }

    #[test]
    fn disabled_prefetchers_return_nothing() {
        let mut s = StridePrefetcher::new(0);
        observe(&mut s, 0);
        observe(&mut s, 64);
        assert!(observe(&mut s, 128).is_empty());
        let mut lines = Vec::new();
        StreamPrefetcher::new(0).on_miss_into(0, &mut lines);
        assert!(lines.is_empty());
    }
}
