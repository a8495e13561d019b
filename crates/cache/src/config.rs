//! Cache hierarchy configuration (paper Table I).

use crate::LINE_BYTES;
use hipe_sim::Cycle;

/// Configuration of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelConfig {
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Associativity.
    pub ways: usize,
    /// Access latency in CPU cycles.
    pub latency: Cycle,
    /// Number of miss-status holding registers (outstanding misses).
    pub mshrs: usize,
}

impl LevelConfig {
    /// Number of sets implied by capacity, ways and line size.
    pub fn sets(&self) -> usize {
        (self.capacity / (self.ways as u64 * LINE_BYTES)) as usize
    }
}

/// Configuration of the full hierarchy.
///
/// # Example
///
/// ```
/// use hipe_cache::HierarchyConfig;
/// let c = HierarchyConfig::paper();
/// assert_eq!(c.l1.capacity, 32 * 1024);
/// assert_eq!(c.l3.ways, 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 data cache.
    pub l1: LevelConfig,
    /// Private L2.
    pub l2: LevelConfig,
    /// The core's slice of the shared L3.
    pub l3: LevelConfig,
    /// Lines ahead fetched by the L1 stride prefetcher per trigger (0
    /// disables it).
    pub stride_degree: usize,
    /// Lines ahead fetched by the L2 stream prefetcher per miss (0
    /// disables it).
    pub stream_depth: usize,
}

impl HierarchyConfig {
    /// Table I parameters.
    pub fn paper() -> Self {
        HierarchyConfig {
            l1: LevelConfig {
                capacity: 32 * 1024,
                ways: 8,
                latency: 2,
                mshrs: 10,
            },
            l2: LevelConfig {
                capacity: 256 * 1024,
                ways: 8,
                latency: 4,
                mshrs: 20,
            },
            l3: LevelConfig {
                capacity: 2 * 1024 * 1024 + 512 * 1024, // 2.5 MB slice
                ways: 16,
                latency: 6,
                mshrs: 64,
            },
            stride_degree: 4,
            stream_depth: 4,
        }
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_counts() {
        let c = HierarchyConfig::paper();
        assert_eq!(c.l1.sets(), 64);
        assert_eq!(c.l2.sets(), 512);
        assert_eq!(c.l3.sets(), 2560);
    }

    #[test]
    fn latencies_increase_down_the_hierarchy() {
        let c = HierarchyConfig::paper();
        assert!(c.l1.latency < c.l2.latency && c.l2.latency < c.l3.latency);
    }

    #[test]
    fn ablation_disables_prefetch() {
        // Zero degree and depth switch both prefetchers off: a stream
        // the paper's hierarchy prefetches issues no prefetch at all.
        use hipe_hmc::{Hmc, HmcConfig};
        let off = HierarchyConfig {
            stride_degree: 0,
            stream_depth: 0,
            ..HierarchyConfig::paper()
        };
        let prefetches = |cfg| {
            let mut mem = Hmc::new(HmcConfig::paper(), 1 << 20);
            let mut caches = crate::CacheHierarchy::new(cfg);
            let mut t = 0;
            for i in 0..256 {
                t = caches.read(&mut mem, t, i * LINE_BYTES, 64);
            }
            caches.stats().prefetches
        };
        assert!(prefetches(HierarchyConfig::paper()) > 0);
        assert_eq!(prefetches(off), 0);
    }
}
