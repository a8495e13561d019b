//! Three-level cache hierarchy with MSHRs and prefetchers.
//!
//! Rebuilds the processor-side memory hierarchy of the paper's Table I:
//!
//! * **L1** 32 KB, 8-way, 2-cycle, stride prefetcher, 10 MSHRs;
//! * **L2** 256 KB, 8-way, 4-cycle, stream prefetcher, 20 MSHRs;
//! * **L3** one 2.5 MB bank (the core's slice of the 40 MB shared
//!   cache), 16-way, 6-cycle, 64 MSHRs;
//! * 64 B lines, LRU replacement, write-allocate with write-back.
//!
//! Misses are filled from the HMC over its serial links. Coherence
//! (MOESI in the paper) is not modelled: the evaluated workload is a
//! single-threaded scan, so no coherence traffic would be generated.
//!
//! # Example
//!
//! ```
//! use hipe_cache::{CacheHierarchy, HierarchyConfig};
//! use hipe_hmc::{Hmc, HmcConfig};
//!
//! let mut mem = Hmc::new(HmcConfig::paper(), 1 << 16);
//! let mut caches = CacheHierarchy::new(HierarchyConfig::paper());
//! let cold = caches.read(&mut mem, 0, 0x40, 8);
//! let warm = caches.read(&mut mem, cold, 0x40, 8);
//! assert!(warm - cold <= caches.config().l1.latency);
//! ```

mod config;
mod hierarchy;
mod prefetch;
mod set;

pub use config::{HierarchyConfig, LevelConfig};
pub use hierarchy::{CacheHierarchy, CacheStats};
pub use prefetch::{StreamPrefetcher, StridePrefetcher};
pub use set::SetArray;

/// Cache line size in bytes (Table I).
pub const LINE_BYTES: u64 = 64;
