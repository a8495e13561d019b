//! The assembled three-level hierarchy.

use crate::config::HierarchyConfig;
use crate::prefetch::{StreamPrefetcher, StridePrefetcher};
use crate::set::SetArray;
use crate::LINE_BYTES;
use hipe_hmc::{AccessKind, Hmc};
use hipe_sim::{Cycle, Window};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Fibonacci-multiply hasher for line-address keys.
///
/// The `pending` fill maps are probed up to twice per demand miss on
/// the hot path; they are only ever accessed by key (never iterated),
/// so a fast non-sip hash changes no observable behavior.
#[derive(Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("line addresses hash as u64");
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type LineMap = HashMap<u64, Cycle, BuildHasherDefault<LineHasher>>;

/// Hit/miss counters per level plus prefetch activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// L1 hits (including hits on completed prefetches).
    pub l1_hits: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// L3 hits.
    pub l3_hits: u64,
    /// L3 misses (DRAM fills).
    pub l3_misses: u64,
    /// Prefetch requests issued to memory.
    pub prefetches: u64,
    /// Demand accesses that found an in-flight or completed prefetch.
    pub prefetch_hits: u64,
    /// Dirty lines written back to memory.
    pub writebacks: u64,
    /// Total demand accesses (line granularity).
    pub accesses: u64,
}

impl CacheStats {
    /// Total lookups across all levels (for the energy model).
    pub fn total_lookups(&self) -> u64 {
        self.accesses + self.l1_misses + self.l2_misses
    }
}

/// One level's timing state.
#[derive(Debug)]
struct Level {
    tags: SetArray,
    mshr: Window,
    latency: Cycle,
}

impl Level {
    fn new(cfg: &crate::config::LevelConfig) -> Self {
        Level {
            tags: SetArray::new(cfg.sets(), cfg.ways),
            mshr: Window::new(cfg.mshrs),
            latency: cfg.latency,
        }
    }
}

/// The processor-side cache hierarchy.
///
/// All methods take the [`Hmc`] explicitly so that a single cube can
/// back both the cache hierarchy and the logic-layer engines in the
/// co-simulated architectures.
///
/// # Example
///
/// ```
/// use hipe_cache::{CacheHierarchy, HierarchyConfig};
/// use hipe_hmc::{Hmc, HmcConfig};
/// let mut mem = Hmc::new(HmcConfig::paper(), 1 << 16);
/// let mut c = CacheHierarchy::new(HierarchyConfig::paper());
/// let done = c.write(&mut mem, 0, 0x100, 8);
/// assert!(done > 0);
/// assert_eq!(c.stats().accesses, 1);
/// ```
#[derive(Debug)]
pub struct CacheHierarchy {
    cfg: HierarchyConfig,
    l1: Level,
    l2: Level,
    l3: Level,
    /// Lines with an in-flight stride prefetch into L1, keyed by line
    /// address, valued with the cycle the data arrives. Only a demand
    /// for the line removes it.
    l1_pending: LineMap,
    /// Lines with an in-flight stream prefetch into L2, likewise. (No
    /// prefetcher fills L3 ahead of a demand, so it has no such map.)
    l2_pending: LineMap,
    stride: StridePrefetcher,
    stream: StreamPrefetcher,
    stats: CacheStats,
    /// Line whose L2 miss should trigger the stream prefetcher once the
    /// demand access has been issued.
    pending_stream_trigger: Option<u64>,
    /// Reused prediction buffer (the prefetchers fire on nearly every
    /// demand access of a streaming scan; allocating per access is
    /// measurable).
    predictions: Vec<u64>,
    /// The previous access's stride predictions, those it left in
    /// `l1_pending`. They stay there until a demand takes them, so the
    /// next access skips them without a probe.
    issued: Vec<u64>,
}

impl CacheHierarchy {
    /// Creates a cold hierarchy.
    pub fn new(cfg: HierarchyConfig) -> Self {
        CacheHierarchy {
            l1: Level::new(&cfg.l1),
            l2: Level::new(&cfg.l2),
            l3: Level::new(&cfg.l3),
            l1_pending: LineMap::default(),
            l2_pending: LineMap::default(),
            stride: StridePrefetcher::new(cfg.stride_degree),
            stream: StreamPrefetcher::new(cfg.stream_depth),
            stats: CacheStats::default(),
            pending_stream_trigger: None,
            predictions: Vec::new(),
            issued: Vec::new(),
            cfg,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Activity counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Performs a demand read of `bytes` at `addr`; returns the cycle
    /// at which the data is available to the core.
    pub fn read(&mut self, mem: &mut Hmc, cycle: Cycle, addr: u64, bytes: u64) -> Cycle {
        self.access(mem, cycle, addr, bytes, false)
    }

    /// Performs a demand write of `bytes` at `addr` (write-allocate,
    /// write-back); returns the cycle at which the store is complete
    /// from the core's perspective.
    pub fn write(&mut self, mem: &mut Hmc, cycle: Cycle, addr: u64, bytes: u64) -> Cycle {
        self.access(mem, cycle, addr, bytes, true)
    }

    fn access(&mut self, mem: &mut Hmc, cycle: Cycle, addr: u64, bytes: u64, write: bool) -> Cycle {
        debug_assert!(bytes > 0);
        let first = addr / LINE_BYTES;
        let last = (addr + bytes - 1) / LINE_BYTES;
        let mut done = cycle;
        for line in first..=last {
            let d = self.access_line(mem, cycle, line * LINE_BYTES, write);
            done = done.max(d);
        }
        done
    }

    fn access_line(&mut self, mem: &mut Hmc, cycle: Cycle, line: u64, write: bool) -> Cycle {
        self.stats.accesses += 1;
        let done = self.demand_line(mem, cycle, line, write);
        // Prefetches are issued after the demand so they never delay it
        // (hardware gives demands priority over prefetches).
        let mut predictions = std::mem::take(&mut self.predictions);
        predictions.clear();
        self.stride.observe_into(line, &mut predictions);
        // A line the previous access left pending is pending still,
        // unless this demand took it, so `prefetch_into_l1` would return
        // at once. Lines it found in the L1 tags are probed again: a fill
        // may have evicted them since. `retain` visits the predictions
        // in order, so prefetches issue in order, and keeps the pending
        // ones for the next access.
        predictions.retain(|&p| {
            (p != line && self.issued.contains(&p)) || self.prefetch_into_l1(mem, cycle, p)
        });
        std::mem::swap(&mut predictions, &mut self.issued);
        if let Some(miss_line) = self.pending_stream_trigger.take() {
            predictions.clear();
            self.stream.on_miss_into(miss_line, &mut predictions);
            for &p in &predictions {
                self.prefetch_into_l2(mem, cycle, p);
            }
        }
        self.predictions = predictions;
        done
    }

    fn demand_line(&mut self, mem: &mut Hmc, cycle: Cycle, line: u64, write: bool) -> Cycle {
        let t1 = cycle + self.l1.latency;
        if self.l1.tags.probe(line, write) {
            self.stats.l1_hits += 1;
            return t1;
        }
        // In-flight prefetch into L1?
        if let Some(ready) = self.l1_pending.remove(&line) {
            self.stats.l1_hits += 1;
            self.stats.prefetch_hits += 1;
            self.fill(mem, 1, line, write, ready);
            return t1.max(ready);
        }
        self.stats.l1_misses += 1;
        let adm1 = self.l1.mshr.admit(t1);

        let t2 = adm1 + self.l2.latency;
        if self.l2.tags.probe(line, false) {
            self.stats.l2_hits += 1;
            self.fill(mem, 1, line, write, t2);
            self.l1.mshr.complete(t2);
            return t2;
        }
        if let Some(ready) = self.l2_pending.remove(&line) {
            self.stats.l2_hits += 1;
            self.stats.prefetch_hits += 1;
            let done = t2.max(ready);
            self.fill(mem, 1, line, write, done);
            self.l1.mshr.complete(done);
            return done;
        }
        self.stats.l2_misses += 1;
        let adm2 = self.l2.mshr.admit(t2);
        // The L2 stream prefetcher triggers on this miss; remember the
        // trigger so the prefetches go out after the demand is served.
        self.pending_stream_trigger = Some(line);

        let t3 = adm2 + self.l3.latency;
        if self.l3.tags.probe(line, false) {
            self.stats.l3_hits += 1;
            self.fill(mem, 2, line, write, t3);
            self.l2.mshr.complete(t3);
            self.l1.mshr.complete(t3);
            return t3;
        }
        self.stats.l3_misses += 1;
        let adm3 = self.l3.mshr.admit(t3);
        let done = mem
            .access(adm3, line, LINE_BYTES, AccessKind::Read)
            .complete;
        self.fill(mem, 3, line, write, done);
        self.l3.mshr.complete(done);
        self.l2.mshr.complete(done);
        self.l1.mshr.complete(done);
        done
    }

    /// Installs `line` into the top `depth` levels, writing back dirty
    /// victims. Every caller has just missed `line` in each of them.
    fn fill(&mut self, mem: &mut Hmc, depth: usize, line: u64, write: bool, cycle: Cycle) {
        let levels: [&mut Level; 3] = [&mut self.l1, &mut self.l2, &mut self.l3];
        for level in levels.into_iter().take(depth) {
            if let Some((victim, dirty)) = level.tags.fill(line) {
                if dirty {
                    // Fire-and-forget write-back.
                    self.stats.writebacks += 1;
                    mem.access(cycle, victim, LINE_BYTES, AccessKind::Write);
                }
            }
        }
        if write {
            self.l1.tags.mark_dirty(line);
        }
    }

    /// Prefetches `line` into L1 unless it is there or on its way;
    /// returns whether it is on its way (in `l1_pending`) afterwards.
    fn prefetch_into_l1(&mut self, mem: &mut Hmc, cycle: Cycle, line: u64) -> bool {
        if self.l1.tags.contains(line) {
            return false;
        }
        if self.l1_pending.contains_key(&line) {
            return true;
        }
        // A prefetch consumes an L1 MSHR and walks the lower levels.
        let adm1 = self.l1.mshr.admit(cycle + self.l1.latency);
        let ready = self.fetch_below_l1(mem, adm1, line);
        self.l1.mshr.complete(ready);
        self.l1_pending.insert(line, ready);
        self.stats.prefetches += 1;
        true
    }

    fn fetch_below_l1(&mut self, mem: &mut Hmc, cycle: Cycle, line: u64) -> Cycle {
        let t2 = cycle + self.l2.latency;
        if self.l2.tags.probe(line, false) {
            return t2;
        }
        if let Some(&ready) = self.l2_pending.get(&line) {
            return t2.max(ready);
        }
        let adm2 = self.l2.mshr.admit(t2);
        let t3 = adm2 + self.l3.latency;
        let ready = if self.l3.tags.probe(line, false) {
            t3
        } else {
            let adm3 = self.l3.mshr.admit(t3);
            let done = mem
                .access(adm3, line, LINE_BYTES, AccessKind::Read)
                .complete;
            self.l3.mshr.complete(done);
            if let Some((victim, dirty)) = self.l3.tags.fill(line) {
                if dirty {
                    self.stats.writebacks += 1;
                    mem.access(done, victim, LINE_BYTES, AccessKind::Write);
                }
            }
            done
        };
        self.l2.mshr.complete(ready);
        ready
    }

    fn prefetch_into_l2(&mut self, mem: &mut Hmc, cycle: Cycle, line: u64) {
        if self.l2.tags.contains(line) || self.l2_pending.contains_key(&line) {
            return;
        }
        let adm2 = self.l2.mshr.admit(cycle + self.l2.latency);
        let t3 = adm2 + self.l3.latency;
        let ready = if self.l3.tags.probe(line, false) {
            t3
        } else {
            let adm3 = self.l3.mshr.admit(t3);
            let done = mem
                .access(adm3, line, LINE_BYTES, AccessKind::Read)
                .complete;
            self.l3.mshr.complete(done);
            if let Some((victim, dirty)) = self.l3.tags.fill(line) {
                if dirty {
                    self.stats.writebacks += 1;
                    mem.access(done, victim, LINE_BYTES, AccessKind::Write);
                }
            }
            done
        };
        self.l2.mshr.complete(ready);
        self.l2_pending.insert(line, ready);
        self.stats.prefetches += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipe_hmc::HmcConfig;

    /// The paper's hierarchy with both prefetchers off.
    fn without_prefetchers() -> CacheHierarchy {
        CacheHierarchy::new(HierarchyConfig {
            stride_degree: 0,
            stream_depth: 0,
            ..HierarchyConfig::paper()
        })
    }

    fn setup() -> (Hmc, CacheHierarchy) {
        (
            Hmc::new(HmcConfig::paper(), 1 << 22),
            CacheHierarchy::new(HierarchyConfig::paper()),
        )
    }

    #[test]
    fn cold_miss_goes_to_memory() {
        let (mut mem, mut c) = setup();
        let done = c.read(&mut mem, 0, 0, 8);
        assert!(done > 100, "cold read {done}");
        assert_eq!(c.stats().l3_misses, 1);
        // The demand fill plus any stream prefetches it triggered.
        assert!(mem.stats().activations >= 1);
    }

    #[test]
    fn second_access_hits_l1() {
        let (mut mem, mut c) = setup();
        let t = c.read(&mut mem, 0, 0, 8);
        let warm = c.read(&mut mem, t, 0, 8);
        assert_eq!(warm - t, c.config().l1.latency);
        assert_eq!(c.stats().l1_hits, 1);
    }

    #[test]
    fn access_spanning_two_lines_touches_both() {
        let (mut mem, mut c) = setup();
        c.read(&mut mem, 0, 60, 8);
        assert_eq!(c.stats().accesses, 2);
    }

    #[test]
    fn streaming_scan_mostly_prefetch_hits() {
        let (mut mem, mut c) = setup();
        let mut t = 0;
        for i in 0..512u64 {
            t = c.read(&mut mem, t, i * 64, 64);
        }
        let s = c.stats();
        assert!(s.prefetches > 100, "prefetches {}", s.prefetches);
        assert!(
            s.prefetch_hits as f64 > 0.5 * 512.0,
            "prefetch hits {}",
            s.prefetch_hits
        );
    }

    #[test]
    fn prefetching_beats_no_prefetching_on_streams() {
        let (mut mem_a, mut with) = setup();
        let mut mem_b = Hmc::new(HmcConfig::paper(), 1 << 22);
        let mut without = without_prefetchers();
        let mut ta = 0;
        let mut tb = 0;
        for i in 0..1024u64 {
            ta = with.read(&mut mem_a, ta, i * 64, 64);
            tb = without.read(&mut mem_b, tb, i * 64, 64);
        }
        assert!(
            ta < tb,
            "prefetch {ta} should beat no-prefetch {tb} on a stream"
        );
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let (mut mem, mut c) = setup();
        // Write a line, then stream enough lines through the same sets
        // to evict it from every level.
        c.write(&mut mem, 0, 0, 8);
        let mut t = 1000;
        // L3 slice is 2.5 MB; stream 8 MB.
        for i in 1..(8 * 1024 * 1024 / 64) as u64 {
            t = c.read(&mut mem, t, i * 64, 8);
        }
        assert!(c.stats().writebacks >= 1, "no writeback observed");
        assert!(mem.stats().bytes_written >= 64);
    }

    #[test]
    fn mshrs_bound_outstanding_misses() {
        let (mut mem, _c) = setup();
        // Issue many independent misses at cycle 0 with prefetchers off
        // (random-ish stride so the stride detector stays cold).
        let mut without = without_prefetchers();
        let mut last = 0;
        for i in 0..200u64 {
            last = without.read(&mut mem, 0, i * 4096 + (i % 3) * 128, 8);
        }
        // 200 misses through 10 L1 MSHRs: at least 20 serialized rounds
        // of ~memory latency each would be ~20 * 300; ensure substantial
        // queueing happened rather than all-parallel completion.
        let one = {
            let (mut m2, mut c2) = setup();
            c2.read(&mut m2, 0, 0, 8)
        };
        assert!(last > one * 5, "mshr limit not visible: {last} vs {one}");
    }
}
