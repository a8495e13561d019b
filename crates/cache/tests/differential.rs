//! Differential tests of the cache model against the designs it
//! replaced.
//!
//! [`SetArray`] packs every set into one `sets × ways` tag vector with
//! the dirty flag in bit 0 of each line address. Its reference is the
//! design it replaced: one MRU-ordered `Vec<(line, dirty)>` per set.
//! Seeded random probes, fills, dirty marks and lookups drive both, and
//! every hit, victim and dirty bit must agree. Lines come from a small
//! pool per set, so sets fill, collide and evict constantly.
//!
//! [`CacheHierarchy`] skips the stride predictions the previous access
//! left in flight, keeps no in-flight map for L3 and fills without
//! re-probing. Its reference, [`RefHierarchy`], is the hierarchy before
//! those changes, kept verbatim. Seeded access streams drive both over
//! cubes of their own, and every returned cycle, every [`CacheStats`]
//! and the cubes' [`HmcStats`] must agree.

use hipe_cache::{
    CacheHierarchy, CacheStats, HierarchyConfig, LevelConfig, SetArray, StreamPrefetcher,
    StridePrefetcher, LINE_BYTES,
};
use hipe_hmc::{AccessKind, Hmc, HmcConfig, HmcStats};
use hipe_sim::{Cycle, Window};
use std::collections::HashMap;

/// SplitMix64: operations and line choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One MRU-ordered vector of `(line, dirty)` per set.
struct VecLru {
    sets: Vec<Vec<(u64, bool)>>,
    ways: usize,
}

impl VecLru {
    fn new(sets: usize, ways: usize) -> Self {
        VecLru {
            sets: vec![Vec::new(); sets],
            ways,
        }
    }

    fn set(&mut self, line: u64) -> &mut Vec<(u64, bool)> {
        let n = self.sets.len() as u64;
        &mut self.sets[((line / LINE_BYTES) % n) as usize]
    }

    fn probe(&mut self, line: u64, write: bool) -> bool {
        let set = self.set(line);
        match set.iter().position(|&(a, _)| a == line) {
            Some(pos) => {
                let (a, dirty) = set.remove(pos);
                set.insert(0, (a, dirty || write));
                true
            }
            None => false,
        }
    }

    fn contains(&mut self, line: u64) -> bool {
        self.set(line).iter().any(|&(a, _)| a == line)
    }

    fn fill(&mut self, line: u64) -> Option<(u64, bool)> {
        let ways = self.ways;
        let set = self.set(line);
        let victim = (set.len() == ways).then(|| set.pop().expect("full set"));
        set.insert(0, (line, false));
        victim
    }

    fn mark_dirty(&mut self, line: u64) {
        if let Some(e) = self.set(line).iter_mut().find(|e| e.0 == line) {
            e.1 = true;
        }
    }
}

#[test]
fn set_array_matches_the_vec_lru_reference() {
    // Direct-mapped, fully associative, power-of-two and not, and the
    // Table I L1 and L3 geometries.
    let geometries = [
        (1, 1),
        (1, 4),
        (2, 2),
        (3, 1),
        (5, 3),
        (7, 16),
        (64, 8),
        (2560, 16),
    ];
    for (seed, &(sets, ways)) in geometries.iter().enumerate().cycle().take(48) {
        let mut rng = Rng(seed as u64 * 7919 + sets as u64);
        let mut tags = SetArray::new(sets, ways);
        let mut reference = VecLru::new(sets, ways);
        // Up to twice as many distinct lines per set as it has ways;
        // line `k` maps to set `k % sets`, so neighbours in the pool
        // collide in a set `sets` lines apart.
        let pool = (sets * ways * 2) as u64;
        for step in 0..4000 {
            // Now and then a line far above the pool that still lands in
            // one of its sets.
            let line = if rng.below(50) == 0 {
                (rng.below(pool) + (1 << 40) * sets as u64) * LINE_BYTES
            } else {
                rng.below(pool) * LINE_BYTES
            };
            let ctx = format!("{sets}x{ways} seed {seed} step {step} line {line:#x}");
            match rng.below(6) {
                0 | 1 => {
                    let write = rng.below(3) == 0;
                    assert_eq!(
                        tags.probe(line, write),
                        reference.probe(line, write),
                        "{ctx}"
                    );
                }
                2 => assert_eq!(tags.contains(line), reference.contains(line), "{ctx}"),
                3 => {
                    tags.mark_dirty(line);
                    reference.mark_dirty(line);
                }
                _ => {
                    // Fills are for absent lines, as in the hierarchy.
                    if !reference.contains(line) {
                        assert_eq!(tags.fill(line), reference.fill(line), "{ctx}");
                    }
                }
            }
        }
        // Drain every set through its LRU end: all victims and dirty
        // bits still agree.
        for k in 0..(sets * ways) as u64 {
            let line = (pool * 4 + k) * LINE_BYTES;
            assert_eq!(
                tags.fill(line),
                reference.fill(line),
                "{sets}x{ways} drain {k}"
            );
        }
    }
}

/// One level of the reference hierarchy, with an in-flight map of its
/// own (L3's is never inserted into).
struct RefLevel {
    tags: SetArray,
    mshr: Window,
    latency: Cycle,
    pending: HashMap<u64, Cycle>,
}

impl RefLevel {
    fn new(cfg: &LevelConfig) -> Self {
        RefLevel {
            tags: SetArray::new(cfg.sets(), cfg.ways),
            mshr: Window::new(cfg.mshrs),
            latency: cfg.latency,
            pending: HashMap::new(),
        }
    }
}

/// The hierarchy as it was before the stride skip: every prediction
/// re-probes the L1 tags and in-flight map, every L3 path probes L3's
/// empty in-flight map, and `fill` re-probes each level it fills.
struct RefHierarchy {
    l1: RefLevel,
    l2: RefLevel,
    l3: RefLevel,
    stride: StridePrefetcher,
    stream: StreamPrefetcher,
    stats: CacheStats,
    pending_stream_trigger: Option<u64>,
}

impl RefHierarchy {
    fn new(cfg: HierarchyConfig) -> Self {
        RefHierarchy {
            l1: RefLevel::new(&cfg.l1),
            l2: RefLevel::new(&cfg.l2),
            l3: RefLevel::new(&cfg.l3),
            stride: StridePrefetcher::new(cfg.stride_degree),
            stream: StreamPrefetcher::new(cfg.stream_depth),
            stats: CacheStats::default(),
            pending_stream_trigger: None,
        }
    }

    fn access(&mut self, mem: &mut Hmc, cycle: Cycle, addr: u64, bytes: u64, write: bool) -> Cycle {
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
        let mut predictions = Vec::new();
        self.stride.observe_into(line, &mut predictions);
        for &p in &predictions {
            self.prefetch_into_l1(mem, cycle, p);
        }
        if let Some(miss_line) = self.pending_stream_trigger.take() {
            predictions.clear();
            self.stream.on_miss_into(miss_line, &mut predictions);
            for &p in &predictions {
                self.prefetch_into_l2(mem, cycle, p);
            }
        }
        done
    }

    fn demand_line(&mut self, mem: &mut Hmc, cycle: Cycle, line: u64, write: bool) -> Cycle {
        let t1 = cycle + self.l1.latency;
        if self.l1.tags.probe(line, write) {
            self.stats.l1_hits += 1;
            return t1;
        }
        if let Some(ready) = self.l1.pending.remove(&line) {
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
        if let Some(ready) = self.l2.pending.remove(&line) {
            self.stats.l2_hits += 1;
            self.stats.prefetch_hits += 1;
            let done = t2.max(ready);
            self.fill(mem, 1, line, write, done);
            self.l1.mshr.complete(done);
            return done;
        }
        self.stats.l2_misses += 1;
        let adm2 = self.l2.mshr.admit(t2);
        self.pending_stream_trigger = Some(line);

        let t3 = adm2 + self.l3.latency;
        if self.l3.tags.probe(line, false) {
            self.stats.l3_hits += 1;
            self.fill(mem, 2, line, write, t3);
            self.l2.mshr.complete(t3);
            self.l1.mshr.complete(t3);
            return t3;
        }
        if let Some(ready) = self.l3.pending.remove(&line) {
            self.stats.l3_hits += 1;
            self.stats.prefetch_hits += 1;
            let done = t3.max(ready);
            self.fill(mem, 2, line, write, done);
            self.l2.mshr.complete(done);
            self.l1.mshr.complete(done);
            return done;
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

    fn fill(&mut self, mem: &mut Hmc, depth: usize, line: u64, write: bool, cycle: Cycle) {
        let levels: [&mut RefLevel; 3] = [&mut self.l1, &mut self.l2, &mut self.l3];
        for (i, level) in levels.into_iter().enumerate() {
            if i >= depth {
                break;
            }
            if level.tags.contains(line) {
                continue;
            }
            if let Some((victim, dirty)) = level.tags.fill(line) {
                if dirty {
                    self.stats.writebacks += 1;
                    mem.access(cycle, victim, LINE_BYTES, AccessKind::Write);
                }
            }
        }
        if write {
            self.l1.tags.mark_dirty(line);
        }
    }

    fn prefetch_into_l1(&mut self, mem: &mut Hmc, cycle: Cycle, line: u64) {
        if self.l1.tags.contains(line) || self.l1.pending.contains_key(&line) {
            return;
        }
        let adm1 = self.l1.mshr.admit(cycle + self.l1.latency);
        let ready = self.fetch_below_l1(mem, adm1, line);
        self.l1.mshr.complete(ready);
        self.l1.pending.insert(line, ready);
        self.stats.prefetches += 1;
    }

    fn fetch_below_l1(&mut self, mem: &mut Hmc, cycle: Cycle, line: u64) -> Cycle {
        let t2 = cycle + self.l2.latency;
        if self.l2.tags.probe(line, false) {
            return t2;
        }
        if let Some(&ready) = self.l2.pending.get(&line) {
            return t2.max(ready);
        }
        let adm2 = self.l2.mshr.admit(t2);
        let t3 = adm2 + self.l3.latency;
        let ready = if self.l3.tags.probe(line, false) {
            t3
        } else if let Some(&r) = self.l3.pending.get(&line) {
            t3.max(r)
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
        if self.l2.tags.contains(line) || self.l2.pending.contains_key(&line) {
            return;
        }
        let adm2 = self.l2.mshr.admit(cycle + self.l2.latency);
        let t3 = adm2 + self.l3.latency;
        let ready = if self.l3.tags.probe(line, false) {
            t3
        } else if let Some(&r) = self.l3.pending.get(&line) {
            t3.max(r)
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
        self.l2.pending.insert(line, ready);
        self.stats.prefetches += 1;
    }
}

/// One demand access: address, bytes, write.
type Access = (u64, u64, bool);

/// A seeded access stream of one shape.
fn stream(shape: &str, seed: u64, n: usize) -> Vec<Access> {
    let mut rng = Rng(seed);
    let mut out = Vec::with_capacity(n);
    match shape {
        // Several 8 B column cursors, the x86 scan's pattern, each on a
        // stride of its own; now and then one jumps elsewhere.
        "strided" => {
            let strides = [8, 8, 64, 128, 192, 4096];
            let mut cursors: Vec<(u64, u64)> = (0..4u64)
                .map(|k| (k << 24, strides[rng.below(strides.len() as u64) as usize]))
                .collect();
            for _ in 0..n {
                let c = rng.below(cursors.len() as u64) as usize;
                if rng.below(200) == 0 {
                    cursors[c].0 = rng.below(1 << 26) * 8;
                }
                out.push((cursors[c].0, 8, false));
                cursors[c].0 += cursors[c].1;
            }
        }
        // Four column streams read in lockstep, 64 rows at a time, each
        // block followed by its 8 B mask word's store.
        "mask_store" => {
            let (mut row, mask) = (0u64, 1u64 << 27);
            while out.len() < n {
                for _ in 0..64 {
                    for col in 0..4u64 {
                        out.push(((col << 24) + row * 8, 8, false));
                    }
                    row += 1;
                }
                out.push((mask + row / 64 * 8, 8, true));
            }
        }
        // Uniform reads over 4 MB: the L1 and L2 thrash, L3 mostly holds.
        "random" => {
            for _ in 0..n {
                out.push((rng.below(1 << 19) * 8, 8, false));
            }
        }
        // Reads and writes mixed over a 1 MB region, in short strided
        // runs, so dirty lines are evicted and written back.
        "writes" => {
            let mut addr = 0;
            for _ in 0..n {
                if rng.below(16) == 0 {
                    addr = rng.below(1 << 17) * 8;
                }
                out.push((addr, 8, rng.below(3) == 0));
                addr = (addr + 64) % (1 << 20);
            }
        }
        // Unaligned accesses of up to 256 B, so one demand spans up to
        // five lines, on a forward sweep.
        "multi_line" => {
            let mut addr = 4;
            for _ in 0..n {
                let bytes = 1 + rng.below(256);
                out.push((addr, bytes, rng.below(5) == 0));
                addr += rng.below(192);
            }
        }
        _ => unreachable!("unknown stream shape {shape}"),
    }
    out.truncate(n);
    out
}

/// A hierarchy small enough that prefetched lines and L1 hits are
/// evicted between two predictions of the same line.
fn tiny() -> HierarchyConfig {
    let level = |capacity, ways, latency, mshrs| LevelConfig {
        capacity,
        ways,
        latency,
        mshrs,
    };
    HierarchyConfig {
        l1: level(512, 2, 2, 3),
        l2: level(2048, 2, 4, 4),
        l3: level(8192, 4, 6, 8),
        stride_degree: 6,
        stream_depth: 3,
    }
}

#[test]
fn hierarchy_matches_the_reference() {
    let shapes = ["strided", "mask_store", "random", "writes", "multi_line"];
    let configs = [
        ("paper", HierarchyConfig::paper()),
        ("tiny", tiny()),
        (
            "no_prefetch",
            HierarchyConfig {
                stride_degree: 0,
                stream_depth: 0,
                ..HierarchyConfig::paper()
            },
        ),
    ];
    for (name, cfg) in configs {
        for (k, shape) in shapes.iter().enumerate() {
            for seed in 0..3u64 {
                let mut rng = Rng(seed * 31 + k as u64);
                let mut fast = CacheHierarchy::new(cfg);
                let mut reference = RefHierarchy::new(cfg);
                let mut fast_mem = Hmc::new(HmcConfig::paper(), 0);
                let mut ref_mem = Hmc::new(HmcConfig::paper(), 0);
                let mut cycle = 0;
                for (step, (addr, bytes, write)) in
                    stream(shape, seed + 1, 6_000).into_iter().enumerate()
                {
                    let got = if write {
                        fast.write(&mut fast_mem, cycle, addr, bytes)
                    } else {
                        fast.read(&mut fast_mem, cycle, addr, bytes)
                    };
                    let want = reference.access(&mut ref_mem, cycle, addr, bytes, write);
                    assert_eq!(got, want, "{name} {shape} seed {seed} step {step}");
                    // Mostly independent accesses a few cycles apart,
                    // now and then one that waits for the last.
                    cycle = if rng.below(8) == 0 {
                        got
                    } else {
                        cycle + rng.below(4)
                    };
                }
                let ctx = format!("{name} {shape} seed {seed}");
                assert_eq!(fast.stats(), reference.stats, "{ctx}");
                let (a, b): (HmcStats, HmcStats) = (fast_mem.stats(), ref_mem.stats());
                assert_eq!(a, b, "{ctx}");
            }
        }
    }
}
