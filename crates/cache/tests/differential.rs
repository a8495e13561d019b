//! Differential test of the flat tag array against a reference LRU.
//!
//! [`SetArray`] packs every set into one `sets × ways` tag vector with
//! the dirty flag in bit 0 of each line address. The reference below is
//! the design it replaced: one MRU-ordered `Vec<(line, dirty)>` per set.
//! Seeded random probes, fills, dirty marks and lookups drive both, and
//! every hit, victim and dirty bit must agree. Lines come from a small
//! pool per set, so sets fill, collide and evict constantly.

use hipe_cache::{SetArray, LINE_BYTES};

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
