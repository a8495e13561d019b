//! Differential tests of the in-flight windows and the percentile
//! selection against reference models.
//!
//! [`Window`] keeps its completions in a sorted ring and [`FifoWindow`]
//! its retire times in a fixed ring. The references below are the
//! straightforward designs they replaced: a binary min-heap and a
//! growable deque. Seeded random operation sequences drive a window and
//! its reference side by side, and every admission cycle, stall count
//! and occupancy must agree. The sequences mix out-of-order completions
//! (including completions before their own admission), groups up to the
//! full width, capacity 1 and, in mid-stream, both windows rebuilt
//! empty.
//!
//! [`Samples`] selects its percentiles; the reference sorts a copy and
//! reads the nearest rank.

use hipe_sim::{FifoWindow, Samples, Window};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// SplitMix64: operation kinds, arrivals and latencies.
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

/// The min-heap window: admission pops the earliest completions.
struct HeapWindow {
    capacity: usize,
    inflight: BinaryHeap<Reverse<u64>>,
    admitted: u64,
    stall: u64,
}

impl HeapWindow {
    fn new(capacity: usize) -> Self {
        HeapWindow {
            capacity,
            inflight: BinaryHeap::new(),
            admitted: 0,
            stall: 0,
        }
    }

    fn admit_group(&mut self, arrivals: &[u64]) -> u64 {
        self.admitted += arrivals.len() as u64;
        let mut admitted = *arrivals.iter().max().expect("non-empty group");
        while self.inflight.len() + arrivals.len() > self.capacity {
            let Reverse(oldest) = self.inflight.pop().expect("over-full window");
            admitted = admitted.max(oldest);
        }
        self.stall += arrivals.iter().map(|&a| admitted - a).sum::<u64>();
        admitted
    }

    fn complete(&mut self, completion: u64) {
        self.inflight.push(Reverse(completion));
    }
}

/// The deque in-order window: a full window waits for its oldest entry.
struct DequeFifo {
    capacity: usize,
    retire: VecDeque<u64>,
    last_retire: u64,
    admitted: u64,
    stall: u64,
}

impl DequeFifo {
    fn new(capacity: usize) -> Self {
        DequeFifo {
            capacity,
            retire: VecDeque::new(),
            last_retire: 0,
            admitted: 0,
            stall: 0,
        }
    }

    fn admit(&mut self, arrival: u64) -> u64 {
        self.admitted += 1;
        if self.retire.len() < self.capacity {
            return arrival;
        }
        let oldest = self.retire.pop_front().expect("full window");
        let admitted = arrival.max(oldest);
        self.stall += admitted - arrival;
        admitted
    }

    fn complete(&mut self, completion: u64) {
        self.last_retire = self.last_retire.max(completion);
        self.retire.push_back(self.last_retire);
    }
}

const CAPACITIES: [usize; 7] = [1, 2, 3, 5, 10, 16, 64];

/// A completion for an op admitted at `admitted`: usually a latency
/// later (spread wide, so completions overtake each other), sometimes
/// before the admission itself or tied with it.
fn completion(rng: &mut Rng, admitted: u64) -> u64 {
    match rng.below(10) {
        0 => rng.below(admitted + 1),
        1 => admitted,
        _ => admitted + rng.below(600),
    }
}

#[test]
fn window_matches_the_heap_reference() {
    for seed in 0..140u64 {
        let mut rng = Rng(seed);
        let capacity = CAPACITIES[seed as usize % CAPACITIES.len()];
        let mut window = Window::new(capacity);
        let mut reference = HeapWindow::new(capacity);
        let mut now = 0;
        for step in 0..1500 {
            now += rng.below(8);
            match rng.below(40) {
                0 => {
                    window = Window::new(capacity);
                    reference = HeapWindow::new(capacity);
                    assert!(window.is_empty(), "seed {seed} step {step}");
                }
                1..=8 => {
                    // A group of staggered arrivals; a quarter of them
                    // as wide as the window.
                    let width = if rng.below(4) == 0 {
                        capacity
                    } else {
                        1 + rng.below(capacity as u64) as usize
                    };
                    let arrivals: Vec<u64> = (0..width)
                        .map(|_| now.saturating_sub(rng.below(50)))
                        .collect();
                    let admitted = window.admit_group(&arrivals);
                    assert_eq!(
                        admitted,
                        reference.admit_group(&arrivals),
                        "seed {seed} step {step}: group {arrivals:?}"
                    );
                    for _ in 0..width {
                        let done = completion(&mut rng, admitted);
                        window.complete(done);
                        reference.complete(done);
                    }
                }
                _ => {
                    // Arrivals mostly move forward but sometimes regress.
                    let arrival = now.saturating_sub(rng.below(4) * rng.below(100));
                    let admitted = window.admit(arrival);
                    assert_eq!(
                        admitted,
                        reference.admit_group(&[arrival]),
                        "seed {seed} step {step}: arrival {arrival}"
                    );
                    let done = completion(&mut rng, admitted);
                    window.complete(done);
                    reference.complete(done);
                }
            }
            assert_eq!(window.admitted(), reference.admitted, "seed {seed}");
            assert_eq!(window.stall_cycles(), reference.stall, "seed {seed}");
            assert_eq!(window.len(), reference.inflight.len(), "seed {seed}");
            assert!(window.len() <= window.capacity());
        }
    }
}

#[test]
fn fifo_window_matches_the_deque_reference() {
    for seed in 0..140u64 {
        let mut rng = Rng(seed ^ 0xF1F0);
        let capacity = CAPACITIES[seed as usize % CAPACITIES.len()];
        let mut window = FifoWindow::new(capacity);
        let mut reference = DequeFifo::new(capacity);
        let mut now = 0;
        for step in 0..1500 {
            now += rng.below(8);
            let arrival = now.saturating_sub(rng.below(4) * rng.below(100));
            let admitted = window.admit(arrival);
            assert_eq!(
                admitted,
                reference.admit(arrival),
                "seed {seed} step {step}: arrival {arrival}"
            );
            let done = completion(&mut rng, admitted);
            window.complete(done);
            reference.complete(done);
            assert_eq!(window.admitted(), reference.admitted, "seed {seed}");
            assert_eq!(window.stall_cycles(), reference.stall, "seed {seed}");
            assert_eq!(window.len(), reference.retire.len(), "seed {seed}");
        }
    }
}

#[test]
#[should_panic(expected = "without a matching admission")]
fn window_rejects_a_completion_past_its_capacity() {
    let mut window = Window::new(2);
    for done in [10, 20, 30] {
        window.complete(done);
    }
}

#[test]
#[should_panic(expected = "without a matching admission")]
fn fifo_window_rejects_a_completion_past_its_capacity() {
    let mut window = FifoWindow::new(1);
    window.complete(10);
    window.complete(20);
}

/// The ranks a service's latency summary reads: p50, p95, p99, p99.9
/// and the maximum.
const SUMMARY: [f64; 5] = [50.0, 95.0, 99.0, 99.9, 100.0];

/// The nearest-rank reference: sort, then read rank ceil(p n / 100),
/// clamped to [1, n].
fn sorted_percentiles(values: &[u64]) -> [u64; 5] {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    SUMMARY.map(|p| sorted[((p * n as f64 / 100.0).ceil() as usize).clamp(1, n) - 1])
}

fn samples_of(values: &[u64]) -> Samples {
    let mut s = Samples::new();
    for &v in values {
        s.push(v);
    }
    s
}

#[test]
fn selected_percentiles_match_the_sorted_reference() {
    let mut rng = Rng(2018);
    for n in [1, 2, 3, 100, 1_000, 80_000] {
        // Few distinct values (long runs of duplicates), and nearly
        // all distinct; plus presorted and reversed orders.
        for spread in [3, 1 << 40] {
            let random: Vec<u64> = (0..n).map(|_| rng.below(spread)).collect();
            let mut ascending = random.clone();
            ascending.sort_unstable();
            let descending: Vec<u64> = ascending.iter().rev().copied().collect();
            for values in [random, ascending, descending] {
                let case = format!("n {n}, spread {spread}");
                let expect = sorted_percentiles(&values);
                let mut whole = samples_of(&values);
                assert_eq!(whole.percentiles(SUMMARY), Some(expect), "{case}");
                // Reordered by that pass, each rank alone still reads
                // the same, and a second pass agrees.
                for (p, want) in SUMMARY.into_iter().zip(expect) {
                    assert_eq!(whole.percentile(p), Some(want), "{case}: p{p}");
                }
                assert_eq!(whole.percentiles(SUMMARY), Some(expect), "{case}");
                assert_eq!(whole.max(), Some(expect[4]), "{case}");

                // Split at a random point: merging the parts, one of
                // them already reordered by a selection, gives the
                // whole set's ranks.
                let cut = rng.below(n as u64 + 1) as usize;
                let (head, tail) = values.split_at(cut);
                let mut merged = samples_of(head);
                let _ = merged.percentiles(SUMMARY);
                merged.merge(&samples_of(tail));
                assert_eq!(merged.count(), n as u64, "{case}");
                assert_eq!(merged.percentiles(SUMMARY), Some(expect), "{case}");
                let mut folded = Samples::new();
                for part in [head, tail] {
                    folded.merge(&samples_of(part));
                }
                assert_eq!(folded.percentiles(SUMMARY), Some(expect), "{case}");

                // Pushing after a selection: the set of n + 1 samples.
                let extra = rng.below(spread);
                whole.push(extra);
                let mut grown = values.clone();
                grown.push(extra);
                let expect = sorted_percentiles(&grown);
                assert_eq!(whole.percentiles(SUMMARY), Some(expect), "{case} + 1");
            }
        }
    }
    assert_eq!(Samples::new().percentiles(SUMMARY), None);
}

#[test]
#[should_panic(expected = "do not ascend")]
fn percentiles_must_ascend() {
    let _ = samples_of(&[1, 2, 3]).percentiles([99.0, 50.0]);
}
