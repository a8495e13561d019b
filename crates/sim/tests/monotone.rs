//! Property-style tests of the timing primitives' core contract.
//!
//! Every model in the workspace relies on one invariant (see the crate
//! docs): when requests are offered in non-decreasing arrival order,
//! each primitive's schedule is *monotone* — admissions, starts and
//! completions come out in non-decreasing order, and no event precedes
//! its request. These tests exercise that contract over pseudo-random
//! arrival sequences and service times.

use hipe_sim::{FifoWindow, MultiServer, Server, ThroughputPipe, Window};

/// Deterministic xorshift64* stream for arrival/service patterns.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Non-decreasing arrival sequence with random gaps (including bursts
/// of identical arrivals).
fn arrivals(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = XorShift(seed | 1);
    let mut t = 0;
    (0..n)
        .map(|_| {
            t += rng.below(7); // 0 gaps make bursts
            t
        })
        .collect()
}

#[test]
fn server_schedule_is_monotone() {
    for seed in 1..=10 {
        let mut rng = XorShift(seed ^ 0xABCD);
        let mut server = Server::new();
        let mut prev = (0, 0);
        for arrival in arrivals(seed, 500) {
            let (start, end) = server.serve(arrival, 1 + rng.below(50));
            assert!(start >= arrival, "service before arrival");
            assert!(start >= prev.0 && end >= prev.1, "schedule went backwards");
            assert!(end > start);
            prev = (start, end);
        }
    }
}

#[test]
fn multi_server_completions_are_monotone_per_unit_and_bounded() {
    for &k in &[1usize, 3, 8] {
        let mut rng = XorShift(k as u64 + 99);
        let mut pool = MultiServer::new(k);
        let mut last_start = 0;
        for arrival in arrivals(k as u64, 400) {
            let (start, end) = pool.serve(arrival, 1 + rng.below(30));
            // Earliest-free placement: unit frontiers only advance, so
            // with non-decreasing arrivals, starts never regress.
            assert!(start >= last_start, "start went backwards");
            assert!(start >= arrival && end > start);
            last_start = start;
        }
        assert_eq!(pool.served(), 400);
    }
}

#[test]
fn window_admissions_are_monotone_and_never_early() {
    for seed in 1..=10 {
        let mut rng = XorShift(seed * 7919);
        let mut window = Window::new(1 + (seed as usize % 6));
        let mut prev_admit = 0;
        for arrival in arrivals(seed, 500) {
            let admit = window.admit(arrival);
            assert!(admit >= arrival, "admitted before arrival");
            assert!(admit >= prev_admit, "admissions went backwards");
            window.complete(admit + 1 + rng.below(100));
            prev_admit = admit;
        }
        assert_eq!(window.admitted(), 500);
    }
}

#[test]
fn fifo_window_retires_in_order_under_random_completions() {
    for seed in 1..=10 {
        let mut rng = XorShift(seed * 31 + 1);
        let capacity = 4 + (seed as usize % 8);
        let mut rob = FifoWindow::new(capacity);
        let mut prev_admit = 0;
        // Retire time of every op so far: the latest completion up to
        // and including it (an op cannot retire before an older one).
        let mut retire: Vec<u64> = Vec::new();
        for (k, arrival) in arrivals(seed, 500).into_iter().enumerate() {
            let admit = rob.admit(arrival);
            assert!(admit >= arrival && admit >= prev_admit);
            // A full window frees the slot of the op `capacity` places
            // older, at that op's in-order retire time.
            let expected = match k.checked_sub(capacity) {
                Some(oldest) => arrival.max(retire[oldest]),
                None => arrival,
            };
            assert_eq!(
                admit, expected,
                "op {k} did not wait for in-order retirement"
            );
            // Completions jump around; retirement must still be ordered.
            let completion = admit + rng.below(200);
            rob.complete(completion);
            retire.push(completion.max(retire.last().copied().unwrap_or(0)));
            prev_admit = admit;
        }
    }
}

#[test]
fn pipe_transfers_are_monotone_and_rate_limited() {
    for seed in 1..=10 {
        let mut rng = XorShift(seed + 404);
        let mut pipe = ThroughputPipe::new(4, 1, 10);
        let mut prev_done = 0;
        let mut total_bytes = 0;
        for arrival in arrivals(seed, 300) {
            let bytes = 1 + rng.below(256);
            let done = pipe.transfer(arrival, bytes);
            assert!(done >= arrival + pipe.latency(), "beat the wire latency");
            assert!(done >= prev_done, "transfers completed out of order");
            total_bytes += bytes;
            prev_done = done;
        }
        // No schedule can beat the serialization rate.
        assert!(prev_done >= total_bytes / 4);
        assert_eq!(pipe.bytes(), total_bytes);
    }
}

#[test]
fn window_throughput_obeys_littles_law_under_bursts() {
    // Regardless of burstiness, capacity C and fixed latency L bound
    // completions to one per L/C cycles in the long run.
    let (capacity, latency, n) = (8u64, 96u64, 2000u64);
    let mut window = Window::new(capacity as usize);
    let mut last = 0;
    for _ in 0..n {
        let at = window.admit(0);
        window.complete(at + latency);
        last = at + latency;
    }
    let lower = (n - capacity) / capacity * latency + latency;
    assert!(last >= lower, "{last} beats Little's law bound {lower}");
    assert!(last <= lower + latency, "{last} far above bound {lower}");
}
