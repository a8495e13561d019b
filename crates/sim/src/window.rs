//! Capacity-limited in-flight windows.

use crate::time::Cycle;

/// A capacity-limited set of in-flight operations.
///
/// A [`Window`] models structures that admit a new operation only when
/// fewer than `capacity` operations are outstanding: a reorder buffer,
/// a load/store queue, an MSHR file, or the interlocked register bank
/// of the HIVE/HIPE logic layer.
///
/// The protocol is two-phase:
///
/// 1. call [`admit`](Self::admit) with the cycle the operation *wants*
///    to enter; the window returns the earliest cycle it *can* enter
///    (delayed until the oldest outstanding operation completes when
///    the window is full);
/// 2. once the operation's completion cycle is known, report it with
///    [`complete`](Self::complete).
///
/// # Representation and cost
///
/// The completion cycles in flight sit in a ring, ascending from its
/// head, so the earliest completion is always the head. Admission pops
/// heads, O(1) each ([`admit_group`](Self::admit_group) pops as many
/// as the group needs). [`complete`](Self::complete) inserts in order,
/// shifting only the entries later than the new completion; in a
/// program-order stream completions mostly arrive in order, so it
/// shifts none or a few. Nothing allocates after
/// [`new`](Self::new).
///
/// The ring has exactly `capacity` slots. The protocol never holds
/// more: admission frees a slot for every operation it lets in before
/// that operation's completion is pushed. A ring rounded up to the
/// power of two above `capacity`, to wrap indices with a mask, doubles
/// the allocation of the cube's 16-deep vault queues (32 slots); that
/// alone moved where the allocator placed each cube's output area and
/// raised `serve_failover` set-up time from 0.014 to 0.022 s on a
/// 2-CPU host. Wrapping by comparison costs nothing measurable.
///
/// # Example
///
/// ```
/// use hipe_sim::Window;
/// let mut w = Window::new(2);
/// assert_eq!(w.admit(0), 0);
/// w.complete(100);
/// assert_eq!(w.admit(0), 0);
/// w.complete(50);
/// // Window full: the third op waits for the op finishing at 50.
/// assert_eq!(w.admit(0), 50);
/// w.complete(120);
/// ```
#[derive(Debug, Clone)]
pub struct Window {
    /// Completion cycles in flight: `len` entries ascending from
    /// `head`, wrapping at the end of the slice.
    slots: Box<[Cycle]>,
    head: usize,
    len: usize,
    admitted: u64,
    stall: Cycle,
}

impl Window {
    /// Creates a window with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be non-zero");
        Window {
            slots: vec![0; capacity].into_boxed_slice(),
            head: 0,
            len: 0,
            admitted: 0,
            stall: 0,
        }
    }

    /// Capacity of the window.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of operations currently tracked as in flight.
    ///
    /// Note: entries completing in the past are only evicted lazily on
    /// [`admit`](Self::admit), so this is an upper bound.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no operations are tracked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Requests admission at `arrival`; returns the earliest admission
    /// cycle. Must be followed by exactly one [`complete`](Self::complete)
    /// call for this operation.
    #[inline]
    pub fn admit(&mut self, arrival: Cycle) -> Cycle {
        self.admitted += 1;
        let admitted = self.reserve(arrival, 1);
        self.stall += admitted - arrival;
        admitted
    }

    /// Requests admission for a group of operations with *individual*
    /// arrival cycles that enter together (a batch assembled from
    /// staggered arrivals); returns the earliest cycle the whole group
    /// can enter: no earlier than the latest member's arrival, and no
    /// earlier than `arrivals.len()` slots are free. Must be followed
    /// by exactly `arrivals.len()` [`complete`](Self::complete) calls.
    ///
    /// The group needs one free slot per member, so the window waits
    /// for (and evicts) as many oldest completions as that takes.
    /// Stall cycles accrue *per member from its own arrival*: member
    /// `i` is charged `admitted - arrivals[i]`. An early member
    /// waiting for late group-mates is genuinely waiting for
    /// admission, and that wait is part of the window's stall.
    ///
    /// # Panics
    ///
    /// Panics if `arrivals` is empty or longer than the capacity (a
    /// group wider than the window could never be in flight together).
    pub fn admit_group(&mut self, arrivals: &[Cycle]) -> Cycle {
        assert!(
            !arrivals.is_empty(),
            "an admission group needs at least one operation"
        );
        assert!(
            arrivals.len() <= self.capacity(),
            "group ({}) exceeds window capacity ({})",
            arrivals.len(),
            self.capacity()
        );
        self.admitted += arrivals.len() as u64;
        let latest = *arrivals.iter().max().expect("group is non-empty");
        let admitted = self.reserve(latest, arrivals.len());
        for &arrival in arrivals {
            self.stall += admitted - arrival;
        }
        admitted
    }

    /// Waits for (and evicts) the oldest completions until `count`
    /// slots are free; returns the group's admission cycle.
    #[inline]
    fn reserve(&mut self, arrival: Cycle, count: usize) -> Cycle {
        let excess = (self.len + count).saturating_sub(self.slots.len());
        if excess == 0 {
            return arrival;
        }
        // The ring ascends from its head, so the last evicted entry is
        // the latest of the `excess` oldest completions.
        let latest = self.slots[self.slot(excess - 1)];
        self.head = self.slot(excess);
        self.len -= excess;
        arrival.max(latest)
    }

    /// The slice index of the `i`-th entry from the head.
    #[inline]
    fn slot(&self, i: usize) -> usize {
        let at = self.head + i;
        if at >= self.slots.len() {
            at - self.slots.len()
        } else {
            at
        }
    }

    /// Registers the completion cycle of the most recently admitted
    /// operation.
    ///
    /// # Panics
    ///
    /// Panics if every slot is already taken, i.e. on a completion with
    /// no admission left to pair it with.
    #[inline]
    pub fn complete(&mut self, completion: Cycle) {
        assert!(
            self.len < self.slots.len(),
            "a completion without a matching admission"
        );
        // Insertion step of an insertion sort: from the free slot after
        // the tail, shift the later entries one slot towards it.
        let last = self.slots.len() - 1;
        let mut at = self.slot(self.len);
        for _ in 0..self.len {
            let prev = if at == 0 { last } else { at - 1 };
            if self.slots[prev] <= completion {
                break;
            }
            self.slots[at] = self.slots[prev];
            at = prev;
        }
        self.slots[at] = completion;
        self.len += 1;
    }

    /// Total number of operations admitted.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Total cycles of admission delay caused by a full window.
    pub fn stall_cycles(&self) -> Cycle {
        self.stall
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unconstrained_when_not_full() {
        let mut w = Window::new(8);
        for i in 0..8 {
            assert_eq!(w.admit(i), i);
            w.complete(i + 1000);
        }
        assert_eq!(w.stall_cycles(), 0);
    }

    #[test]
    fn throughput_is_capacity_over_latency() {
        // Classic Little's law check: capacity 4, latency 100 cycles,
        // infinitely fast producer => one completion per 25 cycles.
        let mut w = Window::new(4);
        let mut last = 0;
        for _ in 0..100 {
            let at = w.admit(0);
            let done = at + 100;
            w.complete(done);
            last = done;
        }
        // 100 ops * (100/4) = 2500, plus pipeline fill.
        assert_eq!(last, 96 / 4 * 100 + 100);
    }

    #[test]
    fn batch_admission_reserves_one_slot_per_member() {
        let mut w = Window::new(4);
        for done in [10, 40, 20, 30] {
            let _ = w.admit(0);
            w.complete(done);
        }
        // A group of 3 needs 3 free slots: it waits for the three
        // oldest completions (10, 20, 30) and enters at cycle 30.
        assert_eq!(w.admit_group(&[5, 5, 5]), 30);
        // Every member stalls from its requested cycle to admission.
        assert_eq!(w.stall_cycles(), (30 - 5) * 3);
        for done in [50, 60, 70] {
            w.complete(done);
        }
        assert!(w.len() <= w.capacity());
        assert_eq!(w.admitted(), 7);
    }

    #[test]
    fn group_admission_charges_each_member_from_its_own_arrival() {
        // Regression (per-member admission-stall accounting): a group
        // assembled from staggered arrivals must charge each member
        // from *its own* arrival, not from the group's latest one.
        let mut w = Window::new(8);
        let arrivals = [10, 40, 25, 40];
        let admitted = w.admit_group(&arrivals);
        // Window idle: the group enters when its last member arrives.
        assert_eq!(admitted, 40);
        // Members at 10 and 25 waited 30 and 15 cycles; charging every
        // member from the latest arrival would have reported zero.
        assert_eq!(w.stall_cycles(), 30 + 15);
        assert_eq!(w.admitted(), 4);
        for done in [50, 60, 70, 80] {
            w.complete(done);
        }
        // A full window adds the slot wait on top, still per member.
        let mut full = Window::new(2);
        let _ = full.admit(0);
        full.complete(100);
        let _ = full.admit(0);
        full.complete(200);
        assert_eq!(full.admit_group(&[5, 30]), 200);
        assert_eq!(full.stall_cycles(), (200 - 5) + (200 - 30));
    }

    #[test]
    fn group_of_equal_arrivals_charges_each_member_the_same_wait() {
        let mut w = Window::new(3);
        for done in [40, 10, 90] {
            let _ = w.admit(0);
            w.complete(done);
        }
        // Two slots free up at the two oldest completions, 10 and 40.
        assert_eq!(w.admit_group(&[5, 5]), 40);
        assert_eq!(w.stall_cycles(), (40 - 5) * 2);
        assert_eq!(w.admitted(), 5);
    }

    #[test]
    #[should_panic(expected = "exceeds window capacity")]
    fn group_wider_than_capacity_panics() {
        let _ = Window::new(2).admit_group(&[0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "at least one operation")]
    fn empty_group_panics() {
        let _ = Window::new(2).admit_group(&[]);
    }

    #[test]
    fn batch_as_wide_as_the_window_waits_for_a_full_drain() {
        let mut w = Window::new(2);
        let _ = w.admit(0);
        w.complete(100);
        let _ = w.admit(0);
        w.complete(50);
        assert_eq!(w.admit_group(&[0, 0]), 100);
        w.complete(130);
        w.complete(120);
        // Both slots are held again; the next op waits for the earlier
        // of the two, whichever order they completed in.
        assert_eq!(w.admit(0), 120);
    }

    #[test]
    fn batch_of_one_matches_plain_admit() {
        let mut a = Window::new(2);
        let mut b = Window::new(2);
        for done in [40, 10, 90, 30] {
            let at_a = a.admit(5);
            a.complete(done);
            let at_b = b.admit_group(&[5]);
            b.complete(done);
            assert_eq!(at_a, at_b);
        }
        assert_eq!(a.stall_cycles(), b.stall_cycles());
        assert_eq!(a.admitted(), b.admitted());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = Window::new(0);
    }
}
