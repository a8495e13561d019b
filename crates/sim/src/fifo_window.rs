//! In-order retirement windows.

use crate::time::Cycle;

/// A capacity-limited window whose entries retire **in order** — the
/// semantics of a reorder buffer.
///
/// Unlike [`Window`](crate::Window), where any completed entry frees a
/// slot, a [`FifoWindow`] frees slots strictly in allocation order: an
/// entry cannot retire before every older entry has retired, so one
/// long-latency operation at the head holds the whole window.
///
/// # Example
///
/// ```
/// use hipe_sim::FifoWindow;
/// let mut rob = FifoWindow::new(2);
/// let _ = rob.admit(0);
/// rob.complete(1000); // long op at the head
/// let _ = rob.admit(0);
/// rob.complete(1);    // fast op behind it
/// // Window full: the third op waits for the *oldest* entry (1000),
/// // even though the second finished long ago.
/// assert_eq!(rob.admit(0), 1000);
/// rob.complete(1001);
/// ```
///
/// Retire times are non-decreasing in allocation order, so they sit in
/// a fixed ring of exactly `capacity` slots: admission pops the head,
/// completion pushes at the tail, both O(1) and allocation-free.
#[derive(Debug, Clone)]
pub struct FifoWindow {
    /// Retire times in allocation order (monotone non-decreasing):
    /// `len` entries from `head`, wrapping at the end of the slice.
    retire: Box<[Cycle]>,
    head: usize,
    len: usize,
    /// Largest retire time pushed so far (enforces in-order retire).
    last_retire: Cycle,
    admitted: u64,
    stall: Cycle,
}

impl FifoWindow {
    /// Creates a window with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be non-zero");
        FifoWindow {
            retire: vec![0; capacity].into_boxed_slice(),
            head: 0,
            len: 0,
            last_retire: 0,
            admitted: 0,
            stall: 0,
        }
    }

    /// Capacity of the window.
    pub fn capacity(&self) -> usize {
        self.retire.len()
    }

    /// Number of entries currently allocated.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no entries are allocated.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Requests admission at `arrival`; returns the earliest admission
    /// cycle (waiting for the oldest entry to retire when full). Must
    /// be paired with exactly one [`complete`](Self::complete).
    #[inline]
    pub fn admit(&mut self, arrival: Cycle) -> Cycle {
        self.admitted += 1;
        if self.len < self.retire.len() {
            return arrival;
        }
        let oldest = self.retire[self.head];
        self.head = self.wrap(self.head + 1);
        self.len -= 1;
        let admitted = arrival.max(oldest);
        self.stall += admitted - arrival;
        admitted
    }

    /// Registers the completion cycle of the entry admitted most
    /// recently; its retire time is clamped to preserve in-order
    /// retirement.
    ///
    /// # Panics
    ///
    /// Panics if every slot is already taken, i.e. on a completion with
    /// no admission left to pair it with.
    #[inline]
    pub fn complete(&mut self, completion: Cycle) {
        assert!(
            self.len < self.retire.len(),
            "a completion without a matching admission"
        );
        self.last_retire = self.last_retire.max(completion);
        let tail = self.wrap(self.head + self.len);
        self.retire[tail] = self.last_retire;
        self.len += 1;
    }

    /// Wraps an index below twice the capacity into the ring.
    #[inline]
    fn wrap(&self, at: usize) -> usize {
        if at >= self.retire.len() {
            at - self.retire.len()
        } else {
            at
        }
    }

    /// Total entries admitted.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Total admission delay caused by a full window.
    pub fn stall_cycles(&self) -> Cycle {
        self.stall
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_of_line_blocking() {
        let mut w = FifoWindow::new(4);
        let _ = w.admit(0);
        w.complete(500);
        for _ in 0..3 {
            let _ = w.admit(0);
            w.complete(10);
        }
        // All four slots held by the 500-cycle head.
        assert_eq!(w.admit(0), 500);
        w.complete(501);
        // The next three also retire at >= 500 (in-order).
        assert_eq!(w.admit(0), 500);
        w.complete(502);
    }

    #[test]
    fn unconstrained_below_capacity() {
        let mut w = FifoWindow::new(8);
        for i in 0..8 {
            assert_eq!(w.admit(i), i);
            w.complete(i + 5);
        }
        assert_eq!(w.stall_cycles(), 0);
    }

    #[test]
    fn retire_times_monotone() {
        let mut w = FifoWindow::new(2);
        let _ = w.admit(0);
        w.complete(100);
        let _ = w.admit(0);
        w.complete(50); // completes early but retires at >= 100
        assert_eq!(w.admit(0), 100);
        w.complete(101);
        assert_eq!(w.admit(0), 100);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = FifoWindow::new(0);
    }
}
