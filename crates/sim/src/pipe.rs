//! Bandwidth-limited conduits.

use crate::time::{Cycle, Divisor};

/// A bandwidth-limited conduit such as an HMC serial link.
///
/// The pipe serializes payloads at a fixed rate expressed as a rational
/// `bytes_per_cycle = num / den`, and adds a fixed propagation latency
/// to every transfer. Serialization occupies the pipe; propagation does
/// not (it is wire delay).
///
/// # Example
///
/// ```
/// use hipe_sim::ThroughputPipe;
/// // 4 bytes per cycle, 20 cycles of wire latency.
/// let mut link = ThroughputPipe::new(4, 1, 20);
/// // 64-byte packet: 16 cycles on the wire start-to-last-byte, +20.
/// assert_eq!(link.transfer(0, 64), 36);
/// // Next packet queues behind the first one's serialization.
/// assert_eq!(link.transfer(0, 64), 52);
/// ```
#[derive(Debug, Clone)]
pub struct ThroughputPipe {
    /// Serialization rate numerator (bytes).
    num: Divisor,
    /// Serialization rate denominator (cycles).
    den: u64,
    latency: Cycle,
    next_free: Cycle,
    bytes: u64,
    transfers: u64,
}

impl ThroughputPipe {
    /// Creates a pipe carrying `num` bytes every `den` cycles with the
    /// given fixed propagation latency.
    ///
    /// # Panics
    ///
    /// Panics if `num` or `den` is zero, or if `num` is 2³² or more.
    pub fn new(num: u64, den: u64, latency: Cycle) -> Self {
        assert!(num > 0 && den > 0, "pipe rate must be positive");
        ThroughputPipe {
            num: Divisor::new(num),
            den,
            latency,
            next_free: 0,
            bytes: 0,
            transfers: 0,
        }
    }

    /// Transfers `bytes` starting no earlier than `arrival`; returns the
    /// cycle at which the last byte has arrived at the far end.
    #[inline]
    pub fn transfer(&mut self, arrival: Cycle, bytes: u64) -> Cycle {
        let start = arrival.max(self.next_free);
        let ser = self.num.div_ceil(bytes * self.den);
        self.next_free = start + ser;
        self.bytes += bytes;
        self.transfers += 1;
        start + ser + self.latency
    }

    /// The cycle at which the pipe next becomes free.
    pub fn next_free(&self) -> Cycle {
        self.next_free
    }

    /// Total bytes transferred.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Total number of transfers.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// The fixed propagation latency.
    pub fn latency(&self) -> Cycle {
        self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_below_one_byte_per_cycle() {
        // 1 byte per 4 cycles.
        let mut p = ThroughputPipe::new(1, 4, 0);
        assert_eq!(p.transfer(0, 8), 32);
        assert_eq!(p.transfer(0, 1), 36);
    }

    #[test]
    fn latency_does_not_occupy_pipe() {
        let mut p = ThroughputPipe::new(8, 1, 100);
        let first = p.transfer(0, 8);
        let second = p.transfer(0, 8);
        assert_eq!(first, 101);
        // Serialization back-to-back, both see wire latency.
        assert_eq!(second, 102);
    }

    #[test]
    fn accounts_bytes() {
        let mut p = ThroughputPipe::new(2, 1, 5);
        p.transfer(0, 10);
        p.transfer(0, 20);
        assert_eq!(p.bytes(), 30);
        assert_eq!(p.transfers(), 2);
    }
}
