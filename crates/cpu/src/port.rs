//! The memory-port abstraction between the core and the rest of the
//! system.

use hipe_isa::OpSize;
use hipe_sim::Cycle;

/// Where the core's memory micro-ops go.
///
/// The four evaluated architectures differ only in how this trait is
/// implemented:
///
/// * **x86** — reads/writes through the cache hierarchy;
///   `hmc_dispatch`/`logic_*` are unused.
/// * **HMC** — reads/writes through the caches, `hmc_dispatch` sends a
///   read-operate instruction to a vault functional unit.
/// * **HIVE/HIPE** — `logic_dispatch` posts instructions to the
///   logic-layer engine, `logic_wait` blocks on its unlock
///   acknowledgement; bitmask reads still use the cache path.
pub trait MemoryPort {
    /// A demand read of `bytes` at `addr`; returns the data-ready cycle.
    fn read(&mut self, cycle: Cycle, addr: u64, bytes: u64) -> Cycle;

    /// A store of `bytes` at `addr`; returns the cycle at which the
    /// store has left the core (post-retirement completion is the
    /// memory system's business).
    fn write(&mut self, cycle: Cycle, addr: u64, bytes: u64) -> Cycle;

    /// Dispatch of an HMC-ISA read-operate instruction of `size` at
    /// `addr`; returns the cycle the `result_bytes` response (result
    /// mask) reaches the core. The operation and its operands time
    /// alike, so they are not passed.
    fn hmc_dispatch(&mut self, cycle: Cycle, addr: u64, size: OpSize, result_bytes: u64) -> Cycle;

    /// Posted dispatch of one logic-layer instruction; returns the
    /// cycle the packet has been handed to the link.
    fn logic_dispatch(&mut self, cycle: Cycle) -> Cycle;

    /// Wait for the engine's unlock acknowledgement; returns its
    /// arrival cycle.
    fn logic_wait(&mut self, cycle: Cycle) -> Cycle;
}

/// A trivial fixed-latency memory, useful for unit tests and for
/// isolating core-bound behaviour.
///
/// # Example
///
/// ```
/// use hipe_cpu::{FlatMemory, MemoryPort};
/// let mut m = FlatMemory::new(100);
/// assert_eq!(m.read(5, 0x40, 8), 105);
/// assert_eq!(m.write(5, 0x40, 8), 6);
/// ```
#[derive(Debug, Clone)]
pub struct FlatMemory {
    latency: Cycle,
}

impl FlatMemory {
    /// Creates a memory with a fixed read latency.
    pub fn new(latency: Cycle) -> Self {
        FlatMemory { latency }
    }
}

impl MemoryPort for FlatMemory {
    fn read(&mut self, cycle: Cycle, _addr: u64, _bytes: u64) -> Cycle {
        cycle + self.latency
    }

    fn write(&mut self, cycle: Cycle, _addr: u64, _bytes: u64) -> Cycle {
        cycle + 1
    }

    fn hmc_dispatch(&mut self, cycle: Cycle, _addr: u64, _size: OpSize, _result: u64) -> Cycle {
        cycle + self.latency
    }

    fn logic_dispatch(&mut self, cycle: Cycle) -> Cycle {
        cycle + 1
    }

    fn logic_wait(&mut self, cycle: Cycle) -> Cycle {
        cycle + self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_memory_latencies() {
        let mut m = FlatMemory::new(42);
        assert_eq!(m.read(0, 0, 8), 42);
        assert_eq!(m.logic_wait(10), 52);
        assert_eq!(m.logic_dispatch(10), 11);
    }
}
