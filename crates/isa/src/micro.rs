//! Micro-operations executed by the out-of-order core model.

use crate::opsize::OpSize;

/// An in-memory operation executed by a vault functional unit on
/// behalf of the stock (extended) HMC ISA.
///
/// The paper extends the HMC 2.1 update instructions with wider
/// operand sizes and a compare instruction suited to select scans; a
/// `LoadCmp` reads `size` bytes next to the bank, compares each 8-byte
/// lane against an immediate range and returns a result mask without
/// overwriting memory (unlike the original compare-and-swap).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VaultOp {
    /// Lane-wise comparison `lo <= lane <= hi` returning a bitmask.
    LoadCmp {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
    /// Lane-wise AND of memory with the mask in the request, returning
    /// the combined mask (used to fold a previous bitmask into a new
    /// compare result in memory).
    LoadAnd,
    /// Read-modify-write add of an immediate (stock HMC-style update,
    /// used by extension workloads).
    AddImm(i64),
}

/// The kind of a micro-operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MicroOpKind {
    /// Scalar integer ALU operation (1 cycle in Table I).
    IntAlu,
    /// Scalar integer multiply (3 cycles).
    IntMul,
    /// Scalar integer divide (32 cycles).
    IntDiv,
    /// Scalar FP ALU operation (3 cycles).
    FpAlu,
    /// Scalar FP multiply (5 cycles).
    FpMul,
    /// Scalar FP divide (10 cycles).
    FpDiv,
    /// Vector (AVX-style) operation over `size` bytes; executes on the
    /// integer ALU pipes, one lane group per cycle.
    VecAlu {
        /// Operand width.
        size: OpSize,
    },
    /// Load of `bytes` at `addr` through the cache hierarchy.
    Load {
        /// Virtual = physical address in this model.
        addr: u64,
        /// Access size in bytes.
        bytes: u64,
    },
    /// Store of `bytes` at `addr` through the cache hierarchy.
    Store {
        /// Address.
        addr: u64,
        /// Access size in bytes.
        bytes: u64,
    },
    /// Conditional branch; `mispredict` charges the core's front-end
    /// refill penalty.
    Branch {
        /// Whether this dynamic instance mispredicts.
        mispredict: bool,
    },
    /// Dispatch of an HMC-ISA operation to the cube. Behaves like an
    /// uncached load from the core's perspective: it occupies a
    /// load-queue entry until the response returns.
    HmcDispatch {
        /// Target address of the in-memory operand.
        addr: u64,
        /// Operand size read next to the bank.
        size: OpSize,
        /// The in-memory operation.
        op: VaultOp,
        /// Result payload bytes carried in the response.
        result_bytes: u64,
    },
    /// Posted dispatch of one HIVE/HIPE logic-layer instruction.
    /// Behaves like a store: retires once handed to the link.
    LogicDispatch,
    /// Wait for the logic-layer engine's unlock acknowledgement; the
    /// completion time is provided by the co-simulated engine. Behaves
    /// like an uncached load.
    LogicWait,
}

/// A micro-operation with up to two data dependencies.
///
/// Dependencies are expressed as *backward distances* in the dynamic
/// stream: `dep1 = 3` means "depends on the micro-op issued 3 positions
/// earlier". Distance 0 means no dependency. Backward distances larger
/// than the reorder window are treated as ready (their producers have
/// long retired).
///
/// # Example
///
/// ```
/// use hipe_isa::{MicroOp, MicroOpKind};
/// let load = MicroOp::new(MicroOpKind::Load { addr: 0x40, bytes: 64 });
/// let cmp = MicroOp::new(MicroOpKind::IntAlu).with_deps(1, 0);
/// assert_eq!(cmp.dep1, 1);
/// assert!(load.dep1 == 0 && load.dep2 == 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MicroOp {
    /// Operation kind.
    pub kind: MicroOpKind,
    /// Backward distance of the first dependency (0 = none).
    pub dep1: u32,
    /// Backward distance of the second dependency (0 = none).
    pub dep2: u32,
}

impl MicroOp {
    /// Creates a micro-op with no dependencies.
    pub fn new(kind: MicroOpKind) -> Self {
        MicroOp {
            kind,
            dep1: 0,
            dep2: 0,
        }
    }

    /// Sets the dependency distances.
    pub fn with_deps(mut self, dep1: u32, dep2: u32) -> Self {
        self.dep1 = dep1;
        self.dep2 = dep2;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deps_builder() {
        let op = MicroOp::new(MicroOpKind::IntAlu).with_deps(2, 5);
        assert_eq!((op.dep1, op.dep2), (2, 5));
    }
}
