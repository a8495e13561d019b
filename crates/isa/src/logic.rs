//! HIVE/HIPE logic-layer instructions.

use crate::opsize::OpSize;

/// Number of registers in the balanced register bank (36 in the paper,
/// 256 B each — 94 % smaller than HIVE's original 16 x 8 KB proposal).
pub const REGISTER_COUNT: usize = 36;

/// Width of one register in bytes.
pub const REGISTER_BYTES: u64 = 256;

/// Index of a logic-layer register.
///
/// # Example
///
/// ```
/// use hipe_isa::RegId;
/// let r = RegId::new(5).expect("5 is within the register bank");
/// assert_eq!(r.index(), 5);
/// assert!(RegId::new(40).is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegId(u8);

impl RegId {
    /// Creates a register id; `None` if `i >= REGISTER_COUNT`.
    pub fn new(i: usize) -> Option<Self> {
        if i < REGISTER_COUNT {
            Some(RegId(i as u8))
        } else {
            None
        }
    }

    /// The register index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for RegId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// ALU operations of the logic-layer engine.
///
/// Latencies follow Table I: 2 cycles for integer ALU, 6 for multiply,
/// 40 for divide (logic-layer cycles at 1 GHz). All operations are
/// lane-wise over 8-byte lanes; comparisons produce 0/1 per lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// `lane >= imm`.
    CmpGeImm(i64),
    /// `lane > imm`.
    CmpGtImm(i64),
    /// `lane <= imm`.
    CmpLeImm(i64),
    /// `lane < imm`.
    CmpLtImm(i64),
    /// `lane == imm`.
    CmpEqImm(i64),
    /// `lo <= lane <= hi` (the fused range compare used for Q6's
    /// discount predicate).
    CmpRangeImm(i64, i64),
    /// Lane-wise AND of two registers.
    And,
    /// Lane-wise OR of two registers.
    Or,
    /// Lane-wise addition of two registers.
    Add,
    /// Lane-wise subtraction (`a - b`).
    Sub,
    /// Lane-wise multiplication (used by the fused-aggregate extension).
    Mul,
    /// Horizontal sum of all lanes of `a` into lane `lane` of `dst`
    /// (aggregate extension; reduction tree, multiply-class latency).
    /// With a second register operand it reduces the lane-wise
    /// products `a[i] * b[i]` instead — the fused dot product the
    /// near-data aggregate tail uses to fold the 0/1 match mask into
    /// a partial sum in a single operation.
    ///
    /// Unlike the other ALU operations this *merges* into the
    /// destination: lanes other than `lane` keep their previous value,
    /// so a long-lived register can collect one partial per region and
    /// be flushed to memory as a single row-buffer store per 32
    /// regions (the reduction tree's output mux selects the write
    /// lane; the bank read-modify-writes the register).
    AddReduce {
        /// Destination lane of the reduced sum, `0..32`.
        lane: u8,
    },
}

impl AluOp {
    /// Returns `true` for multiply-class latencies.
    pub fn is_mul_class(self) -> bool {
        matches!(self, AluOp::Mul | AluOp::AddReduce { .. })
    }

    /// Returns `true` if the operation merges into its destination
    /// (reads `dst`'s previous lanes instead of overwriting them all).
    pub fn merges_dst(self) -> bool {
        matches!(self, AluOp::AddReduce { .. })
    }
}

/// When a predicated instruction executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredWhen {
    /// Execute if any lane of the predicate register is non-zero —
    /// i.e. the region still has at least one candidate tuple.
    AnyNonZero,
    /// Execute if every lane of the predicate register is zero.
    AllZero,
}

/// A predicate guarding a [`LogicInstr`].
///
/// The register bank stores a zero flag alongside each register; the
/// predication match logic tests it without occupying the ALU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Predicate {
    /// Register whose zero flag is consulted.
    pub reg: RegId,
    /// Execution condition.
    pub when: PredWhen,
}

impl Predicate {
    /// Convenience: execute when `reg` has any non-zero lane.
    pub fn any_nonzero(reg: RegId) -> Self {
        Predicate {
            reg,
            when: PredWhen::AnyNonZero,
        }
    }
}

/// One instruction of the HIVE/HIPE logic-layer engine.
///
/// Instructions execute in order; loads are non-blocking thanks to the
/// interlocked register bank (execution only stalls on a true data
/// dependency). `pred` is `None` on HIVE — only HIPE's predication
/// match logic honours it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogicInstr {
    /// Acquire the engine (guards the register bank between requesters).
    Lock,
    /// Release the engine and acknowledge completion to the host.
    Unlock,
    /// Load `size` bytes at `addr` into `dst`.
    Load {
        /// Destination register.
        dst: RegId,
        /// Source DRAM address.
        addr: u64,
        /// Operand size.
        size: OpSize,
        /// Optional predicate (HIPE only).
        pred: Option<Predicate>,
    },
    /// Store `size` bytes of `src` to `addr`.
    Store {
        /// Source register.
        src: RegId,
        /// Destination DRAM address.
        addr: u64,
        /// Operand size.
        size: OpSize,
        /// Optional predicate (HIPE only).
        pred: Option<Predicate>,
    },
    /// ALU operation `dst = op(a, b?)` over `size` bytes.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dst: RegId,
        /// First source register.
        a: RegId,
        /// Second source register (for two-operand ops).
        b: Option<RegId>,
        /// Operand size.
        size: OpSize,
        /// Optional predicate (HIPE only).
        pred: Option<Predicate>,
    },
}

impl LogicInstr {
    /// The predicate attached to this instruction, if any.
    pub fn predicate(&self) -> Option<Predicate> {
        match self {
            LogicInstr::Load { pred, .. }
            | LogicInstr::Store { pred, .. }
            | LogicInstr::Alu { pred, .. } => *pred,
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: usize) -> RegId {
        RegId::new(i).expect("valid register")
    }

    #[test]
    fn register_bounds() {
        assert!(RegId::new(REGISTER_COUNT - 1).is_some());
        assert!(RegId::new(REGISTER_COUNT).is_none());
        assert_eq!(r(7).to_string(), "r7");
    }

    #[test]
    fn alu_classification() {
        assert!(AluOp::Mul.is_mul_class());
        assert!(!AluOp::And.is_mul_class());
    }

    #[test]
    fn predicate_accessors() {
        let p = Predicate::any_nonzero(r(3));
        let ld = LogicInstr::Load {
            dst: r(1),
            addr: 0,
            size: OpSize::MAX,
            pred: Some(p),
        };
        assert_eq!(ld.predicate(), Some(p));
        assert_eq!(LogicInstr::Lock.predicate(), None);
    }
}
