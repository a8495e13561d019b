//! Instruction definitions for the four evaluated targets.
//!
//! The HIPE paper compares the TPC-H Query 06 selection scan compiled
//! four ways:
//!
//! * **x86/AVX** — everything executes in the out-of-order core; memory
//!   is reached through the cache hierarchy. Represented here as
//!   [`MicroOp`] streams.
//! * **HMC ISA** — the core dispatches read-operate instructions (e.g.
//!   load-compare) that execute in the vault functional units;
//!   represented as [`MicroOp`]s with a [`MicroOpKind::HmcDispatch`]
//!   payload carrying the in-memory operation ([`VaultOp`]).
//! * **HIVE** — the core posts [`LogicInstr`]s (lock/unlock, load/store,
//!   ALU) to the logic-layer engine with its interlocked register bank.
//! * **HIPE** — HIVE plus an optional [`Predicate`] on load/store/ALU
//!   instructions, executed by the predication match logic.
//!
//! The types in this crate are pure data: timing lives in `hipe-cpu`
//! and `hipe-logic`, functional evaluation in `hipe-logic` and the
//! runners of the top-level `hipe` crate.

mod logic;
mod micro;
mod opsize;
mod program;

pub use logic::{AluOp, LogicInstr, PredWhen, Predicate, RegId, REGISTER_BYTES, REGISTER_COUNT};
pub use micro::{MicroOp, MicroOpKind, VaultOp};
pub use opsize::{OpSize, LANE_BYTES};
pub use program::{LogicProgram, PartitionSpec};
