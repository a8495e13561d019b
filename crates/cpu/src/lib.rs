//! Interval-style out-of-order core timing model.
//!
//! Replaces SiNUCA's cycle-accurate pipeline with an interval model of
//! the paper's Sandy-Bridge-like core (Table I): 6-wide issue at
//! 2 GHz, a 168-entry reorder buffer, 64-read/36-write memory order
//! buffer, and the listed functional-unit mix and latencies. A
//! `Branch` micro-op marked `mispredict` stalls the front end for the
//! configured refill penalty; the scan loops the compiler emits branch
//! predictably, so none of their branches is marked.
//!
//! The model consumes a dynamic [`hipe_isa::MicroOp`] stream in program
//! order and computes, per micro-op, dispatch (bounded by issue width,
//! front-end stalls and ROB occupancy), operand-ready (explicit
//! dependency distances), execution (functional-unit contention) and
//! completion. Memory operations are delegated to a [`MemoryPort`] —
//! the cache hierarchy, the HMC dispatch path, or the logic-layer
//! engine — so the same core model drives all four architectures.
//!
//! What the interval model keeps from a full pipeline simulation:
//! instruction throughput limits, memory-level parallelism limits
//! (ROB/MOB), dependency serialization and branch-mispredict stalls —
//! the four effects the paper's figures hinge on. What it drops:
//! wrong-path execution and register-renaming stalls, which are
//! second-order for streaming scans.
//!
//! # Example
//!
//! ```
//! use hipe_cpu::{Core, CoreConfig, FlatMemory};
//! use hipe_isa::{MicroOp, MicroOpKind};
//!
//! let mut core = Core::new(CoreConfig::paper());
//! let mut mem = FlatMemory::new(100); // fixed 100-cycle memory
//! let mut done = 0;
//! for _ in 0..12 {
//!     done = core.execute(MicroOp::new(MicroOpKind::IntAlu), &mut mem);
//! }
//! // 12 independent 1-cycle ALU ops on a 6-wide core: two cycles of
//! // issue plus the unit latency.
//! assert!(done <= 4);
//! ```

mod config;
mod core_model;
mod port;

pub use config::CoreConfig;
pub use core_model::{Core, CoreStats};
pub use port::{FlatMemory, MemoryPort};
