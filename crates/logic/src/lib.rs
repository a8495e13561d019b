//! HMC logic-layer engines: HIVE and the HIPE predication extension.
//!
//! This crate implements the paper's primary contribution. The
//! [`Engine`] models the instruction sequencer placed in the HMC logic
//! layer:
//!
//! * **in-order issue** at 1 GHz (2 CPU cycles per instruction slot);
//! * a **register bank** of 36 x 256 B entries ([`RegisterBank`]) with
//!   an **interlock scoreboard**: loads are non-blocking, execution
//!   stalls only on true data dependencies;
//! * **unified functional units** with Table I latencies (2-cycle int
//!   ALU, 6-cycle multiply, 40-cycle divide at 1 GHz);
//! * a **zero flag** per register, updated by every write;
//! * the **predication match logic** (HIPE): instructions carrying a
//!   [`hipe_isa::Predicate`] consult the zero flag of the predicate
//!   register and are squashed in a single sequencer slot when the
//!   condition fails — no DRAM access, no ALU occupancy, and no
//!   round-trip to the host processor.
//!
//! The engine is co-simulated functionally: loads really read the
//! cube's memory image, ALU ops really compute lane results, and
//! predication decisions are therefore driven by the actual data, as
//! they are in hardware.
//!
//! The paper's logic layer holds one such engine *per vault group*;
//! the [`EngineCluster`] models N of them co-simulated against a
//! shared cube, each with its own sequencer and register bank, and
//! enforces that every engine touches only its own vault group's
//! banks.
//!
//! # Example
//!
//! ```
//! use hipe_hmc::{Hmc, HmcConfig};
//! use hipe_isa::{AluOp, LogicInstr, OpSize, RegId};
//! use hipe_logic::{Engine, LogicConfig};
//!
//! let mut hmc = Hmc::new(HmcConfig::paper(), 1 << 16);
//! hmc.write_word(0, 42);
//! let mut eng = Engine::new(LogicConfig::paper());
//! let r0 = RegId::new(0).expect("register 0 exists");
//! let r1 = RegId::new(1).expect("register 1 exists");
//! let size = OpSize::new(16).expect("16 B is a valid op size");
//!
//! eng.execute(&mut hmc, LogicInstr::Lock, 0);
//! eng.execute(&mut hmc, LogicInstr::Load { dst: r0, addr: 0, size, pred: None }, 0);
//! eng.execute(&mut hmc, LogicInstr::Alu {
//!     op: AluOp::CmpGeImm(10), dst: r1, a: r0, b: None, size, pred: None,
//! }, 0);
//! let out = eng.execute(&mut hmc, LogicInstr::Unlock, 0);
//! assert!(out.performed);
//! assert_eq!(eng.bank().lane(r1, 0), 1); // 42 >= 10
//! ```

mod bank;
mod cluster;
mod config;
mod engine;

pub use bank::RegisterBank;
pub use cluster::EngineCluster;
pub use config::LogicConfig;
pub use engine::{Engine, EngineStats, Outcome};
