//! Hybrid Memory Cube (HMC) v2.1 model.
//!
//! This crate rebuilds, from the published parameters (Table I of the
//! HIPE paper), the memory substrate that the original evaluation took
//! from the SiNUCA simulator:
//!
//! * **Geometry** — 32 vaults x 8 DRAM banks per vault, 256 B row
//!   buffers, closed-page policy, 8 GB address space.
//! * **Timing** — DRAM at 166 MHz with CAS/RP/RCD/RAS/CWD of
//!   9-9-9-24-7 DRAM cycles, expressed in 2 GHz CPU cycles.
//! * **Links** — four serial links at 8 GHz carrying request and
//!   response packets with 16 B headers.
//! * **Per-vault functional units** — the stock HMC ISA executes
//!   read-operate(-write) instructions next to the banks; the unit adds
//!   one CPU cycle of latency per operation, as in the paper.
//! * **Energy** — an event-count energy model (activate/read/write/IO,
//!   link traffic, background power) replacing the silicon numbers the
//!   authors had; only relative energy matters for the paper's claims.
//!   The cube only counts ([`HmcStats`]); [`EnergyModel::price`] turns
//!   a run's counters into its energy, exactly, in tenths of a pJ.
//!
//! The cube is *functional* as well as timed: it holds a word image of
//! the simulated physical memory, so the database scans executed on top
//! of it compute real results that the test-suite cross-checks against
//! a reference executor. The image's low part can be a read-only area
//! shared by many cubes (the table's columns); the cube owns only the
//! area above it, where runs write their outputs. The model addresses
//! and times 8 B words throughout. On the host the shared area
//! ([`WordArea`]) keeps each buffer's words at the width their values
//! need, and reads widen them ([`Words`]); the owned area holds 8 B
//! words in 4 KB blocks, each allocated on its first write.
//!
//! A cube carries one simulation: its banks, links, counters and
//! output start idle and zero, and nothing resets them. A second
//! simulation builds a second cube over the same shared area.
//!
//! # Example
//!
//! ```
//! use hipe_hmc::{AccessKind, Hmc, HmcConfig, WordArea};
//! use hipe_sim::WordVec;
//! use std::sync::Arc;
//!
//! // 32 shared 8 B words (one 256 B row; 1 B each on the host)
//! // below a 256 B owned area.
//! let table = WordArea::new(vec![WordVec::U8((0..32).collect())]);
//! let mut hmc = Hmc::with_shared(HmcConfig::paper(), Arc::new(table), 512);
//! assert!(hmc.read_words(8, 3).iter().eq([1, 2, 3]));
//! hmc.write_word(0x100, 42);
//! let resp = hmc.access(0, 0x100, 8, AccessKind::Read);
//! assert!(resp.complete > 0);
//! assert_eq!(hmc.read_word(0x100), 42);
//! ```

mod address;
mod config;
mod cube;
mod energy;
mod vault;

pub use address::{AddressMapping, Location};
pub use config::{DramTimings, HmcConfig};
pub use cube::{AccessKind, Hmc, HmcStats, Response, VaultActivity, CUBE_BYTES};
pub use energy::{EnergyBreakdown, EnergyModel};
pub use hipe_sim::{WordArea, Words};
pub use vault::Vault;
