//! Top-level driver of the HIPE reproduction.
//!
//! This crate (library name `hipe`) assembles the component models of
//! the workspace into runnable *architectures* and drives the paper's
//! headline experiment end to end: a select scan over a TPC-H-style
//! `lineitem` table, compiled once per target and executed on the four
//! machines of the paper's comparison:
//!
//! * **x86 baseline** ([`Arch::HostX86`]) — the query is lowered to a
//!   vectorized micro-op program ([`hipe_compiler::lower_host_scan`])
//!   executed by the out-of-order core; all data crosses the HMC serial
//!   links and the cache hierarchy;
//! * **stock HMC ISA** ([`Arch::HmcIsa`]) — the core dispatches 16 B
//!   read-operate instructions ([`hipe_compiler::lower_hmc_scan`]) that
//!   execute in the vault functional units; only result flits return,
//!   but every operation is a full link round trip and the mask
//!   combining stays on the host;
//! * **HIVE** ([`Arch::Hive`]) — the query is lowered to a logic-layer
//!   program ([`hipe_compiler::lower_logic_scan`]) posted to the
//!   in-cube engine; column data never leaves the cube;
//! * **HIPE** ([`Arch::Hipe`]) — the same program with predication:
//!   regions whose running mask is all-zero squash their remaining
//!   instructions in one sequencer slot each.
//!
//! # Compile → session → execute
//!
//! Execution is split into three stages:
//!
//! 1. [`System::backend`] resolves an [`Arch`] label to its stock
//!    [`Backend`], one variant per machine carrying that machine's
//!    compile-time knobs (HMC-ISA operand size, fused aggregates);
//! 2. [`Backend::compile`] lowers a query into an [`ExecutablePlan`]
//!    (once per query, reusable); invalid inputs surface as a typed
//!    [`CompileError`] instead of a panic. The two host-driven
//!    machines' plans are [`hipe_compiler::HostScanProgram`]s: a
//!    per-line or per-region op template plus the scanned regions,
//!    expanded into the core as the plan runs, so a plan's size
//!    follows its template, not the table. On HIVE/HIPE, aggregate
//!    queries compile to the *fused* program — the logic layer
//!    multiplies and reduces matched values next to the banks and the
//!    host only reads back per-region partial sums, instead of
//!    gathering every matched tuple over the links (the path the
//!    host-driven machines keep);
//! 3. a [`Session`] — opened with [`System::session`] — executes
//!    plans against its system and holds nothing else.
//!    [`Session::run_plan`] picks the host executor for micro-op plans
//!    and the near-data executor for logic-layer plans;
//!    [`Session::run`] takes its plan from [`System::plan`], the
//!    system's plan cache, which lowers each `(arch, query)` once for
//!    every session of the system.
//!
//! [`System::run`] remains as a one-shot wrapper.
//!
//! No machine's timing reads the data beyond what the functional scan
//! computes anyway, so a [`System`] also memoizes it, for all four
//! machines: a run whose program (without the operands no timing
//! reads), scanned regions, gathered mask and, on HIPE, per-region
//! guard depths match an earlier run's replays that run's cycles,
//! phases and counters, and computes only its answer. A run that
//! simulates builds a cube for itself alone — the table's column area
//! in place, shared, below an output area of its own — and drops it
//! afterwards, so no run leaves state behind and every run is bit- and
//! cycle-identical to a cold one. A HIVE or HIPE run that simulates
//! also checks its engines' answer against the functional one.
//!
//! # Partitioned execution
//!
//! The logic machines scale out with [`SystemConfig::partitions`] (or
//! [`System::partitioned`]): the table layout is carved into vault
//! groups, the compiler emits one program per group, and a cluster of
//! per-group engines scans them concurrently against the shared cube —
//! each engine confined to its own vaults' banks, so the existing
//! contention models price the overlap honestly. `partitions: 1` (the
//! default) reproduces the paper's single-engine figures cycle for
//! cycle; [`RunReport::partitions`] carries the per-engine breakdown.
//!
//! Every run's answer is a functional scan of the table, and every
//! simulated HIVE or HIPE run is *co-simulated*: its engines compute
//! the answer again from the values they load and store in the cube's
//! memory image, and it must equal the functional one, so the returned
//! [`hipe_db::scan::ScanResult`]s can be compared bit for bit across
//! architectures (the cross-crate integration tests in the workspace
//! root do exactly that).
//!
//! # Example
//!
//! ```
//! use hipe::{Arch, System};
//! use hipe_db::Query;
//!
//! let sys = System::new(4096, 42);
//! let q = Query::quantity_below_permille(30); // ~3 % selectivity
//! let mut session = sys.session(); // one session...
//! let reports: Vec<_> = Arch::ALL
//!     .iter()
//!     .map(|&arch| session.run(arch, &q))
//!     .collect(); // ...four machines
//! assert_eq!(sys.materializations(), 1);
//! // Same answer everywhere, fewer cycles near-data.
//! let (base, hipe) = (&reports[0], &reports[3]);
//! assert_eq!(base.result.bitmask, hipe.result.bitmask);
//! assert!(hipe.cycles < base.cycles);
//! ```

mod backend;
mod gather;
mod host;
mod neardata;
mod replay;
mod report;
mod session;
mod system;

pub use backend::{Backend, ExecutablePlan};
pub use hipe_compiler::CompileError;
pub use hipe_db::{PruneStats, TableShape, ZoneMap};
pub use report::{Arch, PartitionPhase, PhaseBreakdown, RunReport};
pub use session::Session;
pub use system::{ConfigError, System, SystemConfig};
