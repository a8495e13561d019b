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
//! Execution is split into three stages behind the open [`Backend`]
//! abstraction:
//!
//! 1. [`System::backend`] resolves an [`Arch`] label to its stateless
//!    [`Backend`];
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
//! 3. a [`Session`] — opened with [`System::session`] — owns one warm,
//!    materialized cube image and executes plans against it, applying
//!    a reset protocol between runs so warm results are bit- and
//!    cycle-identical to cold ones.
//!
//! [`System::run`] and [`System::compare`] remain as one-shot wrappers.
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
//! Every run is *co-simulated*: timing comes from the cycle models,
//! while the functional result is computed from the bytes actually
//! stored in the cube's memory image, so the returned
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
//! let mut session = sys.session(); // one materialization...
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
mod report;
mod session;
mod system;

pub use backend::{
    Backend, ExecutablePlan, HipeBackend, HiveBackend, HmcIsaBackend, HostX86Backend,
};
pub use hipe_compiler::CompileError;
pub use hipe_db::{PruneStats, TableShape, ZoneMap};
pub use report::{Arch, PartitionPhase, PhaseBreakdown, RunReport, TraceCtx};
pub use session::{PlanCache, Session};
pub use system::{System, SystemConfig};
