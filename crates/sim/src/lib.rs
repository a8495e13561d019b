//! Transaction-level simulation kernel for the HIPE reproduction.
//!
//! The original paper evaluates HIPE on SiNUCA, a cycle-accurate
//! micro-architecture simulator. This crate provides the replacement
//! substrate: a small set of timing primitives from which the memory,
//! cache, processor and logic-layer models are composed.
//!
//! Instead of advancing a global clock one cycle at a time, every model
//! in this workspace is *transaction level*: a component receives a
//! request stamped with its arrival cycle and answers with the cycle at
//! which the request completes, updating internal resource bookkeeping
//! as a side effect. Contention is captured by three primitives:
//!
//! * [`Server`] — an exclusive resource (a DRAM bank, a command bus slot)
//!   that serves one request at a time.
//! * [`Window`] — a capacity-limited set of in-flight operations (a ROB,
//!   a load queue, an MSHR file, an interlocked register bank).
//! * [`ThroughputPipe`] — a bandwidth-limited conduit (a memory link).
//!
//! All three keep *monotone* "next free" state, so feeding them requests
//! in non-decreasing arrival order yields a valid schedule. The
//! higher-level crates are written so that requests are generated in
//! program order, which satisfies that contract.
//!
//! The models call these primitives once or more per simulated event,
//! so none of them uses a heap, a per-event allocation or a hardware
//! division on that path: a [`Window`] is a sorted ring whose head is
//! the earliest completion (admission reads and pops heads; a
//! completion shifts only the entries later than itself, usually
//! none), a [`FifoWindow`] a fixed ring, and a [`ThroughputPipe`]
//! divides through a precomputed [`Divisor`]. Both rings have exactly
//! `capacity` slots and allocate only when built.
//!
//! Beside them sit the [`ClockDomain`]/[`Freq`] cycle converters, the
//! [`Divisor`] that divides by a fixed value without a hardware
//! division,
//! [`Samples`] (exact nearest-rank latency percentiles for the service
//! reports; every other statistic is a plain counter in a model's
//! `*Stats` struct, named by `hipe::RunReport::metrics`) and the
//! host-side [`WorkerPool`] that runs independent simulations
//! in parallel. [`Words`], [`WordVec`] and [`WordArea`] keep 8 B model
//! words on the host at the width their values need (a table's
//! columns, which a cube reads but never writes), widening on read.
//! [`fnv1a`] fingerprints results word by word (the service's answer
//! digest and the figures' serial-vs-parallel digests).
//!
//! # Example
//!
//! ```
//! use hipe_sim::{Server, Window};
//!
//! // A bank that needs 40 cycles per access, with at most 4 accesses
//! // outstanding from the requester's side.
//! let mut bank = Server::new();
//! let mut mshr = Window::new(4);
//! let mut done = 0;
//! for i in 0..8u64 {
//!     let arrival = i; // one request per cycle
//!     let admitted = mshr.admit(arrival);
//!     let (_, completion) = bank.serve(admitted, 40);
//!     mshr.complete(completion);
//!     done = completion;
//! }
//! assert_eq!(done, 8 * 40);
//! ```

mod fifo_window;
mod fnv;
mod host;
mod pipe;
mod server;
mod stats;
mod time;
mod window;
mod words;

pub use fifo_window::FifoWindow;
pub use fnv::fnv1a;
pub use host::{env_workers, WorkerPool};
pub use pipe::ThroughputPipe;
pub use server::{MultiServer, ServeOutcome, Server};
pub use stats::Samples;
pub use time::{ClockDomain, Cycle, Divisor, Freq};
pub use window::Window;
pub use words::{WordArea, WordVec, Words};
