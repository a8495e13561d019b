//! Query lowering: from [`hipe_db::Query`] select scans to executable
//! instruction streams.
//!
//! This crate is the workspace's compiler layer. It owns the mapping
//! from the database-level description of a select scan (a conjunction
//! of [`hipe_db::CmpOp`] column predicates over a DSM table) to the two
//! instruction sets the system simulates:
//!
//! * [`lower_logic_scan`] — the HIVE/HIPE path: a
//!   [`hipe_isa::LogicInstr`] program executed by the logic-layer
//!   engine inside the cube. The
//!   scan is tiled into 256 B *regions* (32 rows, one row buffer); for
//!   each region the program loads a column chunk, compares it, ANDs
//!   the result into a running match mask and finally stores the mask.
//!   When lowering for HIPE, every instruction after the first compare
//!   of a region is predicated on the running mask being non-zero, so
//!   regions with no surviving candidate are squashed in a sequencer
//!   slot each instead of touching DRAM.
//! * [`lower_host_scan`] — the x86 baseline path: a
//!   [`hipe_isa::MicroOp`] stream modelling a vectorized
//!   column-at-a-time scan through the cache
//!   hierarchy (64 B vector compares, packed bitmask load/AND/store,
//!   loop overhead and a well-predicted loop branch).
//! * [`lower_hmc_scan`] — the stock HMC atomic-ISA path: per-region
//!   [`hipe_isa::VaultOp::LoadCmp`] dispatches executed by the vault
//!   functional units (16 B operands on the stock machine,
//!   [`STOCK_HMC_OP`]), with the mask combine/pack/store work kept on
//!   the host.
//! * [`lower_logic_aggregate`] — the fused near-data aggregate path
//!   for `SUM(l_extendedprice * l_discount)` queries on HIVE/HIPE:
//!   each region's scan block is extended with loads of the price and
//!   discount chunks, a lane-wise `Mul`, and a dot-product `AddReduce`
//!   against the match mask into the region's lane of a group partial
//!   register, flushed one row-buffer store per 32-region group next
//!   to the mask output ([`AGG_SLOT_BYTES`] per region) — the host
//!   only reads back and combines the compact partials instead of
//!   gathering matched tuples over the links. On HIPE the whole tail
//!   is predicated, so regions without matches squash it.
//!
//! The logic-layer lowerings are *partition-aware*: over a
//! vault-partitioned [`hipe_db::DsmLayout`] they emit one
//! [`hipe_isa::LogicProgram`] per vault group — each covering exactly
//! the regions the HMC interleave places in that group's vaults — so
//! N logic-layer engines can scan the table concurrently without ever
//! sharing a bank. A single-partition layout produces the historical
//! monolithic stream, address for address.
//!
//! Every entry point returns a typed [`CompileError`] for invalid
//! inputs (zero-row layouts, aggregate lowering of non-aggregating
//! queries) instead of panicking, and the driver's `Backend::compile`
//! surfaces the error unchanged.
//!
//! The lowering is *timing-oriented*: the emitted streams drive the
//! cycle models, while functional results are computed by the engines
//! (logic path) or by the top-level `hipe` crate's host executor over
//! the memory image (host paths). Every lowering also returns the set
//! of regions it scans, so executors read back or evaluate exactly
//! those regions and never consult the zone map again.

mod error;
mod hmc;
mod host;
mod logic;

pub use error::CompileError;
pub use hmc::{lower_hmc_scan, STOCK_HMC_OP};
pub use host::lower_host_scan;
pub use logic::{
    lower_logic_aggregate, lower_logic_scan, LogicScanProgram, AGG_SLOT_BYTES, REGION_ROWS,
};

use hipe_db::{Bitmask, DsmLayout, Query, ZoneMap};

/// The checks every lowering starts with, then the regions it emits
/// work for: all of them, or with a zone map only those whose
/// summaries can't rule out a match (one bit per region, set when
/// scanned).
fn scan_set(
    query: &Query,
    layout: &DsmLayout,
    prune: Option<&ZoneMap>,
) -> Result<Bitmask, CompileError> {
    if layout.rows() == 0 {
        return Err(CompileError::EmptyTable);
    }
    if query.predicates().iter().any(|p| !p.cmp.satisfiable()) {
        return Err(CompileError::PredicateUnsatisfiable);
    }
    Ok(match prune {
        Some(zm) => {
            assert_eq!(
                zm.regions(),
                layout.regions(),
                "zone map summarizes a different table than the layout"
            );
            zm.scan_set(query)
        }
        None => Bitmask::ones(layout.regions()),
    })
}
