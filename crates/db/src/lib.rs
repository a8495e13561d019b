//! Database substrate: TPC-H lineitem, storage layouts, select scans.
//!
//! The paper's workload is the selection scan of TPC-H Query 06 over a
//! 1 GB database. The original evaluation uses dbgen data; this crate
//! substitutes a deterministic synthetic generator with dbgen's
//! documented column distributions, which preserves the two properties
//! the experiments depend on:
//!
//! * the ~1.9 % conjunctive selectivity of Q6 (and each predicate's
//!   individual pass rate), which drives HIPE's predicated skipping;
//! * uniform value spread, so bitmask density is uncorrelated with
//!   address, as in dbgen output.
//!
//! Tables are stored in the decomposition storage model
//! ([`DsmLayout`], column-store, contiguous 8 B columns), the layout
//! of the paper's evaluation. Addresses, layouts and every timing
//! model count 8 B per value. The host keeps each column in the
//! narrowest integer type its generated values fit: `l_shipdate` as
//! `u16`, `l_discount` and `l_quantity` as `u8`, `l_extendedprice` as
//! `i32`, so a table takes 8 B per row ([`LineitemTable::column`] is a
//! [`Words`] view at the column's width, and [`LineitemTable::value`]
//! widens to `i64`).
//!
//! The [`scan`] module is the *reference executor*: a plain Rust
//! tuple-at-a-time select scan whose results every simulated
//! architecture must reproduce exactly (the integration tests enforce
//! this).
//!
//! # Example
//!
//! ```
//! use hipe_db::{LineitemTable, Query, scan};
//!
//! let table = LineitemTable::generate(1_000, 42);
//! let q6 = Query::q6();
//! let result = scan::reference(&table, &q6);
//! assert_eq!(q6.predicates().len(), 3);
//! // Q6 selects roughly 1.9 % of lineitem.
//! let sel = result.matches as f64 / table.rows() as f64;
//! assert!(sel > 0.005 && sel < 0.05, "selectivity {sel}");
//! ```

mod bitmask;
mod layout;
mod lineitem;
mod query;
mod rng;
pub mod scan;
mod zonemap;

pub use bitmask::{Bitmask, IterOnes};
pub use hipe_sim::Words;
pub use layout::{DsmLayout, COLUMN_BYTES, REGION_BYTES, REGION_ROWS, VAULTS};
pub use lineitem::{Column, LineitemTable, TableShape, SF1_ROWS};
pub use query::{CmpOp, ColumnPredicate, Query};
pub use rng::SplitMix64;
pub use zonemap::{PruneStats, RegionSummary, ZoneMap};
