//! Lowering of select scans to stock HMC-ISA dispatch streams.
//!
//! The stock (extended) HMC atomic ISA executes read-operate
//! instructions in the per-vault functional units: the host dispatches
//! one [`VaultOp::LoadCmp`] per operand-sized chunk of a column, the
//! vault compares the lanes next to the bank, and only the small result
//! mask crosses the links back. Everything else — combining predicate
//! masks, packing them into the 1-bit-per-row output format, storing
//! mask words — stays on the host, which is precisely what separates
//! this machine from HIVE/HIPE's in-cube program execution.

use crate::error::CompileError;
use crate::logic::REGION_ROWS;
use crate::template::{HostScanProgram, Pass};
use hipe_db::{CmpOp, DsmLayout, Query, ZoneMap};
use hipe_isa::{MicroOp, MicroOpKind, OpSize, VaultOp, LANE_BYTES};

/// Operand size of the *stock* HMC 2.1 atomic instructions: 16 bytes
/// (two 8 B lanes). The paper's extension study widens this up to one
/// 256 B row buffer; [`lower_hmc_scan`] accepts any [`OpSize`] so both
/// points are expressible, but the stock machine uses this one.
pub const STOCK_HMC_OP: OpSize = match OpSize::new(16) {
    Some(s) => s,
    None => panic!("16 B is a supported operation size"),
};

/// Link payload bytes of one dispatch response: the lane-mask result
/// rides in a single 16 B flit regardless of operand size.
const RESULT_FLIT_BYTES: u64 = 16;

/// Maps a database comparison onto the vault load-compare instruction
/// (an inclusive `lo <= lane <= hi` range).
///
/// Bounds saturate at the `i64` domain edges, which is exact for every
/// representable column value.
fn vault_cmp(cmp: CmpOp) -> VaultOp {
    let (lo, hi) = match cmp {
        CmpOp::Lt(x) => (i64::MIN, x.saturating_sub(1)),
        CmpOp::Le(x) => (i64::MIN, x),
        CmpOp::Gt(x) => (x.saturating_add(1), i64::MAX),
        CmpOp::Ge(x) => (x, i64::MAX),
        CmpOp::Eq(x) => (x, x),
        CmpOp::Range(lo, hi) => (lo, hi),
    };
    VaultOp::LoadCmp { lo, hi }
}

/// Lowers `query` over a DSM `layout` into the dispatch program of the
/// stock HMC-ISA machine, writing a packed 1-bit-per-row match mask at
/// the layout's mask area base.
///
/// The scan is tiled into the same 256 B regions (32 rows) as the
/// logic-layer lowering, and each region issues, per predicate, one
/// [`MicroOpKind::HmcDispatch`] per `op_size` chunk of the region's
/// column data. The dispatches are independent (the out-of-order core
/// overlaps them up to its load-queue depth); the host-side combine —
/// lane-mask ANDs across predicates, movemask-style packing, and one
/// packed 8 B mask-word store per 64 rows — is emitted as dependent ALU
/// and store micro-ops behind them. The program is a single
/// [`HostScanProgram`] pass over regions: the region template and the
/// scanned regions, expanded into the stream only as it executes.
///
/// Use [`STOCK_HMC_OP`] (16 B) for the paper's stock machine; larger
/// sizes model the paper's operand-size extension sweep.
///
/// With `prune` set, a region whose zone-map summaries prove the
/// conjunction can't match emits nothing at all — no dispatches, no
/// combine, no loop overhead — and a packed mask word is stored only
/// when at least one of its two regions survives (fully pruned words
/// keep the reset image's correct zeros). A fully pruned query lowers
/// to a valid *empty* program, never an error. The program carries
/// the scanned-region set (one bit per region), as in
/// [`lower_host_scan`](crate::lower_host_scan).
///
/// # Example
///
/// ```
/// use hipe_compiler::{lower_hmc_scan, STOCK_HMC_OP};
/// use hipe_db::{DsmLayout, Query};
/// use hipe_isa::MicroOpKind;
///
/// let layout = DsmLayout::new(0, 64);
/// let program = lower_hmc_scan(&Query::q6(), &layout, STOCK_HMC_OP, None).expect("64 rows");
/// let mut dispatches = 0;
/// program.for_each_op(|op| {
///     dispatches += usize::from(matches!(op.kind, MicroOpKind::HmcDispatch { .. }));
/// });
/// // 2 regions x 3 predicates x (256 B / 16 B) chunks.
/// assert_eq!(dispatches, 2 * 3 * 16);
/// // Per region 2 x 3 x 16 dispatch/combine/pack ops and 2 loop ops,
/// // plus one mask-word store.
/// assert_eq!(program.len(), 2 * (2 * 3 * 16 + 2) + 1);
/// ```
///
/// # Errors
///
/// Returns [`CompileError::EmptyTable`] if the layout has zero rows,
/// [`CompileError::PredicateUnsatisfiable`] if a predicate is
/// statically impossible (inverted range).
pub fn lower_hmc_scan(
    query: &Query,
    layout: &DsmLayout,
    op_size: OpSize,
    prune: Option<&ZoneMap>,
) -> Result<HostScanProgram, CompileError> {
    let scanned = crate::scan_set(query, layout, prune)?;
    let chunks = (REGION_ROWS as u64 * LANE_BYTES / op_size.bytes()) as usize;
    let npreds = query.predicates().len();
    let mut body = Vec::with_capacity(2 * npreds * chunks);
    // Dispatch phase: every predicate's chunks go out back to back;
    // responses return out of order and are combined below.
    for p in query.predicates() {
        let col = layout.column_base(p.column);
        let op = vault_cmp(p.cmp);
        for c in 0..chunks {
            body.push(MicroOp::new(MicroOpKind::HmcDispatch {
                addr: col + c as u64 * op_size.bytes(),
                size: op_size,
                op,
                result_bytes: RESULT_FLIT_BYTES,
            }));
        }
    }
    // Host-side combine: AND the per-predicate lane masks chunk by
    // chunk, then pack lanes to bits. Modelled as a dependent ALU
    // chain — each step consumes the previous combine result and one
    // dispatch response (`chunks * npreds` back reaches the region's
    // first response in the dynamic stream).
    for _ in 0..(npreds - 1) * chunks {
        body.push(MicroOp::new(MicroOpKind::IntAlu).with_deps(1, (chunks * npreds) as u32));
    }
    for _ in 0..chunks {
        // movemask-style packing of one chunk's lanes.
        body.push(MicroOp::new(MicroOpKind::IntAlu).with_deps(1, 0));
    }
    // One packed 8 B mask word covers 64 rows, two regions.
    let flush = vec![MicroOp::new(MicroOpKind::Store {
        addr: layout.mask_base(),
        bytes: 8,
    })
    .with_deps(1, 0)];
    let pass = Pass { body, flush };
    Ok(HostScanProgram::new(
        scanned,
        layout.rows(),
        REGION_ROWS,
        vec![pass],
    ))
}

/// The materialized stream [`lower_hmc_scan`] expands to: the lowering
/// as it was before plans became templates, kept as the reference the
/// template expansion is tested against.
#[cfg(test)]
pub(crate) fn reference(
    query: &Query,
    layout: &DsmLayout,
    op_size: OpSize,
    scanned: &hipe_db::Bitmask,
) -> Vec<MicroOp> {
    let mask_base = layout.mask_base();
    let region_bytes = REGION_ROWS as u64 * LANE_BYTES;
    let chunks = (region_bytes / op_size.bytes()) as usize;
    let npreds = query.predicates().len();
    let survivors: Vec<usize> = scanned.iter_ones().collect();
    let mut ops = Vec::new();

    for (j, &region) in survivors.iter().enumerate() {
        let chunk_base = region as u64 * region_bytes;
        for p in query.predicates() {
            let col = layout.column_base(p.column) + chunk_base;
            let op = vault_cmp(p.cmp);
            for c in 0..chunks {
                ops.push(MicroOp::new(MicroOpKind::HmcDispatch {
                    addr: col + c as u64 * op_size.bytes(),
                    size: op_size,
                    op,
                    result_bytes: RESULT_FLIT_BYTES,
                }));
            }
        }
        for _ in 0..(npreds - 1) * chunks {
            ops.push(MicroOp::new(MicroOpKind::IntAlu).with_deps(1, (chunks * npreds) as u32));
        }
        for _ in 0..chunks {
            ops.push(MicroOp::new(MicroOpKind::IntAlu).with_deps(1, 0));
        }
        let word = region / 2;
        if survivors.get(j + 1).is_none_or(|&next| next / 2 != word) {
            ops.push(
                MicroOp::new(MicroOpKind::Store {
                    addr: mask_base + word as u64 * 8,
                    bytes: 8,
                })
                .with_deps(1, 0),
            );
        }
        ops.push(MicroOp::new(MicroOpKind::IntAlu));
        ops.push(MicroOp::new(MicroOpKind::Branch { mispredict: false }).with_deps(1, 0));
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipe_db::{Column, ColumnPredicate};

    fn one_pred_query() -> Query {
        Query::new(
            vec![ColumnPredicate::new(Column::Quantity, CmpOp::Lt(10))],
            false,
        )
    }

    fn dispatches(ops: &[MicroOp]) -> Vec<(u64, OpSize, VaultOp)> {
        ops.iter()
            .filter_map(|o| match o.kind {
                MicroOpKind::HmcDispatch { addr, size, op, .. } => Some((addr, size, op)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn stock_ops_cover_whole_column_in_16_byte_chunks() {
        let layout = DsmLayout::new(0, 1024);
        let ops = lower_hmc_scan(&one_pred_query(), &layout, STOCK_HMC_OP, None)
            .expect("non-empty layout")
            .ops();
        let d = dispatches(&ops);
        // 1024 rows x 8 B / 16 B chunks.
        assert_eq!(d.len(), 512);
        let col = layout.column_base(Column::Quantity);
        assert_eq!(d[0].0, col);
        assert_eq!(d.last().expect("non-empty").0, col + 1023 * 8 - 8);
        assert!(d.iter().all(|&(_, s, _)| s == STOCK_HMC_OP));
    }

    #[test]
    fn comparisons_become_inclusive_ranges() {
        let layout = DsmLayout::new(0, 32);
        let q = Query::q6();
        let ops = lower_hmc_scan(&q, &layout, OpSize::MAX, None)
            .expect("non-empty layout")
            .ops();
        let d = dispatches(&ops);
        assert_eq!(d.len(), 3);
        assert_eq!(d[0].2, VaultOp::LoadCmp { lo: 731, hi: 1095 });
        assert_eq!(d[1].2, VaultOp::LoadCmp { lo: 5, hi: 7 });
        assert_eq!(
            d[2].2,
            VaultOp::LoadCmp {
                lo: i64::MIN,
                hi: 23
            }
        );
    }

    #[test]
    fn mask_words_are_stored_every_64_rows() {
        // 100 rows = 4 regions = 2 packed words.
        let layout = DsmLayout::new(0, 100);
        let ops = lower_hmc_scan(&one_pred_query(), &layout, STOCK_HMC_OP, None)
            .expect("non-empty layout")
            .ops();
        let stores: Vec<u64> = ops
            .iter()
            .filter_map(|o| match o.kind {
                MicroOpKind::Store { addr, bytes: 8 } => Some(addr),
                _ => None,
            })
            .collect();
        assert_eq!(stores, vec![layout.mask_base(), layout.mask_base() + 8]);
    }

    #[test]
    fn odd_region_count_flushes_final_word() {
        // 96 rows = 3 regions: word 0 after region 1, word 1 after the
        // unpaired region 2.
        let layout = DsmLayout::new(0, 96);
        let ops = lower_hmc_scan(&one_pred_query(), &layout, STOCK_HMC_OP, None)
            .expect("non-empty layout")
            .ops();
        let stores = ops
            .iter()
            .filter(|o| matches!(o.kind, MicroOpKind::Store { .. }))
            .count();
        assert_eq!(stores, 2);
    }

    #[test]
    fn multi_predicate_regions_emit_host_combine_alus() {
        let layout = DsmLayout::new(0, 32);
        let ops = lower_hmc_scan(&Query::q6(), &layout, STOCK_HMC_OP, None)
            .expect("non-empty layout")
            .ops();
        let alus = ops
            .iter()
            .filter(|o| matches!(o.kind, MicroOpKind::IntAlu))
            .count();
        // 2 ANDs x 16 chunks + 16 packs + 1 loop increment.
        assert_eq!(alus, 2 * 16 + 16 + 1);
    }

    #[test]
    fn wider_ops_shrink_the_dispatch_stream() {
        let layout = DsmLayout::new(0, 4096);
        let q = one_pred_query();
        let stock = dispatches(
            &lower_hmc_scan(&q, &layout, STOCK_HMC_OP, None)
                .expect("non-empty")
                .ops(),
        )
        .len();
        let max = dispatches(
            &lower_hmc_scan(&q, &layout, OpSize::MAX, None)
                .expect("non-empty")
                .ops(),
        )
        .len();
        assert_eq!(stock, 16 * max);
    }

    #[test]
    fn branches_are_predicted() {
        let layout = DsmLayout::new(0, 256);
        let ops = lower_hmc_scan(&one_pred_query(), &layout, STOCK_HMC_OP, None)
            .expect("non-empty layout")
            .ops();
        assert!(ops
            .iter()
            .all(|o| !matches!(o.kind, MicroOpKind::Branch { mispredict: true })));
    }

    #[test]
    fn zero_rows_is_a_typed_error() {
        let layout = DsmLayout::new(0, 0);
        assert_eq!(
            lower_hmc_scan(&one_pred_query(), &layout, STOCK_HMC_OP, None).unwrap_err(),
            CompileError::EmptyTable
        );
    }

    #[test]
    fn inverted_range_is_a_typed_error() {
        let layout = DsmLayout::new(0, 64);
        let q = Query::new(
            vec![ColumnPredicate::new(Column::Quantity, CmpOp::Range(7, 1))],
            false,
        );
        assert_eq!(
            lower_hmc_scan(&q, &layout, STOCK_HMC_OP, None).unwrap_err(),
            CompileError::PredicateUnsatisfiable
        );
    }

    #[test]
    fn pruned_regions_emit_no_dispatches() {
        let rows = 4096; // 128 regions
        let t = hipe_db::LineitemTable::generate_clustered_range(7, 0, rows, rows);
        let zm = hipe_db::ZoneMap::build(&t);
        let layout = DsmLayout::new(0, rows);
        let q = Query::shipdate_window_permille(100);
        let full = lower_hmc_scan(&q, &layout, STOCK_HMC_OP, None)
            .expect("valid")
            .ops();
        let program = lower_hmc_scan(&q, &layout, STOCK_HMC_OP, Some(&zm)).expect("valid");
        let pruned = program.ops();
        let stats = hipe_db::PruneStats::of(program.scanned_regions());
        assert_eq!(program.scanned_regions(), &zm.scan_set(&q));
        assert!(stats.pruned > 0);
        assert_eq!(stats.total(), 128);
        let full_d = dispatches(&full).len();
        let pruned_d = dispatches(&pruned).len();
        // Dispatch count shrinks in exact proportion to pruned regions.
        assert_eq!(pruned_d, full_d * stats.scanned / 128);
        // Surviving word stores are a subset of the full stream's.
        let words = |ops: &[MicroOp]| -> Vec<u64> {
            ops.iter()
                .filter_map(|o| match o.kind {
                    MicroOpKind::Store { addr, .. } => Some(addr),
                    _ => None,
                })
                .collect()
        };
        let full_words = words(&full);
        for a in words(&pruned) {
            assert!(full_words.contains(&a));
        }
    }

    #[test]
    fn fully_pruned_scan_is_a_valid_empty_stream() {
        let total = 2048;
        let t = hipe_db::LineitemTable::generate_clustered_range(3, total / 2, total / 2, total);
        let zm = hipe_db::ZoneMap::build(&t);
        let layout = DsmLayout::new(0, total / 2);
        let q = Query::new(
            vec![ColumnPredicate::new(Column::Shipdate, CmpOp::Range(0, 50))],
            false,
        );
        let program = lower_hmc_scan(&q, &layout, STOCK_HMC_OP, Some(&zm)).expect("empty is valid");
        assert!(program.is_empty());
        assert!(program.ops().is_empty());
        assert_eq!(
            program.scanned_regions(),
            &hipe_db::Bitmask::zeros(layout.regions())
        );
    }
}
