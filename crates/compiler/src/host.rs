//! Lowering of select scans to x86-baseline micro-op programs.

use crate::error::CompileError;
use crate::template::{HostScanProgram, Pass};
#[cfg(test)]
use hipe_db::{Bitmask, COLUMN_BYTES, REGION_ROWS};
use hipe_db::{DsmLayout, Query, ZoneMap};
use hipe_isa::{MicroOp, MicroOpKind, OpSize};

/// Rows per vector line: one 64 B cache line of 8 B column values.
const LINE_ROWS: usize = 8;

/// Lines per packed-mask word: 8 lines x 8 rows = 64 rows = one `u64`
/// of match bits.
#[cfg(test)]
const LINES_PER_MASK_WORD: usize = 8;

/// Lowers `query` over a DSM `layout` into the program of a
/// vectorized column-at-a-time scan, writing a packed 1-bit-per-row
/// match mask at the layout's mask area base.
///
/// The modelled kernel is the paper's x86/AVX baseline (Figure 1b):
/// for every predicate, stream the column through the cache hierarchy
/// in 64 B vector loads, compare each lane against the immediate,
/// pack the lane results into bits, and combine them into the mask —
/// the first predicate stores fresh mask words, later predicates
/// read-modify-write them. Each line also carries the loop-overhead
/// ALU op and a well-predicted loop branch. The program is one
/// [`HostScanProgram`] pass per predicate over 8-row lines: a
/// predicate's line template, its mask-word tail, and the scanned
/// regions, expanded into the stream only as it executes.
///
/// With `prune` set, the loop skips every 64 B line of a region whose
/// zone-map summaries prove the conjunction can't match (the modelled
/// kernel walks a region skip-list instead of the raw row range), and
/// a packed mask word is only written if at least one of its 64 rows
/// survives — fully pruned words keep a fresh cube's zeros, which
/// is already the correct all-zero mask. A fully pruned query lowers
/// to a valid *empty* program, never an error.
///
/// The program carries the scanned-region set (one bit per 32-row
/// region). The host executor evaluates the functional mask over the
/// 64-row words those regions touch only, so pruning removes
/// functional work as well as timed work.
///
/// # Example
///
/// ```
/// use hipe_compiler::lower_host_scan;
/// use hipe_db::{DsmLayout, PruneStats, Query};
///
/// let layout = DsmLayout::new(0, 512);
/// let program = lower_host_scan(&Query::q6(), &layout, None).expect("512 rows");
/// // Three predicates, 64 lines each, 5 micro-ops per line, plus the
/// // mask-word tails: 8 stores, then 8 load-AND-stores twice.
/// assert_eq!(program.len(), 3 * 64 * 5 + 8 + 2 * 8 * 3);
/// assert_eq!(PruneStats::of(program.scanned_regions()), PruneStats::unpruned(16));
/// ```
///
/// # Errors
///
/// Returns [`CompileError::EmptyTable`] if the layout has zero rows,
/// [`CompileError::PredicateUnsatisfiable`] if a predicate is
/// statically impossible (inverted range).
pub fn lower_host_scan(
    query: &Query,
    layout: &DsmLayout,
    prune: Option<&ZoneMap>,
) -> Result<HostScanProgram, CompileError> {
    let scanned = crate::scan_set(query, layout, prune)?;
    let mask_base = layout.mask_base();
    let vec_size = OpSize::new(64).expect("64 B is a supported vector width");
    let store = MicroOp::new(MicroOpKind::Store {
        addr: mask_base,
        bytes: 8,
    })
    .with_deps(1, 0);
    let passes = query
        .predicates()
        .iter()
        .enumerate()
        .map(|(pi, p)| Pass {
            body: vec![
                // Vector load of 8 column values.
                MicroOp::new(MicroOpKind::Load {
                    addr: layout.column_base(p.column),
                    bytes: 64,
                }),
                // Lane-wise compare against the immediate(s).
                MicroOp::new(MicroOpKind::VecAlu { size: vec_size }).with_deps(1, 0),
                // Pack lane results to bits (movemask-style).
                MicroOp::new(MicroOpKind::IntAlu).with_deps(1, 0),
            ],
            // The last surviving line of a mask word combines and
            // writes back its 64 packed bits.
            flush: if pi == 0 {
                // Fresh mask word: store the packed bits.
                vec![store]
            } else {
                // Refine: load, AND with the packed bits, store.
                vec![
                    MicroOp::new(MicroOpKind::Load {
                        addr: mask_base,
                        bytes: 8,
                    }),
                    MicroOp::new(MicroOpKind::IntAlu).with_deps(1, 2),
                    store,
                ]
            },
        })
        .collect();
    Ok(HostScanProgram::new(
        scanned,
        layout.rows(),
        LINE_ROWS,
        passes,
    ))
}

/// The materialized stream [`lower_host_scan`] expands to: the
/// lowering as it was before plans became templates, kept as the
/// reference the template expansion is tested against.
#[cfg(test)]
pub(crate) fn reference(query: &Query, layout: &DsmLayout, scanned: &Bitmask) -> Vec<MicroOp> {
    let mask_base = layout.mask_base();
    let vec_size = OpSize::new(64).expect("64 B is a supported vector width");
    let lines = layout.rows().div_ceil(LINE_ROWS);
    let live_lines: Vec<usize> = (0..lines)
        .filter(|&l| scanned.get(l * LINE_ROWS / REGION_ROWS))
        .collect();
    let mut ops = Vec::new();

    for (pi, p) in query.predicates().iter().enumerate() {
        let col = layout.column_base(p.column);
        for (j, &line) in live_lines.iter().enumerate() {
            let addr = col + (line * LINE_ROWS) as u64 * COLUMN_BYTES;
            ops.push(MicroOp::new(MicroOpKind::Load { addr, bytes: 64 }));
            ops.push(MicroOp::new(MicroOpKind::VecAlu { size: vec_size }).with_deps(1, 0));
            ops.push(MicroOp::new(MicroOpKind::IntAlu).with_deps(1, 0));
            let word = line / LINES_PER_MASK_WORD;
            if live_lines
                .get(j + 1)
                .is_none_or(|&next| next / LINES_PER_MASK_WORD != word)
            {
                let mask_addr = mask_base + word as u64 * 8;
                if pi == 0 {
                    ops.push(
                        MicroOp::new(MicroOpKind::Store {
                            addr: mask_addr,
                            bytes: 8,
                        })
                        .with_deps(1, 0),
                    );
                } else {
                    ops.push(MicroOp::new(MicroOpKind::Load {
                        addr: mask_addr,
                        bytes: 8,
                    }));
                    ops.push(MicroOp::new(MicroOpKind::IntAlu).with_deps(1, 2));
                    ops.push(
                        MicroOp::new(MicroOpKind::Store {
                            addr: mask_addr,
                            bytes: 8,
                        })
                        .with_deps(1, 0),
                    );
                }
            }
            ops.push(MicroOp::new(MicroOpKind::IntAlu));
            ops.push(MicroOp::new(MicroOpKind::Branch { mispredict: false }).with_deps(1, 0));
        }
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipe_db::{CmpOp, Column, ColumnPredicate};

    fn one_pred_query() -> Query {
        Query::new(
            vec![ColumnPredicate::new(Column::Quantity, CmpOp::Lt(10))],
            false,
        )
    }

    #[test]
    fn stream_touches_whole_column() {
        let layout = DsmLayout::new(0, 1024);
        let ops = lower_host_scan(&one_pred_query(), &layout, None)
            .expect("non-empty")
            .ops();
        let col = layout.column_base(Column::Quantity);
        let loads: Vec<u64> = ops
            .iter()
            .filter_map(|o| match o.kind {
                MicroOpKind::Load { addr, bytes: 64 } => Some(addr),
                _ => None,
            })
            .collect();
        assert_eq!(loads.len(), 128);
        assert_eq!(loads[0], col);
        assert_eq!(*loads.last().expect("non-empty"), col + 127 * 64);
    }

    #[test]
    fn later_predicates_read_modify_write_mask() {
        let layout = DsmLayout::new(0, 64);
        let q = Query::q6();
        let ops = lower_host_scan(&q, &layout, None).expect("non-empty").ops();
        let mask_loads = ops
            .iter()
            .filter(|o| matches!(o.kind, MicroOpKind::Load { bytes: 8, .. }))
            .count();
        let mask_stores = ops
            .iter()
            .filter(|o| matches!(o.kind, MicroOpKind::Store { .. }))
            .count();
        // 64 rows = 1 mask word; predicate 0 stores it, predicates 1-2
        // load + store it.
        assert_eq!(mask_loads, 2);
        assert_eq!(mask_stores, 3);
    }

    #[test]
    fn loop_branches_are_predicted() {
        let layout = DsmLayout::new(0, 256);
        let ops = lower_host_scan(&one_pred_query(), &layout, None)
            .expect("non-empty")
            .ops();
        assert!(ops
            .iter()
            .all(|o| !matches!(o.kind, MicroOpKind::Branch { mispredict: true })));
    }

    #[test]
    fn tail_rows_emit_final_mask_word() {
        // 70 rows = 9 lines: the last (partial) word is flushed.
        let layout = DsmLayout::new(0, 70);
        let ops = lower_host_scan(&one_pred_query(), &layout, None)
            .expect("non-empty")
            .ops();
        let stores: Vec<u64> = ops
            .iter()
            .filter_map(|o| match o.kind {
                MicroOpKind::Store { addr, .. } => Some(addr),
                _ => None,
            })
            .collect();
        assert_eq!(stores, vec![layout.mask_base(), layout.mask_base() + 8]);
    }

    #[test]
    fn zero_rows_is_a_typed_error() {
        let layout = DsmLayout::new(0, 0);
        assert_eq!(
            lower_host_scan(&one_pred_query(), &layout, None).unwrap_err(),
            CompileError::EmptyTable
        );
    }

    #[test]
    fn inverted_range_is_a_typed_error() {
        let layout = DsmLayout::new(0, 64);
        let q = Query::new(
            vec![ColumnPredicate::new(Column::Quantity, CmpOp::Range(9, 2))],
            false,
        );
        assert_eq!(
            lower_host_scan(&q, &layout, None).unwrap_err(),
            CompileError::PredicateUnsatisfiable
        );
    }

    #[test]
    fn pruning_skips_lines_and_dead_mask_words() {
        let rows = 4096;
        let t = hipe_db::LineitemTable::generate_clustered_range(7, 0, rows, rows);
        let zm = hipe_db::ZoneMap::build(&t);
        let layout = DsmLayout::new(0, rows);
        let q = Query::shipdate_window_permille(100);
        let full = lower_host_scan(&q, &layout, None).expect("valid");
        let pruned = lower_host_scan(&q, &layout, Some(&zm)).expect("valid");
        assert_eq!(
            full.scanned_regions(),
            &hipe_db::Bitmask::ones(layout.regions())
        );
        assert_eq!(pruned.scanned_regions(), &zm.scan_set(&q));
        assert!(hipe_db::PruneStats::of(pruned.scanned_regions()).pruned > 0);
        assert!(pruned.len() < full.len());
        // Pruned stream only stores words at least one region of which
        // survives — a subset of the full stream's word addresses.
        let words = |ops: &[MicroOp]| -> Vec<u64> {
            ops.iter()
                .filter_map(|o| match o.kind {
                    MicroOpKind::Store { addr, .. } => Some(addr),
                    _ => None,
                })
                .collect()
        };
        let full_words = words(&full.ops());
        let pruned_words = words(&pruned.ops());
        assert!(pruned_words.len() < full_words.len());
        for a in pruned_words {
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
        let program = lower_host_scan(&q, &layout, Some(&zm)).expect("empty is valid");
        assert!(program.is_empty());
        assert!(program.ops().is_empty());
        assert_eq!(
            program.scanned_regions(),
            &hipe_db::Bitmask::zeros(layout.regions())
        );
    }
}
