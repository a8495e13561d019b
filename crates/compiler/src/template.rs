//! Host scan programs as region templates.
//!
//! Both host-driven lowerings — the x86 baseline and the stock HMC ISA
//! — emit the same micro-op sequence for every scanned unit of the
//! table, with only its addresses shifted by the unit's offset:
//! dependency distances are already relative to the dynamic stream.
//! So a plan stores one template per pass plus the scanned-region set,
//! and [`HostScanProgram::for_each_op`] expands it into the dynamic
//! stream while it executes. The stream's order, its dependency
//! distances and the mask-word flush rule are decided here, once, for
//! both lowerings.

use hipe_db::{Bitmask, COLUMN_BYTES, REGION_ROWS};
use hipe_isa::{MicroOp, MicroOpKind, VaultOp};

// A packed mask word, one `u64` of match bits, covers two regions:
// region `r` is in word `r / 2`.
const _: () = assert!(2 * REGION_ROWS == 64);

/// One pass of a host scan over every scanned unit.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct Pass {
    /// The ops of one unit, at the addresses of unit 0.
    pub(crate) body: Vec<MicroOp>,
    /// The ops that flush a packed mask word, at the address of word 0.
    pub(crate) flush: Vec<MicroOp>,
}

/// A lowered host-side scan (x86 baseline or stock HMC ISA): per-pass
/// unit templates plus the scanned-region set.
///
/// The table is cut into *units* of `unit_rows` rows — the 8-row line
/// of the x86 column-at-a-time loop, or the 32-row region of an HMC-ISA
/// dispatch block. Each pass visits every unit of every scanned region
/// in ascending order and emits, per unit:
///
/// 1. the pass body, addresses shifted by the unit's byte offset;
/// 2. the mask-word flush, addresses shifted to the word, if the unit
///    is the last one of the last scanned region of its 64-row word;
/// 3. the loop overhead: an index increment and a well-predicted
///    branch.
///
/// The ops never exist as a stored stream: a plan keeps only the
/// templates, whatever the table's size.
///
/// # Example
///
/// ```
/// use hipe_compiler::lower_host_scan;
/// use hipe_db::{DsmLayout, Query};
///
/// let layout = DsmLayout::new(0, 128);
/// let program = lower_host_scan(&Query::quantity_below_permille(100), &layout, None)
///     .expect("128 rows");
/// let mut ops = 0;
/// program.for_each_op(|_| ops += 1);
/// // 16 lines x 5 ops, plus one mask-word store per 64 rows.
/// assert_eq!(ops, 16 * 5 + 2);
/// assert_eq!(program.len(), ops);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HostScanProgram {
    scanned: Bitmask,
    /// Units in the whole table (the last one may be ragged).
    units: usize,
    unit_rows: usize,
    passes: Vec<Pass>,
}

/// `op` with its memory address moved `offset` bytes up.
#[inline(always)]
fn shifted(mut op: MicroOp, offset: u64) -> MicroOp {
    match &mut op.kind {
        MicroOpKind::Load { addr, .. }
        | MicroOpKind::Store { addr, .. }
        | MicroOpKind::HmcDispatch { addr, .. } => *addr += offset,
        _ => {}
    }
    op
}

impl HostScanProgram {
    /// Wraps the pass templates of a scan over `rows` rows cut into
    /// `unit_rows`-row units (a divisor of the 32-row region).
    pub(crate) fn new(scanned: Bitmask, rows: usize, unit_rows: usize, passes: Vec<Pass>) -> Self {
        debug_assert_eq!(REGION_ROWS % unit_rows, 0);
        HostScanProgram {
            scanned,
            units: rows.div_ceil(unit_rows),
            unit_rows,
            passes,
        }
    }

    /// The loop overhead closing every unit.
    fn loop_ops() -> [MicroOp; 2] {
        [
            MicroOp::new(MicroOpKind::IntAlu),
            MicroOp::new(MicroOpKind::Branch { mispredict: false }).with_deps(1, 0),
        ]
    }

    /// The regions the program scans, one bit per 32-row region. The
    /// host executor evaluates the functional mask over the 64-row
    /// words these regions touch only.
    pub fn scanned_regions(&self) -> &Bitmask {
        &self.scanned
    }

    /// Number of micro-ops [`for_each_op`](Self::for_each_op) emits,
    /// in closed form: per pass, `body + 2` ops per scanned unit plus
    /// `flush` ops per mask word holding a scanned region.
    pub fn len(&self) -> usize {
        let per_region = REGION_ROWS / self.unit_rows;
        let regions = self.scanned.len();
        let mut units = self.scanned.count_ones() * per_region;
        if regions > 0 && self.scanned.get(regions - 1) {
            units -= regions * per_region - self.units;
        }
        // A word holds regions 2k and 2k + 1, which never straddle a
        // `u64` of the region set.
        let words: usize = self
            .scanned
            .words()
            .iter()
            .map(|&w| ((w | w >> 1) & 0x5555_5555_5555_5555).count_ones() as usize)
            .sum();
        self.passes
            .iter()
            .map(|p| units * (p.body.len() + 2) + words * p.flush.len())
            .sum()
    }

    /// The program with every vault operation's operands zeroed: a
    /// `LoadCmp`'s bounds and an `AddImm`'s immediate. No timing model
    /// reads them (the core passes a dispatch's address, size and
    /// result bytes to its memory port, nothing else), so two programs
    /// equal here run in the same cycles: the host executor keys its
    /// replayed timing on this projection.
    pub fn without_operands(&self) -> HostScanProgram {
        let mut program = self.clone();
        let ops = program.passes.iter_mut();
        for op in ops.flat_map(|p| p.body.iter_mut().chain(&mut p.flush)) {
            if let MicroOpKind::HmcDispatch { op: vault_op, .. } = &mut op.kind {
                *vault_op = match *vault_op {
                    VaultOp::LoadCmp { .. } => VaultOp::LoadCmp { lo: 0, hi: 0 },
                    VaultOp::LoadAnd => VaultOp::LoadAnd,
                    VaultOp::AddImm(_) => VaultOp::AddImm(0),
                };
            }
        }
        program
    }

    /// Returns `true` for a fully pruned scan, which emits no op.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Feeds the program's dynamic micro-op stream to `f`, in order.
    #[inline]
    pub fn for_each_op(&self, mut f: impl FnMut(MicroOp)) {
        let per_region = REGION_ROWS / self.unit_rows;
        let unit_bytes = self.unit_rows as u64 * COLUMN_BYTES;
        let regions = self.scanned.len();
        let tail = Self::loop_ops();
        for pass in &self.passes {
            for r in self.scanned.iter_ones() {
                let first = r * per_region;
                let end = (first + per_region).min(self.units);
                // The last scanned region of a word flushes it.
                let flush = r % 2 == 1 || r + 1 == regions || !self.scanned.get(r + 1);
                for u in first..end {
                    let offset = u as u64 * unit_bytes;
                    for &op in &pass.body {
                        f(shifted(op, offset));
                    }
                    if flush && u + 1 == end {
                        let word_offset = (r / 2) as u64 * 8;
                        for &op in &pass.flush {
                            f(shifted(op, word_offset));
                        }
                    }
                    for op in tail {
                        f(op);
                    }
                }
            }
        }
    }

    /// The expanded stream, for inspection in tests.
    #[cfg(test)]
    pub(crate) fn ops(&self) -> Vec<MicroOp> {
        let mut ops = Vec::with_capacity(self.len());
        self.for_each_op(|op| ops.push(op));
        ops
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use crate::{hmc, host, lower_hmc_scan, lower_host_scan, STOCK_HMC_OP};
    use hipe_db::{
        Bitmask, CmpOp, Column, ColumnPredicate, DsmLayout, LineitemTable, Query, SplitMix64,
        ZoneMap,
    };
    use hipe_isa::OpSize;

    /// 1-, 2- and 3-predicate conjunctions (the last is Q6's scan).
    pub(crate) fn queries() -> [Query; 3] {
        let quantity = ColumnPredicate::new(Column::Quantity, CmpOp::Lt(24));
        let discount = ColumnPredicate::new(Column::Discount, CmpOp::Range(5, 7));
        [
            Query::new(vec![quantity], false),
            Query::new(vec![discount, quantity], false),
            Query::q6(),
        ]
    }

    /// Region sets beside the full one: seeded random ones at several
    /// densities (isolated survivors, fully pruned words, the last
    /// region dropped or kept), every odd or every even region, only
    /// the last region, and none at all.
    pub(crate) fn scan_sets(regions: usize, seed: u64) -> Vec<Bitmask> {
        let mut rng = SplitMix64::new(seed);
        let mut sets: Vec<Bitmask> = [2, 8, 50, 92]
            .iter()
            .map(|&pct| (0..regions).map(|_| rng.below(100) < pct).collect())
            .collect();
        sets.push((0..regions).map(|r| r % 2 == 1).collect());
        sets.push((0..regions).map(|r| r % 2 == 0).collect());
        sets.push((0..regions).map(|r| r + 1 == regions).collect());
        sets.push(Bitmask::zeros(regions));
        sets.push(Bitmask::ones(regions));
        sets
    }

    /// Checks both lowerings of `q` over `layout` against the reference
    /// streams, for the lowered scan set and for each of `sets`.
    fn check(q: &Query, layout: &DsmLayout, prune: Option<&ZoneMap>, sets: &[Bitmask]) {
        let what = format!("{} rows, {} partitions", layout.rows(), layout.partitions());
        let x86 = lower_host_scan(q, layout, prune).expect("valid");
        let mut programs = vec![("x86", x86, None)];
        for size in OpSize::ALL {
            let p = lower_hmc_scan(q, layout, size, prune).expect("valid");
            programs.push(("hmc", p, Some(size)));
        }
        for (arch, program, size) in programs {
            let scanned = program.scanned_regions().clone();
            for set in std::iter::once(&scanned).chain(sets) {
                let p = super::HostScanProgram {
                    scanned: set.clone(),
                    ..program.clone()
                };
                let expect = match size {
                    None => host::reference(q, layout, set),
                    Some(size) => hmc::reference(q, layout, size, set),
                };
                let ops = p.ops();
                assert!(
                    ops == expect,
                    "{arch} {size:?} stream differs: {what}, [{q}]"
                );
                assert_eq!(p.len(), expect.len(), "{arch} {size:?} len: {what}, [{q}]");
                assert_eq!(p.is_empty(), expect.is_empty());
            }
        }
    }

    #[test]
    fn expansion_equals_the_reference_on_plain_and_ragged_layouts() {
        for rows in [1, 31, 32, 33, 63, 64, 65, 70, 96, 100, 1024, 4097] {
            let layout = DsmLayout::new(0, rows);
            for q in queries() {
                check(&q, &layout, None, &scan_sets(layout.regions(), rows as u64));
            }
        }
    }

    #[test]
    fn expansion_equals_the_reference_on_partitioned_layouts() {
        for partitions in [2, 8, 32] {
            for rows in [33, 70, 4097] {
                let layout = DsmLayout::partitioned(0, rows, partitions);
                for q in queries() {
                    let sets = scan_sets(layout.regions(), (rows * partitions) as u64);
                    check(&q, &layout, None, &sets);
                }
            }
        }
    }

    #[test]
    fn expansion_equals_the_reference_on_zone_map_pruned_tables() {
        // A shipdate-clustered table: narrow windows keep a short run
        // of regions (whole words pruned around it), and a window
        // before the table's dates prunes everything.
        for (rows, partitions) in [(4096, 1), (4097, 8), (70, 1), (2048, 2)] {
            let t = LineitemTable::generate_clustered_range(7, 0, rows, rows);
            let zm = ZoneMap::build(&t);
            let layout = DsmLayout::partitioned(0, rows, partitions);
            let mut qs = queries().to_vec();
            qs.extend([1, 30, 100, 600].map(Query::shipdate_window_permille));
            qs.push(Query::new(
                vec![ColumnPredicate::new(Column::Shipdate, CmpOp::Range(0, 50))],
                false,
            ));
            for q in &qs {
                check(q, &layout, Some(&zm), &[]);
            }
        }
        let t = LineitemTable::generate_clustered_range(3, 1024, 1024, 2048);
        let zm = ZoneMap::build(&t);
        let layout = DsmLayout::new(0, 1024);
        let q = Query::new(
            vec![ColumnPredicate::new(Column::Shipdate, CmpOp::Range(0, 50))],
            false,
        );
        let empty = lower_hmc_scan(&q, &layout, STOCK_HMC_OP, Some(&zm)).expect("valid");
        assert!(empty.is_empty());
        check(&q, &layout, Some(&zm), &[]);
    }

    #[test]
    fn programs_differing_only_in_constants_erase_to_one_shape() {
        let layout = DsmLayout::new(0, 4097);
        let below = |t| {
            let p = ColumnPredicate::new(Column::Quantity, CmpOp::Lt(t));
            Query::new(vec![p], false)
        };
        let (a, b) = (below(2), below(40));
        let x86 = |q: &Query| lower_host_scan(q, &layout, None).expect("valid");
        let hmc = |q: &Query, size| lower_hmc_scan(q, &layout, size, None).expect("valid");
        // x86 templates carry no constant; HMC-ISA's carry the bounds
        // until they are erased.
        assert_eq!(x86(&a), x86(&b));
        assert_ne!(hmc(&a, STOCK_HMC_OP), hmc(&b, STOCK_HMC_OP));
        for size in OpSize::ALL {
            let (wa, wb) = (
                hmc(&a, size).without_operands(),
                hmc(&b, size).without_operands(),
            );
            assert_eq!(wa, wb, "{size:?}");
            assert_eq!(wa.ops().len(), hmc(&a, size).len());
        }
        // The projection keeps everything else: op size, predicate
        // shape and scanned regions.
        let wide = hmc(&a, OpSize::MAX).without_operands();
        assert_ne!(hmc(&a, STOCK_HMC_OP).without_operands(), wide);
        let q6 = hmc(&Query::q6(), STOCK_HMC_OP).without_operands();
        assert_ne!(hmc(&a, STOCK_HMC_OP).without_operands(), q6);
        let pruned = super::HostScanProgram {
            scanned: Bitmask::zeros(layout.regions()),
            ..hmc(&a, STOCK_HMC_OP)
        };
        assert_ne!(
            pruned.without_operands(),
            hmc(&b, STOCK_HMC_OP).without_operands()
        );
    }
}
