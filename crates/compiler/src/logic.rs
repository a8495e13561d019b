//! Lowering of select scans (and fused aggregates) to HIVE/HIPE
//! logic-layer programs: one region template, expanded per vault-group
//! partition while the plan runs.

use crate::error::CompileError;
use hipe_db::{
    Bitmask, CmpOp, Column, DsmLayout, IterOnes, PruneStats, Query, ZoneMap, REGION_BYTES, VAULTS,
};
use hipe_isa::{AluOp, LogicInstr, OpSize, PartitionSpec, Predicate, RegId};

/// Rows covered by one logic-layer operation: a full 256 B register
/// (32 x 8 B lanes), which is also one DRAM row buffer.
pub use hipe_db::REGION_ROWS;

/// Bytes of one per-region partial-sum slot in the aggregate output
/// area: one 8 B lane per region.
pub const AGG_SLOT_BYTES: u64 = 8;

/// Regions whose partials share one 256 B partial-sum register (and
/// therefore one row-buffer store): the lane-merging `AddReduce`
/// deposits each region's sum into its own lane, and the register is
/// flushed once per group. One store per 32 regions keeps the
/// partial-store traffic off the banks that the column-load streams
/// sweep — a store per region was measured to collide with every
/// passing stream and stall the scan. Grouping is over a partition's
/// *own* region order, so every flush stays inside its vault group.
const AGG_GROUP: usize = 32;

// Register allocation, repeated per partition (every engine has its
// own bank). Consecutive surviving regions of one partition rotate
// two scan sets of (data, mask, tmp) so a region's loads overlap the
// previous region's stores (the interlocked bank resolves the WAR
// hazards), and — for fused aggregates — four tail sets of (price,
// discount, mask copy): the tail's wider rotation keeps its column
// loads' DRAM latency off the next regions' scan chain (the balanced
// bank has 36 registers; the scan alone leaves 30 of them idle). The
// two group partial-sum registers alternate between consecutive
// 32-region groups so a group's flush overlaps the next group's
// reduces.
const SCAN_SETS: [usize; 2] = [0, 3];
const TAIL_SETS: [usize; 4] = [6, 9, 12, 15];
const PARTIALS: [usize; 2] = [18, 19];

// A packed region-set word covers two 32-region vault sweeps, so one
// 64-bit lane mask selects a partition's regions in every word.
const _: () = assert!(2 * VAULTS == 64);

/// A lowered logic-layer scan: the region template every partition
/// expands, the scanned-region set, and the output-area map.
///
/// A partition's engine runs a flat in-order stream: one `Lock`, then
/// one block per scanned region it owns, in ascending order, then one
/// `Unlock` whose acknowledgement tells the host that the partition's
/// scan (and its stores) is complete. A partition with no scanned
/// region runs nothing at all. Region `i` covers rows
/// `[32 * i, 32 * i + 32)` and writes its match mask (one 0/1 lane
/// per row) to [`mask_addr`](Self::mask_addr)`(i)`; with a
/// single-partition layout the one stream is exactly the historical
/// monolithic stream.
///
/// Every region's block is the same apart from its addresses, which
/// shift by 256 B per region, and its register set, which rotates with
/// the region's ordinal among the partition's scanned regions. So the
/// plan stores region 0's block once per register set, and
/// [`cursor`](Self::cursor) expands a partition's stream while it
/// runs; [`partition_instrs`](Self::partition_instrs) counts it in
/// closed form. A plan's size follows its query, not the table.
///
/// For aggregate queries lowered with [`lower_logic_aggregate`], each
/// region's block additionally loads the `l_extendedprice` and
/// `l_discount` chunks, multiplies them, and dot-product-reduces the
/// products against the match mask into a lane of its partition's
/// group partial-sum register, flushed one row buffer per 32 owned
/// regions into the partition's own vaults; region `i`'s 8 B partial
/// lands at [`agg_addr`](Self::agg_addr)`(i)` — so only compact
/// partials (not per-tuple values) ever cross the serial links.
///
/// # Example
///
/// ```
/// use hipe_compiler::{lower_logic_scan, REGION_ROWS};
/// use hipe_db::{DsmLayout, Query};
///
/// let layout = DsmLayout::new(0, 1000);
/// let prog = lower_logic_scan(&Query::q6(), &layout, true, None).expect("non-empty layout");
/// assert_eq!(prog.regions(), 1000usize.div_ceil(REGION_ROWS));
/// assert_eq!(prog.partitions(), 1);
/// assert_eq!(prog.mask_addr(2), layout.mask_base() + 512);
/// // Lock + 9 instructions per region + Unlock, counted without
/// // expanding the stream.
/// assert_eq!(prog.total_instrs(), 2 + 9 * prog.regions());
/// assert_eq!(prog.cursor(0).count(), prog.total_instrs());
/// assert_eq!(prog.aggregate_base(), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LogicScanProgram {
    layout: DsmLayout,
    scanned: Bitmask,
    /// Region 0's scan block, one per scan register set.
    scan: [Vec<LogicInstr>; 2],
    /// Region 0's aggregate tail, reducing into lane 0 of the first
    /// partial register, one per tail register set; empty for a plain
    /// scan.
    tail: [Vec<LogicInstr>; 4],
}

impl LogicScanProgram {
    /// Number of vault-group partitions (== engines that will run).
    pub fn partitions(&self) -> usize {
        self.layout.partitions()
    }

    /// Partition `p`'s identity and owned vaults.
    pub fn spec(&self, p: usize) -> PartitionSpec {
        let vaults = self.layout.vault_group(p);
        PartitionSpec::new(p, vaults.start, vaults.len())
    }

    /// The program with every compare's immediates zeroed. No timing
    /// model reads them (the engine's ALU latency follows the op's
    /// class, and HIPE's squash decisions follow the running masks,
    /// not the constants that made them), so two programs equal here
    /// run in the same cycles over the same masks: the near-data
    /// executor keys its replayed timing on this projection. The op
    /// variants stay, as do the layout and the scanned regions.
    pub fn without_operands(&self) -> LogicScanProgram {
        let mut program = self.clone();
        let ops = program.scan.iter_mut().chain(&mut program.tail).flatten();
        for op in ops {
            if let LogicInstr::Alu { op, .. } = op {
                *op = match *op {
                    AluOp::CmpGeImm(_) => AluOp::CmpGeImm(0),
                    AluOp::CmpGtImm(_) => AluOp::CmpGtImm(0),
                    AluOp::CmpLeImm(_) => AluOp::CmpLeImm(0),
                    AluOp::CmpLtImm(_) => AluOp::CmpLtImm(0),
                    AluOp::CmpEqImm(_) => AluOp::CmpEqImm(0),
                    AluOp::CmpRangeImm(..) => AluOp::CmpRangeImm(0, 0),
                    other => other,
                };
            }
        }
        program
    }

    /// Partition `p`'s instruction stream, expanded region by region
    /// as it is consumed.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a partition index.
    pub fn cursor(&self, p: usize) -> LogicCursor<'_> {
        let block_len = 2 + self.scan[0].len() + self.tail[0].len() + 2;
        let mut cursor = LogicCursor {
            program: self,
            partition: p,
            lanes: self.lanes(p),
            regions: self.scanned.iter_ones(),
            next: None,
            ordinal: 0,
            group: None,
            block: Vec::with_capacity(block_len),
            at: 0,
        };
        cursor.next = cursor.next_region();
        cursor
    }

    /// Instructions in partition `p`'s stream, in closed form: none
    /// for a partition with no scanned region, else `Lock` and
    /// `Unlock`, one block per scanned region, and for a fused
    /// aggregate a zero and a flush per flush group it touches.
    pub fn partition_instrs(&self, p: usize) -> usize {
        let lanes = self.lanes(p);
        let words = self.scanned.words();
        let regions: usize = words
            .iter()
            .map(|&w| (w & lanes).count_ones() as usize)
            .sum();
        if regions == 0 {
            return 0;
        }
        let block = self.scan[0].len() + self.tail[0].len();
        let groups = if self.aggregate() {
            // A group is 32 of the partition's regions, which span
            // `32 * VAULTS / g` consecutive regions of the table.
            let span = AGG_GROUP * VAULTS / self.layout.vaults_per_group();
            if span < 64 {
                // One partition: a group is half a word.
                words
                    .iter()
                    .map(|&w| usize::from(w as u32 != 0) + usize::from(w >> 32 != 0))
                    .sum()
            } else {
                words
                    .chunks(span / 64)
                    .filter(|c| c.iter().any(|&w| w & lanes != 0))
                    .count()
            }
        } else {
            0
        };
        2 + regions * block + 2 * groups
    }

    /// Total instructions across all partitions, in closed form.
    pub fn total_instrs(&self) -> usize {
        (0..self.partitions())
            .map(|p| self.partition_instrs(p))
            .sum()
    }

    /// Number of 32-row regions the scan is tiled into.
    pub fn regions(&self) -> usize {
        self.layout.regions()
    }

    /// Base address of the mask output area.
    pub fn mask_base(&self) -> u64 {
        self.layout.mask_base()
    }

    /// Address of region `i`'s 256 B mask chunk.
    pub fn mask_addr(&self, i: usize) -> u64 {
        self.layout.mask_addr(i)
    }

    /// Base address of the per-region partial-sum output area, or
    /// `None` for a plain (non-aggregating) scan program.
    pub fn aggregate_base(&self) -> Option<u64> {
        self.aggregate().then(|| self.layout.agg_base())
    }

    /// Address of region `i`'s 8 B partial-sum slot.
    ///
    /// # Panics
    ///
    /// Panics if the program carries no fused aggregate.
    pub fn agg_addr(&self, i: usize) -> u64 {
        assert!(self.aggregate(), "not an aggregate program");
        self.layout.agg_slot_addr(i)
    }

    /// Bytes of the partial-sum output area (whole 256 B rows; unused
    /// pad slots stay zero and contribute nothing to the combined sum;
    /// zero for plain scans).
    pub fn agg_bytes(&self) -> u64 {
        if self.aggregate() {
            self.layout.agg_area_bytes()
        } else {
            0
        }
    }

    /// Regions the streams scan vs. regions the zone map let the
    /// compiler drop ([`PruneStats::unpruned`] when lowered without
    /// one).
    pub fn prune_stats(&self) -> PruneStats {
        PruneStats::of(&self.scanned)
    }

    /// The regions the streams scan, one bit per region. Only these
    /// regions' mask chunks and partial-sum slots can be non-zero
    /// after a run; every other region's stay at a fresh cube's
    /// zeros.
    pub fn scanned_regions(&self) -> &Bitmask {
        &self.scanned
    }

    fn aggregate(&self) -> bool {
        !self.tail[0].is_empty()
    }

    /// The bits of a region-set word that partition `p` owns: regions
    /// whose vault residue falls in its group.
    fn lanes(&self, p: usize) -> u64 {
        assert!(
            p < self.partitions(),
            "partition {p} of {}",
            self.partitions()
        );
        let g = self.layout.vaults_per_group();
        let lanes = (!0u64 >> (64 - g)) << (p * g);
        lanes | lanes << VAULTS
    }
}

/// One partition's instruction stream, expanded from the region
/// template one region block at a time (see
/// [`LogicScanProgram::cursor`]).
///
/// Each block is built into one buffer the cursor reuses, so
/// consuming a stream allocates nothing per region. A region's block
/// takes its scan register set from its ordinal among the partition's
/// scanned regions mod 2 and its tail set from that ordinal mod 4; its
/// `AddReduce` lane, and whether it zeroes or flushes its group's
/// partial register, follow from its *unpruned* local index, so a
/// pruned neighbour never moves a surviving region's output slot.
#[derive(Debug, Clone)]
pub struct LogicCursor<'a> {
    program: &'a LogicScanProgram,
    partition: usize,
    /// The partition's bits of a region-set word.
    lanes: u64,
    /// The scanned regions, the partition's among them.
    regions: IterOnes<'a>,
    /// The next region to expand. Looking one region ahead tells a
    /// region whether it is the last of its flush group or stream.
    next: Option<usize>,
    /// Regions expanded so far.
    ordinal: usize,
    /// The flush group of the last expanded region.
    group: Option<usize>,
    /// The current region's block, handed out up to `at`.
    block: Vec<LogicInstr>,
    at: usize,
}

impl LogicCursor<'_> {
    /// The partition's next scanned region.
    fn next_region(&mut self) -> Option<usize> {
        let lanes = self.lanes;
        self.regions.find(|&r| lanes >> (r % 64) & 1 == 1)
    }

    /// Builds the next region's block; `false` at the end of the
    /// stream.
    fn expand(&mut self) -> bool {
        let Some(region) = self.next else {
            return false;
        };
        self.next = self.next_region();
        let program = self.program;
        let layout = &program.layout;
        self.block.clear();
        self.at = 0;
        if self.ordinal == 0 {
            self.block.push(LogicInstr::Lock);
        }
        let offset = region as u64 * REGION_BYTES;
        let scan = &program.scan[self.ordinal % 2];
        self.block
            .extend(scan.iter().map(|&op| shifted(op, offset)));
        let tail = &program.tail[self.ordinal % 4];
        if !tail.is_empty() {
            let k = layout.local_region_index(region);
            let group = k / AGG_GROUP;
            let part = reg(PARTIALS[group % 2]);
            if self.group != Some(group) {
                // Fresh group: zero its partial register (never
                // predicated — on HIPE a squashed region must leave its
                // lane at exactly zero, not at the previous group's
                // value).
                self.block.push(LogicInstr::Alu {
                    op: AluOp::Sub,
                    dst: part,
                    a: part,
                    b: Some(part),
                    size: OpSize::MAX,
                    pred: None,
                });
            }
            let lane = (k % AGG_GROUP) as u8;
            self.block.extend(tail.iter().map(|&op| {
                let mut op = shifted(op, offset);
                if let LogicInstr::Alu {
                    op: AluOp::AddReduce { lane: l },
                    dst,
                    ..
                } = &mut op
                {
                    (*l, *dst) = (lane, part);
                }
                op
            }));
            let next_group = self.next.map(|r| layout.local_region_index(r) / AGG_GROUP);
            if next_group != Some(group) {
                // Flush the group's 32 partials as one row-buffer store
                // into the partition's own vault group (never
                // predicated: earlier regions of the group may have
                // matched even if this one did not). Pruned lanes were
                // zeroed with the register, so the store writes their
                // slots' correct zeros.
                self.block.push(LogicInstr::Store {
                    src: part,
                    addr: layout.agg_flush_addr(self.partition, group),
                    size: OpSize::MAX,
                    pred: None,
                });
            }
            self.group = Some(group);
        }
        if self.next.is_none() {
            self.block.push(LogicInstr::Unlock);
        }
        self.ordinal += 1;
        true
    }
}

impl Iterator for LogicCursor<'_> {
    type Item = LogicInstr;

    #[inline]
    fn next(&mut self) -> Option<LogicInstr> {
        if self.at == self.block.len() && !self.expand() {
            return None;
        }
        let instr = self.block[self.at];
        self.at += 1;
        Some(instr)
    }
}

/// A template instruction moved from region 0 to the region `offset`
/// bytes up.
#[inline(always)]
fn shifted(mut op: LogicInstr, offset: u64) -> LogicInstr {
    if let LogicInstr::Load { addr, .. } | LogicInstr::Store { addr, .. } = &mut op {
        *addr += offset;
    }
    op
}

fn reg(i: usize) -> RegId {
    RegId::new(i).expect("register in bank")
}

/// Maps a database comparison onto the logic-layer ALU.
fn alu_op(cmp: CmpOp) -> AluOp {
    match cmp {
        CmpOp::Lt(x) => AluOp::CmpLtImm(x),
        CmpOp::Le(x) => AluOp::CmpLeImm(x),
        CmpOp::Gt(x) => AluOp::CmpGtImm(x),
        CmpOp::Ge(x) => AluOp::CmpGeImm(x),
        CmpOp::Eq(x) => AluOp::CmpEqImm(x),
        CmpOp::Range(lo, hi) => AluOp::CmpRangeImm(lo, hi),
    }
}

/// Lowers `query` over a DSM `layout` into per-partition logic-layer
/// select-scan programs whose match masks are written to the layout's
/// mask area (256 B per region).
///
/// With `predicated` set (HIPE), every instruction of a region after
/// the first compare carries an any-non-zero predicate on the running
/// mask register; without it (HIVE) the same stream is emitted
/// unpredicated. Within each partition, regions use two alternating
/// register sets so that a region's loads can overlap the previous
/// region's stores (the interlocked bank resolves the WAR hazards);
/// every engine has its own register bank, so the allocation repeats
/// per partition.
///
/// With `prune` set, regions whose zone-map summaries prove the
/// predicate conjunction can't match are dropped from the streams
/// ([`LogicScanProgram::scanned_regions`] keeps the rest,
/// [`LogicScanProgram::prune_stats`] counts them). A dropped
/// region's mask chunk is simply never written — the mask area starts
/// zeroed, so it reads back as the correct all-zero mask. **Empty
/// streams are a valid result**: a partition (or the whole query)
/// with every region pruned has an instruction-free stream, which the
/// dispatcher skips — never an error, and never a panic downstream.
///
/// # Errors
///
/// Returns [`CompileError::EmptyTable`] if the layout has zero rows,
/// [`CompileError::PredicateUnsatisfiable`] if a predicate is
/// statically impossible (inverted range).
pub fn lower_logic_scan(
    query: &Query,
    layout: &DsmLayout,
    predicated: bool,
    prune: Option<&ZoneMap>,
) -> Result<LogicScanProgram, CompileError> {
    lower(query, layout, predicated, false, prune)
}

/// Lowers an aggregate `query` into fused per-partition logic-layer
/// programs: the select scan of [`lower_logic_scan`] with each
/// region's block extended by the near-data aggregate tail —
///
/// 1. load the region's `l_extendedprice` and `l_discount` chunks,
/// 2. `Mul` them lane-wise,
/// 3. `AddReduce` the products against the match mask (dot product,
///    so non-matching lanes contribute zero) into this region's lane
///    of its partition's group partial-sum register,
/// 4. once per 32 owned regions, flush the register's 32 partials as a
///    single row-buffer store into the partition's own vault group
///    ([`LogicScanProgram::agg_addr`] locates each region's 8 B slot).
///
/// The tail uses its own register sets so its DRAM latency hides
/// behind the next region's scan, and the one-store-per-group flush
/// keeps the partial stores from contending with the column-load
/// streams for banks. With `predicated` set (HIPE) the per-region
/// tail is guarded on the region's mask being non-zero, so regions
/// with no matching tuple squash it in a sequencer slot per
/// instruction without touching DRAM; the group's register is zeroed
/// unpredicated at group start, which makes a squashed region's lane
/// an exact zero.
///
/// With `prune` set, zone-map-pruned regions lose their whole block —
/// scan *and* tail. Pruning never renumbers a surviving region's
/// partial-sum slot: lanes and flush rows are keyed by the region's
/// *unpruned* local index, a group's register is zeroed at its first
/// surviving region and flushed after its last, and groups with every
/// region pruned emit nothing — their slots keep a fresh cube's
/// zeros, so the combined sum is bit-identical to the unpruned run.
/// As with the plain scan, a fully-pruned partition (or query) has a
/// valid empty stream, never an error.
///
/// # Errors
///
/// Returns [`CompileError::EmptyTable`] if the layout has zero rows,
/// [`CompileError::NotAnAggregate`] if the query does not aggregate,
/// [`CompileError::PredicateUnsatisfiable`] if a predicate is
/// statically impossible (inverted range).
pub fn lower_logic_aggregate(
    query: &Query,
    layout: &DsmLayout,
    predicated: bool,
    prune: Option<&ZoneMap>,
) -> Result<LogicScanProgram, CompileError> {
    if !query.aggregates() {
        return Err(CompileError::NotAnAggregate);
    }
    lower(query, layout, predicated, true, prune)
}

/// Shared lowering of scan and fused-aggregate programs: region 0's
/// block for every register set.
fn lower(
    query: &Query,
    layout: &DsmLayout,
    predicated: bool,
    fused_aggregate: bool,
    prune: Option<&ZoneMap>,
) -> Result<LogicScanProgram, CompileError> {
    let scanned = crate::scan_set(query, layout, prune)?;
    let size = OpSize::MAX;
    let guard = |mask| predicated.then(|| Predicate::any_nonzero(mask));
    let scan = SCAN_SETS.map(|set| {
        let (data, mask, tmp) = (reg(set), reg(set + 1), reg(set + 2));
        let mut ops = Vec::with_capacity(3 * query.predicates().len());
        for (i, p) in query.predicates().iter().enumerate() {
            // The first predicate of a region establishes the mask and
            // cannot be guarded by it.
            let (pred, dst) = if i == 0 {
                (None, mask)
            } else {
                (guard(mask), tmp)
            };
            let addr = layout.column_base(p.column);
            ops.push(LogicInstr::Load {
                dst: data,
                addr,
                size,
                pred,
            });
            ops.push(LogicInstr::Alu {
                op: alu_op(p.cmp),
                dst,
                a: data,
                b: None,
                size,
                pred,
            });
            if i > 0 {
                ops.push(LogicInstr::Alu {
                    op: AluOp::And,
                    dst: mask,
                    a: mask,
                    b: Some(tmp),
                    size,
                    pred,
                });
            }
        }
        // The mask area starts zeroed, so a squashed store leaves the
        // correct all-zero mask behind.
        ops.push(LogicInstr::Store {
            src: mask,
            addr: layout.mask_addr(0),
            size,
            pred: guard(mask),
        });
        ops
    });
    let tail = std::array::from_fn(|t| {
        if !fused_aggregate {
            return Vec::new();
        }
        // Tail set `t` follows scan set `t % 2`: a region's ordinal
        // picks both.
        let (set, mask) = (TAIL_SETS[t], reg(SCAN_SETS[t % 2] + 1));
        let (price, disc, mcopy) = (reg(set), reg(set + 1), reg(set + 2));
        let pred = guard(mask);
        vec![
            // Snapshot the final mask into a tail register immediately:
            // the copy consumes the mask as soon as it is ready, so the
            // reduce (which waits ~a DRAM latency for the price chunk)
            // does not stretch the scan's cross-region WAR chain on the
            // mask register.
            LogicInstr::Alu {
                op: AluOp::Or,
                dst: mcopy,
                a: mask,
                b: Some(mask),
                size,
                pred,
            },
            LogicInstr::Load {
                dst: price,
                addr: layout.column_base(Column::ExtendedPrice),
                size,
                pred,
            },
            LogicInstr::Load {
                dst: disc,
                addr: layout.column_base(Column::Discount),
                size,
                pred,
            },
            LogicInstr::Alu {
                op: AluOp::Mul,
                dst: price,
                a: price,
                b: Some(disc),
                size,
                pred,
            },
            // Dot product against the 0/1 match mask into the region's
            // lane of the group partial register: non-matching lanes
            // (and the zero-padded tail of the last region) contribute
            // nothing.
            LogicInstr::Alu {
                op: AluOp::AddReduce { lane: 0 },
                dst: reg(PARTIALS[0]),
                a: price,
                b: Some(mcopy),
                size,
                pred,
            },
        ]
    });
    Ok(LogicScanProgram {
        layout: *layout,
        scanned,
        scan,
        tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::tests::{queries, scan_sets};
    use hipe_db::ColumnPredicate;

    impl LogicScanProgram {
        /// Every partition's expanded stream.
        fn streams(&self) -> Vec<Vec<LogicInstr>> {
            (0..self.partitions())
                .map(|p| self.cursor(p).collect())
                .collect()
        }

        /// All instructions, partition-major.
        fn iter_instrs(&self) -> impl Iterator<Item = LogicInstr> {
            self.streams().concat().into_iter()
        }
    }

    /// Global region indices owned by partition `p` of `layout`, in
    /// scan order: the reference emitter's region walk.
    fn partition_regions(layout: &DsmLayout, p: usize) -> impl Iterator<Item = usize> + '_ {
        (0..layout.regions()).filter(move |&r| layout.partition_of_region(r) == p)
    }

    #[test]
    fn partition_regions_cover_all_regions_disjointly() {
        for (rows, n) in [(4096, 4), (1000, 8), (33, 2), (64, 32), (64, 8)] {
            let l = DsmLayout::partitioned(0, rows, n);
            let mut seen = vec![false; l.regions()];
            for p in 0..n {
                let owned: Vec<usize> = partition_regions(&l, p).collect();
                assert_eq!(
                    owned.len(),
                    l.partition_region_count(p),
                    "rows={rows} n={n}"
                );
                for (k, r) in owned.into_iter().enumerate() {
                    assert!(!seen[r], "region {r} owned twice");
                    seen[r] = true;
                    assert_eq!(l.partition_of_region(r), p);
                    assert_eq!(l.local_region_index(r), k);
                }
            }
            assert!(seen.iter().all(|&s| s), "rows={rows} n={n}: region unowned");
        }
    }

    /// The stored-stream emitter the region template replaced, kept as
    /// the reference the expansion is checked against: every partition's
    /// stream over the regions of `scanned`, emitted in full.
    fn reference(
        query: &Query,
        layout: &DsmLayout,
        predicated: bool,
        fused_aggregate: bool,
        scanned: &Bitmask,
    ) -> Vec<Vec<LogicInstr>> {
        let size = OpSize::MAX;
        let npreds = query.predicates().len();
        let tail_len = if fused_aggregate { 6 } else { 0 };

        let reg = |i: usize| RegId::new(i).expect("register in bank");
        // Register sets rotated between consecutive regions of one
        // partition: two scan sets of (data, mask, tmp), and — for fused
        // aggregates — four tail sets of (price, discount, mask copy). The
        // tail gets its own, wider rotation so its column loads' DRAM
        // latency stays off the next regions' scan chain (the balanced
        // bank has 36 registers; the scan alone leaves 30 of them idle).
        // Each partition runs on its own engine with its own bank, so the
        // same allocation repeats per partition.
        let set = |base: usize| (reg(base), reg(base + 1), reg(base + 2));
        let scan_sets = [set(0), set(3)];
        let agg_sets = [set(6), set(9), set(12), set(15)];
        // Group partial-sum registers, alternated between consecutive
        // 32-region groups so a group's flush overlaps the next group's
        // reduces.
        let parts = [reg(18), reg(19)];

        let mut programs = Vec::with_capacity(layout.partitions());
        for p in 0..layout.partitions() {
            // Only regions the zone map can't prove empty survive. They keep
            // their *unpruned* local index (computed below) so output slots
            // never move.
            let survivors: Vec<usize> = partition_regions(layout, p)
                .filter(|&r| scanned.get(r))
                .collect();
            if survivors.is_empty() {
                programs.push(Vec::new());
                continue;
            }
            let mut instrs = Vec::with_capacity(2 + survivors.len() * (3 * npreds + 1 + tail_len));
            instrs.push(LogicInstr::Lock);
            let mut prev_group = None;
            for (pos, &region) in survivors.iter().enumerate() {
                // `pos` rotates register sets (pure allocation); `k` is
                // the region's local index in the *unpruned* partition
                // order, which keys every lane and flush address so a
                // pruned neighbour never shifts this region's slot. With
                // no zone map the two are equal and the stream is
                // byte-identical to the historical lowering.
                let k = layout.local_region_index(region);
                let (r_data, r_mask, r_tmp) = scan_sets[pos % 2];
                let chunk = region as u64 * size.bytes();
                let guard = predicated.then(|| Predicate::any_nonzero(r_mask));
                for (pi, pred_col) in query.predicates().iter().enumerate() {
                    let addr = layout.column_base(pred_col.column) + chunk;
                    // The first predicate of a region establishes the mask
                    // and cannot be guarded by it.
                    let pred = if pi == 0 { None } else { guard };
                    instrs.push(LogicInstr::Load {
                        dst: r_data,
                        addr,
                        size,
                        pred,
                    });
                    if pi == 0 {
                        instrs.push(LogicInstr::Alu {
                            op: alu_op(pred_col.cmp),
                            dst: r_mask,
                            a: r_data,
                            b: None,
                            size,
                            pred: None,
                        });
                    } else {
                        instrs.push(LogicInstr::Alu {
                            op: alu_op(pred_col.cmp),
                            dst: r_tmp,
                            a: r_data,
                            b: None,
                            size,
                            pred,
                        });
                        instrs.push(LogicInstr::Alu {
                            op: AluOp::And,
                            dst: r_mask,
                            a: r_mask,
                            b: Some(r_tmp),
                            size,
                            pred,
                        });
                    }
                }
                // The mask area starts zeroed, so a squashed store leaves
                // the correct all-zero mask behind.
                instrs.push(LogicInstr::Store {
                    src: r_mask,
                    addr: layout.mask_addr(region),
                    size,
                    pred: guard,
                });
                if fused_aggregate {
                    let (r_price, r_disc, r_mcopy) = agg_sets[pos % 4];
                    let group = k / AGG_GROUP;
                    let r_part = parts[group % 2];
                    if prev_group != Some(group) {
                        // Fresh group: zero its partial register (never
                        // predicated — on HIPE a squashed region must
                        // leave its lane at exactly zero, not at the
                        // previous group's value).
                        instrs.push(LogicInstr::Alu {
                            op: AluOp::Sub,
                            dst: r_part,
                            a: r_part,
                            b: Some(r_part),
                            size,
                            pred: None,
                        });
                    }
                    // Snapshot the final mask into a tail register
                    // immediately: the copy consumes `r_mask` as soon as
                    // it is ready, so the reduce (which waits ~a DRAM
                    // latency for the price chunk) does not stretch the
                    // scan's cross-region WAR chain on the mask register.
                    instrs.push(LogicInstr::Alu {
                        op: AluOp::Or,
                        dst: r_mcopy,
                        a: r_mask,
                        b: Some(r_mask),
                        size,
                        pred: guard,
                    });
                    instrs.push(LogicInstr::Load {
                        dst: r_price,
                        addr: layout.column_base(Column::ExtendedPrice) + chunk,
                        size,
                        pred: guard,
                    });
                    instrs.push(LogicInstr::Load {
                        dst: r_disc,
                        addr: layout.column_base(Column::Discount) + chunk,
                        size,
                        pred: guard,
                    });
                    instrs.push(LogicInstr::Alu {
                        op: AluOp::Mul,
                        dst: r_price,
                        a: r_price,
                        b: Some(r_disc),
                        size,
                        pred: guard,
                    });
                    // Dot product against the 0/1 match mask into this
                    // region's lane of the group partial register:
                    // non-matching lanes (and the zero-padded tail of the
                    // last region) contribute nothing.
                    instrs.push(LogicInstr::Alu {
                        op: AluOp::AddReduce {
                            lane: (k % AGG_GROUP) as u8,
                        },
                        dst: r_part,
                        a: r_price,
                        b: Some(r_mcopy),
                        size,
                        pred: guard,
                    });
                    let next_group = survivors
                        .get(pos + 1)
                        .map(|&r| layout.local_region_index(r) / AGG_GROUP);
                    if next_group != Some(group) {
                        // Flush the group's 32 partials as one row-buffer
                        // store into the partition's own vault group
                        // (never predicated: earlier regions of the group
                        // may have matched even if this one did not).
                        // Pruned lanes were zeroed with the register, so
                        // the store writes their slots' correct zeros.
                        instrs.push(LogicInstr::Store {
                            src: r_part,
                            addr: layout.agg_flush_addr(p, group),
                            size,
                            pred: None,
                        });
                    }
                    prev_group = Some(group);
                }
            }
            instrs.push(LogicInstr::Unlock);
            programs.push(instrs);
        }

        programs
    }

    fn one_pred_query() -> Query {
        Query::new(
            vec![ColumnPredicate::new(Column::Quantity, CmpOp::Lt(10))],
            false,
        )
    }

    fn scan(query: &Query, rows: usize, predicated: bool) -> LogicScanProgram {
        let layout = DsmLayout::new(0, rows);
        lower_logic_scan(query, &layout, predicated, None).expect("non-empty layout")
    }

    fn aggregate(query: &Query, rows: usize, pred: bool) -> LogicScanProgram {
        let layout = DsmLayout::new(0, rows);
        lower_logic_aggregate(query, &layout, pred, None).expect("valid aggregate")
    }

    fn flat(prog: &LogicScanProgram) -> Vec<LogicInstr> {
        prog.iter_instrs().collect()
    }

    #[test]
    fn single_predicate_block_shape() {
        let prog = scan(&one_pred_query(), 64, true);
        assert_eq!(prog.regions(), 2);
        let instrs = flat(&prog);
        // Lock, (Load, Cmp, Store) x 2, Unlock.
        assert_eq!(instrs.len(), 8);
        assert!(matches!(instrs[0], LogicInstr::Lock));
        assert!(matches!(instrs[7], LogicInstr::Unlock));
    }

    #[test]
    fn q6_emits_three_compares_per_region() {
        let prog = scan(&Query::q6(), 32, true);
        let alu = prog
            .iter_instrs()
            .filter(|i| matches!(i, LogicInstr::Alu { .. }))
            .count();
        // 3 compares + 2 ANDs for one region.
        assert_eq!(alu, 5);
    }

    #[test]
    fn hive_lowering_is_unpredicated() {
        let prog = scan(&Query::q6(), 320, false);
        assert!(prog.iter_instrs().all(|i| i.predicate().is_none()));
    }

    #[test]
    fn hipe_lowering_guards_everything_after_first_compare() {
        let prog = scan(&Query::q6(), 32, true);
        let preds = prog
            .iter_instrs()
            .filter(|i| i.predicate().is_some())
            .count();
        // Per region: 2 loads, 2 compares, 2 ANDs, 1 store are guarded.
        assert_eq!(preds, 7);
    }

    #[test]
    fn first_load_and_compare_never_predicated() {
        let prog = scan(&one_pred_query(), 3200, true);
        for w in flat(&prog).windows(2) {
            if let [LogicInstr::Load { pred, .. }, LogicInstr::Alu { pred: apred, .. }] = w {
                if pred.is_none() {
                    assert!(apred.is_none(), "first compare must be unguarded");
                }
            }
        }
    }

    #[test]
    fn mask_addresses_are_disjoint_row_buffers() {
        let prog = scan(&one_pred_query(), 100, true);
        assert_eq!(prog.regions(), 4);
        for i in 1..prog.regions() {
            assert_eq!(prog.mask_addr(i) - prog.mask_addr(i - 1), 256);
        }
    }

    #[test]
    fn consecutive_regions_alternate_register_sets() {
        let prog = scan(&one_pred_query(), 64, false);
        let dsts: Vec<_> = prog
            .iter_instrs()
            .filter_map(|i| match i {
                LogicInstr::Load { dst, .. } => Some(dst.index()),
                _ => None,
            })
            .collect();
        assert_eq!(dsts, vec![0, 3]);
    }

    #[test]
    fn zero_rows_is_a_typed_error() {
        let layout = DsmLayout::new(0, 0);
        assert_eq!(
            lower_logic_scan(&one_pred_query(), &layout, true, None).unwrap_err(),
            CompileError::EmptyTable
        );
        assert_eq!(
            lower_logic_aggregate(&Query::q6(), &layout, true, None).unwrap_err(),
            CompileError::EmptyTable
        );
    }

    #[test]
    fn aggregate_lowering_rejects_plain_scans() {
        let layout = DsmLayout::new(0, 64);
        assert_eq!(
            lower_logic_aggregate(&one_pred_query(), &layout, true, None).unwrap_err(),
            CompileError::NotAnAggregate
        );
    }

    #[test]
    fn aggregate_tail_extends_every_region() {
        let q = Query::q6();
        let plain = scan(&q, 100, true);
        let fused = aggregate(&q, 100, true);
        assert_eq!(fused.regions(), plain.regions());
        // Five tail instructions per region, plus one zero and one
        // flush for the single 32-region group.
        assert_eq!(
            fused.total_instrs(),
            plain.total_instrs() + 5 * fused.regions() + 2
        );
        let muls = fused
            .iter_instrs()
            .filter(|i| matches!(i, LogicInstr::Alu { op: AluOp::Mul, .. }))
            .count();
        let reduce_lanes: Vec<u8> = fused
            .iter_instrs()
            .filter_map(|i| match i {
                LogicInstr::Alu {
                    op: AluOp::AddReduce { lane },
                    b: Some(_),
                    ..
                } => Some(lane),
                _ => None,
            })
            .collect();
        assert_eq!(muls, fused.regions());
        // One mask-dotted reduce per region, each into its own lane.
        assert_eq!(reduce_lanes, vec![0, 1, 2, 3]);
    }

    #[test]
    fn aggregate_partials_live_after_the_mask_area() {
        let layout = DsmLayout::new(0, 100);
        let prog = aggregate(&Query::q6(), 100, false);
        let base = prog.aggregate_base().expect("fused program");
        assert_eq!(base, layout.mask_base() + layout.mask_area_bytes());
        // One 8 B slot per region, dense from the area base.
        for i in 0..prog.regions() {
            assert_eq!(prog.agg_addr(i), base + i as u64 * AGG_SLOT_BYTES);
        }
        assert_eq!(prog.agg_bytes(), 256);
        // Four regions form one group: a single row-buffer flush into
        // the area.
        let stores: Vec<u64> = prog
            .iter_instrs()
            .filter_map(|i| match i {
                LogicInstr::Store { addr, .. } if addr >= base => Some(addr),
                _ => None,
            })
            .collect();
        assert_eq!(stores, vec![base]);
    }

    #[test]
    fn aggregate_groups_flush_one_row_buffer_each() {
        // 3200 rows = 100 regions = 4 groups (32 + 32 + 32 + 4): one
        // unpredicated zero + one unpredicated flush per group, flushes
        // to consecutive area rows, and the final partial group is
        // flushed by the last region.
        let prog = aggregate(&Query::q6(), 3200, true);
        let base = prog.aggregate_base().expect("fused program");
        let zeroes = prog
            .iter_instrs()
            .filter(|i| {
                matches!(
                    i,
                    LogicInstr::Alu {
                        op: AluOp::Sub,
                        pred: None,
                        ..
                    }
                )
            })
            .count();
        let flushes: Vec<u64> = prog
            .iter_instrs()
            .filter_map(|i| match i {
                LogicInstr::Store {
                    addr, pred: None, ..
                } if addr >= base => Some(addr),
                _ => None,
            })
            .collect();
        assert_eq!(zeroes, 4);
        assert_eq!(flushes, vec![base, base + 256, base + 512, base + 768]);
        assert_eq!(prog.agg_bytes(), 4 * 256);
        // Slot addresses stay inside the area, one per region.
        let mut addrs: Vec<u64> = (0..prog.regions()).map(|i| prog.agg_addr(i)).collect();
        addrs.dedup();
        assert_eq!(addrs.len(), prog.regions());
        assert!(addrs
            .iter()
            .all(|&a| a >= base && a + AGG_SLOT_BYTES <= base + prog.agg_bytes()));
    }

    #[test]
    fn hipe_aggregate_tail_is_fully_guarded() {
        let prog = aggregate(&Query::q6(), 32, true);
        // Scan guards (7) plus the five per-region tail instructions;
        // the group zero and flush must stay unpredicated.
        let preds = prog
            .iter_instrs()
            .filter(|i| i.predicate().is_some())
            .count();
        assert_eq!(preds, 7 + 5);
        assert!(prog.iter_instrs().any(
            |i| matches!(i, LogicInstr::Store { addr, pred: None, .. } if addr >= prog.aggregate_base().expect("fused"))
        ));
    }

    #[test]
    fn hive_aggregate_tail_is_unpredicated() {
        let prog = aggregate(&Query::q6(), 320, false);
        assert!(prog.iter_instrs().all(|i| i.predicate().is_none()));
    }

    #[test]
    fn aggregate_tail_loads_price_and_discount_columns() {
        let layout = DsmLayout::new(0, 32);
        let prog =
            lower_logic_aggregate(&Query::q6(), &layout, false, None).expect("valid aggregate");
        let loads: Vec<u64> = prog
            .iter_instrs()
            .filter_map(|i| match i {
                LogicInstr::Load { addr, .. } => Some(addr),
                _ => None,
            })
            .collect();
        // Scan loads the three predicate columns; the tail reloads
        // price and discount for the region.
        assert!(loads.contains(&layout.column_base(Column::ExtendedPrice)));
        assert_eq!(
            loads
                .iter()
                .filter(|&&a| a == layout.column_base(Column::Discount))
                .count(),
            2
        );
    }

    #[test]
    fn partitioned_lowering_splits_regions_across_programs() {
        // 4096 rows = 128 regions over 4 partitions: 32 regions each,
        // tagged with their vault groups, streams shaped like a
        // 32-region single-partition scan.
        let layout = DsmLayout::partitioned(0, 4096, 4);
        let prog = lower_logic_scan(&Query::q6(), &layout, true, None).expect("non-empty layout");
        assert_eq!(prog.partitions(), 4);
        for (p, lp) in prog.streams().iter().enumerate() {
            assert_eq!(prog.spec(p).index, p);
            assert_eq!(prog.spec(p).vaults(), layout.vault_group(p));
            // Lock + 32 x (Load,Cmp, Load,Cmp,And, Load,Cmp,And, Store)
            // + Unlock.
            assert_eq!(lp.len(), 2 + 32 * 9);
            assert_eq!(prog.partition_instrs(p), lp.len());
            assert!(matches!(lp[0], LogicInstr::Lock));
            assert!(matches!(lp[lp.len() - 1], LogicInstr::Unlock));
        }
        // Every region's mask store appears exactly once, in its
        // owner's program.
        for r in 0..prog.regions() {
            let owner = layout.partition_of_region(r);
            for (p, lp) in prog.streams().iter().enumerate() {
                let stores = lp
                    .iter()
                    .filter(|&&i| {
                        matches!(i, LogicInstr::Store { addr, .. } if addr == prog.mask_addr(r))
                    })
                    .count();
                assert_eq!(stores, usize::from(p == owner), "region {r} partition {p}");
            }
        }
    }

    #[test]
    fn partitioned_programs_only_touch_their_own_vaults() {
        let layout = DsmLayout::partitioned(0, 2048, 8);
        for fused in [false, true] {
            let prog = if fused {
                aggregate_over(&layout)
            } else {
                lower_logic_scan(&Query::q6(), &layout, true, None).expect("non-empty layout")
            };
            for (p, lp) in prog.streams().iter().enumerate() {
                for &i in lp {
                    let addr = match i {
                        LogicInstr::Load { addr, .. } | LogicInstr::Store { addr, .. } => addr,
                        _ => continue,
                    };
                    let vault = (addr / 256) as usize % hipe_db::VAULTS;
                    assert!(
                        prog.spec(p).owns_vault(vault),
                        "partition {p} touched vault {vault} (fused={fused})",
                    );
                }
            }
        }
    }

    fn aggregate_over(layout: &DsmLayout) -> LogicScanProgram {
        lower_logic_aggregate(&Query::q6(), layout, true, None).expect("valid aggregate")
    }

    #[test]
    fn empty_partitions_get_empty_programs() {
        // 64 rows = 2 regions, both in partition 0 of 8.
        let layout = DsmLayout::partitioned(0, 64, 8);
        let prog =
            lower_logic_scan(&one_pred_query(), &layout, true, None).expect("non-empty layout");
        assert_eq!(prog.partitions(), 8);
        let streams = prog.streams();
        assert!(!streams[0].is_empty());
        for (p, lp) in streams.iter().enumerate().skip(1) {
            assert!(lp.is_empty(), "partition {p} not idle");
            assert_eq!(prog.partition_instrs(p), 0);
        }
    }

    fn clustered_zonemap(rows: usize) -> hipe_db::ZoneMap {
        let t = hipe_db::LineitemTable::generate_clustered_range(7, 0, rows, rows);
        hipe_db::ZoneMap::build(&t)
    }

    #[test]
    fn inverted_range_is_a_typed_error() {
        let layout = DsmLayout::new(0, 64);
        let q = Query::new(
            vec![ColumnPredicate::new(Column::Quantity, CmpOp::Range(10, 5))],
            false,
        );
        assert_eq!(
            lower_logic_scan(&q, &layout, true, None).unwrap_err(),
            CompileError::PredicateUnsatisfiable
        );
        assert_eq!(
            lower_logic_aggregate(&q.with_aggregate(), &layout, true, None).unwrap_err(),
            CompileError::PredicateUnsatisfiable
        );
    }

    #[test]
    fn pruned_lowering_drops_regions_but_not_surviving_stores() {
        let rows = 2048; // 64 regions
        let zm = clustered_zonemap(rows);
        let layout = DsmLayout::new(0, rows);
        let q = Query::shipdate_window_permille(100);
        let full = lower_logic_scan(&q, &layout, true, None).expect("valid");
        let pruned = lower_logic_scan(&q, &layout, true, Some(&zm)).expect("valid");
        assert_eq!(full.prune_stats(), hipe_db::PruneStats::unpruned(64));
        let s = pruned.prune_stats();
        assert_eq!(s.total(), 64);
        assert!(s.pruned > 32, "only {} pruned", s.pruned);
        assert_eq!(pruned.scanned_regions(), &zm.scan_set(&q));
        assert!(pruned.total_instrs() < full.total_instrs());
        // Every surviving region's mask store lands at the same
        // address as in the full stream.
        let stores = |p: &LogicScanProgram| -> Vec<u64> {
            p.iter_instrs()
                .filter_map(|i| match i {
                    LogicInstr::Store { addr, .. } => Some(addr),
                    _ => None,
                })
                .collect()
        };
        let full_stores = stores(&full);
        for a in stores(&pruned) {
            assert!(full_stores.contains(&a), "store to {a} not in full stream");
        }
    }

    #[test]
    fn pruned_aggregate_lanes_stay_keyed_to_unpruned_indices() {
        // The load-bearing invariant: pruning must never renumber a
        // surviving region's partial-sum lane or flush row, or the
        // host would read partials from the wrong slots.
        let rows = 4096; // 128 regions over 2 partitions
        let zm = clustered_zonemap(rows);
        let layout = DsmLayout::partitioned(0, rows, 2);
        let q = Query::shipdate_window_permille(300).with_aggregate();
        let pruned = lower_logic_aggregate(&q, &layout, true, Some(&zm)).expect("valid");
        assert!(pruned.prune_stats().pruned > 0);
        for (p, lp) in pruned.streams().iter().enumerate() {
            let expected: Vec<u8> = partition_regions(&layout, p)
                .filter(|&r| zm.region_may_match(&q, r))
                .map(|r| (layout.local_region_index(r) % AGG_GROUP) as u8)
                .collect();
            let lanes: Vec<u8> = lp
                .iter()
                .filter_map(|&i| match i {
                    LogicInstr::Alu {
                        op: AluOp::AddReduce { lane },
                        ..
                    } => Some(lane),
                    _ => None,
                })
                .collect();
            assert_eq!(lanes, expected, "partition {p}");
            // Flush addresses are a subset of the unpruned group rows.
            for &i in lp {
                if let LogicInstr::Store {
                    addr, pred: None, ..
                } = i
                {
                    if addr >= layout.agg_base() {
                        let off = addr - layout.agg_flush_addr(p, 0);
                        assert_eq!(off % 256, 0, "partition {p} flush at {addr}");
                    }
                }
            }
        }
    }

    #[test]
    fn fully_pruned_query_lowers_to_empty_programs() {
        // A shard holding only late rows of a clustered table against
        // an early date window: every region pruned, valid empty
        // programs, zero scanned.
        let total = 4096;
        let t = hipe_db::LineitemTable::generate_clustered_range(3, total / 2, total / 2, total);
        let zm = hipe_db::ZoneMap::build(&t);
        let layout = DsmLayout::new(0, total / 2);
        let q = Query::new(
            vec![ColumnPredicate::new(Column::Shipdate, CmpOp::Range(0, 100))],
            false,
        );
        let prog = lower_logic_scan(&q, &layout, true, Some(&zm)).expect("empty is valid");
        assert_eq!(prog.prune_stats().scanned, 0);
        assert_eq!(prog.prune_stats().pruned, 64);
        assert!(prog.streams().iter().all(|p| p.is_empty()));
        assert_eq!(prog.total_instrs(), 0);
    }

    #[test]
    fn partitioned_aggregate_groups_by_local_region_order() {
        // 8192 rows = 256 regions over 2 partitions = 128 regions each
        // = 4 flush groups per partition, each into the partition's
        // own vault group.
        let layout = DsmLayout::partitioned(0, 8192, 2);
        let prog = aggregate_over(&layout);
        for (p, lp) in prog.streams().iter().enumerate() {
            let flushes: Vec<u64> = lp
                .iter()
                .filter_map(|&i| match i {
                    LogicInstr::Store {
                        addr, pred: None, ..
                    } if addr >= layout.agg_base() => Some(addr),
                    _ => None,
                })
                .collect();
            assert_eq!(flushes.len(), 4, "partition {p}");
            for (j, addr) in flushes.iter().enumerate() {
                assert_eq!(*addr, layout.agg_flush_addr(p, j));
            }
            // Reduce lanes restart per partition: 32 regions per group.
            let lanes: Vec<u8> = lp
                .iter()
                .filter_map(|&i| match i {
                    LogicInstr::Alu {
                        op: AluOp::AddReduce { lane },
                        ..
                    } => Some(lane),
                    _ => None,
                })
                .collect();
            let expect: Vec<u8> = (0..128).map(|k| (k % 32) as u8).collect();
            assert_eq!(lanes, expect, "partition {p}");
        }
    }

    /// Checks the expansion of `q` over `layout` against the reference
    /// emitter op for op — scan and fused aggregate, HIVE and HIPE —
    /// for the lowered region set and each of `sets`, with the closed-
    /// form counts and the cursors' reused block buffers.
    fn check(q: &Query, layout: &DsmLayout, prune: Option<&ZoneMap>, sets: &[Bitmask]) {
        let what = format!("{} rows, {} partitions", layout.rows(), layout.partitions());
        for predicated in [false, true] {
            for fused in [false, true] {
                let program = if fused {
                    lower_logic_aggregate(&q.clone().with_aggregate(), layout, predicated, prune)
                } else {
                    lower_logic_scan(q, layout, predicated, prune)
                }
                .expect("valid");
                let scanned = program.scanned_regions().clone();
                for set in std::iter::once(&scanned).chain(sets) {
                    let p = LogicScanProgram {
                        scanned: set.clone(),
                        ..program.clone()
                    };
                    let expect = reference(q, layout, predicated, fused, set);
                    let case = format!("{what}, [{q}], predicated {predicated}, fused {fused}");
                    for (part, stream) in expect.iter().enumerate() {
                        let mut cursor = p.cursor(part);
                        let capacity = cursor.block.capacity();
                        let ops: Vec<LogicInstr> = cursor.by_ref().collect();
                        assert!(ops == *stream, "partition {part} differs: {case}");
                        assert_eq!(cursor.block.capacity(), capacity, "regrown: {case}");
                        assert_eq!(p.partition_instrs(part), stream.len(), "{case}");
                    }
                    let total: usize = expect.iter().map(Vec::len).sum();
                    assert_eq!(p.total_instrs(), total, "{case}");
                }
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
        // 33 000 rows = 1032 regions: on 32 partitions the first eight
        // own a second flush group of one region each.
        for partitions in [2, 8, 32] {
            for rows in [33, 70, 4097, 33_000] {
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
        // of regions (whole flush groups pruned around it), and a
        // window before the table's dates prunes everything.
        for (rows, partitions) in [(4096, 1), (4097, 8), (70, 1), (2048, 2), (8192, 32)] {
            let t = hipe_db::LineitemTable::generate_clustered_range(7, 0, rows, rows);
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
    }

    #[test]
    fn programs_differing_only_in_constants_erase_to_one_shape() {
        let layout = DsmLayout::new(0, 4097);
        let below = |t| {
            let p = ColumnPredicate::new(Column::Quantity, CmpOp::Lt(t));
            Query::new(vec![p], false)
        };
        let (a, b) = (below(2), below(40));
        for predicated in [false, true] {
            let lower = |q: &Query| scan(q, 4097, predicated);
            assert_ne!(lower(&a), lower(&b));
            assert_eq!(lower(&a).without_operands(), lower(&b).without_operands());
            // Erasing changes nothing but the immediates.
            let erased = lower(&a).without_operands();
            assert_eq!(flat(&erased).len(), flat(&lower(&a)).len());
            let agg = |q: &Query| aggregate(&q.clone().with_aggregate(), 4097, predicated);
            assert_eq!(agg(&a).without_operands(), agg(&b).without_operands());
            // The op, the predicates, the tail and the scanned regions
            // stay in the projection.
            let at_least = Query::new(
                vec![ColumnPredicate::new(Column::Quantity, CmpOp::Ge(2))],
                false,
            );
            assert_ne!(erased, lower(&at_least).without_operands());
            assert_ne!(erased, lower(&Query::q6()).without_operands());
            assert_ne!(erased, agg(&a).without_operands());
            assert_ne!(erased, scan(&a, 4097, !predicated).without_operands());
            let pruned = LogicScanProgram {
                scanned: Bitmask::zeros(layout.regions()),
                ..lower(&a)
            };
            assert_ne!(pruned.without_operands(), erased);
        }
    }
}
