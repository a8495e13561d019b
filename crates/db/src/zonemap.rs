//! Region zone maps: per-region min/max summaries for data skipping.
//!
//! A [`ZoneMap`] is a secondary index over the DSM image, built once
//! when the table is generated: for every 32-row region it records each
//! column's `[min, max]` and the region's row count, plus a table-level
//! rollup. The compiler consults it to *prune* — drop from the emitted
//! program — every region whose summaries prove the predicate
//! conjunction can't match there ([`RegionSummary::may_match`]), and
//! the serve layer consults shard rollups ([`ZoneMap::table_may_match`])
//! to skip scattering sub-queries to shards that can't match at all.
//!
//! Pruning is sound by construction: a region is dropped only when
//! `CmpOp::may_match(min, max)` is `false` for some conjunct, which
//! proves no row in the region satisfies that conjunct, hence none
//! satisfies the conjunction. Dead regions therefore contribute
//! exactly zero mask words and zero aggregate lanes — the same bytes a
//! fresh cube's output area already holds — so pruned and unpruned runs are
//! bit-identical.

use crate::bitmask::Bitmask;
use crate::layout::REGION_ROWS;
use crate::lineitem::{Column, LineitemTable};
use crate::query::Query;

/// Per-column `[min, max]` plus a row count for one summarized extent —
/// a single 32-row region, or a rollup of many (partition, table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionSummary {
    rows: usize,
    min: [i64; 4],
    max: [i64; 4],
}

impl RegionSummary {
    /// The identity of [`absorb`](Self::absorb): zero rows, inverted
    /// extremes.
    const EMPTY: RegionSummary = RegionSummary {
        rows: 0,
        min: [i64::MAX; 4],
        max: [i64::MIN; 4],
    };

    /// Rows summarized (32 for a full region, fewer for the table's
    /// tail region, more for a rollup).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Smallest value of `c` in the summarized rows.
    ///
    /// # Panics
    ///
    /// Panics if the summary covers zero rows (there is no minimum).
    pub fn min(&self, c: Column) -> i64 {
        assert!(self.rows > 0, "empty summary has no minimum");
        self.min[c.index()]
    }

    /// Largest value of `c` in the summarized rows.
    ///
    /// # Panics
    ///
    /// Panics if the summary covers zero rows (there is no maximum).
    pub fn max(&self, c: Column) -> i64 {
        assert!(self.rows > 0, "empty summary has no maximum");
        self.max[c.index()]
    }

    /// Widens this summary to also cover `other`'s rows.
    fn absorb(&mut self, other: &RegionSummary) {
        self.rows += other.rows;
        for k in 0..4 {
            self.min[k] = self.min[k].min(other.min[k]);
            self.max[k] = self.max[k].max(other.max[k]);
        }
    }

    /// Whether any summarized row *can* satisfy `query`'s conjunction.
    /// `false` is a proof of emptiness (the pruning decision); `true`
    /// only means the scan must look.
    pub fn may_match(&self, query: &Query) -> bool {
        self.rows > 0
            && query.predicates().iter().all(|p| {
                let k = p.column.index();
                p.cmp.may_match(self.min[k], self.max[k])
            })
    }
}

/// The zone-map index of one materialized table: one [`RegionSummary`]
/// per 32-row region (in global region order, matching
/// [`DsmLayout`](crate::DsmLayout) region indices), plus a table-level rollup.
///
/// # Example
///
/// ```
/// use hipe_db::{LineitemTable, Query, ZoneMap};
/// let t = LineitemTable::generate_clustered_range(7, 0, 1024, 1024);
/// let zm = ZoneMap::build(&t);
/// assert_eq!(zm.regions(), 32);
/// // A narrow date window prunes most regions of a clustered table.
/// let q = Query::shipdate_window_permille(30);
/// let kept = (0..zm.regions()).filter(|&r| zm.region_may_match(&q, r)).count();
/// assert!(kept < zm.regions() / 4, "kept {kept}");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZoneMap {
    regions: Vec<RegionSummary>,
    table: RegionSummary,
}

impl ZoneMap {
    /// Scans `table` once and summarizes every 32-row region, a column
    /// at a time: each region's extremes are taken in the column's host
    /// type, then widened.
    pub fn build(table: &LineitemTable) -> Self {
        let rows = table.rows();
        let mut regions: Vec<RegionSummary> = (0..rows.div_ceil(REGION_ROWS))
            .map(|r| RegionSummary {
                rows: (rows - r * REGION_ROWS).min(REGION_ROWS),
                ..RegionSummary::EMPTY
            })
            .collect();
        for c in Column::ALL {
            let k = c.index();
            table.column(c).chunk_extremes(REGION_ROWS, |r, min, max| {
                regions[r].min[k] = min;
                regions[r].max[k] = max;
            });
        }
        let mut rollup = RegionSummary::EMPTY;
        for s in &regions {
            rollup.absorb(s);
        }
        ZoneMap {
            regions,
            table: rollup,
        }
    }

    /// Number of summarized regions (= the layout's region count).
    pub fn regions(&self) -> usize {
        self.regions.len()
    }

    /// The summary of region `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn region(&self, r: usize) -> &RegionSummary {
        &self.regions[r]
    }

    /// The table-level rollup (the shard-skipping summary).
    pub fn table(&self) -> &RegionSummary {
        &self.table
    }

    /// Whether region `r` can contain a match for `query`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn region_may_match(&self, query: &Query, r: usize) -> bool {
        self.regions[r].may_match(query)
    }

    /// The regions a scan of `query` must visit, one bit per region:
    /// set unless the region's summaries prove no row can match.
    pub fn scan_set(&self, query: &Query) -> Bitmask {
        self.regions.iter().map(|s| s.may_match(query)).collect()
    }

    /// Whether *any* region can contain a match — the rollup the serve
    /// layer uses to skip scattering a sub-query to this shard.
    pub fn table_may_match(&self, query: &Query) -> bool {
        self.table.may_match(query)
    }
}

/// Regions kept vs. dropped by one compile's pruning pass, carried on
/// the compiled plan and surfaced in the run report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Regions the emitted program actually scans.
    pub scanned: usize,
    /// Regions the zone map proved empty and the compiler dropped.
    pub pruned: usize,
}

impl PruneStats {
    /// Stats of an unpruned compile: every region scanned.
    pub fn unpruned(regions: usize) -> Self {
        PruneStats {
            scanned: regions,
            pruned: 0,
        }
    }

    /// Stats of a scanned-region set (one bit per region, set when the
    /// region is scanned, as [`ZoneMap::scan_set`] returns).
    pub fn of(scanned: &Bitmask) -> Self {
        let n = scanned.count_ones();
        PruneStats {
            scanned: n,
            pruned: scanned.len() - n,
        }
    }

    /// Total regions the layout holds (scanned + pruned).
    pub fn total(&self) -> usize {
        self.scanned + self.pruned
    }

    /// Accumulates another compile's stats (e.g. across shards).
    pub fn absorb(&mut self, other: PruneStats) {
        self.scanned += other.scanned;
        self.pruned += other.pruned;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{CmpOp, ColumnPredicate};
    use crate::scan;

    #[test]
    fn summaries_bound_every_row() {
        let t = LineitemTable::generate(1000, 17);
        let zm = ZoneMap::build(&t);
        assert_eq!(zm.regions(), 1000usize.div_ceil(REGION_ROWS));
        for r in 0..zm.regions() {
            let s = zm.region(r);
            let lo = r * REGION_ROWS;
            let hi = (lo + REGION_ROWS).min(t.rows());
            assert_eq!(s.rows(), hi - lo);
            for c in Column::ALL {
                let col = t.column(c).slice(lo..hi);
                assert_eq!(s.min(c), col.iter().min().unwrap());
                assert_eq!(s.max(c), col.iter().max().unwrap());
            }
        }
    }

    #[test]
    fn tail_region_counts_partial_rows() {
        let t = LineitemTable::generate(40, 3);
        let zm = ZoneMap::build(&t);
        assert_eq!(zm.regions(), 2);
        assert_eq!(zm.region(0).rows(), 32);
        assert_eq!(zm.region(1).rows(), 8);
        assert_eq!(zm.table().rows(), 40);
    }

    #[test]
    fn pruning_never_drops_a_matching_region() {
        // Soundness: a region with any reference-executor match must
        // survive every pruning decision.
        let t = LineitemTable::generate_clustered_range(9, 0, 2048, 2048);
        let zm = ZoneMap::build(&t);
        for permille in [1, 10, 30, 100, 500] {
            let q = Query::shipdate_window_permille(permille);
            let r = scan::reference(&t, &q);
            for region in 0..zm.regions() {
                let lo = region * REGION_ROWS;
                let hi = (lo + REGION_ROWS).min(t.rows());
                let has_match = (lo..hi).any(|i| r.bitmask.get(i));
                if has_match {
                    assert!(
                        zm.region_may_match(&q, region),
                        "region {region} pruned but matches at {permille} permille"
                    );
                }
            }
        }
    }

    #[test]
    fn boundary_predicates_at_region_extremes_survive() {
        // A predicate exactly at a region's min or max must keep the
        // region: Eq(min), Eq(max), Le(min), Ge(max) all may match.
        let t = LineitemTable::generate(64, 5);
        let zm = ZoneMap::build(&t);
        let s = zm.region(0);
        let c = Column::Quantity;
        for cmp in [
            CmpOp::Eq(s.min(c)),
            CmpOp::Eq(s.max(c)),
            CmpOp::Le(s.min(c)),
            CmpOp::Ge(s.max(c)),
            CmpOp::Range(s.max(c), s.max(c)),
        ] {
            let q = Query::new(vec![ColumnPredicate::new(c, cmp)], false);
            assert!(zm.region_may_match(&q, 0), "{cmp:?} wrongly pruned");
        }
        // And one past each extreme must prune.
        for cmp in [CmpOp::Lt(s.min(c)), CmpOp::Gt(s.max(c))] {
            let q = Query::new(vec![ColumnPredicate::new(c, cmp)], false);
            assert!(!zm.region_may_match(&q, 0), "{cmp:?} wrongly kept");
        }
    }

    #[test]
    fn table_rollup_skips_out_of_range_shards() {
        // A shard holding only late rows of a clustered table can
        // prove an early date window empty.
        let total = 4096;
        let late = LineitemTable::generate_clustered_range(11, total / 2, total / 2, total);
        let zm = ZoneMap::build(&late);
        let early_window = Query::new(
            vec![ColumnPredicate::new(Column::Shipdate, CmpOp::Range(0, 100))],
            false,
        );
        assert!(!zm.table_may_match(&early_window));
        assert!(zm.table_may_match(&Query::shipdate_window_permille(1000)));
    }

    #[test]
    fn empty_summary_never_matches() {
        let s = RegionSummary::EMPTY;
        assert!(!s.may_match(&Query::q6()));
    }

    #[test]
    fn prune_stats_arithmetic() {
        let mut a = PruneStats::unpruned(10);
        assert_eq!(a.total(), 10);
        a.absorb(PruneStats {
            scanned: 3,
            pruned: 7,
        });
        assert_eq!(a.scanned, 13);
        assert_eq!(a.pruned, 7);
        assert_eq!(a.total(), 20);
    }

    #[test]
    fn scan_set_marks_the_regions_that_may_match() {
        let t = LineitemTable::generate_clustered_range(7, 0, 2048, 2048);
        let zm = ZoneMap::build(&t);
        let q = Query::shipdate_window_permille(100);
        let set = zm.scan_set(&q);
        assert_eq!(set.len(), zm.regions());
        for r in 0..zm.regions() {
            assert_eq!(set.get(r), zm.region_may_match(&q, r), "region {r}");
        }
        let stats = PruneStats::of(&set);
        assert_eq!(stats.total(), zm.regions());
        assert!(stats.pruned > 0 && stats.scanned > 0);
    }

    #[test]
    fn uniform_tables_rarely_prune_midrange_queries() {
        // The motivating contrast: uniform regions span the whole
        // domain, so a mid-domain window prunes nothing.
        let t = LineitemTable::generate(2048, 19);
        let zm = ZoneMap::build(&t);
        let q = Query::shipdate_window_permille(100);
        let kept = (0..zm.regions())
            .filter(|&r| zm.region_may_match(&q, r))
            .count();
        assert_eq!(kept, zm.regions());
    }
}
