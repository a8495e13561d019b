//! Storage layout: DSM (column-store) and the vault-partitioned image
//! map.
//!
//! DSM stores each of the four Q6 columns contiguously as 8-byte
//! values.
//!
//! The layout additionally owns the *whole image map* — column
//! arrays, the per-region mask output area and the per-region
//! aggregate partial-sum area — and can be vault-partitioned: the HMC
//! interleaves consecutive 256 B blocks across its 32 vaults, so once
//! every area is padded to a whole vault sweep, region `r` of every
//! area lands in vault `r % 32` and a partition owning a contiguous
//! *vault group* owns a fixed, disjoint stripe of row ranges. This is
//! what lets one logic-layer engine per vault group scan its share of
//! the table without ever touching another group's banks.

use crate::lineitem::Column;

/// Bytes per column value.
pub const COLUMN_BYTES: u64 = 8;

/// Bytes of one scan region: a 256 B DRAM row buffer, the interleave
/// granularity of the HMC address map.
pub const REGION_BYTES: u64 = 256;

/// Rows covered by one 256 B region (32 x 8 B column values).
pub const REGION_ROWS: usize = (REGION_BYTES / COLUMN_BYTES) as usize;

/// Vaults the HMC address map sweeps with consecutive 256 B blocks.
///
/// The partitioned layout carves this sweep into equally sized vault
/// groups, so the value must match the cube geometry
/// (`HmcConfig::paper().vaults`; `hipe-core` asserts the two agree).
pub const VAULTS: usize = 32;

/// Address geometry of a column-store (DSM) table, including the mask
/// and aggregate output areas that follow it, optionally partitioned
/// across vault groups.
///
/// Columns are laid out back to back, each padded to a 256 B boundary
/// so every column starts on its own DRAM row. With
/// [`partitioned`](Self::partitioned) layouts the padding widens to a
/// whole 32-vault sweep (8 KiB), which pins region `r` of *every* area
/// — column data, mask chunk, partial-sum slot — into vault
/// `r % 32`. Partition `p` of `n` then owns the vault group
/// `[p * 32/n, (p+1) * 32/n)` and, equivalently, every 32-row range
/// whose region index falls in that residue window. A single-partition
/// layout keeps the original 256 B alignment, so
/// `DsmLayout::partitioned(b, r, 1) == DsmLayout::new(b, r)` and the
/// paper figures are reproduced address for address.
///
/// # Example
///
/// ```
/// use hipe_db::{Column, DsmLayout};
/// let l = DsmLayout::new(0, 64);
/// assert_eq!(l.value_addr(Column::Shipdate, 3), 24);
/// // Column arrays never overlap.
/// assert!(l.column_base(Column::Discount) >= 64 * 8);
/// // The partitioned form assigns row ranges to vault groups.
/// let p = DsmLayout::partitioned(0, 4096, 4);
/// assert_eq!(p.vault_group(1), 8..16);
/// assert_eq!(p.partition_of_region(8), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DsmLayout {
    base: u64,
    rows: usize,
    stride: u64,
    partitions: usize,
}

impl DsmLayout {
    /// Row-alignment of each column array (single-partition layouts).
    const ALIGN: u64 = REGION_BYTES;

    /// Alignment of every area in a partitioned layout: one full
    /// vault sweep, so region `r` always lands in vault `r % 32`.
    const VAULT_ALIGN: u64 = VAULTS as u64 * REGION_BYTES;

    /// Creates a single-partition layout with column arrays starting
    /// at `base`.
    pub fn new(base: u64, rows: usize) -> Self {
        DsmLayout::partitioned(base, rows, 1)
    }

    /// Creates a layout partitioned across `partitions` vault groups.
    ///
    /// # Panics
    ///
    /// Panics unless `partitions` is non-zero and divides [`VAULTS`],
    /// and — for more than one partition — unless `base` is aligned to
    /// a whole vault sweep (a misaligned base would shift every region
    /// out of its computed vault and break the ownership map).
    pub fn partitioned(base: u64, rows: usize, partitions: usize) -> Self {
        assert!(
            partitions > 0 && VAULTS.is_multiple_of(partitions),
            "{partitions} partitions do not divide the {VAULTS}-vault sweep"
        );
        assert!(
            partitions == 1 || base.is_multiple_of(Self::VAULT_ALIGN),
            "partitioned layout base {base:#x} is not vault-sweep aligned"
        );
        let align = if partitions == 1 {
            Self::ALIGN
        } else {
            Self::VAULT_ALIGN
        };
        let raw = rows as u64 * COLUMN_BYTES;
        let stride = raw.div_ceil(align) * align;
        DsmLayout {
            base,
            rows,
            stride,
            partitions,
        }
    }

    /// Base address of the table.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Number of tuples.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Total bytes occupied (all four columns, padded).
    pub fn bytes(&self) -> u64 {
        self.stride * Column::ALL.len() as u64
    }

    /// Bytes from one column's base to the next: the column's values
    /// plus the zero padding up to the layout's alignment.
    pub fn column_stride(&self) -> u64 {
        self.stride
    }

    /// Base address of one column's array.
    pub fn column_base(&self, c: Column) -> u64 {
        self.base + c.index() as u64 * self.stride
    }

    /// Address of row `i` of column `c`.
    pub fn value_addr(&self, c: Column, i: usize) -> u64 {
        self.column_base(c) + i as u64 * COLUMN_BYTES
    }

    /// Number of 32-row scan regions the table tiles into.
    pub fn regions(&self) -> usize {
        self.rows.div_ceil(REGION_ROWS)
    }

    /// Number of vault-group partitions.
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// Vaults per partition.
    pub fn vaults_per_group(&self) -> usize {
        VAULTS / self.partitions
    }

    /// The vault ids owned by partition `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a partition index.
    pub fn vault_group(&self, p: usize) -> std::ops::Range<usize> {
        assert!(p < self.partitions, "partition {p} of {}", self.partitions);
        let g = self.vaults_per_group();
        p * g..(p + 1) * g
    }

    /// The partition owning region `r` — the vault group the HMC
    /// interleave places the region's 256 B blocks in.
    pub fn partition_of_region(&self, r: usize) -> usize {
        (r % VAULTS) / self.vaults_per_group()
    }

    /// Number of regions owned by partition `p` (zero for partitions
    /// whose vault residues the table never reaches).
    pub fn partition_region_count(&self, p: usize) -> usize {
        let g = self.vaults_per_group();
        let group = self.vault_group(p);
        let sweeps = self.regions() / VAULTS;
        let rem = self.regions() % VAULTS;
        sweeps * g + rem.clamp(group.start, group.end) - group.start
    }

    /// Position of region `r` within its owning partition's scan order.
    pub fn local_region_index(&self, r: usize) -> usize {
        let g = self.vaults_per_group();
        (r / VAULTS) * g + (r % VAULTS) % g
    }

    /// Base address of the per-region match-mask output area (one
    /// 256 B chunk per region), directly after the column arrays.
    pub fn mask_base(&self) -> u64 {
        self.base + self.bytes()
    }

    /// Address of region `r`'s 256 B mask chunk.
    pub fn mask_addr(&self, r: usize) -> u64 {
        self.mask_base() + r as u64 * REGION_BYTES
    }

    /// Bytes of the mask area (padded to a whole vault sweep on
    /// partitioned layouts so the aggregate area stays vault-aligned).
    pub fn mask_area_bytes(&self) -> u64 {
        let raw = self.regions() as u64 * REGION_BYTES;
        if self.partitions == 1 {
            raw
        } else {
            raw.div_ceil(Self::VAULT_ALIGN) * Self::VAULT_ALIGN
        }
    }

    /// Base address of the aggregate partial-sum output area (one 8 B
    /// slot per region, packed 32 to a 256 B area row), after the mask
    /// area.
    pub fn agg_base(&self) -> u64 {
        self.mask_base() + self.mask_area_bytes()
    }

    /// Flushes per partition: partial-sum area rows a partition with
    /// `partition_region_count` regions stores (one per 32 owned
    /// regions).
    fn partition_flushes(&self, p: usize) -> usize {
        self.partition_region_count(p).div_ceil(REGION_ROWS)
    }

    /// Address of the 256 B partial-sum area row that partition `p`'s
    /// `group`-th flush stores (each covers 32 of the partition's
    /// regions). The row is placed in partition `p`'s own vault group.
    pub fn agg_flush_addr(&self, p: usize, group: usize) -> u64 {
        let block = if self.partitions == 1 {
            group as u64
        } else {
            let g = self.vaults_per_group() as u64;
            let (group, p) = (group as u64, p as u64);
            (group / g) * VAULTS as u64 + p * g + group % g
        };
        self.agg_base() + block * REGION_BYTES
    }

    /// Address of region `r`'s 8 B partial-sum slot: its lane within
    /// the flush row of its owning partition.
    pub fn agg_slot_addr(&self, r: usize) -> u64 {
        let p = self.partition_of_region(r);
        let k = self.local_region_index(r);
        self.agg_flush_addr(p, k / REGION_ROWS) + (k % REGION_ROWS) as u64 * COLUMN_BYTES
    }

    /// Bytes of the aggregate partial-sum area (whole 256 B rows;
    /// unused pad slots stay zero and contribute nothing to a sum).
    pub fn agg_area_bytes(&self) -> u64 {
        if self.partitions == 1 {
            return self.partition_flushes(0) as u64 * REGION_BYTES;
        }
        let flushes = (0..self.partitions)
            .map(|p| self.partition_flushes(p))
            .max()
            .unwrap_or(0);
        flushes.div_ceil(self.vaults_per_group()) as u64 * Self::VAULT_ALIGN
    }

    /// Total image bytes from [`base`](Self::base) to the end of the
    /// aggregate area — what a cube must back to run scans over this
    /// layout.
    pub fn image_bytes(&self) -> u64 {
        self.agg_base() - self.base + self.agg_area_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineitem::LineitemTable;

    #[test]
    fn dsm_columns_are_row_aligned_and_disjoint() {
        let l = DsmLayout::new(0, 100);
        let mut bases: Vec<u64> = Column::ALL.iter().map(|&c| l.column_base(c)).collect();
        for b in &bases {
            assert_eq!(b % 256, 0);
        }
        bases.dedup();
        assert_eq!(bases.len(), 4);
        // Adjacent columns are at least one column array apart.
        assert!(bases[1] - bases[0] >= 100 * COLUMN_BYTES);
    }

    #[test]
    fn dsm_column_area_round_trips_values() {
        let t = LineitemTable::generate(40, 6);
        let l = DsmLayout::new(0, 40);
        assert_eq!(*t.layout(), l);
        let area = t.column_area();
        assert_eq!(area.len() as u64 * COLUMN_BYTES, l.bytes());
        for c in Column::ALL {
            for i in 0..40 {
                let word = (l.value_addr(c, i) / COLUMN_BYTES) as usize;
                assert_eq!(area.words_from(word).unwrap().get(0), t.value(c, i));
            }
        }
    }

    #[test]
    fn dsm_is_half_the_bytes_of_nsm() {
        // The paper's row store packs each tuple into one 64 B cache
        // line; the column store keeps only the four 8 B Q6 columns,
        // so a scan moves half the data.
        let rows = 4096;
        let nsm = rows as u64 * 64;
        let dsm = DsmLayout::new(0, rows).bytes();
        assert_eq!(dsm, nsm / 2);
    }

    #[test]
    fn single_partition_layout_is_the_plain_layout() {
        // The invariant the paper figures rest on: partitions == 1
        // reproduces the original layout address for address.
        for rows in [1, 31, 32, 100, 1024, 4097] {
            assert_eq!(
                DsmLayout::partitioned(64, rows, 1),
                DsmLayout::new(64, rows)
            );
        }
    }

    #[test]
    #[should_panic(expected = "do not divide")]
    fn partitions_must_divide_the_vault_sweep() {
        let _ = DsmLayout::partitioned(0, 100, 3);
    }

    #[test]
    #[should_panic(expected = "not vault-sweep aligned")]
    fn partitioned_base_must_be_vault_aligned() {
        // A 256 B-aligned but sweep-misaligned base would shift every
        // region out of its computed vault.
        let _ = DsmLayout::partitioned(2048, 4096, 4);
    }

    #[test]
    fn sweep_aligned_bases_and_single_partitions_are_accepted() {
        let l = DsmLayout::partitioned(8192, 4096, 4);
        assert_eq!(l.base(), 8192);
        // Single-partition layouts never consult the vault map: any
        // 256 B-aligned base stays valid.
        let _ = DsmLayout::partitioned(2048, 4096, 1);
    }

    #[test]
    fn partitioned_strides_cover_whole_vault_sweeps() {
        for n in [2, 4, 8, 16, 32] {
            let l = DsmLayout::partitioned(0, 1000, n);
            assert_eq!(l.column_base(Column::Discount) % 8192, 0, "n={n}");
            assert_eq!(l.mask_base() % 8192, 0, "n={n}");
            assert_eq!(l.agg_base() % 8192, 0, "n={n}");
        }
    }

    #[test]
    fn vault_groups_partition_the_sweep() {
        let l = DsmLayout::partitioned(0, 4096, 4);
        assert_eq!(l.vaults_per_group(), 8);
        let mut covered = vec![];
        for p in 0..4 {
            covered.extend(l.vault_group(p));
        }
        assert_eq!(covered, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn regions_map_to_their_vaults_partition() {
        // Region r's blocks land in vault r % 32; the owning partition
        // must be the group holding that vault.
        let l = DsmLayout::partitioned(0, 4096, 4);
        for r in 0..l.regions() {
            let p = l.partition_of_region(r);
            assert!(l.vault_group(p).contains(&(r % 32)), "region {r}");
            for c in Column::ALL {
                let block = (l.value_addr(c, r * REGION_ROWS) / 256) as usize;
                assert!(l.vault_group(p).contains(&(block % 32)), "region {r}");
            }
            let mask_block = (l.mask_addr(r) / 256) as usize;
            assert!(l.vault_group(p).contains(&(mask_block % 32)));
            let slot_block = (l.agg_slot_addr(r) / 256) as usize;
            assert!(l.vault_group(p).contains(&(slot_block % 32)));
        }
    }

    #[test]
    fn small_tables_leave_high_partitions_empty() {
        // 64 rows = 2 regions, both in vaults 0 and 1 = partition 0 of
        // 8: every other partition is empty.
        let l = DsmLayout::partitioned(0, 64, 8);
        assert_eq!(l.partition_region_count(0), 2);
        for p in 1..8 {
            assert_eq!(l.partition_region_count(p), 0, "partition {p}");
        }
    }

    #[test]
    fn single_partition_agg_map_matches_the_historical_one() {
        // partitions == 1: slot r at agg_base + 8r, flush g at
        // agg_base + 256g, area = ceil(regions/32) rows.
        let l = DsmLayout::new(0, 3200);
        assert_eq!(l.mask_area_bytes(), 100 * 256);
        assert_eq!(l.agg_base(), l.mask_base() + 100 * 256);
        for r in 0..l.regions() {
            assert_eq!(l.agg_slot_addr(r), l.agg_base() + r as u64 * 8);
        }
        for g in 0..4 {
            assert_eq!(l.agg_flush_addr(0, g), l.agg_base() + g as u64 * 256);
        }
        assert_eq!(l.agg_area_bytes(), 4 * 256);
    }

    #[test]
    fn partitioned_agg_slots_are_disjoint_and_inside_the_area() {
        for (rows, n) in [(4096, 4), (2048, 8), (1000, 2), (100, 4)] {
            let l = DsmLayout::partitioned(0, rows, n);
            let mut slots: Vec<u64> = (0..l.regions()).map(|r| l.agg_slot_addr(r)).collect();
            slots.sort_unstable();
            slots.dedup();
            assert_eq!(
                slots.len(),
                l.regions(),
                "rows={rows} n={n}: slot collision"
            );
            let end = l.agg_base() + l.agg_area_bytes();
            assert!(slots.iter().all(|&a| a >= l.agg_base() && a + 8 <= end));
        }
    }

    #[test]
    fn image_bytes_cover_every_area() {
        for n in [1, 2, 4, 8] {
            let l = DsmLayout::partitioned(0, 5000, n);
            assert_eq!(l.image_bytes(), l.agg_base() + l.agg_area_bytes());
            assert!(l.image_bytes() >= l.bytes() + l.regions() as u64 * 256);
        }
    }
}
