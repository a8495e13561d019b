//! Synthetic TPC-H lineitem generation.

use crate::layout::{DsmLayout, COLUMN_BYTES};
use crate::rng::SplitMix64;
use hipe_sim::{WordArea, WordVec, Words, WorkerPool};
use std::sync::Arc;

/// Rows of lineitem at TPC-H scale factor 1 (the paper's 1 GB setup).
pub const SF1_ROWS: usize = 6_001_215;

/// Days covered by lineitem ship dates (1992-01-02 .. 1998-12-31).
pub(crate) const SHIPDATE_DAYS: i64 = 2557;

/// Day index (since 1992-01-01) of 1994-01-01.
pub(crate) const DAY_1994_01_01: i64 = 731;

/// Day index (since 1992-01-01) of 1995-01-01.
pub(crate) const DAY_1995_01_01: i64 = 1096;

/// The four lineitem columns touched by Query 06.
///
/// Values are integers (fixed-point where the original schema uses
/// decimals). The simulated machines see each one as an 8 B value,
/// matching the 8-byte lanes of their vector and logic-layer units; the
/// host stores each column at the width its values need (see
/// [`LineitemTable`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Column {
    /// `l_shipdate` as days since 1992-01-01 (0 ..= 2556; a `u16` on
    /// the host).
    Shipdate,
    /// `l_discount` in hundredths (0 ..= 10 for 0.00 ..= 0.10; a `u8`
    /// on the host).
    Discount,
    /// `l_quantity` (1 ..= 50; a `u8` on the host).
    Quantity,
    /// `l_extendedprice` in cents (at most 50 × 111 000; an `i32` on
    /// the host).
    ExtendedPrice,
}

impl Column {
    /// All columns in their canonical (column-id) order.
    pub const ALL: [Column; 4] = [
        Column::Shipdate,
        Column::Discount,
        Column::Quantity,
        Column::ExtendedPrice,
    ];

    /// The column's DSM column id (its position in [`Column::ALL`]).
    pub fn index(self) -> usize {
        match self {
            Column::Shipdate => 0,
            Column::Discount => 1,
            Column::Quantity => 2,
            Column::ExtendedPrice => 3,
        }
    }
}

impl std::fmt::Display for Column {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Column::Shipdate => "l_shipdate",
            Column::Discount => "l_discount",
            Column::Quantity => "l_quantity",
            Column::ExtendedPrice => "l_extendedprice",
        };
        f.write_str(name)
    }
}

/// An in-memory lineitem table (Q6-relevant columns).
///
/// Generation follows dbgen's documented distributions:
/// quantity uniform in 1..=50, discount uniform in 0.00..=0.10,
/// ship dates uniform over the seven-year order window, extended price
/// derived from a uniform part cost times quantity.
///
/// The four columns live in one immutable [`WordArea`] laid out like
/// the column area of the table's [`DsmLayout`]: word `a / 8` holds the
/// value at address `a`, each column is its own buffer of one layout
/// stride, and the padding after each column's rows is zero. That area
/// is the cube image below the layout's mask base, so a simulated cube
/// shares it ([`column_area`](Self::column_area)) instead of copying
/// the table into its own memory.
///
/// The layout, and every address and timing model built on it, keeps
/// the paper's 8 B values ([`COLUMN_BYTES`]). The host stores each
/// column in the narrowest integer type that holds its generated
/// values: `l_shipdate` as `u16`, `l_discount` and `l_quantity` as
/// `u8`, and `l_extendedprice` (at most 50 × 111 000 cents) as `i32`.
/// Readers widen them back to `i64` ([`Words`]). So a table holds 8 B
/// per padded row on the host, not 32.
///
/// # Example
///
/// ```
/// use hipe_db::{Column, LineitemTable};
/// let t = LineitemTable::generate(100, 7);
/// assert_eq!(t.rows(), 100);
/// let q = t.column(Column::Quantity);
/// assert!(q.iter().all(|v| (1..=50).contains(&v)));
/// assert_eq!(t.value(Column::Quantity, 3), q.get(3));
/// // 1 + 1 + 2 + 4 B per row, padded to whole 256 B regions.
/// assert_eq!(t.column_area().host_bytes(), 128 * 8);
/// ```
#[derive(Debug, Clone)]
pub struct LineitemTable {
    /// Every column, padded, at its [`DsmLayout::column_base`], one
    /// host word of the column's width per 8 B modelled value.
    area: Arc<WordArea>,
    layout: DsmLayout,
    seed: u64,
}

/// RNG draws one generated row consumes (shipdate, discount, quantity,
/// part price — each exactly one `range_i64`). [`LineitemTable::
/// generate_shaped_on`] jumps the stream by this much per skipped row,
/// so the constant must track the body of the generation loop.
const DRAWS_PER_ROW: u64 = 4;

/// Below this many rows, generation stays on the calling thread even
/// when a wider [`WorkerPool`] is available: the table is too small for
/// fan-out to beat thread startup. (The output is identical either way
/// — the threshold only moves host time.)
const PARALLEL_MIN_ROWS: usize = 65_536;

/// One worker's contiguous slice of the columns being generated. The
/// O(1) SplitMix64 stream jump lets each chunk start its own RNG at
/// exactly the draw the monolithic generator would have reached, so
/// chunks are order-free and the filled table is bit-identical to a
/// serial fill.
struct Chunk<'a> {
    /// Global row index of the chunk's first row.
    first_row: usize,
    shipdate: &'a mut [u16],
    discount: &'a mut [u8],
    quantity: &'a mut [u8],
    extendedprice: &'a mut [i32],
}

/// Narrows a generated value of `column` to its host width.
///
/// # Panics
///
/// Panics, naming the column, if the value does not fit, so a
/// generator drawing wider values fails loudly instead of wrapping.
fn narrow<T: TryFrom<i64>>(column: Column, v: i64) -> T {
    T::try_from(v).unwrap_or_else(|_| {
        panic!(
            "generated {column} value {v} does not fit its {} B host word",
            std::mem::size_of::<T>()
        )
    })
}

/// The clustered shape's ship days `floor(g * SHIPDATE_DAYS /
/// total_rows)` for global rows `g = first_row, first_row + 1, …`,
/// stepped without a division per row: the quotient and remainder of
/// the first row are computed once, and each next row adds
/// `SHIPDATE_DAYS`'s own quotient and remainder by `total_rows`,
/// carrying one when the remainder wraps. The days are exact.
struct ClusteredDays {
    day: i64,
    rem: u64,
    step_day: i64,
    step_rem: u64,
    total_rows: u64,
}

impl ClusteredDays {
    /// The days from global row `first_row` of a `total_rows`-row
    /// table on.
    ///
    /// # Panics
    ///
    /// Panics if `total_rows` is zero.
    fn new(first_row: usize, total_rows: usize) -> Self {
        assert!(total_rows > 0, "a clustered table of zero rows");
        let total = total_rows as u128;
        let first = first_row as u128 * SHIPDATE_DAYS as u128;
        ClusteredDays {
            day: (first / total) as i64,
            rem: (first % total) as u64,
            step_day: SHIPDATE_DAYS / total_rows as i64,
            step_rem: (SHIPDATE_DAYS as u128 % total) as u64,
            total_rows: total_rows as u64,
        }
    }

    /// The current row's day; steps to the next row.
    fn next_day(&mut self) -> i64 {
        let day = self.day;
        self.day += self.step_day;
        self.rem += self.step_rem;
        if self.rem >= self.total_rows {
            self.rem -= self.total_rows;
            self.day += 1;
        }
        day
    }
}

/// Fills one chunk by replaying the monolithic draw stream from
/// `chunk.first_row`. This is the *only* generation loop — the serial
/// path is a single chunk spanning the whole table, so parallel and
/// serial output agree byte for byte by construction.
fn fill_chunk(seed: u64, shape: TableShape, chunk: Chunk<'_>) {
    let mut rng = SplitMix64::new(seed);
    rng.skip(chunk.first_row as u64 * DRAWS_PER_ROW);
    let mut clustered = match shape {
        TableShape::Uniform => None,
        TableShape::ClusteredShipdate { total_rows } => {
            Some(ClusteredDays::new(chunk.first_row, total_rows))
        }
    };
    for i in 0..chunk.shipdate.len() {
        // Both shapes draw the uniform ship day, so every later column
        // sees the same values; the clustered shape discards it.
        let drawn = rng.range_i64(0, SHIPDATE_DAYS - 1);
        let shipdate = clustered.as_mut().map_or(drawn, ClusteredDays::next_day);
        chunk.shipdate[i] = narrow(Column::Shipdate, shipdate);
        chunk.discount[i] = narrow(Column::Discount, rng.range_i64(0, 10));
        let q = rng.range_i64(1, 50);
        chunk.quantity[i] = narrow(Column::Quantity, q);
        // dbgen: extendedprice = quantity * part retail price;
        // retail prices are ~90k..111k cents.
        let part_price = rng.range_i64(90_000, 111_000);
        chunk.extendedprice[i] = narrow(Column::ExtendedPrice, q * part_price);
    }
}

/// How a generated table's values are laid out across the row space.
///
/// dbgen output is uniform everywhere, which is the worst case for
/// zone-map pruning (every region's min/max spans the whole domain).
/// Real warehouses are loaded in shipdate order, which is the best
/// case: a range predicate touches one contiguous run of regions. The
/// shape knob models both without changing selectivity — only the
/// shipdate column differs, and a given date window selects the same
/// fraction of rows under either shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TableShape {
    /// dbgen's documented distributions: every column uniform.
    Uniform,
    /// Rows arrive in shipdate order: row `i` of the `total_rows`-row
    /// logical table ships on day `i * 2557 / total_rows`. All other
    /// columns draw exactly the uniform shape's values (the uniform
    /// shipdate draw is consumed and discarded so the RNG stream stays
    /// aligned), and any contiguous row range of the clustered table
    /// equals the corresponding slice of the monolithic clustered
    /// table — the shard generator's contract holds for both shapes.
    ClusteredShipdate {
        /// Rows of the whole logical table (≥ the generated range's
        /// end), which fixes the row → day mapping so shards agree.
        total_rows: usize,
    },
}

impl LineitemTable {
    /// Generates `rows` tuples deterministically from `seed`.
    pub fn generate(rows: usize, seed: u64) -> Self {
        LineitemTable::generate_shaped_on(
            &WorkerPool::from_env(),
            seed,
            0,
            rows,
            TableShape::Uniform,
        )
    }

    /// Generates rows `first_row .. first_row + rows` under `shape` —
    /// the shard-aware generator: a range of the table reproduces
    /// the monolithic table's rows (of the same seed and shape) value
    /// for value, without generating the rows before it (the RNG
    /// stream is jumped in O(1)).
    ///
    /// The range is cut into one contiguous chunk per `pool` worker,
    /// and each chunk's RNG is jumped the same way to its first draw,
    /// so the result is bit-identical to the serial fill for every
    /// pool width — the tests compare them value for value.
    ///
    /// # Panics
    ///
    /// Panics if `shape` is [`TableShape::ClusteredShipdate`] and the
    /// range extends past its `total_rows`.
    ///
    /// # Example
    ///
    /// ```
    /// use hipe_db::{Column, LineitemTable, TableShape};
    /// use hipe_sim::WorkerPool;
    /// let whole = LineitemTable::generate(100, 7);
    /// let shard =
    ///     LineitemTable::generate_shaped_on(&WorkerPool::serial(), 7, 60, 40, TableShape::Uniform);
    /// assert_eq!(shard.column(Column::Quantity), whole.column(Column::Quantity).slice(60..));
    /// ```
    pub fn generate_shaped_on(
        pool: &WorkerPool,
        seed: u64,
        first_row: usize,
        rows: usize,
        shape: TableShape,
    ) -> Self {
        LineitemTable::generate_laid_out(pool, seed, first_row, shape, DsmLayout::new(0, rows))
    }

    /// Generates rows `first_row .. first_row + layout.rows()` under
    /// `shape` straight into a column area laid out per `layout` — the
    /// constructor a system uses, so its cube can share the table's
    /// buffer as the image below [`DsmLayout::mask_base`]. Values are
    /// those of [`generate_shaped_on`](Self::generate_shaped_on) for
    /// every layout; only the padding between columns differs.
    ///
    /// # Panics
    ///
    /// Panics if the layout does not start at address 0, or if `shape`
    /// is [`TableShape::ClusteredShipdate`] and the range extends past
    /// its `total_rows`.
    pub fn generate_laid_out(
        pool: &WorkerPool,
        seed: u64,
        first_row: usize,
        shape: TableShape,
        layout: DsmLayout,
    ) -> Self {
        assert_eq!(
            layout.base(),
            0,
            "a table's column area starts at address 0"
        );
        let rows = layout.rows();
        if let TableShape::ClusteredShipdate { total_rows } = shape {
            assert!(
                first_row + rows <= total_rows,
                "row range {first_row}..{} exceeds the {total_rows}-row logical table",
                first_row + rows
            );
        }
        // Columns sit back to back in `Column::ALL` order, one padded
        // stride each, every one at its own width.
        let stride = (layout.column_stride() / COLUMN_BYTES) as usize;
        let mut shipdate = vec![0u16; stride];
        let mut discount = vec![0u8; stride];
        let mut quantity = vec![0u8; stride];
        let mut extendedprice = vec![0i32; stride];
        let chunk_rows = if pool.workers() <= 1 || rows < PARALLEL_MIN_ROWS {
            rows.max(1)
        } else {
            rows.div_ceil(pool.workers())
        };
        let chunks: Vec<Chunk<'_>> = shipdate[..rows]
            .chunks_mut(chunk_rows)
            .zip(discount[..rows].chunks_mut(chunk_rows))
            .zip(quantity[..rows].chunks_mut(chunk_rows))
            .zip(extendedprice[..rows].chunks_mut(chunk_rows))
            .enumerate()
            .map(|(i, (((s, d), q), p))| Chunk {
                first_row: first_row + i * chunk_rows,
                shipdate: s,
                discount: d,
                quantity: q,
                extendedprice: p,
            })
            .collect();
        pool.run(chunks, |_, chunk| fill_chunk(seed, shape, chunk));
        // The area takes the filled buffers as they are: moving a `Vec`
        // copies no element, where an `Arc<[T]>` would copy them all.
        let area = WordArea::new(vec![
            WordVec::U16(shipdate),
            WordVec::U8(discount),
            WordVec::U8(quantity),
            WordVec::I32(extendedprice),
        ]);
        LineitemTable {
            area: Arc::new(area),
            layout,
            seed,
        }
    }

    /// Generates rows `first_row .. first_row + rows` of a
    /// shipdate-clustered table (see [`TableShape::ClusteredShipdate`]).
    ///
    /// # Panics
    ///
    /// Panics if the range extends past `total_rows`.
    ///
    /// # Example
    ///
    /// ```
    /// use hipe_db::{Column, LineitemTable};
    /// let t = LineitemTable::generate_clustered_range(7, 0, 1000, 1000);
    /// let d: Vec<i64> = t.column(Column::Shipdate).iter().collect();
    /// assert!(d.windows(2).all(|w| w[0] <= w[1])); // sorted by row
    /// ```
    pub fn generate_clustered_range(
        seed: u64,
        first_row: usize,
        rows: usize,
        total_rows: usize,
    ) -> Self {
        LineitemTable::generate_shaped_on(
            &WorkerPool::from_env(),
            seed,
            first_row,
            rows,
            TableShape::ClusteredShipdate { total_rows },
        )
    }

    /// Number of tuples.
    pub fn rows(&self) -> usize {
        self.layout.rows()
    }

    /// The layout whose column area [`column_area`](Self::column_area)
    /// follows.
    pub fn layout(&self) -> &DsmLayout {
        &self.layout
    }

    /// The column area: word `a / 8` holds the value at address `a` of
    /// [`layout`](Self::layout), padding included, one buffer per
    /// column in [`Column::ALL`] order. Cubes share this area as their
    /// read-only image, widening each word on read.
    pub fn column_area(&self) -> &Arc<WordArea> {
        &self.area
    }

    /// The seed used for generation.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Borrow one column's rows (without its padding), at the
    /// column's host width.
    pub fn column(&self, c: Column) -> Words<'_> {
        self.area.buffers()[c.index()].words().slice(..self.rows())
    }

    /// Value of `c` at row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn value(&self, c: Column, i: usize) -> i64 {
        self.column(c).get(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let a = LineitemTable::generate(500, 9);
        let b = LineitemTable::generate(500, 9);
        for c in Column::ALL {
            assert_eq!(a.column(c), b.column(c));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = LineitemTable::generate(500, 1);
        let b = LineitemTable::generate(500, 2);
        assert_ne!(a.column(Column::Quantity), b.column(Column::Quantity));
    }

    #[test]
    fn value_ranges_match_dbgen() {
        let t = LineitemTable::generate(10_000, 3);
        assert!(t
            .column(Column::Shipdate)
            .iter()
            .all(|v| (0..SHIPDATE_DAYS).contains(&v)));
        assert!(t
            .column(Column::Discount)
            .iter()
            .all(|v| (0..=10).contains(&v)));
        assert!(t
            .column(Column::Quantity)
            .iter()
            .all(|v| (1..=50).contains(&v)));
        assert!(t.column(Column::ExtendedPrice).iter().all(|v| v > 0));
    }

    #[test]
    fn shipdate_1994_fraction_is_about_14_percent() {
        let t = LineitemTable::generate(100_000, 4);
        let hits = t
            .column(Column::Shipdate)
            .iter()
            .filter(|d| (DAY_1994_01_01..DAY_1995_01_01).contains(d))
            .count();
        let frac = hits as f64 / 100_000.0;
        assert!((0.12..0.17).contains(&frac), "fraction {frac}");
    }

    #[test]
    fn generate_range_matches_monolithic_slices() {
        // The shard generator's contract: any contiguous row range of
        // the monolithic table reproduces value for value, including
        // ranges that start mid-region and a full-table range.
        let whole = LineitemTable::generate(257, 21);
        for (first, rows) in [(0, 257), (0, 1), (1, 17), (96, 64), (200, 57), (256, 1)] {
            let shard = LineitemTable::generate_shaped_on(
                &WorkerPool::serial(),
                21,
                first,
                rows,
                TableShape::Uniform,
            );
            assert_eq!(shard.rows(), rows);
            for c in Column::ALL {
                assert_eq!(
                    shard.column(c),
                    whole.column(c).slice(first..first + rows),
                    "{c} rows {first}..{}",
                    first + rows
                );
            }
        }
    }

    #[test]
    fn clustered_shards_slice_the_monolithic_clustered_table() {
        let total = 257;
        let whole = LineitemTable::generate_clustered_range(21, 0, total, total);
        for (first, rows) in [(0, 257), (0, 1), (1, 17), (96, 64), (200, 57), (256, 1)] {
            let shard = LineitemTable::generate_clustered_range(21, first, rows, total);
            for c in Column::ALL {
                assert_eq!(
                    shard.column(c),
                    whole.column(c).slice(first..first + rows),
                    "{c} rows {first}..{}",
                    first + rows
                );
            }
        }
    }

    #[test]
    fn clustered_differs_from_uniform_only_in_shipdate() {
        let total = 300;
        let uniform = LineitemTable::generate(total, 33);
        let clustered = LineitemTable::generate_clustered_range(33, 0, total, total);
        for c in [Column::Discount, Column::Quantity, Column::ExtendedPrice] {
            assert_eq!(uniform.column(c), clustered.column(c), "{c}");
        }
        let d: Vec<i64> = clustered.column(Column::Shipdate).iter().collect();
        assert!(d.windows(2).all(|w| w[0] <= w[1]), "shipdate not sorted");
        assert_eq!(d[0], 0);
        assert!(*d.last().unwrap() < SHIPDATE_DAYS);
        assert_ne!(
            uniform.column(Column::Shipdate),
            clustered.column(Column::Shipdate)
        );
    }

    #[test]
    fn generate_shaped_dispatches_both_shapes() {
        // An offset range of either shape slices its own monolithic
        // table: the shape is honoured past the stream jump.
        let uniform = LineitemTable::generate(50, 5);
        let clustered = LineitemTable::generate_clustered_range(5, 0, 100, 100);
        for (shape, whole) in [
            (TableShape::Uniform, &uniform),
            (
                TableShape::ClusteredShipdate { total_rows: 100 },
                &clustered,
            ),
        ] {
            let range = LineitemTable::generate_shaped_on(&WorkerPool::serial(), 5, 10, 40, shape);
            assert_eq!(
                range.column(Column::Shipdate),
                whole.column(Column::Shipdate).slice(10..50),
                "{shape:?}"
            );
        }
    }

    #[test]
    fn parallel_generation_is_bit_identical_to_serial() {
        // Big enough to clear PARALLEL_MIN_ROWS so the wide pools
        // genuinely chunk, with a ragged tail (not a chunk multiple).
        let rows = PARALLEL_MIN_ROWS + 12_345;
        for shape in [
            TableShape::Uniform,
            TableShape::ClusteredShipdate {
                total_rows: rows + 7,
            },
        ] {
            let serial =
                LineitemTable::generate_shaped_on(&WorkerPool::serial(), 77, 3, rows, shape);
            for workers in [2, 3, 8] {
                let pool = WorkerPool::new(workers);
                let parallel = LineitemTable::generate_shaped_on(&pool, 77, 3, rows, shape);
                for c in Column::ALL {
                    assert_eq!(
                        serial.column(c),
                        parallel.column(c),
                        "{c} differs at {workers} workers ({shape:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn laid_out_tables_pad_with_zeros_and_keep_every_value() {
        // A partitioned layout widens each column to whole 8 KiB vault
        // sweeps; the values stay those of the plain generator.
        let (rows, first) = (1000, 5);
        let plain = LineitemTable::generate_shaped_on(
            &WorkerPool::serial(),
            9,
            first,
            rows,
            TableShape::Uniform,
        );
        let layout = DsmLayout::partitioned(0, rows, 4);
        let wide = LineitemTable::generate_laid_out(
            &WorkerPool::new(2),
            9,
            first,
            TableShape::Uniform,
            layout,
        );
        assert_eq!(*wide.layout(), layout);
        assert_eq!(
            wide.column_area().len() as u64 * COLUMN_BYTES,
            layout.bytes()
        );
        let stride = (layout.column_stride() / COLUMN_BYTES) as usize;
        for c in Column::ALL {
            assert_eq!(wide.column(c), plain.column(c), "{c}");
            let column = wide.column_area().buffers()[c.index()].words();
            assert_eq!(column.len(), stride, "{c}");
            assert!(column.slice(rows..).iter().all(|v| v == 0), "{c} padding");
        }
    }

    #[test]
    #[should_panic(expected = "starts at address 0")]
    fn laid_out_tables_start_at_address_zero() {
        let _ = LineitemTable::generate_laid_out(
            &WorkerPool::serial(),
            1,
            0,
            TableShape::Uniform,
            DsmLayout::new(256, 10),
        );
    }

    #[test]
    fn clustered_days_step_to_the_128_bit_formula() {
        // Row counts below, at and above the day count, and offsets
        // that start mid-step (ragged against both).
        for total in [1, 2, 7, 100, 2556, 2557, 2558, 5_000, 20_000, SF1_ROWS] {
            for first in [0, 1, 3, 96, 999, 19_679, total / 2, total - 1] {
                if first >= total {
                    continue;
                }
                let mut days = ClusteredDays::new(first, total);
                for g in first..total.min(first + 6_000) {
                    let want = (g as u128 * SHIPDATE_DAYS as u128 / total as u128) as i64;
                    assert_eq!(days.next_day(), want, "row {g} of {total} from {first}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "generated l_shipdate value 65536 does not fit its 2 B host word")]
    fn a_shipdate_past_u16_panics_by_name() {
        let _: u16 = narrow(Column::Shipdate, 65_536);
    }

    #[test]
    #[should_panic(expected = "generated l_discount value 256 does not fit its 1 B host word")]
    fn a_discount_past_u8_panics_by_name() {
        let _: u8 = narrow(Column::Discount, 256);
    }

    #[test]
    #[should_panic(expected = "generated l_quantity value -1 does not fit its 1 B host word")]
    fn a_negative_quantity_panics_by_name() {
        let _: u8 = narrow(Column::Quantity, -1);
    }

    #[test]
    #[should_panic(expected = "generated l_extendedprice value 2147483648 does not fit")]
    fn an_extendedprice_past_i32_panics_by_name() {
        let _: i32 = narrow(Column::ExtendedPrice, 1 << 31);
    }

    #[test]
    fn zero_row_table_generates_empty() {
        let t =
            LineitemTable::generate_shaped_on(&WorkerPool::new(4), 1, 0, 0, TableShape::Uniform);
        assert_eq!(t.rows(), 0);
    }
}
