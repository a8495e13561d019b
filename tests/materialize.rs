//! Properties of the shared column area.
//!
//! The contract under test: a system stores its table's columns once,
//! sessions hold no copy of them, and every cube a simulating run
//! builds reads that one area as the read-only image below the mask
//! base, owning only the output area above it — over plain,
//! partitioned and row-offset tables, including the remainder region
//! at the tail. The cube reads back exactly the table's values, the
//! padding and output area read zero, and nothing can write the
//! shared area. The area keeps each column in its own
//! buffer at the width its values need (`u16`, `u8`, `u8`, `i32`: 8 B
//! per row, against the model's 32 B): every value still equals what a
//! generator of 8 B values draws, at every address the cube reads, and
//! a read across two columns panics.

use hipe::{Arch, System, SystemConfig};
use hipe_db::{scan, Column, Query, SplitMix64, TableShape, COLUMN_BYTES};
use hipe_hmc::{Hmc, Words};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

const SEED: u64 = 77;

/// (rows, partitions, row_offset) systems covering one-region tables,
/// full partition fans, shards that start past global row 0 and ragged
/// remainder regions (row counts straddling the 64-row mask words and
/// the region size).
const CASES: [(usize, usize, usize); 6] = [
    (100, 1, 0),
    (4096, 4, 0),
    (1000, 8, 0),
    (257, 1, 96),
    (33, 2, 8192),
    (64, 32, 0),
];

fn systems() -> impl Iterator<Item = (String, System)> {
    CASES.into_iter().map(|(rows, partitions, row_offset)| {
        let sys = System::with_config(SystemConfig {
            partitions,
            row_offset,
            ..SystemConfig::paper(rows, SEED)
        });
        (format!("{rows}x{partitions}@{row_offset}"), sys)
    })
}

/// Words from `from` to `end`.
fn words(from: u64, end: u64) -> usize {
    ((end - from) / COLUMN_BYTES) as usize
}

/// The cube a simulating run of `sys` builds: the table's buffer below
/// the mask base, an owned area above it.
fn cube(sys: &System) -> Hmc {
    Hmc::with_shared(
        sys.config().hmc.clone(),
        Arc::clone(sys.table().column_area()),
        sys.layout().image_bytes() as usize,
    )
}

#[test]
fn materialized_columns_round_trip_every_value() {
    for (case, sys) in systems() {
        let (hmc, layout) = (cube(&sys), sys.layout());
        for c in Column::ALL {
            let read = hmc.read_words(layout.value_addr(c, 0), layout.rows());
            for (i, v) in read.iter().enumerate() {
                assert_eq!(v, sys.table().value(c, i), "{case}: {c}[{i}]");
            }
        }
    }
}

#[test]
fn padding_and_the_owned_area_read_zero() {
    for (case, sys) in systems() {
        let (hmc, layout) = (cube(&sys), sys.layout());
        for c in Column::ALL {
            let pad = layout.value_addr(c, layout.rows());
            let end = layout.column_base(c) + layout.column_stride();
            let padding = hmc.read_words(pad, words(pad, end));
            assert!(padding.iter().all(|v| v == 0), "{case}: {c} padding");
        }
        // The output area, one 256 B row at a time: an owned read
        // stays inside one of the cube's blocks.
        for row in (sys.mask_base()..layout.image_bytes()).step_by(256) {
            let owned = hmc.read_words(row, 32);
            assert!(owned.iter().all(|v| v == 0), "{case}: output at {row:#x}");
        }
    }
}

#[test]
fn live_sessions_share_one_column_buffer() {
    for (case, sys) in systems() {
        let table = sys.table().column_area();
        // Two live sessions hold no cube, so the table is the buffer's
        // only owner.
        let _sessions = (sys.session(), sys.session());
        assert_eq!(Arc::strong_count(table), 1, "{case}");
        assert_eq!(sys.materializations(), 2, "{case}");
        // The cubes simulating runs build read that one buffer.
        let cubes = [cube(&sys), cube(&sys)];
        for hmc in &cubes {
            assert!(Arc::ptr_eq(hmc.shared(), table), "{case}: private copy");
        }
        // The table and the two cubes: one buffer, three owners.
        assert_eq!(Arc::strong_count(table), 3, "{case}");
    }
}

#[test]
fn writes_below_the_mask_base_panic() {
    for (case, sys) in systems() {
        let mut hmc = cube(&sys);
        for addr in [0, sys.mask_base() - COLUMN_BYTES] {
            let write = catch_unwind(AssertUnwindSafe(|| hmc.write_word(addr, -1)));
            assert!(write.is_err(), "{case}: write at {addr:#x} went through");
        }
        hmc.write_word(sys.mask_base(), -1);
        assert_eq!(hmc.read_word(0), sys.table().value(Column::Shipdate, 0));
    }
}

#[test]
#[should_panic(expected = "exceeds the image")]
fn a_short_image_slice_is_rejected() {
    // A cube must back at least the shared column area.
    let sys = System::new(64, SEED);
    let _ = Hmc::with_shared(
        sys.config().hmc.clone(),
        Arc::clone(sys.table().column_area()),
        sys.mask_base() as usize - 8,
    );
}

/// Row `row`'s four values, in [`Column::ALL`] order, drawn as 8 B
/// values: the generator's draw stream and arithmetic, kept here
/// independently of the table's narrowed storage.
fn wide_row(seed: u64, shape: TableShape, row: usize) -> [i64; 4] {
    let mut rng = SplitMix64::new(seed);
    rng.skip(row as u64 * 4);
    let uniform = rng.range_i64(0, 2556);
    let shipdate = match shape {
        TableShape::Uniform => uniform,
        TableShape::ClusteredShipdate { total_rows } => {
            (row as u128 * 2557 / total_rows as u128) as i64
        }
    };
    let discount = rng.range_i64(0, 10);
    let quantity = rng.range_i64(1, 50);
    let price = quantity * rng.range_i64(90_000, 111_000);
    [shipdate, discount, quantity, price]
}

/// The name of a view's host width.
fn width(words: Words<'_>) -> &'static str {
    match words {
        Words::U8(_) => "u8",
        Words::U16(_) => "u16",
        Words::I32(_) => "i32",
        Words::I64(_) => "i64",
    }
}

#[test]
fn narrowed_tables_round_trip_the_wide_generator() {
    let total = 20_000;
    let q6 = Query::q6();
    for shape in [
        TableShape::Uniform,
        TableShape::ClusteredShipdate { total_rows: total },
    ] {
        for (rows, partitions, row_offset) in [(1000, 1, 0), (777, 4, 96), (321, 2, 19_679)] {
            let case = format!("{shape:?} {rows}x{partitions}@{row_offset}");
            let sys = System::with_config(SystemConfig {
                partitions,
                row_offset,
                shape,
                ..SystemConfig::paper(rows, SEED)
            });
            let (table, layout) = (sys.table(), sys.layout());
            let hmc = cube(&sys);
            let columns: Vec<_> = Column::ALL
                .map(|c| hmc.read_words(layout.value_addr(c, 0), rows))
                .into();
            // Every column at its own width, in the table and the cube.
            for (c, want) in Column::ALL.into_iter().zip(["u16", "u8", "u8", "i32"]) {
                assert_eq!(width(table.column(c)), want, "{case}: {c}");
                assert_eq!(width(columns[c.index()]), want, "{case}: {c}");
            }
            let (mut matches, mut aggregate) = (0, 0i128);
            for i in 0..rows {
                let want = wide_row(SEED, shape, row_offset + i);
                for c in Column::ALL {
                    let v = want[c.index()];
                    assert_eq!(table.value(c, i), v, "{case}: {c}[{i}]");
                    let read = hmc.read_word(layout.value_addr(c, i));
                    assert_eq!(read, v, "{case}: {c}[{i}]");
                    assert_eq!(columns[c.index()].get(i), v, "{case}: {c}[{i}]");
                }
                if q6.matches_with(|c| want[c.index()]) {
                    matches += 1;
                    aggregate += i128::from(want[Column::ExtendedPrice.index()])
                        * i128::from(want[Column::Discount.index()]);
                }
            }
            // A logic-layer run over the narrowed area answers as the
            // wide rows do.
            let reference = scan::reference(table, &q6);
            assert_eq!(
                (reference.matches, reference.aggregate),
                (matches, Some(aggregate))
            );
            assert_eq!(sys.run(Arch::Hive, &q6).result, reference, "{case}");
        }
    }
}

#[test]
fn a_table_holds_eight_host_bytes_per_padded_row() {
    for (case, sys) in systems() {
        let layout = sys.layout();
        let padded_rows = (layout.column_stride() / COLUMN_BYTES) as usize;
        let area = sys.table().column_area();
        assert_eq!(area.len(), 4 * padded_rows, "{case}");
        assert_eq!(area.host_bytes(), 8 * padded_rows, "{case}");
        // A quarter of the 32 B the model charges per row.
        assert_eq!(4 * area.host_bytes() as u64, layout.bytes(), "{case}");
    }
}

#[test]
#[should_panic(expected = "unaligned functional access")]
fn unaligned_reads_of_the_column_area_panic() {
    let sys = System::new(64, SEED);
    let _ = cube(&sys).read_words(sys.layout().value_addr(Column::Discount, 3) + 4, 1);
}

#[test]
#[should_panic(expected = "straddles a shared buffer boundary")]
fn reads_straddling_two_columns_panic() {
    let sys = System::new(64, SEED);
    let base = sys.layout().column_base(Column::Quantity);
    let _ = cube(&sys).read_words(base - COLUMN_BYTES, 2);
}

#[test]
#[should_panic(expected = "straddles the owned base")]
fn reads_straddling_the_owned_base_panic() {
    let sys = System::new(64, SEED);
    let _ = cube(&sys).read_words(sys.mask_base() - COLUMN_BYTES, 2);
}
