//! The reference select-scan executor.
//!
//! This plain-Rust executor defines the *correct answer* for every
//! simulated architecture. The integration tests require that the
//! functional results computed on the simulated x86, HMC, HIVE and
//! HIPE targets equal the output of [`reference()`] bit for bit.

use crate::bitmask::Bitmask;
use crate::lineitem::{Column, LineitemTable};
use crate::query::Query;

/// Result of a select scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanResult {
    /// Per-tuple match bitmask.
    pub bitmask: Bitmask,
    /// Number of matching tuples.
    pub matches: usize,
    /// `SUM(l_extendedprice * l_discount)` over matches, if the query
    /// aggregates (discount in hundredths, price in cents: the sum is
    /// in 1e-4 currency units, exact integer arithmetic).
    pub aggregate: Option<i128>,
}

impl ScanResult {
    /// Fraction of tuples selected: 0.0 over an empty table, which
    /// has no matches (its row count is read as 1, so a printed
    /// percentage is never NaN).
    pub fn selectivity(&self) -> f64 {
        self.matches as f64 / self.bitmask.len().max(1) as f64
    }
}

/// Evaluates `query` over `table` one tuple at a time (the row-store
/// processing model of the paper's Figure 1a).
pub fn tuple_at_a_time(table: &LineitemTable, query: &Query) -> ScanResult {
    let rows = table.rows();
    let columns = Column::ALL.map(|c| table.column(c));
    let value = |c: Column, i: usize| columns[c.index()].get(i);
    let mut matches = 0;
    let mut agg: i128 = 0;
    // Evaluate 64 tuples per packed word: matches accumulate into a
    // register and land in the mask one word at a time, with the same
    // row-major visit order (and thus the identical aggregate sum) as
    // the historical per-bit loop.
    let bitmask = Bitmask::from_fn(rows, |w| {
        let start = w * 64;
        let end = (start + 64).min(rows);
        let mut bits = 0u64;
        for i in start..end {
            let hit = query.matches_with(|c| value(c, i));
            if hit {
                bits |= 1 << (i - start);
                matches += 1;
                if query.aggregates() {
                    agg += value(Column::ExtendedPrice, i) as i128
                        * value(Column::Discount, i) as i128;
                }
            }
        }
        bits
    });
    ScanResult {
        bitmask,
        matches,
        aggregate: query.aggregates().then_some(agg),
    }
}

/// The canonical reference result (tuple-at-a-time evaluation).
pub fn reference(table: &LineitemTable, query: &Query) -> ScanResult {
    tuple_at_a_time(table, query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{CmpOp, ColumnPredicate};

    #[test]
    fn q6_selectivity_near_two_percent() {
        let t = LineitemTable::generate(200_000, 12);
        let r = reference(&t, &Query::q6());
        let sel = r.matches as f64 / t.rows() as f64;
        // 365/2557 * 3/11 * 23/50 = 1.79 %.
        assert!((0.012..0.025).contains(&sel), "selectivity {sel}");
    }

    #[test]
    fn aggregate_is_exact() {
        let t = LineitemTable::generate(1_000, 13);
        let r = reference(&t, &Query::q6());
        let by_hand: i128 = (0..t.rows())
            .filter(|&i| r.bitmask.get(i))
            .map(|i| {
                t.value(Column::ExtendedPrice, i) as i128 * t.value(Column::Discount, i) as i128
            })
            .sum();
        assert_eq!(r.aggregate, Some(by_hand));
    }

    #[test]
    fn non_aggregating_query_returns_none() {
        let t = LineitemTable::generate(100, 14);
        let q = Query::new(
            vec![ColumnPredicate::new(Column::Quantity, CmpOp::Lt(10))],
            false,
        );
        let r = reference(&t, &q);
        assert_eq!(r.aggregate, None);
        assert_eq!(r.matches, r.bitmask.count_ones());
    }

    #[test]
    fn all_pass_and_none_pass_edges() {
        let t = LineitemTable::generate(500, 15);
        let all = Query::new(
            vec![ColumnPredicate::new(Column::Quantity, CmpOp::Le(50))],
            false,
        );
        let none = Query::new(
            vec![ColumnPredicate::new(Column::Quantity, CmpOp::Gt(50))],
            false,
        );
        assert_eq!(reference(&t, &all).matches, 500);
        assert_eq!(reference(&t, &none).matches, 0);
    }
}
