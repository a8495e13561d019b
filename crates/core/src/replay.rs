//! Replay or simulate: the per-[`System`] timing memo that both
//! executors share.
//!
//! No machine's timing reads a stored value except through what the
//! functional scan computes anyway (`tests/seed_invariance.rs`). The
//! x86 and HMC-ISA timing follows from the plan's templates, its
//! scanned regions and, for an aggregate, the mask the gather walks.
//! HIVE's follows from its program alone, and HIPE's adds, per
//! scanned region, how far its running mask stays non-zero: that is
//! all its predication reads. So every run takes three steps:
//!
//! 1. the *answer*: a functional scan of the query over the scanned
//!    regions, completed by [`System::finish_result`];
//! 2. the *key* ([`TimingKey`]): the program without the operands no
//!    timing reads, plus what the functional scan measured of the data;
//! 3. *replay or simulate*: the [`System`] keeps each [`Timing`] its
//!    sessions simulate under its key, and a later run with the same
//!    key replays it instead of re-running the core, cache, cube and
//!    engine models, the way FastSim memoizes micro-architectural
//!    state (Schnarr and Larus, ASPLOS 1998). A simulation runs on a
//!    cube built for it alone, so it starts from the state a replay
//!    assumes: idle banks and links, zero counters, a zero output
//!    area.
//!
//! A logic-machine miss also checks the engines' answer against the
//! functional one, so every simulated HIVE or HIPE run is a
//! differential test of the logic lowering.
//!
//! [`System`]: crate::System
//! [`System::finish_result`]: crate::System::finish_result

use crate::backend::ExecutablePlan;
use crate::report::{PartitionPhase, PhaseBreakdown, RunReport};
use crate::system::System;
use hipe_cache::CacheStats;
use hipe_compiler::{HostScanProgram, LogicScanProgram};
use hipe_cpu::CoreStats;
use hipe_db::scan::ScanResult;
use hipe_db::{Bitmask, CmpOp, LineitemTable, Query, REGION_ROWS};
use hipe_hmc::{EnergyBreakdown, Hmc, HmcStats};
use hipe_logic::EngineStats;
use hipe_sim::Cycle;

/// A plan's program with the operands no timing model reads erased
/// ([`HostScanProgram::without_operands`],
/// [`LogicScanProgram::without_operands`]).
#[derive(Debug, PartialEq, Eq, Hash)]
pub(crate) enum TimedProgram {
    /// An x86 or HMC-ISA program.
    Host(HostScanProgram),
    /// A HIVE or HIPE program.
    Logic(LogicScanProgram),
}

/// The key of a run's replayable timing: everything the timing models
/// read, and no more. The boxed slices hold no spare capacity.
#[derive(Debug, PartialEq, Eq, Hash)]
pub(crate) struct TimingKey {
    /// Templates or region blocks, layout and scanned regions.
    program: TimedProgram,
    /// HIPE only: each scanned region's guard depth, in region order
    /// (see [`functional_scan`]). Empty on every other machine.
    depths: Box<[u8]>,
    /// The match-mask words a per-tuple gather walks: those holding a
    /// scanned region, in order (every other word is zero). Empty
    /// when the run has no such gather: a count-only query, or a
    /// fused aggregate, whose engines reduce in place.
    pub(crate) gathered: Box<[u64]>,
}

/// A run's report minus its answer and energy: what a replay restores.
#[derive(Debug, Clone)]
pub(crate) struct Timing {
    pub(crate) cycles: Cycle,
    pub(crate) phases: PhaseBreakdown,
    pub(crate) partitions: Vec<PartitionPhase>,
    pub(crate) core: CoreStats,
    pub(crate) cache: Option<CacheStats>,
    pub(crate) engine: Option<EngineStats>,
    pub(crate) hmc: HmcStats,
}

/// Runs `plan` on `sys`: computes its answer, then replays the timing
/// the system recorded under the run's key, or calls `simulate` with a
/// new cube ([`System::fresh_hmc`]) and the answer, and records what it
/// returns. The cube is dropped with the call.
///
/// `program` is the plan's erased program. `depths` asks the
/// functional scan for HIPE's guard depths, and `gathers` puts the
/// mask a per-tuple gather walks into the key. The lock on the memo
/// is never held while simulating, so two racing misses both simulate
/// and insert the same value.
pub(crate) fn run(
    sys: &System,
    plan: &ExecutablePlan,
    program: TimedProgram,
    depths: bool,
    gathers: bool,
    simulate: impl FnOnce(&mut Hmc, &ScanResult) -> Timing,
) -> RunReport {
    let (arch, query, scanned) = (plan.arch(), plan.query(), plan.scanned_regions());
    let scan = functional_scan(sys.table(), query, scanned, depths);
    let gathered = if gathers {
        scanned_words(scanned)
            .map(|w| scan.mask.words()[w])
            .collect()
    } else {
        Box::default()
    };
    let key = TimingKey {
        program,
        depths: scan.depths,
        gathered,
    };
    let result = sys.finish_result(query, scan.mask);
    let timing = sys.replay_timing(arch, &key).unwrap_or_else(|| {
        let timing = simulate(&mut sys.fresh_hmc(), &result);
        sys.memoize_timing(arch, key, timing.clone());
        timing
    });
    let Timing {
        cycles,
        phases,
        partitions,
        core,
        cache,
        engine,
        hmc,
    } = timing;
    RunReport {
        arch,
        result,
        cycles,
        phases,
        partitions,
        regions_scanned: plan.prune_stats().scanned,
        regions_pruned: plan.prune_stats().pruned,
        // Priced from the counters by `Session::run_plan`.
        energy: EnergyBreakdown::default(),
        core,
        cache,
        engine,
        hmc,
    }
}

/// Rows per packed mask word.
const WORD_ROWS: usize = 64;

// A packed mask word holds regions `2w` and `2w + 1`.
const _: () = assert!(2 * REGION_ROWS == WORD_ROWS);

/// The 64-row mask words that hold a scanned region, ascending.
fn scanned_words(scanned: &Bitmask) -> impl Iterator<Item = usize> + '_ {
    let mut last = None;
    scanned
        .iter_ones()
        .map(|region| region * REGION_ROWS / WORD_ROWS)
        .filter(move |&w| last.replace(w) != Some(w))
}

/// What the functional scan computed.
struct Scan {
    /// The answer's match mask.
    mask: Bitmask,
    /// Each scanned region's guard depth, in region order; empty
    /// unless asked for.
    depths: Box<[u8]>,
}

/// Evaluates `query` over the 64-row mask words that touch a scanned
/// region, a column slice of `table` at a time. Every other word is
/// zero: its rows lie in regions the zone map proved matchless.
///
/// With `depths` set, the scan also measures each scanned region's
/// *guard depth*: how many leading predicates keep the region's
/// running conjunction non-zero, from 0 to all of them. HIPE guards a
/// region's predicate `i > 0`, its mask store and its whole fused
/// aggregate tail on that conjunction, so the depth is all its
/// squashing reads of the data. The conjunction is taken over the
/// engine's 32 lanes: a lane past the table's last row reads the
/// column's zero padding, and a compare can hold on 0 (`quantity < x`
/// does), so those lanes are evaluated as 0 rather than masked off.
/// They are dropped from the answer's mask as usual.
///
/// # Panics
///
/// With `depths` set, panics if the query has more than 255
/// predicates: a depth is stored in one byte.
fn functional_scan(table: &LineitemTable, query: &Query, scanned: &Bitmask, depths: bool) -> Scan {
    let rows = table.rows();
    let predicates = query.predicates();
    assert!(
        !depths || predicates.len() <= usize::from(u8::MAX),
        "a guard depth fits one byte"
    );
    let mut mask = Bitmask::zeros(rows);
    let mut out = Vec::with_capacity(if depths { scanned.count_ones() } else { 0 });
    for w in scanned_words(scanned) {
        let start = w * WORD_ROWS;
        let n = (rows - start).min(WORD_ROWS);
        let valid = !0u64 >> (WORD_ROWS - n);
        // The engine's lanes past the last row, tracked only for the
        // depths.
        let pad = if depths { !valid } else { 0 };
        let mut live = valid | pad;
        let mut depth = [0u8; 2];
        let values = &mut [0; WORD_ROWS][..n];
        for p in predicates {
            table
                .column(p.column)
                .slice(start..start + n)
                .widen_into(values);
            let pads = if p.cmp.eval(0) { pad } else { 0 };
            live &= pads | match_bits(p.cmp, values);
            if depths {
                // A region stays live through a prefix of the predicates.
                for (half, d) in depth.iter_mut().enumerate() {
                    *d += u8::from((live >> (half * REGION_ROWS)) as u32 != 0);
                }
            }
            if live == 0 {
                break;
            }
        }
        if depths {
            let regions = (2 * w..2 * w + 2).filter(|&r| r < scanned.len() && scanned.get(r));
            out.extend(regions.map(|r| depth[r % 2]));
        }
        if live & valid != 0 {
            mask.set_word(w, live & valid);
        }
    }
    Scan {
        mask,
        depths: out.into_boxed_slice(),
    }
}

/// The lanes of `values` (at most 64) that satisfy `cmp`, lane `i` at
/// bit `i`. The comparison is matched once per call, and each arm runs
/// its own loop.
fn match_bits(cmp: CmpOp, values: &[i64]) -> u64 {
    fn fold(values: &[i64], hit: impl Fn(i64) -> bool) -> u64 {
        let lanes = values.iter().enumerate();
        lanes.fold(0, |bits, (lane, &v)| bits | u64::from(hit(v)) << lane)
    }
    match cmp {
        CmpOp::Lt(x) => fold(values, |v| v < x),
        CmpOp::Le(x) => fold(values, |v| v <= x),
        CmpOp::Gt(x) => fold(values, |v| v > x),
        CmpOp::Ge(x) => fold(values, |v| v >= x),
        CmpOp::Eq(x) => fold(values, |v| v == x),
        CmpOp::Range(lo, hi) => fold(values, |v| lo <= v && v <= hi),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::System;
    use hipe_db::{Column, ColumnPredicate};

    /// Each scanned region's guard depth, evaluated lane by lane over
    /// the engine's 32 lanes with the lanes past the last row read as
    /// 0.
    fn direct_depths(sys: &System, query: &Query, scanned: &Bitmask) -> Vec<u8> {
        let rows = sys.table().rows();
        let value = |c, i| {
            if i < rows {
                sys.table().value(c, i)
            } else {
                0
            }
        };
        scanned
            .iter_ones()
            .map(|r| {
                let lanes = r * REGION_ROWS..(r + 1) * REGION_ROWS;
                let mut live: Vec<usize> = lanes.collect();
                let mut depth = 0;
                for p in query.predicates() {
                    live.retain(|&i| p.cmp.eval(value(p.column, i)));
                    if live.is_empty() {
                        break;
                    }
                    depth += 1;
                }
                depth
            })
            .collect()
    }

    #[test]
    fn match_bits_agrees_with_eval_on_every_comparison() {
        let values: Vec<i64> = (0..64).map(|i| i * 7 % 23 - 5).collect();
        for cmp in [
            CmpOp::Lt(3),
            CmpOp::Le(3),
            CmpOp::Gt(3),
            CmpOp::Ge(3),
            CmpOp::Eq(3),
            CmpOp::Range(-2, 9),
            CmpOp::Range(9, -2),
        ] {
            for n in [0, 1, 33, 64] {
                let want = (0..n).fold(0u64, |bits, i| bits | u64::from(cmp.eval(values[i])) << i);
                assert_eq!(match_bits(cmp, &values[..n]), want, "{cmp} over {n}");
            }
        }
    }

    #[test]
    fn guard_depths_follow_the_engine_lanes_pad_lanes_included() {
        // 4099 rows: the last region holds 3 rows and 29 pad lanes.
        let sys = System::new(4099, 2018);
        let discount = ColumnPredicate::new(Column::Discount, CmpOp::Range(5, 7));
        let queries = [
            Query::q6(),
            // `quantity < x` holds on the zero padding.
            Query::quantity_below_permille(20),
            Query::quantity_below_permille(0),
            Query::new(
                vec![
                    Query::quantity_below_permille(300).predicates()[0],
                    discount,
                ],
                false,
            ),
        ];
        let all = Bitmask::ones(sys.layout().regions());
        let mut tail = Bitmask::zeros(sys.layout().regions());
        tail.set(sys.layout().regions() - 1);
        for query in &queries {
            for scanned in [&all, &tail] {
                let scan = functional_scan(sys.table(), query, scanned, true);
                let want = direct_depths(&sys, query, scanned);
                assert_eq!(*scan.depths, *want, "{query}");
            }
            let scan = functional_scan(sys.table(), query, &all, true);
            let reference = hipe_db::scan::reference(sys.table(), query);
            assert_eq!(scan.mask, reference.bitmask, "{query}");
        }
        // `quantity < 1` matches no row, but the last region's 29 pad
        // lanes pass it: HIPE stores that region's all-zero mask.
        let none = Query::quantity_below_permille(0);
        let scan = functional_scan(sys.table(), &none, &tail, true);
        assert_eq!(scan.mask.count_ones(), 0);
        assert_eq!(*scan.depths, [1]);
        // Without depths the scan measures nothing.
        let scan = functional_scan(sys.table(), &none, &all, false);
        assert!(scan.depths.is_empty());
    }
}
