//! Replayed timing equals simulated timing, on all four machines.
//!
//! A `System` keeps the timing of every run it simulates, keyed by the
//! plan's program without the operands no timing reads (HMC-ISA's
//! vault-op operands, HIVE's and HIPE's compare immediates), its
//! scanned regions, the mask a per-tuple gather walks and, on HIPE,
//! each scanned region's guard depth; a later run with the same key
//! replays that timing. Each case runs a query list twice over on one
//! system, so runs replay both across constants and across repeats,
//! and compares every report field by field with the same run on a new
//! system, which has nothing to replay and simulates it. The logic
//! machines run fused and host-gathered aggregates, on one engine and
//! on eight; 4099 rows leave a 3-row last region, whose pad lanes HIPE
//! compares too.

use hipe::{Backend, RunReport, Session, System, SystemConfig, TableShape};
use hipe_compiler::STOCK_HMC_OP;
use hipe_db::{CmpOp, Column, ColumnPredicate, Query};
use hipe_isa::OpSize;

const SEED: u64 = 2018;

/// x86, HMC-ISA at the stock and the widest operand size, and HIVE
/// and HIPE with fused and with host-gathered aggregates.
const BACKENDS: [Backend; 7] = [
    Backend::HostX86,
    Backend::HmcIsa {
        op_size: STOCK_HMC_OP,
    },
    Backend::HmcIsa {
        op_size: OpSize::MAX,
    },
    Backend::Hive {
        fused_aggregate: true,
    },
    Backend::Hive {
        fused_aggregate: false,
    },
    Backend::Hipe {
        fused_aggregate: true,
    },
    Backend::Hipe {
        fused_aggregate: false,
    },
];

/// The figure sweep's eleven point queries (seven `sel_*`, three
/// `agg_*`, Q6), plus its `skip_*` shipdate windows: on a pruned table
/// those share one template and differ only in the regions they scan.
/// And `quantity < 0`: like `sel_0%`'s `quantity < 1` it matches no
/// row, but unlike it the zero padding of a ragged last region fails
/// it too, so HIPE squashes that region's mask store.
fn queries() -> Vec<Query> {
    let none = ColumnPredicate::new(Column::Quantity, CmpOp::Lt(0));
    let mut queries = vec![Query::new(vec![none], false)];
    queries.extend([0, 20, 60, 100, 300, 500, 1000].map(Query::quantity_below_permille));
    queries.extend([20, 100, 500].map(|pm| Query::quantity_below_permille(pm).with_aggregate()));
    queries.push(Query::q6());
    queries.extend([10, 30, 100].map(Query::shipdate_window_permille));
    queries
}

/// A uniform table, a shipdate-clustered one compiled against its
/// zone map, and a uniform one scanned by eight vault-group engines.
fn configs(rows: usize) -> [SystemConfig; 3] {
    [
        SystemConfig::paper(rows, SEED),
        SystemConfig {
            shape: TableShape::ClusteredShipdate { total_rows: rows },
            pruning: true,
            ..SystemConfig::paper(rows, SEED)
        },
        SystemConfig {
            partitions: 8,
            ..SystemConfig::paper(rows, SEED)
        },
    ]
}

/// `query` on each of [`BACKENDS`] in `session`.
fn run_all(session: &mut Session<'_>, query: &Query) -> Vec<RunReport> {
    BACKENDS
        .iter()
        .map(|backend| {
            let plan = backend
                .compile(session.system(), query)
                .expect("a live system always compiles");
            session.run_plan(&plan)
        })
        .collect()
}

/// Asserts two reports equal in every field. The destructuring names
/// each one, so a field added to `RunReport` fails to compile here
/// until it is compared.
fn assert_same_report(replayed: &RunReport, fresh: &RunReport, what: &str) {
    let RunReport {
        arch,
        result,
        cycles,
        phases,
        partitions,
        regions_scanned,
        regions_pruned,
        energy,
        core,
        cache,
        engine,
        hmc,
    } = replayed;
    assert_eq!(*arch, fresh.arch, "{what}: arch");
    assert_eq!(*result, fresh.result, "{what}: answer");
    assert_eq!(*cycles, fresh.cycles, "{what}: cycles");
    assert_eq!(*phases, fresh.phases, "{what}: phases");
    assert_eq!(*partitions, fresh.partitions, "{what}: partitions");
    assert_eq!(*regions_scanned, fresh.regions_scanned, "{what}: scanned");
    assert_eq!(*regions_pruned, fresh.regions_pruned, "{what}: pruned");
    assert_eq!(*energy, fresh.energy, "{what}: energy");
    assert_eq!(*core, fresh.core, "{what}: core stats");
    assert_eq!(*cache, fresh.cache, "{what}: cache stats");
    assert_eq!(*engine, fresh.engine, "{what}: engine stats");
    assert_eq!(*hmc, fresh.hmc, "{what}: cube stats");
}

#[test]
fn replayed_runs_equal_fresh_simulations() {
    let queries = queries();
    for rows in [4096, 4099] {
        for cfg in configs(rows) {
            let shape = match (cfg.pruning, cfg.partitions) {
                (true, _) => "pruned",
                (false, 1) => "uniform",
                (false, _) => "8 partitions",
            };
            // One new system per query: nothing it runs can replay.
            let fresh: Vec<Vec<RunReport>> = queries
                .iter()
                .map(|q| run_all(&mut System::with_config(cfg.clone()).session(), q))
                .collect();
            assert!(
                fresh.iter().flatten().any(|r| r.regions_pruned > 0) == cfg.pruning,
                "{shape}: pruning is not exercised as meant"
            );
            for reverse in [false, true] {
                let sys = System::with_config(cfg.clone());
                let mut session = sys.session();
                let mut order: Vec<usize> = (0..queries.len()).collect();
                if reverse {
                    order.reverse();
                }
                for round in 0..2 {
                    for &i in &order {
                        let replayed = run_all(&mut session, &queries[i]);
                        for ((backend, r), f) in BACKENDS.iter().zip(&replayed).zip(&fresh[i]) {
                            let what = format!(
                                "{backend:?}, {rows} rows {shape}, reverse {reverse}, \
                                 round {round}, [{}]",
                                queries[i]
                            );
                            assert_same_report(r, f, &what);
                        }
                    }
                }
            }
        }
    }
}
