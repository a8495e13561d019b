//! Exact pins of the non-default execution paths.
//!
//! The committed figures and trace files pin the default paths byte
//! for byte: the stock backends and `LeastOutstanding` routing. These
//! tests pin the rest to recorded numbers, so a change to how a
//! routing policy or a backend variant is dispatched cannot move a
//! single cycle unnoticed:
//!
//! * one 4×2 closed-loop service run with a replica killed mid-run,
//!   under every `RoutingPolicy`: makespan, both latency summaries,
//!   per-replica busy cycles and the re-dispatch count;
//! * HMC-ISA at the widest operand size, and HIVE/HIPE with the
//!   host-side gather instead of the fused aggregate: cycles and phase
//!   breakdown on a fixed system;
//! * the run-metrics projection, name for name and value for value:
//!   Q6 on all four machines, a zone-map-pruned HIPE run and a
//!   four-engine partitioned HIPE run. `BENCH_trace.json` embeds the
//!   same projection, but only for the two HIPE shards it records.

use hipe::{
    Arch, Backend, ExecutablePlan, PhaseBreakdown, RunReport, System, SystemConfig, TableShape,
};
use hipe_db::Query;
use hipe_isa::OpSize;
use hipe_serve::{run_service, Cluster, FaultPlan, LatencySummary, RoutingPolicy, ServiceConfig};
use hipe_trace::json;

const SEED: u64 = 2018;

fn mix() -> Vec<(Query, u32)> {
    vec![
        (Query::q6(), 2),
        (Query::quantity_below_permille(100), 3),
        (Query::quantity_below_permille(500).with_aggregate(), 1),
    ]
}

fn latency(p50: u64, p95: u64, p99: u64, p999: u64, mean: f64, max: u64) -> LatencySummary {
    LatencySummary {
        p50,
        p95,
        p99,
        p999,
        mean,
        max,
    }
}

#[test]
fn routing_policies_replay_pinned_schedules() {
    let cluster = Cluster::replicated(2048, SEED, 4, 2);
    let pinned = [
        (
            RoutingPolicy::RoundRobin,
            214_977,
            latency(38_172, 52_407, 53_174, 53_174, 33120.041666666664, 53_174),
            latency(14_553, 42_653, 52_407, 52_702, 19493.15625, 52_702),
            [
                [128_471, 164_929],
                [85_028, 214_502],
                [122_331, 152_649],
                [128_471, 164_929],
            ],
            4,
        ),
        (
            RoutingPolicy::LeastOutstanding,
            200_034,
            latency(29_886, 47_479, 53_174, 53_174, 30629.541666666668, 53_174),
            latency(15_507, 35_785, 48_078, 52_702, 17671.234375, 52_702),
            [
                [146_986, 146_414],
                [99_717, 199_559],
                [142_142, 132_838],
                [146_986, 146_414],
            ],
            4,
        ),
        (
            RoutingPolicy::FastestReplica,
            200_878,
            latency(30_789, 47_479, 53_174, 53_174, 30770.208333333332, 53_174),
            latency(17_669, 33_194, 48_078, 52_702, 18012.958333333332, 52_702),
            [
                [146_986, 146_414],
                [99_717, 200_403],
                [136_259, 138_721],
                [146_986, 146_414],
            ],
            7,
        ),
    ];
    for (routing, makespan, lat, sub, busy, redispatched) in pinned {
        let report = run_service(
            &cluster,
            &ServiceConfig {
                routing,
                faults: vec![FaultPlan::new(1, 0, 100_000)],
                ..ServiceConfig::closed(hipe::Arch::Hipe, 48, mix(), 8)
            },
        );
        assert_eq!(report.makespan, makespan, "{routing:?}");
        assert_eq!(report.latency, lat, "{routing:?}");
        assert_eq!(report.subquery_latency, sub, "{routing:?}");
        assert_eq!(report.replica_busy, busy, "{routing:?}");
        assert_eq!(report.redispatched, redispatched, "{routing:?}");
        assert_eq!(report.failovers, 1, "{routing:?}");
    }
}

/// The three non-default machine configurations, compiled for `query`.
fn non_default_plans(sys: &System, query: &Query) -> [ExecutablePlan; 3] {
    [
        Backend::HmcIsa {
            op_size: OpSize::MAX,
        },
        Backend::Hive {
            fused_aggregate: false,
        },
        Backend::Hipe {
            fused_aggregate: false,
        },
    ]
    .map(|backend| backend.compile(sys, query).expect("compiles"))
}

#[test]
fn non_default_backends_pin_cycles_and_phases() {
    let sys = System::new(4096, SEED);
    let phases = |dispatch, scan, gather_aggregate| PhaseBreakdown {
        dispatch,
        scan,
        gather_aggregate,
    };
    // Per query: (cycles, phases) for HMC-ISA at 256 B, HIVE and HIPE
    // with the host-side gather.
    let pinned = [
        (
            Query::q6(),
            [
                (60_090, phases(9_150, 9_156, 50_934)),
                (82_999, phases(2_309, 79_175, 3_824)),
                (77_185, phases(2_309, 73_361, 3_824)),
            ],
        ),
        (
            Query::quantity_below_permille(30).with_aggregate(),
            [
                (46_105, phases(5_293, 5_297, 40_808)),
                (29_225, phases(773, 26_681, 2_544)),
                (28_839, phases(773, 26_295, 2_544)),
            ],
        ),
    ];
    let mut session = sys.session();
    for (query, expect) in pinned {
        for (plan, (cycles, phases)) in non_default_plans(&sys, &query).iter().zip(expect) {
            let report = session.run_plan(plan);
            assert_eq!(report.cycles, cycles, "{} [{query}]", plan.arch());
            assert_eq!(report.phases, phases, "{} [{query}]", plan.arch());
        }
    }
}

/// The run's metrics projection as the JSON text it is written as.
fn metrics_json(report: &RunReport) -> String {
    json::write(&report.metrics())
}

#[test]
fn metrics_projection_pins_names_and_values() {
    let sys = System::new(4096, SEED);
    let mut session = sys.session();
    for (arch, expect) in Arch::ALL.into_iter().zip(Q6_METRICS) {
        let r = session.run(arch, &Query::q6());
        assert_eq!(metrics_json(&r), expect, "{arch}");
    }

    let mut cfg = SystemConfig::paper(4096, SEED);
    cfg.shape = TableShape::ClusteredShipdate { total_rows: 4096 };
    cfg.pruning = true;
    let r = System::with_config(cfg).run(Arch::Hipe, &Query::q6());
    assert!(r.regions_pruned > 0);
    assert_eq!(metrics_json(&r), PRUNED_METRICS);

    let r = System::partitioned(4096, SEED, 4).run(Arch::Hipe, &Query::q6());
    assert_eq!(r.partitions.len(), 4);
    assert_eq!(metrics_json(&r), PARTITIONED_METRICS);
}

/// Q6 on `System::new(4096, SEED)`, per machine in `Arch::ALL` order.
const Q6_METRICS: [&str; 4] = [
    r#"{
  "cache.accesses": 2038,
  "cache.l1_hits": 1845,
  "cache.l1_misses": 193,
  "cache.l2_hits": 76,
  "cache.l2_misses": 117,
  "cache.l3_hits": 59,
  "cache.l3_misses": 58,
  "cache.prefetch_hits": 1603,
  "cache.prefetches": 1997,
  "cache.writebacks": 17,
  "core.branches": 1536,
  "core.loads": 1846,
  "core.mispredicts": 0,
  "core.ops": 8492,
  "core.stores": 192,
  "cycles": 177179,
  "energy.cache_pj": 117400.0,
  "energy.dram_pj": 2397867.7,
  "energy.link_pj": 2124288.0,
  "energy.logic_pj": 0.0,
  "energy.total_pj": 4639555.7,
  "hmc.activations": 1844,
  "hmc.bytes_read": 116928,
  "hmc.bytes_written": 1088,
  "hmc.fu_ops": 0,
  "hmc.link_bytes": 177024,
  "matches": 91,
  "partition.dram_bytes": 100352,
  "partition.scan_cyc": {"count": 1, "sum": 161435, "min": 161435, "max": 161435},
  "phase.dispatch_cyc": 161435,
  "phase.gather_cyc": 15744,
  "phase.scan_cyc": 161435,
  "zonemap.regions_pruned": 0,
  "zonemap.regions_scanned": 128
}
"#,
    r#"{
  "cache.accesses": 246,
  "cache.l1_hits": 77,
  "cache.l1_misses": 169,
  "cache.l2_hits": 58,
  "cache.l2_misses": 111,
  "cache.l3_hits": 0,
  "cache.l3_misses": 111,
  "cache.prefetch_hits": 63,
  "cache.prefetches": 453,
  "cache.writebacks": 1,
  "core.branches": 128,
  "core.loads": 6326,
  "core.mispredicts": 0,
  "core.ops": 12972,
  "core.stores": 64,
  "cycles": 699372,
  "energy.cache_pj": 26300.0,
  "energy.dram_pj": 7622727.6,
  "energy.link_pj": 4187520.0,
  "energy.logic_pj": 368640.0,
  "energy.total_pj": 12205187.6,
  "hmc.activations": 6707,
  "hmc.bytes_read": 134272,
  "hmc.bytes_written": 64,
  "hmc.fu_ops": 6144,
  "hmc.link_bytes": 348960,
  "matches": 91,
  "partition.dram_bytes": 99072,
  "partition.scan_cyc": {"count": 1, "sum": 649447, "min": 649447, "max": 649447},
  "phase.dispatch_cyc": 649396,
  "phase.gather_cyc": 49925,
  "phase.scan_cyc": 649447,
  "zonemap.regions_pruned": 0,
  "zonemap.regions_scanned": 128
}
"#,
    r#"{
  "core.branches": 0,
  "core.loads": 5,
  "core.mispredicts": 0,
  "core.ops": 1935,
  "core.stores": 1802,
  "cycles": 80074,
  "energy.cache_pj": 0.0,
  "energy.dram_pj": 1626651.8,
  "energy.link_pj": 706176.0,
  "energy.logic_pj": 61680.0,
  "energy.total_pj": 2394507.8,
  "engine.alu_ops": 1028,
  "engine.blocks": 1,
  "engine.dram_loads": 640,
  "engine.dram_stores": 132,
  "engine.instructions": 1802,
  "engine.squashed": 0,
  "hmc.activations": 776,
  "hmc.bytes_read": 164864,
  "hmc.bytes_written": 33792,
  "hmc.fu_ops": 1028,
  "hmc.link_bytes": 58848,
  "matches": 91,
  "partition.dram_bytes": 197632,
  "partition.scan_cyc": {"count": 1, "sum": 79605, "min": 79605, "max": 79605},
  "phase.dispatch_cyc": 3605,
  "phase.gather_cyc": 469,
  "phase.scan_cyc": 79605,
  "zonemap.regions_pruned": 0,
  "zonemap.regions_scanned": 128
}
"#,
    r#"{
  "core.branches": 0,
  "core.loads": 5,
  "core.mispredicts": 0,
  "core.ops": 1935,
  "core.stores": 1802,
  "cycles": 74232,
  "energy.cache_pj": 0.0,
  "energy.dram_pj": 1203754.4,
  "energy.link_pj": 706176.0,
  "energy.logic_pj": 47220.0,
  "energy.total_pj": 1957150.4,
  "engine.alu_ops": 787,
  "engine.blocks": 1,
  "engine.dram_loads": 489,
  "engine.dram_stores": 71,
  "engine.instructions": 1802,
  "engine.squashed": 453,
  "hmc.activations": 564,
  "hmc.bytes_read": 126208,
  "hmc.bytes_written": 18176,
  "hmc.fu_ops": 787,
  "hmc.link_bytes": 58848,
  "matches": 91,
  "partition.dram_bytes": 143360,
  "partition.scan_cyc": {"count": 1, "sum": 73763, "min": 73763, "max": 73763},
  "phase.dispatch_cyc": 3605,
  "phase.gather_cyc": 469,
  "phase.scan_cyc": 73763,
  "zonemap.regions_pruned": 0,
  "zonemap.regions_scanned": 128
}
"#,
];

/// HIPE Q6 on a shipdate-clustered 4096-row table with pruning on.
const PRUNED_METRICS: &str = r#"{
  "core.branches": 0,
  "core.loads": 5,
  "core.mispredicts": 0,
  "core.ops": 403,
  "core.stores": 270,
  "cycles": 14162,
  "energy.cache_pj": 0.0,
  "energy.dram_pj": 252247.0,
  "energy.link_pj": 117888.0,
  "energy.logic_pj": 9180.0,
  "energy.total_pj": 379315.0,
  "engine.alu_ops": 153,
  "engine.blocks": 1,
  "engine.dram_loads": 95,
  "engine.dram_stores": 20,
  "engine.instructions": 270,
  "engine.squashed": 0,
  "hmc.activations": 119,
  "hmc.bytes_read": 25344,
  "hmc.bytes_written": 5120,
  "hmc.fu_ops": 153,
  "hmc.link_bytes": 9824,
  "matches": 74,
  "partition.dram_bytes": 29440,
  "partition.scan_cyc": {"count": 1, "sum": 13629, "min": 13629, "max": 13629},
  "phase.dispatch_cyc": 541,
  "phase.gather_cyc": 533,
  "phase.scan_cyc": 13629,
  "zonemap.regions_pruned": 109,
  "zonemap.regions_scanned": 19
}
"#;

/// HIPE Q6 on `System::partitioned(4096, SEED, 4)`.
const PARTITIONED_METRICS: &str = r#"{
  "core.branches": 0,
  "core.loads": 33,
  "core.mispredicts": 0,
  "core.ops": 2865,
  "core.stores": 1808,
  "cycles": 23639,
  "energy.cache_pj": 0.0,
  "energy.dram_pj": 1181736.9,
  "energy.link_pj": 806400.0,
  "energy.logic_pj": 47220.0,
  "energy.total_pj": 2035356.9,
  "engine.alu_ops": 787,
  "engine.blocks": 4,
  "engine.dram_loads": 489,
  "engine.dram_stores": 71,
  "engine.instructions": 1808,
  "engine.squashed": 453,
  "hmc.activations": 592,
  "hmc.bytes_read": 133376,
  "hmc.bytes_written": 18176,
  "hmc.fu_ops": 787,
  "hmc.link_bytes": 67200,
  "matches": 91,
  "partition.dram_bytes": 143360,
  "partition.scan_cyc": {"count": 4, "sum": 82584, "min": 20643, "max": 20649},
  "phase.dispatch_cyc": 3617,
  "phase.gather_cyc": 2990,
  "phase.scan_cyc": 20649,
  "zonemap.regions_pruned": 0,
  "zonemap.regions_scanned": 128
}
"#;
