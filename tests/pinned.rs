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
//!   breakdown on a fixed system.

use hipe::{Backend, ExecutablePlan, PhaseBreakdown, System};
use hipe_db::Query;
use hipe_isa::OpSize;
use hipe_serve::{run_service, Cluster, FaultPlan, LatencySummary, RoutingPolicy, ServiceConfig};

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
