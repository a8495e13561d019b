//! Cross-crate integration tests: the paper's headline experiment.
//!
//! These tests drive the full stack — table generation (`hipe-db`),
//! query lowering (`hipe-compiler`), the out-of-order core
//! (`hipe-cpu`), caches (`hipe-cache`), cube (`hipe-hmc`) and
//! logic-layer engine (`hipe-logic`) — through the `hipe::System`
//! driver, and assert the two properties everything else builds on:
//!
//! 1. every architecture (all four of [`Arch::ALL`]) computes the
//!    *bit-identical* scan result;
//! 2. the machines rank as in the paper on low-selectivity scans:
//!    HIPE at least ties HIVE, and both beat the x86 baseline and the
//!    stock HMC atomic ISA (whose 16 B operations pay a link round
//!    trip each).

use hipe::{Arch, RunReport, System};
use hipe_db::{scan, Query};

const ROWS: usize = 20_000;
const SEED: u64 = 2018;

/// Runs `query` on the x86 baseline, then on HIPE, in one session.
fn x86_and_hipe(sys: &System, query: &Query) -> (RunReport, RunReport) {
    let mut session = sys.session();
    let base = session.run(Arch::HostX86, query);
    (base, session.run(Arch::Hipe, query))
}

#[test]
fn all_architectures_agree_with_the_reference_on_q6() {
    let sys = System::new(ROWS, SEED);
    let q = Query::q6();
    let reference = scan::reference(sys.table(), &q);
    let mut session = sys.session();
    for arch in Arch::ALL {
        let report = session.run(arch, &q);
        assert_eq!(
            report.result, reference,
            "{arch} diverged from the reference executor"
        );
    }
    assert_eq!(sys.materializations(), 1);
}

#[test]
fn all_architectures_agree_across_the_selectivity_sweep() {
    let sys = System::new(ROWS, SEED);
    let mut session = sys.session();
    for permille in [0, 30, 100, 500, 1000] {
        let q = Query::quantity_below_permille(permille);
        let reference = scan::reference(sys.table(), &q);
        for arch in Arch::ALL {
            let report = session.run(arch, &q);
            assert_eq!(
                report.result, reference,
                "{arch} diverged at {permille} permille"
            );
        }
    }
}

#[test]
fn q6_selectivity_is_about_two_percent() {
    let sys = System::new(ROWS, SEED);
    let report = sys.run(Arch::Hipe, &Query::q6());
    let sel = report.selectivity();
    assert!((0.012..0.025).contains(&sel), "selectivity {sel}");
    assert!(report.result.aggregate.expect("Q6 aggregates") > 0);
}

#[test]
fn hipe_beats_the_host_baseline_on_a_low_selectivity_scan() {
    // The acceptance experiment: a <= 3 % selectivity single-predicate
    // scan, bit-identical results, HIPE strictly faster.
    let sys = System::new(ROWS, SEED);
    let q = Query::quantity_below_permille(30);
    let (base, hipe) = x86_and_hipe(&sys, &q);

    assert!(hipe.selectivity() <= 0.03, "not a low-selectivity scan");
    assert_eq!(
        base.result.bitmask, hipe.result.bitmask,
        "match bitmasks differ between x86 and HIPE"
    );
    assert_eq!(base.result.matches, hipe.result.matches);
    assert!(
        hipe.cycles < base.cycles,
        "HIPE ({} cycles) did not beat the baseline ({} cycles)",
        hipe.cycles,
        base.cycles
    );
}

#[test]
fn machines_rank_as_in_the_paper_at_low_selectivity() {
    // Paper ordering: HIPE >= HIVE > { x86, stock HMC-ISA }. The stock
    // atomic ISA is the slowest machine on this workload: every 16 B
    // operation is a full packet round trip over the serial links.
    let sys = System::new(ROWS, SEED);
    let q = Query::quantity_below_permille(30);
    let mut session = sys.session();
    let [x86, hmc, hive, hipe] = Arch::ALL.map(|arch| session.run(arch, &q));

    assert!(
        hipe.cycles <= hive.cycles,
        "predication slowed the scan ({} vs {})",
        hipe.cycles,
        hive.cycles
    );
    assert!(
        hive.cycles < x86.cycles,
        "HIVE ({}) did not beat the baseline ({})",
        hive.cycles,
        x86.cycles
    );
    assert!(
        hive.cycles < hmc.cycles,
        "HIVE ({}) did not beat the stock HMC ISA ({})",
        hive.cycles,
        hmc.cycles
    );
}

#[test]
fn machines_rank_as_in_the_paper_on_q6() {
    let sys = System::new(ROWS, SEED);
    let mut session = sys.session();
    let [x86, hmc, hive, hipe] = Arch::ALL.map(|arch| session.run(arch, &Query::q6()));
    assert!(hipe.cycles <= hive.cycles);
    assert!(hive.cycles < x86.cycles);
    assert!(hive.cycles < hmc.cycles);
}

#[test]
fn hipe_beats_hive_thanks_to_predication_on_q6() {
    let sys = System::new(ROWS, SEED);
    let q = Query::q6();
    let hive = sys.run(Arch::Hive, &q);
    let hipe = sys.run(Arch::Hipe, &q);
    assert_eq!(hive.result, hipe.result);
    let stats = hipe.engine.expect("HIPE has engine stats");
    assert!(stats.squashed > 0, "predication never squashed anything");
    assert!(
        hipe.cycles <= hive.cycles,
        "predication made the scan slower ({} vs {})",
        hipe.cycles,
        hive.cycles
    );
    // Squashed loads skip DRAM: HIPE reads strictly fewer bytes.
    assert!(hipe.hmc.bytes_read < hive.hmc.bytes_read);
}

#[test]
fn near_data_execution_moves_less_link_traffic_and_energy() {
    let sys = System::new(ROWS, SEED);
    let q = Query::q6();
    let (base, hipe) = x86_and_hipe(&sys, &q);
    assert!(
        hipe.hmc.link_bytes < base.hmc.link_bytes,
        "HIPE moved more link bytes ({}) than the baseline ({})",
        hipe.hmc.link_bytes,
        base.hmc.link_bytes
    );
    assert!(
        hipe.energy.link_pj() < base.energy.link_pj(),
        "HIPE spent more link energy than the baseline"
    );
}

#[test]
fn speedup_grows_as_selectivity_falls() {
    // Figure-4-style trend: predication pays off more the earlier
    // regions die. Selectivity 2 % (the lowest non-empty point the
    // 1..=50 quantity domain supports) must speed HIPE up at least as
    // much as 50 %.
    let sys = System::new(ROWS, SEED);
    let lo = x86_and_hipe(&sys, &Query::quantity_below_permille(20));
    let hi = x86_and_hipe(&sys, &Query::quantity_below_permille(500));
    let lo_speedup = lo.1.speedup_over(&lo.0);
    let hi_speedup = hi.1.speedup_over(&hi.0);
    assert!(
        lo_speedup >= hi_speedup,
        "speedup at 0.1 % ({lo_speedup:.2}x) below 50 % ({hi_speedup:.2}x)"
    );
    assert!(lo_speedup > 1.0);
}

#[test]
fn phase_breakdown_partitions_the_run() {
    let sys = System::new(ROWS, SEED);
    let mut session = sys.session();
    for arch in Arch::ALL {
        let report = session.run(arch, &Query::q6());
        assert_eq!(
            report.cycles,
            report.phases.scan + report.phases.gather_aggregate,
            "{arch} phase breakdown does not partition the run"
        );
        assert!(
            report.phases.dispatch <= report.phases.scan,
            "{arch} dispatched after the scan completed"
        );
        // Q6 aggregates: the gather phase is real work on every machine.
        assert!(report.phases.gather_aggregate > 0);
    }
    // The near-data machines dispatch asynchronously: the program is
    // fully posted long before the engine drains it.
    let hipe = session.run(Arch::Hipe, &Query::q6());
    assert!(hipe.phases.dispatch < hipe.phases.scan / 4);
}

#[test]
fn results_are_deterministic_across_runs() {
    let sys = System::new(4096, 77);
    let q = Query::q6();
    let a = sys.run(Arch::Hipe, &q);
    let b = sys.run(Arch::Hipe, &q);
    assert_eq!(a.result, b.result);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.hmc, b.hmc);
}

#[test]
fn tail_regions_are_handled_exactly() {
    // Rows not divisible by the 32-row region or the 8-row vector line:
    // padding lanes must never leak into the result.
    for rows in [1, 31, 33, 100, 1000, 4097] {
        let sys = System::new(rows, 5);
        let q = Query::quantity_below_permille(500);
        let reference = scan::reference(sys.table(), &q);
        let mut session = sys.session();
        for arch in Arch::ALL {
            let report = session.run(arch, &q);
            assert_eq!(report.result, reference, "{arch} wrong at rows={rows}");
            assert_eq!(report.result.bitmask.len(), rows);
        }
    }
}

#[test]
fn empty_and_full_scans_are_exact() {
    let sys = System::new(3000, 6);
    // quantity is 1..=50: nothing below 1, everything below 51.
    let none = Query::quantity_below_permille(0);
    let all = Query::quantity_below_permille(1000);
    let mut session = sys.session();
    for arch in Arch::ALL {
        assert_eq!(session.run(arch, &none).result.matches, 0);
        assert_eq!(session.run(arch, &all).result.matches, 3000);
    }
}
