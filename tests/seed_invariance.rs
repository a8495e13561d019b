//! Data-independent timing: the host machines and HIVE time a scan
//! without reading the values it scans.
//!
//! Tables generated from different seeds hold different values at the
//! same addresses. On x86, HMC-ISA and HIVE a count-only query must
//! then report the same cycles, phases, counters and energy for every
//! seed; only its answer may differ. An aggregating query's gather
//! reads the matches, so there only the dispatch and scan phases must
//! agree. HIPE is left out: its squashes follow the data.

use hipe::{Arch, RunReport, System};
use hipe_db::Query;

const ROWS: usize = 4096;
const SEEDS: [u64; 4] = [2018, 7, 1, 99];
const ARCHS: [Arch; 3] = [Arch::HostX86, Arch::HmcIsa, Arch::Hive];

/// Runs `query` on each of [`ARCHS`] over a table per seed, and
/// `check`s every later seed's report against the first seed's on the
/// same machine, with a label naming both. Returns each seed's x86
/// answer (match count).
fn across_seeds(query: &Query, check: impl Fn(&RunReport, &RunReport, &str)) -> Vec<usize> {
    let runs: Vec<[RunReport; 3]> = SEEDS
        .iter()
        .map(|&seed| {
            let sys = System::new(ROWS, seed);
            let mut session = sys.session();
            ARCHS.map(|arch| session.run(arch, query))
        })
        .collect();
    for (seed, reports) in SEEDS.iter().zip(&runs).skip(1) {
        for (a, b) in runs[0].iter().zip(reports) {
            check(
                a,
                b,
                &format!("{} on `{query}`, seed {} vs {seed}", b.arch, SEEDS[0]),
            );
        }
    }
    runs.iter().map(|r| r[0].result.matches).collect()
}

#[test]
fn count_only_scans_time_the_same_on_every_seed() {
    let queries = [
        Query::quantity_below_permille(20),
        Query::quantity_below_permille(500),
        Query::shipdate_window_permille(100),
    ];
    for query in &queries {
        let answers = across_seeds(query, |a, b, what| {
            assert_eq!(a.cycles, b.cycles, "{what}: cycles differ");
            assert_eq!(a.phases, b.phases, "{what}: phases differ");
            assert_eq!(a.partitions, b.partitions, "{what}: partitions differ");
            assert_eq!(a.hmc, b.hmc, "{what}: cube counters differ");
            assert_eq!(a.core, b.core, "{what}: core counters differ");
            assert_eq!(a.cache, b.cache, "{what}: cache counters differ");
            assert_eq!(a.engine, b.engine, "{what}: engine counters differ");
            assert_eq!(a.energy, b.energy, "{what}: energy differs");
        });
        // The seeds really drew different tables.
        assert!(
            answers.iter().any(|&m| m != answers[0]),
            "`{query}` matched {answers:?} rows by seed"
        );
    }
}

#[test]
fn aggregate_scans_dispatch_and_scan_the_same_on_every_seed() {
    for query in &[
        Query::quantity_below_permille(100).with_aggregate(),
        Query::q6(),
    ] {
        across_seeds(query, |a, b, what| {
            assert_eq!(
                a.phases.dispatch, b.phases.dispatch,
                "{what}: dispatch differs"
            );
            assert_eq!(a.phases.scan, b.phases.scan, "{what}: scan differs");
        });
    }
}
