//! TPC-H SF-10 in one process: Q6 on all four machines over one
//! 60 M-row [`System`], each answer checked against the reference
//! executor.
//!
//! What the process holds is the table's one column area (8 B per
//! row: each column at its own width, 1 to 4 B, where the model sees
//! an 8 B value), at most one simulating run's cube at a time, whose
//! output blocks the engines write (about 8 B per row when every
//! region stores its mask), and plans whose size follows the query,
//! not the table — about 1 GiB in all. The
//! test is ignored by default because of that footprint and its
//! host time; run it with
//!
//! ```text
//! cargo test --release --test sf10 -- --ignored
//! ```
//!
//! CI runs it under `scripts/peak_rss.py`, which bounds its peak
//! resident memory.

use hipe::{Arch, System};
use hipe_db::{scan, Query, SF1_ROWS};

#[test]
#[ignore = "SF-10: about 1.1 GiB and a minute of release-build host time"]
fn q6_at_sf10_matches_the_reference_on_every_machine() {
    let sys = System::new(10 * SF1_ROWS, 2018);
    let q6 = Query::q6();
    let reference = scan::reference(sys.table(), &q6);
    assert!(reference.matches > 0);
    let mut session = sys.session();
    for arch in Arch::ALL {
        let report = session.run(arch, &q6);
        assert_eq!(report.result, reference, "{arch}");
    }
}
