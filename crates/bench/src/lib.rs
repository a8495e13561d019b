//! Shared configuration of the bench targets.
//!
//! The figures bench and its gate agree here on the table size, the
//! host worker width and the one host-clock rule the figures bench
//! still enforces ([`host_par_not_slower`]); both artifact writers
//! place report metrics under their prefixes with [`prefixed`].
//!
//! Knobs (environment variables):
//!
//! * `HIPE_BENCH_ROWS` — table size for the figure sweeps (default
//!   16384, kept small so a regeneration takes about a second);
//! * `HIPE_BENCH_SF` — table size as a TPC-H scale factor (may be
//!   fractional; `1` is the paper's 6M-row setup). Takes precedence
//!   over `HIPE_BENCH_ROWS` when both are set;
//! * `HIPE_WORKERS` — host worker threads for the parallel sweeps and
//!   cluster scatter phases (default 1, fully serial).
//!
//! A malformed `HIPE_BENCH_ROWS` or `HIPE_BENCH_SF` fails the run
//! rather than falling back to the default size.

// The bench harness is the terminal boundary of the workspace: the
// library-wide print lints stop here.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use hipe_db::SF1_ROWS;
use hipe_trace::Value;

/// Figure-sweep table size when neither knob is set.
const DEFAULT_ROWS: usize = 16_384;

/// Table size for the figure sweeps, from `HIPE_BENCH_SF` and
/// `HIPE_BENCH_ROWS` (see [`rows_from`]).
///
/// # Panics
///
/// If either variable is set to a malformed value.
pub fn bench_rows() -> usize {
    let var = |name| std::env::var(name).ok();
    rows_from(
        var("HIPE_BENCH_SF").as_deref(),
        var("HIPE_BENCH_ROWS").as_deref(),
    )
    .unwrap_or_else(|e| panic!("{e}"))
}

/// Table size from the raw values of `HIPE_BENCH_SF` and
/// `HIPE_BENCH_ROWS` (`None` when unset): the scale factor over the
/// 6 001 215-row SF-1 table when given, else the row count (default
/// 16 384), clamped to at least 1 tuple. A value that is not
/// a row count or a positive, finite scale factor is an error naming
/// the variable and the value.
pub fn rows_from(sf: Option<&str>, rows: Option<&str>) -> Result<usize, String> {
    let rows = match rows {
        None => DEFAULT_ROWS,
        Some(v) => v
            .trim()
            .parse()
            .map_err(|_| format!("HIPE_BENCH_ROWS={v:?} is not a row count"))?,
    };
    match sf {
        None => Ok(rows.max(1)),
        Some(v) => match v.trim().parse::<f64>() {
            Ok(sf) if sf.is_finite() && sf > 0.0 => Ok(rows_at_sf(sf)),
            _ => Err(format!(
                "HIPE_BENCH_SF={v:?} is not a positive scale factor"
            )),
        },
    }
}

/// Rows of a TPC-H lineitem table at scale factor `sf` (≥ 1 tuple).
pub fn rows_at_sf(sf: f64) -> usize {
    ((SF1_ROWS as f64 * sf).round() as usize).max(1)
}

/// Host worker threads for the parallel sweeps (`HIPE_WORKERS`,
/// default 1 — fully serial, the byte-identical historical path).
pub fn bench_workers() -> usize {
    hipe_sim::env_workers()
}

/// Prints the standard bench header: which target is running and the
/// resolved row count / scale factor / worker width, so every recorded
/// run documents its configuration.
pub fn print_header(target: &str) {
    let rows = bench_rows();
    println!(
        "# {target}: rows={rows} (SF {:.4}), workers={}",
        rows as f64 / SF1_ROWS as f64,
        bench_workers()
    );
}

/// The members of a metrics object (`RunReport::metrics`,
/// `ServiceReport::metrics`) renamed under `prefix` (`arch.HIPE.`,
/// `shard0.`), in their order.
///
/// # Panics
///
/// If `metrics` is not a JSON object.
pub fn prefixed(prefix: String, metrics: Value) -> impl Iterator<Item = (String, Value)> {
    let Value::Object(members) = metrics else {
        panic!("metrics are a JSON object");
    };
    members
        .into_iter()
        .map(move |(name, v)| (format!("{prefix}{name}"), v))
}

/// The `host_par` wall-clock rule: on a host with at least two CPUs,
/// no leg may run slower on `workers` threads than serially, compared
/// in whole milliseconds. `legs` holds `(leg, serial_ms, parallel_ms)`.
/// A single-CPU host cannot show a parallel win, so the rule is waived
/// there.
pub fn host_par_not_slower(
    workers: usize,
    host_cpus: usize,
    legs: &[(&str, f64, f64)],
) -> Result<(), String> {
    if host_cpus < 2 {
        return Ok(());
    }
    for &(leg, serial, parallel) in legs {
        let (serial, parallel) = (serial.floor(), parallel.floor());
        if parallel > serial {
            return Err(format!(
                "point host_par: {leg} slower on {workers} workers than serial \
                 ({serial} ms -> {parallel} ms)"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults() {
        // Not setting the variables yields the documented defaults.
        assert_eq!(rows_from(None, None), Ok(DEFAULT_ROWS));
        if std::env::var("HIPE_BENCH_ROWS").is_err() && std::env::var("HIPE_BENCH_SF").is_err() {
            assert_eq!(bench_rows(), DEFAULT_ROWS);
        }
        assert!(bench_workers() >= 1);
    }

    #[test]
    fn scale_factor_row_counts() {
        assert_eq!(rows_at_sf(1.0), SF1_ROWS);
        assert_eq!(rows_at_sf(10.0), 10 * SF1_ROWS);
        assert_eq!(rows_at_sf(1e-12), 1, "tiny SF clamps to one tuple");
        // A quarter SF rounds to the nearest tuple.
        assert_eq!(rows_at_sf(0.25), (SF1_ROWS as f64 * 0.25).round() as usize);
    }

    #[test]
    fn parses_well_formed_sizes() {
        assert_eq!(rows_from(None, Some("2048")), Ok(2048));
        assert_eq!(rows_from(None, Some(" 2048\n")), Ok(2048));
        assert_eq!(rows_from(None, Some("0")), Ok(1), "clamps to one tuple");
        assert_eq!(rows_from(Some("1"), None), Ok(SF1_ROWS));
        assert_eq!(rows_from(Some("0.5"), None), Ok(rows_at_sf(0.5)));
        // The scale factor takes precedence over a row count.
        assert_eq!(rows_from(Some("1"), Some("2048")), Ok(SF1_ROWS));
    }

    #[test]
    fn rejects_malformed_sizes() {
        for v in ["1e6", "", "-5", "16k", "2048.0"] {
            assert_eq!(
                rows_from(None, Some(v)),
                Err(format!("HIPE_BENCH_ROWS={v:?} is not a row count"))
            );
        }
        for v in ["0", "-1", "NaN", "inf", "one", ""] {
            assert_eq!(
                rows_from(Some(v), None),
                Err(format!(
                    "HIPE_BENCH_SF={v:?} is not a positive scale factor"
                ))
            );
        }
        // A malformed row count fails even when the scale factor wins.
        assert!(rows_from(Some("1"), Some("1e6")).is_err());
    }

    #[test]
    fn rejects_a_parallel_sweep_slower_than_serial() {
        let legs =
            |sweep: f64, scatter: f64| [("sweep", 100.21, sweep), ("scatter", 80.3, scatter)];
        assert_eq!(host_par_not_slower(4, 8, &legs(30.125, 25.4)), Ok(()));
        let err = host_par_not_slower(4, 8, &legs(101.125, 25.4)).unwrap_err();
        assert_eq!(
            err,
            "point host_par: sweep slower on 4 workers than serial (100 ms -> 101 ms)"
        );
        let err = host_par_not_slower(4, 2, &legs(30.125, 81.4)).unwrap_err();
        assert!(err.contains("scatter slower on 4 workers"), "{err}");
        // Legs compare in whole milliseconds: 100.21 vs 100.9 is a tie.
        assert_eq!(host_par_not_slower(4, 8, &legs(100.9, 80.9)), Ok(()));
    }

    #[test]
    fn accepts_a_slow_parallel_leg_on_a_single_core_host() {
        // One CPU: the wall-clock requirement is waived.
        let legs = [("sweep", 100.21, 101.125), ("scatter", 80.3, 81.4)];
        assert_eq!(host_par_not_slower(4, 1, &legs), Ok(()));
    }
}
