//! Data-plane rate measurements: the `perf_*` figure rows.
//!
//! Three rates pin the throughput of the zero-copy hot paths on the
//! host:
//!
//! * **materialization** — [`DsmLayout::materialize_into`] writing the
//!   full table image straight into a resident buffer (bytes/s);
//! * **generation** — [`LineitemTable::generate_shaped_on`] filling
//!   the four columns from the seed (rows/s);
//! * **engine** — a warm HIPE Q6 run through the logic-layer engine
//!   model, measured in simulated instructions retired per host second
//!   (instr/s).
//!
//! The figures bench records them as `perf_*` JSON rows (with
//! `host_ms` like every other point) and `check_figures` validates
//! their presence and sanity, so a data-plane throughput regression
//! surfaces as a structural CI failure instead of an anecdote. The
//! standalone `perf_rates` bench target prints the same measurements
//! for interactive profiling.

use crate::{run_for, BenchResult};
use hipe::{Arch, System};
use hipe_db::{DsmLayout, LineitemTable, Query, TableShape};
use hipe_sim::WorkerPool;
use std::time::Duration;

/// Row cap for the rate measurements. Rates are per-second quantities
/// and stabilize well below this size, so capping keeps the perf rows
/// a small, fixed slice of an SF-1 sweep's wall-clock instead of
/// scaling with it.
pub const PERF_ROWS_CAP: usize = 1 << 18;

/// One measured data-plane rate.
#[derive(Debug, Clone)]
pub struct PerfRate {
    /// Figure row name (`perf_materialize` / `perf_generate` /
    /// `perf_engine`).
    pub name: &'static str,
    /// Work units completed by one iteration.
    pub work: u64,
    /// What one work unit is (`bytes`, `rows`, `instr`).
    pub unit: &'static str,
    /// Work units per host second, truncated to an integer
    /// (`check_figures` requires a positive one).
    pub rate_per_s: u64,
    /// Host wall time of the final measured batch, in milliseconds.
    pub host_ms: f64,
}

impl PerfRate {
    /// The rate scaled to its headline unit: GB/s for bytes, Mrows/s
    /// for rows, Minstr/s for instructions.
    pub fn headline(&self) -> f64 {
        match self.unit {
            "bytes" => self.rate_per_s as f64 / 1e9,
            _ => self.rate_per_s as f64 / 1e6,
        }
    }

    /// The headline unit label matching [`headline`](Self::headline).
    pub fn headline_unit(&self) -> &'static str {
        match self.unit {
            "bytes" => "GB/s",
            "rows" => "Mrows/s",
            _ => "Minstr/s",
        }
    }
}

/// Measures the three data-plane rates over a table of `rows` tuples
/// (clamped to [`PERF_ROWS_CAP`]), spending about `target` of wall
/// time per measurement. Generation fans out over `pool`; the other
/// two paths are single-threaded by design.
pub fn measure(rows: usize, seed: u64, target: Duration, pool: &WorkerPool) -> Vec<PerfRate> {
    let rows = rows.clamp(1, PERF_ROWS_CAP);

    // Materialization: table values -> resident image bytes, in place.
    let table = LineitemTable::generate(rows, seed);
    let layout = DsmLayout::new(0, rows);
    let mut image = vec![0u8; layout.image_bytes() as usize];
    let m = run_for("perf_materialize", target, || {
        layout.materialize_into(&table, &mut image)
    });

    // Generation: seed -> the four column vectors.
    let g = run_for("perf_generate", target, || {
        LineitemTable::generate_shaped_on(pool, seed, 0, rows, TableShape::Uniform)
    });

    // Engine: a warm HIPE Q6 run (predicated scan + fused aggregate),
    // in simulated instructions retired per host second.
    let sys = System::new(rows, seed);
    let mut session = sys.session();
    let plan = session.plan(Arch::Hipe, &Query::q6());
    let instructions: u64 = session
        .run_plan(&plan)
        .partitions
        .iter()
        .map(|p| p.instructions)
        .sum();
    let e = run_for("perf_engine", target, || session.run_plan(&plan));

    vec![
        rate("perf_materialize", layout.image_bytes(), "bytes", &m),
        rate("perf_generate", rows as u64, "rows", &g),
        rate("perf_engine", instructions, "instr", &e),
    ]
}

/// Folds a timed batch into a [`PerfRate`]: `work` units per
/// iteration, `iters` iterations, over the batch's wall time.
fn rate(name: &'static str, work: u64, unit: &'static str, r: &BenchResult) -> PerfRate {
    let per_s = (work * r.iters) as f64 / r.total.as_secs_f64().max(1e-9);
    PerfRate {
        name,
        work,
        unit,
        rate_per_s: per_s as u64,
        host_ms: r.total.as_secs_f64() * 1e3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_are_positive_and_complete() {
        let pool = WorkerPool::serial();
        let rates = measure(4096, 7, Duration::from_millis(2), &pool);
        let names: Vec<_> = rates.iter().map(|r| r.name).collect();
        assert_eq!(names, ["perf_materialize", "perf_generate", "perf_engine"]);
        for r in &rates {
            assert!(r.work > 0, "{}: zero work", r.name);
            assert!(r.rate_per_s > 0, "{}: zero rate", r.name);
            assert!(r.host_ms > 0.0, "{}: zero wall time", r.name);
            assert!(r.headline() > 0.0);
            assert!(!r.headline_unit().is_empty());
        }
    }

    #[test]
    fn row_counts_are_clamped_to_the_cap() {
        // A degenerate request still measures something; the cap keeps
        // huge sweeps from inflating the perf rows.
        let pool = WorkerPool::serial();
        let rates = measure(0, 7, Duration::from_millis(1), &pool);
        assert_eq!(rates[1].work, 1, "zero rows clamps up to one tuple");
    }
}
