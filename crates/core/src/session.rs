//! Warm execution sessions: one cube, many runs.

use crate::backend::{ExecutablePlan, PlanCode};
use crate::report::{Arch, RunReport};
use crate::system::System;
use crate::{host, neardata};
use hipe_db::Query;
use hipe_hmc::{EnergyModel, Hmc};
use std::sync::Arc;

/// A warm execution context over one [`System`].
///
/// Creating a session opens one cube over the system's table: the
/// cube reads the table's column area, shared with every other session
/// of the system, and owns only the zeroed output area from the mask
/// base up. Before each run the session applies its *reset protocol* —
/// the output blocks the previous run wrote are zeroed
/// ([`Hmc::zero_dirty_from`]) and the cube's run-scoped timing state
/// and activity counters are reset in place ([`Hmc::reset_run_state`]) —
/// so a warm run is bit- and cycle-identical to a cold [`System::run`]
/// (the integration tests assert this). Runs then read back only the
/// regions their plan scans: every other region's output is zero by
/// this protocol. A run whose timing the system has already recorded,
/// on any of the four machines, computes its answer from the cube's
/// column values and replays that timing (see [`System`]); the reset
/// protocol matters to the runs that simulate.
///
/// This is the execution half of the compile → session → execute
/// split: plans compiled by a [`Backend`](crate::Backend) can be
/// executed any number of times, on any architecture, against the one
/// cube; [`run_plan`](Self::run_plan) picks the host or
/// the near-data executor from the plan's own code. A session holds no
/// plans of its own: [`run`](Self::run) takes them from the system's
/// cache ([`System::plan`]), so every session of one system shares
/// each lowering.
///
/// # Example
///
/// ```
/// use hipe::{Arch, System};
/// use hipe_db::Query;
///
/// let sys = System::new(2048, 7);
/// let mut session = sys.session();
/// let queries = [Query::q6(), Query::quantity_below_permille(100)];
/// let reports: Vec<_> = queries.iter().map(|q| session.run(Arch::Hipe, q)).collect();
/// assert_eq!(reports.len(), 2);
/// assert_eq!(sys.materializations(), 1);
/// // A second session reuses the plans the first one lowered.
/// sys.session().run(Arch::Hipe, &queries[0]);
/// assert_eq!(sys.compilations(), 2);
/// ```
#[derive(Debug)]
pub struct Session<'a> {
    sys: &'a System,
    hmc: Hmc,
}

// Compile-time guard for host-parallel co-simulation: a `System` must
// be shareable across worker threads and a `Session` movable onto one.
// If a future change smuggles in `Rc`, `RefCell` or a raw pointer,
// this fails to build instead of failing at a distant spawn site.
const _: () = {
    fn _assert_send<T: Send>() {}
    fn _assert_sync<T: Sync>() {}
    fn _guards() {
        _assert_send::<System>();
        _assert_sync::<System>();
        _assert_send::<Session<'_>>();
        _assert_send::<Arc<ExecutablePlan>>();
        _assert_sync::<ExecutablePlan>();
    }
};

impl<'a> Session<'a> {
    /// Creates a session over a new cube.
    pub(crate) fn new(sys: &'a System) -> Self {
        Session {
            sys,
            hmc: sys.fresh_hmc(),
        }
    }

    /// The system this session executes against.
    pub fn system(&self) -> &'a System {
        self.sys
    }

    /// The session's cube (read-only view). Read a run's answer and
    /// counters from its [`RunReport`], not from here: after a run that
    /// replayed its timing, the cube's counters are those the reset
    /// left. The image's output area holds the last run's output as
    /// follows:
    ///
    /// - after an x86 or HMC-ISA run, the answer's packed mask words,
    ///   64 rows per 8 B word from the mask base, replayed or not;
    /// - after a HIVE or HIPE run that simulated, what its engines
    ///   stored: a 256 B lane chunk per scanned region and, for a fused
    ///   aggregate, the per-region partial sums;
    /// - after a HIVE or HIPE run that replayed, nothing: the mask and
    ///   partial-sum areas keep the reset's zeros.
    pub fn hmc(&self) -> &Hmc {
        &self.hmc
    }

    /// Mutable cube access for the executing backend.
    pub(crate) fn hmc_mut(&mut self) -> &mut Hmc {
        &mut self.hmc
    }

    /// Applies the reset protocol: zeroes the blocks of the mask and
    /// aggregate output areas written since the last reset and resets
    /// the cube's run-scoped timing state and counters. The shared table
    /// area is never written, so it needs nothing. Its cost follows the
    /// blocks the last run wrote, not the table's size.
    ///
    /// [`run`](Self::run) and [`run_plan`](Self::run_plan) call this
    /// before every execution.
    pub fn reset(&mut self) {
        self.hmc.zero_dirty_from(self.sys.mask_base());
        self.hmc.reset_run_state();
    }

    /// Executes `query` on `arch` against the warm cube, with the
    /// system's cached plan for the pair ([`System::plan`]): the first
    /// run of a query on an arch, in any session of the system, lowers
    /// it; every later run reuses the compiled [`ExecutablePlan`].
    pub fn run(&mut self, arch: Arch, query: &Query) -> RunReport {
        let plan = self.sys.plan(arch, query);
        self.run_plan(&plan)
    }

    /// Executes an already-compiled plan against the warm cube.
    ///
    /// # Panics
    ///
    /// Panics if the plan was compiled for a system with a different
    /// [`SystemConfig`](crate::SystemConfig). A plan's code is baked
    /// against its system's address layout, and its scanned regions
    /// against that system's table: run on another table, it would
    /// read back the wrong regions and return a wrong answer.
    pub fn run_plan(&mut self, plan: &ExecutablePlan) -> RunReport {
        assert!(
            plan.config() == self.sys.config(),
            "plan was compiled for a different system"
        );
        self.reset();
        let mut report = match plan.code() {
            PlanCode::Micro(program) => host::execute(self, plan, program),
            PlanCode::Logic {
                program,
                predicated,
            } => neardata::execute(self, plan, program, *predicated),
        };
        // Energy is a price of the run's own counters, set here for
        // both executors.
        let lookups = report.cache.map_or(0, |c| c.total_lookups());
        report.energy = EnergyModel::paper().price(&report.hmc, lookups, report.cycles);
        report
    }
}
