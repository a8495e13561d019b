//! Execution sessions: many runs over one system.

use crate::backend::{ExecutablePlan, PlanCode};
use crate::report::{Arch, RunReport};
use crate::system::System;
use crate::{host, neardata};
use hipe_db::Query;
use hipe_hmc::EnergyModel;
use std::sync::Arc;

/// An execution context over one [`System`].
///
/// A session holds nothing but its system, and no run leaves state
/// behind: a run's answer is a functional scan of the system's table,
/// and a run whose timing the system has not recorded yet simulates on
/// a cube built for it alone and dropped after it (see [`System`]). So
/// every run is bit- and cycle-identical to the same run in any other
/// session, in any order (the integration tests assert this).
///
/// This is the execution half of the compile → session → execute
/// split: plans compiled by a [`Backend`](crate::Backend) can be
/// executed any number of times, on any architecture;
/// [`run_plan`](Self::run_plan) picks the host or the near-data
/// executor from the plan's own code. A session holds no plans of its
/// own: [`run`](Self::run) takes them from the system's cache
/// ([`System::plan`]), so every session of one system shares each
/// lowering. Opening one counts one [`System::materializations`].
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
    /// A session over `sys`.
    pub(crate) fn new(sys: &'a System) -> Self {
        Session { sys }
    }

    /// The system this session executes against.
    pub fn system(&self) -> &'a System {
        self.sys
    }

    /// Executes `query` on `arch` with the system's cached plan for the
    /// pair ([`System::plan`]): the first run of a query on an arch, in
    /// any session of the system, lowers it; every later run reuses the
    /// compiled [`ExecutablePlan`].
    pub fn run(&mut self, arch: Arch, query: &Query) -> RunReport {
        let plan = self.sys.plan(arch, query);
        self.run_plan(&plan)
    }

    /// Executes an already-compiled plan.
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
        let mut report = match plan.code() {
            PlanCode::Micro(program) => host::execute(self.sys, plan, program),
            PlanCode::Logic {
                program,
                predicated,
            } => neardata::execute(self.sys, plan, program, *predicated),
        };
        // Energy is a price of the run's own counters, set here for
        // both executors.
        let lookups = report.cache.map_or(0, |c| c.total_lookups());
        report.energy = EnergyModel::paper().price(&report.hmc, lookups, report.cycles);
        report
    }
}
