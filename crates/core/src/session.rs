//! Warm execution sessions: one materialized cube image, many runs.

use crate::backend::ExecutablePlan;
use crate::report::{Arch, RunReport};
use crate::system::System;
use hipe_db::Query;
use hipe_hmc::Hmc;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A compiled-plan cache that outlives the sessions opened over one
/// [`System`] — a `hipe-serve` shard keeps one for the cluster's
/// lifetime. Each service run opens a fresh session, and compilation
/// is deterministic, so a plan lowered by an earlier session is *the*
/// plan for every later one: the first session to need an
/// `(arch, query)` pair compiles it, and later sessions find it here
/// instead of lowering it again ([`System::compilations`] counts).
///
/// Sessions keep their private per-arch map for lock-free hot-path
/// hits; the shared map is consulted only on a local miss. The lock is
/// held across the compile so racing sessions lower each key exactly
/// once.
#[derive(Debug, Default)]
pub struct PlanCache {
    plans: Mutex<HashMap<(Arch, Query), Arc<ExecutablePlan>>>,
}

impl PlanCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Number of distinct `(arch, query)` plans cached so far.
    pub fn len(&self) -> usize {
        self.plans.lock().expect("plan cache poisoned").len()
    }

    /// Returns `true` if no plan has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cached plan for `(arch, query)`, lowering it against `sys`
    /// on first use.
    fn get_or_compile(&self, sys: &System, arch: Arch, query: &Query) -> Arc<ExecutablePlan> {
        let mut plans = self.plans.lock().expect("plan cache poisoned");
        let plan = plans.entry((arch, query.clone())).or_insert_with(|| {
            Arc::new(
                System::backend(arch)
                    .compile(sys, query)
                    .expect("queries over a live system always compile"),
            )
        });
        Arc::clone(plan)
    }
}

/// A warm execution context over one [`System`].
///
/// Creating a session materializes the generated table into the cube
/// image **once**; every subsequent run reuses that image. Before each
/// run the session applies its *reset protocol* — the output blocks
/// the previous run wrote past the mask base are zeroed
/// ([`Hmc::zero_dirty_from`]) and the cube's run-scoped timing, stats
/// and energy meters are reset in place ([`Hmc::reset_run_state`])
/// while the table bytes stay put — so a warm run is bit- and
/// cycle-identical to a cold [`System::run`] (the integration tests
/// assert this). Runs then read back only the regions their plan
/// scans: every other region's output is zero by this protocol.
///
/// This is the execution half of the compile → session → execute
/// split: plans compiled by a [`Backend`](crate::Backend) can be
/// executed any number of times, on any architecture, against the one
/// materialization.
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
/// ```
#[derive(Debug)]
pub struct Session<'a> {
    sys: &'a System,
    hmc: Hmc,
    /// Compiled-plan cache: one entry per distinct `(arch, query)`
    /// the session has run. Batch loops re-running the same queries
    /// compile once, not per run ([`System::compilations`] counts).
    /// Keyed arch-first so the hot hit path looks up by `&Query`
    /// without cloning it.
    plans: HashMap<Arch, HashMap<Query, Arc<ExecutablePlan>>>,
    /// Cross-session fallback consulted on a local miss; see
    /// [`PlanCache`]. `None` for standalone sessions.
    shared: Option<Arc<PlanCache>>,
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
        _assert_send::<PlanCache>();
        _assert_sync::<PlanCache>();
    }
};

impl<'a> Session<'a> {
    /// Creates a session, materializing the table image (the one
    /// expensive setup step a warm batch amortizes).
    pub(crate) fn new(sys: &'a System) -> Self {
        Session::build(sys, None)
    }

    /// Creates a session whose plan lookups fall back to a shared
    /// [`PlanCache`] (see [`System::session_with_plans`]).
    pub(crate) fn with_shared_plans(sys: &'a System, plans: Arc<PlanCache>) -> Self {
        Session::build(sys, Some(plans))
    }

    fn build(sys: &'a System, shared: Option<Arc<PlanCache>>) -> Self {
        Session {
            sys,
            hmc: sys.fresh_hmc(),
            plans: HashMap::new(),
            shared,
        }
    }

    /// The system this session executes against.
    pub fn system(&self) -> &'a System {
        self.sys
    }

    /// The cube holding the warm image (read-only view).
    pub fn hmc(&self) -> &Hmc {
        &self.hmc
    }

    /// Mutable cube access for the executing backend.
    pub(crate) fn hmc_mut(&mut self) -> &mut Hmc {
        &mut self.hmc
    }

    /// Applies the reset protocol: zeroes the blocks of the mask and
    /// aggregate output areas written since the last reset (after
    /// materialization that is all of them) and resets the cube's
    /// run-scoped timing/stat/energy state, leaving the table image
    /// untouched. Its cost follows the blocks the last run wrote, not
    /// the table's size.
    ///
    /// [`run`](Self::run) and [`run_plan`](Self::run_plan) call this
    /// before every execution; it only needs to be invoked directly
    /// when driving a [`Backend`](crate::Backend) by hand.
    pub fn reset(&mut self) {
        self.hmc.zero_dirty_from(self.sys.mask_base());
        self.hmc.reset_run_state();
    }

    /// Compiles and executes `query` on `arch` against the warm image.
    ///
    /// Plans are cached per `(arch, query)`: the first run of a query
    /// lowers it, every later run of the same query on the same arch
    /// reuses the compiled [`ExecutablePlan`] (compilation is
    /// deterministic, so the cached plan is the plan a fresh compile
    /// would produce; [`System::compilations`] observes the saving).
    ///
    /// Compile errors cannot occur here: a live [`System`] always has
    /// at least one row, which is the only way a query over it could
    /// fail to lower. (Driving a [`Backend`](crate::Backend) by hand
    /// exposes the typed error.)
    pub fn run(&mut self, arch: Arch, query: &Query) -> RunReport {
        let plan = self.plan(arch, query);
        self.run_plan(&plan)
    }

    /// Like [`run`](Self::run), emitting the run's phase spans into
    /// the trace context when one is given. `None` takes a single
    /// branch and is otherwise the exact [`run`](Self::run) path, and
    /// emission happens strictly after execution from the finished
    /// [`RunReport`] — so the report (cycles, masks, digests) is
    /// bit-identical whether or not the run is traced.
    pub fn run_traced(
        &mut self,
        arch: Arch,
        query: &Query,
        trace: Option<crate::TraceCtx<'_>>,
    ) -> RunReport {
        let report = self.run(arch, query);
        if let Some(ctx) = trace {
            report.trace_into(ctx.sink, ctx.track, ctx.at, "query");
        }
        report
    }

    /// The session's cached plan for `(arch, query)`, compiling it on
    /// first use.
    pub fn plan(&mut self, arch: Arch, query: &Query) -> Arc<ExecutablePlan> {
        if let Some(plan) = self.plans.get(&arch).and_then(|m| m.get(query)) {
            return Arc::clone(plan);
        }
        let plan = match &self.shared {
            Some(cache) => cache.get_or_compile(self.sys, arch, query),
            None => Arc::new(
                System::backend(arch)
                    .compile(self.sys, query)
                    .expect("queries over a live system always compile"),
            ),
        };
        self.plans
            .entry(arch)
            .or_default()
            .insert(query.clone(), Arc::clone(&plan));
        plan
    }

    /// Rewrites the table image in place over the warm cube — the
    /// zero-copy rematerialization path. Every image byte (column
    /// arrays, alignment padding, mask and aggregate areas) is
    /// overwritten, so the next run is bit- and cycle-identical to a
    /// cold one even after arbitrary scribbling on the image. Counts
    /// one [`System::materializations`].
    pub fn rematerialize(&mut self) {
        self.sys.rematerialize_into(&mut self.hmc);
    }

    /// Executes an already-compiled plan against the warm image.
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
        System::backend(plan.arch()).execute(self, plan)
    }
}
