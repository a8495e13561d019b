//! The open backend abstraction: compile once, execute many times.

use crate::report::{Arch, RunReport};
use crate::session::Session;
use crate::system::System;
use crate::{host, neardata};
use hipe_compiler::{CompileError, LogicScanProgram, STOCK_HMC_OP};
use hipe_db::{Bitmask, PruneStats, Query};
use hipe_isa::{MicroOp, OpSize};

/// One architecture's compile/execute implementation.
///
/// A backend is stateless: [`compile`](Self::compile) lowers a query
/// against a [`System`]'s layout into an [`ExecutablePlan`], and
/// [`execute`](Self::execute) runs a plan inside a [`Session`] (which
/// owns the warm cube image). The split means a plan is lowered once
/// per query and reused across a whole batch, and adding a machine to
/// the comparison is one new `Backend` implementation — the driver,
/// benches and tests iterate [`Arch::ALL`] unchanged.
///
/// Invalid inputs (e.g. a zero-row layout handed to the lowering
/// functions directly) surface as a typed
/// [`CompileError`](hipe_compiler::CompileError) from `compile` rather
/// than a panic from inside the compiler.
///
/// `execute` expects the session in its reset state;
/// [`Session::run_plan`] handles that and is the normal entry point.
///
/// # Example
///
/// ```
/// use hipe::{Arch, System};
/// use hipe_db::Query;
///
/// let sys = System::new(1024, 3);
/// let backend = System::backend(Arch::Hipe);
/// let plan = backend.compile(&sys, &Query::q6()).expect("a live system always compiles");
/// let mut session = sys.session();
/// let report = session.run_plan(&plan);
/// assert_eq!(report.arch, Arch::Hipe);
/// ```
pub trait Backend {
    /// The architecture label this backend implements.
    fn arch(&self) -> Arch;

    /// Lowers `query` into this architecture's executable form.
    ///
    /// # Errors
    ///
    /// Returns the compiler's typed [`CompileError`] when the query
    /// cannot be lowered (never for queries over a live [`System`],
    /// whose layouts are non-empty by construction).
    fn compile(&self, sys: &System, query: &Query) -> Result<ExecutablePlan, CompileError>;

    /// Executes a compiled plan against the session's warm image.
    ///
    /// # Panics
    ///
    /// Panics if `plan` was compiled by a different architecture's
    /// backend.
    fn execute(&self, session: &mut Session<'_>, plan: &ExecutablePlan) -> RunReport;
}

/// The architecture-specific payload of a plan.
#[derive(Debug, Clone)]
pub(crate) enum PlanCode {
    /// A micro-op stream executed by the out-of-order core (x86
    /// baseline and HMC-ISA machines), with the regions it scans.
    Micro { ops: Vec<MicroOp>, scanned: Bitmask },
    /// Per-partition logic-layer programs posted to the in-cube
    /// engine cluster (HIVE/HIPE) — one program per vault group.
    /// Aggregate queries carry the fused aggregate tail unless the
    /// backend was configured for the host-gather comparison path.
    Logic {
        program: LogicScanProgram,
        predicated: bool,
    },
}

/// A query lowered for one architecture, ready to execute.
///
/// Produced by [`Backend::compile`]; executed — any number of times —
/// via [`Session::run_plan`]. The plan captures everything derived
/// from the query and the system's address layout, so executing it does
/// not re-lower anything.
#[derive(Debug, Clone)]
pub struct ExecutablePlan {
    arch: Arch,
    query: Query,
    rows: usize,
    partitions: usize,
    code: PlanCode,
}

impl ExecutablePlan {
    /// The architecture the plan was compiled for.
    pub fn arch(&self) -> Arch {
        self.arch
    }

    /// The query the plan computes.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Table rows the plan was compiled against (plans are layout
    /// specific; [`Session::run_plan`] checks this).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Vault-group partitions the plan was compiled for (also checked
    /// by [`Session::run_plan`] — partition counts change the layout).
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// Number of lowered instructions in the plan (micro-ops or
    /// logic-layer instructions).
    pub fn instructions(&self) -> usize {
        match &self.code {
            PlanCode::Micro { ops, .. } => ops.len(),
            PlanCode::Logic { program, .. } => program.total_instrs(),
        }
    }

    /// The 32-row regions the plan scans, one bit per region. Without
    /// [`SystemConfig::pruning`](crate::SystemConfig) every bit is set.
    /// Executors evaluate or read back only these regions: the others'
    /// output stays at the session reset's zeros.
    pub fn scanned_regions(&self) -> &Bitmask {
        match &self.code {
            PlanCode::Micro { scanned, .. } => scanned,
            PlanCode::Logic { program, .. } => program.scanned_regions(),
        }
    }

    /// How many 32-row regions the plan scans versus how many the
    /// zone map pruned at compile time. Without
    /// [`SystemConfig::pruning`](crate::SystemConfig) every region is
    /// scanned and `pruned` is zero.
    pub fn prune_stats(&self) -> PruneStats {
        PruneStats::of(self.scanned_regions())
    }

    /// Returns `true` when the plan runs its aggregate fused inside
    /// the logic layer (per-region partials read back over the links)
    /// rather than as a host-side gather of matched tuples.
    pub fn fused_aggregate(&self) -> bool {
        match &self.code {
            PlanCode::Micro { .. } => false,
            PlanCode::Logic { program, .. } => program.aggregate_base().is_some(),
        }
    }

    pub(crate) fn code(&self) -> &PlanCode {
        &self.code
    }

    fn check_arch(&self, expect: Arch) {
        assert_eq!(
            self.arch, expect,
            "plan compiled for {} executed on the {} backend",
            self.arch, expect
        );
    }
}

/// The x86/AVX baseline: vectorized column-at-a-time scan through the
/// cache hierarchy.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostX86Backend;

impl Backend for HostX86Backend {
    fn arch(&self) -> Arch {
        Arch::HostX86
    }

    fn compile(&self, sys: &System, query: &Query) -> Result<ExecutablePlan, CompileError> {
        sys.note_compilation();
        let (ops, scanned) = hipe_compiler::lower_host_scan(query, sys.layout(), sys.prune())?;
        Ok(ExecutablePlan {
            arch: Arch::HostX86,
            query: query.clone(),
            rows: sys.config().rows,
            partitions: sys.config().partitions,
            code: PlanCode::Micro { ops, scanned },
        })
    }

    fn execute(&self, session: &mut Session<'_>, plan: &ExecutablePlan) -> RunReport {
        plan.check_arch(Arch::HostX86);
        host::execute(session, plan)
    }
}

/// The stock HMC atomic-ISA machine: per-vault read-operate dispatches
/// with host-side mask combining.
#[derive(Debug, Clone, Copy)]
pub struct HmcIsaBackend {
    /// Operand size of one vault operation. The stock machine uses
    /// [`STOCK_HMC_OP`] (16 B); larger sizes model the paper's
    /// operand-size extension sweep.
    pub op_size: OpSize,
}

impl Default for HmcIsaBackend {
    fn default() -> Self {
        HmcIsaBackend {
            op_size: STOCK_HMC_OP,
        }
    }
}

impl Backend for HmcIsaBackend {
    fn arch(&self) -> Arch {
        Arch::HmcIsa
    }

    fn compile(&self, sys: &System, query: &Query) -> Result<ExecutablePlan, CompileError> {
        sys.note_compilation();
        let (ops, scanned) =
            hipe_compiler::lower_hmc_scan(query, sys.layout(), self.op_size, sys.prune())?;
        Ok(ExecutablePlan {
            arch: Arch::HmcIsa,
            query: query.clone(),
            rows: sys.config().rows,
            partitions: sys.config().partitions,
            code: PlanCode::Micro { ops, scanned },
        })
    }

    fn execute(&self, session: &mut Session<'_>, plan: &ExecutablePlan) -> RunReport {
        plan.check_arch(Arch::HmcIsa);
        host::execute(session, plan)
    }
}

/// HIVE: unpredicated logic-layer execution inside the cube.
///
/// Aggregate queries compile to the fused `Mul`/`AddReduce` program by
/// default; set `fused_aggregate: false` to keep the host-side gather
/// (the paper's comparison point, and the path the x86/HMC-ISA
/// machines always use).
#[derive(Debug, Clone, Copy)]
pub struct HiveBackend {
    /// Run aggregates inside the logic layer (default) instead of
    /// gathering matched tuples over the links.
    pub fused_aggregate: bool,
}

impl Default for HiveBackend {
    fn default() -> Self {
        HiveBackend {
            fused_aggregate: true,
        }
    }
}

/// HIPE: HIVE plus the predication match logic (which also squashes
/// the whole fused-aggregate tail of matchless regions).
#[derive(Debug, Clone, Copy)]
pub struct HipeBackend {
    /// Run aggregates inside the logic layer (default) instead of
    /// gathering matched tuples over the links.
    pub fused_aggregate: bool,
}

impl Default for HipeBackend {
    fn default() -> Self {
        HipeBackend {
            fused_aggregate: true,
        }
    }
}

fn compile_logic(
    sys: &System,
    query: &Query,
    arch: Arch,
    predicated: bool,
    fused_aggregate: bool,
) -> Result<ExecutablePlan, CompileError> {
    sys.note_compilation();
    let program = if query.aggregates() && fused_aggregate {
        hipe_compiler::lower_logic_aggregate(query, sys.layout(), predicated, sys.prune())?
    } else {
        hipe_compiler::lower_logic_scan(query, sys.layout(), predicated, sys.prune())?
    };
    Ok(ExecutablePlan {
        arch,
        query: query.clone(),
        rows: sys.config().rows,
        partitions: sys.config().partitions,
        code: PlanCode::Logic {
            program,
            predicated,
        },
    })
}

impl Backend for HiveBackend {
    fn arch(&self) -> Arch {
        Arch::Hive
    }

    fn compile(&self, sys: &System, query: &Query) -> Result<ExecutablePlan, CompileError> {
        compile_logic(sys, query, Arch::Hive, false, self.fused_aggregate)
    }

    fn execute(&self, session: &mut Session<'_>, plan: &ExecutablePlan) -> RunReport {
        plan.check_arch(Arch::Hive);
        neardata::execute(session, plan)
    }
}

impl Backend for HipeBackend {
    fn arch(&self) -> Arch {
        Arch::Hipe
    }

    fn compile(&self, sys: &System, query: &Query) -> Result<ExecutablePlan, CompileError> {
        compile_logic(sys, query, Arch::Hipe, true, self.fused_aggregate)
    }

    fn execute(&self, session: &mut Session<'_>, plan: &ExecutablePlan) -> RunReport {
        plan.check_arch(Arch::Hipe);
        neardata::execute(session, plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backends_report_their_arch() {
        for arch in Arch::ALL {
            assert_eq!(System::backend(arch).arch(), arch);
        }
    }

    #[test]
    fn compile_captures_query_rows_and_code() {
        let sys = System::new(128, 1);
        let q = Query::q6();
        for arch in Arch::ALL {
            let plan = System::backend(arch)
                .compile(&sys, &q)
                .expect("live systems always compile");
            assert_eq!(plan.arch(), arch);
            assert_eq!(plan.query(), &q);
            assert_eq!(plan.rows(), 128);
            assert!(plan.instructions() > 0);
        }
    }

    #[test]
    fn stock_hmc_backend_uses_16_byte_ops() {
        assert_eq!(HmcIsaBackend::default().op_size, STOCK_HMC_OP);
    }

    #[test]
    fn aggregates_fuse_on_the_logic_machines_only() {
        let sys = System::new(256, 2);
        let q6 = Query::q6();
        for arch in Arch::ALL {
            let plan = System::backend(arch)
                .compile(&sys, &q6)
                .expect("Q6 compiles");
            let fused = matches!(arch, Arch::Hive | Arch::Hipe);
            assert_eq!(plan.fused_aggregate(), fused, "{arch}");
        }
        // Non-aggregating queries never fuse.
        let scan = Query::quantity_below_permille(100);
        let plan = System::backend(Arch::Hipe)
            .compile(&sys, &scan)
            .expect("scan compiles");
        assert!(!plan.fused_aggregate());
        // The explicit host-gather configuration is preserved for the
        // fused-vs-gather comparison experiments.
        let host_gather = HipeBackend {
            fused_aggregate: false,
        };
        let plan = host_gather.compile(&sys, &q6).expect("Q6 compiles");
        assert!(!plan.fused_aggregate());
    }

    #[test]
    fn fused_plans_carry_the_aggregate_tail() {
        let sys = System::new(256, 2);
        let fused = System::backend(Arch::Hive)
            .compile(&sys, &Query::q6())
            .expect("Q6 compiles");
        let gather = HiveBackend {
            fused_aggregate: false,
        }
        .compile(&sys, &Query::q6())
        .expect("Q6 compiles");
        // Five tail instructions per 32-row region, plus the zero and
        // flush of the single 32-region partial group.
        assert_eq!(
            fused.instructions(),
            gather.instructions() + 5 * 256usize.div_ceil(hipe_compiler::REGION_ROWS) + 2
        );
    }

    #[test]
    fn pruning_config_threads_into_every_backend() {
        use crate::system::SystemConfig;
        use hipe_db::TableShape;
        let rows = 2048;
        let mut cfg = SystemConfig::paper(rows, 5);
        cfg.shape = TableShape::ClusteredShipdate { total_rows: rows };
        cfg.pruning = true;
        let sys = System::with_config(cfg);
        let q = Query::shipdate_window_permille(100);
        for arch in Arch::ALL {
            let plan = System::backend(arch)
                .compile(&sys, &q)
                .expect("live systems always compile");
            let s = plan.prune_stats();
            assert_eq!(s.total(), rows / 32, "{arch}");
            assert!(s.pruned > 0, "{arch} pruned nothing on a clustered table");
            assert_eq!(
                plan.scanned_regions(),
                &sys.zonemap().scan_set(&q),
                "{arch}"
            );
        }
        // Without the flag the same system scans everything.
        let mut unpruned_cfg = sys.config().clone();
        unpruned_cfg.pruning = false;
        let unpruned = System::with_config(unpruned_cfg);
        for arch in Arch::ALL {
            let plan = System::backend(arch)
                .compile(&unpruned, &q)
                .expect("live systems always compile");
            assert_eq!(plan.prune_stats().pruned, 0, "{arch}");
        }
    }

    #[test]
    #[should_panic(expected = "executed on the")]
    fn executing_a_foreign_plan_panics() {
        let sys = System::new(64, 2);
        let plan = System::backend(Arch::Hive)
            .compile(&sys, &Query::q6())
            .expect("Q6 compiles");
        let mut session = sys.session();
        let _ = System::backend(Arch::Hipe).execute(&mut session, &plan);
    }
}
