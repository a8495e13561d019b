//! The closed set of machines: compile once, execute many times.

use crate::report::Arch;
use crate::system::{System, SystemConfig};
use hipe_compiler::{CompileError, HostScanProgram, LogicScanProgram};
use hipe_db::{Bitmask, PruneStats, Query};
use hipe_isa::OpSize;

/// One machine of the paper's comparison, with its compile-time knobs.
///
/// [`compile`](Self::compile) lowers a query against a [`System`]'s
/// layout into an [`ExecutablePlan`], which a
/// [`Session`](crate::Session) runs with
/// [`run_plan`](crate::Session::run_plan) any number of times. The
/// split means a plan is lowered once per query and reused across a
/// whole batch. [`System::backend`] resolves an [`Arch`] to its stock
/// configuration; the other field values model the paper's
/// operand-size sweep and its fused-versus-gather comparison.
///
/// Invalid inputs (e.g. a zero-row layout handed to the lowering
/// functions directly) surface as a typed
/// [`CompileError`](hipe_compiler::CompileError) from `compile` rather
/// than a panic from inside the compiler.
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The x86/AVX baseline: vectorized column-at-a-time scan through
    /// the cache hierarchy.
    HostX86,
    /// The HMC atomic-ISA machine: per-vault read-operate dispatches
    /// with host-side mask combining.
    HmcIsa {
        /// Operand size of one vault operation. The stock machine uses
        /// [`STOCK_HMC_OP`](hipe_compiler::STOCK_HMC_OP) (16 B); larger
        /// sizes model the paper's operand-size extension sweep.
        op_size: OpSize,
    },
    /// HIVE: unpredicated logic-layer execution inside the cube.
    Hive {
        /// Run aggregates inside the logic layer (stock) instead of
        /// gathering matched tuples over the links, the paper's
        /// comparison point and the path the host-driven machines
        /// always use.
        fused_aggregate: bool,
    },
    /// HIPE: HIVE plus the predication match logic (which also
    /// squashes the whole fused-aggregate tail of matchless regions).
    Hipe {
        /// As for [`Backend::Hive`].
        fused_aggregate: bool,
    },
}

impl Backend {
    /// The architecture label this backend implements.
    pub fn arch(self) -> Arch {
        match self {
            Backend::HostX86 => Arch::HostX86,
            Backend::HmcIsa { .. } => Arch::HmcIsa,
            Backend::Hive { .. } => Arch::Hive,
            Backend::Hipe { .. } => Arch::Hipe,
        }
    }

    /// Lowers `query` into this machine's executable form.
    ///
    /// # Errors
    ///
    /// Returns the compiler's typed [`CompileError`] when the query
    /// cannot be lowered (never for queries over a live [`System`],
    /// whose layouts are non-empty by construction).
    pub fn compile(self, sys: &System, query: &Query) -> Result<ExecutablePlan, CompileError> {
        sys.note_compilation();
        let (layout, prune) = (sys.layout(), sys.prune());
        let code = match self {
            Backend::HostX86 => {
                PlanCode::Micro(hipe_compiler::lower_host_scan(query, layout, prune)?)
            }
            Backend::HmcIsa { op_size } => PlanCode::Micro(hipe_compiler::lower_hmc_scan(
                query, layout, op_size, prune,
            )?),
            Backend::Hive { fused_aggregate } | Backend::Hipe { fused_aggregate } => {
                let predicated = matches!(self, Backend::Hipe { .. });
                let program = if query.aggregates() && fused_aggregate {
                    hipe_compiler::lower_logic_aggregate(query, layout, predicated, prune)?
                } else {
                    hipe_compiler::lower_logic_scan(query, layout, predicated, prune)?
                };
                PlanCode::Logic {
                    program,
                    predicated,
                }
            }
        };
        Ok(ExecutablePlan {
            arch: self.arch(),
            query: query.clone(),
            config: sys.config().clone(),
            code,
        })
    }
}

/// The architecture-specific payload of a plan.
#[derive(Debug, Clone)]
pub(crate) enum PlanCode {
    /// A micro-op program executed by the out-of-order core (x86
    /// baseline and HMC-ISA machines): per-unit templates expanded as
    /// they execute, with the regions they scan.
    Micro(HostScanProgram),
    /// A logic-layer region template posted to the in-cube engine
    /// cluster (HIVE/HIPE), expanded into one stream per vault group
    /// as it executes. Aggregate queries carry the fused aggregate
    /// tail unless the backend was configured for the host-gather
    /// comparison path.
    Logic {
        program: LogicScanProgram,
        predicated: bool,
    },
}

/// A query lowered for one architecture, ready to execute.
///
/// Produced by [`Backend::compile`]; executed — any number of times —
/// via [`Session::run_plan`](crate::Session::run_plan). The plan captures everything derived
/// from the query and the system's address layout, so executing it does
/// not re-lower anything. It also records the configuration of the
/// system it was lowered against, which [`Session::run_plan`](crate::Session::run_plan) checks.
#[derive(Debug, Clone)]
pub struct ExecutablePlan {
    arch: Arch,
    query: Query,
    config: SystemConfig,
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

    /// The configuration of the system the plan was compiled against.
    /// Plans are table specific: [`Session::run_plan`](crate::Session::run_plan) runs a plan only
    /// on a system with an equal configuration.
    pub(crate) fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Table rows the plan was compiled against.
    pub fn rows(&self) -> usize {
        self.config.rows
    }

    /// Vault-group partitions the plan was compiled for.
    pub fn partitions(&self) -> usize {
        self.config.partitions
    }

    /// Number of instructions the plan executes (micro-ops or
    /// logic-layer instructions), computed in closed form from the
    /// plan's templates and scanned regions
    /// ([`HostScanProgram::len`], [`LogicScanProgram::total_instrs`]),
    /// not counted off a stored stream.
    pub fn instructions(&self) -> usize {
        match &self.code {
            PlanCode::Micro(program) => program.len(),
            PlanCode::Logic { program, .. } => program.total_instrs(),
        }
    }

    /// The 32-row regions the plan scans, one bit per region. Without
    /// [`SystemConfig::pruning`](crate::SystemConfig) every bit is set.
    /// Executors evaluate or read back only these regions: the others'
    /// output stays at the session reset's zeros.
    pub fn scanned_regions(&self) -> &Bitmask {
        match &self.code {
            PlanCode::Micro(program) => program.scanned_regions(),
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
            PlanCode::Micro(_) => false,
            PlanCode::Logic { program, .. } => program.aggregate_base().is_some(),
        }
    }

    pub(crate) fn code(&self) -> &PlanCode {
        &self.code
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
    fn host_instruction_counts_are_exact() {
        use crate::system::SystemConfig;
        use hipe_db::TableShape;
        let mut pruned = SystemConfig::paper(4096, 5);
        pruned.shape = TableShape::ClusteredShipdate { total_rows: 4096 };
        pruned.pruning = true;
        let mut partitioned = SystemConfig::paper(1024, 5);
        partitioned.partitions = 8;
        let configs = [
            SystemConfig::paper(1024, 5),
            partitioned,
            pruned,
            SystemConfig::paper(70, 5),
            SystemConfig::paper(4097, 5),
        ];
        let queries = [
            Query::q6(),
            Query::quantity_below_permille(100),
            Query::shipdate_window_permille(100),
        ];
        for cfg in configs {
            let sys = System::with_config(cfg);
            for arch in [Arch::HostX86, Arch::HmcIsa] {
                for q in &queries {
                    let what = format!("{arch}, {} rows, [{q}]", sys.config().rows);
                    let plan = System::backend(arch).compile(&sys, q).expect("compiles");
                    let PlanCode::Micro(program) = plan.code() else {
                        unreachable!("host archs lower to micro-op programs");
                    };
                    let mut expanded = 0;
                    program.for_each_op(|_| expanded += 1);
                    assert_eq!(plan.instructions(), expanded, "{what}");
                    let report = sys.session().run_plan(&plan);
                    assert_eq!(report.partitions[0].instructions, expanded as u64, "{what}");
                    if !q.aggregates() {
                        assert_eq!(report.core.ops, expanded as u64, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn logic_instruction_counts_are_exact() {
        use crate::system::SystemConfig;
        use hipe_db::{CmpOp, Column, ColumnPredicate, TableShape};
        let partitioned = |rows, partitions| SystemConfig {
            partitions,
            ..SystemConfig::paper(rows, 5)
        };
        let pruned = |rows, partitions| SystemConfig {
            shape: TableShape::ClusteredShipdate { total_rows: rows },
            pruning: true,
            ..partitioned(rows, partitions)
        };
        // Plain, ragged, 2/8/32 partitions (33 000 rows give the first
        // eight of 32 engines a second flush group), zone-map pruned,
        // and fully pruned.
        let configs = [
            SystemConfig::paper(1024, 5),
            SystemConfig::paper(70, 5),
            SystemConfig::paper(4097, 5),
            partitioned(4097, 2),
            partitioned(4097, 8),
            partitioned(33_000, 32),
            pruned(4096, 1),
            pruned(4097, 8),
            // The late half of a clustered table: every region's
            // shipdates lie after the window below.
            SystemConfig {
                row_offset: 2048,
                shape: TableShape::ClusteredShipdate { total_rows: 4096 },
                pruning: true,
                ..SystemConfig::paper(2048, 5)
            },
        ];
        // A shipdate window before the late half's first date.
        let before = Query::new(
            vec![ColumnPredicate::new(Column::Shipdate, CmpOp::Range(0, 100))],
            false,
        );
        let queries = [
            Query::q6(),
            Query::quantity_below_permille(100),
            Query::shipdate_window_permille(100),
            Query::shipdate_window_permille(100).with_aggregate(),
            before.clone(),
            before.with_aggregate(),
        ];
        let mut fully_pruned = 0;
        for cfg in configs {
            let sys = System::with_config(cfg);
            let mut session = sys.session();
            for arch in [Arch::Hive, Arch::Hipe] {
                for q in &queries {
                    let what = format!(
                        "{arch}, {} rows, {} partitions, [{q}]",
                        sys.config().rows,
                        sys.config().partitions
                    );
                    let plan = System::backend(arch).compile(&sys, q).expect("compiles");
                    assert_eq!(plan.fused_aggregate(), q.aggregates(), "{what}");
                    let report = session.run_plan(&plan);
                    let engine = report.engine.expect("logic machines report an engine");
                    let partitions: u64 = report.partitions.iter().map(|p| p.instructions).sum();
                    assert_eq!(plan.instructions() as u64, engine.instructions, "{what}");
                    assert_eq!(plan.instructions() as u64, partitions, "{what}");
                    if plan.prune_stats().scanned == 0 {
                        assert_eq!(plan.instructions(), 0, "{what}");
                        fully_pruned += 1;
                    }
                }
            }
        }
        assert!(fully_pruned > 0, "no fully pruned plan was checked");
    }

    #[test]
    fn stock_hmc_backend_uses_16_byte_ops() {
        assert_eq!(
            System::backend(Arch::HmcIsa),
            Backend::HmcIsa {
                op_size: hipe_compiler::STOCK_HMC_OP
            }
        );
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
        let host_gather = Backend::Hipe {
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
        let gather = Backend::Hive {
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
}
