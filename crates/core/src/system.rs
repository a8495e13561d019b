//! The assembled system: table, memory image and backend resolution.

use crate::backend::{Backend, HipeBackend, HiveBackend, HmcIsaBackend, HostX86Backend};
use crate::report::{Arch, RunReport};
use crate::session::{PlanCache, Session};
use hipe_cache::HierarchyConfig;
use hipe_compiler::STOCK_HMC_OP;
use hipe_cpu::CoreConfig;
use hipe_db::scan::ScanResult;
use hipe_db::{Bitmask, Column, DsmLayout, LineitemTable, Query, TableShape, ZoneMap};
use hipe_hmc::{Hmc, HmcConfig};
use hipe_logic::LogicConfig;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Configuration of a full system: workload size plus the paper's
/// component parameters (all overridable for experiments).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemConfig {
    /// Tuples in the lineitem table.
    pub rows: usize,
    /// Generation seed.
    pub seed: u64,
    /// Global row index this system's table starts at. `0` — the
    /// default — generates the monolithic table; a `hipe-serve`
    /// cluster shard sets it to its range start so its rows match the
    /// monolithic table's rows value for value
    /// (`LineitemTable::generate_range`).
    pub row_offset: usize,
    /// Vault-group partitions (logic-layer engines). `1` — the paper's
    /// single-engine configuration — reproduces the original layout
    /// and cycle counts exactly; larger values (any divisor of the
    /// 32-vault sweep) scan the table with one engine per vault group.
    pub partitions: usize,
    /// Value distribution of the generated table
    /// ([`TableShape::Uniform`] is the paper's dbgen-shaped default;
    /// [`TableShape::ClusteredShipdate`] sorts shipdate by row for the
    /// zone-map skipping experiments).
    pub shape: TableShape,
    /// Compile scans against this system's [`ZoneMap`], dropping
    /// regions whose min/max summaries prove the predicate
    /// conjunction can't match. Off by default: the paper's figures
    /// measure the full scan, and on a uniform table every region
    /// spans the whole value domain anyway. The zone map itself is
    /// always built (it's one cheap pass at construction); this flag
    /// only controls whether the backends consult it.
    pub pruning: bool,
    /// Out-of-order core parameters.
    pub core: CoreConfig,
    /// Cache hierarchy parameters.
    pub hierarchy: HierarchyConfig,
    /// Cube parameters.
    pub hmc: HmcConfig,
    /// Logic-layer engine parameters for HIVE (no predication).
    pub hive: LogicConfig,
    /// Logic-layer engine parameters for HIPE (predication).
    pub hipe: LogicConfig,
}

impl SystemConfig {
    /// Table I parameters at the given workload size (one engine, as
    /// in the paper's figures).
    pub fn paper(rows: usize, seed: u64) -> Self {
        SystemConfig {
            rows,
            seed,
            row_offset: 0,
            partitions: 1,
            shape: TableShape::Uniform,
            pruning: false,
            core: CoreConfig::paper(),
            hierarchy: HierarchyConfig::paper(),
            hmc: HmcConfig::paper(),
            hive: LogicConfig::paper(),
            hipe: LogicConfig::paper_hipe(),
        }
    }
}

/// A runnable system: a generated table laid out column-wise (DSM) in
/// cube memory, ready to execute select scans on any [`Arch`].
///
/// The system itself is immutable workload state — table, layout,
/// component parameters. Execution happens through the compile →
/// session → execute API: [`System::backend`] resolves an [`Arch`]
/// label to its [`Backend`], and [`session`](Self::session) opens a
/// warm [`Session`] that materializes the cube image once and can run
/// whole batches against it. [`run`](Self::run) and
/// [`compare`](Self::compare) are one-shot wrappers over that API.
///
/// # Example
///
/// ```
/// use hipe::{Arch, System};
/// use hipe_db::Query;
///
/// let sys = System::new(2048, 7);
/// let report = sys.run(Arch::Hipe, &Query::q6());
/// assert_eq!(report.result.bitmask.len(), 2048);
/// ```
#[derive(Debug)]
pub struct System {
    cfg: SystemConfig,
    table: LineitemTable,
    layout: DsmLayout,
    /// Per-region min/max/row-count summaries of `table`, built once
    /// at construction. Consulted by the backends when
    /// [`SystemConfig::pruning`] is set, and by `hipe-serve`'s scatter
    /// path (via the table-level rollup) to skip whole shards.
    zonemap: ZoneMap,
    mask_base: u64,
    image_len: usize,
    /// Times the table image was materialized into a cube (sessions
    /// amortize this; the batch tests assert it stays at one).
    materializations: AtomicU64,
    /// Times a backend lowered a query against this system (the
    /// session plan cache amortizes this; the batch tests assert one
    /// compile per distinct query per arch).
    compilations: AtomicU64,
}

impl Clone for System {
    fn clone(&self) -> Self {
        System {
            cfg: self.cfg.clone(),
            table: self.table.clone(),
            layout: self.layout,
            zonemap: self.zonemap.clone(),
            mask_base: self.mask_base,
            image_len: self.image_len,
            materializations: AtomicU64::new(self.materializations.load(Ordering::Relaxed)),
            compilations: AtomicU64::new(self.compilations.load(Ordering::Relaxed)),
        }
    }
}

impl System {
    /// Creates a paper-configured system over `rows` tuples.
    pub fn new(rows: usize, seed: u64) -> Self {
        System::with_config(SystemConfig::paper(rows, seed))
    }

    /// Creates a paper-configured system scanned by `partitions`
    /// vault-group engines.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` does not divide the 32-vault sweep.
    pub fn partitioned(rows: usize, seed: u64, partitions: usize) -> Self {
        System::with_config(SystemConfig {
            partitions,
            ..SystemConfig::paper(rows, seed)
        })
    }

    /// Creates a system with explicit component parameters.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.rows` is zero, or if `cfg.partitions` does not
    /// divide the vault sweep.
    pub fn with_config(cfg: SystemConfig) -> Self {
        assert!(cfg.rows > 0, "a system needs at least one tuple");
        // Vault-group ownership is computed from the layout's sweep
        // constant; it must match the cube geometry whenever the table
        // is actually partitioned (single-partition layouts never
        // consult it, so non-default vault counts stay usable there).
        assert!(
            cfg.partitions == 1 || cfg.hmc.vaults == hipe_db::VAULTS,
            "partitioned layouts require the cube's {} vaults",
            hipe_db::VAULTS
        );
        let table = LineitemTable::generate_shaped(cfg.seed, cfg.row_offset, cfg.rows, cfg.shape);
        let zonemap = ZoneMap::build(&table);
        // The layout owns the whole image map: column arrays, then the
        // mask output area, then the aggregate partial-sum area (the
        // latter two are the session reset protocol's zeroed region).
        // With partitions > 1 every area is padded to whole vault
        // sweeps so each vault-group engine stays inside its own banks.
        let layout = DsmLayout::partitioned(0, cfg.rows, cfg.partitions);
        let mask_base = layout.mask_base();
        let image_len = layout.image_bytes() as usize;
        System {
            cfg,
            table,
            layout,
            zonemap,
            mask_base,
            image_len,
            materializations: AtomicU64::new(0),
            compilations: AtomicU64::new(0),
        }
    }

    /// Resolves an architecture label to its (stateless) backend.
    ///
    /// This is the single point where [`Arch`] meets implementation:
    /// everything else — sessions, benches, tests — goes through the
    /// returned [`Backend`].
    pub fn backend(arch: Arch) -> &'static dyn Backend {
        match arch {
            Arch::HostX86 => &HostX86Backend,
            Arch::HmcIsa => &HmcIsaBackend {
                op_size: STOCK_HMC_OP,
            },
            Arch::Hive => &HiveBackend {
                fused_aggregate: true,
            },
            Arch::Hipe => &HipeBackend {
                fused_aggregate: true,
            },
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The generated table.
    pub fn table(&self) -> &LineitemTable {
        &self.table
    }

    /// The DSM layout of the table in cube memory.
    pub fn layout(&self) -> &DsmLayout {
        &self.layout
    }

    /// The table's zone map: per-region min/max/row-count summaries
    /// plus the table-level rollup, built once at construction.
    pub fn zonemap(&self) -> &ZoneMap {
        &self.zonemap
    }

    /// The zone map, but only when [`SystemConfig::pruning`] asked the
    /// backends to compile against it — this is the value every
    /// `Backend::compile` hands to the lowering functions, so the flag
    /// is honoured in exactly one place.
    pub fn prune(&self) -> Option<&ZoneMap> {
        self.cfg.pruning.then_some(&self.zonemap)
    }

    /// Base address of the match-mask output area.
    pub fn mask_base(&self) -> u64 {
        self.mask_base
    }

    /// How many times the table image has been materialized into a
    /// cube so far (each [`session`](Self::session) or cold
    /// [`run`](Self::run) adds one; warm batch runs add none).
    pub fn materializations(&self) -> u64 {
        self.materializations.load(Ordering::Relaxed)
    }

    /// How many times a [`Backend`] has lowered a query against this
    /// system so far. [`Session`]s cache compiled plans, so a batch
    /// loop re-running the same queries adds nothing here after the
    /// first pass — the batch tests assert exactly that.
    pub fn compilations(&self) -> u64 {
        self.compilations.load(Ordering::Relaxed)
    }

    /// Records one query lowering (called by every [`Backend::compile`]).
    pub(crate) fn note_compilation(&self) {
        self.compilations.fetch_add(1, Ordering::Relaxed);
    }

    /// Opens a warm execution session, materializing the cube image
    /// once.
    pub fn session(&self) -> Session<'_> {
        Session::new(self)
    }

    /// Opens a warm session whose plan lookups fall back to `plans`, a
    /// [`PlanCache`] shared with other sessions over this system (a
    /// `hipe-serve` shard keeps one across its service runs): each
    /// `(arch, query)` pair is lowered once per cache, not once per
    /// session.
    pub fn session_with_plans(&self, plans: Arc<PlanCache>) -> Session<'_> {
        Session::with_shared_plans(self, plans)
    }

    /// Builds a cold cube populated with the table image.
    pub(crate) fn fresh_hmc(&self) -> Hmc {
        let mut hmc = Hmc::new(self.cfg.hmc.clone(), self.image_len);
        self.rematerialize_into(&mut hmc);
        hmc
    }

    /// Writes the table image straight into `hmc`'s backing bytes —
    /// the zero-copy materialization path (no image-sized temporary).
    /// Overwrites every image byte, restoring the exact cold image,
    /// and counts one materialization.
    pub(crate) fn rematerialize_into(&self, hmc: &mut Hmc) {
        self.materializations.fetch_add(1, Ordering::Relaxed);
        let image = hmc.bytes_mut(self.layout.base(), self.image_len);
        self.layout.materialize_into(&self.table, image);
    }

    /// Executes `query` on `arch` and reports results and measurements.
    ///
    /// One-shot wrapper over the session API: equivalent to opening a
    /// fresh [`Session`] and running the query once (cold).
    pub fn run(&self, arch: Arch, query: &Query) -> RunReport {
        self.session().run(arch, query)
    }

    /// Convenience: runs `query` on the host baseline and on HIPE,
    /// sharing one warm session (a single table materialization).
    pub fn compare(&self, query: &Query) -> (RunReport, RunReport) {
        let mut session = self.session();
        (
            session.run(Arch::HostX86, query),
            session.run(Arch::Hipe, query),
        )
    }

    /// Completes a scan `bitmask` into a [`ScanResult`], computing the
    /// aggregate (if the query has one) from the values in the cube
    /// image — i.e. from what the simulated machine actually stored.
    pub(crate) fn finish_result(&self, hmc: &Hmc, query: &Query, bitmask: Bitmask) -> ScanResult {
        let matches = bitmask.count_ones();
        let aggregate = query.aggregates().then(|| {
            bitmask
                .iter_ones()
                .map(|i| {
                    let price = hmc.read_u64(self.layout.value_addr(Column::ExtendedPrice, i));
                    let discount = hmc.read_u64(self.layout.value_addr(Column::Discount, i));
                    price as i64 as i128 * discount as i64 as i128
                })
                .sum()
        });
        ScanResult {
            bitmask,
            matches,
            aggregate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_covers_table_mask_and_partials() {
        let sys = System::new(100, 1);
        // 4 columns x 1 stride each + 4 mask regions + one 256 B row
        // of partial-sum slots (4 regions fit in a single row).
        let stride = 100u64.div_ceil(32) * 256;
        assert_eq!(sys.mask_base(), 4 * stride);
        assert_eq!(
            sys.fresh_hmc().image_len() as u64,
            4 * stride + 4 * 256 + 256
        );
    }

    #[test]
    fn fresh_hmc_contains_table_values() {
        let sys = System::new(64, 3);
        let hmc = sys.fresh_hmc();
        for i in [0usize, 17, 63] {
            let addr = sys.layout().value_addr(Column::Quantity, i);
            assert_eq!(
                hmc.read_u64(addr) as i64,
                sys.table().value(Column::Quantity, i)
            );
        }
    }

    #[test]
    fn compare_materializes_once() {
        let sys = System::new(512, 4);
        let (base, hipe) = sys.compare(&Query::q6());
        assert_eq!(base.result, hipe.result);
        assert_eq!(sys.materializations(), 1);
        // A cold run pays its own materialization.
        let _ = sys.run(Arch::Hipe, &Query::q6());
        assert_eq!(sys.materializations(), 2);
    }

    #[test]
    fn backend_resolution_is_total() {
        for arch in Arch::ALL {
            assert_eq!(System::backend(arch).arch(), arch);
        }
    }

    #[test]
    fn layout_vault_constant_matches_cube_geometry() {
        // The partitioned layout's vault-sweep constant and the cube's
        // vault count must agree, or region-to-vault ownership is
        // fiction.
        assert_eq!(hipe_db::VAULTS, HmcConfig::paper().vaults);
    }

    #[test]
    fn partitioned_systems_pad_every_area_to_vault_sweeps() {
        let sys = System::partitioned(1000, 2, 4);
        assert_eq!(sys.config().partitions, 4);
        assert_eq!(sys.layout().partitions(), 4);
        assert_eq!(sys.mask_base() % 8192, 0);
        assert_eq!(
            sys.fresh_hmc().image_len() as u64,
            sys.layout().image_bytes()
        );
    }

    #[test]
    #[should_panic(expected = "do not divide")]
    fn bad_partition_count_panics() {
        let _ = System::partitioned(100, 1, 5);
    }

    #[test]
    fn single_partition_allows_nonstandard_vault_counts() {
        // Only partitioned layouts depend on the 32-vault sweep;
        // a single-engine experiment may still shrink the cube.
        let mut cfg = SystemConfig::paper(256, 1);
        cfg.hmc.vaults = 16;
        let sys = System::with_config(cfg);
        let q = Query::quantity_below_permille(500);
        let report = sys.run(Arch::Hipe, &q);
        assert_eq!(report.result, hipe_db::scan::reference(sys.table(), &q));
    }

    #[test]
    #[should_panic(expected = "require the cube's 32 vaults")]
    fn partitioned_configs_reject_nonstandard_vault_counts() {
        let mut cfg = SystemConfig::paper(256, 1);
        cfg.hmc.vaults = 16;
        cfg.partitions = 4;
        let _ = System::with_config(cfg);
    }

    #[test]
    #[should_panic(expected = "at least one tuple")]
    fn zero_rows_panics() {
        let _ = System::new(0, 0);
    }
}
