//! The assembled system: table, memory image and backend resolution.

use crate::backend::{Backend, ExecutablePlan};
use crate::replay::{Timing, TimingKey};
use crate::report::{Arch, RunReport};
use crate::session::Session;
use hipe_cache::HierarchyConfig;
use hipe_compiler::STOCK_HMC_OP;
use hipe_cpu::CoreConfig;
use hipe_db::scan::ScanResult;
use hipe_db::{Bitmask, Column, DsmLayout, LineitemTable, Query, TableShape, ZoneMap, VAULTS};
use hipe_hmc::{Hmc, HmcConfig, CUBE_BYTES};
use hipe_logic::LogicConfig;
use hipe_sim::WorkerPool;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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
    /// (`LineitemTable::generate_laid_out` jumps the RNG stream there).
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
    /// spans the whole value domain anyway. Only a system with this
    /// flag set builds the zone map (one pass at construction).
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

    /// Checks that the configuration describes a system that can
    /// exist, before any table byte is allocated.
    ///
    /// # Example
    ///
    /// ```
    /// use hipe::{ConfigError, SystemConfig};
    ///
    /// let cfg = SystemConfig { partitions: 3, ..SystemConfig::paper(4096, 7) };
    /// assert_eq!(cfg.validate(), Err(ConfigError::PartitionsDoNotDivide { partitions: 3 }));
    /// ```
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.rows == 0 {
            return Err(ConfigError::ZeroRows);
        }
        let hmc = &self.hmc;
        let dims = [
            ("vaults", hmc.vaults as u64),
            ("banks_per_vault", hmc.banks_per_vault as u64),
            ("row_buffer_bytes", hmc.row_buffer_bytes),
        ];
        if let Some((field, value)) = dims.into_iter().find(|(_, v)| !v.is_power_of_two()) {
            return Err(ConfigError::NotPowerOfTwo { field, value });
        }
        if !(2 * hmc.burst_bytes).is_multiple_of((hmc.row_buffer_bytes / 32).max(1)) {
            return Err(ConfigError::BurstOffGranule {
                burst_bytes: hmc.burst_bytes,
                row_buffer_bytes: hmc.row_buffer_bytes,
            });
        }
        if self.partitions == 0 || !VAULTS.is_multiple_of(self.partitions) {
            return Err(ConfigError::PartitionsDoNotDivide {
                partitions: self.partitions,
            });
        }
        // Vault-group ownership is computed from the layout's sweep
        // constant; it must match the cube geometry whenever the table
        // is actually partitioned (single-partition layouts never
        // consult it, so non-default vault counts stay usable there).
        if self.partitions > 1 && self.hmc.vaults != VAULTS {
            return Err(ConfigError::PartitionsNeedVaults {
                vaults: self.hmc.vaults,
            });
        }
        let bytes = self.layout().image_bytes();
        if bytes > CUBE_BYTES {
            return Err(ConfigError::ImageTooLarge { bytes });
        }
        Ok(())
    }

    /// The image map of this configuration's table. The layout owns
    /// the whole map: column arrays, then the mask output area, then
    /// the aggregate partial-sum area (the latter two are the output a
    /// simulating run's cube owns, zero until written). With partitions > 1 every area
    /// is padded to whole vault sweeps so each vault-group engine stays
    /// inside its own banks.
    fn layout(&self) -> DsmLayout {
        DsmLayout::partitioned(0, self.rows, self.partitions)
    }
}

/// Why a [`SystemConfig`] cannot describe a system, as returned by
/// [`SystemConfig::validate`] and [`System::try_with_config`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// The table has no tuples.
    ZeroRows,
    /// `partitions` is zero or does not divide the 32-vault sweep.
    PartitionsDoNotDivide {
        /// The requested partition count.
        partitions: usize,
    },
    /// A partitioned layout on a cube without the sweep's 32 vaults.
    PartitionsNeedVaults {
        /// The cube's vault count.
        vaults: usize,
    },
    /// The image does not fit the paper's 8 GB cube
    /// ([`hipe_hmc::CUBE_BYTES`]).
    ImageTooLarge {
        /// Bytes the image would span.
        bytes: u64,
    },
    /// A cube dimension the address mapping cannot take apart with
    /// shifts and masks ([`hipe_hmc::AddressMapping::new`]): vaults,
    /// banks per vault and row-buffer bytes must be powers of two.
    NotPowerOfTwo {
        /// The [`HmcConfig`](hipe_hmc::HmcConfig) field.
        field: &'static str,
        /// Its value.
        value: u64,
    },
    /// Bursts too narrow for the vault's latency table
    /// ([`hipe_hmc::Vault::new`]), which has one entry per 1/32 of a
    /// row buffer: `2 × burst_bytes` must be a multiple of
    /// `row_buffer_bytes / 32`.
    BurstOffGranule {
        /// The burst width.
        burst_bytes: u64,
        /// The row-buffer size.
        row_buffer_bytes: u64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ConfigError::ZeroRows => f.write_str("a system needs at least one tuple"),
            ConfigError::PartitionsDoNotDivide { partitions } => {
                write!(
                    f,
                    "{partitions} partitions do not divide the {VAULTS}-vault sweep"
                )
            }
            ConfigError::PartitionsNeedVaults { vaults } => write!(
                f,
                "partitioned layouts require the cube's {VAULTS} vaults, not {vaults}"
            ),
            ConfigError::ImageTooLarge { bytes } => {
                write!(f, "a {bytes} B image exceeds the {CUBE_BYTES} B cube")
            }
            ConfigError::NotPowerOfTwo { field, value } => {
                write!(f, "the cube's {field} ({value}) must be a power of two")
            }
            ConfigError::BurstOffGranule {
                burst_bytes,
                row_buffer_bytes,
            } => write!(
                f,
                "two {burst_bytes} B bursts do not fill whole 32nds of a {row_buffer_bytes} B row"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// A runnable system: a generated table laid out column-wise (DSM) in
/// cube memory, ready to execute select scans on any [`Arch`].
///
/// The system's workload state — table, layout, component parameters
/// — is immutable. Execution happens through the compile → session →
/// execute API: [`System::backend`] resolves an [`Arch`] label to its
/// [`Backend`], and [`session`](Self::session) opens a [`Session`] that
/// can run whole batches. [`run`](Self::run) is a one-shot wrapper over
/// that API. Since
/// lowering is deterministic, the system also owns the plans its
/// sessions run: [`plan`](Self::plan) lowers each `(arch, query)`
/// once for the system's lifetime.
///
/// Since no machine's timing reads the data beyond what the functional
/// scan computes anyway, the system also keeps the timing of every run
/// its sessions simulate, on all four machines, keyed by what that
/// timing reads: the plan's program without the operands no timing
/// reads (HMC-ISA's vault-op operands, HIVE's and HIPE's compare
/// immediates), its scanned regions, the mask a per-tuple gather walks
/// and, on HIPE, how many leading predicates keep each scanned
/// region's running mask non-zero. A later run with the same key, in
/// any session, replays that timing instead of re-running the core,
/// cache, cube and engine models; its answer is still a functional
/// scan of the table. A HIVE or HIPE run that simulates also checks its
/// engines' answer against that one. The memo holds at most one entry
/// per distinct query run, as the plan cache does.
///
/// The table's columns are stored once, in the table's column area. A
/// run that simulates builds a cube of its own, which reads that
/// buffer as the read-only image below [`mask_base`](Self::mask_base)
/// and owns only the output area above it; the cube is dropped with
/// the run, so no run leaves state behind.
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
    /// The table, laid out per the system's [`DsmLayout`]: its column
    /// area is the shared part of every session's cube image.
    table: LineitemTable,
    /// Per-region min/max/row-count summaries of `table`, built at
    /// construction when [`SystemConfig::pruning`] is set. Consulted
    /// by the backends, and by `hipe-serve`'s scatter path (via the
    /// table-level rollup) to skip whole shards.
    zonemap: Option<ZoneMap>,
    /// Sessions opened over the system (the batch tests assert one
    /// session serves a whole batch).
    materializations: AtomicU64,
    /// What the system has derived per arch: its stock plans and its
    /// timings. Keyed arch-first so a plan hit looks up
    /// by `&Query` without cloning it.
    cache: Mutex<HashMap<Arch, ArchCache>>,
}

/// A [`System`]'s derived state for one arch.
#[derive(Debug, Default)]
struct ArchCache {
    /// Stock plans lowered against the system, one per distinct query
    /// any session has run on the arch (see [`System::plan`]).
    plans: HashMap<Query, Arc<ExecutablePlan>>,
    /// The timing of every run simulated on the system, one per
    /// distinct [`TimingKey`].
    timings: HashMap<TimingKey, Timing>,
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
    /// Panics with the [`ConfigError`] that
    /// [`try_with_config`](Self::try_with_config) would return.
    pub fn with_config(cfg: SystemConfig) -> Self {
        System::try_with_config(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a system with explicit component parameters, or the
    /// [`ConfigError`] that rules it out. The configuration is checked
    /// before any table byte is allocated.
    pub fn try_with_config(cfg: SystemConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let table = LineitemTable::generate_laid_out(
            &WorkerPool::from_env(),
            cfg.seed,
            cfg.row_offset,
            cfg.shape,
            cfg.layout(),
        );
        let zonemap = cfg.pruning.then(|| ZoneMap::build(&table));
        Ok(System {
            cfg,
            table,
            zonemap,
            materializations: AtomicU64::new(0),
            cache: Mutex::default(),
        })
    }

    /// The stock configuration of an architecture's [`Backend`]: 16 B
    /// HMC-ISA operands and fused aggregates on HIVE/HIPE.
    /// [`plan`](Self::plan) compiles every cached plan through it.
    pub fn backend(arch: Arch) -> Backend {
        match arch {
            Arch::HostX86 => Backend::HostX86,
            Arch::HmcIsa => Backend::HmcIsa {
                op_size: STOCK_HMC_OP,
            },
            Arch::Hive => Backend::Hive {
                fused_aggregate: true,
            },
            Arch::Hipe => Backend::Hipe {
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
        self.table.layout()
    }

    /// The table's zone map (per-region min/max/row-count summaries
    /// plus the table-level rollup), built only when
    /// [`SystemConfig::pruning`] asked the backends to compile against
    /// it — this is the value [`Backend::compile`] hands to the
    /// lowering functions, so the flag is honoured in exactly one place.
    pub fn prune(&self) -> Option<&ZoneMap> {
        self.zonemap.as_ref()
    }

    /// Base address of the match-mask output area.
    pub fn mask_base(&self) -> u64 {
        self.layout().mask_base()
    }

    /// How many sessions have been opened over the system so far: each
    /// [`session`](Self::session) or one-shot [`run`](Self::run) adds
    /// one, and the runs of a session add none. A session holds no
    /// cube, so this does not count the cubes that simulating runs
    /// build.
    pub fn materializations(&self) -> u64 {
        self.materializations.load(Ordering::Relaxed)
    }

    /// The stock plan of `query` on `arch`, lowered through
    /// [`backend`](Self::backend) the first time any session of this
    /// system asks for it and shared from then on. The system is
    /// immutable and lowering is deterministic, so the cached plan is
    /// the plan a fresh compile would produce. The lock is held across
    /// the compile, so racing sessions lower each pair once.
    ///
    /// Compile errors cannot occur here: a live system always has at
    /// least one row, which is the only way a query over it could fail
    /// to lower. ([`Backend::compile`] exposes the typed error, and
    /// plans compiled through it directly are not cached.)
    pub fn plan(&self, arch: Arch, query: &Query) -> Arc<ExecutablePlan> {
        let mut cache = self.cache.lock().expect("plan cache poisoned");
        let by_query = &mut cache.entry(arch).or_default().plans;
        if let Some(plan) = by_query.get(query) {
            return Arc::clone(plan);
        }
        let plan = Arc::new(
            System::backend(arch)
                .compile(self, query)
                .expect("queries over a live system always compile"),
        );
        by_query.insert(query.clone(), Arc::clone(&plan));
        plan
    }

    /// How many stock plans [`plan`](Self::plan) has lowered against
    /// this system so far: one per distinct `(arch, query)` pair, in
    /// whichever session first ran it. A batch loop re-running the
    /// same queries, or a fresh session running them again, adds
    /// nothing here — the batch tests assert exactly that.
    pub fn compilations(&self) -> u64 {
        let cache = self.cache.lock().expect("plan cache poisoned");
        cache.values().map(|c| c.plans.len() as u64).sum()
    }

    /// The timing a run of `arch` on this system recorded under `key`,
    /// if one did.
    pub(crate) fn replay_timing(&self, arch: Arch, key: &TimingKey) -> Option<Timing> {
        let cache = self.cache.lock().expect("plan cache poisoned");
        cache.get(&arch)?.timings.get(key).cloned()
    }

    /// Records the timing a run of `arch` simulated for `key`. The lock
    /// is taken only to insert, never while simulating, so two racing
    /// misses both simulate and insert the same value.
    pub(crate) fn memoize_timing(&self, arch: Arch, key: TimingKey, timing: Timing) {
        let mut cache = self.cache.lock().expect("plan cache poisoned");
        cache.entry(arch).or_default().timings.insert(key, timing);
    }

    /// Opens an execution session, counting it in
    /// [`materializations`](Self::materializations).
    pub fn session(&self) -> Session<'_> {
        self.materializations.fetch_add(1, Ordering::Relaxed);
        Session::new(self)
    }

    /// Builds a cube for one simulation: the table's column area,
    /// shared, below [`mask_base`](Self::mask_base), and a zero, owned
    /// output area above it.
    pub(crate) fn fresh_hmc(&self) -> Hmc {
        Hmc::with_shared(
            self.cfg.hmc.clone(),
            Arc::clone(self.table.column_area()),
            self.layout().image_bytes() as usize,
        )
    }

    /// Executes `query` on `arch` and reports results and measurements.
    ///
    /// One-shot wrapper over the session API: equivalent to opening a
    /// [`Session`] and running the query once. Its timing may replay
    /// one that an earlier run on this system recorded (see
    /// [`System`]), which reports exactly what re-simulating would. A
    /// run with nothing to replay needs a second system with the same
    /// configuration.
    pub fn run(&self, arch: Arch, query: &Query) -> RunReport {
        self.session().run(arch, query)
    }

    /// Completes a scan `bitmask` into a [`ScanResult`], computing the
    /// aggregate (if the query has one) from the table's values.
    pub(crate) fn finish_result(&self, query: &Query, bitmask: Bitmask) -> ScanResult {
        let matches = bitmask.count_ones();
        let aggregate = query.aggregates().then(|| {
            let column = |c| self.table.column(c);
            let (price, discount) = (column(Column::ExtendedPrice), column(Column::Discount));
            bitmask
                .iter_ones()
                .map(|i| price.get(i) as i128 * discount.get(i) as i128)
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
        assert_eq!(sys.layout().image_bytes(), 4 * stride + 4 * 256 + 256);
    }

    #[test]
    fn fresh_hmc_contains_table_values() {
        let sys = System::new(64, 3);
        let hmc = sys.fresh_hmc();
        for i in [0usize, 17, 63] {
            let addr = sys.layout().value_addr(Column::Quantity, i);
            assert_eq!(hmc.read_word(addr), sys.table().value(Column::Quantity, i));
        }
    }

    #[test]
    fn compare_materializes_once() {
        let sys = System::new(512, 4);
        let mut session = sys.session();
        let base = session.run(Arch::HostX86, &Query::q6());
        let hipe = session.run(Arch::Hipe, &Query::q6());
        assert_eq!(base.result, hipe.result);
        assert_eq!(sys.materializations(), 1);
        // A cold run pays its own materialization.
        let _ = sys.run(Arch::Hipe, &Query::q6());
        assert_eq!(sys.materializations(), 2);
    }

    /// The figure sweep's eleven point queries: seven `sel_*`, three
    /// `agg_*` and Q6.
    fn figure_points() -> Vec<Query> {
        let mut points: Vec<Query> = [0, 20, 60, 100, 300, 500, 1000]
            .map(Query::quantity_below_permille)
            .to_vec();
        points.extend([20, 100, 500].map(|pm| Query::quantity_below_permille(pm).with_aggregate()));
        points.push(Query::q6());
        points
    }

    #[test]
    fn the_point_sweep_keeps_one_timing_per_key_on_every_arch() {
        // Each arch keeps one entry per distinct key, counted here as
        // (entries without a gathered mask, all entries):
        //
        // - x86 and HMC-ISA: the seven `sel_*` scans differ only in
        //   their constant, which no host timing reads (x86 templates
        //   carry none and HMC-ISA's are erased), so they share one
        //   entry. Each of the three `agg_*` and Q6 gathers its own
        //   mask: (1, 5).
        // - HIVE: its compare immediates are erased and its timing
        //   reads no data. The seven `sel_*` rows share one entry, the
        //   three fused `agg_*` rows another and Q6 a third; a fused
        //   aggregate gathers nothing: (3, 3).
        // - HIPE: as HIVE, but its key keeps each region's guard depth.
        //   On 4096 rows (128 regions of 32), `quantity < t` leaves a
        //   region matchless with odds (1 - s)^32 at selectivity s:
        //   `sel_0%` leaves every region at depth 0, `sel_2%`, `sel_6%`
        //   and `sel_10%` each leave a different set of regions at 0,
        //   and `sel_30%` to `sel_100%` leave none (0.7^32 < 1e-4), so
        //   those three share one entry: 5. The `agg_2%`, `agg_10%` and
        //   `agg_50%` depths differ as their `sel_*` twins' do: 3. And
        //   Q6: (9, 9).
        let sys = System::new(4096, 2018);
        let mut session = sys.session();
        for q in &figure_points() {
            for arch in Arch::ALL {
                session.run(arch, q);
            }
        }
        let cache = sys.cache.lock().expect("plan cache poisoned");
        for arch in Arch::ALL {
            let entry = &cache[&arch];
            assert_eq!(entry.plans.len(), 11, "{arch}");
            let counting = entry.timings.keys().filter(|k| k.gathered.is_empty());
            let expect = match arch {
                Arch::HostX86 | Arch::HmcIsa => (1, 5),
                Arch::Hive => (3, 3),
                Arch::Hipe => (9, 9),
            };
            assert_eq!((counting.count(), entry.timings.len()), expect, "{arch}");
        }
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
        assert_eq!(sys.layout().image_bytes() % 8192, 0);
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

    fn rejects(cfg: SystemConfig) -> ConfigError {
        System::try_with_config(cfg).expect_err("the configuration is invalid")
    }

    #[test]
    fn zero_rows_is_a_typed_error() {
        assert_eq!(rejects(SystemConfig::paper(0, 0)), ConfigError::ZeroRows);
    }

    #[test]
    fn partitions_off_the_vault_sweep_are_a_typed_error() {
        for partitions in [0, 3, 5, 64] {
            let cfg = SystemConfig {
                partitions,
                ..SystemConfig::paper(100, 1)
            };
            assert_eq!(
                rejects(cfg),
                ConfigError::PartitionsDoNotDivide { partitions }
            );
        }
    }

    #[test]
    fn partitions_on_a_non_32_vault_cube_are_a_typed_error() {
        let mut cfg = SystemConfig::paper(256, 1);
        cfg.hmc.vaults = 16;
        cfg.partitions = 4;
        assert_eq!(
            rejects(cfg),
            ConfigError::PartitionsNeedVaults { vaults: 16 }
        );
    }

    #[test]
    fn an_image_past_the_8_gb_cube_is_a_typed_error() {
        // 2^34 rows would need 512 GiB of columns alone: the check must
        // run before a single table byte is allocated.
        let rows = 1 << 34;
        let bytes = DsmLayout::new(0, rows).image_bytes();
        assert_eq!(
            rejects(SystemConfig::paper(rows, 1)),
            ConfigError::ImageTooLarge { bytes }
        );
        // About 40 B per row: 200 M rows fit the cube, 220 M do not.
        assert_eq!(SystemConfig::paper(200_000_000, 1).validate(), Ok(()));
        assert!(SystemConfig::paper(220_000_000, 1).validate().is_err());
    }

    #[test]
    fn cube_geometry_off_the_shift_mapping_is_a_typed_error() {
        let paper = HmcConfig::paper();
        let cases = [
            (
                HmcConfig {
                    vaults: 24,
                    ..paper.clone()
                },
                ConfigError::NotPowerOfTwo {
                    field: "vaults",
                    value: 24,
                },
            ),
            (
                HmcConfig {
                    banks_per_vault: 6,
                    ..paper.clone()
                },
                ConfigError::NotPowerOfTwo {
                    field: "banks_per_vault",
                    value: 6,
                },
            ),
            (
                HmcConfig {
                    row_buffer_bytes: 384,
                    ..paper.clone()
                },
                ConfigError::NotPowerOfTwo {
                    field: "row_buffer_bytes",
                    value: 384,
                },
            ),
            (
                HmcConfig {
                    burst_bytes: 2,
                    ..paper
                },
                ConfigError::BurstOffGranule {
                    burst_bytes: 2,
                    row_buffer_bytes: 256,
                },
            ),
        ];
        for (hmc, error) in cases {
            let cfg = SystemConfig {
                hmc,
                ..SystemConfig::paper(256, 1)
            };
            assert_eq!(rejects(cfg), error);
        }
        // Other powers of two, and bursts that fill the granule, work.
        let mut cfg = SystemConfig::paper(256, 1);
        cfg.hmc.banks_per_vault = 16;
        cfg.hmc.row_buffer_bytes = 512;
        cfg.hmc.burst_bytes = 16;
        assert_eq!(cfg.validate(), Ok(()));
        let sys = System::with_config(cfg);
        let reference = hipe_db::scan::reference(sys.table(), &Query::q6());
        for arch in [Arch::HostX86, Arch::Hipe] {
            assert_eq!(sys.run(arch, &Query::q6()).result, reference, "{arch:?}");
        }
    }

    #[test]
    fn config_errors_name_their_cause() {
        let cases = [
            (ConfigError::ZeroRows, "at least one tuple"),
            (
                ConfigError::PartitionsDoNotDivide { partitions: 3 },
                "3 partitions do not divide",
            ),
            (
                ConfigError::PartitionsNeedVaults { vaults: 16 },
                "require the cube's 32 vaults",
            ),
            (
                ConfigError::ImageTooLarge { bytes: 1 << 40 },
                "exceeds the 8589934592 B cube",
            ),
            (
                ConfigError::NotPowerOfTwo {
                    field: "vaults",
                    value: 24,
                },
                "vaults (24) must be a power of two",
            ),
            (
                ConfigError::BurstOffGranule {
                    burst_bytes: 2,
                    row_buffer_bytes: 256,
                },
                "two 2 B bursts do not fill whole 32nds of a 256 B row",
            ),
        ];
        for (err, text) in cases {
            assert!(err.to_string().contains(text), "{err}");
        }
    }
}
