//! The sharding layer: one query, N cube shards, combined answers.

use hipe::{
    Arch, ConfigError, PhaseBreakdown, PlanCache, RunReport, Session, System, SystemConfig,
    TableShape,
};
use hipe_db::scan::ScanResult;
use hipe_db::{Bitmask, Query};
use hipe_sim::{Cycle, WorkerPool};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Mutex};

// Compile-time guard for host-parallel co-simulation: shard cubes and
// their warm sessions cross worker-thread boundaries in the scatter
// phase, so the whole cluster stack must stay `Send`.
const _: () = {
    fn _assert_send<T: Send>() {}
    fn _guards() {
        _assert_send::<Cluster>();
        _assert_send::<ClusterSession<'_>>();
    }
};

/// Host-side cycles to merge one extra shard's answer into the
/// gathered result (mask stitch + partial-sum add, already resident in
/// the host's cache after the per-shard runs). A single-shard cluster
/// merges nothing, so its cycle count equals the plain [`System`]'s.
pub const MERGE_CYCLES_PER_SHARD: Cycle = 64;

/// Configuration of a sharded cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Total tuples across all shards.
    pub rows: usize,
    /// Generation seed of the (logical) monolithic table.
    pub seed: u64,
    /// Number of cube shards the row space is split over.
    pub shards: usize,
    /// Vault-group engines inside each shard's cube (the PR 4 knob,
    /// applied per shard).
    pub partitions: usize,
    /// Servers per shard: how many of a shard's sub-queries the
    /// service scheduler can execute at once, each replica with its
    /// own queue and fault state. Replicas are servers, not copies:
    /// a copy would hold the same rows from the same seed and answer
    /// every query bit- and cycle-identically, so all replicas of a
    /// shard are backed by the shard's one [`System`]. Scatter-gather
    /// runs ([`ClusterSession::run`]) do not depend on it.
    pub replicas: usize,
    /// Generate the logical table with shipdate clustered by row
    /// ([`TableShape::ClusteredShipdate`] over the *cluster's* total
    /// rows, so shard tables stay exact slices of the monolithic
    /// clustered table). This is the shape under which shard zone-map
    /// rollups become disjoint and data skipping has teeth.
    pub clustered: bool,
    /// Compile every shard's scans against its zone map and let the
    /// scatter path skip shards whose table-level rollup proves no
    /// region can match ([`ClusterSession::run`] synthesizes the exact
    /// all-zero answer for them). Off by default — the historical
    /// figures measure full scatter.
    pub pruning: bool,
    /// Host worker threads driving the scatter phase (and cluster
    /// construction). Shard runs are independent between scatter and
    /// gather, and the gather merges in shard order, so every width
    /// produces bit-identical results and cycle counts; only host
    /// wall-clock changes. Defaults to the `HIPE_WORKERS` environment
    /// variable (1, i.e. fully serial, when unset) — and `workers: 1`
    /// runs exactly the historical single-threaded code path.
    pub workers: usize,
}

impl ClusterConfig {
    /// A paper-configured cluster: `shards` single-engine cubes, one
    /// replica each.
    pub fn new(rows: usize, seed: u64, shards: usize) -> Self {
        ClusterConfig {
            rows,
            seed,
            shards,
            partitions: 1,
            replicas: 1,
            clustered: false,
            pruning: false,
            workers: hipe_sim::env_workers(),
        }
    }

    /// A replicated cluster: `shards` row ranges, each served by
    /// `replicas` servers.
    pub fn replicated(rows: usize, seed: u64, shards: usize, replicas: usize) -> Self {
        ClusterConfig {
            replicas,
            ..ClusterConfig::new(rows, seed, shards)
        }
    }

    /// A shipdate-clustered cluster with zone-map pruning and shard
    /// skipping enabled — the data-skipping experiment configuration.
    pub fn skipping(rows: usize, seed: u64, shards: usize) -> Self {
        ClusterConfig {
            clustered: true,
            pruning: true,
            ..ClusterConfig::new(rows, seed, shards)
        }
    }

    /// Checks that the configuration describes a cluster that can
    /// exist — including every shard's [`SystemConfig`] — before any
    /// table byte is allocated.
    ///
    /// # Example
    ///
    /// ```
    /// use hipe_serve::{ClusterConfig, ClusterError};
    ///
    /// let cfg = ClusterConfig::new(3, 7, 4);
    /// assert_eq!(cfg.validate(), Err(ClusterError::MoreShardsThanRows { shards: 4, rows: 3 }));
    /// ```
    pub fn validate(&self) -> Result<(), ClusterError> {
        if self.shards == 0 {
            return Err(ClusterError::ZeroShards);
        }
        if self.shards > self.rows {
            return Err(ClusterError::MoreShardsThanRows {
                shards: self.shards,
                rows: self.rows,
            });
        }
        if self.replicas == 0 {
            return Err(ClusterError::ZeroReplicas);
        }
        if self.workers == 0 {
            return Err(ClusterError::ZeroWorkers);
        }
        for (s, range) in self.shard_bounds().into_iter().enumerate() {
            self.shard_config(range)
                .validate()
                .map_err(|error| ClusterError::Shard { shard: s, error })?;
        }
        Ok(())
    }

    /// The shards' global row ranges: a balanced contiguous split, the
    /// first `rows % shards` shards taking one extra tuple, so ranges
    /// differ in size by at most 1.
    fn shard_bounds(&self) -> Vec<Range<usize>> {
        let base = self.rows / self.shards;
        let extra = self.rows % self.shards;
        let mut start = 0;
        (0..self.shards)
            .map(|s| {
                let len = base + usize::from(s < extra);
                start += len;
                start - len..start
            })
            .collect()
    }

    /// The configuration of the shard owning `range`. Shard shapes
    /// reference the *cluster's* row count, so every shard table is an
    /// exact slice of the monolithic table of the same shape (the db
    /// crate's slicing tests pin this).
    fn shard_config(&self, range: Range<usize>) -> SystemConfig {
        let shape = if self.clustered {
            TableShape::ClusteredShipdate {
                total_rows: self.rows,
            }
        } else {
            TableShape::Uniform
        };
        SystemConfig {
            rows: range.len(),
            row_offset: range.start,
            partitions: self.partitions,
            shape,
            pruning: self.pruning,
            ..SystemConfig::paper(range.len(), self.seed)
        }
    }
}

/// Why a [`ClusterConfig`] cannot describe a cluster, as returned by
/// [`ClusterConfig::validate`] and [`Cluster::try_with_config`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterError {
    /// The cluster has no shard.
    ZeroShards,
    /// More shards than rows would leave a shard without a tuple.
    MoreShardsThanRows {
        /// The requested shard count.
        shards: usize,
        /// The cluster's total rows.
        rows: usize,
    },
    /// A shard has no server.
    ZeroReplicas,
    /// No host worker thread would drive construction or scatter.
    ZeroWorkers,
    /// A shard's [`SystemConfig`] is invalid (e.g. `partitions` off the
    /// vault sweep).
    Shard {
        /// The first invalid shard.
        shard: usize,
        /// Why its system cannot exist.
        error: ConfigError,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ClusterError::ZeroShards => f.write_str("a cluster needs at least one shard"),
            ClusterError::MoreShardsThanRows { shards, rows } => {
                write!(f, "{shards} shards over {rows} rows leaves empty shards")
            }
            ClusterError::ZeroReplicas => f.write_str("a shard needs at least one replica"),
            ClusterError::ZeroWorkers => f.write_str("a worker pool needs at least one worker"),
            ClusterError::Shard { shard, error } => write!(f, "shard {shard}: {error}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// N [`System`] shards over one logical lineitem table.
///
/// The table's row space `0..rows` is split into `shards` contiguous,
/// near-equal ranges; shard `s` owns its range as a fully independent
/// [`System`] — its own generated sub-table (bit-identical to the
/// monolithic table's rows for that range, via
/// `LineitemTable::generate_range`), its own `DsmLayout`, its own cube
/// image, optionally partitioned internally across vault-group
/// engines. A shard's [replicas](ClusterConfig::replicas) are servers
/// in the service scheduler, all backed by that one `System`.
///
/// Queries *scatter-gather*: every shard runs the same compiled query
/// over its rows, and the cluster combines the answers — mask
/// concatenation for selects, partial-sum addition for aggregates —
/// so a cluster result is bit-identical to running the query on one
/// monolithic [`System`] of the same `rows` and `seed` (the
/// integration tests assert it on all four architectures).
///
/// A cluster also outlives the service runs over it: each shard's plan
/// cache lowers a `(arch, query)` once, and the cluster memoizes the
/// per-shard measurements [`run_service`](crate::run_service) replays,
/// so every distinct `(arch, query)` a service runs is executed once
/// per cluster lifetime.
///
/// # Example
///
/// ```
/// use hipe::{Arch, System};
/// use hipe_db::Query;
/// use hipe_serve::Cluster;
///
/// let cluster = Cluster::new(4096, 7, 4);
/// let report = cluster.run(Arch::Hipe, &Query::q6());
/// let mono = System::new(4096, 7).run(Arch::Hipe, &Query::q6());
/// assert_eq!(report.result, mono.result);
/// ```
#[derive(Debug)]
pub struct Cluster {
    cfg: ClusterConfig,
    /// One cube per shard, in shard order.
    systems: Vec<System>,
    /// One compiled-plan cache per shard. It outlives the sessions
    /// [`session`](Self::session) opens, so successive sessions (one
    /// per service run) lower each `(arch, query)` pair once per
    /// shard for the cluster's lifetime.
    plans: Vec<Arc<PlanCache>>,
    /// The service profile of every `(arch, query)` pair a service run
    /// has measured, kept for the cluster's lifetime like the plan
    /// caches: each shard's `System` is immutable and warm runs equal
    /// cold runs in any order, so a measurement never goes stale.
    profiles: Mutex<HashMap<(Arch, Query), Arc<Profile>>>,
    bounds: Vec<Range<usize>>,
    pool: WorkerPool,
}

impl Cluster {
    /// Creates a paper-configured cluster of `shards` single-engine
    /// cubes over `rows` total tuples.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or exceeds `rows` (every shard needs
    /// at least one tuple).
    pub fn new(rows: usize, seed: u64, shards: usize) -> Self {
        Cluster::with_config(ClusterConfig::new(rows, seed, shards))
    }

    /// Creates a replicated cluster of `shards` row ranges, each
    /// served by `replicas` servers over one single-engine cube.
    ///
    /// # Panics
    ///
    /// As [`with_config`](Self::with_config).
    pub fn replicated(rows: usize, seed: u64, shards: usize, replicas: usize) -> Self {
        Cluster::with_config(ClusterConfig::replicated(rows, seed, shards, replicas))
    }

    /// Creates a cluster with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics with the [`ClusterError`] that
    /// [`try_with_config`](Self::try_with_config) would return.
    pub fn with_config(cfg: ClusterConfig) -> Self {
        Cluster::try_with_config(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a cluster with explicit parameters, or the
    /// [`ClusterError`] that rules it out. The configuration is checked
    /// before any table byte is allocated.
    pub fn try_with_config(cfg: ClusterConfig) -> Result<Self, ClusterError> {
        cfg.validate()?;
        let bounds = cfg.shard_bounds();
        // Shard cubes are independent, so construction fans out over
        // the pool; the gather is in shard order, so the cluster is
        // identical at every worker count.
        let pool = WorkerPool::new(cfg.workers);
        let systems = pool.run(bounds.clone(), |_, range| {
            System::with_config(cfg.shard_config(range))
        });
        let plans = (0..cfg.shards)
            .map(|_| Arc::new(PlanCache::new()))
            .collect();
        Ok(Cluster {
            cfg,
            systems,
            plans,
            profiles: Mutex::default(),
            bounds,
            pool,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Total tuples across all shards.
    pub fn rows(&self) -> usize {
        self.cfg.rows
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.systems.len()
    }

    /// Replicas (servers) per shard.
    pub fn replicas(&self) -> usize {
        self.cfg.replicas
    }

    /// Shard `s`'s [`System`].
    pub fn shard(&self, s: usize) -> &System {
        &self.systems[s]
    }

    /// The [`System`] replica `r` of shard `s` executes on: shard
    /// `s`'s one cube, whichever replica is asked for.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn replica(&self, s: usize, r: usize) -> &System {
        assert!(
            s < self.systems.len(),
            "shard {s} out of range ({} shards)",
            self.systems.len()
        );
        assert!(
            r < self.cfg.replicas,
            "replica {r} out of range ({} replicas)",
            self.cfg.replicas
        );
        &self.systems[s]
    }

    /// Global row range owned by shard `s`.
    pub fn shard_rows(&self, s: usize) -> Range<usize> {
        self.bounds[s].clone()
    }

    /// Host cycles the gather step spends merging shard answers
    /// (zero for a single shard). Replication does not change the
    /// merge: however many replicas serve a shard, exactly one answers
    /// per query.
    pub fn merge_cycles(&self) -> Cycle {
        (self.systems.len() as Cycle - 1) * MERGE_CYCLES_PER_SHARD
    }

    /// Total cubes opened over the shards' tables
    /// ([`System::materializations`] summed).
    pub fn materializations(&self) -> u64 {
        self.systems.iter().map(System::materializations).sum()
    }

    /// Total query compilations across all shards.
    pub fn compilations(&self) -> u64 {
        self.systems.iter().map(System::compilations).sum()
    }

    /// The host worker pool driving this cluster's fan-out phases.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Opens a warm cluster session: one cube per shard, reading the
    /// shard's table in place, each session backed by its shard's
    /// [`PlanCache`] so a `(arch, query)` pair already lowered by an
    /// earlier session is not lowered again. Opening fans out over the
    /// worker pool — each shard's cube is built independently, so the
    /// warm state is identical at every worker count.
    pub fn session(&self) -> ClusterSession<'_> {
        let shards = self.systems.iter().zip(&self.plans).collect();
        ClusterSession {
            cluster: self,
            sessions: self.pool.run(shards, |_, (sys, plans)| {
                sys.session_with_plans(Arc::clone(plans))
            }),
        }
    }

    /// One-shot scatter-gather run (cold: opens a cube per shard).
    pub fn run(&self, arch: Arch, query: &Query) -> ClusterReport {
        self.session().run(arch, query)
    }
}

/// A warm execution context over every shard of a [`Cluster`].
///
/// Like [`Session`] but N-way: creating it opens one cube per shard;
/// every run scatter-gathers through the warm cubes, and each shard's
/// plan cache compiles a given `(arch, query)` exactly once.
#[derive(Debug)]
pub struct ClusterSession<'a> {
    cluster: &'a Cluster,
    /// One warm session per shard, in shard order.
    sessions: Vec<Session<'a>>,
}

impl<'a> ClusterSession<'a> {
    /// Scatters `query` to every shard and gathers the combined
    /// [`ClusterReport`].
    ///
    /// With [`ClusterConfig::pruning`] set, a shard whose zone-map
    /// table rollup proves no region can match is never dispatched at
    /// all: its slot in the gather is the synthesized exact all-zero
    /// answer ([`RunReport::skipped`]), it costs zero cycles, and the
    /// host merge only pays for shards that actually answered. The
    /// combined result is bit-identical either way — skipping is
    /// sound because the rollup covers every row of the shard.
    pub fn run(&mut self, arch: Arch, query: &Query) -> ClusterReport {
        // Scatter: the shard sessions are disjoint `&mut`s, so the
        // shard runs fan out over the cluster's worker pool. Each
        // shard's simulated clock is its own — parallelism moves host
        // wall-clock only — and the pool gathers results in shard
        // order (never arrival order), so the merge below sees exactly
        // the serial sequence and the combined report is bit-identical
        // at every worker count.
        let shards = self.sessions.iter_mut().collect();
        let outcomes: Vec<(RunReport, bool)> = self.cluster.pool.run(shards, |_, session| {
            let sys = session.system();
            let skip = sys.prune().is_some_and(|zm| !zm.table_may_match(query));
            let report = if skip {
                RunReport::skipped(
                    arch,
                    sys.config().rows,
                    sys.layout().regions(),
                    query.aggregates(),
                )
            } else {
                session.run(arch, query)
            };
            (report, skip)
        });
        let (shard_reports, skipped) = outcomes.into_iter().unzip();
        combine(self.cluster, arch, query, shard_reports, skipped)
    }

    /// The cluster's memoized profile of `(arch, query)`, measured on
    /// this session on first use; the flag is `true` when this call
    /// ran the query.
    ///
    /// The memo lock is released while the query runs, so a run that
    /// panics leaves the memo usable; two callers that miss together
    /// both run the query and keep the first insert, which equals the
    /// second.
    pub(crate) fn profile(&mut self, arch: Arch, query: &Query) -> (Arc<Profile>, bool) {
        let memo = &self.cluster.profiles;
        let key = (arch, query.clone());
        if let Some(hit) = memo.lock().expect("profile memo poisoned").get(&key) {
            return (Arc::clone(hit), false);
        }
        let measured = Arc::new(Profile::from(self.run(arch, query)));
        let mut profiles = memo.lock().expect("profile memo poisoned");
        (Arc::clone(profiles.entry(key).or_insert(measured)), true)
    }
}

/// What the service scheduler replays of one `(arch, query)`
/// scatter-gather: each shard's measured cycles, phases and skip flag,
/// and the combined answer.
#[derive(Debug)]
pub(crate) struct Profile {
    /// Measured cycles per shard, whichever replica serves it.
    pub(crate) cycles: Vec<Cycle>,
    /// Measured phase breakdown per shard (read only when tracing).
    pub(crate) phases: Vec<PhaseBreakdown>,
    /// Per shard: the zone-map rollup prunes the query entirely.
    pub(crate) skipped: Vec<bool>,
    /// The combined functional answer.
    pub(crate) answer: ScanResult,
}

impl From<ClusterReport> for Profile {
    fn from(report: ClusterReport) -> Self {
        Profile {
            cycles: report.shard_reports.iter().map(|r| r.cycles).collect(),
            phases: report.shard_reports.iter().map(|r| r.phases).collect(),
            skipped: report.skipped,
            answer: report.result,
        }
    }
}

/// Gathers shard answers into the cluster-level result. `skipped[s]`
/// marks shards the scatter path never dispatched (zone-map shard
/// skipping): their synthesized all-zero reports still concatenate
/// into the mask, but the host merge only pays for answering shards.
fn combine(
    cluster: &Cluster,
    arch: Arch,
    query: &Query,
    shard_reports: Vec<RunReport>,
    skipped: Vec<bool>,
) -> ClusterReport {
    let mut bitmask = Bitmask::zeros(cluster.rows());
    let mut matches = 0;
    let mut aggregate: i128 = 0;
    for (report, range) in shard_reports.iter().zip(&cluster.bounds) {
        debug_assert_eq!(report.result.bitmask.len(), range.len());
        for i in report.result.bitmask.iter_ones() {
            bitmask.set(range.start + i);
        }
        matches += report.result.matches;
        aggregate += report.result.aggregate.unwrap_or(0);
    }
    // The shards run concurrently (one host thread driving N cubes
    // over independent link sets), so the scan critical path is the
    // slowest shard; the host then merges the answering shards'
    // results serially (a skipped shard's answer is known to be zero
    // without a merge step — its mask range stays the reset zeros).
    let answering = skipped.iter().filter(|&&s| !s).count();
    let merge = (answering.max(1) as Cycle - 1) * MERGE_CYCLES_PER_SHARD;
    let cycles = shard_reports
        .iter()
        .map(|r| r.cycles)
        .max()
        .expect("clusters have at least one shard")
        + merge;
    ClusterReport {
        arch,
        result: ScanResult {
            bitmask,
            matches,
            aggregate: query.aggregates().then_some(aggregate),
        },
        cycles,
        skipped,
        shard_reports,
    }
}

/// Outcome of one scatter-gather query execution on a [`Cluster`].
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Architecture every shard ran on.
    pub arch: Arch,
    /// Combined functional result over the whole logical table (mask
    /// concatenation, partial-sum addition).
    pub result: ScanResult,
    /// End-to-end cycles: the slowest shard plus the host-side merge
    /// of answering shards (zero merge for a single answering shard,
    /// so a one-shard cluster reports exactly the plain [`System`]
    /// cycles).
    pub cycles: Cycle,
    /// Per shard: `true` if the scatter path skipped it because its
    /// zone-map rollup proved no region could match (its entry in
    /// [`shard_reports`](Self::shard_reports) is the synthesized
    /// [`RunReport::skipped`] zero report). All `false` without
    /// [`ClusterConfig::pruning`].
    pub skipped: Vec<bool>,
    /// The per-shard reports, in shard order.
    pub shard_reports: Vec<RunReport>,
}

impl ClusterReport {
    /// How many shards the scatter path skipped outright.
    pub fn shards_skipped(&self) -> usize {
        self.skipped.iter().filter(|&&s| s).count()
    }

    /// Fraction of tuples selected across the whole cluster.
    pub fn selectivity(&self) -> f64 {
        if self.result.bitmask.is_empty() {
            0.0
        } else {
            self.result.matches as f64 / self.result.bitmask.len() as f64
        }
    }
}

impl std::fmt::Display for ClusterReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} x{} shards: {} cyc, {} / {} tuples ({:.2} %) [shard cyc",
            self.arch,
            self.shard_reports.len(),
            self.cycles,
            self.result.matches,
            self.result.bitmask.len(),
            100.0 * self.selectivity(),
        )?;
        for (i, r) in self.shard_reports.iter().enumerate() {
            let sep = if i == 0 { ' ' } else { '/' };
            write!(f, "{sep}s{i}:{}", r.cycles)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_contiguous_split() {
        let c = Cluster::new(10, 1, 3);
        assert_eq!(c.shard_rows(0), 0..4);
        assert_eq!(c.shard_rows(1), 4..7);
        assert_eq!(c.shard_rows(2), 7..10);
        assert_eq!(c.rows(), 10);
        assert_eq!(c.shards(), 3);
    }

    #[test]
    fn shard_tables_match_the_monolithic_table() {
        use hipe_db::{Column, LineitemTable};
        let c = Cluster::new(200, 9, 3);
        let mono = LineitemTable::generate(200, 9);
        for s in 0..3 {
            let range = c.shard_rows(s);
            for col in Column::ALL {
                assert_eq!(
                    c.shard(s).table().column(col),
                    &mono.column(col)[range.clone()],
                    "shard {s} {col}"
                );
            }
        }
    }

    #[test]
    fn merge_cycles_zero_for_single_shard() {
        assert_eq!(Cluster::new(100, 1, 1).merge_cycles(), 0);
        assert_eq!(
            Cluster::new(100, 1, 4).merge_cycles(),
            3 * MERGE_CYCLES_PER_SHARD
        );
    }

    #[test]
    fn warm_session_materializes_each_shard_once() {
        let c = Cluster::new(256, 3, 2);
        let mut session = c.session();
        let q = Query::q6();
        let a = session.run(Arch::Hipe, &q);
        let b = session.run(Arch::Hipe, &q);
        assert_eq!(a.result, b.result);
        assert_eq!(c.materializations(), 2); // one per shard
        assert_eq!(c.compilations(), 2); // one per shard, cached on rerun
    }

    #[test]
    fn internally_partitioned_shards() {
        let cfg = ClusterConfig {
            partitions: 4,
            ..ClusterConfig::new(2048, 5, 2)
        };
        let c = Cluster::with_config(cfg);
        let report = c.run(Arch::Hipe, &Query::q6());
        let mono = System::new(2048, 5).run(Arch::Hipe, &Query::q6());
        assert_eq!(report.result, mono.result);
        assert_eq!(report.shard_reports[0].partitions.len(), 4);
    }

    #[test]
    fn replicas_share_one_system_per_shard() {
        use crate::{run_service, ServiceConfig};
        const SHARDS: usize = 2;
        let mix = vec![
            (Query::q6(), 1),
            (Query::quantity_below_permille(300).with_aggregate(), 1),
        ];
        let cfg = ServiceConfig::closed(Arch::Hipe, 12, mix, 4);
        let mut baseline = None;
        for replicas in 1..=3 {
            let c = Cluster::replicated(600, 11, SHARDS, replicas);
            assert_eq!(c.replicas(), replicas);
            for s in 0..SHARDS {
                for r in 0..replicas {
                    assert!(std::ptr::eq(c.replica(s, 0), c.replica(s, r)));
                }
                let out_of_range = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _ = c.replica(s, replicas);
                }))
                .expect_err("replica index R must panic");
                let msg = out_of_range
                    .downcast_ref::<String>()
                    .expect("formatted panic message");
                assert!(msg.contains("out of range"), "{msg}");
            }
            drop(c.session());
            assert_eq!(c.materializations(), SHARDS as u64, "R = {replicas}");
            let report = run_service(&c, &cfg);
            assert_eq!(report.materializations, SHARDS as u64, "R = {replicas}");
            let seen = (report.answers, report.compilations);
            match &baseline {
                None => baseline = Some(seen),
                Some(first) => assert_eq!(&seen, first, "R = {replicas}"),
            }
        }
    }

    #[test]
    fn replicated_cluster_compiles_once_per_shard_and_query() {
        // 4 shards x 2 replicas: every (arch, query) pair is lowered
        // exactly once per shard, and the shard plan caches outlive
        // the session, so a second session lowers nothing.
        let c = Cluster::replicated(1024, 7, 4, 2);
        let queries = [Query::q6(), Query::quantity_below_permille(200)];
        let archs = [Arch::Hipe, Arch::HostX86];
        for _ in 0..2 {
            let mut session = c.session();
            for &arch in &archs {
                for q in &queries {
                    assert_eq!(session.run(arch, q).result.bitmask.len(), 1024);
                }
            }
            // 4 shards x 2 archs x 2 queries = 16 lowerings.
            assert_eq!(c.compilations(), 16);
        }
        assert_eq!(c.materializations(), 8); // one per shard per session
        for plans in &c.plans {
            assert_eq!(plans.len(), 4);
        }
    }

    #[test]
    fn single_replica_config_is_the_old_cluster() {
        let a = Cluster::new(256, 3, 2);
        let b = Cluster::with_config(ClusterConfig::replicated(256, 3, 2, 1));
        assert_eq!(a.replicas(), 1);
        let ra = a.run(Arch::Hipe, &Query::q6());
        let rb = b.run(Arch::Hipe, &Query::q6());
        assert_eq!(ra.result, rb.result);
        assert_eq!(ra.cycles, rb.cycles);
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replicas_panics() {
        let _ = Cluster::replicated(64, 0, 2, 0);
    }

    #[test]
    #[should_panic(expected = "replica 2 out of range")]
    fn replica_index_out_of_range_panics() {
        let c = Cluster::replicated(64, 0, 2, 2);
        let _ = c.replica(0, 2);
    }

    #[test]
    fn skipping_cluster_matches_full_scatter_and_skips_shards() {
        // A narrow shipdate window over a clustered 4-shard cluster
        // lands in one shard's day range; the rollups of the other
        // three prove emptiness and the scatter path skips them.
        let q = Query::shipdate_window_permille(100);
        let skip = Cluster::with_config(ClusterConfig::skipping(4096, 7, 4));
        let full = Cluster::with_config(ClusterConfig {
            clustered: true,
            ..ClusterConfig::new(4096, 7, 4)
        });
        let rs = skip.run(Arch::Hipe, &q);
        let rf = full.run(Arch::Hipe, &q);
        assert_eq!(rs.result, rf.result, "skipping changed the answer");
        assert!(rs.result.matches > 0, "window should select something");
        assert!(rs.shards_skipped() >= 2, "skipped only {:?}", rs.skipped);
        assert_eq!(rf.shards_skipped(), 0);
        // Skipped shards cost nothing and are excluded from the merge.
        assert!(rs.cycles < rf.cycles);
        for (s, skipped) in rs.skipped.iter().enumerate() {
            let report = &rs.shard_reports[s];
            if *skipped {
                assert_eq!(report.cycles, 0);
                assert_eq!(report.result.matches, 0);
                assert_eq!(report.regions_scanned, 0);
                assert!(report.regions_pruned > 0);
            } else {
                assert!(report.cycles > 0);
            }
        }
    }

    #[test]
    fn unpruned_clusters_report_no_skips() {
        let c = Cluster::new(256, 3, 2);
        let r = c.run(Arch::Hipe, &Query::q6());
        assert_eq!(r.shards_skipped(), 0);
        assert_eq!(r.skipped, vec![false, false]);
    }

    #[test]
    fn display_names_shards() {
        let c = Cluster::new(128, 2, 2);
        let s = c.run(Arch::Hipe, &Query::q6()).to_string();
        assert!(s.contains("x2 shards"), "{s}");
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = Cluster::new(10, 0, 0);
    }

    #[test]
    #[should_panic(expected = "empty shards")]
    fn more_shards_than_rows_panics() {
        let _ = Cluster::new(3, 0, 4);
    }

    fn rejects(cfg: ClusterConfig) -> ClusterError {
        Cluster::try_with_config(cfg).expect_err("the configuration is invalid")
    }

    #[test]
    fn zero_shards_is_a_typed_error() {
        assert_eq!(
            rejects(ClusterConfig::new(10, 0, 0)),
            ClusterError::ZeroShards
        );
    }

    #[test]
    fn zero_replicas_is_a_typed_error() {
        let cfg = ClusterConfig::replicated(64, 0, 2, 0);
        assert_eq!(rejects(cfg), ClusterError::ZeroReplicas);
    }

    #[test]
    fn more_shards_than_rows_is_a_typed_error() {
        assert_eq!(
            rejects(ClusterConfig::new(3, 0, 4)),
            ClusterError::MoreShardsThanRows { shards: 4, rows: 3 }
        );
        // One row per shard is the smallest valid split.
        assert_eq!(ClusterConfig::new(4, 0, 4).validate(), Ok(()));
    }

    #[test]
    fn zero_workers_is_a_typed_error() {
        let cfg = ClusterConfig {
            workers: 0,
            ..ClusterConfig::new(64, 0, 2)
        };
        assert_eq!(rejects(cfg), ClusterError::ZeroWorkers);
    }

    #[test]
    fn an_invalid_shard_system_is_a_typed_error() {
        let cfg = ClusterConfig {
            partitions: 3,
            ..ClusterConfig::new(64, 0, 2)
        };
        assert_eq!(
            rejects(cfg),
            ClusterError::Shard {
                shard: 0,
                error: ConfigError::PartitionsDoNotDivide { partitions: 3 }
            }
        );
    }

    #[test]
    fn cluster_errors_name_their_cause() {
        let cases = [
            (ClusterError::ZeroShards, "at least one shard"),
            (
                ClusterError::MoreShardsThanRows { shards: 4, rows: 3 },
                "4 shards over 3 rows leaves empty shards",
            ),
            (ClusterError::ZeroReplicas, "at least one replica"),
            (ClusterError::ZeroWorkers, "at least one worker"),
            (
                ClusterError::Shard {
                    shard: 1,
                    error: ConfigError::ZeroRows,
                },
                "shard 1: a system needs at least one tuple",
            ),
        ];
        for (err, text) in cases {
            assert!(err.to_string().contains(text), "{err}");
        }
    }
}
