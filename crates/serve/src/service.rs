//! The service scheduler: a discrete-event loop driving a query
//! stream through a replicated [`Cluster`].
//!
//! Built from the `hipe-sim` primitives the component models already
//! use: each replica is a [`Server`] (one query resident at a time),
//! the service front end is a `Server` (admission, plan lookup and
//! scatter dispatch, amortized over a batch), and a [`Window`] caps
//! the queries in flight. Per-query service times are the *modeled
//! cycle counts* of actually executing that query on that shard.
//! A run is a profile lookup followed by a replay: each distinct
//! `(arch, query)` of a mix is executed once on every shard per
//! cluster *lifetime* — by the first run that needs it, through that
//! run's session — and the cluster memoizes the measured durations,
//! phases, skip flags and answer. Every run then replays those
//! deterministic measurements through the event loop. The session
//! opens even when every profile hits, so each run counts one session
//! per shard in [`ServiceReport::materializations`]; a session holds
//! no cube, so a run that only replays builds none. That no run leaves
//! state behind, whatever the order, is proven by the `hipe-core`
//! session tests, which is what makes both the memo and the replay
//! honest. Every replica of a shard executes on the shard's one
//! [`System`](hipe::System), so the measured duration and answer hold
//! for whichever replica serves a sub-query: routing, failover, load
//! and tracing are replay-only, and answer-preserving by
//! construction.
//!
//! Each scattered sub-query goes to exactly **one** replica of each
//! shard, chosen by the configured [`RoutingPolicy`]; a
//! [`FaultPlan`] can kill a replica mid-run, in which case its lost
//! sub-queries are detected and re-dispatched to a survivor (the
//! fail-stop model of [`crate::fault`]).

use crate::cluster::{merge_cycles, Cluster, Profile};
use crate::fault::{self, FaultPlan};
use crate::routing::{Replica, RoutingPolicy};
use hipe::Arch;
use hipe_db::scan::ScanResult;
use hipe_db::{Query, SplitMix64};
use hipe_sim::{fnv1a, Cycle, Samples, ServeOutcome, Server, Window};
use hipe_trace::{Tracer, TrackId, TrackKind, Value};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// How queries arrive at the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadModel {
    /// Open loop: arrivals are independent of completions, with
    /// exponentially distributed inter-arrival gaps of the given mean
    /// (cycles). Models internet-facing traffic; latency explodes
    /// past saturation.
    Open {
        /// Mean cycles between arrivals.
        mean_interarrival: Cycle,
    },
    /// Closed loop: `clients` concurrent issuers, each submitting its
    /// next query `think` cycles after its previous one completes.
    /// Models a fixed worker pool; throughput saturates at capacity.
    Closed {
        /// Concurrent clients.
        clients: usize,
        /// Cycles a client waits between completion and its next
        /// query.
        think: Cycle,
    },
}

/// Configuration of one service run.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Architecture every shard executes on.
    pub arch: Arch,
    /// Total queries to serve.
    pub queries: usize,
    /// Weighted query mix: each arrival draws one entry with
    /// probability proportional to its weight.
    pub mix: Vec<(Query, u32)>,
    /// Arrival process.
    pub load: LoadModel,
    /// Queries dispatched per front-end batch. The front end pays
    /// [`batch_setup`](Self::batch_setup) once per batch, so larger
    /// batches trade arrival-to-dispatch latency for throughput.
    /// Under a closed loop the effective batch is capped at the
    /// client count (a batch can never fill beyond the queries the
    /// pool can have outstanding). A whole batch enters flight at
    /// once, so `batch` must not exceed
    /// [`max_in_flight`](Self::max_in_flight).
    pub batch: usize,
    /// Admission cap on queries in flight; later arrivals wait for
    /// the oldest in-flight query to complete.
    pub max_in_flight: usize,
    /// Arrival / mix-draw RNG seed.
    pub seed: u64,
    /// Front-end cycles per batch (plan-cache lookup, admission,
    /// scatter setup) — the cost batching amortizes.
    pub batch_setup: Cycle,
    /// Front-end cycles per query within a batch.
    pub per_query_dispatch: Cycle,
    /// Replica-selection policy placed in front of the per-shard
    /// sessions.
    pub routing: RoutingPolicy,
    /// Fail-stop faults injected into the run (empty = fault-free).
    /// Validated up front: every shard must keep at least one replica
    /// that never fails.
    pub faults: Vec<FaultPlan>,
    /// Cycles between a replica going dark and the front end
    /// *detecting* it; sub-queries routed to the dark replica inside
    /// this blind spot are lost until detection fires.
    pub fault_detect: Cycle,
    /// Front-end cycles to re-dispatch one lost sub-query to a
    /// surviving replica after detection. Pure added latency on the
    /// failed-over query: re-dispatch rides the control path, not the
    /// batched data path, so it does not occupy the front-end server.
    pub redispatch_cost: Cycle,
}

impl ServiceConfig {
    /// An open-loop service run with default batching (4), admission
    /// (64 in flight), and front-end costs.
    pub fn open(
        arch: Arch,
        queries: usize,
        mix: Vec<(Query, u32)>,
        mean_interarrival: Cycle,
    ) -> Self {
        ServiceConfig {
            arch,
            queries,
            mix,
            load: LoadModel::Open { mean_interarrival },
            batch: 4,
            max_in_flight: 64,
            seed: 0x5EED_5E4E,
            batch_setup: 200,
            per_query_dispatch: 20,
            routing: RoutingPolicy::default(),
            faults: Vec::new(),
            fault_detect: 400,
            redispatch_cost: 40,
        }
    }

    /// A closed-loop service run with zero think time — the
    /// saturating load the throughput sweeps use.
    pub fn closed(arch: Arch, queries: usize, mix: Vec<(Query, u32)>, clients: usize) -> Self {
        ServiceConfig {
            load: LoadModel::Closed { clients, think: 0 },
            ..ServiceConfig::open(arch, queries, mix, 0)
        }
    }

    /// Checks that the run can be served on `cluster`: at least one
    /// query, a non-empty mix of non-zero total weight, a non-zero
    /// batch no wider than [`max_in_flight`](Self::max_in_flight), a
    /// client for a closed loop, and faults in range that leave every
    /// shard a survivor. The first violation is returned.
    ///
    /// # Example
    ///
    /// ```
    /// use hipe::Arch;
    /// use hipe_db::Query;
    /// use hipe_serve::{Cluster, ServiceConfig, ServiceError};
    ///
    /// let cluster = Cluster::new(64, 7, 1);
    /// let cfg = ServiceConfig::closed(Arch::Hipe, 8, vec![(Query::q6(), 1)], 0);
    /// assert_eq!(cfg.validate(&cluster), Err(ServiceError::ZeroClients));
    /// ```
    pub fn validate(&self, cluster: &Cluster) -> Result<(), ServiceError> {
        if self.queries == 0 {
            return Err(ServiceError::ZeroQueries);
        }
        if self.mix.is_empty() {
            return Err(ServiceError::EmptyMix);
        }
        if self.batch == 0 {
            return Err(ServiceError::ZeroBatch);
        }
        // A batch is scattered as one unit, so its members are in flight
        // together — a window smaller than the batch could never admit it.
        if self.batch > self.max_in_flight {
            return Err(ServiceError::BatchExceedsInFlight {
                batch: self.batch,
                max_in_flight: self.max_in_flight,
            });
        }
        if self.mix.iter().all(|&(_, w)| w == 0) {
            return Err(ServiceError::ZeroMixWeight);
        }
        if let LoadModel::Closed { clients: 0, .. } = self.load {
            return Err(ServiceError::ZeroClients);
        }
        fault::validate(&self.faults, cluster.shards(), cluster.replicas())
    }
}

/// Why a [`ServiceConfig`] cannot run on a cluster, as returned by
/// [`ServiceConfig::validate`] and [`try_run_service`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceError {
    /// The run serves no query.
    ZeroQueries,
    /// The mix has no query to draw.
    EmptyMix,
    /// A batch of zero queries would never dispatch.
    ZeroBatch,
    /// A batch enters flight as one unit, so it must fit the window.
    BatchExceedsInFlight {
        /// Queries per batch.
        batch: usize,
        /// The admission cap.
        max_in_flight: usize,
    },
    /// Every mix weight is zero, so no query can be drawn.
    ZeroMixWeight,
    /// A closed loop without clients issues nothing.
    ZeroClients,
    /// A fault names a shard the cluster does not have.
    FaultShardOutOfRange {
        /// Index of the fault in [`ServiceConfig::faults`].
        fault: usize,
        /// The shard it names.
        shard: usize,
        /// The cluster's shards.
        shards: usize,
    },
    /// A fault names a replica the cluster does not have.
    FaultReplicaOutOfRange {
        /// Index of the fault in [`ServiceConfig::faults`].
        fault: usize,
        /// The replica it names.
        replica: usize,
        /// The cluster's replicas per shard.
        replicas: usize,
    },
    /// Two faults kill the same replica.
    ReplicaKilledTwice {
        /// Index of the second fault in [`ServiceConfig::faults`].
        fault: usize,
        /// The shard.
        shard: usize,
        /// The replica.
        replica: usize,
    },
    /// The faults kill every replica of a shard, so its rows could not
    /// be answered.
    NoSurvivor {
        /// The shard left without a replica.
        shard: usize,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ServiceError::ZeroQueries => f.write_str("a service run needs at least one query"),
            ServiceError::EmptyMix => f.write_str("the query mix is empty"),
            ServiceError::ZeroBatch => f.write_str("batch size must be non-zero"),
            ServiceError::BatchExceedsInFlight {
                batch,
                max_in_flight,
            } => write!(f, "batch ({batch}) exceeds max_in_flight ({max_in_flight})"),
            ServiceError::ZeroMixWeight => f.write_str("the query mix has zero total weight"),
            ServiceError::ZeroClients => f.write_str("a closed loop needs at least one client"),
            ServiceError::FaultShardOutOfRange {
                fault,
                shard,
                shards,
            } => write!(
                f,
                "fault {fault}: shard {shard} out of range ({shards} shards)"
            ),
            ServiceError::FaultReplicaOutOfRange {
                fault,
                replica,
                replicas,
            } => write!(
                f,
                "fault {fault}: replica {replica} out of range ({replicas} replicas)"
            ),
            ServiceError::ReplicaKilledTwice {
                fault,
                shard,
                replica,
            } => write!(
                f,
                "fault {fault}: replica {replica} of shard {shard} killed twice"
            ),
            ServiceError::NoSurvivor { shard } => write!(
                f,
                "fault plan kills every replica of shard {shard} — no survivor to fail over to"
            ),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Latency summary of a service run, in modeled cycles.
///
/// Percentiles are nearest-rank over every served query's
/// arrival-to-completion latency ([`hipe_sim::Samples`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Median latency.
    pub p50: Cycle,
    /// 95th percentile latency.
    pub p95: Cycle,
    /// 99th percentile latency.
    pub p99: Cycle,
    /// 99.9th percentile latency.
    pub p999: Cycle,
    /// Mean latency.
    pub mean: f64,
    /// Worst latency.
    pub max: Cycle,
}

impl LatencySummary {
    /// Summarizes a sample set (zeros when empty), selecting every
    /// rank in one [`Samples::percentiles`] pass.
    fn of(samples: &mut Samples) -> LatencySummary {
        let [p50, p95, p99, p999, max] = samples
            .percentiles([50.0, 95.0, 99.0, 99.9, 100.0])
            .unwrap_or_default();
        LatencySummary {
            p50,
            p95,
            p99,
            p999,
            mean: samples.mean(),
            max,
        }
    }
}

/// What one service run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReport {
    /// Architecture the shards executed on.
    pub arch: Arch,
    /// Shards in the cluster.
    pub shards: usize,
    /// Replicas backing each shard.
    pub replicas: usize,
    /// Queries served.
    pub queries: u64,
    /// Cycle at which the last query completed.
    pub makespan: Cycle,
    /// Arrival-to-completion latency distribution.
    pub latency: LatencySummary,
    /// Scatter-to-completion latency distribution of the individual
    /// per-shard sub-queries (queueing at the chosen replica included,
    /// gather merge excluded). Each shard accumulates its own
    /// [`Samples`]; the report folds them into one distribution with
    /// [`Samples::merge`].
    pub subquery_latency: LatencySummary,
    /// Busy cycles per shard, summed over its replicas (for a
    /// single-replica cluster this is the shard cube's busy).
    pub shard_busy: Vec<Cycle>,
    /// Busy cycles per replica, `replica_busy[shard][replica]`.
    /// A replica killed by a fault accrues busy only up to its fault
    /// cycle.
    pub replica_busy: Vec<Vec<Cycle>>,
    /// Busy cycles of the front end.
    pub frontend_busy: Cycle,
    /// Cycles queries spent between their own arrival and admission.
    /// This includes the wait for their batch to fill — an early
    /// member genuinely waits from *its* arrival, not the batch's last
    /// one — of which [`batching_delay`](Self::batching_delay) is the
    /// batch-fill sub-component; `admission_stall - batching_delay`
    /// is the wait attributable purely to window occupancy.
    pub admission_stall: Cycle,
    /// Cycles queries spent waiting for their batch to fill (own
    /// arrival → batch-full), summed over queries. A sub-component of
    /// [`admission_stall`](Self::admission_stall): together with
    /// `frontend_busy` and the measured service times it reconstructs
    /// mean latency at low load (asserted by the accounting tests).
    pub batching_delay: Cycle,
    /// Replicas that went dark (fault plans that fired) within the
    /// measured run.
    pub failovers: u64,
    /// Sub-queries lost to a dark replica and re-dispatched to a
    /// survivor.
    pub redispatched: u64,
    /// Combined functional answer of each mix query, in mix order —
    /// the service-level result, computed once per shard for the
    /// cluster's lifetime (by the first run that needed it) and
    /// replayed from the cluster's memo since. Every replica of a
    /// shard executes on the shard's one cube, so no routing or
    /// failover can change it.
    pub answers: Vec<ScanResult>,
    /// Query compilations this run performed across all shards —
    /// real lowerings only. Each shard's `System` caches its plans for
    /// the cluster's lifetime ([`System::plan`](hipe::System::plan)), so
    /// the count is one per distinct mix query per *shard* on a fresh
    /// cluster, and zero for plans an earlier run already lowered —
    /// however many replicas serve the shard or queries were served.
    pub compilations: u64,
    /// Sessions this run opened ([`System::materializations`](
    /// hipe::System::materializations)): one per shard, even when every
    /// profile is memoized, because the run always opens a single
    /// session over the cluster. A session holds no cube: only a
    /// profiling run that simulates builds one, so a run whose profiles
    /// all hit allocates no output area at all.
    pub materializations: u64,
    /// Mix queries this run actually executed on the cluster, i.e.
    /// misses of the cluster's profile memo. Like
    /// [`compilations`](Self::compilations) it counts this run only:
    /// the number of distinct mix queries on a fresh cluster, and zero
    /// once every `(arch, query)` of the mix has been measured.
    pub profiled: u64,
}

impl ServiceReport {
    /// Throughput in queries per gigacycle (integer, so the bench
    /// JSON and its CI check stay float-free).
    pub fn queries_per_gigacycle(&self) -> u64 {
        self.queries * 1_000_000_000 / self.makespan.max(1)
    }

    /// Fraction of the makespan shard `s` spent executing queries,
    /// summed over its replicas (may exceed 1.0 when several replicas
    /// run concurrently; divide by [`replicas`](Self::replicas) for a
    /// per-cube average).
    ///
    /// # Panics
    ///
    /// Panics if `s` is not a valid shard index.
    pub fn utilization(&self, s: usize) -> f64 {
        assert!(
            s < self.shard_busy.len(),
            "shard {s} out of range ({} shards)",
            self.shard_busy.len()
        );
        self.shard_busy[s] as f64 / self.makespan.max(1) as f64
    }

    /// Fraction of the makespan replica `r` of shard `s` spent
    /// executing queries.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn replica_utilization(&self, s: usize, r: usize) -> f64 {
        assert!(
            s < self.replica_busy.len(),
            "shard {s} out of range ({} shards)",
            self.replica_busy.len()
        );
        assert!(
            r < self.replica_busy[s].len(),
            "replica {r} out of range (shard {s} has {} replicas)",
            self.replica_busy[s].len()
        );
        self.replica_busy[s][r] as f64 / self.makespan.max(1) as f64
    }

    /// FNV-1a digest ([`fnv1a`]) of the service-level answers (mask
    /// words, match counts, aggregates, in mix order) — a compact
    /// fingerprint for the bit-identical-failover CI check.
    pub fn answers_digest(&self) -> u64 {
        fnv1a(self.answers.iter().flat_map(|answer| {
            // A present aggregate is tagged 1 and fed as two words.
            let aggregate = answer.aggregate.map(|sum| [sum as u64, (sum >> 64) as u64]);
            let head = [answer.matches as u64, u64::from(aggregate.is_some())];
            let len = answer.bitmask.len() as u64;
            let words = answer.bitmask.words().iter().copied();
            head.into_iter()
                .chain(aggregate.into_iter().flatten())
                .chain([len])
                .chain(words)
        }))
    }

    /// The run's simulated counters as one JSON object, members in
    /// name order: `serve.queries`, `serve.makespan_cyc`,
    /// `serve.queries_per_gcyc`, the `serve.latency.*` and
    /// `serve.subquery_latency.*` percentiles and maximum,
    /// `serve.frontend_busy_cyc`, a `serve.replica_busy_cyc`
    /// `{count, sum, min, max}` summary over every replica,
    /// `serve.admission_stall_cyc`, `serve.batching_delay_cyc`,
    /// `serve.failovers`, `serve.redispatched` and
    /// `serve.answers_digest`; every other member is an integer. This
    /// is the one place a service metric's name is spelled. It leaves
    /// out the host-side counts (`compilations`, `materializations`,
    /// `profiled`), which depend on what earlier runs cached, and the
    /// mean latencies, which are not integers.
    pub fn metrics(&self) -> Value {
        let (lat, sub) = (&self.latency, &self.subquery_latency);
        let mut m: Vec<(&str, Value)> = vec![
            ("serve.queries", self.queries.into()),
            ("serve.makespan_cyc", self.makespan.into()),
            (
                "serve.queries_per_gcyc",
                self.queries_per_gigacycle().into(),
            ),
            ("serve.latency.p50_cyc", lat.p50.into()),
            ("serve.latency.p95_cyc", lat.p95.into()),
            ("serve.latency.p99_cyc", lat.p99.into()),
            ("serve.latency.p999_cyc", lat.p999.into()),
            ("serve.latency.max_cyc", lat.max.into()),
            ("serve.subquery_latency.p50_cyc", sub.p50.into()),
            ("serve.subquery_latency.p95_cyc", sub.p95.into()),
            ("serve.subquery_latency.p99_cyc", sub.p99.into()),
            ("serve.subquery_latency.p999_cyc", sub.p999.into()),
            ("serve.subquery_latency.max_cyc", sub.max.into()),
            ("serve.frontend_busy_cyc", self.frontend_busy.into()),
            (
                "serve.replica_busy_cyc",
                Value::summary(self.replica_busy.iter().flatten().copied()),
            ),
            ("serve.admission_stall_cyc", self.admission_stall.into()),
            ("serve.batching_delay_cyc", self.batching_delay.into()),
            ("serve.failovers", self.failovers.into()),
            ("serve.redispatched", self.redispatched.into()),
            ("serve.answers_digest", self.answers_digest().into()),
        ];
        m.sort_unstable_by_key(|&(name, _)| name);
        Value::object(m)
    }
}

impl std::fmt::Display for ServiceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} x{} shards x{} replicas: {} queries in {} cyc ({} q/Gcyc), \
             latency p50/p95/p99/p999 {}/{}/{}/{} cyc, util",
            self.arch,
            self.shards,
            self.replicas,
            self.queries,
            self.makespan,
            self.queries_per_gigacycle(),
            self.latency.p50,
            self.latency.p95,
            self.latency.p99,
            self.latency.p999,
        )?;
        for s in 0..self.shards {
            let sep = if s == 0 { ' ' } else { '/' };
            write!(f, "{sep}s{s}:{:.0}%", 100.0 * self.utilization(s))?;
        }
        if self.replicas > 1 {
            write!(f, ", replica util")?;
            for s in 0..self.shards {
                for r in 0..self.replicas {
                    let sep = if s == 0 && r == 0 { ' ' } else { '/' };
                    write!(
                        f,
                        "{sep}s{s}.r{r}:{:.0}%",
                        100.0 * self.replica_utilization(s, r)
                    )?;
                }
            }
        }
        if self.failovers > 0 {
            write!(
                f,
                ", {} failover(s), {} redispatched",
                self.failovers, self.redispatched
            )?;
        }
        Ok(())
    }
}

/// One query waiting in the current front-end batch.
#[derive(Debug, Clone, Copy)]
struct Pending {
    /// Who issued it (event-loop tag: client id or sequence number).
    tag: usize,
    /// Mix index of the query.
    query: usize,
    /// Arrival cycle.
    arrival: Cycle,
}

/// A served query's timing.
#[derive(Debug, Clone, Copy)]
struct Served {
    tag: usize,
    completion: Cycle,
}

/// Trace plumbing of one service run: the sink plus the tracks the
/// scheduler emits onto — admission and front-end rows, an async
/// `queries` row for overlapping arrival-to-completion lifetimes, and
/// one sync row per shard×replica server.
struct SchedTrace<'a> {
    sink: &'a mut Tracer,
    admission: TrackId,
    frontend: TrackId,
    queries: TrackId,
    /// `replica_tracks[shard][replica]`.
    replica_tracks: Vec<Vec<TrackId>>,
    /// Batches dispatched so far (names the front-end spans).
    batches: u64,
}

impl<'a> SchedTrace<'a> {
    /// Registers the run's tracks on `sink`.
    fn new(sink: &'a mut Tracer, shards: usize, replicas: usize) -> Self {
        let admission = sink.track("admission", TrackKind::Sync);
        let frontend = sink.track("front-end", TrackKind::Sync);
        let queries = sink.track("queries", TrackKind::Async);
        let replica_tracks = (0..shards)
            .map(|s| {
                (0..replicas)
                    .map(|r| sink.track(&format!("s{s}.r{r} engine"), TrackKind::Sync))
                    .collect()
            })
            .collect();
        SchedTrace {
            sink,
            admission,
            frontend,
            queries,
            replica_tracks,
            batches: 0,
        }
    }
}

/// The event-loop state: front end, replica servers, admission window.
struct Scheduler<'a> {
    cfg: &'a ServiceConfig,
    /// The measured profile of each mix query, in mix order. Where
    /// `profiles[q].skipped[s]` is set, shard `s`'s zone-map rollup
    /// prunes mix query `q` entirely — the scheduler never scatters
    /// that sub-query (no replica occupancy, no merge share).
    profiles: &'a [Arc<Profile>],
    frontend: Server,
    replicas: Vec<Vec<Replica>>,
    /// Round-robin cursor of each shard.
    cursors: Vec<usize>,
    window: Window,
    batch: Vec<Pending>,
    batch_cap: usize,
    latencies: Samples,
    /// Scatter-to-completion sub-query latencies, one sample set per
    /// shard (merged into the report's
    /// [`subquery_latency`](ServiceReport::subquery_latency)).
    shard_latencies: Vec<Samples>,
    makespan: Cycle,
    batching_delay: Cycle,
    redispatched: u64,
    /// Scratch arrival buffer for group admission.
    arrivals: Vec<Cycle>,
    /// Trace emission state (`None` = tracing off, the zero-cost
    /// default).
    trace: Option<SchedTrace<'a>>,
}

impl<'a> Scheduler<'a> {
    fn new(
        cfg: &'a ServiceConfig,
        profiles: &'a [Arc<Profile>],
        cluster: &Cluster,
        trace: Option<SchedTrace<'a>>,
    ) -> Self {
        // A closed loop can never fill a batch beyond its client pool;
        // capping avoids waiting for arrivals that cannot happen.
        let batch_cap = match cfg.load {
            LoadModel::Open { .. } => cfg.batch,
            LoadModel::Closed { clients, .. } => cfg.batch.min(clients),
        };
        let replicas = (0..cluster.shards())
            .map(|s| {
                (0..cluster.replicas())
                    .map(|r| {
                        let fault = cfg
                            .faults
                            .iter()
                            .find(|f| f.shard == s && f.replica == r)
                            .map(|f| f.at_cycle);
                        Replica::new(fault)
                    })
                    .collect()
            })
            .collect();
        Scheduler {
            cfg,
            profiles,
            frontend: Server::new(),
            replicas,
            cursors: vec![0; cluster.shards()],
            window: Window::new(cfg.max_in_flight),
            batch: Vec::with_capacity(batch_cap),
            batch_cap,
            latencies: Samples::new(),
            shard_latencies: vec![Samples::new(); cluster.shards()],
            makespan: 0,
            batching_delay: 0,
            redispatched: 0,
            arrivals: Vec::with_capacity(batch_cap),
            trace,
        }
    }

    /// Offers one arrival; returns the batch's completions when this
    /// arrival fills it.
    fn offer(&mut self, tag: usize, query: usize, arrival: Cycle) -> Vec<Served> {
        self.batch.push(Pending {
            tag,
            query,
            arrival,
        });
        if let Some(t) = &mut self.trace {
            t.sink.instant(
                t.admission,
                "arrival",
                arrival,
                vec![("tag", tag.into()), ("mix", query.into())],
            );
            t.sink
                .counter(t.admission, "batch_fill", arrival, self.batch.len() as u64);
        }
        if self.batch.len() >= self.batch_cap {
            self.dispatch()
        } else {
            Vec::new()
        }
    }

    /// Dispatches whatever the current batch holds (possibly short,
    /// at end of stream).
    fn dispatch(&mut self) -> Vec<Served> {
        if self.batch.is_empty() {
            return Vec::new();
        }
        // The batch leaves the front end once its last member has
        // arrived and the window holds a free slot for *every*
        // member — the batch enters flight as one unit, each member
        // consuming its own slot (batch <= max_in_flight is asserted
        // up front, so the group always fits). Every member is
        // charged admission stall from its *own* arrival; the
        // batch-fill share of that wait is also tallied separately as
        // batching delay.
        let arrived = self
            .batch
            .iter()
            .map(|p| p.arrival)
            .max()
            .expect("dispatch requires a non-empty batch");
        self.arrivals.clear();
        for p in &self.batch {
            self.arrivals.push(p.arrival);
            self.batching_delay += arrived - p.arrival;
        }
        let ready = self.window.admit_group(&self.arrivals);
        let cost = self.cfg.batch_setup + self.cfg.per_query_dispatch * self.batch.len() as Cycle;
        let (setup, scattered) = self.frontend.serve(ready, cost);
        if let Some(t) = &mut self.trace {
            t.sink.instant(
                t.admission,
                "admit",
                ready,
                vec![("queries", self.batch.len().into())],
            );
            t.sink.span_on(
                t.frontend,
                &format!("batch {}", t.batches),
                setup,
                scattered,
                vec![
                    ("queries", self.batch.len().into()),
                    ("setup_cyc", cost.into()),
                ],
            );
            t.batches += 1;
        }
        // Scatter each member to exactly one replica of every shard
        // the query can touch (the routing policy picks which one); a
        // replica serves one sub-query at a time, so members queue per
        // replica in batch order. Shards the profile proved
        // zone-map-skippable for this query are never scattered to —
        // they add no occupancy and no merge share. A query every
        // shard skips completes at the front end with zero merge.
        let mut served = Vec::with_capacity(self.batch.len());
        let profiles = self.profiles;
        for p in std::mem::take(&mut self.batch) {
            let skipped = &profiles[p.query].skipped;
            let answering = skipped.iter().filter(|&&s| !s).count();
            let merge = merge_cycles(answering);
            let slowest = (0..skipped.len())
                .filter(|&s| !skipped[s])
                .map(|s| self.route_and_serve(p.tag, p.query, s, scattered))
                .max()
                .unwrap_or(scattered);
            let completion = slowest + merge;
            self.window.complete(completion);
            self.latencies.push(completion - p.arrival);
            self.makespan = self.makespan.max(completion);
            if let Some(t) = &mut self.trace {
                if merge > 0 {
                    t.sink.instant(
                        t.queries,
                        "gather",
                        slowest,
                        vec![("tag", p.tag.into()), ("merge_cyc", merge.into())],
                    );
                }
                t.sink.span_on(
                    t.queries,
                    &format!("q{}", p.query),
                    p.arrival,
                    completion,
                    vec![
                        ("tag", p.tag.into()),
                        ("mix", p.query.into()),
                        ("shards", answering.into()),
                    ],
                );
            }
            served.push(Served {
                tag: p.tag,
                completion,
            });
        }
        served
    }

    /// Routes one sub-query to a replica of `shard` at dispatch cycle
    /// `at` and serves it there, failing over to a survivor if the
    /// chosen replica is (or goes) dark; returns the sub-query's
    /// completion cycle.
    fn route_and_serve(&mut self, tag: usize, query: usize, shard: usize, mut at: Cycle) -> Cycle {
        let dispatched = at;
        let duration = self.profiles[query].cycles[shard];
        loop {
            let replicas = &mut self.replicas[shard];
            for replica in replicas.iter_mut() {
                replica.retire(at);
            }
            let r = self.cfg.routing.pick(
                shard,
                replicas,
                &mut self.cursors[shard],
                at,
                self.cfg.fault_detect,
                duration,
            );
            let replica = &mut replicas[r];
            let served = match replica.fail_at {
                None => Some(replica.server.serve(at, duration)),
                Some(fail) => match replica.server.serve_until(at, duration, fail) {
                    ServeOutcome::Done { start, end } => Some((start, end)),
                    // The replica died with this sub-query queued or
                    // in service: the front end notices at
                    // `fail + fault_detect` and re-dispatches to a
                    // survivor. The retry lands past the detection
                    // horizon, so the dead replica is no longer a
                    // candidate and the loop terminates (every shard
                    // keeps a never-failing replica, validated up
                    // front).
                    ServeOutcome::Cut { .. } | ServeOutcome::Refused => None,
                },
            };
            match served {
                Some((start, end)) => {
                    replica.hold(end);
                    self.shard_latencies[shard].push(end - dispatched);
                    if let Some(t) = &mut self.trace {
                        let track = t.replica_tracks[shard][r];
                        t.sink.span_on(
                            track,
                            &format!("q{query}"),
                            start,
                            end,
                            vec![("tag", tag.into()), ("queued_cyc", (start - at).into())],
                        );
                        // The measured phases nest inside the replica's
                        // occupancy, which begins at `start`.
                        self.profiles[query].phases[shard].trace_into(
                            t.sink,
                            track,
                            start,
                            Vec::new(),
                        );
                    }
                    return end;
                }
                None => {
                    let fail = replica
                        .fail_at
                        .expect("only a fault plan can cut a sub-query");
                    self.redispatched += 1;
                    at = fail + self.cfg.fault_detect + self.cfg.redispatch_cost;
                    if let Some(t) = &mut self.trace {
                        t.sink.instant(
                            t.frontend,
                            "redispatch",
                            at,
                            vec![
                                ("tag", tag.into()),
                                ("mix", query.into()),
                                ("shard", shard.into()),
                                ("replica", r.into()),
                            ],
                        );
                    }
                }
            }
        }
    }
}

/// Runs a query stream through a warm cluster and reports throughput,
/// utilization and tail latency.
///
/// The service opens one [`ClusterSession`](crate::ClusterSession)
/// (one session per shard) and looks up each mix query's
/// profile — its functional answer and deterministic per-shard
/// durations — in the cluster's memo. A query the cluster has not
/// yet measured on this arch is executed once on every shard through
/// that session and memoized, so each distinct `(arch, query)` runs
/// once per cluster lifetime ([`ServiceReport::profiled`] counts this
/// run's misses). The service then drives the configured arrival
/// process through the discrete-event scheduler, replaying the
/// profiles, routing each scattered sub-query to one replica per
/// shard and failing over around any injected fault.
///
/// # Panics
///
/// Panics, with the error's message, if [`ServiceConfig::validate`]
/// rejects the config; [`try_run_service`] returns the error instead.
/// Every check runs before the cluster session opens, so a rejected
/// config simulates nothing.
pub fn run_service(cluster: &Cluster, cfg: &ServiceConfig) -> ServiceReport {
    run_service_traced(cluster, cfg, None)
}

/// [`run_service`] with an optional trace sink.
///
/// When a sink is given the run emits its full query lifecycle in the
/// simulated-cycle domain: `arrival`/`admit` instants and a
/// `batch_fill` counter on the admission track, batch spans and
/// `redispatch` instants on the front-end track, one async span per
/// query (arrival to completion, with a `gather` instant at the merge
/// point), nested dispatch/scan/gather execute spans on one track per
/// shard×replica server, and `fault.kill` / `fault.detect` instants on
/// the dying replica's track.
///
/// Tracing is observational by construction: the scheduler replays
/// memoized measurements and emission only *reads* event-loop state,
/// so every reported number — makespan, latencies, digests — is
/// bit-identical to the untraced run (asserted by the workspace's
/// trace determinism tests).
///
/// # Panics
///
/// Panics as [`run_service`] does.
pub fn run_service_traced(
    cluster: &Cluster,
    cfg: &ServiceConfig,
    trace: Option<&mut Tracer>,
) -> ServiceReport {
    try_run_service(cluster, cfg, trace).unwrap_or_else(|e| panic!("{e}"))
}

/// [`run_service_traced`], returning a config that
/// [`ServiceConfig::validate`] rejects as its error instead of
/// panicking. Nothing is simulated for a rejected config.
///
/// # Example
///
/// ```
/// use hipe::Arch;
/// use hipe_db::Query;
/// use hipe_serve::{try_run_service, Cluster, FaultPlan, ServiceConfig, ServiceError};
///
/// let cluster = Cluster::new(64, 7, 2);
/// let cfg = ServiceConfig {
///     faults: vec![FaultPlan::new(0, 0, 100)],
///     ..ServiceConfig::closed(Arch::Hipe, 8, vec![(Query::q6(), 1)], 2)
/// };
/// let err = try_run_service(&cluster, &cfg, None).unwrap_err();
/// assert_eq!(err, ServiceError::NoSurvivor { shard: 0 });
/// ```
pub fn try_run_service(
    cluster: &Cluster,
    cfg: &ServiceConfig,
    trace: Option<&mut Tracer>,
) -> Result<ServiceReport, ServiceError> {
    cfg.validate(cluster)?;
    let total_weight: u64 = cfg.mix.iter().map(|&(_, w)| w as u64).sum();

    // Counter snapshots, so the report covers this run alone — a
    // long-lived cluster hosts many runs, and its lifetime totals
    // would misattribute earlier runs' work to this one.
    let compilations_before = cluster.compilations();
    let materializations_before = cluster.materializations();

    // Profiles: one execution of each distinct mix query on every
    // shard per cluster lifetime, memoized by the cluster. Each shard
    // `System`'s plan cache makes a miss compile-once; determinism (no
    // run leaves state behind, whatever the order) makes replaying a
    // memoized measurement in the event loop exact. Every replica of a shard executes on the
    // shard's one `System`, so the measured duration and answer hold
    // for whichever replica the routing picks — and for the survivor a
    // failover re-picks. The session opens even when every profile
    // hits, so a run always counts one session per shard; a cube is
    // built only for a miss that simulates.
    let mut session = cluster.session();
    let mut profiled = 0;
    let profiles: Vec<Arc<Profile>> = cfg
        .mix
        .iter()
        .map(|(query, _)| {
            let (profile, missed) = session.profile(cfg.arch, query);
            profiled += u64::from(missed);
            profile
        })
        .collect();

    let mut rng = SplitMix64::new(cfg.seed);
    let mut draw_query = move || {
        let mut ticket = rng.below(total_weight);
        for (i, &(_, w)) in cfg.mix.iter().enumerate() {
            if ticket < w as u64 {
                return i;
            }
            ticket -= w as u64;
        }
        unreachable!("ticket below total weight");
    };
    // Arrival gaps draw from an independent stream so changing the
    // mix does not perturb the arrival schedule (and vice versa).
    let mut arrival_rng = SplitMix64::new(cfg.seed ^ 0xA441_7A15);

    let sched_trace = trace.map(|sink| SchedTrace::new(sink, cluster.shards(), cluster.replicas()));
    let mut sched = Scheduler::new(cfg, &profiles, cluster, sched_trace);
    match cfg.load {
        LoadModel::Open { mean_interarrival } => {
            let mut now = 0;
            for tag in 0..cfg.queries {
                now += exponential(&mut arrival_rng, mean_interarrival);
                let _ = sched.offer(tag, draw_query(), now);
            }
            let _ = sched.dispatch();
        }
        LoadModel::Closed { clients, think } => {
            // Min-heap of (next issue time, client); staggered epsilon
            // starts keep the order deterministic.
            let mut idle: BinaryHeap<Reverse<(Cycle, usize)>> =
                (0..clients).map(|c| Reverse((c as Cycle, c))).collect();
            let mut issued = 0;
            while issued < cfg.queries {
                // Every client is either idle or parked in the batch,
                // and the batch dispatches (re-queueing its members)
                // the moment it holds batch_cap <= clients of them —
                // so the pool can never be entirely parked.
                let Reverse((now, client)) = idle
                    .pop()
                    .expect("batch_cap <= clients keeps at least one client idle");
                issued += 1;
                for s in sched.offer(client, draw_query(), now) {
                    idle.push(Reverse((s.completion + think, s.tag)));
                }
            }
            let _ = sched.dispatch();
        }
    }

    // Faults that fired within the measured run: mark the kill and
    // the front end's detection on the dead replica's track.
    if let Some(t) = &mut sched.trace {
        for f in cfg.faults.iter().filter(|f| f.at_cycle < sched.makespan) {
            let track = t.replica_tracks[f.shard][f.replica];
            t.sink.instant(track, "fault.kill", f.at_cycle, Vec::new());
            t.sink.instant(
                track,
                "fault.detect",
                f.at_cycle + cfg.fault_detect,
                Vec::new(),
            );
        }
    }

    let latency = LatencySummary::of(&mut sched.latencies);
    let subquery_latency = {
        let mut merged = Samples::new();
        for shard in &sched.shard_latencies {
            merged.merge(shard);
        }
        LatencySummary::of(&mut merged)
    };
    let replica_busy: Vec<Vec<Cycle>> = sched
        .replicas
        .iter()
        .map(|shard| shard.iter().map(|r| r.server.busy_cycles()).collect())
        .collect();
    Ok(ServiceReport {
        arch: cfg.arch,
        shards: cluster.shards(),
        replicas: cluster.replicas(),
        queries: sched.latencies.count(),
        makespan: sched.makespan,
        latency,
        subquery_latency,
        shard_busy: replica_busy.iter().map(|s| s.iter().sum()).collect(),
        replica_busy,
        frontend_busy: sched.frontend.busy_cycles(),
        admission_stall: sched.window.stall_cycles(),
        batching_delay: sched.batching_delay,
        failovers: cfg
            .faults
            .iter()
            .filter(|f| f.at_cycle < sched.makespan)
            .count() as u64,
        redispatched: sched.redispatched,
        answers: profiles.iter().map(|p| p.answer.clone()).collect(),
        compilations: cluster.compilations() - compilations_before,
        materializations: cluster.materializations() - materializations_before,
        profiled,
    })
}

/// A rounded exponential draw with the given mean (zero mean pins the
/// gap to zero — the back-to-back arrival extreme).
fn exponential(rng: &mut SplitMix64, mean: Cycle) -> Cycle {
    if mean == 0 {
        return 0;
    }
    // u uniform in (0, 1]: 53 mantissa bits, never exactly zero.
    let u = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
    (-u.ln() * mean as f64).round() as Cycle
}
