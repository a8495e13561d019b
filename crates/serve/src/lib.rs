//! `hipe-serve`: the sharded, replicated multi-cube query service.
//!
//! The paper evaluates its machines one query at a time on one cube;
//! this crate is the layer that multiplies a fast single cube into a
//! *service* — many cubes, many concurrent queries, measured as
//! throughput and tail latency rather than single-run cycles. Three
//! cooperating layers:
//!
//! # Sharding and replication: [`Cluster`]
//!
//! A [`Cluster`] owns N shards, each backed by one
//! [`System`](hipe::System) and served by R replicas. The logical
//! lineitem table's row space is split into contiguous, near-equal
//! ranges; every shard generates exactly the monolithic table's rows
//! for its range (`LineitemTable::generate_range` jumps the RNG stream
//! to the shard's offset), lays them out in its own cube image with
//! its own `DsmLayout`, and can itself be partitioned across
//! vault-group engines (`ClusterConfig::partitions`). Replicas are
//! servers, not copies: a copy of a shard would answer every query
//! bit- and cycle-identically, so a replica is a scheduler
//! [`Server`](hipe_sim::Server) over its shard's one cube. Queries
//! *scatter-gather*, with the [`RoutingPolicy`] picking one replica
//! per shard:
//!
//! ```text
//!            query ──► Cluster ──scatter──► shard 0 ─routing─► replica 0 │ replica 1 │ …
//!                         │      ├────────► shard 1 ─routing─► replica 0 │ replica 1 │ …
//!                         │      └────────► shard N-1 ───────► …         (rows split
//!                         ▼                                               per shard,
//!            gather: mask concatenation + partial-sum addition            one cube
//!                                                                         per shard)
//! ```
//!
//! Each shard keeps one plan cache across the sessions opened over
//! it, so the cluster compiles each distinct `(arch, query)` once per
//! shard. A single-shard cluster is the plain `System`, bit for bit
//! *and* cycle for cycle; a sharded, replicated cluster returns
//! bit-identical functional results on all four architectures
//! whatever the routing (the integration tests assert both).
//!
//! # Service scheduling: [`run_service`]
//!
//! [`run_service`] drives an open- or closed-loop query stream
//! ([`LoadModel`]) through a warm cluster with a discrete-event loop
//! built from the `hipe-sim` primitives: the front end and each
//! replica are [`Server`](hipe_sim::Server)s, admission is a
//! [`Window`](hipe_sim::Window), arrivals and the weighted query mix
//! draw from `SplitMix64`. Batching amortizes the front-end setup
//! cost; per-query service times are the deterministic modeled cycles
//! of actually executing that query on that shard. The cluster
//! memoizes those measurements per `(arch, query)`, so a long-lived
//! cluster executes each distinct mix query once per arch, and every
//! run after that — faults, routing, load and tracing included — is a
//! pure replay through the event loop. The configured
//! [`RoutingPolicy`] sends each scattered sub-query to exactly one
//! replica per shard, so R replicas serve ~R× the throughput; a
//! [`FaultPlan`] kills a replica mid-run fail-stop, and lost
//! sub-queries are detected and re-dispatched to a survivor with the
//! service answer provably unchanged. The [`ServiceReport`] carries
//! throughput (queries per gigacycle / queries per second), per-shard
//! and per-replica utilization, failover counts, the service-level
//! answers (plus a digest for CI), and nearest-rank p50/p95/p99
//! latency ([`hipe_sim::Samples`]) in modeled cycles.
//!
//! # Example
//!
//! ```
//! use hipe::Arch;
//! use hipe_db::Query;
//! use hipe_serve::{Cluster, ServiceConfig, run_service};
//!
//! let cluster = Cluster::new(2048, 7, 2);
//! let cfg = ServiceConfig::closed(Arch::Hipe, 32, vec![(Query::q6(), 1)], 4);
//! let report = run_service(&cluster, &cfg);
//! assert_eq!(report.queries, 32);
//! assert!(report.latency.p50 <= report.latency.p99);
//! ```

mod cluster;
mod fault;
mod routing;
mod service;

pub use cluster::{
    Cluster, ClusterConfig, ClusterError, ClusterReport, ClusterSession, MERGE_CYCLES_PER_SHARD,
};
pub use fault::FaultPlan;
pub use routing::RoutingPolicy;
pub use service::{
    run_service, run_service_traced, LatencySummary, LoadModel, ServiceConfig, ServiceReport,
};
