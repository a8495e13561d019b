//! Replica routing: the policy object in front of each shard's
//! servers.
//!
//! A query scattered to a shard must be served by exactly **one** of
//! the shard's replicas. Replicas are servers over the shard's one
//! cube, so any choice is answer-preserving and takes the same
//! measured duration; only the queueing differs. *Which* replica is a
//! pure policy decision, factored out behind the [`Router`] trait: the
//! service scheduler builds a [`RouteCtx`] snapshot of the candidate
//! replicas' state at dispatch time — liveness, backlog, outstanding
//! queries — plus the sub-query's measured duration, and the router
//! picks an index. Three stock policies cover the classic trade-offs:
//!
//! * [`RoundRobin`] — cyclic, state-oblivious; perfect spread under a
//!   uniform mix.
//! * [`LeastOutstanding`] — joins the replica with the fewest
//!   in-flight sub-queries (ties broken toward the earlier-free one);
//!   the classic "join the shortest queue" heuristic.
//! * [`FastestReplica`] — latency-aware: picks the replica whose
//!   *predicted completion* (backlog end plus this query's measured
//!   duration) is earliest.
//!
//! Routers must return a replica the context marks alive; the
//! scheduler asserts it. A replica that went dark stays routable until
//! the front end *detects* the failure (`ServiceConfig::fault_detect`
//! cycles after the fault) — sub-queries sent into that blind spot are
//! what the failover path re-dispatches.

use hipe_sim::Cycle;

/// Snapshot of one shard's replica state offered to a [`Router`] at
/// dispatch time. All slices are indexed by replica; they share one
/// length (the shard's replica count). The sub-query's duration is
/// one number: every replica executes it on the shard's one cube.
#[derive(Debug, Clone, Copy)]
pub struct RouteCtx<'a> {
    /// Dispatch cycle of the sub-query being routed.
    pub now: Cycle,
    /// Mix index of the query being routed.
    pub query: usize,
    /// Whether each replica is believed alive (dark replicas stay
    /// `true` until the front end detects the failure).
    pub alive: &'a [bool],
    /// Cycle at which each replica's cube frees up (its backlog end).
    pub next_free: &'a [Cycle],
    /// Sub-queries dispatched to each replica and not yet complete at
    /// [`now`](Self::now).
    pub outstanding: &'a [u32],
    /// Measured cycles this query needs on this shard (from the
    /// service's memoized profile), whichever replica serves it.
    pub duration: Cycle,
}

impl RouteCtx<'_> {
    /// Number of replicas backing the shard.
    pub fn replicas(&self) -> usize {
        self.alive.len()
    }

    /// Indices of the replicas believed alive.
    pub fn alive_replicas(&self) -> impl Iterator<Item = usize> + '_ {
        self.alive
            .iter()
            .enumerate()
            .filter_map(|(r, &a)| a.then_some(r))
    }

    /// The replica's predicted completion were this sub-query sent to
    /// it now: its backlog end (or `now` if idle) plus the query's
    /// measured duration.
    pub fn predicted_completion(&self, r: usize) -> Cycle {
        self.now.max(self.next_free[r]) + self.duration
    }
}

/// A replica-selection policy. One router instance lives for a whole
/// service run, so policies may keep state (e.g. round-robin
/// cursors).
pub trait Router: std::fmt::Debug {
    /// Picks the replica of `shard` to serve the sub-query described
    /// by `ctx`. Must return an index `ctx.alive` marks `true`; the
    /// scheduler asserts it (and guarantees at least one alive
    /// candidate).
    fn pick(&mut self, shard: usize, ctx: &RouteCtx<'_>) -> usize;
}

/// Cyclic assignment: shard-local cursors advance one replica per
/// sub-query, skipping replicas known dead.
#[derive(Debug, Default)]
pub struct RoundRobin {
    next: Vec<usize>,
}

impl RoundRobin {
    /// A router with all cursors at replica 0.
    pub fn new() -> Self {
        RoundRobin::default()
    }
}

impl Router for RoundRobin {
    fn pick(&mut self, shard: usize, ctx: &RouteCtx<'_>) -> usize {
        if self.next.len() <= shard {
            self.next.resize(shard + 1, 0);
        }
        let n = ctx.replicas();
        let cursor = self.next[shard];
        for i in 0..n {
            let r = (cursor + i) % n;
            if ctx.alive[r] {
                self.next[shard] = (r + 1) % n;
                return r;
            }
        }
        panic!("no live replica offered for shard {shard}")
    }
}

/// Join-the-shortest-queue: the alive replica with the fewest
/// outstanding sub-queries, ties broken toward the one that frees
/// earliest, then the lowest index (deterministic).
#[derive(Debug, Default)]
pub struct LeastOutstanding;

impl LeastOutstanding {
    /// A stateless join-the-shortest-queue router.
    pub fn new() -> Self {
        LeastOutstanding
    }
}

impl Router for LeastOutstanding {
    fn pick(&mut self, shard: usize, ctx: &RouteCtx<'_>) -> usize {
        ctx.alive_replicas()
            .min_by_key(|&r| (ctx.outstanding[r], ctx.next_free[r], r))
            .unwrap_or_else(|| panic!("no live replica offered for shard {shard}"))
    }
}

/// Latency-aware: the alive replica with the earliest *predicted
/// completion* for this query — backlog end plus the query's measured
/// duration — ties broken toward the lowest index. The duration is
/// the same on every replica of a shard, so this is earliest-free:
/// unlike [`LeastOutstanding`] it weighs a queue by when it drains,
/// not by how many sub-queries it holds.
#[derive(Debug, Default)]
pub struct FastestReplica;

impl FastestReplica {
    /// A stateless predicted-completion router.
    pub fn new() -> Self {
        FastestReplica
    }
}

impl Router for FastestReplica {
    fn pick(&mut self, shard: usize, ctx: &RouteCtx<'_>) -> usize {
        ctx.alive_replicas()
            .min_by_key(|&r| (ctx.predicted_completion(r), r))
            .unwrap_or_else(|| panic!("no live replica offered for shard {shard}"))
    }
}

/// The stock policies, as a plain value for [`ServiceConfig`]
/// (`Router` implementations themselves may be stateful, so the config
/// carries the *name* and each run builds a fresh instance).
///
/// [`ServiceConfig`]: crate::ServiceConfig
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingPolicy {
    /// [`RoundRobin`].
    RoundRobin,
    /// [`LeastOutstanding`] (the default).
    #[default]
    LeastOutstanding,
    /// [`FastestReplica`].
    FastestReplica,
}

impl RoutingPolicy {
    /// Builds a fresh router implementing this policy.
    pub fn router(&self) -> Box<dyn Router> {
        match self {
            RoutingPolicy::RoundRobin => Box::new(RoundRobin::new()),
            RoutingPolicy::LeastOutstanding => Box::new(LeastOutstanding::new()),
            RoutingPolicy::FastestReplica => Box::new(FastestReplica::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(
        alive: &'a [bool],
        next_free: &'a [Cycle],
        outstanding: &'a [u32],
        duration: Cycle,
        now: Cycle,
    ) -> RouteCtx<'a> {
        RouteCtx {
            now,
            query: 0,
            alive,
            next_free,
            outstanding,
            duration,
        }
    }

    #[test]
    fn round_robin_cycles_and_skips_the_dead() {
        let mut rr = RoundRobin::new();
        let alive = [true, true, true];
        let c = ctx(&alive, &[0; 3], &[0; 3], 10, 0);
        assert_eq!(rr.pick(0, &c), 0);
        assert_eq!(rr.pick(0, &c), 1);
        assert_eq!(rr.pick(0, &c), 2);
        assert_eq!(rr.pick(0, &c), 0);
        // Shards keep independent cursors.
        assert_eq!(rr.pick(1, &c), 0);
        // A detected-dead replica is skipped without stalling the
        // cursor's rotation.
        let alive = [true, false, true];
        let c = ctx(&alive, &[0; 3], &[0; 3], 10, 0);
        assert_eq!(rr.pick(0, &c), 2);
        assert_eq!(rr.pick(0, &c), 0);
        assert_eq!(rr.pick(0, &c), 2);
    }

    #[test]
    fn least_outstanding_joins_the_shortest_queue() {
        let mut lo = LeastOutstanding::new();
        let alive = [true, true, true];
        let c = ctx(&alive, &[500, 100, 300], &[2, 1, 1], 10, 0);
        // Replicas 1 and 2 tie on outstanding; 1 frees earlier.
        assert_eq!(lo.pick(0, &c), 1);
        // The busiest replica is never picked while a shorter queue is
        // alive.
        let alive = [true, false, true];
        let c = ctx(&alive, &[500, 100, 300], &[2, 0, 1], 10, 0);
        assert_eq!(lo.pick(0, &c), 2);
    }

    #[test]
    fn fastest_replica_minimizes_predicted_completion() {
        let mut fr = FastestReplica::new();
        let alive = [true, true];
        // Replica 0 holds one sub-query until 400; replica 1 holds
        // three that drain by 200: predicted completions are 500 vs
        // 300, where the shortest queue would pick replica 0.
        let c = ctx(&alive, &[400, 200], &[1, 3], 100, 0);
        assert_eq!(fr.pick(0, &c), 1);
        assert_eq!(LeastOutstanding::new().pick(0, &c), 0);
        assert_eq!(c.predicted_completion(1), 300);
        // Both idle by `now`: a tie, broken toward the lowest index.
        let c = ctx(&alive, &[400, 200], &[0, 0], 100, 1000);
        assert_eq!(fr.pick(0, &c), 0);
        assert_eq!(c.predicted_completion(1), 1100);
    }

    #[test]
    fn policy_builds_matching_routers() {
        let alive = [true, true];
        let c = ctx(&alive, &[100, 0], &[1, 0], 10, 0);
        assert_eq!(RoutingPolicy::default(), RoutingPolicy::LeastOutstanding);
        assert_eq!(RoutingPolicy::RoundRobin.router().pick(0, &c), 0);
        assert_eq!(RoutingPolicy::LeastOutstanding.router().pick(0, &c), 1);
        assert_eq!(RoutingPolicy::FastestReplica.router().pick(0, &c), 1);
    }

    #[test]
    #[should_panic(expected = "no live replica")]
    fn all_dead_candidates_panic() {
        let alive = [false, false];
        let c = ctx(&alive, &[0, 0], &[0, 0], 10, 0);
        let _ = LeastOutstanding::new().pick(3, &c);
    }
}
