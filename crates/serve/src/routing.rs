//! Replica routing: the policy in front of each shard's servers.
//!
//! A query scattered to a shard must be served by exactly **one** of
//! the shard's replicas. Replicas are servers over the shard's one
//! cube, so any choice is answer-preserving and takes the same
//! measured duration; only the queueing differs. *Which* replica is a
//! pure policy decision: at dispatch time the service scheduler asks
//! its [`RoutingPolicy`] to pick one from the shard's replica state —
//! liveness, backlog, outstanding sub-queries — and the sub-query's
//! measured duration. Three stock policies cover the classic
//! trade-offs:
//!
//! * [`RoutingPolicy::RoundRobin`] — cyclic, state-oblivious; perfect
//!   spread under a uniform mix.
//! * [`RoutingPolicy::LeastOutstanding`] — joins the replica with the
//!   fewest in-flight sub-queries (ties broken toward the earlier-free
//!   one); the classic "join the shortest queue" heuristic.
//! * [`RoutingPolicy::FastestReplica`] — latency-aware: picks the
//!   replica whose *predicted completion* (backlog end plus this
//!   query's measured duration) is earliest.
//!
//! A policy only ever picks a replica the front end believes alive. A
//! replica that went dark stays routable until the front end
//! *detects* the failure (`ServiceConfig::fault_detect` cycles after
//! the fault) — sub-queries sent into that blind spot are what the
//! failover path re-dispatches.

use hipe_sim::{Cycle, Server};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The replica-selection policies, as a plain value for
/// [`ServiceConfig`](crate::ServiceConfig). A service run keeps one
/// round-robin cursor per shard; the other two policies are
/// stateless.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingPolicy {
    /// Cyclic assignment: shard-local cursors advance one replica per
    /// sub-query, skipping replicas known dead.
    RoundRobin,
    /// Join-the-shortest-queue (the default): the alive replica with
    /// the fewest outstanding sub-queries, ties broken toward the one
    /// that frees earliest, then the lowest index (deterministic).
    #[default]
    LeastOutstanding,
    /// Latency-aware: the alive replica with the earliest *predicted
    /// completion* for this query — backlog end plus the query's
    /// measured duration — ties broken toward the lowest index. The
    /// duration is the same on every replica of a shard, so this is
    /// earliest-free: unlike `LeastOutstanding` it weighs a queue by
    /// when it drains, not by how many sub-queries it holds.
    FastestReplica,
}

impl RoutingPolicy {
    /// Picks the replica of `shard` to serve a sub-query dispatched
    /// at `now` that runs `duration` cycles, among the `replicas` the
    /// front end believes alive (`detect` cycles of blind spot after
    /// a fault). `cursor` is the shard's round-robin cursor.
    ///
    /// # Panics
    ///
    /// Panics if no replica is believed alive (the scheduler's fault
    /// validation keeps a never-failing replica in every shard).
    pub(crate) fn pick(
        self,
        shard: usize,
        replicas: &[Replica],
        cursor: &mut usize,
        now: Cycle,
        detect: Cycle,
        duration: Cycle,
    ) -> usize {
        let n = replicas.len();
        let alive = |r: &usize| replicas[*r].believed_alive(now, detect);
        let picked = match self {
            RoutingPolicy::RoundRobin => {
                let r = (0..n).map(|i| (*cursor + i) % n).find(alive);
                if let Some(r) = r {
                    *cursor = (r + 1) % n;
                }
                r
            }
            RoutingPolicy::LeastOutstanding => (0..n).filter(alive).min_by_key(|&r| {
                let replica = &replicas[r];
                (replica.inflight.len(), replica.server.next_free(), r)
            }),
            RoutingPolicy::FastestReplica => (0..n)
                .filter(alive)
                .min_by_key(|&r| (replicas[r].predicted_completion(now, duration), r)),
        };
        picked.unwrap_or_else(|| panic!("no live replica offered for shard {shard}"))
    }
}

/// One replica in the service event loop: its server, its (optional)
/// fail-stop cycle, and the completions of sub-queries still in
/// flight on it (the outstanding counts routing reads).
#[derive(Debug)]
pub(crate) struct Replica {
    pub(crate) server: Server,
    pub(crate) fail_at: Option<Cycle>,
    inflight: BinaryHeap<Reverse<Cycle>>,
}

impl Replica {
    pub(crate) fn new(fail_at: Option<Cycle>) -> Self {
        Replica {
            server: Server::new(),
            fail_at,
            inflight: BinaryHeap::new(),
        }
    }

    /// Whether the front end believes this replica alive at `now`: a
    /// dark replica stays routable until detection fires, `detect`
    /// cycles after the fault.
    fn believed_alive(&self, now: Cycle, detect: Cycle) -> bool {
        self.fail_at.is_none_or(|f| now < f + detect)
    }

    /// The replica's completion of a `duration`-cycle sub-query sent
    /// to it at `now`: its backlog end (or `now` if idle) plus the
    /// duration.
    fn predicted_completion(&self, now: Cycle, duration: Cycle) -> Cycle {
        now.max(self.server.next_free()) + duration
    }

    /// Records a sub-query in flight on this replica until `end`.
    pub(crate) fn hold(&mut self, end: Cycle) {
        self.inflight.push(Reverse(end));
    }

    /// Forgets the sub-queries complete by `now`.
    pub(crate) fn retire(&mut self, now: Cycle) {
        while self
            .inflight
            .peek()
            .is_some_and(|&Reverse(done)| done <= now)
        {
            self.inflight.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One shard's replicas in a given state: alive or detected dead,
    /// busy until `next_free`, holding `outstanding` sub-queries.
    fn shard(alive: &[bool], next_free: &[Cycle], outstanding: &[u32]) -> Vec<Replica> {
        (0..alive.len())
            .map(|r| {
                let mut replica = Replica::new((!alive[r]).then_some(0));
                replica.server.serve(0, next_free[r]);
                for _ in 0..outstanding[r] {
                    replica.hold(Cycle::MAX);
                }
                replica
            })
            .collect()
    }

    /// Picks with no detection blind spot: a replica marked dead is
    /// known dead at every cycle.
    fn pick(
        policy: RoutingPolicy,
        replicas: &[Replica],
        cursor: &mut usize,
        duration: Cycle,
        now: Cycle,
    ) -> usize {
        policy.pick(0, replicas, cursor, now, 0, duration)
    }

    #[test]
    fn round_robin_cycles_and_skips_the_dead() {
        let rr = RoutingPolicy::RoundRobin;
        let mut cursor = 0;
        let c = shard(&[true, true, true], &[0; 3], &[0; 3]);
        assert_eq!(pick(rr, &c, &mut cursor, 10, 0), 0);
        assert_eq!(pick(rr, &c, &mut cursor, 10, 0), 1);
        assert_eq!(pick(rr, &c, &mut cursor, 10, 0), 2);
        assert_eq!(pick(rr, &c, &mut cursor, 10, 0), 0);
        // Shards keep independent cursors.
        let mut other = 0;
        assert_eq!(pick(rr, &c, &mut other, 10, 0), 0);
        // A detected-dead replica is skipped without stalling the
        // cursor's rotation.
        let c = shard(&[true, false, true], &[0; 3], &[0; 3]);
        assert_eq!(pick(rr, &c, &mut cursor, 10, 0), 2);
        assert_eq!(pick(rr, &c, &mut cursor, 10, 0), 0);
        assert_eq!(pick(rr, &c, &mut cursor, 10, 0), 2);
    }

    #[test]
    fn least_outstanding_joins_the_shortest_queue() {
        let lo = RoutingPolicy::LeastOutstanding;
        let c = shard(&[true, true, true], &[500, 100, 300], &[2, 1, 1]);
        // Replicas 1 and 2 tie on outstanding; 1 frees earlier.
        assert_eq!(pick(lo, &c, &mut 0, 10, 0), 1);
        // The busiest replica is never picked while a shorter queue is
        // alive.
        let c = shard(&[true, false, true], &[500, 100, 300], &[2, 0, 1]);
        assert_eq!(pick(lo, &c, &mut 0, 10, 0), 2);
    }

    #[test]
    fn fastest_replica_minimizes_predicted_completion() {
        let fr = RoutingPolicy::FastestReplica;
        // Replica 0 holds one sub-query until 400; replica 1 holds
        // three that drain by 200: predicted completions are 500 vs
        // 300, where the shortest queue would pick replica 0.
        let c = shard(&[true, true], &[400, 200], &[1, 3]);
        assert_eq!(pick(fr, &c, &mut 0, 100, 0), 1);
        assert_eq!(pick(RoutingPolicy::LeastOutstanding, &c, &mut 0, 100, 0), 0);
        assert_eq!(c[1].predicted_completion(0, 100), 300);
        // Both idle by `now`: a tie, broken toward the lowest index.
        let c = shard(&[true, true], &[400, 200], &[0, 0]);
        assert_eq!(pick(fr, &c, &mut 0, 100, 1000), 0);
        assert_eq!(c[1].predicted_completion(1000, 100), 1100);
    }

    #[test]
    #[should_panic(expected = "no live replica")]
    fn all_dead_candidates_panic() {
        let c = shard(&[false, false], &[0, 0], &[0, 0]);
        let _ = RoutingPolicy::LeastOutstanding.pick(3, &c, &mut 0, 0, 0, 10);
    }
}
