//! The fail-stop cube fault model.
//!
//! A [`FaultPlan`] kills one replica of one shard at a fixed cycle of
//! the service run: from `at_cycle` on, the replica serves nothing —
//! requests in service are cut mid-flight, queued and later requests
//! are refused (the [`hipe_sim::Server::serve_until`] semantics). The
//! front end learns of the failure `fault_detect` cycles later; until
//! then routing may keep sending sub-queries into the dark replica,
//! and every such sub-query is *re-dispatched* to a surviving replica
//! once detection fires (paying the detection wait plus a re-dispatch
//! cost). A fault kills a *server*, not data: every replica of a shard
//! executes on the shard's one cube, so the re-routed answer — and
//! therefore the service-level answer — is bit-identical to the
//! fault-free run; the failover tests kill each replica across a
//! sweep of cycles to prove it.

use hipe_sim::Cycle;

/// One injected fail-stop fault: replica `replica` of shard `shard`
/// goes dark at `at_cycle` and never comes back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Shard whose replica dies.
    pub shard: usize,
    /// Replica index that dies.
    pub replica: usize,
    /// Service-run cycle at which it stops serving.
    pub at_cycle: Cycle,
}

impl FaultPlan {
    /// A fault killing `replica` of `shard` at `at_cycle`.
    pub fn new(shard: usize, replica: usize, at_cycle: Cycle) -> Self {
        FaultPlan {
            shard,
            replica,
            at_cycle,
        }
    }
}

/// Checks a fault plan against a cluster shape: indices in range, no
/// replica killed twice, and every shard left with at least one
/// replica that never fails (otherwise some row range would become
/// unanswerable and the run could not serve every query).
///
/// # Panics
///
/// Panics (with a named message) on any violation.
pub(crate) fn validate(faults: &[FaultPlan], shards: usize, replicas: usize) {
    let mut killed = vec![0usize; shards];
    for (i, f) in faults.iter().enumerate() {
        assert!(
            f.shard < shards,
            "fault {i}: shard {} out of range ({shards} shards)",
            f.shard
        );
        assert!(
            f.replica < replicas,
            "fault {i}: replica {} out of range ({replicas} replicas)",
            f.replica
        );
        assert!(
            !faults[..i]
                .iter()
                .any(|g| g.shard == f.shard && g.replica == f.replica),
            "fault {i}: replica {} of shard {} killed twice",
            f.replica,
            f.shard
        );
        killed[f.shard] += 1;
        assert!(
            killed[f.shard] < replicas,
            "fault plan kills every replica of shard {} — no survivor to fail over to",
            f.shard
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_survivable_plan_validates() {
        let faults = [FaultPlan::new(0, 1, 100), FaultPlan::new(1, 0, 200)];
        validate(&faults, 2, 2);
        validate(&[], 1, 1);
    }

    #[test]
    #[should_panic(expected = "shard 5 out of range")]
    fn shard_out_of_range_panics() {
        validate(&[FaultPlan::new(5, 0, 1)], 2, 2);
    }

    #[test]
    #[should_panic(expected = "replica 2 out of range")]
    fn replica_out_of_range_panics() {
        validate(&[FaultPlan::new(0, 2, 1)], 2, 2);
    }

    #[test]
    #[should_panic(expected = "killed twice")]
    fn duplicate_kill_panics() {
        validate(
            &[FaultPlan::new(0, 1, 100), FaultPlan::new(0, 1, 500)],
            2,
            2,
        );
    }

    #[test]
    #[should_panic(expected = "kills every replica of shard 1")]
    fn killing_a_whole_shard_panics() {
        validate(
            &[FaultPlan::new(1, 0, 100), FaultPlan::new(1, 1, 200)],
            2,
            2,
        );
    }
}
