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

use crate::service::ServiceError;
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
/// unanswerable and the run could not serve every query). Returns the
/// first violation.
pub(crate) fn validate(
    faults: &[FaultPlan],
    shards: usize,
    replicas: usize,
) -> Result<(), ServiceError> {
    let mut killed = vec![0usize; shards];
    for (i, f) in faults.iter().enumerate() {
        if f.shard >= shards {
            return Err(ServiceError::FaultShardOutOfRange {
                fault: i,
                shard: f.shard,
                shards,
            });
        }
        if f.replica >= replicas {
            return Err(ServiceError::FaultReplicaOutOfRange {
                fault: i,
                replica: f.replica,
                replicas,
            });
        }
        if faults[..i]
            .iter()
            .any(|g| g.shard == f.shard && g.replica == f.replica)
        {
            return Err(ServiceError::ReplicaKilledTwice {
                fault: i,
                shard: f.shard,
                replica: f.replica,
            });
        }
        killed[f.shard] += 1;
        if killed[f.shard] == replicas {
            return Err(ServiceError::NoSurvivor { shard: f.shard });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `validate`, panicking with the error's message as
    /// `run_service` does.
    fn check(faults: &[FaultPlan], shards: usize, replicas: usize) {
        if let Err(e) = validate(faults, shards, replicas) {
            panic!("{e}");
        }
    }

    #[test]
    fn a_survivable_plan_validates() {
        let faults = [FaultPlan::new(0, 1, 100), FaultPlan::new(1, 0, 200)];
        assert_eq!(validate(&faults, 2, 2), Ok(()));
        assert_eq!(validate(&[], 1, 1), Ok(()));
    }

    #[test]
    #[should_panic(expected = "shard 5 out of range")]
    fn shard_out_of_range_panics() {
        check(&[FaultPlan::new(5, 0, 1)], 2, 2);
    }

    #[test]
    #[should_panic(expected = "replica 2 out of range")]
    fn replica_out_of_range_panics() {
        check(&[FaultPlan::new(0, 2, 1)], 2, 2);
    }

    #[test]
    #[should_panic(expected = "killed twice")]
    fn duplicate_kill_panics() {
        check(
            &[FaultPlan::new(0, 1, 100), FaultPlan::new(0, 1, 500)],
            2,
            2,
        );
    }

    #[test]
    #[should_panic(expected = "kills every replica of shard 1")]
    fn killing_a_whole_shard_panics() {
        check(
            &[FaultPlan::new(1, 0, 100), FaultPlan::new(1, 1, 200)],
            2,
            2,
        );
    }

    #[test]
    fn each_violation_is_its_typed_error() {
        let ok = FaultPlan::new(0, 0, 1);
        assert_eq!(
            validate(&[ok, FaultPlan::new(5, 0, 1)], 2, 2),
            Err(ServiceError::FaultShardOutOfRange {
                fault: 1,
                shard: 5,
                shards: 2
            })
        );
        assert_eq!(
            validate(&[FaultPlan::new(0, 2, 1)], 2, 2),
            Err(ServiceError::FaultReplicaOutOfRange {
                fault: 0,
                replica: 2,
                replicas: 2
            })
        );
        assert_eq!(
            validate(&[ok, FaultPlan::new(0, 0, 500)], 2, 3),
            Err(ServiceError::ReplicaKilledTwice {
                fault: 1,
                shard: 0,
                replica: 0
            })
        );
        assert_eq!(
            validate(&[FaultPlan::new(1, 1, 9), FaultPlan::new(1, 0, 3)], 2, 2),
            Err(ServiceError::NoSurvivor { shard: 1 })
        );
        // A single replica has no survivor to lose.
        assert_eq!(
            validate(&[ok], 1, 1),
            Err(ServiceError::NoSurvivor { shard: 0 })
        );
    }
}
