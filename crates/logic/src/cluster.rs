//! The engine cluster: one logic-layer engine per vault group.
//!
//! The paper places a compute engine in the logic layer of *each vault
//! group*; the cluster models N such engines co-simulated against one
//! shared [`Hmc`]. Each engine owns a private sequencer and register
//! bank (so partitions pipeline independently), while all DRAM timing
//! flows through the shared cube — and because every partition's code
//! touches only its own vaults' banks, the existing per-vault queue
//! and bank-occupancy models price the overlap honestly. The cluster
//! *enforces* that ownership: a memory instruction addressed outside
//! its partition's vault group is a compiler bug and panics.

use crate::config::LogicConfig;
use crate::engine::{Engine, EngineStats, Outcome};
use hipe_hmc::Hmc;
use hipe_isa::{LogicInstr, PartitionSpec};
use hipe_sim::Cycle;

/// N per-vault-group engines sharing one cube.
///
/// # Example
///
/// ```
/// use hipe_hmc::{Hmc, HmcConfig};
/// use hipe_isa::{LogicInstr, OpSize, PartitionSpec, RegId};
/// use hipe_logic::{EngineCluster, LogicConfig};
///
/// let mut hmc = Hmc::new(HmcConfig::paper(), 1 << 20);
/// let specs = [PartitionSpec::new(0, 0, 16), PartitionSpec::new(1, 16, 16)];
/// let mut cluster = EngineCluster::new(LogicConfig::paper(), &specs);
/// // Partition 1 loads from vault 16 (block 16): its own group.
/// let load = LogicInstr::Load {
///     dst: RegId::new(0).expect("register 0 exists"),
///     addr: 16 * 256,
///     size: OpSize::MAX,
///     pred: None,
/// };
/// let outcome = cluster.execute(&mut hmc, 1, load, 0);
/// assert!(outcome.performed);
/// assert_eq!(cluster.stats().dram_loads, 1);
/// ```
#[derive(Debug)]
pub struct EngineCluster {
    engines: Vec<Engine>,
    specs: Vec<PartitionSpec>,
}

impl EngineCluster {
    /// Creates one idle engine per partition spec, all with the same
    /// configuration.
    pub fn new(cfg: LogicConfig, specs: &[PartitionSpec]) -> Self {
        EngineCluster {
            engines: specs.iter().map(|_| Engine::new(cfg)).collect(),
            specs: specs.to_vec(),
        }
    }

    /// Number of engines.
    pub fn len(&self) -> usize {
        self.engines.len()
    }

    /// Returns `true` if the cluster has no engines.
    pub fn is_empty(&self) -> bool {
        self.engines.is_empty()
    }

    /// One engine (functional inspection).
    pub fn engine(&self, p: usize) -> &Engine {
        &self.engines[p]
    }

    /// The partition specs the cluster was built for.
    pub fn specs(&self) -> &[PartitionSpec] {
        &self.specs
    }

    /// Executes one instruction on partition `p`'s engine, arriving
    /// from the host at `arrival`.
    ///
    /// # Panics
    ///
    /// Panics if a memory instruction addresses a vault outside the
    /// partition's group (the compiler must keep every partition's
    /// loads, mask stores and partial flushes inside its own vaults),
    /// or if `p` is out of range.
    pub fn execute(
        &mut self,
        hmc: &mut Hmc,
        p: usize,
        instr: LogicInstr,
        arrival: Cycle,
    ) -> Outcome {
        self.check_vault_ownership(hmc, p, &instr);
        self.engines[p].execute(hmc, instr, arrival)
    }

    /// Asserts that a memory instruction stays inside partition `p`'s
    /// vault group.
    fn check_vault_ownership(&self, hmc: &Hmc, p: usize, instr: &LogicInstr) {
        let (addr, bytes) = match *instr {
            LogicInstr::Load { addr, size, .. } | LogicInstr::Store { addr, size, .. } => {
                (addr, size.bytes())
            }
            _ => return,
        };
        let spec = self.specs[p];
        for (seg, _) in hmc.mapping().split(addr, bytes) {
            let vault = hmc.mapping().locate(seg).vault;
            assert!(
                spec.owns_vault(vault),
                "partition {} (vaults {:?}) addressed vault {vault} at {seg:#x}",
                spec.index,
                spec.vaults(),
            );
        }
    }

    /// Merged activity counters across all engines.
    pub fn stats(&self) -> EngineStats {
        self.engines.iter().map(Engine::stats).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipe_hmc::HmcConfig;
    use hipe_isa::{OpSize, RegId};

    impl EngineCluster {
        /// Activity counters of one engine.
        fn partition_stats(&self, p: usize) -> EngineStats {
            self.engines[p].stats()
        }
    }

    fn setup(n: usize) -> (Hmc, EngineCluster) {
        let g = 32 / n;
        let specs: Vec<PartitionSpec> = (0..n).map(|p| PartitionSpec::new(p, p * g, g)).collect();
        (
            Hmc::new(HmcConfig::paper(), 1 << 20),
            EngineCluster::new(LogicConfig::paper(), &specs),
        )
    }

    fn load(dst: usize, addr: u64) -> LogicInstr {
        LogicInstr::Load {
            dst: RegId::new(dst).expect("valid register"),
            addr,
            size: OpSize::MAX,
            pred: None,
        }
    }

    #[test]
    fn engines_run_independent_streams() {
        let (mut hmc, mut cluster) = setup(4);
        assert_eq!(cluster.len(), 4);
        // Each partition loads from its own first vault; all four
        // overlap like independent engines would.
        let mut dones = vec![];
        for p in 0..4 {
            let addr = (p * 8) as u64 * 256;
            dones.push(cluster.execute(&mut hmc, p, load(0, addr), 0).done);
        }
        assert!(
            dones.windows(2).all(|w| w[0] == w[1]),
            "serialized: {dones:?}"
        );
        assert_eq!(cluster.stats().dram_loads, 4);
        assert_eq!(cluster.partition_stats(2).dram_loads, 1);
    }

    #[test]
    fn sequencers_are_private_per_engine() {
        let (mut hmc, mut cluster) = setup(2);
        // Two instructions on engine 0 occupy consecutive sequencer
        // slots; engine 1's first instruction does not queue behind
        // them.
        let a = cluster.execute(&mut hmc, 0, load(0, 0), 0);
        let b = cluster.execute(&mut hmc, 0, load(1, 256), 0);
        let c = cluster.execute(&mut hmc, 1, load(0, 16 * 256), 0);
        assert!(b.done > a.done);
        assert_eq!(c.done, a.done);
    }

    #[test]
    fn merged_stats_sum_engines() {
        let (mut hmc, mut cluster) = setup(2);
        cluster.execute(&mut hmc, 0, load(0, 0), 0);
        cluster.execute(&mut hmc, 1, load(0, 16 * 256), 0);
        cluster.execute(&mut hmc, 1, LogicInstr::Lock, 0);
        cluster.execute(&mut hmc, 1, LogicInstr::Unlock, 0);
        let merged = cluster.stats();
        assert_eq!(merged.instructions, 4);
        assert_eq!(merged.dram_loads, 2);
        assert_eq!(merged.blocks, 1);
        assert_eq!(
            merged,
            (0..2)
                .map(|p| cluster.partition_stats(p))
                .sum::<EngineStats>()
        );
    }

    #[test]
    #[should_panic(expected = "addressed vault")]
    fn foreign_vault_access_panics() {
        let (mut hmc, mut cluster) = setup(4);
        // Partition 0 owns vaults 0..8; block 8 belongs to partition 1.
        cluster.execute(&mut hmc, 0, load(0, 8 * 256), 0);
    }

    #[test]
    #[should_panic(expected = "addressed vault")]
    fn straddling_access_is_checked_per_block() {
        let (mut hmc, mut cluster) = setup(4);
        // Starts in vault 7 (owned) but spills into vault 8 (foreign).
        cluster.execute(&mut hmc, 0, load(0, 7 * 256 + 128), 0);
    }

    #[test]
    fn single_partition_cluster_behaves_like_one_engine() {
        let (mut hmc, mut cluster) = setup(1);
        let (mut hmc2, mut engine) = (
            Hmc::new(HmcConfig::paper(), 1 << 20),
            Engine::new(LogicConfig::paper()),
        );
        for i in 0..8u64 {
            let c = cluster.execute(&mut hmc, 0, load((i % 2) as usize, i * 256), 0);
            let e = engine.execute(&mut hmc2, load((i % 2) as usize, i * 256), 0);
            assert_eq!(c, e, "instruction {i}");
        }
        assert_eq!(cluster.stats(), engine.stats());
    }
}
