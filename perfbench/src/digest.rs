//! FNV-1a digest over every simulated statistic a run reports.
//!
//! The simulator is deterministic, so one seed gives one digest. A
//! change meant only to speed up the simulator must leave it unchanged;
//! a change to the modelled machines moves it.

use hipe::RunReport;
use hipe_db::scan::ScanResult;
use hipe_serve::{ClusterReport, LatencySummary, ServiceReport};

/// A running FNV-1a digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }

    /// Mixes in one word.
    pub fn word(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    /// Mixes in a functional answer.
    pub fn result(&mut self, r: &ScanResult) {
        self.word(r.matches as u64);
        let agg = r.aggregate.unwrap_or(0);
        self.word(u64::from(r.aggregate.is_some()));
        self.word(agg as u64);
        self.word((agg >> 64) as u64);
        self.word(r.bitmask.len() as u64);
        for &w in r.bitmask.words() {
            self.word(w);
        }
    }

    /// Mixes in every statistic of a run: cycles, phases, partitions,
    /// zone-map counts, energy parts and component counters.
    pub fn run(&mut self, r: &RunReport) {
        self.result(&r.result);
        for v in [
            r.cycles,
            r.phases.dispatch,
            r.phases.scan,
            r.phases.gather_aggregate,
        ] {
            self.word(v);
        }
        for p in &r.partitions {
            for v in [
                p.partition as u64,
                p.first_vault as u64,
                p.vaults as u64,
                p.instructions,
                p.dispatch,
                p.scan,
                p.dram_bytes,
            ] {
                self.word(v);
            }
        }
        self.word(r.regions_scanned as u64);
        self.word(r.regions_pruned as u64);
        let e = &r.energy;
        for v in [
            e.dram_pj(),
            e.link_pj(),
            e.logic_pj(),
            e.cache_pj(),
            e.total_pj(),
        ] {
            self.float(v);
        }
        let c = &r.core;
        for v in [c.ops, c.loads, c.stores, c.branches, c.mispredicts] {
            self.word(v);
        }
        if let Some(c) = &r.cache {
            for v in [
                c.l1_hits,
                c.l1_misses,
                c.l2_hits,
                c.l2_misses,
                c.l3_hits,
                c.l3_misses,
                c.prefetches,
                c.prefetch_hits,
                c.writebacks,
                c.accesses,
            ] {
                self.word(v);
            }
        }
        if let Some(e) = &r.engine {
            for v in [
                e.instructions,
                e.dram_loads,
                e.dram_stores,
                e.alu_ops,
                e.squashed,
                e.blocks,
            ] {
                self.word(v);
            }
        }
        let h = &r.hmc;
        for v in [
            h.activations,
            h.bytes_read,
            h.bytes_written,
            h.link_bytes,
            h.fu_ops,
        ] {
            self.word(v);
        }
    }

    /// Mixes in a scatter-gather run and each of its shard runs.
    pub fn cluster(&mut self, r: &ClusterReport) {
        self.result(&r.result);
        self.word(r.cycles);
        for (&skipped, shard) in r.skipped.iter().zip(&r.shard_reports) {
            self.word(u64::from(skipped));
            self.run(shard);
        }
    }

    fn latency(&mut self, l: &LatencySummary) {
        for v in [l.p50, l.p95, l.p99, l.p999, l.max] {
            self.word(v);
        }
        self.float(l.mean);
    }

    /// Mixes in every statistic of a service run. Compilations are left
    /// out: the cluster's plan caches outlive a run, so only the first
    /// run of a query lowers it.
    pub fn service(&mut self, r: &ServiceReport) {
        for v in [r.shards as u64, r.replicas as u64, r.queries, r.makespan] {
            self.word(v);
        }
        self.latency(&r.latency);
        self.latency(&r.subquery_latency);
        for &b in &r.shard_busy {
            self.word(b);
        }
        for &b in r.replica_busy.iter().flatten() {
            self.word(b);
        }
        for v in [
            r.frontend_busy,
            r.admission_stall,
            r.batching_delay,
            r.failovers,
            r.redispatched,
            r.materializations,
        ] {
            self.word(v);
        }
        for a in &r.answers {
            self.result(a);
        }
    }
}
