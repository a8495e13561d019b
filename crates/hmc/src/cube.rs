//! The assembled cube: links + vaults + functional storage + energy.

use crate::address::AddressMapping;
use crate::config::HmcConfig;
use crate::energy::{EnergyBreakdown, EnergyModel};
use crate::vault::Vault;
use hipe_sim::{Cycle, ThroughputPipe};

/// Granularity of the image's dirty tracking: one 256 B block, the
/// logic-layer engine's store size (and one DRAM row buffer).
const DIRTY_BLOCK_BYTES: u64 = 256;

/// What kind of access the host performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Plain read: data crosses the links to the host.
    Read,
    /// Plain write: data crosses the links to the cube.
    Write,
    /// An HMC-ISA operation (e.g. load-compare): executed by the vault
    /// functional unit; only a small result crosses the links back.
    PimOp {
        /// Bytes of the result carried in the response packet.
        result_bytes: u64,
    },
}

/// Timing outcome of an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Response {
    /// Cycle at which the requester observes completion.
    pub complete: Cycle,
}

/// Aggregate activity counters of the cube.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HmcStats {
    /// Row activations (== closed-page bank accesses).
    pub activations: u64,
    /// Bytes read from DRAM cores.
    pub bytes_read: u64,
    /// Bytes written to DRAM cores.
    pub bytes_written: u64,
    /// Bytes that crossed the links in either direction (incl. headers).
    pub link_bytes: u64,
    /// Vault functional-unit operations executed.
    pub fu_ops: u64,
}

/// Per-vault activity counters: the vault-group accounting behind the
/// partitioned execution reports (which vault groups a run actually
/// worked, and how evenly).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VaultActivity {
    /// Row activations in this vault's banks.
    pub activations: u64,
    /// Bytes read from this vault's DRAM cores.
    pub bytes_read: u64,
    /// Bytes written to this vault's DRAM cores.
    pub bytes_written: u64,
}

impl std::ops::AddAssign for VaultActivity {
    fn add_assign(&mut self, other: VaultActivity) {
        self.activations += other.activations;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
    }
}

/// The Hybrid Memory Cube: timing, functional storage and energy.
///
/// The cube exposes three request paths:
///
/// * [`access`](Self::access) — host requests that traverse the serial
///   links (plain reads/writes from the cache hierarchy, or HMC-ISA
///   PIM operations that return only a result);
/// * [`internal_read`](Self::internal_read) /
///   [`internal_write`](Self::internal_write) — logic-layer requests
///   issued by the HIVE/HIPE engine, which sit *inside* the cube and
///   do not use the links;
/// * [`read_bytes`](Self::read_bytes) / [`write_bytes`](Self::write_bytes)
///   — zero-time functional accesses to the memory image (used to set
///   up workloads and by engines to compute real values).
///
/// # Example
///
/// ```
/// use hipe_hmc::{AccessKind, Hmc, HmcConfig};
/// let mut hmc = Hmc::new(HmcConfig::paper(), 1 << 16);
/// let r1 = hmc.access(0, 0, 64, AccessKind::Read);
/// let r2 = hmc.access(0, 256, 64, AccessKind::Read);
/// // Different vaults: the bank phases overlap, so the second read
/// // trails the first only by link serialization, not a bank cycle.
/// assert!(r2.complete - r1.complete < 20);
/// ```
#[derive(Debug)]
pub struct Hmc {
    cfg: HmcConfig,
    mapping: AddressMapping,
    vaults: Vec<Vault>,
    /// Host -> cube direction (requests, write payloads).
    req_link: ThroughputPipe,
    /// Cube -> host direction (responses, read payloads).
    rsp_link: ThroughputPipe,
    /// One bit per [`DIRTY_BLOCK_BYTES`] block of `mem`: set when a
    /// functional write path touched the block since the last
    /// [`zero_dirty_from`](Self::zero_dirty_from).
    dirty: Vec<u64>,
    mem: Vec<u8>,
    stats: HmcStats,
    /// Per-vault accounting (run-scoped, reset with the timing state).
    vault_activity: Vec<VaultActivity>,
    energy_model: EnergyModel,
    energy: EnergyBreakdown,
}

impl Hmc {
    /// Creates a cube with `image_bytes` of functional storage.
    ///
    /// The timing model covers the full 8 GB address space; only the
    /// first `image_bytes` are backed by real data (enough to hold the
    /// workload tables — the paper's Q6 working set is ~1 GB at SF 1
    /// and proportionally less at reduced scale).
    pub fn new(cfg: HmcConfig, image_bytes: usize) -> Self {
        let (num, den) = cfg.link_rate();
        // The dirty bitmap is allocated first, before the vaults and the
        // image. Allocated later, it lands in the space a dropped cube's
        // image left behind, the next image no longer fits there, and
        // every cube built after a dropped one maps (and faults in)
        // fresh pages: set-up time doubled when it was measured.
        let blocks = (image_bytes as u64).div_ceil(DIRTY_BLOCK_BYTES) as usize;
        let dirty = vec![0; blocks.div_ceil(64)];
        let vaults = (0..cfg.vaults).map(|_| Vault::new(&cfg)).collect();
        let mem = vec![0; image_bytes];
        Hmc {
            mapping: AddressMapping::new(&cfg),
            vaults,
            req_link: ThroughputPipe::new(num, den, cfg.link_latency),
            rsp_link: ThroughputPipe::new(num, den, cfg.link_latency),
            dirty,
            mem,
            stats: HmcStats::default(),
            vault_activity: vec![VaultActivity::default(); cfg.vaults],
            energy_model: EnergyModel::paper(),
            energy: EnergyBreakdown::default(),
            cfg,
        }
    }

    /// The cube configuration.
    pub fn config(&self) -> &HmcConfig {
        &self.cfg
    }

    /// The address mapping in use.
    pub fn mapping(&self) -> &AddressMapping {
        &self.mapping
    }

    /// Performs a host-side access that traverses the serial links.
    ///
    /// Requests larger than one row buffer are split into per-row bank
    /// requests that proceed in parallel across vaults/banks; the
    /// response completes when the last fragment arrives.
    pub fn access(&mut self, cycle: Cycle, addr: u64, bytes: u64, kind: AccessKind) -> Response {
        let header = self.cfg.packet_header_bytes;
        // Request packet: header plus write payload (write) or just the
        // command (read / PIM op carries a 16 B immediate in-header).
        let req_bytes = match kind {
            AccessKind::Write => header + bytes,
            AccessKind::Read | AccessKind::PimOp { .. } => header,
        };
        let at_cube = self.req_link.transfer(cycle, req_bytes);
        self.stats.link_bytes += req_bytes;
        self.energy.add_link(&self.energy_model, req_bytes);

        // Bank phase.
        let mut done = at_cube;
        let write = matches!(kind, AccessKind::Write);
        let mapping = self.mapping;
        for (a, l) in mapping.split(addr, bytes) {
            let d = self.bank_access(at_cube, a, l, write);
            done = done.max(d);
        }

        // PIM operation executes in the vault functional unit after the
        // data is out of the bank.
        if let AccessKind::PimOp { .. } = kind {
            let loc = self.mapping.locate(addr);
            done = self.vaults[loc.vault].execute_fu(done, self.cfg.vault_fu_latency);
            self.stats.fu_ops += 1;
            self.energy.add_logic_ops(&self.energy_model, 1);
        }

        // Response packet.
        let rsp_bytes = match kind {
            AccessKind::Read => header + bytes,
            AccessKind::Write => header,
            AccessKind::PimOp { result_bytes } => header + result_bytes,
        };
        let at_host = self.rsp_link.transfer(done, rsp_bytes);
        self.stats.link_bytes += rsp_bytes;
        self.energy.add_link(&self.energy_model, rsp_bytes);
        Response { complete: at_host }
    }

    /// Transfers a host-to-cube packet of `bytes` over the request link
    /// without touching DRAM; returns the cycle it arrives at the cube.
    ///
    /// Used for logic-layer instruction dispatch: the packet terminates
    /// at the logic-layer engine, so no bank is involved.
    pub fn link_request(&mut self, cycle: Cycle, bytes: u64) -> Cycle {
        self.stats.link_bytes += bytes;
        self.energy.add_link(&self.energy_model, bytes);
        self.req_link.transfer(cycle, bytes)
    }

    /// Transfers a cube-to-host packet of `bytes` over the response link
    /// without touching DRAM; returns the cycle it arrives at the host.
    ///
    /// Used for the logic-layer engine's unlock acknowledgement.
    pub fn link_response(&mut self, cycle: Cycle, bytes: u64) -> Cycle {
        self.stats.link_bytes += bytes;
        self.energy.add_link(&self.energy_model, bytes);
        self.rsp_link.transfer(cycle, bytes)
    }

    /// Performs a logic-layer access (HIVE/HIPE engine): touches the
    /// banks directly, bypassing the links.
    pub fn internal_read(&mut self, cycle: Cycle, addr: u64, bytes: u64) -> Cycle {
        let mapping = self.mapping;
        let mut done = cycle;
        for (a, l) in mapping.split(addr, bytes) {
            done = done.max(self.bank_access(cycle, a, l, false));
        }
        done
    }

    /// Logic-layer write path; see [`internal_read`](Self::internal_read).
    pub fn internal_write(&mut self, cycle: Cycle, addr: u64, bytes: u64) -> Cycle {
        let mapping = self.mapping;
        let mut done = cycle;
        for (a, l) in mapping.split(addr, bytes) {
            done = done.max(self.bank_access(cycle, a, l, true));
        }
        done
    }

    fn bank_access(&mut self, cycle: Cycle, addr: u64, bytes: u64, write: bool) -> Cycle {
        let loc = self.mapping.locate(addr);
        let done = self.vaults[loc.vault].access(cycle, loc.bank, bytes, write);
        self.stats.activations += 1;
        self.vault_activity[loc.vault].activations += 1;
        self.energy.add_activate(&self.energy_model, 1);
        if write {
            self.stats.bytes_written += bytes;
            self.vault_activity[loc.vault].bytes_written += bytes;
            self.energy.add_dram_write(&self.energy_model, bytes);
        } else {
            self.stats.bytes_read += bytes;
            self.vault_activity[loc.vault].bytes_read += bytes;
            self.energy.add_dram_read(&self.energy_model, bytes);
        }
        done
    }

    /// Resets every run-scoped timing and accounting structure —
    /// vaults, link pipes, stats, energy — in place, while keeping the
    /// memory image intact.
    ///
    /// This is the cube half of a warm session's reset protocol: after
    /// the call, the cube times and meters accesses exactly like a
    /// freshly constructed one, but the (expensive) table image does
    /// not have to be re-materialized. Output areas written by a run
    /// (e.g. scan mask buffers) are restored separately by
    /// [`zero_dirty_from`](Self::zero_dirty_from), which clears only
    /// the blocks the run actually wrote.
    pub fn reset_run_state(&mut self) {
        for vault in &mut self.vaults {
            vault.reset();
        }
        self.req_link.reset();
        self.rsp_link.reset();
        self.stats = HmcStats::default();
        // The per-vault(-group) accounting the engine cluster reads is
        // run-scoped like the aggregate stats: a warm run must start
        // from the same zeroed meters a cold cube has, or warm != cold
        // under partitioned execution.
        self.vault_activity.fill(VaultActivity::default());
        self.energy = EnergyBreakdown::default();
    }

    /// Charges one logic-layer ALU operation to the energy account
    /// (used by the HIVE/HIPE engine models).
    pub fn charge_logic_op(&mut self) {
        self.stats.fu_ops += 1;
        self.energy.add_logic_ops(&self.energy_model, 1);
    }

    /// Charges `n` processor-side cache accesses to the energy account.
    pub fn charge_cache_accesses(&mut self, n: u64) {
        self.energy.add_cache_accesses(&self.energy_model, n);
    }

    /// Finalizes background energy for a run that lasted `cycles`.
    pub fn finish(&mut self, cycles: Cycle) {
        self.energy.add_background(&self.energy_model, cycles);
    }

    /// Functional read of the memory image.
    ///
    /// # Panics
    ///
    /// Panics if the range is outside the image.
    pub fn read_bytes(&self, addr: u64, len: usize) -> &[u8] {
        &self.mem[addr as usize..addr as usize + len]
    }

    /// Functional write to the memory image. Marks the touched blocks
    /// dirty (see [`zero_dirty_from`](Self::zero_dirty_from)).
    ///
    /// # Panics
    ///
    /// Panics if the range is outside the image.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        self.bytes_mut(addr, data.len()).copy_from_slice(data);
    }

    /// Mutable functional view of `len` image bytes at `addr` — the
    /// zero-copy write path: producers (table materialization, engine
    /// stores) serialize straight into the cube's backing memory
    /// instead of staging through a scratch buffer and
    /// [`write_bytes`](Self::write_bytes). Marks the covered blocks
    /// dirty.
    ///
    /// # Panics
    ///
    /// Panics if the range is outside the image.
    pub fn bytes_mut(&mut self, addr: u64, len: usize) -> &mut [u8] {
        let range = addr as usize..addr as usize + len;
        assert!(range.end <= self.mem.len(), "write past the image");
        if len > 0 {
            let first = (addr / DIRTY_BLOCK_BYTES) as usize;
            let last = ((range.end as u64 - 1) / DIRTY_BLOCK_BYTES) as usize;
            mark_bits(&mut self.dirty, first, last + 1);
        }
        &mut self.mem[range]
    }

    /// Functional in-place zeroing of `len` image bytes at `addr`
    /// (no scratch buffer, unlike [`write_bytes`](Self::write_bytes)).
    /// Zeroing never marks a block dirty.
    ///
    /// # Panics
    ///
    /// Panics if the range is outside the image.
    pub fn zero_bytes(&mut self, addr: u64, len: usize) {
        self.mem[addr as usize..addr as usize + len].fill(0);
    }

    /// Zeroes every image byte at or after `from` that lies in a block
    /// written since the last call, then forgets all dirty marks.
    ///
    /// This is the image half of a warm session's reset protocol: if
    /// the image from `from` on was all-zero after the last call (or
    /// after materialization, which marks every block), it is
    /// all-zero again afterwards — at a cost proportional to the
    /// blocks a run wrote, not to the size of the area.
    pub fn zero_dirty_from(&mut self, from: u64) {
        let first_word = (from / DIRTY_BLOCK_BYTES / 64) as usize;
        self.dirty[..first_word].fill(0);
        let len = self.mem.len() as u64;
        for w in first_word..self.dirty.len() {
            let mut bits = std::mem::take(&mut self.dirty[w]);
            while bits != 0 {
                let block = (w * 64) as u64 + u64::from(bits.trailing_zeros());
                bits &= bits - 1;
                let lo = (block * DIRTY_BLOCK_BYTES).max(from);
                let hi = ((block + 1) * DIRTY_BLOCK_BYTES).min(len);
                if lo < hi {
                    self.zero_bytes(lo, (hi - lo) as usize);
                }
            }
        }
    }

    /// Functional read of a little-endian `u64` at `addr`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.read_bytes(addr, 8));
        u64::from_le_bytes(b)
    }

    /// Functional write of a little-endian `u64` at `addr`.
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Size of the functional image in bytes.
    pub fn image_len(&self) -> usize {
        self.mem.len()
    }

    /// Activity counters.
    pub fn stats(&self) -> HmcStats {
        self.stats
    }

    /// Per-vault activity counters (one entry per vault).
    pub fn vault_activity(&self) -> &[VaultActivity] {
        &self.vault_activity
    }

    /// Per-vault-group activity: folds the per-vault counters into
    /// `groups` equally sized contiguous vault groups — the partition
    /// view of the cube.
    ///
    /// # Panics
    ///
    /// Panics unless `groups` is non-zero and divides the vault count.
    pub fn group_activity(&self, groups: usize) -> Vec<VaultActivity> {
        assert!(
            groups > 0 && self.cfg.vaults.is_multiple_of(groups),
            "{groups} groups do not divide {} vaults",
            self.cfg.vaults
        );
        let per = self.cfg.vaults / groups;
        self.vault_activity
            .chunks(per)
            .map(|chunk| {
                let mut sum = VaultActivity::default();
                for &v in chunk {
                    sum += v;
                }
                sum
            })
            .collect()
    }

    /// Energy accumulated so far.
    pub fn energy(&self) -> EnergyBreakdown {
        self.energy
    }

    /// The energy constants in use.
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy_model
    }

    /// Total bank busy cycles across the cube (utilization diagnostics).
    pub fn bank_busy_cycles(&self) -> Cycle {
        self.vaults.iter().map(Vault::bank_busy_cycles).sum()
    }
}

/// Sets bits `[start, end)` of a packed bitmap, a word at a time.
fn mark_bits(words: &mut [u64], start: usize, end: usize) {
    let (first, last) = (start / 64, (end - 1) / 64);
    let head = !0u64 << (start % 64);
    let tail = !0u64 >> (63 - (end - 1) % 64);
    if first == last {
        words[first] |= head & tail;
        return;
    }
    words[first] |= head;
    words[first + 1..last].fill(!0);
    words[last] |= tail;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cube() -> Hmc {
        Hmc::new(HmcConfig::paper(), 1 << 20)
    }

    #[test]
    fn read_latency_includes_links_and_bank() {
        let cfg = HmcConfig::paper();
        let mut h = cube();
        let r = h.access(0, 0, 64, AccessKind::Read);
        // At least one link traversal each way plus the bank access.
        assert!(r.complete >= 2 * cfg.link_latency + cfg.closed_page_read_latency(64));
    }

    #[test]
    fn streaming_reads_engage_all_vaults() {
        let mut h = cube();
        // 64 blocks of 256 B: two sweeps over 32 vaults.
        let mut last = 0;
        for i in 0..64u64 {
            last = h.access(0, i * 256, 256, AccessKind::Read).complete;
        }
        // If the vaults did not overlap this would take 64 bank cycles
        // (~25k cycles); with interleaving it is bounded by two bank
        // rounds plus link serialization of 64 responses.
        assert!(last < 5_000, "streaming took {last}");
        assert_eq!(h.stats().activations, 64);
    }

    #[test]
    fn pim_op_moves_less_link_traffic_than_read() {
        let mut plain = cube();
        let mut pim = cube();
        plain.access(0, 0, 256, AccessKind::Read);
        pim.access(0, 0, 256, AccessKind::PimOp { result_bytes: 16 });
        assert!(pim.stats().link_bytes < plain.stats().link_bytes);
        assert_eq!(pim.stats().fu_ops, 1);
        // Both touch the same DRAM bytes.
        assert_eq!(pim.stats().bytes_read, plain.stats().bytes_read);
    }

    #[test]
    fn internal_access_bypasses_links() {
        let mut h = cube();
        let done = h.internal_read(0, 0, 256);
        assert_eq!(h.stats().link_bytes, 0);
        assert_eq!(done, h.config().closed_page_read_latency(256));
    }

    #[test]
    fn unaligned_access_splits_rows() {
        let mut h = cube();
        h.internal_read(0, 128, 256); // straddles two rows
        assert_eq!(h.stats().activations, 2);
    }

    #[test]
    fn functional_storage_round_trips() {
        let mut h = cube();
        h.write_u64(0x100, 0xDEAD_BEEF_0BAD_F00D);
        assert_eq!(h.read_u64(0x100), 0xDEAD_BEEF_0BAD_F00D);
    }

    #[test]
    fn write_energy_differs_from_read() {
        let mut h = cube();
        h.internal_write(0, 0, 256);
        let wr = h.energy();
        let mut h2 = cube();
        h2.internal_read(0, 0, 256);
        let rd = h2.energy();
        assert!(wr.dram_pj() > rd.dram_pj());
    }

    #[test]
    fn zero_bytes_clears_in_place() {
        let mut h = cube();
        h.write_u64(0x100, 77);
        h.write_u64(0x108, 88);
        h.zero_bytes(0x100, 8);
        assert_eq!(h.read_u64(0x100), 0);
        assert_eq!(h.read_u64(0x108), 88);
    }

    #[test]
    fn bytes_mut_writes_through_to_the_image() {
        let mut h = cube();
        h.bytes_mut(0x40, 8).copy_from_slice(&99u64.to_le_bytes());
        assert_eq!(h.read_u64(0x40), 99);
        assert_eq!(h.read_bytes(0x40, 8), 99u64.to_le_bytes());
    }

    #[test]
    fn reset_run_state_keeps_memory_and_zeroes_meters() {
        let mut h = cube();
        h.write_u64(0x80, 42);
        h.access(0, 0, 256, AccessKind::Read);
        h.finish(1000);
        assert!(h.stats().link_bytes > 0);
        h.reset_run_state();
        // The image survives; timing, stats and energy are cold again.
        assert_eq!(h.read_u64(0x80), 42);
        assert_eq!(h.stats(), HmcStats::default());
        assert_eq!(h.energy().total_pj(), 0.0);
        let mut cold = cube();
        cold.write_u64(0x80, 42);
        assert_eq!(
            h.access(0, 0, 256, AccessKind::Read),
            cold.access(0, 0, 256, AccessKind::Read)
        );
    }

    #[test]
    fn vault_activity_follows_the_interleave() {
        let mut h = cube();
        // Blocks 0 and 1 are vaults 0 and 1; block 32 wraps to vault 0.
        h.internal_read(0, 0, 256);
        h.internal_read(0, 256, 256);
        h.internal_write(0, 32 * 256, 256);
        let v = h.vault_activity();
        assert_eq!(v[0].activations, 2);
        assert_eq!(v[0].bytes_read, 256);
        assert_eq!(v[0].bytes_written, 256);
        assert_eq!(v[1].activations, 1);
        assert_eq!(v[2], VaultActivity::default());
        // The per-vault counters partition the aggregate ones.
        let total: u64 = v.iter().map(|a| a.activations).sum();
        assert_eq!(total, h.stats().activations);
    }

    #[test]
    fn group_activity_folds_vault_groups() {
        let mut h = cube();
        h.internal_read(0, 0, 256); // vault 0 -> group 0 of 4
        h.internal_read(0, 9 * 256, 256); // vault 9 -> group 1 of 4
        let groups = h.group_activity(4);
        assert_eq!(groups.len(), 4);
        assert_eq!(groups[0].bytes_read, 256);
        assert_eq!(groups[1].bytes_read, 256);
        assert_eq!(groups[2].bytes_read + groups[3].bytes_read, 0);
        // One group == the whole cube.
        assert_eq!(h.group_activity(1)[0].bytes_read, h.stats().bytes_read);
    }

    #[test]
    #[should_panic(expected = "do not divide")]
    fn group_activity_rejects_uneven_splits() {
        let h = cube();
        let _ = h.group_activity(5);
    }

    #[test]
    fn reset_run_state_clears_vault_accounting() {
        // Regression (partitioned execution): a warm session's reset
        // must also zero the per-vault-group meters, or the second run
        // of a cluster reports stale balance numbers.
        let mut h = cube();
        h.internal_read(0, 0, 256);
        assert!(h.vault_activity()[0].activations > 0);
        h.reset_run_state();
        assert!(h
            .vault_activity()
            .iter()
            .all(|v| *v == VaultActivity::default()));
        assert_eq!(h.group_activity(4)[0], VaultActivity::default());
    }

    /// Indices of the blocks currently marked dirty.
    fn dirty_blocks(h: &Hmc) -> Vec<usize> {
        (0..h.dirty.len() * 64)
            .filter(|&b| h.dirty[b / 64] >> (b % 64) & 1 == 1)
            .collect()
    }

    #[test]
    fn write_paths_mark_exactly_the_blocks_they_touch() {
        let mut h = cube();
        assert!(dirty_blocks(&h).is_empty());
        // write_u64 inside block 1; write_bytes straddling blocks 3-4;
        // bytes_mut over blocks 64..=130 (crossing bitmap words).
        h.write_u64(256 + 8, 1);
        h.write_bytes(4 * 256 - 2, &[7; 4]);
        h.bytes_mut(64 * 256, 67 * 256).fill(9);
        let mut expect = vec![1, 3, 4];
        expect.extend(64..131);
        assert_eq!(dirty_blocks(&h), expect);
        // Zeroing and reads never mark anything.
        h.zero_bytes(10 * 256, 256);
        let _ = h.read_bytes(20 * 256, 512);
        let _ = h.bytes_mut(30 * 256, 0);
        assert_eq!(dirty_blocks(&h), expect);
    }

    #[test]
    fn zero_dirty_from_clears_only_written_blocks_past_the_base() {
        let mut h = cube();
        // Clean non-zero bytes (as if materialized, then forgotten).
        h.bytes_mut(0, 1 << 20).fill(0xAB);
        h.zero_dirty_from(1 << 20);
        assert!(dirty_blocks(&h).is_empty());
        assert_eq!(h.read_bytes(0, 1), [0xAB]);
        // A run dirties a block below the base and two past it.
        h.write_u64(256, 1);
        h.write_u64(100 * 256, 2);
        h.write_u64(101 * 256 + 248, 3);
        h.zero_dirty_from(64 * 256);
        assert!(dirty_blocks(&h).is_empty());
        // Below the base: kept.
        assert_eq!(h.read_u64(256), 1);
        // Past the base: the dirty blocks are zero in full ...
        assert!(h.read_bytes(100 * 256, 512).iter().all(|&b| b == 0));
        // ... and clean blocks keep their bytes.
        assert_eq!(h.read_bytes(99 * 256, 256), [0xAB; 256]);
        assert_eq!(h.read_bytes(102 * 256, 256), [0xAB; 256]);
        // A base inside a dirty block zeroes only from the base on.
        h.write_bytes(200 * 256, &[5; 256]);
        h.zero_dirty_from(200 * 256 + 16);
        assert_eq!(h.read_bytes(200 * 256, 16), [5; 16]);
        assert!(h.read_bytes(200 * 256 + 16, 240).iter().all(|&b| b == 0));
    }

    #[test]
    fn finish_adds_background_energy() {
        let mut h = cube();
        let before = h.energy().dram_pj();
        h.finish(1_000_000);
        assert!(h.energy().dram_pj() > before);
    }
}
