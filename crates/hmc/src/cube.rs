//! The assembled cube: links + vaults + functional storage.

use crate::address::AddressMapping;
use crate::config::HmcConfig;
use crate::vault::Vault;
use hipe_sim::{Cycle, ThroughputPipe, WordArea, Words};
use std::ops::Range;
use std::sync::Arc;

/// Bytes of one functional word: the image is addressed, read and
/// written as aligned 8 B words (the shared area stores each at the
/// width its values need).
const WORD_BYTES: u64 = 8;

/// Bytes of one block of the owned area, allocated on its first write.
/// A multiple of the engine's 256 B store, so no store crosses a block,
/// and large enough that the block pointers and the allocator's
/// per-block headers stay small beside the blocks: at SF-10, 256 B
/// blocks peaked 39 MiB higher.
const BLOCK_BYTES: u64 = 4096;

/// Words per owned block.
const BLOCK_WORDS: usize = (BLOCK_BYTES / WORD_BYTES) as usize;

/// One owned block.
type Block = [i64; BLOCK_WORDS];

/// What every owned block reads until something writes it.
static ZERO_BLOCK: Block = [0; BLOCK_WORDS];

/// Bytes of the paper's cube (8 GB): the largest image a cube can
/// back.
pub const CUBE_BYTES: u64 = 8 << 30;

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

/// The Hybrid Memory Cube: timing, functional storage and the activity
/// counters a run's energy is priced from
/// ([`EnergyModel::price`](crate::EnergyModel::price)).
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
/// * [`read_words`](Self::read_words) / [`words_mut`](Self::words_mut)
///   — zero-time functional accesses to the memory image, a word at a
///   time (used to set up workloads and by engines to compute real
///   values).
///
/// A cube is built for one simulation and dropped after it: nothing
/// resets its timing state, counters or output, so no run can see
/// another's.
///
/// The image has two parts. From address 0 sits a read-only area shared
/// with other cubes ([`with_shared`](Self::with_shared)): the table's
/// columns, which no run writes. Above it the cube owns its output
/// area, in 4 KB blocks that are allocated, all zero, on their first
/// write; an unwritten block reads 0 and holds no memory. So a cube
/// costs the vaults' state plus the blocks its run stores to, not the
/// area's size.
///
/// Every word of the image is an 8 B value at an 8 B-aligned address,
/// and the timing model moves 8 B per word. On the host, the shared
/// area is a [`WordArea`]: buffers placed back to back, each storing
/// its words at the width their values need (a table's columns as
/// `u16`, `u8`, `u8` and `i32`), and a read returns them as a
/// [`Words`] view that widens on read. A read stays inside one buffer,
/// and an owned read or write inside one block. The owned area holds
/// full `i64` words, since runs store masks and partial sums there.
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
    /// The read-only words from address 0 up, at their host widths.
    shared: Arc<WordArea>,
    /// The writable words after `shared`, one [`BLOCK_WORDS`] block per
    /// entry: `None` until the block's first write.
    owned: Vec<Option<Box<Block>>>,
    /// Length of the owned area in words.
    owned_words: usize,
    stats: HmcStats,
    /// Per-vault accounting.
    vault_activity: Vec<VaultActivity>,
}

impl Hmc {
    /// Creates a cube with `image_bytes` of functional storage, all of
    /// it owned (writable).
    ///
    /// The timing model covers the full 8 GB address space; only the
    /// first `image_bytes` are backed by real data (enough to hold the
    /// workload tables — the paper's Q6 working set is ~1 GB at SF 1
    /// and proportionally less at reduced scale).
    pub fn new(cfg: HmcConfig, image_bytes: usize) -> Self {
        Hmc::with_shared(cfg, Arc::default(), image_bytes)
    }

    /// Creates a cube whose `image_bytes` of functional storage start
    /// with `shared`, a read-only area other cubes may share, followed
    /// by an owned, zeroed area up to `image_bytes`. Word `a / 8` of
    /// `shared` holds the 8 B word at address `a`; each is stored at
    /// its buffer's width and widened on read.
    ///
    /// # Panics
    ///
    /// Panics if the shared area is longer than `image_bytes`.
    pub fn with_shared(cfg: HmcConfig, shared: Arc<WordArea>, image_bytes: usize) -> Self {
        let shared_bytes = shared.len() * WORD_BYTES as usize;
        assert!(
            shared_bytes <= image_bytes,
            "the shared area ({shared_bytes} B) exceeds the image ({image_bytes} B)"
        );
        let owned_words = (image_bytes - shared_bytes).div_ceil(WORD_BYTES as usize);
        let (num, den) = cfg.link_rate();
        // Every vault starts as a copy of one, which builds the latency
        // table once per cube.
        let vaults = vec![Vault::new(&cfg); cfg.vaults];
        Hmc {
            mapping: AddressMapping::new(&cfg),
            vaults,
            req_link: ThroughputPipe::new(num, den, cfg.link_latency),
            rsp_link: ThroughputPipe::new(num, den, cfg.link_latency),
            shared,
            // One null pointer per block: no block memory yet.
            owned: vec![None; owned_words.div_ceil(BLOCK_WORDS)],
            owned_words,
            stats: HmcStats::default(),
            vault_activity: vec![VaultActivity::default(); cfg.vaults],
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

        // Bank phase.
        let mut done = self.bank_phase(at_cube, addr, bytes, matches!(kind, AccessKind::Write));

        // PIM operation executes in the vault functional unit after the
        // data is out of the bank.
        if let AccessKind::PimOp { .. } = kind {
            let loc = self.mapping.locate(addr);
            done = self.vaults[loc.vault].execute_fu(done, self.cfg.vault_fu_latency);
            self.stats.fu_ops += 1;
        }

        // Response packet.
        let rsp_bytes = match kind {
            AccessKind::Read => header + bytes,
            AccessKind::Write => header,
            AccessKind::PimOp { result_bytes } => header + result_bytes,
        };
        let at_host = self.rsp_link.transfer(done, rsp_bytes);
        self.stats.link_bytes += rsp_bytes;
        Response { complete: at_host }
    }

    /// Transfers a host-to-cube packet of `bytes` over the request link
    /// without touching DRAM; returns the cycle it arrives at the cube.
    ///
    /// Used for logic-layer instruction dispatch: the packet terminates
    /// at the logic-layer engine, so no bank is involved.
    pub fn link_request(&mut self, cycle: Cycle, bytes: u64) -> Cycle {
        self.stats.link_bytes += bytes;
        self.req_link.transfer(cycle, bytes)
    }

    /// Transfers a cube-to-host packet of `bytes` over the response link
    /// without touching DRAM; returns the cycle it arrives at the host.
    ///
    /// Used for the logic-layer engine's unlock acknowledgement.
    pub fn link_response(&mut self, cycle: Cycle, bytes: u64) -> Cycle {
        self.stats.link_bytes += bytes;
        self.rsp_link.transfer(cycle, bytes)
    }

    /// Performs a logic-layer access (HIVE/HIPE engine): touches the
    /// banks directly, bypassing the links.
    pub fn internal_read(&mut self, cycle: Cycle, addr: u64, bytes: u64) -> Cycle {
        self.bank_phase(cycle, addr, bytes, false)
    }

    /// Logic-layer write path; see [`internal_read`](Self::internal_read).
    pub fn internal_write(&mut self, cycle: Cycle, addr: u64, bytes: u64) -> Cycle {
        self.bank_phase(cycle, addr, bytes, true)
    }

    /// Issues one bank access per row-buffer segment of the range at
    /// `cycle`; returns when the last one completes (`cycle` if none).
    fn bank_phase(&mut self, cycle: Cycle, addr: u64, bytes: u64, write: bool) -> Cycle {
        let mapping = self.mapping;
        mapping.split(addr, bytes).fold(cycle, |done, (a, l)| {
            done.max(self.bank_access(cycle, a, l, write))
        })
    }

    fn bank_access(&mut self, cycle: Cycle, addr: u64, bytes: u64, write: bool) -> Cycle {
        let loc = self.mapping.locate(addr);
        let done = self.vaults[loc.vault].access(cycle, loc.bank, bytes, write);
        self.stats.activations += 1;
        self.vault_activity[loc.vault].activations += 1;
        if write {
            self.stats.bytes_written += bytes;
            self.vault_activity[loc.vault].bytes_written += bytes;
        } else {
            self.stats.bytes_read += bytes;
            self.vault_activity[loc.vault].bytes_read += bytes;
        }
        done
    }

    /// Counts one logic-layer ALU operation in [`HmcStats::fu_ops`]
    /// (used by the HIVE/HIPE engine models).
    pub fn charge_logic_op(&mut self) {
        self.stats.fu_ops += 1;
    }

    /// Functional read of `words` aligned words at `addr`, from
    /// whichever buffer of the shared area, or block of the owned area,
    /// holds them: a view at that buffer's width. An owned block
    /// nothing wrote reads 0, and the read allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not word-aligned, or if the range is outside
    /// the image, straddles two shared buffers, straddles the owned
    /// base or crosses an owned block boundary.
    pub fn read_words(&self, addr: u64, words: usize) -> Words<'_> {
        let w = word_index(addr);
        if w >= self.shared.len() {
            let (block, range) = self.owned_span(addr, words);
            let block = self.owned.get(block).and_then(Option::as_deref);
            return Words::I64(&block.unwrap_or(&ZERO_BLOCK)[range]);
        }
        let rest = self
            .shared
            .words_from(w)
            .expect("a word below the owned base");
        if words > rest.len() {
            let end = w + rest.len();
            let boundary = if end == self.shared.len() {
                "the owned base"
            } else {
                "a shared buffer boundary"
            };
            panic!(
                "read of {words} words at {addr:#x} straddles {boundary} at {:#x}",
                end as u64 * WORD_BYTES
            );
        }
        rest.slice(..words)
    }

    /// Functional read of the word at `addr`; see
    /// [`read_words`](Self::read_words).
    pub fn read_word(&self, addr: u64) -> i64 {
        self.read_words(addr, 1).get(0)
    }

    /// Mutable functional view of `words` owned words at `addr` — the
    /// write path: producers (engine stores) encode straight into the
    /// cube's memory. Allocates the block, all zero, if nothing wrote
    /// it yet.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not word-aligned, lies in the shared area,
    /// or the range is outside the image or crosses an owned block
    /// boundary.
    pub fn words_mut(&mut self, addr: u64, words: usize) -> &mut [i64] {
        if word_index(addr) < self.shared.len() {
            panic!("write at {addr:#x} into the shared read-only area");
        }
        let (block, range) = self.owned_span(addr, words);
        let block = self.owned[block].get_or_insert_with(|| Box::new([0; BLOCK_WORDS]));
        &mut block[range]
    }

    /// Functional write of the word `v` at `addr`; see
    /// [`words_mut`](Self::words_mut).
    pub fn write_word(&mut self, addr: u64, v: i64) {
        self.words_mut(addr, 1)[0] = v;
    }

    /// The read-only area: word `a / 8` holds address `a`.
    pub fn shared(&self) -> &Arc<WordArea> {
        &self.shared
    }

    /// The owned block holding the aligned address `addr`, and the
    /// `words` words from `addr` as a range inside that block.
    ///
    /// # Panics
    ///
    /// Panics if the range is outside the image or crosses a block
    /// boundary.
    fn owned_span(&self, addr: u64, words: usize) -> (usize, Range<usize>) {
        let o = word_index(addr) - self.shared.len();
        assert!(o + words <= self.owned_words, "access past the image");
        let (block, at) = (o / BLOCK_WORDS, o % BLOCK_WORDS);
        assert!(
            at + words <= BLOCK_WORDS,
            "{words} words at {addr:#x} cross a {BLOCK_BYTES} B block boundary"
        );
        (block, at..at + words)
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

    /// Total bank busy cycles across the cube (utilization diagnostics).
    pub fn bank_busy_cycles(&self) -> Cycle {
        self.vaults.iter().map(Vault::bank_busy_cycles).sum()
    }
}

/// The word index of `addr`.
///
/// # Panics
///
/// Panics if `addr` is not word-aligned.
fn word_index(addr: u64) -> usize {
    assert!(
        addr.is_multiple_of(WORD_BYTES),
        "unaligned functional access at {addr:#x}"
    );
    (addr / WORD_BYTES) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EnergyBreakdown, EnergyModel};
    use hipe_sim::WordVec;

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
        h.write_word(0x100, 0x0EAD_BEEF_0BAD_F00D);
        h.write_word(0x108, -7);
        assert_eq!(h.read_word(0x100), 0x0EAD_BEEF_0BAD_F00D);
        assert!(h
            .read_words(0x100, 2)
            .iter()
            .eq([0x0EAD_BEEF_0BAD_F00D, -7]));
    }

    /// A 64-word shared area (2 blocks) whose word `i` holds `i`: one
    /// block of `u8` words, then one of `u16` words.
    fn shared_area() -> Arc<WordArea> {
        Arc::new(WordArea::new(vec![
            WordVec::U8((0..32).collect()),
            WordVec::U16((32..64).collect()),
        ]))
    }

    /// A cube over [`shared_area`] (512 B) and 3 owned blocks.
    fn shared_cube() -> Hmc {
        Hmc::with_shared(
            HmcConfig::paper(),
            shared_area(),
            512 + 3 * BLOCK_BYTES as usize,
        )
    }

    #[test]
    fn reads_span_both_areas_and_writes_only_the_owned_one() {
        let mut h = shared_cube();
        assert_eq!(h.read_word(8 * 63), 63);
        assert!(h.read_words(16, 3).iter().eq([2, 3, 4]));
        assert!(h.read_words(512, 32).iter().all(|v| v == 0));
        h.write_word(512, 9);
        assert_eq!(h.read_word(512), 9);
        // Two cubes over one shared area read the same buffer.
        let other = Hmc::with_shared(HmcConfig::paper(), Arc::clone(h.shared()), 1024);
        assert!(Arc::ptr_eq(h.shared(), other.shared()));
        assert_eq!(other.read_word(8), 1);
    }

    /// How many owned blocks hold memory.
    fn allocated_blocks(h: &Hmc) -> usize {
        h.owned.iter().filter(|b| b.is_some()).count()
    }

    #[test]
    fn the_owned_area_is_allocated_on_first_access() {
        // The first access that allocates is a block's first write: a
        // read allocates nothing.
        let mut h = shared_cube();
        let (block, end) = (512 + BLOCK_BYTES, 512 + 3 * BLOCK_BYTES);
        // Unwritten blocks read 0 and allocate nothing.
        assert!(h.read_words(512, BLOCK_WORDS).iter().all(|v| v == 0));
        assert_eq!(h.read_word(end - 8), 0);
        assert_eq!(allocated_blocks(&h), 0);
        // A write allocates exactly its block; its neighbours still read
        // 0 from no memory of their own.
        h.write_word(block + 8, -3);
        assert_eq!(allocated_blocks(&h), 1);
        assert!(h.owned[1].is_some());
        assert!(h.read_words(block, 3).iter().eq([0, -3, 0]));
        assert!(h.read_words(512, BLOCK_WORDS).iter().all(|v| v == 0));
        // A whole-block store fills the same one block.
        h.words_mut(block, BLOCK_WORDS).fill(7);
        assert_eq!(allocated_blocks(&h), 1);
        assert!(h.read_words(block, BLOCK_WORDS).iter().all(|v| v == 7));
    }

    #[test]
    #[should_panic(expected = "cross a 4096 B block boundary")]
    fn owned_reads_crossing_a_block_boundary_panic() {
        let _ = shared_cube().read_words(512 + BLOCK_BYTES - 8, 2);
    }

    #[test]
    #[should_panic(expected = "cross a 4096 B block boundary")]
    fn owned_writes_crossing_a_block_boundary_panic() {
        let _ = shared_cube().words_mut(512 + 8, BLOCK_WORDS);
    }

    #[test]
    #[should_panic(expected = "straddles the owned base at 0x200")]
    fn reads_straddling_the_owned_base_panic() {
        let _ = shared_cube().read_words(8 * 62, 3);
    }

    #[test]
    #[should_panic(expected = "straddles a shared buffer boundary at 0x100")]
    fn reads_straddling_two_shared_buffers_panic() {
        let _ = shared_cube().read_words(8 * 31, 2);
    }

    #[test]
    fn words_widen_either_area() {
        let area = WordArea::new(vec![
            WordVec::U8(vec![0, u8::MAX]),
            WordVec::U16(vec![u16::MAX]),
            WordVec::I32(vec![i32::MIN, -1, i32::MAX]),
        ]);
        let mut h = Hmc::with_shared(HmcConfig::paper(), Arc::new(area), 64);
        h.write_word(48, i64::MIN);
        assert_eq!(h.read_words(0, 2), Words::U8(&[0, u8::MAX]));
        assert_eq!(h.read_words(16, 1), Words::U16(&[u16::MAX]));
        let shared = h.read_words(24, 3);
        assert!(matches!(shared, Words::I32(_)));
        assert!(shared.iter().eq([i32::MIN.into(), -1, i32::MAX.into()]));
        assert_eq!(h.read_word(8), 255);
        assert_eq!(h.read_word(16), 65_535);
        let owned = h.read_words(48, 2);
        assert!(matches!(owned, Words::I64(_)));
        assert!(owned.iter().eq([i64::MIN, 0]));
        assert!(h.read_words(8, 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "shared read-only area")]
    fn writes_into_the_shared_area_panic() {
        shared_cube().write_word(504, 1);
    }

    #[test]
    #[should_panic(expected = "exceeds the image")]
    fn a_shared_area_longer_than_the_image_is_rejected() {
        let _ = Hmc::with_shared(HmcConfig::paper(), shared_area(), 504);
    }

    #[test]
    #[should_panic(expected = "unaligned functional access")]
    fn unaligned_functional_reads_panic() {
        let _ = cube().read_word(4);
    }

    #[test]
    fn write_energy_differs_from_read() {
        let mut h = cube();
        let m = EnergyModel::paper();
        h.internal_write(0, 0, 256);
        let wr = m.price(&h.stats(), 0, 0);
        let mut h2 = cube();
        h2.internal_read(0, 0, 256);
        let rd = m.price(&h2.stats(), 0, 0);
        assert!(wr.dram_pj() > rd.dram_pj());
    }

    #[test]
    fn words_mut_writes_through_to_the_image() {
        let mut h = cube();
        h.words_mut(0x40, 2).copy_from_slice(&[99, -1]);
        assert_eq!(h.read_word(0x40), 99);
        assert!(h.read_words(0x40, 2).iter().eq([99, -1]));
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
    fn counted_energy_matches_running_sums_bit_for_bit() {
        // The reference charges every event as it happens, in whole
        // tenths of a pJ, the way a running account would; the cube
        // only counts, and its counters are priced once at the end.
        let mut h = cube();
        let m = EnergyModel::paper();
        let header = h.config().packet_header_bytes;
        let mut reference = EnergyBreakdown::default();
        let banks = |e: &mut EnergyBreakdown, h: &Hmc, addr: u64, bytes: u64, write: bool| {
            for (_, l) in h.mapping().split(addr, bytes) {
                e.activate += m.activate_dpj;
                if write {
                    e.write += m.write_dpj_per_byte * l;
                } else {
                    e.read += m.read_dpj_per_byte * l;
                }
            }
        };
        let mut state = 0x2018u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let (mut cycle, mut lookups) = (0, 0);
        for _ in 0..20_000 {
            let r = next();
            // Up to 64 KiB anywhere in the 8 GB space, unaligned: most
            // accesses split into several bank requests.
            let addr = next() % (CUBE_BYTES - (1 << 16));
            let bytes = 1 + next() % (1 << 16);
            match r % 8 {
                0 => {
                    h.access(cycle, addr, bytes, AccessKind::Read);
                    reference.link += m.link_dpj_per_byte * header;
                    banks(&mut reference, &h, addr, bytes, false);
                    reference.link += m.link_dpj_per_byte * (header + bytes);
                }
                1 => {
                    h.access(cycle, addr, bytes, AccessKind::Write);
                    reference.link += m.link_dpj_per_byte * (header + bytes);
                    banks(&mut reference, &h, addr, bytes, true);
                    reference.link += m.link_dpj_per_byte * header;
                }
                2 => {
                    let result_bytes = 1 + r % 32;
                    h.access(cycle, addr, bytes, AccessKind::PimOp { result_bytes });
                    reference.link += m.link_dpj_per_byte * header;
                    banks(&mut reference, &h, addr, bytes, false);
                    reference.logic += m.fu_op_dpj;
                    reference.link += m.link_dpj_per_byte * (header + result_bytes);
                }
                3 => {
                    h.internal_read(cycle, addr, bytes);
                    banks(&mut reference, &h, addr, bytes, false);
                }
                4 => {
                    h.internal_write(cycle, addr, bytes);
                    banks(&mut reference, &h, addr, bytes, true);
                }
                5 => {
                    h.link_request(cycle, bytes);
                    h.link_response(cycle, header);
                    reference.link += m.link_dpj_per_byte * bytes;
                    reference.link += m.link_dpj_per_byte * header;
                }
                6 => {
                    h.charge_logic_op();
                    reference.logic += m.fu_op_dpj;
                }
                _ => {
                    // Processor-side cache lookups: counted outside the
                    // cube, priced beside its counters.
                    lookups += r % 5;
                    reference.cache += m.cache_lookup_dpj * (r % 5);
                }
            }
            reference.background += m.background_dpj_per_cyc * (r % 97);
            cycle += r % 97;
        }
        let e = m.price(&h.stats(), lookups, cycle);
        assert_eq!(e, reference);
        for (name, got, want) in [
            ("dram", e.dram_pj(), reference.dram_pj()),
            ("link", e.link_pj(), reference.link_pj()),
            ("logic", e.logic_pj(), reference.logic_pj()),
            ("cache", e.cache_pj(), reference.cache_pj()),
            ("total", e.total_pj(), reference.total_pj()),
        ] {
            assert_eq!(got.to_bits(), want.to_bits(), "{name}: {got} vs {want}");
        }
        // Every term is well past one event's cost, and writes (4.4
        // pJ/B) happened.
        assert!(e.link_pj() > 1e9, "{e}");
        assert!(e.cache_pj() > 0.0 && e.logic_pj() > 0.0, "{e}");
        assert!(h.stats().bytes_written > 0);
    }
}
