//! Per-vault timing: command queue, banks, functional unit.

use crate::config::HmcConfig;
use hipe_sim::{Cycle, Server, Window};

/// One HMC vault: a memory controller slice with its own command
/// queue, eight DRAM banks and (for PIM operation) a small functional
/// unit next to the banks.
///
/// Timing model (closed-page policy, as in the paper):
///
/// * every access activates its row, bursts data and precharges;
/// * the *requester-visible* latency is
///   [`HmcConfig::closed_page_read_latency`] (`tRCD + tCL + burst`) or
///   [`HmcConfig::closed_page_write_latency`] (`tRCD + tCWD + burst`),
///   looked up per access in a table built from them at construction;
/// * the *bank* stays occupied for `max(visible, tRAS + tRP)` — the
///   bank cycle time — which is what bounds per-bank throughput;
/// * the vault's command queue admits a bounded number of outstanding
///   requests, modelling the controller's queue depth.
#[derive(Debug, Clone)]
pub struct Vault {
    banks: Vec<Server>,
    queue: Window,
    fu: Server,
    bank_cycle: Cycle,
    /// Visible latency by `[write][ceil(bytes / granule)]`, for
    /// accesses of up to one row buffer.
    latency: [[Cycle; LATENCY_SLOTS]; 2],
    /// log2 of the table's byte granule, `row_buffer_bytes / 32`.
    granule_bits: u32,
    row_bytes: u64,
}

/// Latency table entries per access kind: sizes 0 and 1..=32 granules.
const LATENCY_SLOTS: usize = 33;

impl Vault {
    /// Creates an idle vault from the cube configuration.
    ///
    /// # Panics
    ///
    /// Panics unless `row_buffer_bytes` is a power of two and
    /// `2 × burst_bytes` is a multiple of `row_buffer_bytes / 32`: the
    /// latency table then has one exact entry per 1/32 of a row.
    pub fn new(cfg: &HmcConfig) -> Self {
        let row = cfg.row_buffer_bytes;
        let granule_bits = row.trailing_zeros().saturating_sub(5);
        assert!(
            row.is_power_of_two() && (2 * cfg.burst_bytes).is_multiple_of(1 << granule_bits),
            "no exact latency table for {row} B rows of {} B bursts",
            cfg.burst_bytes
        );
        let latency = [false, true].map(|write| {
            std::array::from_fn(|i| {
                let bytes = ((i as u64) << granule_bits).min(row);
                match write {
                    false => cfg.closed_page_read_latency(bytes),
                    true => cfg.closed_page_write_latency(bytes),
                }
            })
        });
        Vault {
            banks: vec![Server::new(); cfg.banks_per_vault],
            queue: Window::new(cfg.vault_queue),
            fu: Server::new(),
            bank_cycle: cfg.bank_cycle_time(),
            latency,
            granule_bits,
            row_bytes: row,
        }
    }

    /// Performs one bank access arriving at `cycle`; returns the cycle
    /// at which data is available (read) or durably written (write).
    ///
    /// `bank` must be within the vault; `bytes` is clamped to one row
    /// buffer (callers split larger ranges).
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn access(&mut self, cycle: Cycle, bank: usize, bytes: u64, write: bool) -> Cycle {
        let admitted = self.queue.admit(cycle);
        let granules =
            (bytes.min(self.row_bytes) + (1 << self.granule_bits) - 1) >> self.granule_bits;
        let visible = self.latency[write as usize][granules as usize];
        let occupancy = visible.max(self.bank_cycle);
        let (start, _) = self.banks[bank].serve_pipelined(admitted, occupancy, occupancy);
        let done = start + visible;
        self.queue.complete(done);
        done
    }

    /// Runs the per-vault functional unit for `latency` CPU cycles
    /// starting when its input is ready at `cycle`.
    pub fn execute_fu(&mut self, cycle: Cycle, latency: Cycle) -> Cycle {
        self.fu.serve(cycle, latency).1
    }

    /// The bank cycle time (per-bank occupancy of one access).
    pub fn bank_cycle_time(&self) -> Cycle {
        self.bank_cycle
    }

    /// Total accesses served by this vault's banks.
    pub fn accesses(&self) -> u64 {
        self.banks.iter().map(Server::served).sum()
    }

    /// Total busy cycles across this vault's banks.
    pub fn bank_busy_cycles(&self) -> Cycle {
        self.banks.iter().map(Server::busy_cycles).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vault() -> Vault {
        Vault::new(&HmcConfig::paper())
    }

    #[test]
    fn single_access_latency_matches_config() {
        let cfg = HmcConfig::paper();
        let mut v = vault();
        let done = v.access(0, 0, 256, false);
        assert_eq!(done, cfg.closed_page_read_latency(256));
    }

    #[test]
    fn latency_table_matches_the_config_formula_at_every_size() {
        for (row, burst) in [(256, 8), (256, 4), (512, 16), (16, 1), (32, 3)] {
            let cfg = HmcConfig {
                row_buffer_bytes: row,
                burst_bytes: burst,
                ..HmcConfig::paper()
            };
            // Sizes past the row buffer are clamped to it.
            for bytes in 1..=row + 8 {
                for write in [false, true] {
                    let expected = match write {
                        false => cfg.closed_page_read_latency(bytes),
                        true => cfg.closed_page_write_latency(bytes),
                    };
                    let mut v = Vault::new(&cfg);
                    assert_eq!(
                        v.access(0, 0, bytes, write),
                        expected,
                        "{row}/{burst}: {bytes} B"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "no exact latency table for 256 B rows of 2 B bursts")]
    fn bursts_finer_than_the_table_granule_panic() {
        let cfg = HmcConfig {
            burst_bytes: 2,
            ..HmcConfig::paper()
        };
        let _ = Vault::new(&cfg);
    }

    #[test]
    fn same_bank_accesses_serialize_at_bank_cycle_time() {
        let cfg = HmcConfig::paper();
        let mut v = vault();
        let d1 = v.access(0, 0, 256, false);
        let d2 = v.access(0, 0, 256, false);
        // The second access starts once the bank frees: after the
        // larger of the visible latency and the bank cycle time.
        assert_eq!(d2 - d1, cfg.bank_cycle_time().max(d1));
    }

    #[test]
    fn different_banks_overlap() {
        let mut v = vault();
        let d1 = v.access(0, 0, 256, false);
        let d2 = v.access(0, 1, 256, false);
        assert_eq!(d1, d2);
    }

    #[test]
    fn writes_use_cwd() {
        let cfg = HmcConfig::paper();
        let mut v = vault();
        let wr = v.access(0, 0, 256, true);
        assert_eq!(wr, cfg.closed_page_write_latency(256));
        // CWD (7) < CAS (9): writes complete slightly sooner.
        assert!(wr < cfg.closed_page_read_latency(256));
    }

    #[test]
    fn queue_depth_limits_outstanding() {
        let cfg = HmcConfig::paper();
        let mut v = vault();
        // Flood one vault: with queue depth Q and 8 banks, the 8 first
        // requests proceed in parallel; far more than Q requests must
        // observe queueing delay.
        let mut last = 0;
        for i in 0..64 {
            let bank = i % cfg.banks_per_vault;
            last = v.access(0, bank, 256, false);
        }
        // 64 requests / 8 banks = 8 bank cycles of depth.
        assert!(last >= 8 * cfg.bank_cycle_time());
    }

    #[test]
    fn fu_serializes() {
        let mut v = vault();
        let a = v.execute_fu(0, 1);
        let b = v.execute_fu(0, 1);
        assert_eq!((a, b), (1, 2));
    }
}
