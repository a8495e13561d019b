//! HMC configuration parameters (paper Table I).

use hipe_sim::{ClockDomain, Cycle, Freq};

/// DRAM timing parameters in native DRAM cycles.
///
/// The paper's Table I gives `CAS, RP, RCD, RAS, CWD = 9-9-9-24-7` at
/// 166 MHz for the HMC's internal DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramTimings {
    /// Column access strobe latency (read).
    pub cas: Cycle,
    /// Row precharge.
    pub rp: Cycle,
    /// Row-to-column delay (activate).
    pub rcd: Cycle,
    /// Row active time (minimum activate-to-precharge).
    pub ras: Cycle,
    /// Column write delay.
    pub cwd: Cycle,
}

impl DramTimings {
    /// The paper's 9-9-9-24-7 timings.
    pub fn paper() -> Self {
        DramTimings {
            cas: 9,
            rp: 9,
            rcd: 9,
            ras: 24,
            cwd: 7,
        }
    }
}

impl Default for DramTimings {
    fn default() -> Self {
        DramTimings::paper()
    }
}

/// Full configuration of the HMC cube.
///
/// # Example
///
/// ```
/// use hipe_hmc::HmcConfig;
/// let cfg = HmcConfig::paper();
/// assert_eq!(cfg.vaults, 32);
/// assert_eq!(cfg.banks_per_vault, 8);
/// assert_eq!(cfg.row_buffer_bytes, 256);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HmcConfig {
    /// Number of vaults (32 in HMC v2.1).
    pub vaults: usize,
    /// DRAM banks per vault (8).
    pub banks_per_vault: usize,
    /// Row buffer size in bytes (256).
    pub row_buffer_bytes: u64,
    /// DRAM core frequency.
    pub dram_freq: Freq,
    /// Reference CPU frequency used for cycle conversion.
    pub cpu_freq: Freq,
    /// DRAM timing parameters (native DRAM cycles).
    pub timings: DramTimings,
    /// Number of external serial links (4).
    pub links: usize,
    /// Link frequency (8 GHz).
    pub link_freq: Freq,
    /// Effective payload bytes per link per link-cycle.
    ///
    /// HMC gen2 links are 16-lane full-duplex; after 8b/10b-style
    /// overhead and flow control we model 1 payload byte per link-cycle
    /// per direction, i.e. 8 GB/s per link, 32 GB/s aggregate each way —
    /// in line with published effective HMC bandwidth.
    pub link_bytes_per_cycle: u64,
    /// Fixed one-way link + SerDes + controller latency, CPU cycles.
    pub link_latency: Cycle,
    /// Request/response packet header+tail overhead, bytes (16 B flits).
    pub packet_header_bytes: u64,
    /// Data burst width in bytes at the vault (8 B per Table I).
    pub burst_bytes: u64,
    /// Latency of the per-vault functional unit, CPU cycles (1).
    pub vault_fu_latency: Cycle,
    /// Maximum operand size of a native HMC/logic-layer operation.
    pub max_op_bytes: u64,
    /// Per-vault request queue depth (outstanding bank requests).
    pub vault_queue: usize,
}

impl HmcConfig {
    /// The configuration of Table I of the paper.
    pub fn paper() -> Self {
        HmcConfig {
            vaults: 32,
            banks_per_vault: 8,
            row_buffer_bytes: 256,
            dram_freq: Freq::mhz(166),
            cpu_freq: Freq::mhz(2000),
            timings: DramTimings::paper(),
            links: 4,
            link_freq: Freq::ghz(8),
            link_bytes_per_cycle: 1,
            link_latency: 20,
            packet_header_bytes: 16,
            burst_bytes: 8,
            vault_fu_latency: 1,
            max_op_bytes: 256,
            vault_queue: 16,
        }
    }

    /// Clock-domain converter from DRAM to CPU cycles.
    pub fn dram_domain(&self) -> ClockDomain {
        ClockDomain::new(self.dram_freq, self.cpu_freq)
    }

    /// Closed-page read latency of one row-buffer-sized access, in CPU
    /// cycles: activate (tRCD) + column read (tCL) + data burst.
    pub fn closed_page_read_latency(&self, bytes: u64) -> Cycle {
        self.closed_page_latency(self.timings.cas, bytes)
    }

    /// Closed-page write latency (tRCD + tCWD + burst), CPU cycles.
    pub fn closed_page_write_latency(&self, bytes: u64) -> Cycle {
        self.closed_page_latency(self.timings.cwd, bytes)
    }

    /// tRCD + `column` + the data burst of `bytes` (capped at the row
    /// buffer), CPU cycles.
    fn closed_page_latency(&self, column: Cycle, bytes: u64) -> Cycle {
        let bursts = bytes.min(self.row_buffer_bytes).div_ceil(self.burst_bytes);
        // Data is transferred at a 2:1 core-to-bus frequency ratio, i.e.
        // two bursts per DRAM core cycle.
        self.dram_domain()
            .to_cpu(self.timings.rcd + column + bursts.div_ceil(2))
    }

    /// Minimum bank cycle time between two activates of the same bank
    /// (tRAS + tRP), CPU cycles. This is the bank occupancy of one
    /// closed-page access.
    pub fn bank_cycle_time(&self) -> Cycle {
        let d = self.dram_domain();
        d.to_cpu(self.timings.ras + self.timings.rp)
    }

    /// Aggregate link payload bandwidth in bytes per CPU cycle
    /// (numerator, denominator).
    pub fn link_rate(&self) -> (u64, u64) {
        // bytes per CPU cycle = links * bytes_per_link_cycle * f_link/f_cpu
        let num = self.links as u64 * self.link_bytes_per_cycle * self.link_freq.as_mhz();
        let den = self.cpu_freq.as_mhz();
        (num, den)
    }
}

impl Default for HmcConfig {
    fn default() -> Self {
        HmcConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry() {
        let c = HmcConfig::paper();
        assert_eq!((c.vaults, c.banks_per_vault), (32, 8));
        assert_eq!(c.timings, DramTimings::paper());
    }

    #[test]
    fn closed_page_latency_is_hundreds_of_cpu_cycles() {
        let c = HmcConfig::paper();
        let lat = c.closed_page_read_latency(256);
        // tRCD + tCL = 18 DRAM cycles ~ 217 CPU cycles, plus a 16-DRAM-
        // cycle burst for 256 B.
        assert!(lat > 200 && lat < 450, "latency {lat}");
    }

    #[test]
    fn bank_cycle_time_close_to_400_cpu_cycles() {
        let c = HmcConfig::paper();
        let t = c.bank_cycle_time();
        // (24 + 9) DRAM cycles at ~12 CPU cycles each.
        assert!(t > 350 && t < 450, "bank cycle {t}");
    }

    #[test]
    fn link_rate_is_16_bytes_per_cpu_cycle() {
        let c = HmcConfig::paper();
        let (num, den) = c.link_rate();
        assert_eq!(num / den, 16);
    }

    #[test]
    fn small_access_still_pays_activate() {
        let c = HmcConfig::paper();
        let small = c.closed_page_read_latency(16);
        let big = c.closed_page_read_latency(256);
        assert!(small <= big);
        // The fixed activate+CAS dominates: a 16 B read still costs more
        // than half of a full 256 B read.
        assert!(small * 2 >= big);
    }
}
