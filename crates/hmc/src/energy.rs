//! Event-count DRAM and link energy model.
//!
//! The paper reports *relative* DRAM energy (HIPE saves ~3-5 % versus
//! the baselines). The authors used SiNUCA's internal power model; we
//! substitute an event-count model with constants drawn from public
//! DDR3/HMC literature (Jeddeloh & Keeth VLSI'12 report ~10.48 pJ/bit
//! for the full HMC path; DRAMPower-style splits for the core). Since
//! every architecture is charged by the same constants, relative
//! comparisons survive any uniform rescaling.
//!
//! Energy is a price of the counters a run already reports: the cube
//! keeps no energy account. Every constant is a whole number of tenths
//! of a picojoule, so [`EnergyModel::price`] prices a run's counters
//! exactly, in integers, whatever their size.

use crate::cube::HmcStats;
use hipe_sim::Cycle;
use hipe_trace::Value;

/// Energy constants, in tenths of a picojoule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnergyModel {
    /// One row activation + precharge pair (per 256 B row).
    pub activate_dpj: u64,
    /// Per byte of a column read burst.
    pub read_dpj_per_byte: u64,
    /// Per byte of a column write burst.
    pub write_dpj_per_byte: u64,
    /// Per byte moved across the serial links (SerDes).
    pub link_dpj_per_byte: u64,
    /// Per logic-layer or vault functional-unit operation.
    pub fu_op_dpj: u64,
    /// Per processor-side cache lookup (any level).
    pub cache_lookup_dpj: u64,
    /// DRAM background power per CPU cycle (standby, refresh), for the
    /// whole cube.
    pub background_dpj_per_cyc: u64,
}

impl EnergyModel {
    /// Literature-derived default constants.
    pub const fn paper() -> Self {
        EnergyModel {
            activate_dpj: 9000,         // 900 pJ: one ACT+PRE pair, 256 B row
            read_dpj_per_byte: 40,      // 4 pJ/B: DRAM core column read
            write_dpj_per_byte: 44,     // 4.4 pJ/B: DRAM core column write
            link_dpj_per_byte: 120,     // 12 pJ/B: SerDes dominates HMC energy
            fu_op_dpj: 600,             // 60 pJ: 256 B wide ALU op at 1 GHz
            cache_lookup_dpj: 500,      // 50 pJ: SRAM lookup, line granularity
            background_dpj_per_cyc: 15, // 1.5 pJ: cube standby+refresh at 2 GHz
        }
    }

    /// The energy of a run that moved `hmc`'s cube counters, probed
    /// the processor caches `cache_lookups` times and lasted `cycles`.
    pub fn price(&self, hmc: &HmcStats, cache_lookups: u64, cycles: Cycle) -> EnergyBreakdown {
        EnergyBreakdown {
            activate: self.activate_dpj * hmc.activations,
            read: self.read_dpj_per_byte * hmc.bytes_read,
            write: self.write_dpj_per_byte * hmc.bytes_written,
            background: self.background_dpj_per_cyc * cycles,
            link: self.link_dpj_per_byte * hmc.link_bytes,
            logic: self.fu_op_dpj * hmc.fu_ops,
            cache: self.cache_lookup_dpj * cache_lookups,
        }
    }

    /// The constants as one JSON object, members in name order, each
    /// an integer number of tenths of a pJ: `energy.activate_dpj`,
    /// `energy.background_dpj_per_cyc`, `energy.cache_lookup_dpj`,
    /// `energy.fu_op_dpj`, `energy.link_dpj_per_byte`,
    /// `energy.read_dpj_per_byte` and `energy.write_dpj_per_byte`. The
    /// figures file and the service trace carry it under `machine.`,
    /// so a reader can re-price every run from its counters.
    pub fn metrics(&self) -> Value {
        Value::object([
            ("energy.activate_dpj", self.activate_dpj.into()),
            (
                "energy.background_dpj_per_cyc",
                self.background_dpj_per_cyc.into(),
            ),
            ("energy.cache_lookup_dpj", self.cache_lookup_dpj.into()),
            ("energy.fu_op_dpj", self.fu_op_dpj.into()),
            ("energy.link_dpj_per_byte", self.link_dpj_per_byte.into()),
            ("energy.read_dpj_per_byte", self.read_dpj_per_byte.into()),
            ("energy.write_dpj_per_byte", self.write_dpj_per_byte.into()),
        ])
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::paper()
    }
}

/// A run's energy by component, in whole tenths of a pJ; read in pJ.
///
/// # Example
///
/// ```
/// use hipe_hmc::{EnergyModel, HmcStats};
/// // One 256 B row read over the links with a 16 B header each way.
/// let hmc = HmcStats {
///     activations: 1,
///     bytes_read: 256,
///     link_bytes: 16 + 16 + 256,
///     ..HmcStats::default()
/// };
/// let e = EnergyModel::paper().price(&hmc, 0, 100);
/// assert_eq!(e.dram_pj(), 900.0 + 4.0 * 256.0 + 1.5 * 100.0);
/// assert_eq!(e.link_pj(), 12.0 * 288.0);
/// assert_eq!(e.total_pj(), e.dram_pj() + e.link_pj());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnergyBreakdown {
    pub(crate) activate: u64,
    pub(crate) read: u64,
    pub(crate) write: u64,
    pub(crate) background: u64,
    pub(crate) link: u64,
    pub(crate) logic: u64,
    pub(crate) cache: u64,
}

/// Tenths of a pJ in pJ.
fn pj(dpj: u64) -> f64 {
    dpj as f64 / 10.0
}

impl EnergyBreakdown {
    /// DRAM-only energy (activate + read + write + background), pJ.
    /// This is the quantity behind the paper's "DRAM energy savings".
    pub fn dram_pj(&self) -> f64 {
        pj(self.activate + self.read + self.write + self.background)
    }

    /// Link energy, pJ.
    pub fn link_pj(&self) -> f64 {
        pj(self.link)
    }

    /// Logic-layer energy, pJ.
    pub fn logic_pj(&self) -> f64 {
        pj(self.logic)
    }

    /// Processor-side cache energy, pJ.
    pub fn cache_pj(&self) -> f64 {
        pj(self.cache)
    }

    /// Total energy across all components, pJ.
    pub fn total_pj(&self) -> f64 {
        let dram = self.activate + self.read + self.write + self.background;
        pj(dram + self.link + self.logic + self.cache)
    }
}

impl std::fmt::Display for EnergyBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let uj = |dpj| pj(dpj) / 1e6;
        write!(
            f,
            "dram={:.1}uJ (act={:.1} rd={:.1} wr={:.1} bg={:.1}) link={:.1}uJ logic={:.1}uJ cache={:.1}uJ total={:.1}uJ",
            self.dram_pj() / 1e6,
            uj(self.activate),
            uj(self.read),
            uj(self.write),
            uj(self.background),
            uj(self.link),
            uj(self.logic),
            uj(self.cache),
            self.total_pj() / 1e6,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let hmc = HmcStats {
            activations: 2,
            bytes_read: 100,
            bytes_written: 100,
            link_bytes: 100,
            fu_ops: 10,
        };
        let e = EnergyModel::paper().price(&hmc, 10, 1000);
        let by_hand = 2.0 * 900.0
            + 100.0 * 4.0
            + 100.0 * 4.4
            + 100.0 * 12.0
            + 10.0 * 60.0
            + 10.0 * 50.0
            + 1000.0 * 1.5;
        assert!((e.total_pj() - by_hand).abs() < 1e-9);
        assert_eq!(e.logic_pj(), 600.0);
        assert_eq!(e.cache_pj(), 500.0);
        let idle = EnergyModel::paper().price(&HmcStats::default(), 0, 0);
        assert_eq!(idle, EnergyBreakdown::default());
    }

    #[test]
    fn prices_sf10_counts_exactly_where_a_float_running_sum_drifts() {
        // About an SF-10 Q6 run's traffic: 2^18 writes of 64 KiB each
        // (17.2 GB), as many reads, and 2^27 cycles.
        let (writes, chunk) = (1u64 << 18, 1u64 << 16);
        let hmc = HmcStats {
            activations: 2 * writes * chunk / 256,
            bytes_read: writes * chunk,
            bytes_written: writes * chunk,
            link_bytes: 0,
            fu_ops: 0,
        };
        assert!(hmc.bytes_written >= 10_000_000_000);
        let e = EnergyModel::paper().price(&hmc, 0, 1 << 27);
        assert_eq!(e.write, 44 * (1 << 34));
        assert_eq!(e.read, 40 * (1 << 34));
        assert_eq!(e.activate, 9000 * (1 << 27));
        assert_eq!(e.background, 15 * (1 << 27));
        let dram = e.activate + e.read + e.write + e.background;
        assert_eq!(e.dram_pj().to_bits(), (dram as f64 / 10.0).to_bits());
        // The write term charged a write at a time in float pJ, the
        // way a running account kept it, misses the exact price.
        let mut running = 0.0f64;
        for _ in 0..writes {
            running += 4.4 * chunk as f64;
        }
        assert_ne!(running, pj(e.write));
        assert!((running - pj(e.write)).abs() < 1.0, "{running}");
    }

    #[test]
    fn metrics_name_every_constant_in_tenths() {
        let text = hipe_trace::json::write(&EnergyModel::paper().metrics());
        for member in [
            "\"energy.activate_dpj\": 9000",
            "\"energy.background_dpj_per_cyc\": 15",
            "\"energy.cache_lookup_dpj\": 500",
            "\"energy.fu_op_dpj\": 600",
            "\"energy.link_dpj_per_byte\": 120",
            "\"energy.read_dpj_per_byte\": 40",
            "\"energy.write_dpj_per_byte\": 44",
        ] {
            assert!(text.contains(member), "{text}");
        }
    }

    #[test]
    fn display_is_nonempty() {
        let e = EnergyBreakdown::default();
        assert!(e.to_string().contains("total"));
    }
}
