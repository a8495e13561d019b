//! Event-count DRAM and link energy model.
//!
//! The paper reports *relative* DRAM energy (HIPE saves ~3-5 % versus
//! the baselines). The authors used SiNUCA's internal power model; we
//! substitute an event-count model with constants drawn from public
//! DDR3/HMC literature (Jeddeloh & Keeth VLSI'12 report ~10.48 pJ/bit
//! for the full HMC path; DRAMPower-style splits for the core). Since
//! every architecture is charged by the same constants, relative
//! comparisons survive any uniform rescaling.

/// Energy constants, in picojoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Energy of one row activation + precharge pair (per 256 B row).
    pub activate_pj: f64,
    /// Per-byte energy of a column read burst.
    pub read_pj_per_byte: f64,
    /// Per-byte energy of a column write burst.
    pub write_pj_per_byte: f64,
    /// Per-byte energy of moving data across the serial links (SerDes).
    pub link_pj_per_byte: f64,
    /// Per-operation energy of a logic-layer / vault functional unit op.
    pub logic_op_pj: f64,
    /// Per-access energy of a processor-side cache lookup (any level).
    pub cache_access_pj: f64,
    /// DRAM background power in picojoules per CPU cycle (standby,
    /// refresh), for the whole cube.
    pub background_pj_per_cycle: f64,
}

impl EnergyModel {
    /// Literature-derived default constants.
    pub const fn paper() -> Self {
        EnergyModel {
            activate_pj: 900.0,           // one ACT+PRE pair, 256 B row
            read_pj_per_byte: 4.0,        // DRAM core column read
            write_pj_per_byte: 4.4,       // DRAM core column write
            link_pj_per_byte: 12.0,       // SerDes dominates HMC energy
            logic_op_pj: 60.0,            // 256 B wide ALU op at 1 GHz
            cache_access_pj: 50.0,        // SRAM lookup, line granularity
            background_pj_per_cycle: 1.5, // cube standby+refresh at 2 GHz
        }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::paper()
    }
}

/// Accumulated energy by component, in picojoules.
///
/// # Example
///
/// ```
/// use hipe_hmc::{EnergyBreakdown, EnergyModel};
/// let m = EnergyModel::paper();
/// let mut e = EnergyBreakdown::new();
/// e.add_activate(&m, 1);
/// e.add_dram_read(&m, 256);
/// assert!(e.dram_pj() > 0.0);
/// assert_eq!(e.link_pj(), 0.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    activate: f64,
    read: f64,
    write: f64,
    link: f64,
    logic: f64,
    cache: f64,
    background: f64,
}

impl EnergyBreakdown {
    /// Creates a zeroed breakdown.
    pub fn new() -> Self {
        EnergyBreakdown::default()
    }

    /// Charges `n` row activations.
    pub fn add_activate(&mut self, m: &EnergyModel, n: u64) {
        self.activate += m.activate_pj * n as f64;
    }

    /// Charges a DRAM column read of `bytes`.
    pub fn add_dram_read(&mut self, m: &EnergyModel, bytes: u64) {
        self.read += m.read_pj_per_byte * bytes as f64;
    }

    /// Charges a DRAM column write of `bytes`.
    pub fn add_dram_write(&mut self, m: &EnergyModel, bytes: u64) {
        self.write += m.write_pj_per_byte * bytes as f64;
    }

    /// Charges `bytes` moved over the serial links (either direction).
    pub fn add_link(&mut self, m: &EnergyModel, bytes: u64) {
        self.link += m.link_pj_per_byte * bytes as f64;
    }

    /// Charges `n` logic-layer or vault functional-unit operations.
    pub fn add_logic_ops(&mut self, m: &EnergyModel, n: u64) {
        self.logic += m.logic_op_pj * n as f64;
    }

    /// Charges `n` processor-side cache accesses.
    pub fn add_cache_accesses(&mut self, m: &EnergyModel, n: u64) {
        self.cache += m.cache_access_pj * n as f64;
    }

    /// Charges background power for a run of `cycles` CPU cycles.
    pub fn add_background(&mut self, m: &EnergyModel, cycles: u64) {
        self.background += m.background_pj_per_cycle * cycles as f64;
    }

    /// DRAM-only energy (activate + read + write + background), pJ.
    /// This is the quantity behind the paper's "DRAM energy savings".
    pub fn dram_pj(&self) -> f64 {
        self.activate + self.read + self.write + self.background
    }

    /// Link energy, pJ.
    pub fn link_pj(&self) -> f64 {
        self.link
    }

    /// Logic-layer energy, pJ.
    pub fn logic_pj(&self) -> f64 {
        self.logic
    }

    /// Processor-side cache energy, pJ.
    pub fn cache_pj(&self) -> f64 {
        self.cache
    }

    /// Total energy across all components, pJ.
    pub fn total_pj(&self) -> f64 {
        self.dram_pj() + self.link + self.logic + self.cache
    }

    /// Merges another breakdown into this one.
    pub fn merge(&mut self, other: &EnergyBreakdown) {
        self.activate += other.activate;
        self.read += other.read;
        self.write += other.write;
        self.link += other.link;
        self.logic += other.logic;
        self.cache += other.cache;
        self.background += other.background;
    }
}

impl std::fmt::Display for EnergyBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "dram={:.1}uJ (act={:.1} rd={:.1} wr={:.1} bg={:.1}) link={:.1}uJ logic={:.1}uJ cache={:.1}uJ total={:.1}uJ",
            self.dram_pj() / 1e6,
            self.activate / 1e6,
            self.read / 1e6,
            self.write / 1e6,
            self.background / 1e6,
            self.link / 1e6,
            self.logic / 1e6,
            self.cache / 1e6,
            self.total_pj() / 1e6,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let m = EnergyModel::paper();
        let mut e = EnergyBreakdown::new();
        e.add_activate(&m, 2);
        e.add_dram_read(&m, 100);
        e.add_dram_write(&m, 100);
        e.add_link(&m, 100);
        e.add_logic_ops(&m, 10);
        e.add_cache_accesses(&m, 10);
        e.add_background(&m, 1000);
        let by_hand = 2.0 * m.activate_pj
            + 100.0 * m.read_pj_per_byte
            + 100.0 * m.write_pj_per_byte
            + 100.0 * m.link_pj_per_byte
            + 10.0 * m.logic_op_pj
            + 10.0 * m.cache_access_pj
            + 1000.0 * m.background_pj_per_cycle;
        assert!((e.total_pj() - by_hand).abs() < 1e-9);
    }

    #[test]
    fn merge_is_additive() {
        let m = EnergyModel::paper();
        let mut a = EnergyBreakdown::new();
        a.add_dram_read(&m, 50);
        let mut b = EnergyBreakdown::new();
        b.add_dram_read(&m, 70);
        a.merge(&b);
        let mut c = EnergyBreakdown::new();
        c.add_dram_read(&m, 120);
        assert_eq!(a, c);
    }

    #[test]
    fn display_is_nonempty() {
        let e = EnergyBreakdown::new();
        assert!(e.to_string().contains("total"));
    }
}
