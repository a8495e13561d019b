//! Physical address decomposition.
//!
//! The HMC interleaves consecutive row-buffer-sized blocks across
//! vaults, and consecutive vault-sweeps across banks, so that a
//! streaming scan naturally engages all 256 banks. This mirrors the
//! low-interleave mapping SiNUCA uses for HMC and is what gives the
//! paper's 256 B operations their vault-parallelism.

use crate::config::HmcConfig;

/// The (vault, bank, row) coordinates of a physical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Location {
    /// Vault index, `0..vaults`.
    pub vault: usize,
    /// Bank index within the vault, `0..banks_per_vault`.
    pub bank: usize,
    /// Row index within the bank.
    pub row: u64,
}

/// Maps physical addresses to vault/bank/row coordinates.
///
/// # Example
///
/// ```
/// use hipe_hmc::{AddressMapping, HmcConfig};
/// let m = AddressMapping::new(&HmcConfig::paper());
/// let a = m.locate(0);
/// let b = m.locate(256);
/// // Consecutive 256-byte blocks land in consecutive vaults.
/// assert_eq!(a.vault, 0);
/// assert_eq!(b.vault, 1);
/// assert_eq!(a.bank, b.bank);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct AddressMapping {
    /// log2 of the row-buffer (block) size.
    block_bits: u32,
    /// log2 of the vault count.
    vault_bits: u32,
    /// log2 of the banks per vault.
    bank_bits: u32,
}

impl AddressMapping {
    /// Creates the mapping for a cube configuration.
    ///
    /// Every coordinate is a bit field of the block index, taken with
    /// shifts and masks.
    ///
    /// # Panics
    ///
    /// Panics unless `vaults`, `banks_per_vault` and `row_buffer_bytes`
    /// are all powers of two (`hipe::SystemConfig::validate` rejects
    /// any other geometry with a typed error).
    pub fn new(cfg: &HmcConfig) -> Self {
        let bits = |what: &str, n: u64| {
            assert!(n.is_power_of_two(), "{what} ({n}) must be a power of two");
            n.trailing_zeros()
        };
        AddressMapping {
            block_bits: bits("row_buffer_bytes", cfg.row_buffer_bytes),
            vault_bits: bits("vaults", cfg.vaults as u64),
            bank_bits: bits("banks_per_vault", cfg.banks_per_vault as u64),
        }
    }

    /// Decomposes an address into its cube coordinates.
    #[inline]
    pub fn locate(&self, addr: u64) -> Location {
        let blk = addr >> self.block_bits;
        Location {
            vault: (blk & ((1 << self.vault_bits) - 1)) as usize,
            bank: ((blk >> self.vault_bits) & ((1 << self.bank_bits) - 1)) as usize,
            row: blk >> (self.vault_bits + self.bank_bits),
        }
    }

    /// Splits a byte range `[addr, addr+len)` into per-block segments,
    /// each fully contained in one row buffer.
    ///
    /// DRAM can only burst within a row; accesses crossing a 256 B
    /// boundary become multiple bank requests.
    pub fn split(&self, addr: u64, len: u64) -> SplitBlocks {
        SplitBlocks {
            block_bits: self.block_bits,
            cur: addr,
            end: addr + len,
        }
    }
}

/// Iterator over `(addr, len)` segments of one row buffer each.
/// Produced by [`AddressMapping::split`].
#[derive(Debug, Clone)]
pub struct SplitBlocks {
    block_bits: u32,
    cur: u64,
    end: u64,
}

impl Iterator for SplitBlocks {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<(u64, u64)> {
        if self.cur >= self.end {
            return None;
        }
        let block_end = ((self.cur >> self.block_bits) + 1) << self.block_bits;
        let seg_end = block_end.min(self.end);
        let item = (self.cur, seg_end - self.cur);
        self.cur = seg_end;
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapping() -> AddressMapping {
        AddressMapping::new(&HmcConfig::paper())
    }

    #[test]
    fn sweeps_vaults_then_banks() {
        let m = mapping();
        // 32 consecutive blocks cover all vaults in bank 0.
        for i in 0..32u64 {
            let loc = m.locate(i * 256);
            assert_eq!(loc.vault, i as usize);
            assert_eq!(loc.bank, 0);
            assert_eq!(loc.row, 0);
        }
        // Block 32 wraps to vault 0, bank 1.
        let loc = m.locate(32 * 256);
        assert_eq!(loc.vault, 0);
        assert_eq!(loc.bank, 1);
    }

    #[test]
    fn row_increments_after_full_sweep() {
        let m = mapping();
        let loc = m.locate(256 * 32 * 8);
        assert_eq!((loc.vault, loc.bank, loc.row), (0, 0, 1));
    }

    #[test]
    fn same_block_same_location() {
        let m = mapping();
        assert_eq!(m.locate(1000), m.locate(1023));
    }

    #[test]
    fn split_respects_row_boundaries() {
        let m = mapping();
        let segs: Vec<_> = m.split(200, 256).collect();
        assert_eq!(segs, vec![(200, 56), (256, 200)]);
        let total: u64 = segs.iter().map(|(_, l)| l).sum();
        assert_eq!(total, 256);
    }

    #[test]
    fn split_aligned_is_single_segment() {
        let m = mapping();
        let segs: Vec<_> = m.split(512, 256).collect();
        assert_eq!(segs, vec![(512, 256)]);
    }

    #[test]
    #[should_panic(expected = "vaults (24) must be a power of two")]
    fn non_power_of_two_geometry_panics() {
        let cfg = HmcConfig {
            vaults: 24,
            ..HmcConfig::paper()
        };
        let _ = AddressMapping::new(&cfg);
    }

    #[test]
    fn split_empty_range() {
        let m = mapping();
        assert_eq!(m.split(512, 0).count(), 0);
    }
}
