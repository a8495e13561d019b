//! Logic-layer partitions.
//!
//! The compiler lowers a scan into one instruction stream *per vault
//! group*. A [`PartitionSpec`] says which engine runs a stream and
//! which vaults that engine owns; the execution layer (the
//! `hipe-logic` engine cluster) enforces vault ownership from the
//! spec without knowing anything about the compiler.

/// Identity and vault ownership of one logic-layer partition.
///
/// # Example
///
/// ```
/// use hipe_isa::PartitionSpec;
/// let spec = PartitionSpec::new(1, 8, 8);
/// assert_eq!(spec.vaults(), 8..16);
/// assert!(spec.owns_vault(9) && !spec.owns_vault(16));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PartitionSpec {
    /// Partition (and engine) index.
    pub index: usize,
    /// First vault of the owned group.
    pub first_vault: usize,
    /// Vaults in the owned group.
    pub vault_count: usize,
}

impl PartitionSpec {
    /// Creates a spec for partition `index` owning `vault_count`
    /// vaults starting at `first_vault`.
    pub fn new(index: usize, first_vault: usize, vault_count: usize) -> Self {
        PartitionSpec {
            index,
            first_vault,
            vault_count,
        }
    }

    /// The owned vault ids.
    pub fn vaults(&self) -> std::ops::Range<usize> {
        self.first_vault..self.first_vault + self.vault_count
    }

    /// Returns `true` if `vault` belongs to this partition.
    pub fn owns_vault(&self, vault: usize) -> bool {
        self.vaults().contains(&vault)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_vault_ownership() {
        let s = PartitionSpec::new(3, 24, 8);
        assert_eq!(s.vaults(), 24..32);
        assert!(s.owns_vault(24) && s.owns_vault(31));
        assert!(!s.owns_vault(23) && !s.owns_vault(32));
    }
}
