//! FNV-1a over 64-bit words: the workspace's one result fingerprint.

/// The 64-bit FNV-1a hash of `words`, each fed as its eight
/// little-endian bytes. Equal word sequences give equal digests, so a
/// digest pins a run's results bit for bit in one number.
///
/// # Example
///
/// ```
/// use hipe_sim::fnv1a;
/// assert_eq!(fnv1a([7]), 0x4bd7_a317_074c_5b62);
/// assert_eq!(fnv1a([]), 0xcbf2_9ce4_8422_2325);
/// ```
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let bytes = words.into_iter().flat_map(u64::to_le_bytes);
    bytes.fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
