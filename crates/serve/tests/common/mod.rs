//! Helpers shared by the integration-test crates.

/// Dependency-free FNV-1a 64 over `bytes`: the digest behind the
/// golden report and event-stream tables.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
