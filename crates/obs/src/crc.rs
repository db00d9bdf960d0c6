//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`).
//!
//! The workspace's one CRC-32. It lives here because this crate sits
//! *below* `dctstream-core` in the dependency graph (core is instrumented
//! with these metrics) and must stay dependency-free; core re-exports it
//! as `dctstream_core::persist::crc32`. Bitwise and table-free: the
//! framed payloads are small.

/// Checksum `data` with the same CRC-32 variant used by every durable
/// artifact in the workspace.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sensitive_to_single_bit() {
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }
}
