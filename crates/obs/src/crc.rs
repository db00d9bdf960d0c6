//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`).
//!
//! The workspace's one CRC-32. It lives here because this crate sits
//! *below* `dctstream-core` in the dependency graph (core is instrumented
//! with these metrics) and must stay dependency-free; core re-exports it
//! as `dctstream_core::persist::crc32`. Slicing-by-8 over eight 256-entry
//! tables built at compile time: WAL batch frames run to tens of
//! kilobytes, and replay checksums every frame it reads.

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, so eight table lookups
/// advance the register over eight input bytes at once.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// Checksum `data` with the same CRC-32 variant used by every durable
/// artifact in the workspace.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][c[4] as usize]
            ^ TABLES[2][c[5] as usize]
            ^ TABLES[1][c[6] as usize]
            ^ TABLES[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bitwise definition the table-driven form must reproduce.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (POLY & mask);
            }
        }
        !crc
    }

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

    #[test]
    fn matches_the_bitwise_form_on_random_inputs() {
        // xorshift64*: dependency-free and deterministic.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for _ in 0..300 {
            let len = (next() % 4096) as usize;
            let data: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert_eq!(crc32(&data), crc32_bitwise(&data), "length {len}");
            // Every unaligned suffix exercises the remainder loop too.
            let skip = (next() % 8) as usize;
            let tail = &data[skip.min(len)..];
            assert_eq!(crc32(tail), crc32_bitwise(tail));
        }
        for len in 0..=64 {
            let data: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            assert_eq!(crc32(&data), crc32_bitwise(&data), "length {len}");
        }
    }
}
