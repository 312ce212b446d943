//! CRC-32 (ISO-HDLC, polynomial `0xEDB88320`) — the checksum guarding
//! every batch frame and index file.
//!
//! Hand-rolled (the workspace is offline and dependency-free): a
//! slice-by-8 kernel over 8×256-entry tables built at first use via
//! `OnceLock`, the same construction zlib and `crc32fast` use on the
//! scalar path. The read fast path checksums every batch it streams, so
//! the kernel processes eight bytes per step instead of one; the
//! function itself stays the *stable, specified* CRC-32/ISO-HDLC
//! (`docs/STORE_FORMAT.md` §5 lists test vectors).

use std::sync::OnceLock;

/// `t[0]` is the classic byte-at-a-time table; `t[k][i]` advances the
/// partial CRC `t[k-1][i]` through one more zero byte, so eight lookups
/// jointly consume eight input bytes.
fn tables() -> &'static [[u32; 256]; 8] {
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for i in 0..256usize {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            // i ranges over 0..256, the fixed table width.
            t[0][i] = c;
        }
        for k in 1..8 {
            for i in 0..256usize {
                let prev = t[k - 1][i];
                t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            }
        }
        t
    })
}

/// CRC-32/ISO-HDLC of `bytes` (init `0xFFFFFFFF`, reflected, final XOR
/// `0xFFFFFFFF` — the `cksum -a crc32` / zlib `crc32()` convention).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = tables();
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for ch in &mut chunks {
        // chunks_exact(8) yields exactly 8-byte slices.
        let lo = c ^ u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]);
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
    }

    #[test]
    fn sliced_kernel_matches_bytewise_at_every_length() {
        // Cover every remainder length and 8-byte alignment: the sliced
        // kernel and the reference byte-at-a-time loop must agree.
        let data: Vec<u8> = (0..64u32)
            .map(|i| (i.wrapping_mul(37) ^ 0xA5) as u8)
            .collect();
        let t = tables();
        for len in 0..data.len() {
            let mut c = 0xFFFF_FFFFu32;
            for &b in &data[..len] {
                c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
            }
            assert_eq!(crc32(&data[..len]), c ^ 0xFFFF_FFFF, "len {len}");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"the store's batch payload";
        let good = crc32(data);
        let mut copy = data.to_vec();
        for byte in 0..copy.len() {
            for bit in 0..8 {
                copy[byte] ^= 1 << bit;
                assert_ne!(crc32(&copy), good, "flip at {byte}:{bit} undetected");
                copy[byte] ^= 1 << bit;
            }
        }
    }
}
