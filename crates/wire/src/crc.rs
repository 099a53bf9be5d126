//! CRC-32C (Castagnoli, reflected) — the per-frame integrity check.
//!
//! The in-proc fault plane damages a 64-bit envelope checksum to *model*
//! corruption; on a real byte stream the damage is physical, so the wire
//! layer needs a checksum computed over the actual bytes. CRC-32C is the
//! iSCSI / SCTP / ext4 choice for frame-sized payloads: its burst-error
//! detection matches the failure mode of a torn or bit-flipped socket
//! stream at least as well as the IEEE polynomial, and x86_64 computes it
//! in one instruction per eight bytes.
//!
//! Two paths compute the same function. On x86_64 with SSE4.2 (detected
//! at run time) [`crc32`] folds eight bytes per `crc32` instruction;
//! everywhere else it runs a const-built slice-by-8 table. Both ends of a
//! link run the same build, so the path taken never changes a check value.

/// The reflected Castagnoli polynomial.
const POLY: u32 = 0x82f6_3b78;

/// `TABLES[k][b]` is the CRC register after byte `b` followed by `k` zero
/// bytes, built at compile time: row 0 is the classic byte table, rows
/// 1..8 let the table path fold eight bytes per step (slice-by-8).
static TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32C of `bytes` (init `!0`, xor-out `!0` — the standard parameters,
/// matching iSCSI and `crc32c` implementations).
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `crc32_sse42` requires only SSE4.2, which the CPU was
        // just checked to support.
        return unsafe { crc32_sse42(bytes) };
    }
    crc32_table(bytes)
}

/// Hardware path: one `crc32` instruction per eight bytes, then per byte
/// for the tail. Safe to call only on a CPU with SSE4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn crc32_sse42(bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut words = bytes.chunks_exact(8);
    let mut wide = u64::from(!0u32);
    for word in &mut words {
        wide = _mm_crc32_u64(wide, u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
    }
    // The instruction zero-extends a 32-bit CRC into the 64-bit register.
    let mut crc = wide as u32;
    for &b in words.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    !crc
}

/// Table path (slice-by-8): eight table lookups fold eight bytes at once.
fn crc32_table(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][w[4] as usize]
            ^ TABLES[2][w[5] as usize]
            ^ TABLES[1][w[6] as usize]
            ^ TABLES[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

/// The byte-at-a-time loop both fast paths must agree with.
#[cfg(test)]
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical CRC-32C check value, and the iSCSI (RFC 3720
        // B.4) test patterns.
        let ascending: Vec<u8> = (0..32).collect();
        for f in [crc32, crc32_table, crc32_bytewise] {
            assert_eq!(f(b"123456789"), 0xe306_9283);
            assert_eq!(f(&[0x00; 32]), 0x8a91_36aa);
            assert_eq!(f(&[0xff; 32]), 0x62a8_ab43);
            assert_eq!(f(&ascending), 0x46dd_794e);
            assert_eq!(f(b""), 0);
        }
    }

    #[test]
    fn every_path_matches_the_bytewise_oracle() {
        // Every length up to 4 KiB at every alignment within a word, so
        // each path's word loop and tail see every split. On x86_64 with
        // SSE4.2 `crc32` is the hardware path; elsewhere it is the table.
        let buf: Vec<u8> =
            (0..4096 + 8u32).map(|i| (i.wrapping_mul(0x9e37_79b9) >> 13) as u8).collect();
        for start in 0..8 {
            for len in 0..=4096 {
                let s = &buf[start..start + len];
                let want = crc32_bytewise(s);
                assert_eq!(crc32(s), want, "dispatched path, start {start} len {len}");
                assert_eq!(crc32_table(s), want, "table path, start {start} len {len}");
            }
        }
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let msg = b"the quick brown fox jumps over the lazy dog".to_vec();
        let clean = crc32(&msg);
        for byte in 0..msg.len() {
            for bit in 0..8 {
                let mut damaged = msg.clone();
                damaged[byte] ^= 1 << bit;
                assert_ne!(crc32(&damaged), clean, "flip at byte {byte} bit {bit} undetected");
            }
        }
    }

    #[test]
    fn truncation_changes_crc() {
        let msg = b"framed payload bytes".to_vec();
        let clean = crc32(&msg);
        for cut in 0..msg.len() {
            assert_ne!(crc32(&msg[..cut]), clean, "truncation to {cut} bytes undetected");
        }
    }
}
