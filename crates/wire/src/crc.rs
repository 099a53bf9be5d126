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
//!
//! The instruction has a latency of three cycles and a throughput of one,
//! so one dependency chain runs at a third of the core's speed. Inputs of
//! at least three [`SHORT`] blocks are therefore checked as three
//! interleaved chains over adjacent blocks, each chain starting from a zero
//! register; the three registers are joined by shifting the earlier one
//! over a block of zeros — a linear map on the 32-bit register, applied
//! through four 256-entry tables built at compile time (the scheme of Mark
//! Adler's `crc32c.c`: [`LONG`] blocks while they fit, then [`SHORT`]
//! blocks, then the one-chain loop). Shorter inputs take the one-chain loop
//! only.
//!
//! [`crc32_continue`] exposes the raw register, so a body that arrives in
//! several buffers is checked as one CRC without joining them first.

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

/// Bytes per chain in the long three-chain step.
const LONG: usize = 8192;

/// Bytes per chain in the short three-chain step; the shortest input
/// checked as three chains is three of these.
const SHORT: usize = 256;

/// The map a zero bit applies to the raw register: `r -> r >> 1`, folding
/// in the polynomial when the low bit falls out. Row `k` is the image of
/// bit `k`.
const fn one_zero_bit() -> [u32; 32] {
    let mut op = [0u32; 32];
    op[0] = POLY;
    let mut k = 1;
    while k < 32 {
        op[k] = 1 << (k - 1);
        k += 1;
    }
    op
}

/// `op` applied to `v`: the XOR of the rows of `op` selected by `v`'s bits.
const fn gf2_times(op: &[u32; 32], mut v: u32) -> u32 {
    let mut sum = 0;
    let mut k = 0;
    while v != 0 {
        if v & 1 != 0 {
            sum ^= op[k];
        }
        v >>= 1;
        k += 1;
    }
    sum
}

/// `op` applied twice.
const fn gf2_square(op: &[u32; 32]) -> [u32; 32] {
    let mut sq = [0u32; 32];
    let mut k = 0;
    while k < 32 {
        sq[k] = gf2_times(op, op[k]);
        k += 1;
    }
    sq
}

/// Tables shifting a raw register over `len` zero bytes (`len` a power of
/// two): `shift(&t, r)` is the register after feeding `len` zeros to `r`.
const fn zeros_tables(len: usize) -> [[u32; 256]; 4] {
    // One zero bit, squared three times: one zero byte; then squared once
    // per doubling of the length.
    let mut op = gf2_square(&gf2_square(&gf2_square(&one_zero_bit())));
    let mut n = len;
    while n > 1 {
        op = gf2_square(&op);
        n >>= 1;
    }
    let mut t = [[0u32; 256]; 4];
    let mut b = 0;
    while b < 256 {
        let mut byte = 0;
        while byte < 4 {
            t[byte][b] = gf2_times(&op, (b as u32) << (8 * byte));
            byte += 1;
        }
        b += 1;
    }
    t
}

/// Shift tables over one [`LONG`] and one [`SHORT`] block of zeros.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
static LONG_ZEROS: [[u32; 256]; 4] = zeros_tables(LONG);
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
static SHORT_ZEROS: [[u32; 256]; 4] = zeros_tables(SHORT);

/// The raw register `reg` shifted over the zero block `t` was built for.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
fn shift(t: &[[u32; 256]; 4], reg: u32) -> u32 {
    t[0][(reg & 0xff) as usize]
        ^ t[1][((reg >> 8) & 0xff) as usize]
        ^ t[2][((reg >> 16) & 0xff) as usize]
        ^ t[3][(reg >> 24) as usize]
}

/// CRC-32C of `bytes` (init `!0`, xor-out `!0` — the standard parameters,
/// matching iSCSI and `crc32c` implementations).
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_continue(!0, bytes)
}

/// Feeds `bytes` to the raw CRC-32C register `reg` and returns the new
/// register: start from `!0` and invert the final register, so that
/// `crc32(a ++ b) == !crc32_continue(crc32_continue(!0, a), b)`.
pub fn crc32_continue(reg: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `sse42_continue` requires only SSE4.2, which the CPU was
        // just checked to support.
        return unsafe { sse42_continue(reg, bytes) };
    }
    table_continue(reg, bytes)
}

/// Hardware path: three interleaved chains over [`LONG`], then [`SHORT`]
/// blocks while three of them fit, then one `crc32` instruction per eight
/// bytes and one per byte for the tail. Safe to call only on a CPU with
/// SSE4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn sse42_continue(mut reg: u32, mut bytes: &[u8]) -> u32 {
    for (block, zeros) in [(LONG, &LONG_ZEROS), (SHORT, &SHORT_ZEROS)] {
        while bytes.len() >= 3 * block {
            let (a, rest) = bytes.split_at(block);
            let (b, rest) = rest.split_at(block);
            let (c, rest) = rest.split_at(block);
            let [r0, r1, r2] = sse42_three(reg, a, b, c);
            reg = shift(zeros, shift(zeros, r0) ^ r1) ^ r2;
            bytes = rest;
        }
    }
    sse42_one(reg, bytes)
}

/// Three independent chains over equal-length blocks `a`, `b`, `c`: the
/// first continues `reg`, the other two start from zero.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn sse42_three(reg: u32, a: &[u8], b: &[u8], c: &[u8]) -> [u32; 3] {
    use std::arch::x86_64::_mm_crc32_u64;
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
    let (mut r0, mut r1, mut r2) = (u64::from(reg), 0u64, 0u64);
    for ((x, y), z) in a.chunks_exact(8).zip(b.chunks_exact(8)).zip(c.chunks_exact(8)) {
        r0 = _mm_crc32_u64(r0, word(x));
        r1 = _mm_crc32_u64(r1, word(y));
        r2 = _mm_crc32_u64(r2, word(z));
    }
    // The instruction zero-extends a 32-bit CRC into the 64-bit register.
    [r0 as u32, r1 as u32, r2 as u32]
}

/// One chain: a `crc32` instruction per eight bytes, then per byte.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn sse42_one(reg: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut words = bytes.chunks_exact(8);
    let mut wide = u64::from(reg);
    for word in &mut words {
        wide = _mm_crc32_u64(wide, u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
    }
    let mut crc = wide as u32;
    for &b in words.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    crc
}

/// Table path (slice-by-8), `crc32` with the standard parameters.
#[cfg(test)]
fn crc32_table(bytes: &[u8]) -> u32 {
    !table_continue(!0, bytes)
}

/// Table path on the raw register: eight table lookups fold eight bytes
/// at once.
fn table_continue(mut crc: u32, bytes: &[u8]) -> u32 {
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
    crc
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

    #[test]
    fn three_chain_lengths_match_the_bytewise_oracle() {
        // Lengths on both sides of every three-chain boundary — one SHORT
        // or LONG triple, a LONG triple followed by SHORT triples, and
        // the tails after them — at every start offset within a word.
        let buf: Vec<u8> = (0..4 * 3 * LONG as u32 + 64)
            .map(|i| (i.wrapping_mul(0x2545_f491) >> 11) as u8)
            .collect();
        let mut lens = Vec::new();
        for base in [3 * SHORT, 6 * SHORT, 3 * LONG, 3 * LONG + 3 * SHORT, 6 * LONG] {
            lens.extend((base - 9..=base + 9).chain([base + 3 * SHORT - 1, base + 8 * SHORT + 7]));
        }
        lens.extend([4 * 3 * LONG - 1, 4 * 3 * LONG]);
        for start in 0..8 {
            for &len in &lens {
                let s = &buf[start..start + len];
                let want = crc32_bytewise(s);
                assert_eq!(crc32(s), want, "dispatched path, start {start} len {len}");
                assert_eq!(crc32_table(s), want, "table path, start {start} len {len}");
            }
        }
    }

    #[test]
    fn continue_is_split_invariant() {
        // A body checked in pieces has the CRC of the whole, wherever the
        // cuts fall: inside a word, on a block boundary, or at either end.
        let buf: Vec<u8> = (0..3 * LONG as u32 + 1000).map(|i| (i ^ (i >> 7)) as u8).collect();
        let whole = crc32(&buf);
        let cuts = [0, 1, 7, 8, 255, 3 * SHORT, 3 * SHORT + 5, 3 * LONG - 3, buf.len()];
        for &a in &cuts {
            for &b in cuts.iter().filter(|&&b| b >= a) {
                let reg = crc32_continue(!0, &buf[..a]);
                let reg = crc32_continue(reg, &buf[a..b]);
                assert_eq!(!crc32_continue(reg, &buf[b..]), whole, "cuts at {a} and {b}");
                let reg = table_continue(table_continue(!0, &buf[..a]), &buf[a..]);
                assert_eq!(!reg, whole, "table path cut at {a}");
            }
        }
    }

    #[test]
    fn shift_tables_feed_zero_blocks() {
        for reg in [1u32, 0x8000_0000, 0xdead_beef, !0] {
            assert_eq!(shift(&SHORT_ZEROS, reg), table_continue(reg, &[0; SHORT]));
            assert_eq!(shift(&LONG_ZEROS, reg), table_continue(reg, &[0; LONG]));
        }
    }
}
