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
//! Three paths compute the same function. On x86_64 with SSE4.2 (detected
//! at run time) [`crc32`] folds eight bytes per `crc32` instruction;
//! everywhere else it runs a const-built slice-by-8 table; long inputs on
//! CPUs with 512-bit carry-less multiplies take the fold described below.
//! The path taken never changes a check value, so the two ends of a link
//! need not take the same one.
//!
//! The instruction has a latency of three cycles and a throughput of one,
//! so one dependency chain runs at a third of the core's speed. Inputs of
//! at least three `SHORT` blocks are therefore checked as three
//! interleaved chains over adjacent blocks, each chain starting from a zero
//! register; the three registers are joined by shifting the earlier one
//! over a block of zeros — a linear map on the 32-bit register, applied
//! through four 256-entry tables built at compile time (the scheme of Mark
//! Adler's `crc32c.c`: `LONG` blocks while they fit, then `SHORT`
//! blocks, then the one-chain loop). Shorter inputs take the one-chain loop
//! only.
//!
//! Inputs of at least [`FOLD_MIN`] bytes take a third path on x86_64 CPUs
//! with AVX-512F and VPCLMULQDQ (detected at run time): four 512-bit
//! accumulators hold the first 256 bytes, and each later 256-byte block is
//! folded in with carry-less multiplies. A 128-bit lane `[lo, hi]` moved
//! 2048 bits further down the message is congruent, modulo the polynomial,
//! to `lo·x^(2048+31)·x^33 ⊕ hi·x^(2048−33)·x^33`; the multiply by `x^33`
//! is what a carry-less product of two reflected operands adds, so the two
//! constants are `x^(2048+31)` and `x^(2048−33)` mod P, reflected
//! (`FOLD_K_LO`, `FOLD_K_HI`, built at compile time like the shift
//! tables). The 256 folded bytes, congruent to everything folded so far,
//! and the tail then go through the `crc32` path above. Shorter inputs —
//! every frame header and every small frame — never reach the fold.
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
    if bytes.len() >= FOLD_MIN && fold_supported() {
        // SAFETY: `fold_continue` requires AVX-512F, VPCLMULQDQ and SSE4.2,
        // which `fold_supported` just checked the CPU has.
        return unsafe { fold_continue(reg, bytes) };
    }
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

/// Shortest input [`crc32_continue`] folds: below it the three chains are
/// as fast, and the fold's setup and 256-byte flush are not paid.
pub(crate) const FOLD_MIN: usize = 1024;

/// Bytes the fold's four 512-bit accumulators cover: one block.
const FOLD_BLOCK: usize = 256;

/// `x^e mod P` as a raw (reflected) register: `x^0` is the top bit, and
/// each zero bit fed to the register multiplies by `x`.
const fn x_pow_mod(e: u32) -> u32 {
    let mut reg = 1 << 31;
    let mut k = 0;
    while k < e {
        reg = if reg & 1 != 0 { (reg >> 1) ^ POLY } else { reg >> 1 };
        k += 1;
    }
    reg
}

/// Fold constant for a lane's first (higher-degree) 64 bits: moving them
/// `8 * FOLD_BLOCK` bits on multiplies by `x^(8 * FOLD_BLOCK + 64)`, of
/// which the carry-less product supplies `x^33`.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
const FOLD_K_LO: u32 = x_pow_mod(8 * FOLD_BLOCK as u32 + 64 - 33);

/// Fold constant for a lane's last 64 bits: `x^(8 * FOLD_BLOCK)` less the
/// product's `x^33`.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
const FOLD_K_HI: u32 = x_pow_mod(8 * FOLD_BLOCK as u32 - 33);

/// Whether this CPU runs [`fold_continue`].
#[cfg(target_arch = "x86_64")]
fn fold_supported() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("vpclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.2")
}

/// Fold path: `reg` enters the first four bytes, four 512-bit accumulators
/// take the first [`FOLD_BLOCK`] bytes and fold every later whole block in,
/// and the three-chain path finishes over the folded block and the tail.
/// Inputs shorter than one block go to that path directly. Safe to call
/// only on a CPU with AVX-512F, VPCLMULQDQ and SSE4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,vpclmulqdq,sse4.2")]
fn fold_continue(reg: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{
        __m512i, _mm512_clmulepi64_epi128, _mm512_loadu_si512, _mm512_maskz_set1_epi32,
        _mm512_set_epi64, _mm512_storeu_si512, _mm512_ternarylogic_epi64, _mm512_xor_si512,
    };
    if bytes.len() < FOLD_BLOCK {
        return sse42_continue(reg, bytes);
    }
    let (k_lo, k_hi) = (i64::from(FOLD_K_LO), i64::from(FOLD_K_HI));
    let k = _mm512_set_epi64(k_hi, k_lo, k_hi, k_lo, k_hi, k_lo, k_hi, k_lo);
    let load = |block: &[u8], i: usize| {
        let at = &block[64 * i..64 * (i + 1)];
        // SAFETY: `at` is 64 readable bytes, and the load is unaligned.
        unsafe { _mm512_loadu_si512(at.as_ptr().cast::<__m512i>()) }
    };
    let mut blocks = bytes.chunks_exact(FOLD_BLOCK);
    let first = blocks.next().expect("at least one block");
    // The register enters the message as its first 32 bits.
    let reg_in = _mm512_maskz_set1_epi32(1, reg as i32);
    let mut acc =
        [_mm512_xor_si512(load(first, 0), reg_in), load(first, 1), load(first, 2), load(first, 3)];
    for block in &mut blocks {
        for (i, a) in acc.iter_mut().enumerate() {
            let lo = _mm512_clmulepi64_epi128::<0x00>(*a, k);
            let hi = _mm512_clmulepi64_epi128::<0x11>(*a, k);
            // Three-way XOR.
            *a = _mm512_ternarylogic_epi64::<0x96>(lo, hi, load(block, i));
        }
    }
    let mut folded = [0u8; FOLD_BLOCK];
    for (i, a) in acc.iter().enumerate() {
        // SAFETY: the store writes 64 bytes at offset `64 * i` of a
        // 256-byte array, `i < 4`; the store is unaligned.
        unsafe { _mm512_storeu_si512(folded.as_mut_ptr().add(64 * i).cast::<__m512i>(), *a) };
    }
    sse42_continue(sse42_continue(0, &folded), blocks.remainder())
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

    /// The byte-at-a-time loop on a raw register.
    fn bytewise_continue(mut reg: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            reg = (reg >> 8) ^ TABLES[0][((reg ^ b as u32) & 0xff) as usize];
        }
        reg
    }

    /// `n` bytes of a fixed pseudo-random stream.
    fn noise(n: usize) -> Vec<u8> {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    /// Lengths on both sides of the fold's block and threshold boundaries,
    /// and one long input with a ragged tail.
    fn fold_lengths() -> Vec<usize> {
        let mut lens = Vec::new();
        for base in [FOLD_BLOCK, 2 * FOLD_BLOCK, 3 * FOLD_BLOCK, FOLD_MIN, 5 * FOLD_BLOCK, 8192] {
            lens.extend(base - 9..=base + 9);
        }
        lens.extend([FOLD_MIN + FOLD_BLOCK - 1, 3 * LONG + 3 * SHORT + 5, (1 << 20) + 13]);
        lens
    }

    const REGISTERS: [u32; 5] = [!0, 0, 1, 0x8000_0000, 0x1234_5678];

    #[test]
    fn fold_matches_the_bytewise_oracle() {
        #[cfg(target_arch = "x86_64")]
        if fold_supported() {
            let buf = noise((1 << 20) + 13 + 8);
            for start in [0, 1, 3, 7] {
                for len in fold_lengths() {
                    let s = &buf[start..start + len];
                    for reg in REGISTERS {
                        // SAFETY: `fold_supported` checked the CPU features.
                        let got = unsafe { fold_continue(reg, s) };
                        let want = bytewise_continue(reg, s);
                        assert_eq!(got, want, "start {start} len {len} reg {reg:#x}");
                    }
                }
            }
            return;
        }
        println!("skipped: this CPU lacks AVX-512F or VPCLMULQDQ");
    }

    #[test]
    fn three_chains_match_the_bytewise_oracle_at_fold_lengths() {
        // The dispatcher folds these lengths where it can, so the chain path
        // is called directly to keep it checked on such hosts too.
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse4.2") {
            let buf = noise((1 << 20) + 13 + 8);
            for start in [0, 5] {
                for len in fold_lengths() {
                    let s = &buf[start..start + len];
                    for reg in REGISTERS {
                        // SAFETY: the CPU was just checked to have SSE4.2.
                        let got = unsafe { sse42_continue(reg, s) };
                        assert_eq!(got, bytewise_continue(reg, s), "len {len} reg {reg:#x}");
                    }
                }
            }
            return;
        }
        println!("skipped: this CPU lacks SSE4.2");
    }

    #[test]
    fn continue_is_split_invariant_across_the_fold() {
        // Pieces that fold beside pieces that do not: every cut pair around
        // the threshold and the block size, plus cuts drawn at random.
        let buf = noise(6 * FOLD_MIN + 77);
        let whole = crc32_bytewise(&buf);
        let mut cuts = vec![0, 1, FOLD_BLOCK - 1, FOLD_BLOCK, FOLD_MIN - 1, FOLD_MIN, FOLD_MIN + 1];
        cuts.extend([2 * FOLD_MIN + 3, buf.len() - FOLD_MIN, buf.len() - 1, buf.len()]);
        let mut x = 7u64;
        cuts.extend((0..12).map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) as usize % buf.len()
        }));
        for &a in &cuts {
            for &b in cuts.iter().filter(|&&b| b >= a) {
                let reg = crc32_continue(!0, &buf[..a]);
                let reg = crc32_continue(reg, &buf[a..b]);
                assert_eq!(!crc32_continue(reg, &buf[b..]), whole, "cuts at {a} and {b}");
            }
        }
    }

    #[test]
    fn fold_constants_are_powers_of_x() {
        // Feeding zeros multiplies the register by x: eight per byte.
        for e in [0u32, 1, 31, 32, 33, 100] {
            assert_eq!(x_pow_mod(e + 8), bytewise_continue(x_pow_mod(e), &[0]), "x^{e}");
        }
        let start = x_pow_mod(0);
        assert_eq!(FOLD_K_LO, bytewise_continue(x_pow_mod(7), &[0; 259]), "x^(2048+31)");
        assert_eq!(FOLD_K_HI, bytewise_continue(x_pow_mod(7), &[0; 251]), "x^(2048-33)");
        assert_eq!(x_pow_mod(8 * 4), bytewise_continue(start, &[0; 4]));
    }

    #[test]
    fn shift_tables_feed_zero_blocks() {
        for reg in [1u32, 0x8000_0000, 0xdead_beef, !0] {
            assert_eq!(shift(&SHORT_ZEROS, reg), table_continue(reg, &[0; SHORT]));
            assert_eq!(shift(&LONG_ZEROS, reg), table_continue(reg, &[0; LONG]));
        }
    }
}
