//! Seeded inputs and the oracle that checks what the program made of them.
//!
//! Everything the program sees comes from here and is a pure function of
//! `--seed`: field values, the regrid block-size sequence, PRMI payloads.
//! Field values are whole numbers below 2³² plus the step number, so every
//! value (and every `+ 1.0` between steps) is exact in an `f64` and the
//! checks compare with `==`.

use mxn_dad::{Dad, LocalArray, Region};

pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded 2-D field: element `(r, c)` holds `base(r, c) + step` at `step`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Field {
    pub rows: usize,
    pub cols: usize,
    pub seed: u64,
}

impl Field {
    pub fn bytes(&self) -> usize {
        self.rows * self.cols * size_of::<f64>()
    }

    fn base(&self, r: usize, c: usize) -> f64 {
        (splitmix64(self.seed ^ (r * self.cols + c) as u64) >> 32) as f64
    }

    /// The oracle: the value element `idx` must hold at `step`.
    pub fn value(&self, idx: &[usize], step: u64) -> f64 {
        self.base(idx[0], idx[1]) + step as f64
    }

    /// Writes the values of `step` into every local patch.
    pub fn fill(&self, local: &mut LocalArray<f64>, step: u64) {
        for p in 0..local.num_patches() {
            let (region, buf) = local.patch_mut(p);
            let (r0, c0, width) = (region.lo()[0], region.lo()[1], region.hi()[1] - region.lo()[1]);
            for (i, v) in buf.iter_mut().enumerate() {
                *v = self.base(r0 + i / width, c0 + i % width) + step as f64;
            }
        }
    }

    /// Advances a field holding step `s` to step `s + 1` (the "solve").
    pub fn bump(local: &mut LocalArray<f64>) {
        for p in 0..local.num_patches() {
            for v in local.patch_mut(p).1.iter_mut() {
                *v += 1.0;
            }
        }
    }

    /// Checks `samples` seeded local elements against the oracle; returns
    /// how many differ. Cheap enough to run between steps.
    pub fn check_sample(&self, local: &LocalArray<f64>, step: u64, samples: usize) -> u64 {
        let patches = local.num_patches();
        if patches == 0 {
            return 0;
        }
        let mut h = splitmix64(self.seed ^ step.wrapping_mul(0x51_7c_c1_b7_27_22_0a_95));
        let mut bad = 0;
        for _ in 0..samples.min(local.len()) {
            h = splitmix64(h);
            let (region, buf) = local.patch((h >> 40) as usize % patches);
            let off = (h & 0xff_ffff_ffff) as usize % buf.len();
            let idx = index_at(region, off);
            bad += u64::from(buf[off] != self.value(&idx, step));
        }
        bad
    }

    /// Checks every local element against a `LocalArray::from_fn` oracle
    /// built independently from the descriptor; returns how many differ
    /// (all of them when the layouts disagree).
    pub fn check_full(&self, dad: &Dad, rank: usize, local: &LocalArray<f64>, step: u64) -> u64 {
        let want = LocalArray::from_fn(dad, rank, |idx| self.value(idx, step));
        if want.num_patches() != local.num_patches() || !want.regions().eq(local.regions()) {
            return want.len().max(1) as u64;
        }
        (0..want.num_patches())
            .map(|p| {
                let (a, b) = (want.patch(p).1, local.patch(p).1);
                a.iter().zip(b).filter(|(x, y)| x != y).count() as u64
            })
            .sum()
    }
}

fn index_at(region: &Region, off: usize) -> [usize; 2] {
    let width = region.hi()[1] - region.lo()[1];
    [region.lo()[0] + off / width, region.lo()[1] + off % width]
}

/// Smallest and largest regrid block size; 64 sizes, so 64² = 4096 distinct
/// `(bx, by)` pairs per cycle.
pub const BLOCK_MIN: usize = 4;
pub const BLOCK_MAX: usize = 67;
const NBLOCKS: usize = BLOCK_MAX - BLOCK_MIN + 1;
/// Steps before the block-size sequence repeats.
pub const REGRID_CYCLE: u64 = (NBLOCKS * NBLOCKS) as u64;

/// Consecutive steps are this far apart in the cycle. Coprime to the cycle
/// length, so a few hundred steps already sample every `bx` and `by` evenly
/// and a bring-up's step times do not depend on where the seed put the
/// small blocks.
const REGRID_STRIDE: u64 = 11;

/// The seeded block-size sequence of the regrid workload. Step `s` moves the
/// field from M-side blocks `bx(s)` to N-side blocks `by(s)` and back to
/// M-side blocks `bx(s + 1)`. Within one cycle every forward pair
/// `(bx(s), by(s))` and every reverse pair `(by(s), bx(s + 1))` occurs
/// once, so no schedule is ever looked up twice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegridSeq {
    m_blocks: Vec<usize>,
    n_blocks: Vec<usize>,
    /// Position in the cycle of step 0 (each bring-up starts elsewhere).
    start: u64,
}

impl RegridSeq {
    pub fn new(seed: u64, start: u64) -> Self {
        let shuffled = |salt: u64| {
            let mut v: Vec<usize> = (BLOCK_MIN..=BLOCK_MAX).collect();
            let mut h = splitmix64(seed ^ salt);
            for i in (1..v.len()).rev() {
                h = splitmix64(h);
                v.swap(i, (h % (i as u64 + 1)) as usize);
            }
            v
        };
        RegridSeq {
            m_blocks: shuffled(0x6d),
            n_blocks: shuffled(0x6e),
            start: start % REGRID_CYCLE,
        }
    }

    fn pos(&self, step: u64) -> usize {
        ((self.start + (step % REGRID_CYCLE) * REGRID_STRIDE) % REGRID_CYCLE) as usize
    }

    pub fn bx(&self, step: u64) -> usize {
        self.m_blocks[self.pos(step) % NBLOCKS]
    }

    pub fn by(&self, step: u64) -> usize {
        let pos = self.pos(step);
        self.n_blocks[(pos % NBLOCKS + pos / NBLOCKS) % NBLOCKS]
    }
}

/// PRMI argument size.
pub const PAYLOAD_BYTES: usize = 64;

/// The 64-byte argument of call `k` on connection `conn`.
pub fn prmi_payload(seed: u64, conn: u64, k: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(PAYLOAD_BYTES);
    let mut h = splitmix64(seed ^ (conn << 48) ^ k);
    while out.len() < PAYLOAD_BYTES {
        h = splitmix64(h);
        out.extend_from_slice(&h.to_le_bytes());
    }
    out
}

/// The key the served method XORs into its argument.
pub fn prmi_key(seed: u64) -> u8 {
    (splitmix64(seed ^ 0x006b_6579) as u8) | 1
}

/// The reply the oracle expects for `arg`.
pub fn prmi_reply(arg: &[u8], key: u8) -> Vec<u8> {
    arg.iter().map(|b| b ^ key).collect()
}

/// A digest over a sample of every generated input, for the
/// "same seed, same inputs" test and the run report.
pub fn inputs_digest(seed: u64) -> u64 {
    let mut h = splitmix64(seed);
    let mut mix = |x: u64| h = splitmix64(h ^ x);
    let field = Field { rows: 64, cols: 64, seed };
    for r in 0..field.rows {
        for c in 0..field.cols {
            mix(field.base(r, c).to_bits());
        }
    }
    let seq = RegridSeq::new(seed, 0);
    for s in 0..REGRID_CYCLE {
        mix((seq.bx(s) * 100 + seq.by(s)) as u64);
    }
    for k in 0..16 {
        for b in prmi_payload(seed, k % 2, k) {
            mix(u64::from(b));
        }
    }
    mix(u64::from(prmi_key(seed)));
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use mxn_dad::Extents;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_inputs_different_seed_different_inputs() {
        assert_eq!(inputs_digest(7), inputs_digest(7));
        assert_ne!(inputs_digest(7), inputs_digest(8));
        assert_eq!(prmi_payload(3, 1, 9), prmi_payload(3, 1, 9));
        assert_ne!(prmi_payload(3, 1, 9), prmi_payload(3, 0, 9));
        assert_eq!(prmi_payload(3, 1, 9).len(), PAYLOAD_BYTES);
    }

    #[test]
    fn regrid_sequence_never_repeats_a_schedule_key_within_a_cycle() {
        let seq = RegridSeq::new(11, 409);
        let mut fwd = HashSet::new();
        let mut rev = HashSet::new();
        for s in 0..REGRID_CYCLE {
            assert!((BLOCK_MIN..=BLOCK_MAX).contains(&seq.bx(s)));
            assert!((BLOCK_MIN..=BLOCK_MAX).contains(&seq.by(s)));
            assert!(fwd.insert((seq.bx(s), seq.by(s))), "forward pair repeated at step {s}");
            assert!(rev.insert((seq.by(s), seq.bx(s + 1))), "reverse pair repeated at step {s}");
        }
        assert_ne!(RegridSeq::new(11, 0), RegridSeq::new(12, 0));
        // A few hundred steps see every block size on both sides.
        let seen = |f: &dyn Fn(u64) -> usize| (0..400).map(f).collect::<HashSet<_>>().len();
        assert_eq!((seen(&|s| seq.bx(s)), seen(&|s| seq.by(s))), (64, 64));
    }

    #[test]
    fn fill_bump_and_checks_agree_with_the_from_fn_oracle() {
        let field = Field { rows: 12, cols: 10, seed: 5 };
        let dad = Dad::block(Extents::new([12, 10]), &[1, 2]).unwrap();
        let mut local = LocalArray::allocate(&dad, 1);
        field.fill(&mut local, 3);
        assert_eq!(field.check_full(&dad, 1, &local, 3), 0);
        assert_eq!(field.check_sample(&local, 3, 1024), 0);
        Field::bump(&mut local);
        assert_eq!(field.check_full(&dad, 1, &local, 4), 0);
        // A single damaged element is found by the full check, and the
        // wrong step by both.
        *local.get_mut(&[4, 7]).unwrap() += 0.5;
        assert_eq!(field.check_full(&dad, 1, &local, 4), 1);
        assert_eq!(field.check_full(&dad, 1, &local, 5), 60);
        assert!(field.check_sample(&local, 5, 1024) > 0);
        // A layout for the wrong rank fails as a whole.
        assert!(field.check_full(&dad, 0, &local, 4) > 0);
    }
}
