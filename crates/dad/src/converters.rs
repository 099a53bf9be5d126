//! DA-package interoperability: 2N hub converters vs N² pairwise.
//!
//! The paper (§2.2.2) motivates the DAD as an intermediate representation:
//! with N distributed-array packages, converting through the DAD needs `2N`
//! converters, versus `N²` (precisely N·(N−1)) direct pairwise converters —
//! but it also warns that "the use of adapters might have serious
//! consequences for performance". This module builds a synthetic family of
//! DA packages so experiment E9 can measure exactly that trade-off:
//!
//! * every package stores a rank's local elements in its own *native
//!   order* (a package-specific permutation of the canonical DAD order);
//! * the **hub** path converts native → canonical → native (two passes,
//!   2N converters);
//! * the **direct** path composes the two permutations once and converts in
//!   a single pass (one pass, N² converters).

use std::collections::HashMap;

/// A synthetic distributed-array package, identified by `id`. Its native
/// local layout is the canonical row-major order permuted by an
/// id-dependent bijection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SyntheticPackage {
    /// Package identity; packages with equal ids share a layout.
    pub id: usize,
}

impl SyntheticPackage {
    /// Native position of canonical element `i` in a buffer of length `n`.
    ///
    /// A rotation composed with a conditional reversal — a cheap bijection
    /// that still forces a genuine gather on every conversion.
    pub(crate) fn native_pos(&self, i: usize, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        let rotated = (i + self.id * 13) % n;
        if self.id % 2 == 1 {
            n - 1 - rotated
        } else {
            rotated
        }
    }

    /// Converts canonical-order data to this package's native order.
    pub fn from_canonical(&self, canonical: &[f64]) -> Vec<f64> {
        let n = canonical.len();
        let mut out = vec![0.0; n];
        for (i, &v) in canonical.iter().enumerate() {
            out[self.native_pos(i, n)] = v;
        }
        out
    }

    /// Converts this package's native-order data back to canonical order.
    pub(crate) fn to_canonical(self, native: &[f64]) -> Vec<f64> {
        let n = native.len();
        let mut out = vec![0.0; n];
        for i in 0..n {
            out[i] = native[self.native_pos(i, n)];
        }
        out
    }
}

/// How a registry converts between two packages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvertStrategy {
    /// Through the canonical DAD representation: 2 passes, 2N converters.
    Hub,
    /// Composed permutation per ordered pair: 1 pass, N·(N−1) converters.
    Direct,
}

/// A converter registry over a set of packages.
pub struct ConverterRegistry {
    packages: Vec<SyntheticPackage>,
    strategy: ConvertStrategy,
    /// Direct strategy: composed permutation per (src, dst, len).
    /// (Keyed by length because permutations are length-dependent.)
    composed: HashMap<(usize, usize, usize), Vec<usize>>,
}

impl ConverterRegistry {
    /// Builds a registry for `n` synthetic packages with the given strategy.
    pub fn new(n: usize, strategy: ConvertStrategy) -> Self {
        ConverterRegistry {
            packages: (0..n).map(|id| SyntheticPackage { id }).collect(),
            strategy,
            composed: HashMap::new(),
        }
    }

    /// Number of converter implementations this strategy requires for the
    /// registry's package count — the paper's 2N-vs-N² argument.
    pub fn converter_count(&self) -> usize {
        let n = self.packages.len();
        match self.strategy {
            ConvertStrategy::Hub => 2 * n,
            ConvertStrategy::Direct => n * n.saturating_sub(1),
        }
    }

    /// Converts `data` from `src`'s native order to `dst`'s native order.
    ///
    /// # Panics
    /// If either package id is not in the registry.
    pub fn convert(&mut self, src: usize, dst: usize, data: &[f64]) -> Vec<f64> {
        assert!(src < self.packages.len() && dst < self.packages.len(), "unknown package");
        let (s, d) = (self.packages[src], self.packages[dst]);
        if src == dst {
            return data.to_vec();
        }
        match self.strategy {
            ConvertStrategy::Hub => {
                let canonical = s.to_canonical(data);
                d.from_canonical(&canonical)
            }
            ConvertStrategy::Direct => {
                let n = data.len();
                // The "converter" is the composed permutation
                // dst_native ∘ canonical ∘ src_native⁻¹, built once per
                // (src, dst, length) and applied in a single pass.
                let perm = self.composed.entry((src, dst, n)).or_insert_with(|| {
                    let mut inv_src = vec![0usize; n];
                    for i in 0..n {
                        inv_src[s.native_pos(i, n)] = i;
                    }
                    (0..n).map(|pos_src| d.native_pos(inv_src[pos_src], n)).collect()
                });
                let mut out = vec![0.0; n];
                for (pos_src, &v) in data.iter().enumerate() {
                    out[perm[pos_src]] = v;
                }
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64 * 1.5).collect()
    }

    #[test]
    fn package_roundtrip_is_identity() {
        for id in 0..6 {
            let p = SyntheticPackage { id };
            let data = sample(37);
            assert_eq!(p.to_canonical(&p.from_canonical(&data)), data);
        }
    }

    #[test]
    fn native_pos_is_a_bijection() {
        for id in 0..5 {
            let p = SyntheticPackage { id };
            let n = 23;
            let mut seen = vec![false; n];
            for i in 0..n {
                let pos = p.native_pos(i, n);
                assert!(!seen[pos], "collision at {pos}");
                seen[pos] = true;
            }
        }
    }

    #[test]
    fn distinct_packages_have_distinct_layouts() {
        let a = SyntheticPackage { id: 0 };
        let b = SyntheticPackage { id: 1 };
        let data = sample(16);
        assert_ne!(a.from_canonical(&data), b.from_canonical(&data));
    }

    #[test]
    fn hub_and_direct_agree() {
        let data = sample(64);
        let mut hub = ConverterRegistry::new(4, ConvertStrategy::Hub);
        let mut direct = ConverterRegistry::new(4, ConvertStrategy::Direct);
        for src in 0..4 {
            for dst in 0..4 {
                let native_src = SyntheticPackage { id: src }.from_canonical(&data);
                let h = hub.convert(src, dst, &native_src);
                let d = direct.convert(src, dst, &native_src);
                assert_eq!(h, d, "src={src} dst={dst}");
                // Both must equal dst's native form of the canonical data.
                let expect = SyntheticPackage { id: dst }.from_canonical(&data);
                assert_eq!(h, expect);
            }
        }
    }

    #[test]
    fn converter_counts_follow_the_paper() {
        for n in 1..10 {
            let hub = ConverterRegistry::new(n, ConvertStrategy::Hub);
            let direct = ConverterRegistry::new(n, ConvertStrategy::Direct);
            assert_eq!(hub.converter_count(), 2 * n);
            assert_eq!(direct.converter_count(), n * (n - 1));
        }
        // The crossover the paper argues from: N² overtakes 2N at N = 4.
        assert!(
            ConverterRegistry::new(4, ConvertStrategy::Direct).converter_count()
                > ConverterRegistry::new(4, ConvertStrategy::Hub).converter_count()
        );
    }

    #[test]
    fn same_package_conversion_is_identity() {
        let data = sample(10);
        let mut reg = ConverterRegistry::new(3, ConvertStrategy::Hub);
        assert_eq!(reg.convert(2, 2, &data), data);
    }

    #[test]
    fn empty_buffer_handled() {
        let mut reg = ConverterRegistry::new(2, ConvertStrategy::Direct);
        assert!(reg.convert(0, 1, &[]).is_empty());
    }
}
