//! Data transformation filters.
//!
//! The paper's Summary (§6) calls for "concatenating component 'filters',
//! e.g. for spatial and temporal interpolation or unit conversions" and
//! asks "how efficiently redistribution functions compose with one
//! another. Techniques must be explored to operate on data in place and
//! avoid unnecessary data copies."
//!
//! A [`Filter`] transforms a rank's local field values in place. Filters
//! that are *affine* (`y = a·x + b`) expose their coefficients so the
//! pipeline optimizer can fuse whole chains of them into a single pass —
//! the paper's "super-component" idea (see [`crate::pipeline`]).

use std::fmt;

/// An in-place per-element transformation of local field data.
pub trait Filter: Send + Sync {
    /// A short description for pipeline introspection.
    fn describe(&self) -> String;

    /// Transforms the local buffer in place.
    fn apply(&self, data: &mut [f64]);

    /// If the filter is affine (`y = a·x + b`), its `(a, b)`; fusable.
    fn as_affine(&self) -> Option<(f64, f64)> {
        None
    }
}

impl fmt::Debug for dyn Filter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.describe())
    }
}

/// Unit conversion: `y = scale·x + offset` (°C→K, Pa→hPa, …). Affine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitConversion {
    /// Multiplicative factor.
    pub scale: f64,
    /// Additive offset (applied after scaling).
    pub offset: f64,
}

impl UnitConversion {
    /// Celsius → Kelvin.
    pub fn celsius_to_kelvin() -> Self {
        UnitConversion { scale: 1.0, offset: 273.15 }
    }
}

impl Filter for UnitConversion {
    fn describe(&self) -> String {
        format!("unit({} x + {})", self.scale, self.offset)
    }

    fn apply(&self, data: &mut [f64]) {
        for v in data {
            *v = self.scale * *v + self.offset;
        }
    }

    fn as_affine(&self) -> Option<(f64, f64)> {
        Some((self.scale, self.offset))
    }
}

/// Pure scaling. Affine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale(pub f64);

impl Filter for Scale {
    fn describe(&self) -> String {
        format!("scale({})", self.0)
    }

    fn apply(&self, data: &mut [f64]) {
        for v in data {
            *v *= self.0;
        }
    }

    fn as_affine(&self) -> Option<(f64, f64)> {
        Some((self.0, 0.0))
    }
}

/// Clamps values into `[lo, hi]` (e.g. positivity of concentrations).
/// Not affine — acts as a fusion barrier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Clamp {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

impl Filter for Clamp {
    fn describe(&self) -> String {
        format!("clamp[{}, {}]", self.lo, self.hi)
    }

    fn apply(&self, data: &mut [f64]) {
        for v in data {
            *v = v.clamp(self.lo, self.hi);
        }
    }
}

/// Fuses a run of affine filters into a single affine filter:
/// `(a₂, b₂) ∘ (a₁, b₁) = (a₂·a₁, a₂·b₁ + b₂)`.
pub fn fuse_affine(coeffs: &[(f64, f64)]) -> UnitConversion {
    let (mut a, mut b) = (1.0, 0.0);
    for &(a2, b2) in coeffs {
        a *= a2;
        b = a2 * b + b2;
    }
    UnitConversion { scale: a, offset: b }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversion_applies_affine() {
        let f = UnitConversion::celsius_to_kelvin();
        let mut v = vec![0.0, 100.0];
        f.apply(&mut v);
        assert_eq!(v, vec![273.15, 373.15]);
        assert_eq!(f.as_affine(), Some((1.0, 273.15)));
    }

    #[test]
    fn scale_and_clamp() {
        let mut v = vec![-2.0, 0.5, 3.0];
        Scale(2.0).apply(&mut v);
        assert_eq!(v, vec![-4.0, 1.0, 6.0]);
        Clamp { lo: 0.0, hi: 5.0 }.apply(&mut v);
        assert_eq!(v, vec![0.0, 1.0, 5.0]);
        assert!(Clamp { lo: 0.0, hi: 1.0 }.as_affine().is_none());
    }

    #[test]
    fn fusion_composes_in_application_order() {
        // x → 2x+1 → 3(2x+1)+4 = 6x+7.
        let fused = fuse_affine(&[(2.0, 1.0), (3.0, 4.0)]);
        assert_eq!(fused.scale, 6.0);
        assert_eq!(fused.offset, 7.0);
        let mut a = vec![1.0, 2.0];
        let mut b = a.clone();
        UnitConversion { scale: 2.0, offset: 1.0 }.apply(&mut a);
        UnitConversion { scale: 3.0, offset: 4.0 }.apply(&mut a);
        fused.apply(&mut b);
        assert_eq!(a, b);
    }
}
