//! General grids: physical grid description with masking.
//!
//! "A data object for describing physical grids capable of supporting
//! grids of arbitrary dimension and unstructured grids, and … capable of
//! supporting masking of grid elements (e.g., land/ocean mask)"
//! (paper §4.5 — MCT's `GeneralGrid`).
//!
//! A grid is a list of points (structure-free, hence "unstructured-
//! capable"): per-point coordinates in any number of dimensions, a cell
//! weight (area/volume) for integrals, and named integer masks.

use std::collections::HashMap;

/// A (local portion of a) physical grid.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneralGrid {
    npoints: usize,
    /// `coords[d][p]` = coordinate `d` of point `p`.
    coords: Vec<Vec<f64>>,
    /// Cell weight (area/volume) per point.
    weights: Vec<f64>,
    /// Named integer masks (nonzero = active).
    masks: HashMap<String, Vec<i64>>,
}

impl GeneralGrid {
    /// Creates a grid from per-dimension coordinate lists and cell weights.
    ///
    /// # Panics
    /// If lengths disagree.
    pub(crate) fn new(coords: Vec<Vec<f64>>, weights: Vec<f64>) -> Self {
        let npoints = weights.len();
        for (d, c) in coords.iter().enumerate() {
            assert_eq!(c.len(), npoints, "coordinate axis {d} length mismatch");
        }
        GeneralGrid { npoints, coords, weights, masks: HashMap::new() }
    }

    /// A 1-D uniform grid on `[lo, hi]` with equal cell weights — handy
    /// for tests and examples.
    pub fn uniform_1d(npoints: usize, lo: f64, hi: f64) -> Self {
        assert!(npoints > 0);
        let h = (hi - lo) / npoints as f64;
        let xs = (0..npoints).map(|i| lo + (i as f64 + 0.5) * h).collect();
        GeneralGrid::new(vec![xs], vec![h; npoints])
    }

    /// Number of local points.
    pub(crate) fn npoints(&self) -> usize {
        self.npoints
    }

    /// Adds (or replaces) a named mask; nonzero entries are active.
    pub fn set_mask(&mut self, name: &str, mask: Vec<i64>) {
        assert_eq!(mask.len(), self.npoints, "mask length mismatch");
        self.masks.insert(name.to_string(), mask);
    }

    /// The effective weight of point `p` under an optional mask: zero for
    /// masked-out points.
    pub(crate) fn masked_weight(&self, p: usize, mask: Option<&str>) -> f64 {
        match mask.and_then(|m| self.masks.get(m)) {
            Some(m) if m[p] == 0 => 0.0,
            _ => self.weights[p],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_grid_geometry() {
        let g = GeneralGrid::uniform_1d(4, 0.0, 2.0);
        assert_eq!(g.npoints(), 4);
        assert_eq!(g.coords.len(), 1);
        assert_eq!(g.coords[0], [0.25, 0.75, 1.25, 1.75]);
        assert_eq!(g.weights, [0.5; 4]);
        assert_eq!(g.weights.iter().sum::<f64>(), 2.0, "weights cover the domain");
    }

    #[test]
    fn unstructured_2d_grid() {
        let g =
            GeneralGrid::new(vec![vec![0.0, 1.0, 0.5], vec![0.0, 0.0, 1.0]], vec![0.3, 0.3, 0.4]);
        assert_eq!(g.coords.len(), 2);
        assert_eq!(g.npoints(), 3);
        assert_eq!(g.coords[1][2], 1.0);
    }

    #[test]
    fn land_ocean_mask() {
        let mut g = GeneralGrid::uniform_1d(4, 0.0, 4.0);
        g.set_mask("ocean", vec![1, 0, 1, 0]);
        assert_eq!(g.masked_weight(0, Some("ocean")), 1.0);
        assert_eq!(g.masked_weight(1, Some("ocean")), 0.0);
        assert_eq!(g.masked_weight(1, None), 1.0);
        // Unknown mask name behaves as unmasked.
        assert_eq!(g.masked_weight(1, Some("ice")), 1.0);
        assert!(g.masks.contains_key("ocean"));
        assert!(!g.masks.contains_key("ice"));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mask_length_checked() {
        let mut g = GeneralGrid::uniform_1d(4, 0.0, 1.0);
        g.set_mask("m", vec![1, 2]);
    }
}
