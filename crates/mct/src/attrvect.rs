//! The attribute vector: MCT's "multi-field data storage object that is
//! the common currency modules use in data exchange" (paper §4.5).
//!
//! An [`AttrVect`] stores named real and integer attributes for `n` grid
//! points, **field-major** (one contiguous buffer per field), which is what
//! makes multi-field operations like interpolation "cache-friendly": the
//! inner loops stream over one field at a time.

use std::collections::HashMap;

/// Multi-field point data: `k` named real fields and `m` named integer
/// fields over `n` points.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrVect {
    length: usize,
    real_names: Vec<String>,
    real_index: HashMap<String, usize>,
    reals: Vec<Vec<f64>>,
    int_names: Vec<String>,
    int_index: HashMap<String, usize>,
    ints: Vec<Vec<i64>>,
}

impl AttrVect {
    /// Creates a zero-initialized attribute vector with the given real and
    /// integer field names ("rList"/"iList" in MCT).
    ///
    /// # Panics
    /// On duplicate field names within a list.
    pub fn new(real_fields: &[&str], int_fields: &[&str], length: usize) -> Self {
        let mut real_index = HashMap::new();
        for (i, f) in real_fields.iter().enumerate() {
            assert!(real_index.insert(f.to_string(), i).is_none(), "duplicate real field {f}");
        }
        let mut int_index = HashMap::new();
        for (i, f) in int_fields.iter().enumerate() {
            assert!(int_index.insert(f.to_string(), i).is_none(), "duplicate int field {f}");
        }
        AttrVect {
            length,
            real_names: real_fields.iter().map(|s| s.to_string()).collect(),
            real_index,
            reals: vec![vec![0.0; length]; real_fields.len()],
            int_names: int_fields.iter().map(|s| s.to_string()).collect(),
            int_index,
            ints: vec![vec![0; length]; int_fields.len()],
        }
    }

    /// Number of points ("lsize").
    pub fn lsize(&self) -> usize {
        self.length
    }

    /// Number of real fields.
    pub(crate) fn num_real(&self) -> usize {
        self.reals.len()
    }

    /// Real field names in storage order.
    pub(crate) fn real_names(&self) -> &[String] {
        &self.real_names
    }

    /// Borrow a real field's buffer.
    ///
    /// # Panics
    /// On unknown field name.
    pub fn real(&self, name: &str) -> &[f64] {
        let i = self.real_index[name];
        &self.reals[i]
    }

    /// Mutably borrow a real field's buffer.
    pub fn real_mut(&mut self, name: &str) -> &mut [f64] {
        let i = self.real_index[name];
        &mut self.reals[i]
    }

    /// Mutably borrow a real field by storage index.
    pub fn real_at_mut(&mut self, index: usize) -> &mut [f64] {
        &mut self.reals[index]
    }

    /// Borrow an integer field's buffer.
    pub fn int(&self, name: &str) -> &[i64] {
        let i = self.int_index[name];
        &self.ints[i]
    }

    /// Mutably borrow an integer field's buffer.
    pub fn int_mut(&mut self, name: &str) -> &mut [i64] {
        let i = self.int_index[name];
        &mut self.ints[i]
    }

    /// Zeroes every field.
    pub(crate) fn zero(&mut self) {
        for f in &mut self.reals {
            f.fill(0.0);
        }
        for f in &mut self.ints {
            f.fill(0);
        }
    }

    /// Gathers the given point indices of every real field into a packed,
    /// field-major buffer (the Router's pack kernel).
    pub(crate) fn pack_points(&self, points: &[usize]) -> Vec<f64> {
        let mut out = Vec::with_capacity(points.len() * self.reals.len());
        for field in &self.reals {
            out.extend(points.iter().map(|&p| field[p]));
        }
        out
    }

    /// Scatters a packed field-major buffer into the given point indices.
    pub(crate) fn unpack_points(&mut self, points: &[usize], data: &[f64]) {
        assert_eq!(data.len(), points.len() * self.reals.len(), "unpack size mismatch");
        for (fi, field) in self.reals.iter_mut().enumerate() {
            let chunk = &data[fi * points.len()..(fi + 1) * points.len()];
            for (&p, &v) in points.iter().zip(chunk) {
                field[p] = v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn av() -> AttrVect {
        AttrVect::new(&["temp", "salt"], &["mask"], 4)
    }

    #[test]
    fn construction_and_shape() {
        let a = av();
        assert_eq!(a.lsize(), 4);
        assert_eq!(a.num_real(), 2);
        assert_eq!(a.ints.len(), 1);
        assert_eq!(a.real_names(), &["temp".to_string(), "salt".to_string()]);
        assert!(a.real("temp").iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_fields_rejected() {
        AttrVect::new(&["t", "t"], &[], 1);
    }

    #[test]
    fn field_access_and_mutation() {
        let mut a = av();
        a.real_mut("temp").copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        a.int_mut("mask").copy_from_slice(&[1, 0, 1, 0]);
        assert_eq!(a.real("temp")[2], 3.0);
        assert_eq!(a.int("mask")[1], 0);
    }

    #[test]
    fn zero_clears_the_reals() {
        let mut a = av();
        a.real_mut("temp").copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        a.zero();
        assert!(a.real("temp").iter().all(|&v| v == 0.0));
    }

    #[test]
    fn pack_unpack_field_major() {
        let mut a = av();
        a.real_mut("temp").copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        a.real_mut("salt").copy_from_slice(&[10.0, 20.0, 30.0, 40.0]);
        let packed = a.pack_points(&[3, 1]);
        // Field-major: temp points then salt points.
        assert_eq!(packed, vec![4.0, 2.0, 40.0, 20.0]);
        let mut b = av();
        b.unpack_points(&[3, 1], &packed);
        assert_eq!(b.real("temp"), &[0.0, 2.0, 0.0, 4.0]);
        assert_eq!(b.real("salt"), &[0.0, 20.0, 0.0, 40.0]);
    }
}
