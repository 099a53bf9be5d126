//! Cartesian process topologies.
//!
//! The paper's decompositions live on process grids ("one simulation
//! executes on a set of M processes" arranged 2×2×2, Figure 1); MPI codes
//! express that with Cartesian topologies. [`CartComm`] provides
//! rank↔coordinate mapping and neighbour shifts (with optional
//! periodicity) — the pieces stencil codes combine with `mxn_schedule`'s
//! halo exchange.

use crate::comm::Comm;
use crate::error::{Result, RuntimeError};

/// A communicator with Cartesian structure.
pub struct CartComm {
    comm: Comm,
    dims: Vec<usize>,
    periodic: Vec<bool>,
}

impl CartComm {
    /// Attaches a Cartesian topology to `comm`. `dims` must multiply to
    /// the communicator size; `periodic` flags each dimension.
    pub fn new(comm: Comm, dims: Vec<usize>, periodic: Vec<bool>) -> Result<CartComm> {
        if dims.iter().product::<usize>() != comm.size() {
            return Err(RuntimeError::CollectiveMismatch {
                detail: format!(
                    "dims {:?} do not multiply to the communicator size {}",
                    dims,
                    comm.size()
                ),
            });
        }
        if dims.len() != periodic.len() {
            return Err(RuntimeError::CollectiveMismatch {
                detail: "one periodicity flag per dimension required".into(),
            });
        }
        Ok(CartComm { comm, dims, periodic })
    }

    /// The underlying communicator.
    pub fn comm(&self) -> &Comm {
        &self.comm
    }

    /// Grid dimensions.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// This rank's grid coordinates (row-major rank order).
    pub fn coords(&self) -> Vec<usize> {
        self.coords_of(self.comm.rank())
    }

    /// Coordinates of any rank.
    pub(crate) fn coords_of(&self, mut rank: usize) -> Vec<usize> {
        assert!(rank < self.comm.size());
        let mut c = vec![0; self.dims.len()];
        for d in (0..self.dims.len()).rev() {
            c[d] = rank % self.dims[d];
            rank /= self.dims[d];
        }
        c
    }

    /// Rank at the given coordinates.
    pub fn rank_of(&self, coords: &[usize]) -> usize {
        assert_eq!(coords.len(), self.dims.len());
        let mut r = 0;
        for (d, (&c, &dim)) in coords.iter().zip(&self.dims).enumerate() {
            assert!(c < dim, "coordinate {c} out of range on dim {d}");
            r = r * dim + c;
        }
        r
    }

    /// The `(source, dest)` neighbour ranks for a shift of `disp` along
    /// `dim` (like `MPI_Cart_shift`): `dest` is where this rank's data
    /// goes, `source` is where incoming data originates. `None` marks a
    /// non-periodic boundary.
    pub fn shift(&self, dim: usize, disp: isize) -> (Option<usize>, Option<usize>) {
        let c = self.coords();
        let offset = |delta: isize| -> Option<usize> {
            let extent = self.dims[dim] as isize;
            let raw = c[dim] as isize + delta;
            if self.periodic[dim] {
                let wrapped = raw.rem_euclid(extent) as usize;
                let mut nc = c.clone();
                nc[dim] = wrapped;
                Some(self.rank_of(&nc))
            } else if (0..extent).contains(&raw) {
                let mut nc = c.clone();
                nc[dim] = raw as usize;
                Some(self.rank_of(&nc))
            } else {
                None
            }
        };
        (offset(-disp), offset(disp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;

    #[test]
    fn coords_roundtrip() {
        World::run(12, |p| {
            let cart =
                CartComm::new(p.world().dup().unwrap(), vec![4, 3], vec![false, false]).unwrap();
            let c = cart.coords();
            assert_eq!(cart.rank_of(&c), p.rank());
            assert_eq!(cart.coords_of(p.rank()), c);
        });
    }

    #[test]
    fn invalid_dims_rejected() {
        World::run(4, |p| {
            let r = CartComm::new(p.world().dup().unwrap(), vec![3, 2], vec![false, false]);
            assert!(r.is_err());
            let r = CartComm::new(p.world().dup().unwrap(), vec![2, 2], vec![false]);
            assert!(r.is_err());
        });
    }

    #[test]
    fn shift_nonperiodic_boundaries() {
        World::run(4, |p| {
            let cart = CartComm::new(p.world().dup().unwrap(), vec![4], vec![false]).unwrap();
            let (src, dst) = cart.shift(0, 1);
            match p.rank() {
                0 => {
                    assert_eq!(src, None);
                    assert_eq!(dst, Some(1));
                }
                3 => {
                    assert_eq!(src, Some(2));
                    assert_eq!(dst, None);
                }
                r => {
                    assert_eq!(src, Some(r - 1));
                    assert_eq!(dst, Some(r + 1));
                }
            }
        });
    }

    #[test]
    fn periodic_ring_shift_exchange() {
        World::run(5, |p| {
            let cart = CartComm::new(p.world().dup().unwrap(), vec![5], vec![true]).unwrap();
            let (src, dst) = cart.shift(0, 1);
            let (src, dst) = (src.unwrap(), dst.unwrap());
            cart.comm().send(dst, 0, p.rank() as u64).unwrap();
            let got: u64 = cart.comm().recv(src, 0).unwrap();
            assert_eq!(got as usize, (p.rank() + 4) % 5);
        });
    }

    #[test]
    fn shift_2d_mixed_periodicity() {
        World::run(6, |p| {
            let cart =
                CartComm::new(p.world().dup().unwrap(), vec![2, 3], vec![false, true]).unwrap();
            let c = cart.coords();
            // Dim 1 is periodic: always both neighbours.
            let (s1, d1) = cart.shift(1, 1);
            assert!(s1.is_some() && d1.is_some());
            assert_eq!(cart.coords_of(d1.unwrap())[1], (c[1] + 1) % 3);
            // Dim 0 is not: edges lose a neighbour.
            let (s0, d0) = cart.shift(0, 1);
            if c[0] == 0 {
                assert!(s0.is_none() && d0.is_some());
            } else {
                assert!(s0.is_some() && d0.is_none());
            }
        });
    }
}
