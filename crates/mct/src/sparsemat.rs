//! Distributed sparse matrices and parallel interpolation.
//!
//! "A class encapsulating distributed sparse matrix elements and
//! communication schedulers used in performing interpolation as parallel
//! sparse matrix-vector multiplication in a multi-field, cache-friendly
//! fashion" (paper §4.5 — MCT's `SparseMatrix` / `SparseMatrixPlus`).
//!
//! The matrix maps a source grid (columns, decomposed by the source
//! [`GlobalSegMap`]) to a destination grid (rows, decomposed by the
//! destination map). Each rank holds the matrix rows for its destination
//! points; [`SparseMatrixPlus::build`] precomputes the communication
//! schedule that gathers the needed source-vector entries, and
//! [`SparseMatrixPlus::apply`] runs gather + local matvec for *every* real
//! field of an [`AttrVect`] (field-major inner loops).

use std::collections::HashMap;

use mxn_runtime::{Comm, Result, RuntimeError};

use crate::attrvect::AttrVect;
use crate::gsmap::GlobalSegMap;

/// One matrix element: `y[row] += weight * x[col]` (global numbering).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseElem {
    /// Destination (row) global point.
    pub row: usize,
    /// Source (column) global point.
    pub col: usize,
    /// Interpolation weight.
    pub weight: f64,
}

/// A rank's portion of a distributed sparse matrix: the elements whose
/// rows this rank owns under the destination map.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    nrows: usize,
    ncols: usize,
    elems: Vec<SparseElem>,
}

impl SparseMatrix {
    /// Creates a local matrix portion; elements must reference valid
    /// global rows/cols.
    pub fn new(nrows: usize, ncols: usize, elems: Vec<SparseElem>) -> Result<Self> {
        for e in &elems {
            if e.row >= nrows || e.col >= ncols {
                return Err(RuntimeError::CollectiveMismatch {
                    detail: format!(
                        "element ({}, {}) outside {}×{} matrix",
                        e.row, e.col, nrows, ncols
                    ),
                });
            }
        }
        Ok(SparseMatrix { nrows, ncols, elems })
    }

    /// Global row count (destination grid size).
    pub(crate) fn nrows(&self) -> usize {
        self.nrows
    }

    /// Global column count (source grid size).
    pub(crate) fn ncols(&self) -> usize {
        self.ncols
    }

    /// Local elements.
    pub(crate) fn elems(&self) -> &[SparseElem] {
        &self.elems
    }
}

/// A sparse matrix plus its precomputed gather schedule — MCT's
/// `SparseMatrixPlus`.
pub struct SparseMatrixPlus {
    /// Elements rewritten to (dst local row, gathered-x slot, weight).
    local_elems: Vec<(usize, usize, f64)>,
    /// Per peer rank: the x local indices they will send us, in order.
    recv_plan: Vec<(usize, usize)>, // (peer, count)
    /// Per peer rank: our x local indices to send them.
    send_plan: Vec<(usize, Vec<usize>)>,
    /// Total gathered slots.
    gather_len: usize,
    dst_lsize: usize,
    src_lsize: usize,
}

impl SparseMatrixPlus {
    /// Collectively builds the schedule over `comm`. `local` must contain
    /// exactly the elements whose rows `dst_map` assigns to this rank.
    pub fn build(
        comm: &Comm,
        local: &SparseMatrix,
        src_map: &GlobalSegMap,
        dst_map: &GlobalSegMap,
    ) -> Result<SparseMatrixPlus> {
        let me = comm.rank();
        if local.nrows() != dst_map.gsize() || local.ncols() != src_map.gsize() {
            return Err(RuntimeError::CollectiveMismatch {
                detail: "matrix shape does not match the maps".into(),
            });
        }
        // Which global columns do we need, who owns them?
        let mut needed_by_owner: Vec<Vec<usize>> = vec![Vec::new(); comm.size()];
        let mut slot_of: HashMap<usize, usize> = HashMap::new();
        let mut order: Vec<(usize, usize)> = Vec::new(); // (owner, global col)
        for e in local.elems() {
            if e.row >= dst_map.gsize() || dst_map.owner(e.row) != me {
                return Err(RuntimeError::CollectiveMismatch {
                    detail: format!("row {} not owned by rank {me}", e.row),
                });
            }
            if let std::collections::hash_map::Entry::Vacant(slot) = slot_of.entry(e.col) {
                let owner = src_map.owner(e.col);
                needed_by_owner[owner].push(e.col);
                order.push((owner, e.col));
                slot.insert(usize::MAX); // placeholder
            }
        }
        // Gathered buffer layout: peer-major, request order within peer.
        let mut gather_len = 0;
        for cols in &needed_by_owner {
            for &col in cols {
                slot_of.insert(col, gather_len);
                gather_len += 1;
            }
        }
        let recv_plan: Vec<(usize, usize)> = needed_by_owner
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_empty())
            .map(|(p, v)| (p, v.len()))
            .collect();

        // Tell each owner which columns we need (alltoallv of requests).
        let requests = comm.alltoallv(needed_by_owner.clone())?;
        let send_plan: Vec<(usize, Vec<usize>)> = requests
            .into_iter()
            .enumerate()
            .filter(|(_, cols)| !cols.is_empty())
            .map(|(peer, cols)| {
                let locals = cols
                    .into_iter()
                    .map(|c| {
                        src_map.local_index(me, c).ok_or(RuntimeError::CollectiveMismatch {
                            detail: format!("rank {me} asked for unowned column {c}"),
                        })
                    })
                    .collect::<Result<Vec<usize>>>()?;
                Ok((peer, locals))
            })
            .collect::<Result<Vec<_>>>()?;

        let local_elems = local
            .elems()
            .iter()
            .map(|e| {
                (
                    dst_map.local_index(me, e.row).expect("row ownership checked"),
                    slot_of[&e.col],
                    e.weight,
                )
            })
            .collect();

        Ok(SparseMatrixPlus {
            local_elems,
            recv_plan,
            send_plan,
            gather_len,
            dst_lsize: dst_map.lsize(me),
            src_lsize: src_map.lsize(me),
        })
    }

    /// Interpolates every real field of `x` into `y`
    /// (`y = A·x`, collectively over `comm`). Field lists must match.
    pub fn apply(&self, comm: &Comm, x: &AttrVect, y: &mut AttrVect, tag: i32) -> Result<()> {
        assert_eq!(x.lsize(), self.src_lsize, "x does not match the source map");
        assert_eq!(y.lsize(), self.dst_lsize, "y does not match the destination map");
        assert_eq!(x.num_real(), y.num_real(), "field count mismatch");
        let nfields = x.num_real();

        // Exchange the needed x entries, all fields packed field-major.
        for (peer, locals) in &self.send_plan {
            comm.send(*peer, tag, x.pack_points(locals))?;
        }
        let mut gathered: Vec<Vec<f64>> = vec![vec![0.0; self.gather_len]; nfields];
        let mut offset = 0;
        for &(peer, count) in &self.recv_plan {
            let buf: Vec<f64> = comm.recv(peer, tag)?;
            debug_assert_eq!(buf.len(), count * nfields);
            for f in 0..nfields {
                gathered[f][offset..offset + count]
                    .copy_from_slice(&buf[f * count..(f + 1) * count]);
            }
            offset += count;
        }

        // Multi-field, cache-friendly matvec: fields outer, elements inner.
        for (f, xg) in gathered.iter().enumerate().take(nfields) {
            let yf = y.real_at_mut(f);
            yf.fill(0.0);
            for &(row, slot, w) in &self.local_elems {
                yf[row] += w * xg[slot];
            }
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mxn_runtime::World;

    /// Row sums of `a`'s local portion (a conservative remap has unit row
    /// sums).
    pub(crate) fn local_row_sums(a: &SparseMatrix) -> HashMap<usize, f64> {
        let mut sums = HashMap::new();
        for e in a.elems() {
            *sums.entry(e.row).or_insert(0.0) += e.weight;
        }
        sums
    }

    /// Conservative 2:1 coarsening on an 8-point grid: dst cell i averages
    /// src cells 2i, 2i+1.
    fn coarsen_elems(dst_map: &GlobalSegMap, me: usize) -> Vec<SparseElem> {
        let mut elems = Vec::new();
        for s in dst_map.rank_segments(me) {
            for r in s.start..s.start + s.length {
                elems.push(SparseElem { row: r, col: 2 * r, weight: 0.5 });
                elems.push(SparseElem { row: r, col: 2 * r + 1, weight: 0.5 });
            }
        }
        elems
    }

    #[test]
    fn parallel_interpolation_matches_serial() {
        World::run(2, |p| {
            let comm = p.world();
            let me = comm.rank();
            let src_map = GlobalSegMap::block(8, 2);
            let dst_map = GlobalSegMap::cyclic(4, 2, 1);
            let a = SparseMatrix::new(4, 8, coarsen_elems(&dst_map, me)).unwrap();
            let plus = SparseMatrixPlus::build(comm, &a, &src_map, &dst_map).unwrap();

            let mut x = AttrVect::new(&["u", "v"], &[], src_map.lsize(me));
            for l in 0..x.lsize() {
                let g = src_map.global_index(me, l).unwrap() as f64;
                x.real_mut("u")[l] = g;
                x.real_mut("v")[l] = g * g;
            }
            let mut y = AttrVect::new(&["u", "v"], &[], dst_map.lsize(me));
            plus.apply(comm, &x, &mut y, 11).unwrap();

            for l in 0..y.lsize() {
                let r = dst_map.global_index(me, l).unwrap() as f64;
                // u: average of 2r and 2r+1 = 2r + 0.5.
                assert_eq!(y.real("u")[l], 2.0 * r + 0.5);
                // v: ((2r)² + (2r+1)²)/2.
                let expect = ((2.0 * r) * (2.0 * r) + (2.0 * r + 1.0) * (2.0 * r + 1.0)) / 2.0;
                assert_eq!(y.real("v")[l], expect);
            }
        });
    }

    #[test]
    fn row_sums_of_conservative_remap_are_one() {
        let dst_map = GlobalSegMap::block(4, 1);
        let a = SparseMatrix::new(4, 8, coarsen_elems(&dst_map, 0)).unwrap();
        for (_, s) in local_row_sums(&a) {
            assert!((s - 1.0).abs() < 1e-12);
        }
        assert_eq!(a.elems().len(), 8);
    }

    #[test]
    fn shape_validation() {
        assert!(SparseMatrix::new(2, 2, vec![SparseElem { row: 2, col: 0, weight: 1.0 }]).is_err());
        World::run(1, |p| {
            let comm = p.world();
            let a = SparseMatrix::new(4, 8, vec![]).unwrap();
            let bad_src = GlobalSegMap::block(9, 1);
            let dst = GlobalSegMap::block(4, 1);
            assert!(SparseMatrixPlus::build(comm, &a, &bad_src, &dst).is_err());
        });
    }

    #[test]
    fn misplaced_row_rejected() {
        World::run(2, |p| {
            let comm = p.world();
            let src_map = GlobalSegMap::block(8, 2);
            let dst_map = GlobalSegMap::block(4, 2);
            // Each rank claims a row the *other* rank owns, so both fail
            // the ownership check (before any collective communication).
            let wrong_row = if comm.rank() == 0 { 2 } else { 0 };
            let a =
                SparseMatrix::new(4, 8, vec![SparseElem { row: wrong_row, col: 0, weight: 1.0 }])
                    .unwrap();
            let r = SparseMatrixPlus::build(comm, &a, &src_map, &dst_map);
            assert!(r.is_err());
        });
    }

    #[test]
    fn empty_local_matrix_is_fine() {
        World::run(2, |p| {
            let comm = p.world();
            let src_map = GlobalSegMap::block(4, 2);
            // All rows live on rank 0.
            let dst_map = GlobalSegMap::new(
                2,
                2,
                vec![crate::gsmap::Segment { start: 0, length: 2, rank: 0 }],
            )
            .unwrap();
            let elems = if comm.rank() == 0 {
                vec![
                    SparseElem { row: 0, col: 0, weight: 1.0 },
                    SparseElem { row: 1, col: 3, weight: 2.0 },
                ]
            } else {
                vec![]
            };
            let a = SparseMatrix::new(2, 4, elems).unwrap();
            let plus = SparseMatrixPlus::build(comm, &a, &src_map, &dst_map).unwrap();
            let mut x = AttrVect::new(&["f"], &[], src_map.lsize(comm.rank()));
            for l in 0..x.lsize() {
                x.real_mut("f")[l] = src_map.global_index(comm.rank(), l).unwrap() as f64 + 1.0;
            }
            let mut y = AttrVect::new(&["f"], &[], dst_map.lsize(comm.rank()));
            plus.apply(comm, &x, &mut y, 2).unwrap();
            if comm.rank() == 0 {
                assert_eq!(y.real("f"), &[1.0, 8.0]);
            } else {
                assert_eq!(y.lsize(), 0);
            }
        });
    }
}
