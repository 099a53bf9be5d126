//! Ghost-cell (halo) exchange schedules.
//!
//! The paper's data-parallel components "perform operations on their local
//! portion of a distributed array" (§2.2.2) — and every stencil-shaped
//! operation needs its neighbours' boundary cells. A [`HaloSchedule`] is
//! the intra-component counterpart of the M×N schedule: built from the
//! same DAD, it exchanges each rank's boundary regions with the owners of
//! the adjacent cells, into a ghost-augmented local buffer.
//!
//! Ghost storage layout: each rank allocates its patch *expanded* by the
//! halo width on every side (clipped at the global boundary); the
//! interior is the owned patch, the fringe is filled by
//! [`HaloSchedule::exchange`].

use crate::plan::TransferBuffers;
use mxn_dad::{region_runs, CopyRun, Dad, LocalArray, Region};
use mxn_runtime::{record_schedule_build, record_schedule_copy, Comm, MsgSize, Result};

/// A ghost-augmented view of one rank's (single) patch.
#[derive(Debug, Clone, PartialEq)]
pub struct GhostedPatch<T> {
    /// The owned (interior) region in global coordinates.
    pub owned: Region,
    /// The expanded region including the halo fringe.
    pub expanded: Region,
    /// Storage for `expanded`, row-major.
    pub data: Vec<T>,
}

impl<T: Copy + Default> GhostedPatch<T> {
    fn allocate(owned: Region, expanded: Region) -> Self {
        let data = vec![T::default(); expanded.len()];
        GhostedPatch { owned, expanded, data }
    }
}

impl<T: Copy> GhostedPatch<T> {
    /// Value at a global index inside the expanded region.
    pub fn get(&self, idx: &[usize]) -> T {
        self.data[self.expanded.local_offset(idx)]
    }

    /// Sets a value at a global index inside the expanded region.
    pub fn set(&mut self, idx: &[usize], v: T) {
        let off = self.expanded.local_offset(idx);
        self.data[off] = v;
    }

    /// Copies the owned interior in from plain local storage.
    pub(crate) fn load_interior(&mut self, local: &LocalArray<T>) {
        for idx in self.owned.iter() {
            let off = self.expanded.local_offset(&idx);
            self.data[off] = *local.get(&idx).expect("interior is owned");
        }
    }
}

/// A reusable halo-exchange plan for one rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HaloSchedule {
    /// `(peer, region)` pairs this rank sends (regions it owns that lie in
    /// peers' halos).
    sends: Vec<(usize, Region)>,
    /// `(peer, region)` pairs this rank receives (its halo cells, grouped
    /// by owner).
    recvs: Vec<(usize, Region)>,
    /// Precompiled copy runs into the expanded buffer, parallel to `sends`.
    send_runs: Vec<Vec<CopyRun>>,
    /// Precompiled copy runs into the expanded buffer, parallel to `recvs`.
    recv_runs: Vec<Vec<CopyRun>>,
    owned: Region,
    expanded: Region,
}

fn expand(region: &Region, width: usize, extents: &[usize]) -> Region {
    let lo: Vec<usize> = region.lo().iter().map(|&l| l.saturating_sub(width)).collect();
    let hi: Vec<usize> =
        region.hi().iter().zip(extents).map(|(&h, &e)| (h + width).min(e)).collect();
    Region::new(lo, hi)
}

impl HaloSchedule {
    /// Builds the halo plan for `rank` of `dad` with the given halo
    /// `width`. The descriptor must give each rank exactly one patch
    /// (block-family decompositions; cyclic layouts have no meaningful
    /// halos).
    ///
    /// # Panics
    /// If the rank owns zero or multiple patches.
    pub fn build(dad: &Dad, rank: usize, width: usize) -> HaloSchedule {
        let patches = dad.patches(rank);
        assert_eq!(patches.len(), 1, "halo exchange needs one patch per rank");
        let owned = patches[0].clone();
        let extents = dad.extents().dims().to_vec();
        let expanded = expand(&owned, width, &extents);

        // My halo: expanded minus owned, grouped by owning peer. Candidate
        // neighbours come from the descriptor's overlap index queried with
        // the expanded region — a peer whose halo reaches my patch also has
        // a patch within `width` of mine, so its patch intersects my
        // expanded region and the one query covers both directions.
        let hits = dad.overlap_index().query(&expanded);
        let mut recvs = Vec::new();
        let mut sends = Vec::new();
        for (peer, _) in &hits.hits {
            let peer = *peer;
            if peer == rank {
                continue;
            }
            for peer_patch in dad.patches(peer) {
                if let Some(overlap) = expanded.intersect(&peer_patch) {
                    recvs.push((peer, overlap));
                }
                // Symmetric: what of mine lies in the peer's halo.
                let peer_expanded = expand(&peer_patch, width, &extents);
                if let Some(overlap) = peer_expanded.intersect(&owned) {
                    sends.push((peer, overlap));
                }
            }
        }
        let by_peer_then_lo =
            |a: &(usize, Region), b: &(usize, Region)| (a.0, a.1.lo()).cmp(&(b.0, b.1.lo()));
        sends.sort_by(by_peer_then_lo);
        recvs.sort_by(by_peer_then_lo);
        record_schedule_build(hits.probes as u64, sends.len() as u64);
        // Precompile each message's copy runs against the expanded buffer,
        // so exchanges move whole rows instead of single elements.
        let runs_for = |list: &[(usize, Region)]| -> Vec<Vec<CopyRun>> {
            list.iter().map(|(_, r)| region_runs([&expanded], r)).collect()
        };
        let send_runs = runs_for(&sends);
        let recv_runs = runs_for(&recvs);
        HaloSchedule { sends, recvs, send_runs, recv_runs, owned, expanded }
    }

    /// The rank's owned region.
    pub fn owned(&self) -> &Region {
        &self.owned
    }

    /// The owned region expanded by the halo.
    pub fn expanded(&self) -> &Region {
        &self.expanded
    }

    /// The `(peer, region)` pairs this rank sends.
    pub fn sends(&self) -> &[(usize, Region)] {
        &self.sends
    }

    /// The `(peer, region)` pairs this rank receives.
    pub fn recvs(&self) -> &[(usize, Region)] {
        &self.recvs
    }

    /// Total halo cells received per exchange.
    pub fn halo_cells(&self) -> usize {
        self.recvs.iter().map(|(_, r)| r.len()).sum()
    }

    /// Allocates the ghost-augmented buffer and loads the interior.
    pub fn allocate<T: Copy + Default>(&self, local: &LocalArray<T>) -> GhostedPatch<T> {
        let mut g = GhostedPatch::allocate(self.owned.clone(), self.expanded.clone());
        g.load_interior(local);
        g
    }

    /// One halo exchange: sends this rank's boundary cells and fills the
    /// ghost fringe from the neighbours. Collective over `comm`. Message
    /// buffers are leased from `pool`: every rank both sends and receives,
    /// so received buffers satisfy the next step's leases and steady-state
    /// stencil loops that keep the pool stop allocating.
    pub fn exchange<T>(
        &self,
        comm: &Comm,
        ghosted: &mut GhostedPatch<T>,
        tag: i32,
        pool: &mut TransferBuffers<T>,
    ) -> Result<()>
    where
        T: Copy + Send + MsgSize + 'static,
    {
        assert_eq!(
            ghosted.expanded, self.expanded,
            "ghosted buffer does not match this schedule's expanded region"
        );
        for ((peer, region), runs) in self.sends.iter().zip(&self.send_runs) {
            let mut buf = pool.lease(region.len());
            for run in runs {
                buf.extend_from_slice(&ghosted.data[run.patch_off..run.patch_off + run.len]);
            }
            record_schedule_copy(buf.len() as u64, runs.len() as u64);
            comm.send(*peer, tag, buf)?;
        }
        for ((peer, _), runs) in self.recvs.iter().zip(&self.recv_runs) {
            let buf: Vec<T> = comm.recv(*peer, tag)?;
            for run in runs {
                ghosted.data[run.patch_off..run.patch_off + run.len]
                    .copy_from_slice(&buf[run.sub_off..run.sub_off + run.len]);
            }
            record_schedule_copy(buf.len() as u64, runs.len() as u64);
            pool.recycle(buf);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mxn_dad::Extents;
    use mxn_runtime::World;

    fn dad_1d(n: usize, p: usize) -> Dad {
        Dad::block(Extents::new([n]), &[p]).unwrap()
    }

    #[test]
    fn plan_shape_1d() {
        let dad = dad_1d(12, 3);
        let mid = HaloSchedule::build(&dad, 1, 2);
        assert_eq!(mid.owned(), &Region::new([4], [8]));
        assert_eq!(mid.expanded(), &Region::new([2], [10]));
        assert_eq!(mid.sends().len(), 2, "two neighbours");
        assert_eq!(mid.halo_cells(), 4);
        // Edge ranks clip at the boundary.
        let left = HaloSchedule::build(&dad, 0, 2);
        assert_eq!(left.expanded(), &Region::new([0], [6]));
        assert_eq!(left.halo_cells(), 2);
    }

    #[test]
    fn exchange_fills_ghosts_1d() {
        World::run(3, |p| {
            let comm = p.world();
            let dad = dad_1d(12, 3);
            let plan = HaloSchedule::build(&dad, comm.rank(), 2);
            let local = LocalArray::from_fn(&dad, comm.rank(), |idx| idx[0] as i64 * 10);
            let mut g = plan.allocate(&local);
            plan.exchange(comm, &mut g, 7, &mut TransferBuffers::new()).unwrap();
            // Every cell of the expanded region now holds its global value.
            for idx in plan.expanded().clone().iter() {
                assert_eq!(g.get(&idx), idx[0] as i64 * 10, "at {idx:?}");
            }
        });
    }

    #[test]
    fn exchange_2d_grid() {
        World::run(4, |p| {
            let comm = p.world();
            let dad = Dad::block(Extents::new([8, 8]), &[2, 2]).unwrap();
            let plan = HaloSchedule::build(&dad, comm.rank(), 1);
            let local = LocalArray::from_fn(&dad, comm.rank(), |idx| (idx[0] * 8 + idx[1]) as f64);
            let mut g = plan.allocate(&local);
            plan.exchange(comm, &mut g, 3, &mut TransferBuffers::new()).unwrap();
            for idx in plan.expanded().clone().iter() {
                assert_eq!(g.get(&idx), (idx[0] * 8 + idx[1]) as f64);
            }
            // Interior ranks exchange with 3 neighbours (2 edges + corner).
            assert_eq!(plan.sends().len(), 3);
        });
    }

    #[test]
    fn stencil_after_exchange_matches_serial() {
        // A 1-D 3-point average computed in parallel with halos equals the
        // serial computation.
        let n = 16;
        let serial: Vec<f64> = {
            let vals: Vec<f64> = (0..n).map(|i| (i * i) as f64).collect();
            (0..n)
                .map(|i| {
                    let l = if i == 0 { vals[0] } else { vals[i - 1] };
                    let r = if i == n - 1 { vals[n - 1] } else { vals[i + 1] };
                    (l + vals[i] + r) / 3.0
                })
                .collect()
        };
        let serial = std::sync::Arc::new(serial);
        World::run(4, move |p| {
            let comm = p.world();
            let dad = dad_1d(n, 4);
            let plan = HaloSchedule::build(&dad, comm.rank(), 1);
            let local = LocalArray::from_fn(&dad, comm.rank(), |idx| (idx[0] * idx[0]) as f64);
            let mut g = plan.allocate(&local);
            plan.exchange(comm, &mut g, 0, &mut TransferBuffers::new()).unwrap();
            for idx in plan.owned().clone().iter() {
                let i = idx[0];
                let left = if i == 0 { g.get(&[0]) } else { g.get(&[i - 1]) };
                let right = if i == n - 1 { g.get(&[n - 1]) } else { g.get(&[i + 1]) };
                let avg = (left + g.get(&[i]) + right) / 3.0;
                assert_eq!(avg, serial[i], "stencil at {i}");
            }
        });
    }

    #[test]
    #[should_panic(expected = "one patch")]
    fn multi_patch_layout_rejected() {
        use mxn_dad::{AxisDist, Template};
        let dad = Dad::regular(
            Template::new(Extents::new([8]), vec![AxisDist::Cyclic { nprocs: 2 }]).unwrap(),
        );
        HaloSchedule::build(&dad, 0, 1);
    }

    #[test]
    fn build_probes_only_neighbours() {
        use mxn_runtime::{reset_schedule_stats, schedule_stats};
        let dad = dad_1d(4096, 256);
        reset_schedule_stats();
        let plan = HaloSchedule::build(&dad, 128, 2);
        let stats = schedule_stats();
        assert_eq!(plan.sends().len(), 2, "two neighbours");
        assert!(
            stats.peer_probes <= 4,
            "probed {} of 256 ranks for a width-2 halo",
            stats.peer_probes
        );
    }

    #[test]
    fn pooled_exchange_stops_allocating_after_first_step() {
        World::run(2, |p| {
            let comm = p.world();
            let dad = dad_1d(8, 2);
            let plan = HaloSchedule::build(&dad, comm.rank(), 1);
            let local = LocalArray::from_fn(&dad, comm.rank(), |idx| idx[0] as i64);
            let mut g = plan.allocate(&local);
            let mut pool = TransferBuffers::new();
            for step in 0..5 {
                plan.exchange(comm, &mut g, step, &mut pool).unwrap();
            }
            let (leases, fresh) = pool.stats();
            assert_eq!(leases, 5);
            assert_eq!(fresh, 1, "only the first step allocates");
            for idx in plan.expanded().clone().iter() {
                assert_eq!(g.get(&idx), idx[0] as i64);
            }
        });
    }

    #[test]
    fn repeated_exchanges_reuse_the_plan() {
        World::run(2, |p| {
            let comm = p.world();
            let dad = dad_1d(8, 2);
            let plan = HaloSchedule::build(&dad, comm.rank(), 1);
            let local = LocalArray::from_fn(&dad, comm.rank(), |idx| idx[0] as i64);
            let mut g = plan.allocate(&local);
            for step in 0..5 {
                plan.exchange(comm, &mut g, step, &mut TransferBuffers::new()).unwrap();
                for idx in plan.expanded().clone().iter() {
                    assert_eq!(g.get(&idx), idx[0] as i64);
                }
            }
        });
    }
}
