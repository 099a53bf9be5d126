//! Incremental, user-driven reorganization — DRI's get/put model.
//!
//! "The user provides send and receive buffers and repeatedly call\[s\] DRI
//! get/put operations until the operation is complete." A [`DriReorg`] is
//! built collectively from the source and destination partitions; each
//! [`DriReorg::put`] ships one destination peer's chunk out of the user's
//! send buffer, each [`DriReorg::get`] lands one source peer's chunk into
//! the receive buffer, and [`DriReorg::is_complete`] reports when both
//! directions have drained. This low-level pacing is what lets signal-
//! processing pipelines interleave reorganization with computation.

use mxn_dad::LocalArray;
use mxn_runtime::{Comm, Result, RuntimeError};
use mxn_schedule::RegionSchedule;

use crate::partition::DriPartition;

/// Progress of one direction of a reorganization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReorgPhase {
    /// Chunks remain.
    InProgress {
        /// Chunks already processed.
        done: usize,
        /// Total chunks.
        total: usize,
    },
    /// This direction has drained.
    Complete,
}

/// One rank's handle on a collective reorganization between two
/// partitions of the same dataset, within one communicator whose ranks
/// cover both partitions (the DRI model: process groups of one job).
pub struct DriReorg {
    /// Kept for introspection and user-buffer helpers.
    src: DriPartition,
    dst: DriPartition,
    send: RegionSchedule,
    recv: RegionSchedule,
    send_cursor: usize,
    recv_cursor: usize,
    tag: i32,
}

impl DriReorg {
    /// Builds the per-rank plan. `my_rank` indexes both partitions (they
    /// must have the same process count — reorganization happens within
    /// one group, between two data layouts).
    pub fn new(src: DriPartition, dst: DriPartition, my_rank: usize, tag: i32) -> Result<DriReorg> {
        if src.nprocs() != dst.nprocs() {
            return Err(RuntimeError::CollectiveMismatch {
                detail: format!(
                    "DRI reorganization needs matching groups ({} vs {} procs)",
                    src.nprocs(),
                    dst.nprocs()
                ),
            });
        }
        if src.dad().extents() != dst.dad().extents() {
            return Err(RuntimeError::CollectiveMismatch {
                detail: "partitions describe different datasets".into(),
            });
        }
        let send = RegionSchedule::for_sender(src.dad(), dst.dad(), my_rank);
        let recv = RegionSchedule::for_receiver(src.dad(), dst.dad(), my_rank);
        Ok(DriReorg { src, dst, send, recv, send_cursor: 0, recv_cursor: 0, tag })
    }

    /// Progress of the outgoing direction.
    pub fn put_phase(&self) -> ReorgPhase {
        if self.send_cursor >= self.send.pairs().len() {
            ReorgPhase::Complete
        } else {
            ReorgPhase::InProgress { done: self.send_cursor, total: self.send.pairs().len() }
        }
    }

    /// Progress of the incoming direction.
    pub fn get_phase(&self) -> ReorgPhase {
        if self.recv_cursor >= self.recv.pairs().len() {
            ReorgPhase::Complete
        } else {
            ReorgPhase::InProgress { done: self.recv_cursor, total: self.recv.pairs().len() }
        }
    }

    /// The source partition.
    pub fn source(&self) -> &DriPartition {
        &self.src
    }

    /// The destination partition.
    pub fn destination(&self) -> &DriPartition {
        &self.dst
    }

    /// Both directions drained?
    pub fn is_complete(&self) -> bool {
        self.put_phase() == ReorgPhase::Complete && self.get_phase() == ReorgPhase::Complete
    }

    /// Ships the next destination peer's chunk out of `send_buf` (the
    /// rank's local data under the *source* partition). Returns the new
    /// phase; calling when already complete is a no-op.
    pub fn put(&mut self, comm: &Comm, send_buf: &LocalArray<f64>) -> Result<ReorgPhase> {
        if let Some(pair) = self.send.pairs().get(self.send_cursor) {
            // Wire format is canonical (row-major per region), independent
            // of either side's *local* layout — layouts apply only at the
            // user-buffer boundary (see DriPartition::import/export).
            let mut chunk = Vec::new();
            self.send.pack_pair_into(self.send_cursor, send_buf, &mut chunk);
            comm.send(pair.peer, self.tag, chunk)?;
            self.send_cursor += 1;
        }
        Ok(self.put_phase())
    }

    /// Lands the next source peer's chunk into `recv_buf` (the rank's
    /// local storage under the *destination* partition). Blocks for that
    /// peer's message. No-op when already complete.
    pub fn get(&mut self, comm: &Comm, recv_buf: &mut LocalArray<f64>) -> Result<ReorgPhase> {
        if let Some(pair) = self.recv.pairs().get(self.recv_cursor) {
            let chunk: Vec<f64> = comm.recv(pair.peer, self.tag)?;
            self.recv.unpack_pair_from(self.recv_cursor, recv_buf, &chunk);
            self.recv_cursor += 1;
        }
        Ok(self.get_phase())
    }

    /// Convenience: drive puts and gets to completion (the simple caller
    /// that doesn't interleave compute).
    pub fn run_to_completion(
        &mut self,
        comm: &Comm,
        send_buf: &LocalArray<f64>,
        recv_buf: &mut LocalArray<f64>,
    ) -> Result<()> {
        while self.put_phase() != ReorgPhase::Complete {
            self.put(comm, send_buf)?;
        }
        while self.get_phase() != ReorgPhase::Complete {
            self.get(comm, recv_buf)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{DriDist, LocalLayout};
    use mxn_runtime::World;

    fn partitions(layout_dst: LocalLayout) -> (DriPartition, DriPartition) {
        let src =
            DriPartition::new(&[8, 8], &[DriDist::Block(4), DriDist::Whole], LocalLayout::RowMajor)
                .unwrap();
        let dst =
            DriPartition::new(&[8, 8], &[DriDist::Whole, DriDist::Block(4)], layout_dst).unwrap();
        (src, dst)
    }

    #[test]
    fn incremental_put_get_until_complete() {
        World::run(4, |p| {
            let comm = p.world();
            let (src, dst) = partitions(LocalLayout::RowMajor);
            let mut reorg = DriReorg::new(src.clone(), dst.clone(), comm.rank(), 3).unwrap();
            let send_buf =
                LocalArray::from_fn(src.dad(), comm.rank(), |idx| (idx[0] * 8 + idx[1]) as f64);
            let mut recv_buf: LocalArray<f64> = LocalArray::allocate(dst.dad(), comm.rank());

            // Interleave: one put, one get, repeat — the DRI usage pattern.
            let mut guard = 0;
            while !reorg.is_complete() {
                reorg.put(comm, &send_buf).unwrap();
                reorg.get(comm, &mut recv_buf).unwrap();
                guard += 1;
                assert!(guard < 100, "reorganization must terminate");
            }
            for (idx, &v) in recv_buf.iter() {
                assert_eq!(v, (idx[0] * 8 + idx[1]) as f64);
            }
        });
    }

    #[test]
    fn phases_report_progress() {
        World::run(4, |p| {
            let comm = p.world();
            let (src, dst) = partitions(LocalLayout::RowMajor);
            let mut reorg = DriReorg::new(src.clone(), dst.clone(), comm.rank(), 5).unwrap();
            assert!(!reorg.is_complete());
            assert_eq!(reorg.put_phase(), ReorgPhase::InProgress { done: 0, total: 4 });
            let send_buf = LocalArray::from_fn(src.dad(), comm.rank(), |_| 1.0);
            let mut recv_buf: LocalArray<f64> = LocalArray::allocate(dst.dad(), comm.rank());
            reorg.put(comm, &send_buf).unwrap();
            assert_eq!(reorg.put_phase(), ReorgPhase::InProgress { done: 1, total: 4 });
            reorg.run_to_completion(comm, &send_buf, &mut recv_buf).unwrap();
            assert!(reorg.is_complete());
            // Further calls are no-ops.
            reorg.put(comm, &send_buf).unwrap();
            reorg.get(comm, &mut recv_buf).unwrap();
            assert!(reorg.is_complete());
        });
    }

    #[test]
    fn foreign_local_layout_at_the_user_boundary() {
        // The destination application keeps its data in a column-major
        // flat buffer ("local memory layouts are distinguished from the
        // data distribution"): the reorganization is layout-neutral on the
        // wire, and the layout is applied when exporting to the user's
        // buffer.
        World::run(4, |p| {
            let comm = p.world();
            let (src, dst) = partitions(LocalLayout::ColMajor);
            let mut reorg = DriReorg::new(src.clone(), dst.clone(), comm.rank(), 7).unwrap();
            let send_buf =
                LocalArray::from_fn(src.dad(), comm.rank(), |idx| (idx[0] * 8 + idx[1]) as f64);
            let mut recv_buf: LocalArray<f64> = LocalArray::allocate(dst.dad(), comm.rank());
            reorg.run_to_completion(comm, &send_buf, &mut recv_buf).unwrap();

            // Export into the user's column-major buffer and check order.
            let region = dst.dad().patches(comm.rank())[0].clone();
            let user_buf = dst.pack(&recv_buf, &region);
            assert_eq!(user_buf.len(), region.len());
            // First elements follow axis-0 fastest within the patch.
            let lo = region.lo().to_vec();
            assert_eq!(user_buf[0], (lo[0] * 8 + lo[1]) as f64);
            assert_eq!(user_buf[1], ((lo[0] + 1) * 8 + lo[1]) as f64);
            // Round-trip through the user buffer restores the values.
            let mut copy: LocalArray<f64> = LocalArray::allocate(dst.dad(), comm.rank());
            dst.unpack(&mut copy, &region, &user_buf);
            assert_eq!(copy, recv_buf);
        });
    }

    #[test]
    fn mismatched_groups_rejected() {
        let a = DriPartition::new(&[8], &[DriDist::Block(2)], LocalLayout::RowMajor).unwrap();
        let b = DriPartition::new(&[8], &[DriDist::Block(4)], LocalLayout::RowMajor).unwrap();
        assert!(DriReorg::new(a.clone(), b, 0, 0).is_err());
        let c = DriPartition::new(&[9], &[DriDist::Block(2)], LocalLayout::RowMajor).unwrap();
        assert!(DriReorg::new(a, c, 0, 0).is_err());
    }
}
