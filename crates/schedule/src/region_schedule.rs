//! Region-based communication schedules (the descriptor fast path).
//!
//! This is the approach of CUMULVS, PAWS and InterComm (paper §3): "distill
//! a given data decomposition on a per dimension basis into subregions or
//! sub-sampled patches". A schedule is computed *per rank, per side* by
//! intersecting this rank's rectangular patches with peer patches — no
//! central coordinator, so schedule creation is not serialized (the
//! Section 3 scalability requirement, measured by E14).
//!
//! Construction is a two-layer pipeline:
//!
//! 1. **Pruned peer discovery.** Instead of probing every peer rank, the
//!    peer descriptor's [`mxn_dad::OverlapIndex`] resolves this rank's
//!    patches to the peers that can overlap them per axis (binary search /
//!    closed form on the axis distributions; when both layouts are regular,
//!    once per axis for all local patches), so build cost scales with the
//!    *overlapping* peer count, not the communicator size. The historical
//!    all-pairs construction survives as [`RegionSchedule::for_sender_naive`]
//!    / [`RegionSchedule::for_receiver_naive`] — a test oracle and bench
//!    baseline that produces byte-identical schedules.
//! 2. **Plan compilation.** Every per-peer region list is compiled into a
//!    [`CopyPlan`] against this rank's patch layout — strided blocks, one
//!    per region and leading-axis index — so steady-state execution is
//!    `copy_from_slice` runs into pooled buffers ([`TransferBuffers`]) with
//!    no per-region allocation.
//!
//! Because sender and receiver compute the same pairwise intersections and
//! canonicalize their order, a transfer message carries *only data*: one
//! packed buffer per peer, no per-element metadata. That is the payoff that
//! makes precomputed schedules cheaper than the receiver-request protocol
//! after a few reuses (experiment E7).

use crate::plan::{CopyPlan, TransferBuffers};
use mxn_dad::{Dad, LocalArray, Region};
use mxn_runtime::{record_schedule_build, Comm, InterComm, MsgSize, Result};

/// The regions this rank exchanges with one peer, canonically ordered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairRegions {
    /// Peer rank (in the *other* descriptor's rank space).
    pub peer: usize,
    /// Intersection regions, sorted by lower corner.
    pub regions: Vec<Region>,
}

impl PairRegions {
    /// Total elements exchanged with this peer.
    pub fn elements(&self) -> usize {
        self.regions.iter().map(Region::len).sum()
    }
}

/// Which side of a transfer a schedule drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// This rank exports data described by the source descriptor.
    Sender,
    /// This rank imports data described by the destination descriptor.
    Receiver,
}

/// A reusable per-rank communication schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionSchedule {
    role: Role,
    my_rank: usize,
    pairs: Vec<PairRegions>,
    /// One precompiled copy plan per pair, against `my_patches`.
    plans: Vec<CopyPlan>,
    /// This rank's patch layout at build time; execution asserts the
    /// `LocalArray` it is handed matches, since plan offsets index into it.
    my_patches: Vec<Region>,
}

/// Sorts `(source patch, region)` parts into the canonical by-lower-corner
/// order and splits them into a [`PairRegions`] plus its compiled plan.
/// Pieces are pairwise disjoint (distinct local patches or distinct peer
/// patches), so lower corners are distinct and the order is deterministic:
/// the one [`mxn_dad::OverlapIndex::query_patches`] emits for the pruned
/// construction.
fn finish_pair(
    peer: usize,
    mine: &[Region],
    mut parts: Vec<(usize, Region)>,
) -> (PairRegions, CopyPlan) {
    parts.sort_by(|a, b| a.1.lo().cmp(b.1.lo()));
    let (sources, regions): (Vec<usize>, Vec<Region>) = parts.into_iter().unzip();
    let plan = CopyPlan::from_sources(mine, &sources, &regions);
    (PairRegions { peer, regions }, plan)
}

impl RegionSchedule {
    /// Pruned construction: per-axis overlap queries give the candidate
    /// peers for this rank's patches, already grouped by peer in canonical
    /// order, so only peers that can actually overlap are probed.
    fn build(me_dad: &Dad, peer_dad: &Dad, my_rank: usize, role: Role) -> RegionSchedule {
        assert!(
            me_dad.conforms(peer_dad),
            "source and destination descriptors must share global extents"
        );
        let mut build_span = mxn_trace::span(
            mxn_trace::EventId::ScheduleBuild,
            [role as u64, me_dad.nranks() as u64, peer_dad.nranks() as u64, 0],
        );
        let mine = me_dad.patches(my_rank);
        let found = peer_dad.overlap_index().query_patches(me_dad, my_rank);
        let probes = found.probes as u64;
        let mut pairs = Vec::with_capacity(found.hits.len());
        let mut plans = Vec::with_capacity(pairs.capacity());
        let mut sources = found.sources.as_slice();
        for (peer, regions) in found.hits {
            let (these, rest) = sources.split_at(regions.len());
            plans.push(CopyPlan::from_sources(&mine, these, &regions));
            pairs.push(PairRegions { peer, regions });
            sources = rest;
        }
        record_schedule_build(probes, pairs.len() as u64);
        build_span.set_end([role as u64, probes, pairs.len() as u64, 0]);
        RegionSchedule { role, my_rank, pairs, plans, my_patches: mine }
    }

    /// All-pairs construction (probes every peer rank). Kept as the test
    /// oracle and bench baseline for the pruned [`Self::build`].
    fn build_naive(me_dad: &Dad, peer_dad: &Dad, my_rank: usize, role: Role) -> RegionSchedule {
        assert!(
            me_dad.conforms(peer_dad),
            "source and destination descriptors must share global extents"
        );
        let mut build_span = mxn_trace::span(
            mxn_trace::EventId::ScheduleBuild,
            [role as u64, me_dad.nranks() as u64, peer_dad.nranks() as u64, 0],
        );
        let mine = me_dad.patches(my_rank);
        let mut pairs = Vec::new();
        let mut plans = Vec::new();
        for peer in 0..peer_dad.nranks() {
            let theirs = peer_dad.patches(peer);
            let mut parts = Vec::new();
            for (pi, p) in mine.iter().enumerate() {
                for q in &theirs {
                    if let Some(r) = p.intersect(q) {
                        parts.push((pi, r));
                    }
                }
            }
            if !parts.is_empty() {
                let (pair, plan) = finish_pair(peer, &mine, parts);
                pairs.push(pair);
                plans.push(plan);
            }
        }
        record_schedule_build(peer_dad.nranks() as u64, pairs.len() as u64);
        build_span.set_end([role as u64, peer_dad.nranks() as u64, pairs.len() as u64, 0]);
        RegionSchedule { role, my_rank, pairs, plans, my_patches: mine }
    }

    /// Builds the sending side's schedule for `my_rank` of `src`.
    pub fn for_sender(src: &Dad, dst: &Dad, my_rank: usize) -> RegionSchedule {
        Self::build(src, dst, my_rank, Role::Sender)
    }

    /// Builds the receiving side's schedule for `my_rank` of `dst`.
    pub fn for_receiver(src: &Dad, dst: &Dad, my_rank: usize) -> RegionSchedule {
        Self::build(dst, src, my_rank, Role::Receiver)
    }

    /// All-pairs variant of [`Self::for_sender`] (test oracle / baseline).
    pub fn for_sender_naive(src: &Dad, dst: &Dad, my_rank: usize) -> RegionSchedule {
        Self::build_naive(src, dst, my_rank, Role::Sender)
    }

    /// All-pairs variant of [`Self::for_receiver`] (test oracle / baseline).
    pub fn for_receiver_naive(src: &Dad, dst: &Dad, my_rank: usize) -> RegionSchedule {
        Self::build_naive(dst, src, my_rank, Role::Receiver)
    }

    /// The schedule's role.
    pub(crate) fn role(&self) -> Role {
        self.role
    }

    /// Per-peer transfer plans (peers with nothing to exchange omitted).
    pub fn pairs(&self) -> &[PairRegions] {
        &self.pairs
    }

    /// The precompiled copy plan for pair `i` (parallel to [`Self::pairs`]).
    pub fn plan(&self, i: usize) -> &CopyPlan {
        &self.plans[i]
    }

    /// Number of messages this rank will send (or receive).
    pub fn num_messages(&self) -> usize {
        self.pairs.len()
    }

    /// Total elements this rank moves.
    pub fn total_elements(&self) -> usize {
        self.pairs.iter().map(PairRegions::elements).sum()
    }

    /// In-memory size of the schedule (EXPERIMENTS.md E6's size column).
    #[cfg(test)]
    pub(crate) fn schedule_bytes(&self) -> usize {
        self.pairs
            .iter()
            .map(|p| {
                std::mem::size_of::<usize>()
                    + p.regions
                        .iter()
                        .map(|r| 2 * r.ndim() * std::mem::size_of::<usize>())
                        .sum::<usize>()
            })
            .sum()
    }

    fn check_layout<T>(&self, local: &LocalArray<T>) {
        assert!(
            local.num_patches() == self.my_patches.len()
                && local.regions().eq(self.my_patches.iter()),
            "LocalArray layout does not match the descriptor/rank this schedule was built for"
        );
    }

    /// Packs the regions exchanged with pair `i` into `out` (cleared
    /// first) via the precompiled plan — no per-region allocation.
    pub fn pack_pair_into<T: Copy>(&self, i: usize, local: &LocalArray<T>, out: &mut Vec<T>) {
        self.check_layout(local);
        self.plans[i].pack_into(local, out);
    }

    /// Unpacks a packed per-peer buffer for pair `i` via the precompiled
    /// plan.
    pub fn unpack_pair_from<T: Copy>(&self, i: usize, local: &mut LocalArray<T>, data: &[T]) {
        self.check_layout(local);
        self.plans[i].unpack_from(local, data);
    }

    /// Sender side, across an inter-communicator: one packed message per
    /// destination peer, leased from `pool` (the transport consumes the
    /// buffer, so sends alone cannot recycle — pair with a receive path
    /// that feeds the same pool). Returns elements sent.
    ///
    /// # Panics
    /// If the schedule's role is not [`Role::Sender`].
    pub fn execute_send<T>(
        &self,
        ic: &InterComm,
        local: &LocalArray<T>,
        tag: i32,
        pool: &mut TransferBuffers<T>,
    ) -> Result<usize>
    where
        T: Copy + Send + MsgSize + 'static,
    {
        assert_eq!(self.role, Role::Sender, "execute_send needs a sender schedule");
        self.check_layout(local);
        let mut moved = 0;
        for (pair, plan) in self.pairs.iter().zip(&self.plans) {
            let mut buf = pool.lease(plan.total());
            plan.pack_into(local, &mut buf);
            moved += buf.len();
            ic.send(pair.peer, tag, buf)?;
        }
        Ok(moved)
    }

    /// Receiver side, across an inter-communicator; every received buffer
    /// is recycled into `pool` for later sends to draw from. Returns
    /// elements received.
    ///
    /// # Panics
    /// If the schedule's role is not [`Role::Receiver`].
    pub fn execute_recv<T>(
        &self,
        ic: &InterComm,
        local: &mut LocalArray<T>,
        tag: i32,
        pool: &mut TransferBuffers<T>,
    ) -> Result<usize>
    where
        T: Copy + Send + MsgSize + 'static,
    {
        assert_eq!(self.role, Role::Receiver, "execute_recv needs a receiver schedule");
        self.check_layout(local);
        let mut moved = 0;
        for (pair, plan) in self.pairs.iter().zip(&self.plans) {
            let data: Vec<T> = ic.recv(pair.peer, tag)?;
            moved += data.len();
            plan.unpack_from(local, &data);
            pool.recycle(data);
        }
        Ok(moved)
    }

    /// Intra-communicator redistribution (e.g. a transpose
    /// self-connection): every rank sends with its sender schedule and
    /// receives with its receiver schedule over the same communicator.
    /// All sends are posted before any receive, so the exchange cannot
    /// deadlock. Because every rank both sends and receives, buffers
    /// circulate through `pool`: received buffers are recycled and satisfy
    /// the next step's leases, so a caller that keeps the pool across a
    /// steady-state exchange stops allocating after the first step.
    pub fn execute_local<T>(
        send: &RegionSchedule,
        recv: &RegionSchedule,
        comm: &Comm,
        src_local: &LocalArray<T>,
        dst_local: &mut LocalArray<T>,
        tag: i32,
        pool: &mut TransferBuffers<T>,
    ) -> Result<usize>
    where
        T: Copy + Send + MsgSize + 'static,
    {
        assert_eq!(send.role, Role::Sender);
        assert_eq!(recv.role, Role::Receiver);
        send.check_layout(src_local);
        recv.check_layout(dst_local);
        for (pair, plan) in send.pairs.iter().zip(&send.plans) {
            let mut buf = pool.lease(plan.total());
            plan.pack_into(src_local, &mut buf);
            comm.send(pair.peer, tag, buf)?;
        }
        let mut moved = 0;
        for (pair, plan) in recv.pairs.iter().zip(&recv.plans) {
            let data: Vec<T> = comm.recv(pair.peer, tag)?;
            moved += data.len();
            plan.unpack_from(dst_local, &data);
            pool.recycle(data);
        }
        Ok(moved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mxn_dad::{AxisDist, Extents, Template};
    use mxn_runtime::{reset_schedule_stats, schedule_stats, Universe, World};

    fn value(idx: &[usize], cols: usize) -> f64 {
        (idx[0] * cols + idx[1]) as f64
    }

    #[test]
    fn sender_and_receiver_schedules_are_mirror_images() {
        let src = Dad::block(Extents::new([8, 8]), &[4, 1]).unwrap();
        let dst = Dad::block(Extents::new([8, 8]), &[1, 2]).unwrap();
        // Sender 1 (rows 2..4) intersects both receivers.
        let s = RegionSchedule::for_sender(&src, &dst, 1);
        assert_eq!(s.num_messages(), 2);
        assert_eq!(s.total_elements(), 16);
        // Receiver 0 (cols 0..4) hears from all four senders.
        let r = RegionSchedule::for_receiver(&src, &dst, 0);
        assert_eq!(r.num_messages(), 4);
        assert_eq!(r.total_elements(), 32);
        // Mirror: sender 1's plan for peer 0 equals receiver 0's for peer 1.
        let s_to_0 = s.pairs().iter().find(|p| p.peer == 0).unwrap();
        let r_from_1 = r.pairs().iter().find(|p| p.peer == 1).unwrap();
        assert_eq!(s_to_0.regions, r_from_1.regions);
    }

    #[test]
    fn pruned_matches_naive_oracle() {
        let e = Extents::new([24, 24]);
        let dads = [
            Dad::block(e.clone(), &[4, 2]).unwrap(),
            Dad::block(e.clone(), &[1, 8]).unwrap(),
            Dad::regular(
                Template::new(
                    e.clone(),
                    vec![
                        AxisDist::BlockCyclic { block: 3, nprocs: 4 },
                        AxisDist::Cyclic { nprocs: 2 },
                    ],
                )
                .unwrap(),
            ),
        ];
        for src in &dads {
            for dst in &dads {
                for rank in 0..src.nranks() {
                    let pruned = RegionSchedule::for_sender(src, dst, rank);
                    let naive = RegionSchedule::for_sender_naive(src, dst, rank);
                    assert_eq!(pruned, naive, "sender rank {rank}");
                }
                for rank in 0..dst.nranks() {
                    let pruned = RegionSchedule::for_receiver(src, dst, rank);
                    let naive = RegionSchedule::for_receiver_naive(src, dst, rank);
                    assert_eq!(pruned, naive, "receiver rank {rank}");
                }
            }
        }
    }

    #[test]
    fn build_probes_scale_with_overlap_not_nranks() {
        // 256 → 256 block↔block: only 16 of the 256 column-block receivers
        // own a non-empty column, and the index probes exactly those.
        let e = Extents::new([4096, 16]);
        let src = Dad::block(e.clone(), &[256, 1]).unwrap();
        let dst = Dad::block(e, &[1, 256]).unwrap();
        reset_schedule_stats();
        let s = RegionSchedule::for_sender(&src, &dst, 17);
        let stats = schedule_stats();
        assert_eq!(stats.builds, 1);
        assert_eq!(s.num_messages(), 16, "row block meets 16 non-empty col blocks");
        assert!(stats.peer_probes <= 18, "probed {} peers out of 256", stats.peer_probes);

        // Aligned 256 → 256 (same layout both sides): one overlapping peer.
        let e2 = Extents::new([4096, 16]);
        let a = Dad::block(e2.clone(), &[256, 1]).unwrap();
        let b = Dad::block(e2, &[256, 1]).unwrap();
        reset_schedule_stats();
        let s = RegionSchedule::for_sender(&a, &b, 100);
        let stats = schedule_stats();
        assert_eq!(s.num_messages(), 1);
        assert!(
            stats.peer_probes <= 3,
            "probed {} peers out of 256 for an aligned redistribution",
            stats.peer_probes
        );

        // Naive oracle probes all 256 by construction.
        reset_schedule_stats();
        let _ = RegionSchedule::for_sender_naive(&a, &b, 100);
        assert_eq!(schedule_stats().peer_probes, 256);
    }

    #[test]
    fn conformance_checked() {
        let a = Dad::block(Extents::new([4]), &[2]).unwrap();
        let b = Dad::block(Extents::new([5]), &[2]).unwrap();
        let r = std::panic::catch_unwind(|| RegionSchedule::for_sender(&a, &b, 0));
        assert!(r.is_err());
    }

    #[test]
    fn layout_mismatch_rejected() {
        let e = Extents::new([8, 8]);
        let src = Dad::block(e.clone(), &[4, 1]).unwrap();
        let dst = Dad::block(e, &[1, 2]).unwrap();
        let sched = RegionSchedule::for_sender(&src, &dst, 1);
        // A LocalArray for the wrong rank must be rejected, not misread.
        let local = LocalArray::from_fn(&src, 0, |idx| value(idx, 8));
        let mut out = Vec::new();
        let r = std::panic::catch_unwind(move || sched.pack_pair_into(0, &local, &mut out));
        assert!(r.is_err());
    }

    fn end_to_end(
        m: usize,
        n: usize,
        rows: usize,
        cols: usize,
        src_grid: &[usize],
        dst_grid: &[usize],
    ) {
        let src_grid = src_grid.to_vec();
        let dst_grid = dst_grid.to_vec();
        Universe::run(&[m, n], move |_, ctx| {
            let e = Extents::new([rows, cols]);
            let src = Dad::block(e.clone(), &src_grid).unwrap();
            let dst = Dad::block(e, &dst_grid).unwrap();
            if ctx.program == 0 {
                let sched = RegionSchedule::for_sender(&src, &dst, ctx.comm.rank());
                let local = LocalArray::from_fn(&src, ctx.comm.rank(), |idx| value(idx, cols));
                sched
                    .execute_send(ctx.intercomm(1), &local, 1, &mut TransferBuffers::new())
                    .unwrap();
            } else {
                let sched = RegionSchedule::for_receiver(&src, &dst, ctx.comm.rank());
                let mut local: LocalArray<f64> = LocalArray::allocate(&dst, ctx.comm.rank());
                let moved = sched
                    .execute_recv(ctx.intercomm(0), &mut local, 1, &mut TransferBuffers::new())
                    .unwrap();
                assert_eq!(moved, local.len());
                for (idx, &v) in local.iter() {
                    assert_eq!(v, value(&idx, cols), "at {idx:?}");
                }
            }
        });
    }

    #[test]
    fn rows_to_cols_2x2() {
        end_to_end(2, 2, 6, 6, &[2, 1], &[1, 2]);
    }

    #[test]
    fn figure1_8_to_27_shape() {
        // The paper's Figure 1 layout in 2-D grids: 8 = 4×2 → 6 = 2×3.
        end_to_end(8, 6, 12, 12, &[4, 2], &[2, 3]);
    }

    #[test]
    fn one_to_many() {
        end_to_end(1, 6, 6, 6, &[1, 1], &[2, 3]);
    }

    #[test]
    fn many_to_one() {
        end_to_end(6, 1, 6, 6, &[2, 3], &[1, 1]);
    }

    #[test]
    fn block_cyclic_source() {
        Universe::run(&[2, 2], |_, ctx| {
            let e = Extents::new([8, 4]);
            let src = Dad::regular(
                Template::new(
                    e.clone(),
                    vec![AxisDist::BlockCyclic { block: 2, nprocs: 2 }, AxisDist::Collapsed],
                )
                .unwrap(),
            );
            let dst = Dad::block(e, &[2, 1]).unwrap();
            if ctx.program == 0 {
                let sched = RegionSchedule::for_sender(&src, &dst, ctx.comm.rank());
                let local = LocalArray::from_fn(&src, ctx.comm.rank(), |idx| value(idx, 4));
                sched
                    .execute_send(ctx.intercomm(1), &local, 0, &mut TransferBuffers::new())
                    .unwrap();
            } else {
                let sched = RegionSchedule::for_receiver(&src, &dst, ctx.comm.rank());
                let mut local: LocalArray<f64> = LocalArray::allocate(&dst, ctx.comm.rank());
                sched
                    .execute_recv(ctx.intercomm(0), &mut local, 0, &mut TransferBuffers::new())
                    .unwrap();
                for (idx, &v) in local.iter() {
                    assert_eq!(v, value(&idx, 4));
                }
            }
        });
    }

    #[test]
    fn intra_comm_transpose() {
        // Same 4 ranks redistribute row-blocks to col-blocks in place.
        World::run(4, |p| {
            let comm = p.world();
            let e = Extents::new([8, 8]);
            let src = Dad::block(e.clone(), &[4, 1]).unwrap();
            let dst = Dad::block(e, &[1, 4]).unwrap();
            let send = RegionSchedule::for_sender(&src, &dst, comm.rank());
            let recv = RegionSchedule::for_receiver(&src, &dst, comm.rank());
            let src_local = LocalArray::from_fn(&src, comm.rank(), |idx| value(idx, 8));
            let mut dst_local: LocalArray<f64> = LocalArray::allocate(&dst, comm.rank());
            let moved = RegionSchedule::execute_local(
                &send,
                &recv,
                comm,
                &src_local,
                &mut dst_local,
                3,
                &mut TransferBuffers::new(),
            )
            .unwrap();
            assert_eq!(moved, 16);
            for (idx, &v) in dst_local.iter() {
                assert_eq!(v, value(&idx, 8));
            }
        });
    }

    #[test]
    fn pooled_transpose_stops_allocating_after_first_step() {
        World::run(4, |p| {
            let comm = p.world();
            let e = Extents::new([8, 8]);
            let src = Dad::block(e.clone(), &[4, 1]).unwrap();
            let dst = Dad::block(e, &[1, 4]).unwrap();
            let send = RegionSchedule::for_sender(&src, &dst, comm.rank());
            let recv = RegionSchedule::for_receiver(&src, &dst, comm.rank());
            let src_local = LocalArray::from_fn(&src, comm.rank(), |idx| value(idx, 8));
            let mut dst_local: LocalArray<f64> = LocalArray::allocate(&dst, comm.rank());
            let mut pool = TransferBuffers::new();
            let mut after_first = 0;
            for step in 0..6 {
                RegionSchedule::execute_local(
                    &send,
                    &recv,
                    comm,
                    &src_local,
                    &mut dst_local,
                    step,
                    &mut pool,
                )
                .unwrap();
                // Everyone recycles what they received before the next
                // step's sends, so the steady state leases from the pool.
                comm.barrier().unwrap();
                if step == 0 {
                    after_first = pool.stats().1;
                }
            }
            let (leases, fresh) = pool.stats();
            assert_eq!(leases, 6 * send.num_messages() as u64);
            assert_eq!(fresh, after_first, "steady-state steps allocated fresh buffers");
            for (idx, &v) in dst_local.iter() {
                assert_eq!(v, value(&idx, 8));
            }
        });
    }

    #[test]
    fn schedule_reuse_same_object_multiple_transfers() {
        Universe::run(&[2, 3], |_, ctx| {
            let e = Extents::new([6, 6]);
            let src = Dad::block(e.clone(), &[2, 1]).unwrap();
            let dst = Dad::block(e, &[1, 3]).unwrap();
            if ctx.program == 0 {
                let sched = RegionSchedule::for_sender(&src, &dst, ctx.comm.rank());
                for step in 0..5i64 {
                    let local = LocalArray::from_fn(&src, ctx.comm.rank(), |idx| {
                        (idx[0] * 6 + idx[1]) as i64 + step * 100
                    });
                    sched
                        .execute_send(
                            ctx.intercomm(1),
                            &local,
                            step as i32,
                            &mut TransferBuffers::new(),
                        )
                        .unwrap();
                }
            } else {
                let sched = RegionSchedule::for_receiver(&src, &dst, ctx.comm.rank());
                for step in 0..5i64 {
                    let mut local: LocalArray<i64> = LocalArray::allocate(&dst, ctx.comm.rank());
                    sched
                        .execute_recv(
                            ctx.intercomm(0),
                            &mut local,
                            step as i32,
                            &mut TransferBuffers::new(),
                        )
                        .unwrap();
                    for (idx, &v) in local.iter() {
                        assert_eq!(v, (idx[0] * 6 + idx[1]) as i64 + step * 100);
                    }
                }
            }
        });
    }

    #[test]
    fn schedule_bytes_reflect_fragmentation() {
        let e = Extents::new([64, 4]);
        let dst = Dad::block(e.clone(), &[2, 1]).unwrap();
        let coarse = Dad::block(e.clone(), &[4, 1]).unwrap();
        let fine = Dad::regular(
            Template::new(
                e,
                vec![AxisDist::BlockCyclic { block: 2, nprocs: 4 }, AxisDist::Collapsed],
            )
            .unwrap(),
        );
        let s_coarse = RegionSchedule::for_receiver(&coarse, &dst, 0);
        let s_fine = RegionSchedule::for_receiver(&fine, &dst, 0);
        assert!(s_fine.schedule_bytes() > s_coarse.schedule_bytes());
        assert_eq!(s_fine.total_elements(), s_coarse.total_elements());
    }
}
