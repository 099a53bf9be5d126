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
//! 2. **Plan compilation.** Every peer's share is compiled into a
//!    [`CopyPlan`] against this rank's patch layout, so steady-state
//!    execution is `copy_from_slice` runs into pooled buffers
//!    ([`TransferBuffers`]) with no per-region allocation. When both
//!    layouts are regular the plans share the overlap kept per axis (one
//!    run list per axis, [`mxn_dad::OverlapIndex::query_axes`]), so the
//!    schedule holds O(peers × axes), and a pair's region list is expanded only
//!    when a region-level caller reads [`PairRegions::regions`]; explicit
//!    layouts keep strided blocks, one per region and leading-axis index.
//!
//! Because sender and receiver compute the same pairwise intersections and
//! canonicalize their order, a transfer message carries *only data*: one
//! packed buffer per peer, no per-element metadata. That is the payoff that
//! makes precomputed schedules cheaper than the receiver-request protocol
//! after a few reuses (experiment E7).

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use crate::plan::{land, record_unpack, CopyPlan, TransferBuffers};
use mxn_dad::{AxisHits, Dad, LocalArray, PatchLayout, Region};
use mxn_runtime::{record_schedule_build, Comm, InterComm, MsgSize, Result};

/// The regions this rank exchanges with one peer, canonically ordered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairRegions {
    /// Peer rank (in the *other* descriptor's rank space).
    pub peer: usize,
    /// Intersection regions, sorted by lower corner.
    pub regions: LazyRegions,
}

/// A pair's regions, derefs to `[Region]`. An explicit layout lists them
/// at build; a pair of regular layouts keeps only the peer's per-axis runs,
/// shared with its plan, and expands them on first access, so transfers,
/// which read the plan alone, never build the list.
#[derive(Clone)]
pub struct LazyRegions {
    list: OnceLock<Vec<Region>>,
    axes: Option<(Arc<AxisHits>, usize)>,
}

impl Deref for LazyRegions {
    type Target = [Region];

    fn deref(&self) -> &[Region] {
        self.list.get_or_init(|| {
            #[cfg(test)]
            tests::EXPANSIONS.with(|n| n.set(n.get() + 1));
            let (hits, i) = self.axes.as_ref().expect("listed regions or per-axis runs");
            hits.regions(*i)
        })
    }
}

impl<'a> IntoIterator for &'a LazyRegions {
    type Item = &'a Region;
    type IntoIter = std::slice::Iter<'a, Region>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for LazyRegions {
    fn eq(&self, other: &LazyRegions) -> bool {
        **self == **other
    }
}

impl Eq for LazyRegions {}

impl fmt::Debug for LazyRegions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl LazyRegions {
    fn listed(regions: Vec<Region>) -> LazyRegions {
        LazyRegions { list: OnceLock::from(regions), axes: None }
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
    /// One precompiled copy plan per pair, against this rank's patches.
    plans: Vec<CopyPlan>,
    /// The fingerprint of this rank's patches at build time: execution
    /// asserts the `LocalArray` it is handed has the same one, since plan
    /// offsets index into its patches. An array hashes its patches once
    /// and keeps the result, so the check compares two values (the first
    /// check of an array hashes its patches: about 2 µs at 64).
    layout: PatchLayout,
}

/// Sorts `(source patch, region)` parts into the canonical by-lower-corner
/// order and splits them into a [`PairRegions`] plus its compiled plan.
/// Pieces are pairwise disjoint (distinct local patches or distinct peer
/// patches), so lower corners are distinct and the order is deterministic:
/// the one a per-axis product ([`mxn_dad::AxisHits::regions`]) emits.
fn finish_pair(
    peer: usize,
    mine: &[Region],
    mut parts: Vec<(usize, Region)>,
) -> (PairRegions, CopyPlan) {
    parts.sort_by(|a, b| a.1.lo().cmp(b.1.lo()));
    let (sources, regions): (Vec<usize>, Vec<Region>) = parts.into_iter().unzip();
    let plan = CopyPlan::from_sources(mine, &sources, &regions);
    (PairRegions { peer, regions: LazyRegions::listed(regions) }, plan)
}

impl RegionSchedule {
    /// Pruned construction: per-axis overlap queries give the candidate
    /// peers for this rank's patches, already grouped by peer in canonical
    /// order, so only peers that can actually overlap are probed. `naive`
    /// probes every peer rank instead: the all-pairs test oracle and bench
    /// baseline.
    fn build(me_dad: &Dad, peer_dad: &Dad, my_rank: usize, role: Role, naive: bool) -> Self {
        assert!(
            me_dad.conforms(peer_dad),
            "source and destination descriptors must share global extents"
        );
        let mut build_span = mxn_trace::span(
            mxn_trace::EventId::ScheduleBuild,
            [role as u64, me_dad.nranks() as u64, peer_dad.nranks() as u64, 0],
        );
        let mine = me_dad.patches(my_rank);
        // A pair of regular layouts shares its per-axis runs among plans and
        // pairs, which expand their regions on demand; an explicit layout
        // and the oracle list them.
        let (probes, (pairs, plans)): (_, (Vec<_>, Vec<_>)) = if naive {
            let pairs = (0..peer_dad.nranks()).filter_map(|peer| {
                let theirs = peer_dad.patches(peer);
                let mut parts = Vec::new();
                for (pi, p) in mine.iter().enumerate() {
                    parts.extend(theirs.iter().filter_map(|q| Some((pi, p.intersect(q)?))));
                }
                (!parts.is_empty()).then(|| finish_pair(peer, &mine, parts))
            });
            (peer_dad.nranks(), pairs.unzip())
        } else {
            let index = peer_dad.overlap_index();
            match index.query_axes(me_dad, my_rank) {
                Some(found) => {
                    let found = Arc::new(found);
                    let pairs = (0..found.peers.len()).map(|i| {
                        let axes = Some((Arc::clone(&found), i));
                        let regions = LazyRegions { list: OnceLock::new(), axes };
                        let plan = CopyPlan::from_axes(&found, i);
                        (PairRegions { peer: found.peers[i].0, regions }, plan)
                    });
                    (found.probes, pairs.unzip())
                }
                None => {
                    let mut per_peer: BTreeMap<usize, Vec<(usize, Region)>> = BTreeMap::new();
                    let mut probes = 0;
                    for (pi, patch) in mine.iter().enumerate() {
                        let found = index.query(patch);
                        probes += found.probes;
                        for (peer, regions) in found.hits {
                            let parts = regions.into_iter().map(|r| (pi, r));
                            per_peer.entry(peer).or_default().extend(parts);
                        }
                    }
                    let pairs =
                        per_peer.into_iter().map(|(peer, parts)| finish_pair(peer, &mine, parts));
                    (probes, pairs.unzip())
                }
            }
        };
        record_schedule_build(probes as u64, pairs.len() as u64);
        build_span.set_end([role as u64, probes as u64, pairs.len() as u64, 0]);
        RegionSchedule { role, my_rank, pairs, plans, layout: mine.iter().collect() }
    }

    /// Builds the sending side's schedule for `my_rank` of `src`.
    pub fn for_sender(src: &Dad, dst: &Dad, my_rank: usize) -> RegionSchedule {
        Self::build(src, dst, my_rank, Role::Sender, false)
    }

    /// Builds the receiving side's schedule for `my_rank` of `dst`.
    pub fn for_receiver(src: &Dad, dst: &Dad, my_rank: usize) -> RegionSchedule {
        Self::build(dst, src, my_rank, Role::Receiver, false)
    }

    /// All-pairs variant of [`Self::for_sender`] (test oracle / baseline).
    pub fn for_sender_naive(src: &Dad, dst: &Dad, my_rank: usize) -> RegionSchedule {
        Self::build(src, dst, my_rank, Role::Sender, true)
    }

    /// All-pairs variant of [`Self::for_receiver`] (test oracle / baseline).
    pub fn for_receiver_naive(src: &Dad, dst: &Dad, my_rank: usize) -> RegionSchedule {
        Self::build(dst, src, my_rank, Role::Receiver, true)
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
        self.plans.iter().map(CopyPlan::total).sum()
    }

    /// In-memory size of the schedule (EXPERIMENTS.md E6's size column):
    /// what it holds, plans and the per-axis runs they share, plus any
    /// region list expanded or listed.
    #[cfg(test)]
    pub(crate) fn schedule_bytes(&self) -> usize {
        use std::mem::size_of;
        let listed = |p: &PairRegions| p.regions.list.get().map_or(0, Vec::capacity);
        let shared =
            self.pairs.iter().find_map(|p| p.regions.axes.as_ref()).map_or(0, |(hits, _)| {
                let vecs =
                    hits.runs.iter().map(|runs| runs.capacity() * size_of::<mxn_dad::AxisRun>());
                let peers = hits.peers.iter().map(|(_, ranges)| ranges.capacity() * 16);
                size_of::<AxisHits>()
                    + hits.segs.capacity() * size_of::<usize>()
                    + hits.runs.capacity() * size_of::<Vec<()>>()
                    + hits.peers.capacity() * size_of::<(usize, Vec<()>)>()
                    + vecs.chain(peers).sum::<usize>()
            });
        size_of::<Self>()
            + self.pairs.capacity() * size_of::<PairRegions>()
            + self.pairs.iter().map(|p| listed(p) * size_of::<Region>()).sum::<usize>()
            + self.plans.iter().map(CopyPlan::held_bytes).sum::<usize>()
            + shared
    }

    fn check_layout<T>(&self, local: &LocalArray<T>) {
        assert!(
            PatchLayout::from(local) == self.layout,
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
        self.post(local, pool, |peer, buf| ic.send(peer, tag, buf))
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
        self.drain(local, pool, |peer| ic.recv(peer, tag))
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
        recv.check_layout(dst_local);
        send.post(src_local, pool, |peer, buf| comm.send(peer, tag, buf))?;
        recv.drain(dst_local, pool, |peer| comm.recv(peer, tag))
    }

    /// Packs each pair's share of `local` into a buffer from `pool` and
    /// hands it to `send` with the peer. Returns elements sent.
    pub(crate) fn post<T: Copy>(
        &self,
        local: &LocalArray<T>,
        pool: &mut TransferBuffers<T>,
        mut send: impl FnMut(usize, Vec<T>) -> Result<()>,
    ) -> Result<usize> {
        self.check_layout(local);
        let mut moved = 0;
        for (pair, plan) in self.pairs.iter().zip(&self.plans) {
            let mut buf = pool.lease(plan.total());
            plan.pack_into(local, &mut buf);
            moved += buf.len();
            send(pair.peer, buf)?;
        }
        Ok(moved)
    }

    /// Unpacks each pair's message, taken with `recv` one at a time, into
    /// `local` and recycles it into `pool`. Returns elements received.
    fn drain<T: Copy>(
        &self,
        local: &mut LocalArray<T>,
        pool: &mut TransferBuffers<T>,
        mut recv: impl FnMut(usize) -> Result<Vec<T>>,
    ) -> Result<usize> {
        self.check_layout(local);
        let mut moved = 0;
        for (pair, plan) in self.pairs.iter().zip(&self.plans) {
            let data = recv(pair.peer)?;
            moved += data.len();
            plan.unpack_from(local, &data);
            pool.recycle(data);
        }
        Ok(moved)
    }

    /// Receives into fresh storage under `dst`, the schedule's descriptor,
    /// recycling the messages into `pool`. With per-axis runs (both
    /// layouts regular) it takes every pair's message first and builds the
    /// storage from them front to back, with no fill, recording each
    /// pair's unpack as [`Self::execute_recv`] does; otherwise it drains
    /// pair by pair into [`LocalArray::allocate`]d storage. Returns the
    /// storage and the elements received.
    pub(crate) fn recv_fresh<T: Copy + Default>(
        &self,
        dst: &Dad,
        pool: &mut TransferBuffers<T>,
        mut recv: impl FnMut(usize) -> Result<Vec<T>>,
    ) -> Result<(LocalArray<T>, usize)> {
        let axes = self.plans.first().and_then(CopyPlan::axes);
        let Some(hits) = axes.filter(|hits| !hits.segs.is_empty()) else {
            let mut local = LocalArray::allocate(dst, self.my_rank);
            let moved = self.drain(&mut local, pool, recv)?;
            return Ok((local, moved));
        };
        let mut msgs = Vec::with_capacity(self.pairs.len());
        for (pair, plan) in self.pairs.iter().zip(&self.plans) {
            msgs.push(recv(pair.peer)?);
            assert_eq!(msgs.last().map(Vec::len), Some(plan.total()), "packed length mismatch");
        }
        let regions = dst.patches(self.my_rank);
        let bufs = land(hits, &regions, &msgs);
        let mut moved = 0;
        for (plan, data) in self.plans.iter().zip(msgs) {
            record_unpack(plan.total(), plan.num_runs() as u64);
            moved += data.len();
            pool.recycle(data);
        }
        let patches = regions.into_iter().zip(bufs).collect();
        Ok((LocalArray::from_patches(self.my_rank, patches, self.layout), moved))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    thread_local! {
        /// Region lists expanded from per-axis runs on this thread.
        pub(crate) static EXPANSIONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }
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
        // So must one with as many patches, 64, laid out otherwise.
        let (src, dst) = regrid_pair(4);
        let sched = RegionSchedule::for_sender(&src, &dst, 1);
        let local = LocalArray::from_fn(&src, 0, |idx| value(idx, 512));
        assert_eq!(local.num_patches(), src.patches(1).len());
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

    /// The regrid workload's pair at block size `block`: 512×512
    /// block-cyclic row blocks over 2 ranks → block-cyclic column blocks.
    fn regrid_pair(block: usize) -> (Dad, Dad) {
        let cyclic = AxisDist::BlockCyclic { block, nprocs: 2 };
        let dad = |axes| Dad::regular(Template::new(Extents::new([512, 512]), axes).unwrap());
        (dad(vec![cyclic.clone(), AxisDist::Collapsed]), dad(vec![AxisDist::Collapsed, cyclic]))
    }

    #[test]
    fn template_schedules_hold_per_axis_runs_not_regions() {
        let sides = |block| {
            let (src, dst) = regrid_pair(block);
            [RegionSchedule::for_sender(&src, &dst, 1), RegionSchedule::for_receiver(&src, &dst, 1)]
        };
        for (fine, coarse) in sides(4).into_iter().zip(sides(67)) {
            let (bytes, peers) = (fine.schedule_bytes(), fine.num_messages());
            // O(peers × axes): block 4 makes 8 192 regions, block 67 only
            // 32, and the two hold about the same.
            assert!(bytes <= 2 * coarse.schedule_bytes(), "{bytes} vs {}", coarse.schedule_bytes());
            assert!(bytes <= 256 * peers * 2, "{bytes} bytes for {peers} peers");
            // The region list is only built on demand, and then counts.
            let regions: usize = fine.pairs().iter().map(|p| p.regions.len()).sum();
            assert_eq!(regions, 8192);
            assert!(fine.schedule_bytes() >= bytes + regions * std::mem::size_of::<Region>());
        }
    }

    #[test]
    fn plans_compare_their_runs_in_order() {
        let (src, dst) = regrid_pair(4);
        let (pruned, naive) = (
            RegionSchedule::for_sender(&src, &dst, 0),
            RegionSchedule::for_sender_naive(&src, &dst, 0),
        );
        assert_eq!(pruned.plan(0), naive.plan(0), "per-axis runs against blocks");
        assert_ne!(pruned.plan(0), pruned.plan(1));
        let patches = src.patches(0);
        let (a, b) = (Region::new([0, 0], [2, 2]), Region::new([0, 4], [2, 6]));
        let swapped = CopyPlan::compile(&patches, &[b.clone(), a.clone()]);
        assert_ne!(CopyPlan::compile(&patches, &[a, b]), swapped, "same runs, swapped");
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
