//! [`Redist`]: the one redistribution operation.
//!
//! The "higher-level operations on top of these fundamental M×N data
//! transfer functions" the paper's Summary calls for, as a single builder:
//! *what* moves is the descriptor pair given to [`Redist::between`]; *how*
//! it moves — schedules from a [`ScheduleCache`], under a peak-memory
//! budget, salted with a reconfiguration epoch — is policy set on the
//! value, not a family of function suffixes. The terminals
//! ([`Redist::send`], [`Redist::recv`] or [`Redist::recv_into`],
//! [`Redist::within`]) name the role the calling rank plays.

use std::sync::Arc;

use mxn_dad::{Dad, LocalArray};
use mxn_runtime::{Comm, InterComm, MsgSize, Result};

use crate::cache::ScheduleCache;
use crate::plan::{pooled_transfer, TransferBuffers};
use crate::region_schedule::{RegionSchedule, Role};
use crate::route::{
    execute_recv_routed, execute_send_routed, execute_within_routed, RedistRoute, RoutePlanner,
};

/// One redistribution from the decomposition `src` to `dst`, plus its
/// transmission policy. Both sides of a transfer must configure the same
/// policy: a budgeted transfer runs the routed protocol (its own wire
/// format), and the route is a pure function of
/// `(src, dst, element size, budget)`, so the sides agree without
/// negotiating.
#[derive(Clone, Copy)]
pub struct Redist<'a> {
    src: &'a Dad,
    dst: &'a Dad,
    cache: Option<&'a ScheduleCache>,
    budget: Option<u64>,
    epoch: u64,
}

impl<'a> Redist<'a> {
    /// A one-shot, unbudgeted redistribution: schedules are built per call
    /// and all pairwise messages are posted eagerly.
    pub fn between(src: &'a Dad, dst: &'a Dad) -> Self {
        Redist { src, dst, cache: None, budget: None, epoch: 0 }
    }

    /// Takes schedules (and, when budgeted, planned routes) from `cache` —
    /// for persistent couplings that transfer many times between the same
    /// pair of templates. The cache also holds idle transfer buffers, one
    /// pool per element type: every cached transfer leases its message
    /// buffers from it and recycles what it drains into it, so a
    /// steady-state loop runs on memory it already holds. Between
    /// transfers the pool keeps at most what a direct transfer moved, or a
    /// routed one's [`RedistRoute::idle_allowance`];
    /// [`ScheduleCache::clear`] drops it with the schedules and routes.
    pub fn cache(mut self, cache: &'a ScheduleCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Bounds this rank's peak memory: plans the fastest route whose
    /// declared peak fits `bytes` (direct when it fits, ack-fenced chunked
    /// rounds when it does not; [`Redist::within`] additionally admits the
    /// allgather+slice lowering for tiny fields on wide communicators).
    pub fn budget(mut self, bytes: u64) -> Self {
        self.budget = Some(bytes);
        self
    }

    /// Salts cache lookups with a recovery or reconfiguration epoch
    /// (default 0; ignored without [`Redist::cache`]). The cache keys on
    /// descriptor fingerprints *and* the epoch, so an epoch change forces a
    /// fresh schedule, profile and plan even when a grow→shrink cycle
    /// returns to byte-identical descriptors. Connections that heal or
    /// reconfigure must pass their current epoch, or a post-heal transfer
    /// silently runs a route profiled for the old world.
    pub fn epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// The planned route when budgeted, `None` for the plain eager path.
    fn route(&self, elem_size: usize, intra: bool) -> Option<Arc<RedistRoute>> {
        let budget = self.budget?;
        let planner = RoutePlanner::default();
        Some(match self.cache {
            Some(c) => c.route_for_epoch(
                self.src, self.dst, elem_size, budget, intra, &planner, self.epoch,
            ),
            None => Arc::new(planner.plan_for(self.src, self.dst, elem_size, budget, intra)),
        })
    }

    fn schedule(&self, rank: usize, role: Role) -> Arc<RegionSchedule> {
        match self.cache {
            Some(c) => c.get_or_build_for_epoch(self.src, self.dst, rank, role, self.epoch),
            None => Arc::new(match role {
                Role::Sender => RegionSchedule::for_sender(self.src, self.dst, rank),
                Role::Receiver => RegionSchedule::for_receiver(self.src, self.dst, rank),
            }),
        }
    }

    /// Runs `transfer` on this redistribution's buffer pool: the cache's,
    /// under the pool retention rule, when cached; a per-call pool
    /// otherwise (bounded by the route's idle allowance when routed).
    fn pooled<T: Send + 'static>(
        &self,
        route: Option<&RedistRoute>,
        transfer: impl FnOnce(&mut TransferBuffers<T>) -> Result<usize>,
    ) -> Result<usize> {
        match (self.cache, route) {
            (Some(c), _) => c.with_pool(|pool| pooled_transfer(pool, route, transfer)),
            (None, Some(r)) => {
                transfer(&mut TransferBuffers::with_byte_cap(16, r.idle_allowance() as usize))
            }
            (None, None) => transfer(&mut TransferBuffers::new()),
        }
    }

    /// Sender side of a cross-program redistribution. Returns elements
    /// sent.
    pub fn send<T>(&self, ic: &InterComm, local: &LocalArray<T>, tag: i32) -> Result<usize>
    where
        T: Copy + Send + MsgSize + 'static,
    {
        let route = self.route(size_of::<T>(), false);
        let sched = self.schedule(ic.local_rank(), Role::Sender);
        self.pooled(route.as_deref(), |pool| match route.as_deref() {
            Some(r) => execute_send_routed(r, &sched, ic, local, tag, pool),
            None => sched.execute_send(ic, local, tag, pool),
        })
    }

    /// Receiver side of a cross-program redistribution; returns fresh
    /// storage. Unbudgeted between two regular layouts it takes every
    /// peer's message first (senders post eagerly, so they are in the
    /// mailbox either way), then builds each patch front to back from them
    /// with no fill. Otherwise (explicit layouts, or budgeted routes, which
    /// must not hold every message at once) it unpacks pair by pair into
    /// [`LocalArray::allocate`]d, zero-filled storage.
    pub fn recv<T>(&self, ic: &InterComm, tag: i32) -> Result<LocalArray<T>>
    where
        T: Copy + Default + Send + MsgSize + 'static,
    {
        let route = self.route(size_of::<T>(), false);
        let sched = self.schedule(ic.local_rank(), Role::Receiver);
        self.fresh(route.as_deref(), |pool| match route.as_deref() {
            None => sched.recv_fresh(self.dst, pool, |peer| ic.recv(peer, tag)),
            Some(r) => {
                let mut local = LocalArray::allocate(self.dst, ic.local_rank());
                let moved = execute_recv_routed(r, &sched, ic, &mut local, tag, pool)?;
                Ok((local, moved))
            }
        })
    }

    /// Receiver side of a cross-program redistribution, landing in place
    /// in `local` — this rank's storage under `dst`, e.g. a registered
    /// field. Elements no sender covers keep their values. Returns
    /// elements received.
    pub fn recv_into<T>(&self, ic: &InterComm, local: &mut LocalArray<T>, tag: i32) -> Result<usize>
    where
        T: Copy + Send + MsgSize + 'static,
    {
        let route = self.route(size_of::<T>(), false);
        let sched = self.schedule(ic.local_rank(), Role::Receiver);
        self.pooled(route.as_deref(), |pool| match route.as_deref() {
            Some(r) => execute_recv_routed(r, &sched, ic, local, tag, pool),
            None => sched.execute_recv(ic, local, tag, pool),
        })
    }

    /// Runs a receive into fresh storage on this redistribution's pool.
    /// The storage is made inside `receive`, once the route and schedule
    /// are in hand: a fresh allocation then follows a schedule build
    /// instead of sitting under its temporaries, which slows a loop that
    /// rebuilds its schedules every step.
    fn fresh<T: Send + 'static>(
        &self,
        route: Option<&RedistRoute>,
        receive: impl FnOnce(&mut TransferBuffers<T>) -> Result<(LocalArray<T>, usize)>,
    ) -> Result<LocalArray<T>> {
        let mut local = None;
        self.pooled(route, |pool| {
            let (landed, moved) = receive(pool)?;
            local = Some(landed);
            Ok(moved)
        })?;
        Ok(local.expect("every receive leaves its storage"))
    }

    /// Intra-program redistribution (self-connection, e.g. transpose): every
    /// rank of `comm` calls this collectively; returns the new local storage.
    /// Unbudgeted, a rank posts its sends and then receives as
    /// [`Redist::recv`] does.
    ///
    /// `T: Sync` is required with or without a budget (the free function
    /// this replaced asked for it only when budgeted): the allgather+slice
    /// lowering shares gathered shards between ranks, and one terminal
    /// serves every policy.
    pub fn within<T>(
        &self,
        comm: &Comm,
        src_local: &LocalArray<T>,
        tag: i32,
    ) -> Result<LocalArray<T>>
    where
        T: Copy + Default + Send + Sync + MsgSize + 'static,
    {
        let route = self.route(size_of::<T>(), true);
        let send = self.schedule(comm.rank(), Role::Sender);
        let recv = self.schedule(comm.rank(), Role::Receiver);
        self.fresh(route.as_deref(), |pool| match route.as_deref() {
            None => {
                send.post(src_local, pool, |peer, buf| comm.send(peer, tag, buf))?;
                recv.recv_fresh(self.dst, pool, |peer| comm.recv(peer, tag))
            }
            Some(r) => {
                let mut local = LocalArray::allocate(self.dst, comm.rank());
                let (src, dst) = (src_local, &mut local);
                let moved =
                    execute_within_routed(r, &send, &recv, comm, self.src, src, dst, tag, pool)?;
                Ok((local, moved))
            }
        })
    }
}

// Pinned by the out-of-tree benchmark: `benchmark/src/couple.rs` is the sole
// caller of the two shims below, and a PR that may edit `benchmark/` re-points
// it at `Redist` and deletes them. Nothing in the workspace calls them.

#[doc(hidden)]
pub fn send_redistributed_cached<T>(
    cache: &ScheduleCache,
    ic: &InterComm,
    src: &Dad,
    dst: &Dad,
    local: &LocalArray<T>,
    tag: i32,
) -> Result<usize>
where
    T: Copy + Send + MsgSize + 'static,
{
    Redist::between(src, dst).cache(cache).send(ic, local, tag)
}

#[doc(hidden)]
pub fn recv_redistributed_cached<T>(
    cache: &ScheduleCache,
    ic: &InterComm,
    src: &Dad,
    dst: &Dad,
    tag: i32,
) -> Result<LocalArray<T>>
where
    T: Copy + Default + Send + MsgSize + 'static,
{
    Redist::between(src, dst).cache(cache).recv(ic, tag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mxn_dad::Extents;
    use mxn_runtime::{Universe, World};

    #[test]
    fn one_shot_convenience() {
        Universe::run(&[2, 3], |_, ctx| {
            let e = Extents::new([6, 6]);
            let src = Dad::block(e.clone(), &[2, 1]).unwrap();
            let dst = Dad::block(e, &[3, 1]).unwrap();
            if ctx.program == 0 {
                let local =
                    LocalArray::from_fn(&src, ctx.comm.rank(), |idx| (idx[0] * 6 + idx[1]) as f32);
                Redist::between(&src, &dst).send(ctx.intercomm(1), &local, 0).unwrap();
            } else {
                let local: LocalArray<f32> =
                    Redist::between(&src, &dst).recv(ctx.intercomm(0), 0).unwrap();
                for (idx, &v) in local.iter() {
                    assert_eq!(v, (idx[0] * 6 + idx[1]) as f32);
                }
            }
        });
    }

    #[test]
    fn cached_persistent_coupling() {
        Universe::run(&[2, 2], |_, ctx| {
            let e = Extents::new([4, 4]);
            let src = Dad::block(e.clone(), &[2, 1]).unwrap();
            let dst = Dad::block(e, &[1, 2]).unwrap();
            let cache = ScheduleCache::new();
            let redist = Redist::between(&src, &dst).cache(&cache);
            for step in 0..4 {
                if ctx.program == 0 {
                    let local = LocalArray::from_fn(&src, ctx.comm.rank(), |idx| {
                        (idx[0] * 4 + idx[1] + step) as u32
                    });
                    redist.send(ctx.intercomm(1), &local, step as i32).unwrap();
                } else {
                    let local: LocalArray<u32> =
                        redist.recv(ctx.intercomm(0), step as i32).unwrap();
                    for (idx, &v) in local.iter() {
                        assert_eq!(v, (idx[0] * 4 + idx[1] + step) as u32);
                    }
                }
            }
            // 4 steps, 1 build: 3 hits.
            assert_eq!(cache.stats(), (3, 1));
        });
    }

    #[test]
    fn budgeted_transfer_chunks_under_tight_budget() {
        use crate::route::{RedistProfile, RouteKind, RoutePlanner};
        let e = Extents::new([24, 24]);
        let src = Dad::block(e.clone(), &[2, 1]).unwrap();
        let dst = Dad::block(e.clone(), &[3, 1]).unwrap();
        // Tight enough that the full receive set cannot sit in the
        // mailbox, loose enough that fenced chunks fit.
        let budget = 2000u64;
        let p = RedistProfile::compute(&src, &dst, size_of::<f32>());
        let route = RoutePlanner::default().plan(&p, budget, false);
        assert_eq!(route.kind, RouteKind::Chunked);
        assert!(route.fits && route.rounds() > 1);
        Universe::run(&[2, 3], move |_, ctx| {
            let e = Extents::new([24, 24]);
            let src = Dad::block(e.clone(), &[2, 1]).unwrap();
            let dst = Dad::block(e, &[3, 1]).unwrap();
            let redist = Redist::between(&src, &dst).budget(budget);
            if ctx.program == 0 {
                let local =
                    LocalArray::from_fn(&src, ctx.comm.rank(), |idx| (idx[0] * 24 + idx[1]) as f32);
                redist.send(ctx.intercomm(1), &local, 0).unwrap();
            } else {
                let local: LocalArray<f32> = redist.recv(ctx.intercomm(0), 0).unwrap();
                assert_eq!(local.len(), 192);
                for (idx, &v) in local.iter() {
                    assert_eq!(v, (idx[0] * 24 + idx[1]) as f32);
                }
            }
        });
    }

    #[test]
    fn only_a_budget_brings_in_the_routed_protocol() {
        use mxn_runtime::RunOpts;
        use mxn_trace::EventId;
        let traced = |budget: Option<u64>| {
            let opts = RunOpts { trace: true, ..RunOpts::default() };
            Universe::run_opts(&[1, 1], opts, move |_, ctx| {
                let e = Extents::new([6, 6]);
                let src = Dad::block(e.clone(), &[1, 1]).unwrap();
                let dst = Dad::block(e, &[1, 1]).unwrap();
                let redist = Redist::between(&src, &dst);
                let redist = budget.map_or(redist, |b| redist.budget(b));
                if ctx.program == 0 {
                    let local = LocalArray::from_fn(&src, 0, |idx| idx[0] as f32);
                    redist.send(ctx.intercomm(1), &local, 0).unwrap();
                } else {
                    redist.recv::<f32>(ctx.intercomm(0), 0).unwrap();
                }
            })
            .trace
            .unwrap()
            .aggregate()
        };
        // The plain path must stay invisible to the route events (and so to
        // the golden trace digests).
        let plain = traced(None);
        assert_eq!(plain.count(EventId::RoutePlan) + plain.count(EventId::RouteStep), 0);
        let direct = traced(Some(u64::MAX));
        assert_eq!(direct.count(EventId::RoutePlan), 2, "exactly one per rank");
    }

    #[test]
    fn budgeted_cached_replans_when_only_the_epoch_changes() {
        // A grow→shrink cycle that returns to the original decomposition
        // reproduces byte-identical descriptor fingerprints; the epoch salt
        // is then the *only* thing forcing a re-profile.
        let budget = 2000u64;
        Universe::run(&[2, 3], move |_, ctx| {
            let e = Extents::new([24, 24]);
            let src = Dad::block(e.clone(), &[2, 1]).unwrap();
            let dst = Dad::block(e, &[3, 1]).unwrap();
            let cache = ScheduleCache::new();
            for epoch in 0..2u64 {
                let redist = Redist::between(&src, &dst).cache(&cache).budget(budget).epoch(epoch);
                if ctx.program == 0 {
                    let local = LocalArray::from_fn(&src, ctx.comm.rank(), |idx| {
                        (idx[0] * 24 + idx[1]) as f32 + epoch as f32
                    });
                    redist.send(ctx.intercomm(1), &local, epoch as i32).unwrap();
                } else {
                    let local: LocalArray<f32> =
                        redist.recv(ctx.intercomm(0), epoch as i32).unwrap();
                    // The post-reconfiguration transfer still fits: fresh
                    // plan, correct contents.
                    for (idx, &v) in local.iter() {
                        assert_eq!(v, (idx[0] * 24 + idx[1]) as f32 + epoch as f32);
                    }
                }
            }
            assert_eq!(
                cache.routes_len(),
                2,
                "identical fingerprints must still re-plan across epochs"
            );
        });
    }

    #[test]
    fn budgeted_within_matches_direct_results() {
        World::run(3, |p| {
            let comm = p.world();
            let e = Extents::new([12, 12]);
            let src = Dad::block(e.clone(), &[3, 1]).unwrap();
            let dst = Dad::block(e, &[1, 3]).unwrap();
            let src_local =
                LocalArray::from_fn(&src, comm.rank(), |idx| (idx[0] * 12 + idx[1]) as i64);
            // Starved budget → best-effort chunked; huge budget → whatever
            // the model calls fastest. Both must produce identical data.
            for budget in [1u64, u64::MAX] {
                let got =
                    Redist::between(&src, &dst).budget(budget).within(comm, &src_local, 5).unwrap();
                for (idx, &v) in got.iter() {
                    assert_eq!(v, (idx[0] * 12 + idx[1]) as i64, "budget {budget} at {idx:?}");
                }
            }
        });
    }

    #[test]
    fn transpose_within_program() {
        World::run(3, |p| {
            let comm = p.world();
            let e = Extents::new([6, 6]);
            let src = Dad::block(e.clone(), &[3, 1]).unwrap();
            let dst = Dad::block(e, &[1, 3]).unwrap();
            let src_local =
                LocalArray::from_fn(&src, comm.rank(), |idx| (idx[0] * 6 + idx[1]) as i64);
            let dst_local = Redist::between(&src, &dst).within(comm, &src_local, 9).unwrap();
            assert_eq!(dst_local.len(), 12);
            for (idx, &v) in dst_local.iter() {
                assert_eq!(v, (idx[0] * 6 + idx[1]) as i64);
            }
        });
    }

    #[test]
    fn pooled_transpose_loop() {
        World::run(3, |p| {
            let comm = p.world();
            let e = Extents::new([6, 6]);
            let src = Dad::block(e.clone(), &[3, 1]).unwrap();
            let dst = Dad::block(e, &[1, 3]).unwrap();
            let send = RegionSchedule::for_sender(&src, &dst, comm.rank());
            let recv = RegionSchedule::for_receiver(&src, &dst, comm.rank());
            let mut dst_local: LocalArray<i64> = LocalArray::allocate(&dst, comm.rank());
            let mut pool = TransferBuffers::new();
            for step in 0..4i64 {
                let src_local = LocalArray::from_fn(&src, comm.rank(), |idx| {
                    (idx[0] * 6 + idx[1]) as i64 + step
                });
                let moved = RegionSchedule::execute_local(
                    &send,
                    &recv,
                    comm,
                    &src_local,
                    &mut dst_local,
                    step as i32,
                    &mut pool,
                )
                .unwrap();
                comm.barrier().unwrap();
                assert_eq!(moved, 12);
                for (idx, &v) in dst_local.iter() {
                    assert_eq!(v, (idx[0] * 6 + idx[1]) as i64 + step);
                }
            }
            let (_, fresh) = pool.stats();
            assert_eq!(fresh, send.num_messages() as u64, "pool warmed after step 1");
        });
    }

    /// 24 × 22 with block-cyclic columns (block 3) over 3 ranks: the three
    /// receivers own 9, 7 and 6 columns, so one rank's pair buffers come in
    /// three sizes.
    fn cyclic_cols(e: &Extents) -> Dad {
        use mxn_dad::{AxisDist, Template};
        let axes = vec![AxisDist::Collapsed, AxisDist::BlockCyclic { block: 3, nprocs: 3 }];
        Dad::regular(Template::new(e.clone(), axes).unwrap())
    }

    /// Block → block-cyclic and back over one cache per rank, six steps;
    /// every step is checked, and after the first one no rank allocates a
    /// transfer buffer. With `in_place` every receive lands through
    /// [`Redist::recv_into`] in storage held across the steps.
    fn cached_round_trips(budget: Option<u64>, in_place: bool) {
        Universe::run(&[2, 3], move |_, ctx| {
            let e = Extents::new([24, 22]);
            let (src, dst) = (Dad::block(e.clone(), &[2, 1]).unwrap(), cyclic_cols(&e));
            let cache = ScheduleCache::new();
            let mut fwd = Redist::between(&src, &dst).cache(&cache);
            let mut rev = Redist::between(&dst, &src).cache(&cache);
            if let Some(b) = budget {
                (fwd, rev) = (fwd.budget(b), rev.budget(b));
            }
            let rank = ctx.comm.rank();
            let value = |idx: &[usize], step: usize| (idx[0] * 22 + idx[1] + 1000 * step) as f64;
            let mut held = LocalArray::allocate(if ctx.program == 0 { &src } else { &dst }, rank);
            let recv = |redist: &Redist<'_>, ic: &InterComm, tag, held: &mut LocalArray<f64>| {
                if in_place {
                    let storage = held.patch(0).1.as_ptr();
                    redist.recv_into(ic, held, tag).unwrap();
                    assert_eq!(held.patch(0).1.as_ptr(), storage, "landed in place");
                } else {
                    *held = redist.recv(ic, tag).unwrap();
                }
            };
            for step in 0..6 {
                let before = mxn_runtime::schedule_stats().buffer_allocs;
                let tag = 2 * step as i32;
                if ctx.program == 0 {
                    let local = LocalArray::from_fn(&src, rank, |idx| value(idx, step));
                    fwd.send(ctx.intercomm(1), &local, tag).unwrap();
                    recv(&rev, ctx.intercomm(1), tag + 1, &mut held);
                    let expect = LocalArray::from_fn(&src, rank, |idx| value(idx, step) + 0.5);
                    assert_eq!(held, expect, "reverse, step {step}");
                } else {
                    recv(&fwd, ctx.intercomm(0), tag, &mut held);
                    assert_eq!(held, LocalArray::from_fn(&dst, rank, |idx| value(idx, step)));
                    let back = LocalArray::from_fn(&dst, rank, |idx| value(idx, step) + 0.5);
                    rev.send(ctx.intercomm(0), &back, tag + 1).unwrap();
                }
                let stats = mxn_runtime::schedule_stats();
                if step > 0 {
                    let fresh = stats.buffer_allocs - before;
                    assert_eq!(fresh, 0, "program {} rank {rank} step {step}", ctx.program);
                }
                if let Some(b) = budget {
                    assert!(stats.transfer_peak_bytes <= b, "peak {stats:?} at step {step}");
                }
            }
        });
    }

    #[test]
    fn cached_redist_is_allocation_free_in_steady_state() {
        cached_round_trips(None, false);
        cached_round_trips(None, true);
    }

    #[test]
    fn cached_chunked_redist_is_allocation_free_within_its_budget() {
        use crate::route::{RedistProfile, RouteKind};
        let budget = 3000u64;
        let e = Extents::new([24, 22]);
        let (src, dst) = (Dad::block(e.clone(), &[2, 1]).unwrap(), cyclic_cols(&e));
        for (a, b) in [(&src, &dst), (&dst, &src)] {
            let p = RedistProfile::compute(a, b, size_of::<f64>());
            let route = RoutePlanner::default().plan(&p, budget, false);
            assert_eq!(route.kind, RouteKind::Chunked);
            assert!(route.fits && route.rounds() > 1, "{route:?}");
        }
        cached_round_trips(Some(budget), false);
        cached_round_trips(Some(budget), true);
    }

    #[test]
    fn transfers_on_regular_layouts_never_expand_region_lists() {
        use crate::region_schedule::tests::EXPANSIONS;
        use crate::route::{RedistProfile, RouteKind};
        let expansions = || EXPANSIONS.with(std::cell::Cell::get);
        let budget = 3000u64;
        Universe::run(&[2, 3], move |_, ctx| {
            let before = expansions();
            let e = Extents::new([24, 22]);
            let (src, dst) = (Dad::block(e.clone(), &[2, 1]).unwrap(), cyclic_cols(&e));
            let route = RoutePlanner::default().plan_for(&src, &dst, 8, budget, false);
            assert_eq!(route.kind, RouteKind::Chunked);
            let cache = ScheduleCache::new();
            let direct = Redist::between(&src, &dst).cache(&cache);
            let rank = ctx.comm.rank();
            let value = |idx: &[usize]| (idx[0] * 22 + idx[1]) as f64;
            for (step, redist) in [direct, direct, direct.budget(budget)].iter().enumerate() {
                if ctx.program == 0 {
                    let local = LocalArray::from_fn(&src, rank, value);
                    redist.send(ctx.intercomm(1), &local, step as i32).unwrap();
                } else {
                    let got: LocalArray<f64> = redist.recv(ctx.intercomm(0), step as i32).unwrap();
                    assert_eq!(got, LocalArray::from_fn(&dst, rank, value), "step {step}");
                }
            }
            RedistProfile::compute(&src, &dst, size_of::<f64>());
            assert_eq!(expansions(), before, "program {} rank {rank}", ctx.program);
        });
        // The probe sees an expansion: a region-level caller makes one.
        let e = Extents::new([24, 22]);
        let sched = RegionSchedule::for_sender(
            &Dad::block(e.clone(), &[2, 1]).unwrap(),
            &cyclic_cols(&e),
            0,
        );
        let before = expansions();
        assert_eq!(sched.pairs()[0].regions.len(), 3);
        assert_eq!(expansions(), before + 1);
    }

    #[test]
    fn cached_transpose_loop_is_allocation_free() {
        World::run(3, |p| {
            let comm = p.world();
            let e = Extents::new([12, 11]);
            let src = Dad::block(e.clone(), &[3, 1]).unwrap();
            let dst = Dad::block(e, &[1, 3]).unwrap();
            let cache = ScheduleCache::new();
            let transpose = Redist::between(&src, &dst).cache(&cache);
            for step in 0..6usize {
                let before = mxn_runtime::schedule_stats().buffer_allocs;
                let value = |idx: &[usize]| (idx[0] * 11 + idx[1] + 100 * step) as i64;
                let src_local = LocalArray::from_fn(&src, comm.rank(), value);
                let got = transpose.within(comm, &src_local, step as i32).unwrap();
                assert_eq!(got, LocalArray::from_fn(&dst, comm.rank(), value), "step {step}");
                let fresh = mxn_runtime::schedule_stats().buffer_allocs - before;
                // Rank 2 owns 3 of the 11 columns, so it drains 12-element
                // buffers but sends 16-element ones: its second step grows
                // two of them, which then circulate.
                if step > 1 {
                    assert_eq!(fresh, 0, "rank {} step {step}", comm.rank());
                }
            }
            assert_eq!(cache.stats(), (10, 2), "one build per role, then hits");
        });
    }

    #[test]
    fn a_receive_only_rank_parks_one_transfer() {
        Universe::run(&[2, 1], |_, ctx| {
            let e = Extents::new([16, 8]);
            let src = Dad::block(e.clone(), &[2, 1]).unwrap();
            let dst = Dad::block(e, &[1, 1]).unwrap();
            let cache = ScheduleCache::new();
            let redist = Redist::between(&src, &dst).cache(&cache);
            for step in 0..20 {
                if ctx.program == 0 {
                    let local = LocalArray::from_fn(&src, ctx.comm.rank(), |idx| idx[0] + step);
                    redist.send(ctx.intercomm(1), &local, step as i32).unwrap();
                } else {
                    let got: LocalArray<usize> =
                        redist.recv(ctx.intercomm(0), step as i32).unwrap();
                    assert_eq!(got, LocalArray::from_fn(&dst, 0, |idx| idx[0] + step));
                }
            }
            let (idle, bytes) =
                cache.with_pool(|p: &mut TransferBuffers<usize>| (p.idle(), p.idle_bytes()));
            if ctx.program == 1 {
                // 40 buffers drained, one receive set (two pair buffers) kept.
                assert_eq!((idle, bytes), (2, 128 * size_of::<usize>()));
            } else {
                assert_eq!(idle, 0, "nothing comes back to a send-only rank");
            }
        });
    }

    #[test]
    fn clear_drops_idle_transfer_buffers() {
        World::run(2, |p| {
            let comm = p.world();
            let e = Extents::new([8, 8]);
            let (src, dst) =
                (Dad::block(e.clone(), &[2, 1]).unwrap(), Dad::block(e, &[1, 2]).unwrap());
            let cache = ScheduleCache::new();
            let local = LocalArray::from_fn(&src, comm.rank(), |idx| idx[1] as u32);
            Redist::between(&src, &dst).cache(&cache).within(comm, &local, 0).unwrap();
            let idle = |c: &ScheduleCache| c.with_pool(|p: &mut TransferBuffers<u32>| p.idle());
            assert_eq!(idle(&cache), 2, "the received pair buffers stay warm");
            cache.clear();
            assert_eq!(idle(&cache), 0);
            assert!(cache.is_empty());
        });
    }

    #[test]
    fn ranks_sharing_one_cache_contend_for_its_pool() {
        let cache = ScheduleCache::new();
        World::run(2, |p| {
            let comm = p.world();
            let e = Extents::new([10, 6]);
            let (src, dst) =
                (Dad::block(e.clone(), &[2, 1]).unwrap(), Dad::block(e, &[1, 2]).unwrap());
            let transpose = Redist::between(&src, &dst).cache(&cache);
            for step in 0..50usize {
                let value = |idx: &[usize]| (idx[0] * 6 + idx[1] + step) as f64;
                let local = LocalArray::from_fn(&src, comm.rank(), value);
                let got = transpose.within(comm, &local, step as i32).unwrap();
                assert_eq!(got, LocalArray::from_fn(&dst, comm.rank(), value), "step {step}");
            }
        });
        // Each pool put back holds at most one rank's receive set.
        let parked = cache.with_pool(|p: &mut TransferBuffers<f64>| p.idle_bytes());
        assert!(parked <= 30 * size_of::<f64>(), "{parked} B parked");
        assert_eq!(cache.len(), 4, "two ranks × two roles");
    }

    use mxn_dad::{AxisDist, Template};
    use proptest::prelude::*;

    /// Axis distribution `kind` (collapsed, block, cyclic, block-cyclic,
    /// gen-block or implicit) over `nprocs` positions of `extent`
    /// elements; `seed` deals the gen-block sizes and implicit owners.
    fn any_axis(kind: usize, nprocs: usize, block: usize, extent: usize, seed: u64) -> AxisDist {
        let mut state = seed;
        let mut draw = |n: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize % n
        };
        match kind {
            0 => AxisDist::Collapsed,
            1 => AxisDist::Block { nprocs },
            2 => AxisDist::Cyclic { nprocs },
            3 => AxisDist::BlockCyclic { block, nprocs },
            4 => {
                let mut cuts: Vec<usize> = (1..nprocs).map(|_| draw(extent + 1)).collect();
                cuts.sort_unstable();
                cuts.push(extent);
                let sizes = cuts.iter().scan(0, |lo, &hi| Some(hi - std::mem::replace(lo, hi)));
                AxisDist::GenBlock { sizes: sizes.collect() }
            }
            _ => AxisDist::Implicit { owners: (0..extent).map(|_| draw(nprocs)).collect(), nprocs },
        }
    }

    /// Two regular layouts of one 1–3-axis array: per axis an extent, then
    /// a kind, positions and block size for each side.
    fn any_pair() -> impl Strategy<Value = (Dad, Dad)> {
        let side = || (0usize..6, 1usize..4, 1usize..4);
        let axis = (1usize..10, side(), side());
        (proptest::collection::vec(axis, 1..=3), 0u64..1 << 32).prop_map(|(axes, seed)| {
            let extents = Extents::new(axes.iter().map(|a| a.0).collect::<Vec<_>>());
            let dad = |side: usize| {
                let dists = axes.iter().enumerate().map(|(d, &(extent, a, b))| {
                    let (kind, nprocs, block) = if side == 0 { a } else { b };
                    let nprocs = if kind == 0 { 1 } else { nprocs };
                    any_axis(kind, nprocs, block, extent, seed + 8 * d as u64 + side as u64)
                });
                Dad::regular(Template::new(extents.clone(), dists.collect()).unwrap())
            };
            (dad(0), dad(1))
        })
    }

    /// A value with distinct bits at every index.
    fn value(idx: &[usize]) -> u64 {
        idx.iter().fold(0x9e37_79b9, |h: u64, &i| h.wrapping_mul(1_000_003) + i as u64)
    }

    /// What sender `peer` packs for receiver `rank`.
    fn message(src: &Dad, dst: &Dad, peer: usize, rank: usize) -> Vec<u64> {
        let sched = RegionSchedule::for_sender(src, dst, peer);
        let i = sched.pairs().iter().position(|p| p.peer == rank).expect("a mirrored pair");
        let mut buf = Vec::new();
        sched.pack_pair_into(i, &LocalArray::from_fn(src, peer, value), &mut buf);
        buf
    }

    /// Rank `rank`'s storage under `dst` as a zero-filled allocation with
    /// every pair unpacked into it.
    fn unpacked(src: &Dad, dst: &Dad, rank: usize) -> LocalArray<u64> {
        let sched = RegionSchedule::for_receiver(src, dst, rank);
        let mut local = LocalArray::allocate(dst, rank);
        for (i, p) in sched.pairs().iter().enumerate() {
            sched.unpack_pair_from(i, &mut local, &message(src, dst, p.peer, rank));
        }
        local
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// A landed receive builds, bit for bit, what zero-filled storage
        /// holds after every pair is unpacked into it.
        #[test]
        fn landed_storage_matches_allocate_and_unpack(pair in any_pair()) {
            let (src, dst) = pair;
            for rank in 0..dst.nranks() {
                let sched = RegionSchedule::for_receiver(&src, &dst, rank);
                let want = unpacked(&src, &dst, rank);
                // Every rank that owns something lands from per-axis runs.
                prop_assert_eq!(sched.pairs().is_empty(), want.num_patches() == 0);
                prop_assert!(sched.pairs().is_empty() || sched.plan(0).axes().is_some());
                let mut pool = TransferBuffers::new();
                let (mut got, moved) = sched
                    .recv_fresh(&dst, &mut pool, |peer| Ok(message(&src, &dst, peer, rank)))
                    .unwrap();
                prop_assert_eq!(moved, want.len());
                prop_assert_eq!(&got, &want);
                // The storage carries the schedule's layout.
                for (i, p) in sched.pairs().iter().enumerate() {
                    sched.unpack_pair_from(i, &mut got, &message(&src, &dst, p.peer, rank));
                }
            }
        }
    }

    /// M≠N through the user paths: a landed `recv` (3 → 5 and 4 → 6
    /// ranks, uneven block-cyclic and gen-block tails) equals zero-filled
    /// storage with every pair unpacked into it.
    #[test]
    fn landed_receives_match_allocate_and_unpack_for_m_not_n() {
        let e = Extents::new([11, 7, 5]);
        let t = |axes| Dad::regular(Template::new(e.clone(), axes).unwrap());
        let three = t(vec![
            AxisDist::BlockCyclic { block: 2, nprocs: 3 },
            AxisDist::Collapsed,
            AxisDist::Collapsed,
        ]);
        let five = t(vec![
            AxisDist::Collapsed,
            AxisDist::GenBlock { sizes: vec![3, 0, 4, 0, 0] },
            AxisDist::Cyclic { nprocs: 1 },
        ]);
        let four = t(vec![
            AxisDist::Block { nprocs: 2 },
            AxisDist::Collapsed,
            AxisDist::BlockCyclic { block: 3, nprocs: 2 },
        ]);
        let six = t(vec![
            AxisDist::Cyclic { nprocs: 3 },
            AxisDist::BlockCyclic { block: 2, nprocs: 2 },
            AxisDist::Collapsed,
        ]);
        for (src, dst) in [(three, five), (four, six)] {
            Universe::run(&[src.nranks(), dst.nranks()], |_, ctx| {
                let rank = ctx.comm.rank();
                let redist = Redist::between(&src, &dst);
                if ctx.program == 0 {
                    let local = LocalArray::from_fn(&src, rank, value);
                    redist.send(ctx.intercomm(1), &local, 4).unwrap();
                } else {
                    let got: LocalArray<u64> = redist.recv(ctx.intercomm(0), 4).unwrap();
                    assert_eq!(got, unpacked(&src, &dst, rank), "rank {rank} of {:?}", dst);
                }
            });
        }
    }
}
