//! Schedule caching and reuse.
//!
//! "Communication schedules can be expensive to calculate … this schedule
//! is computed prior to the transfer operation, and can be reused in
//! consecutive transfers, and even for different arrays as long as they
//! conform to the same distribution template" (paper §2.3). The cache keys
//! on the *descriptor pair* (plus rank and role), so any array aligned to
//! the same templates reuses the plan — experiment E6's amortization.
//!
//! Keys are the descriptors' precomputed 128-bit fingerprints
//! ([`Dad::fingerprint`]), not descriptor clones: a lookup hashes two
//! `u128`s instead of walking (and on insert, deep-copying) patch lists.
//! Distinct descriptors colliding on both halves of a seeded 128-bit
//! fingerprint is vanishingly unlikely (~2⁻¹²⁸) and would only yield a
//! schedule for the colliding layout, caught by the conformance assert.
//!
//! The cache also holds the transfer buffers of the transfers it serves:
//! one [`TransferBuffers`] pool per element type, lent to every cached
//! [`crate::Redist`] terminal, so a persistent coupling runs on memory it
//! already holds instead of allocating its pair buffers every step.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use mxn_dad::Dad;

use crate::plan::TransferBuffers;
use crate::region_schedule::{RegionSchedule, Role};
use crate::route::{RedistRoute, RoutePlanner};

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    src_fp: u128,
    dst_fp: u128,
    rank: usize,
    role: Role,
    /// Recovery epoch salt. Healed connections rebuild schedules for the
    /// same descriptor pair under a new epoch, so plans from before a
    /// shrink can never be served to the survivor topology.
    epoch: u64,
}

/// Key of a planned route: the descriptor pair plus everything the
/// planner's answer depends on. Rank and role are deliberately absent —
/// a route is a global property of the redistribution, identical on every
/// rank of both sides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct RouteKey {
    src_fp: u128,
    dst_fp: u128,
    elem_size: usize,
    /// Per-rank peak-memory budget the route was planned under.
    budget_bytes: u64,
    intra: bool,
    epoch: u64,
}

/// A thread-safe cache of built [`RegionSchedule`]s and planned routes
/// with hit/miss counters, plus the idle transfer buffers of the cached
/// [`crate::Redist`] transfers that use it (one pool per element type).
#[derive(Default)]
pub struct ScheduleCache {
    map: Mutex<HashMap<Key, Arc<RegionSchedule>>>,
    routes: Mutex<HashMap<RouteKey, Arc<RedistRoute>>>,
    /// `TransferBuffers<T>` keyed by `TypeId::of::<T>()`.
    pools: Mutex<HashMap<TypeId, Box<dyn Any + Send>>>,
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
}

impl ScheduleCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the cached schedule for `(src, dst, rank, role)`, building
    /// and inserting it on first use. Epoch 0 — the pre-failure plan.
    pub fn get_or_build(
        &self,
        src: &Dad,
        dst: &Dad,
        rank: usize,
        role: Role,
    ) -> Arc<RegionSchedule> {
        self.get_or_build_for_epoch(src, dst, rank, role, 0)
    }

    /// [`ScheduleCache::get_or_build`] salted with a recovery epoch: the
    /// entry point for healed connections, which must rebuild rather than
    /// reuse plans computed for the pre-shrink topology.
    pub fn get_or_build_for_epoch(
        &self,
        src: &Dad,
        dst: &Dad,
        rank: usize,
        role: Role,
        epoch: u64,
    ) -> Arc<RegionSchedule> {
        use std::sync::atomic::Ordering;
        let key = Key { src_fp: src.fingerprint(), dst_fp: dst.fingerprint(), rank, role, epoch };
        let mut map = self.map.lock();
        if let Some(s) = map.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return s.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let sched = Arc::new(match role {
            Role::Sender => RegionSchedule::for_sender(src, dst, rank),
            Role::Receiver => RegionSchedule::for_receiver(src, dst, rank),
        });
        map.insert(key, sched.clone());
        sched
    }

    /// Returns the cached [`RedistRoute`] for the descriptor pair under
    /// `(elem_size, budget_bytes, intra)`, planning and inserting it on
    /// first use (epoch 0). Route planning profiles every sender schedule,
    /// so persistent couplings should hit this cache, not replan per step.
    pub fn route_for(
        &self,
        src: &Dad,
        dst: &Dad,
        elem_size: usize,
        budget_bytes: u64,
        intra: bool,
        planner: &RoutePlanner,
    ) -> Arc<RedistRoute> {
        self.route_for_epoch(src, dst, elem_size, budget_bytes, intra, planner, 0)
    }

    /// [`ScheduleCache::route_for`] salted with a recovery epoch, mirroring
    /// [`ScheduleCache::get_or_build_for_epoch`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn route_for_epoch(
        &self,
        src: &Dad,
        dst: &Dad,
        elem_size: usize,
        budget_bytes: u64,
        intra: bool,
        planner: &RoutePlanner,
        epoch: u64,
    ) -> Arc<RedistRoute> {
        use std::sync::atomic::Ordering;
        let key = RouteKey {
            src_fp: src.fingerprint(),
            dst_fp: dst.fingerprint(),
            elem_size,
            budget_bytes,
            intra,
            epoch,
        };
        let mut routes = self.routes.lock();
        if let Some(r) = routes.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return r.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let route = Arc::new(planner.plan_for(src, dst, elem_size, budget_bytes, intra));
        routes.insert(key, route.clone());
        route
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        use std::sync::atomic::Ordering;
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }

    /// Number of cached schedules.
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of cached routes.
    pub fn routes_len(&self) -> usize {
        self.routes.lock().len()
    }

    /// Drops every cached schedule and route and every idle transfer
    /// buffer (benchmark phase separation). Hit/miss counters are kept.
    pub fn clear(&self) {
        self.map.lock().clear();
        self.routes.lock().clear();
        self.pools.lock().clear();
    }

    /// Lends the cache's pool for element type `T` to `f`. The pool is
    /// moved out for the call, so no lock is held while a transfer blocks;
    /// a transfer running meanwhile on another thread gets an empty pool,
    /// and the pool put back last is kept.
    pub fn with_pool<T: Send + 'static, R>(
        &self,
        f: impl FnOnce(&mut TransferBuffers<T>) -> R,
    ) -> R {
        let key = TypeId::of::<T>();
        let mut pool = self
            .pools
            .lock()
            .get_mut(&key)
            .map_or_else(TransferBuffers::new, |p| std::mem::take(Self::typed(p)));
        let out = f(&mut pool);
        let mut pools = self.pools.lock();
        let slot = pools.entry(key).or_insert_with(|| Box::new(TransferBuffers::<T>::new()));
        *Self::typed(slot) = pool;
        out
    }

    fn typed<T: 'static>(pool: &mut Box<dyn Any + Send>) -> &mut TransferBuffers<T> {
        pool.downcast_mut().expect("pools are keyed by element type")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mxn_dad::Extents;

    fn dads() -> (Dad, Dad) {
        (
            Dad::block(Extents::new([8, 8]), &[2, 1]).unwrap(),
            Dad::block(Extents::new([8, 8]), &[1, 2]).unwrap(),
        )
    }

    #[test]
    fn second_lookup_hits() {
        let cache = ScheduleCache::new();
        let (src, dst) = dads();
        let a = cache.get_or_build(&src, &dst, 0, Role::Sender);
        let b = cache.get_or_build(&src, &dst, 0, Role::Sender);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_ranks_and_roles_are_distinct_entries() {
        let cache = ScheduleCache::new();
        let (src, dst) = dads();
        cache.get_or_build(&src, &dst, 0, Role::Sender);
        cache.get_or_build(&src, &dst, 1, Role::Sender);
        cache.get_or_build(&src, &dst, 0, Role::Receiver);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats(), (0, 3));
    }

    #[test]
    fn different_templates_do_not_collide() {
        let cache = ScheduleCache::new();
        let (src, dst) = dads();
        let other = Dad::block(Extents::new([8, 8]), &[2, 2]).unwrap();
        let a = cache.get_or_build(&src, &dst, 0, Role::Sender);
        let b = cache.get_or_build(&src, &other, 0, Role::Sender);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn clear_resets_contents_but_not_counters() {
        let cache = ScheduleCache::new();
        let (src, dst) = dads();
        cache.get_or_build(&src, &dst, 0, Role::Sender);
        cache.clear();
        assert!(cache.is_empty());
        cache.get_or_build(&src, &dst, 0, Role::Sender);
        assert_eq!(cache.stats(), (0, 2), "rebuild after clear is a miss");
    }

    #[test]
    fn epochs_are_distinct_entries() {
        let cache = ScheduleCache::new();
        let (src, dst) = dads();
        let a = cache.get_or_build(&src, &dst, 0, Role::Sender);
        let b = cache.get_or_build_for_epoch(&src, &dst, 0, Role::Sender, 1);
        assert!(!Arc::ptr_eq(&a, &b), "a new epoch must rebuild, not reuse");
        let c = cache.get_or_build_for_epoch(&src, &dst, 0, Role::Sender, 1);
        assert!(Arc::ptr_eq(&b, &c), "within an epoch the plan is reused");
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats(), (1, 2));
    }

    #[test]
    fn routes_key_on_elem_size_and_budget() {
        let cache = ScheduleCache::new();
        let (src, dst) = dads();
        let planner = RoutePlanner::default();
        let a = cache.route_for(&src, &dst, 8, u64::MAX, false, &planner);
        let b = cache.route_for(&src, &dst, 8, u64::MAX, false, &planner);
        assert!(Arc::ptr_eq(&a, &b), "same (elem, budget) reuses the plan");
        let c = cache.route_for(&src, &dst, 8, 1024, false, &planner);
        assert!(!Arc::ptr_eq(&a, &c), "a different budget must replan");
        let d = cache.route_for(&src, &dst, 4, u64::MAX, false, &planner);
        assert!(!Arc::ptr_eq(&a, &d), "a different element size must replan");
        assert_eq!(cache.routes_len(), 3);
        cache.clear();
        assert_eq!(cache.routes_len(), 0);
    }

    #[test]
    fn cache_is_shareable_across_threads() {
        let cache = Arc::new(ScheduleCache::new());
        let (src, dst) = dads();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cache = cache.clone();
                let (src, dst) = (src.clone(), dst.clone());
                std::thread::spawn(move || {
                    cache.get_or_build(&src, &dst, 0, Role::Receiver).total_elements()
                })
            })
            .collect();
        let totals: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(totals.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_concurrent_borrower_gets_an_empty_pool() {
        use std::sync::Barrier;
        let cache = ScheduleCache::new();
        cache.with_pool(|p: &mut TransferBuffers<f64>| p.recycle(Vec::with_capacity(8)));
        let (lent, returned) = (Barrier::new(2), Barrier::new(2));
        std::thread::scope(|s| {
            s.spawn(|| {
                cache.with_pool(|p: &mut TransferBuffers<f64>| {
                    assert_eq!(p.idle(), 1, "the first borrower gets the pool");
                    lent.wait();
                    returned.wait();
                    p.recycle(Vec::with_capacity(16));
                })
            });
            lent.wait();
            cache.with_pool(|p: &mut TransferBuffers<f64>| {
                assert_eq!(p.idle(), 0, "the pool is out on loan");
                p.recycle(Vec::with_capacity(4));
            });
            returned.wait();
        });
        let idle = cache.with_pool(|p: &mut TransferBuffers<f64>| p.idle());
        assert_eq!(idle, 2, "the pool put back last is kept");
        let other = cache.with_pool(|p: &mut TransferBuffers<u8>| p.idle());
        assert_eq!(other, 0, "each element type has a pool of its own");
    }
}
