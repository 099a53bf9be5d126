//! Per-rank mailboxes.
//!
//! Each rank owns one mailbox; senders push envelopes into the destination's
//! mailbox and receivers take the earliest envelope matching a
//! `(context, source, tag)` pattern. Internally the mailbox is split into
//! per-`(context, tag)` buckets so a post only scans and wakes the receivers
//! interested in that exact tag (targeted `notify_one` instead of a broadcast
//! to every waiter), and [`Mailbox::post_many`] deposits a whole batch under
//! one lock acquisition.
//!
//! Every envelope is stamped with a mailbox-wide monotone sequence number at
//! arrival. Within a bucket that makes the queue arrival-ordered, preserving
//! MPI's non-overtaking guarantee per (context, src, tag); across buckets it
//! lets wildcard (`Tag::Any`) receives pick the earliest arrival among all of
//! a context's buckets, exactly as the single-queue design did.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::envelope::{Envelope, MessageInfo, Src, Tag};
use crate::error::{Result, RuntimeError};
use crate::fault::Liveness;
use crate::membership::Revocations;

/// Identity of the peer a blocked receive is waiting on, for liveness
/// checks: `global` indexes the world liveness registry, `local` is the
/// rank to report in [`RuntimeError::PeerDead`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerRef {
    /// World rank of the peer.
    pub global: usize,
    /// The peer's rank in the waiting communicator's numbering.
    pub local: usize,
}

/// One `(context, tag)` queue plus its dedicated wakeup channel.
struct Bucket {
    queue: VecDeque<Envelope>,
    /// Queued envelopes carrying a `deliver_at` (fault-plane delays).
    /// While zero — the fault-free common case — queue scans skip the
    /// `Instant::now()` read entirely.
    delayed: usize,
    /// Receivers currently blocked on exactly this (context, tag). Behind an
    /// `Arc` so a waiter can keep the condvar identity stable while the
    /// bucket map rehashes.
    cond: Arc<Condvar>,
    waiters: usize,
}

impl Bucket {
    fn new() -> Self {
        Bucket { queue: VecDeque::new(), delayed: 0, cond: Arc::new(Condvar::new()), waiters: 0 }
    }

    /// Removes the envelope at `i`, maintaining the delayed-message count.
    fn remove_at(&mut self, i: usize) -> Envelope {
        let env = self.queue.remove(i).expect("index just found");
        if env.deliver_at.is_some() {
            self.delayed -= 1;
        }
        env
    }

    /// Index of the earliest deliverable envelope from `src`.
    fn find(&self, src: Src) -> Option<usize> {
        if self.delayed == 0 {
            return self.queue.iter().position(|e| src.matches(e.src_local));
        }
        let now = Instant::now();
        self.queue
            .iter()
            .position(|e| src.matches(e.src_local) && e.deliver_at.is_none_or(|t| t <= now))
    }

    /// Earliest future delivery instant among matching messages (network
    /// model): the moment a blocked receive should re-check.
    fn earliest_pending(&self, src: Src) -> Option<Instant> {
        if self.delayed == 0 {
            return None;
        }
        self.queue.iter().filter(|e| src.matches(e.src_local)).filter_map(|e| e.deliver_at).min()
    }
}

struct Inner {
    buckets: HashMap<(u32, i32), Bucket>,
    next_seq: u64,
    /// Total queued envelopes across all buckets.
    total: usize,
    /// Receivers currently blocked with a `Tag::Any` pattern (they wait on
    /// the mailbox-wide condvar since any bucket could satisfy them).
    any_waiters: usize,
}

impl Inner {
    /// Drops a bucket that holds no messages and no waiters, so tag churn
    /// (collectives rotate through a large tag space) cannot grow the map
    /// without bound.
    fn maybe_gc(&mut self, key: (u32, i32)) {
        if let Some(b) = self.buckets.get(&key) {
            if b.queue.is_empty() && b.waiters == 0 {
                self.buckets.remove(&key);
            }
        }
    }

    /// Finds the earliest-arrival deliverable envelope matching the pattern,
    /// returning its bucket key and queue index.
    fn find(&self, context: u32, src: Src, tag: Tag) -> Option<((u32, i32), usize)> {
        match tag {
            Tag::Value(t) => {
                let key = (context, t);
                self.buckets.get(&key).and_then(|b| b.find(src)).map(|i| (key, i))
            }
            Tag::Any => {
                let mut best: Option<((u32, i32), usize, u64)> = None;
                for (&key, b) in &self.buckets {
                    if key.0 != context {
                        continue;
                    }
                    if let Some(i) = b.find(src) {
                        let seq = b.queue[i].seq;
                        if best.is_none_or(|(_, _, s)| seq < s) {
                            best = Some((key, i, seq));
                        }
                    }
                }
                best.map(|(key, i, _)| (key, i))
            }
        }
    }

    /// Removes and returns the earliest matching deliverable envelope.
    fn pop(&mut self, context: u32, src: Src, tag: Tag) -> Option<Envelope> {
        let (key, i) = self.find(context, src, tag)?;
        let env = self.buckets.get_mut(&key).expect("bucket just found").remove_at(i);
        self.total -= 1;
        self.maybe_gc(key);
        Some(env)
    }

    /// Earliest future delivery instant among messages matching the pattern.
    fn earliest_pending(&self, context: u32, src: Src, tag: Tag) -> Option<Instant> {
        match tag {
            Tag::Value(t) => self.buckets.get(&(context, t)).and_then(|b| b.earliest_pending(src)),
            Tag::Any => self
                .buckets
                .iter()
                .filter(|(key, _)| key.0 == context)
                .filter_map(|(_, b)| b.earliest_pending(src))
                .min(),
        }
    }

    /// Appends `env` to its bucket (stamping the arrival sequence) and
    /// returns the bucket's wakeup channel if any receiver is parked on it.
    fn append(&mut self, mut env: Envelope) -> Option<(Arc<Condvar>, usize)> {
        env.seq = self.next_seq;
        self.next_seq += 1;
        let bucket = self.buckets.entry((env.context, env.tag)).or_insert_with(Bucket::new);
        if env.deliver_at.is_some() {
            bucket.delayed += 1;
        }
        bucket.queue.push_back(env);
        self.total += 1;
        (bucket.waiters > 0).then(|| (bucket.cond.clone(), bucket.waiters))
    }
}

/// Wakes one bucket's waiters: a single parked receiver gets a targeted
/// `notify_one`; with several (possibly waiting on different `Src` patterns)
/// everyone re-checks.
fn notify_bucket(cond: &Condvar, waiters: usize) {
    if waiters == 1 {
        cond.notify_one();
    } else {
        cond.notify_all();
    }
}

/// A single rank's incoming-message queue.
pub struct Mailbox {
    inner: Mutex<Inner>,
    /// Wakeup channel for `Tag::Any` receivers.
    any_cond: Condvar,
    abort: Arc<AtomicBool>,
    liveness: Arc<Liveness>,
    revocations: Arc<Revocations>,
    /// Payload bytes currently queued (sent but not yet taken). In an eager
    /// transport a sent buffer is resident *here* until the receiver drains
    /// it, so this — not the sender's working set — is where redistribution
    /// memory pressure shows up.
    live_bytes: AtomicU64,
    /// High-water mark of [`Self::live_bytes`].
    peak_bytes: AtomicU64,
}

impl Mailbox {
    /// Creates an empty mailbox wired to the world's abort flag, liveness
    /// registry and revocation state.
    pub fn new(
        abort: Arc<AtomicBool>,
        liveness: Arc<Liveness>,
        revocations: Arc<Revocations>,
    ) -> Self {
        Mailbox {
            inner: Mutex::new(Inner {
                buckets: HashMap::new(),
                next_seq: 0,
                total: 0,
                any_waiters: 0,
            }),
            any_cond: Condvar::new(),
            abort,
            liveness,
            revocations,
            live_bytes: AtomicU64::new(0),
            peak_bytes: AtomicU64::new(0),
        }
    }

    /// Accounts `bytes` of newly-queued payload, raising the high-water
    /// mark. Called with the inner lock held so the peak is exact.
    fn add_live(&self, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let live = self.live_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak_bytes.fetch_max(live, Ordering::Relaxed);
    }

    /// Releases `bytes` of queued payload (an envelope was taken).
    fn sub_live(&self, bytes: u64) {
        if bytes > 0 {
            self.live_bytes.fetch_sub(bytes, Ordering::Relaxed);
        }
    }

    /// Payload bytes currently queued in this mailbox.
    pub(crate) fn live_bytes(&self) -> u64 {
        self.live_bytes.load(Ordering::Relaxed)
    }

    /// High-water mark of queued payload bytes since creation (or the last
    /// reset).
    pub(crate) fn peak_bytes(&self) -> u64 {
        self.peak_bytes.load(Ordering::Relaxed)
    }

    /// Resets the high-water mark to the current live level (between
    /// measurement phases).
    pub(crate) fn reset_peak_bytes(&self) {
        self.peak_bytes.store(self.live_bytes.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// `PeerDead` when every peer that could satisfy the wait has died.
    /// Called only *after* a failed queue scan, so messages a rank managed
    /// to send before dying still drain normally. An empty slice means the
    /// candidate set is unknown: no liveness check.
    fn check_peers(&self, peers: &[PeerRef]) -> Result<()> {
        if !peers.is_empty() && peers.iter().all(|p| self.liveness.is_dead(p.global)) {
            return Err(RuntimeError::PeerDead { rank: peers[0].local });
        }
        Ok(())
    }

    /// Deposits an envelope and wakes receivers parked on its bucket.
    pub fn push(&self, env: Envelope) {
        let bytes = env.bytes as u64;
        let mut inner = self.inner.lock();
        let bucket_wake = inner.append(env);
        self.add_live(bytes);
        let any = inner.any_waiters;
        drop(inner);
        if let Some((cond, waiters)) = bucket_wake {
            notify_bucket(&cond, waiters);
        }
        if any > 0 {
            notify_bucket(&self.any_cond, any);
        }
    }

    /// Deposits a batch of envelopes under a single lock acquisition,
    /// coalescing wakeups per bucket — the entry point for multicast fan-out
    /// and all-to-all rounds landing several messages at once.
    pub fn post_many(&self, envs: impl IntoIterator<Item = Envelope>) {
        let mut wakes: Vec<(Arc<Condvar>, usize)> = Vec::new();
        let mut batch_bytes = 0u64;
        let mut inner = self.inner.lock();
        for env in envs {
            batch_bytes += env.bytes as u64;
            if let Some((cond, waiters)) = inner.append(env) {
                if !wakes.iter().any(|(c, _)| Arc::ptr_eq(c, &cond)) {
                    wakes.push((cond, waiters));
                }
            }
        }
        self.add_live(batch_bytes);
        let any = inner.any_waiters;
        drop(inner);
        for (cond, waiters) in wakes {
            notify_bucket(&cond, waiters);
        }
        if any > 0 {
            notify_bucket(&self.any_cond, any);
        }
    }

    /// Wakes all waiters so they can observe the abort flag.
    pub fn wake_all(&self) {
        let inner = self.inner.lock();
        let conds: Vec<Arc<Condvar>> =
            inner.buckets.values().filter(|b| b.waiters > 0).map(|b| b.cond.clone()).collect();
        drop(inner);
        for cond in conds {
            cond.notify_all();
        }
        self.any_cond.notify_all();
    }

    /// Parks the calling receiver on the wakeup channel for its pattern:
    /// the bucket condvar for a concrete tag, the mailbox-wide channel for
    /// `Tag::Any`. Returns whether the wait timed out at `wake_at`.
    fn wait_for(
        &self,
        inner: &mut MutexGuard<'_, Inner>,
        context: u32,
        tag: Tag,
        wake_at: Option<Instant>,
    ) -> bool {
        match tag {
            Tag::Value(t) => {
                let key = (context, t);
                let cond = {
                    let b = inner.buckets.entry(key).or_insert_with(Bucket::new);
                    b.waiters += 1;
                    b.cond.clone()
                };
                let timed_out = match wake_at {
                    Some(at) => cond.wait_until(inner, at).timed_out(),
                    None => {
                        cond.wait(inner);
                        false
                    }
                };
                inner.buckets.get_mut(&key).expect("bucket pinned by waiter").waiters -= 1;
                inner.maybe_gc(key);
                timed_out
            }
            Tag::Any => {
                inner.any_waiters += 1;
                let timed_out = match wake_at {
                    Some(at) => self.any_cond.wait_until(inner, at).timed_out(),
                    None => {
                        self.any_cond.wait(inner);
                        false
                    }
                };
                inner.any_waiters -= 1;
                timed_out
            }
        }
    }

    /// Removes and returns the earliest matching envelope without blocking.
    ///
    /// Not revocation-checked: a non-blocking scan cannot report an error,
    /// and its callers (`iprobe`, diagnostics) tolerate stale reads. The
    /// blocking paths are the epoch boundary.
    pub fn try_take(&self, context: u32, src: Src, tag: Tag) -> Option<Envelope> {
        let env = self.inner.lock().pop(context, src, tag)?;
        self.sub_live(env.bytes as u64);
        Some(env)
    }

    /// Blocks until a matching envelope arrives and is deliverable, the
    /// world aborts, or every awaitable peer is found dead.
    pub fn take(&self, context: u32, src: Src, tag: Tag, peers: &[PeerRef]) -> Result<Envelope> {
        let mut inner = self.inner.lock();
        loop {
            // Revocation wins over queued messages: traffic from the old
            // epoch must never deliver once the context is poisoned.
            self.revocations.check(context)?;
            if let Some(env) = inner.pop(context, src, tag) {
                self.sub_live(env.bytes as u64);
                return Ok(env);
            }
            if self.abort.load(Ordering::Acquire) {
                return Err(RuntimeError::Aborted);
            }
            self.check_peers(peers)?;
            // If a matching message is in flight (network delay), sleep only
            // until it lands.
            let wake_at = inner.earliest_pending(context, src, tag);
            self.wait_for(&mut inner, context, tag, wake_at);
        }
    }

    /// Blocks until a matching envelope arrives, the world aborts, the
    /// awaitable peers all die, or `timeout` elapses.
    pub fn take_timeout(
        &self,
        context: u32,
        src: Src,
        tag: Tag,
        timeout: Duration,
        peers: &[PeerRef],
    ) -> Result<Envelope> {
        let start = Instant::now();
        let deadline = start + timeout;
        let mut inner = self.inner.lock();
        loop {
            self.revocations.check(context)?;
            if let Some(env) = inner.pop(context, src, tag) {
                self.sub_live(env.bytes as u64);
                return Ok(env);
            }
            if self.abort.load(Ordering::Acquire) {
                return Err(RuntimeError::Aborted);
            }
            self.check_peers(peers)?;
            let wake = match inner.earliest_pending(context, src, tag) {
                Some(at) if at < deadline => at,
                _ => deadline,
            };
            if self.wait_for(&mut inner, context, tag, Some(wake)) && wake >= deadline {
                // One final scan: the message may have raced the timeout.
                if let Some(env) = inner.pop(context, src, tag) {
                    self.sub_live(env.bytes as u64);
                    return Ok(env);
                }
                return Err(RuntimeError::timeout(
                    format!("message (context={context})"),
                    start.elapsed(),
                    src,
                    tag,
                ));
            }
        }
    }

    /// Returns metadata for the earliest matching envelope without removing
    /// it, or `None` if nothing matches right now.
    pub(crate) fn iprobe(&self, context: u32, src: Src, tag: Tag) -> Option<MessageInfo> {
        let inner = self.inner.lock();
        inner.find(context, src, tag).map(|(key, i)| {
            let e = &inner.buckets[&key].queue[i];
            MessageInfo { src: e.src_local, tag: e.tag, bytes: e.bytes }
        })
    }

    /// Number of messages currently queued (all contexts).
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::Payload;
    use std::thread;

    fn env(src: usize, context: u32, tag: i32, val: u32) -> Envelope {
        Envelope::new(src, src, context, tag, 4, None, Payload::owned(val))
    }

    fn mbox() -> Mailbox {
        Mailbox::new(
            Arc::new(AtomicBool::new(false)),
            Arc::new(Liveness::new(8)),
            Arc::new(Revocations::new()),
        )
    }

    fn val(e: Envelope) -> u32 {
        e.payload.into_owned::<u32>().unwrap().0
    }

    #[test]
    fn fifo_per_sender_and_tag() {
        let m = mbox();
        m.push(env(0, 0, 1, 10));
        m.push(env(0, 0, 1, 20));
        assert_eq!(val(m.take(0, Src::Rank(0), Tag::Value(1), &[]).unwrap()), 10);
        assert_eq!(val(m.take(0, Src::Rank(0), Tag::Value(1), &[]).unwrap()), 20);
    }

    #[test]
    fn tag_selective_receive_skips_nonmatching() {
        let m = mbox();
        m.push(env(0, 0, 1, 10));
        m.push(env(0, 0, 2, 20));
        assert_eq!(val(m.take(0, Src::Rank(0), Tag::Value(2), &[]).unwrap()), 20);
        assert_eq!(val(m.take(0, Src::Rank(0), Tag::Value(1), &[]).unwrap()), 10);
    }

    #[test]
    fn context_isolation() {
        let m = mbox();
        m.push(env(0, 7, 1, 10));
        assert!(m.try_take(0, Src::Any, Tag::Any).is_none());
        assert!(m.try_take(7, Src::Any, Tag::Any).is_some());
    }

    #[test]
    fn any_source_takes_earliest_arrival() {
        let m = mbox();
        m.push(env(3, 0, 1, 30));
        m.push(env(1, 0, 1, 10));
        assert_eq!(val(m.take(0, Src::Any, Tag::Value(1), &[]).unwrap()), 30);
    }

    #[test]
    fn any_tag_takes_earliest_arrival_across_buckets() {
        let m = mbox();
        m.push(env(0, 0, 7, 70));
        m.push(env(0, 0, 3, 30));
        m.push(env(0, 0, 5, 50));
        // Arrival order wins, not tag order or bucket-map iteration order.
        assert_eq!(val(m.take(0, Src::Any, Tag::Any, &[]).unwrap()), 70);
        assert_eq!(val(m.take(0, Src::Any, Tag::Any, &[]).unwrap()), 30);
        assert_eq!(val(m.take(0, Src::Any, Tag::Any, &[]).unwrap()), 50);
    }

    #[test]
    fn take_blocks_until_push() {
        let m = Arc::new(mbox());
        let m2 = m.clone();
        let h = thread::spawn(move || val(m2.take(0, Src::Rank(0), Tag::Value(9), &[]).unwrap()));
        thread::sleep(Duration::from_millis(20));
        m.push(env(0, 0, 9, 99));
        assert_eq!(h.join().unwrap(), 99);
    }

    #[test]
    fn push_to_other_bucket_does_not_satisfy_waiter() {
        let m = Arc::new(mbox());
        let m2 = m.clone();
        let h = thread::spawn(move || val(m2.take(0, Src::Rank(0), Tag::Value(9), &[]).unwrap()));
        thread::sleep(Duration::from_millis(10));
        m.push(env(0, 0, 8, 88)); // different tag: waiter must keep sleeping
        thread::sleep(Duration::from_millis(10));
        m.push(env(0, 0, 9, 99));
        assert_eq!(h.join().unwrap(), 99);
        assert_eq!(m.len(), 1, "tag-8 message still queued");
    }

    #[test]
    fn post_many_delivers_batch_in_order() {
        let m = Arc::new(mbox());
        let m2 = m.clone();
        let h = thread::spawn(move || {
            let a = val(m2.take(0, Src::Rank(0), Tag::Value(1), &[]).unwrap());
            let b = val(m2.take(0, Src::Rank(0), Tag::Value(1), &[]).unwrap());
            let c = val(m2.take(0, Src::Rank(0), Tag::Value(2), &[]).unwrap());
            (a, b, c)
        });
        thread::sleep(Duration::from_millis(10));
        m.post_many([env(0, 0, 1, 1), env(0, 0, 1, 2), env(0, 0, 2, 3)]);
        assert_eq!(h.join().unwrap(), (1, 2, 3));
    }

    #[test]
    fn timeout_fires_when_no_message() {
        let m = mbox();
        let r = m.take_timeout(0, Src::Any, Tag::Any, Duration::from_millis(20), &[]);
        assert!(matches!(r, Err(RuntimeError::Timeout { .. })));
    }

    #[test]
    fn timeout_fires_on_concrete_tag_bucket() {
        let m = mbox();
        m.push(env(0, 0, 1, 10)); // traffic on another bucket must not feed the waiter
        let r = m.take_timeout(0, Src::Rank(0), Tag::Value(2), Duration::from_millis(20), &[]);
        assert!(matches!(r, Err(RuntimeError::Timeout { .. })));
    }

    #[test]
    fn timeout_returns_message_that_arrives_in_time() {
        let m = Arc::new(mbox());
        let m2 = m.clone();
        thread::spawn(move || {
            thread::sleep(Duration::from_millis(10));
            m2.push(env(0, 0, 1, 5));
        });
        let r = m.take_timeout(0, Src::Any, Tag::Any, Duration::from_secs(5), &[]).unwrap();
        assert_eq!(val(r), 5);
    }

    #[test]
    fn abort_wakes_blocked_receiver() {
        let abort = Arc::new(AtomicBool::new(false));
        let m = Arc::new(Mailbox::new(
            abort.clone(),
            Arc::new(Liveness::new(8)),
            Arc::new(Revocations::new()),
        ));
        let m2 = m.clone();
        let h = thread::spawn(move || m2.take(0, Src::Any, Tag::Any, &[]));
        thread::sleep(Duration::from_millis(10));
        abort.store(true, Ordering::Release);
        m.wake_all();
        match h.join().unwrap() {
            Err(e) => assert_eq!(e, RuntimeError::Aborted),
            Ok(_) => panic!("expected abort"),
        }
    }

    #[test]
    fn abort_wakes_concrete_tag_receiver() {
        let abort = Arc::new(AtomicBool::new(false));
        let m = Arc::new(Mailbox::new(
            abort.clone(),
            Arc::new(Liveness::new(8)),
            Arc::new(Revocations::new()),
        ));
        let m2 = m.clone();
        let h = thread::spawn(move || m2.take(3, Src::Rank(1), Tag::Value(5), &[]));
        thread::sleep(Duration::from_millis(10));
        abort.store(true, Ordering::Release);
        m.wake_all();
        assert_eq!(h.join().unwrap().unwrap_err(), RuntimeError::Aborted);
    }

    #[test]
    fn probe_does_not_consume() {
        let m = mbox();
        m.push(env(2, 0, 4, 44));
        let info = m.iprobe(0, Src::Any, Tag::Any).unwrap();
        assert_eq!(info, MessageInfo { src: 2, tag: 4, bytes: 4 });
        assert_eq!(m.len(), 1);
        assert_eq!(val(m.take(0, Src::Rank(2), Tag::Value(4), &[]).unwrap()), 44);
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn dead_peer_unblocks_waiter() {
        let liveness = Arc::new(Liveness::new(4));
        let m = Arc::new(Mailbox::new(
            Arc::new(AtomicBool::new(false)),
            liveness.clone(),
            Arc::new(Revocations::new()),
        ));
        let m2 = m.clone();
        let h = thread::spawn(move || {
            m2.take(0, Src::Rank(1), Tag::Any, &[PeerRef { global: 2, local: 1 }])
        });
        thread::sleep(Duration::from_millis(10));
        liveness.kill(2);
        m.wake_all();
        assert_eq!(h.join().unwrap().unwrap_err(), RuntimeError::PeerDead { rank: 1 });
    }

    #[test]
    fn dead_peer_unblocks_concrete_tag_waiter() {
        let liveness = Arc::new(Liveness::new(4));
        let m = Arc::new(Mailbox::new(
            Arc::new(AtomicBool::new(false)),
            liveness.clone(),
            Arc::new(Revocations::new()),
        ));
        let m2 = m.clone();
        let h = thread::spawn(move || {
            m2.take(0, Src::Rank(1), Tag::Value(6), &[PeerRef { global: 2, local: 1 }])
        });
        thread::sleep(Duration::from_millis(10));
        liveness.kill(2);
        m.wake_all();
        assert_eq!(h.join().unwrap().unwrap_err(), RuntimeError::PeerDead { rank: 1 });
    }

    #[test]
    fn message_sent_before_death_still_drains() {
        let liveness = Arc::new(Liveness::new(4));
        let m = Mailbox::new(
            Arc::new(AtomicBool::new(false)),
            liveness.clone(),
            Arc::new(Revocations::new()),
        );
        m.push(env(1, 0, 5, 77));
        liveness.kill(1);
        // The queued message wins over the dead-peer check...
        let peer = [PeerRef { global: 1, local: 1 }];
        assert_eq!(val(m.take(0, Src::Rank(1), Tag::Value(5), &peer).unwrap()), 77);
        // ...and only then does the death surface.
        assert_eq!(
            m.take_timeout(0, Src::Rank(1), Tag::Value(5), Duration::from_secs(5), &peer)
                .unwrap_err(),
            RuntimeError::PeerDead { rank: 1 }
        );
    }

    #[test]
    fn delayed_envelope_held_until_deliver_at() {
        let m = mbox();
        let at = Instant::now() + Duration::from_millis(40);
        m.push(Envelope::new(0, 0, 0, 1, 4, Some(at), Payload::owned(7u32)));
        assert!(m.try_take(0, Src::Any, Tag::Any).is_none(), "not yet deliverable");
        thread::sleep(Duration::from_millis(60));
        assert_eq!(val(m.try_take(0, Src::Any, Tag::Any).unwrap()), 7);
        // Queue is back to the zero-delayed fast path and stays correct.
        m.push(env(0, 0, 1, 8));
        assert_eq!(val(m.take(0, Src::Any, Tag::Any, &[]).unwrap()), 8);
    }

    #[test]
    fn seq_numbers_are_monotone() {
        let m = mbox();
        m.push(env(0, 0, 0, 0));
        m.push(env(0, 0, 0, 1));
        let a = m.take(0, Src::Any, Tag::Any, &[]).unwrap();
        let b = m.take(0, Src::Any, Tag::Any, &[]).unwrap();
        assert!(a.seq < b.seq);
    }

    #[test]
    fn live_and_peak_bytes_track_queue_occupancy() {
        let m = mbox();
        assert_eq!((m.live_bytes(), m.peak_bytes()), (0, 0));
        m.push(env(0, 0, 1, 10)); // 4 bytes per envelope
        m.post_many([env(0, 0, 1, 20), env(0, 0, 2, 30)]);
        assert_eq!(m.live_bytes(), 12);
        assert_eq!(m.peak_bytes(), 12);
        m.take(0, Src::Any, Tag::Any, &[]).unwrap();
        assert_eq!(m.live_bytes(), 8);
        assert_eq!(m.peak_bytes(), 12, "high-water mark persists after drain");
        m.reset_peak_bytes();
        assert_eq!(m.peak_bytes(), 8, "reset lands on the current live level");
        m.try_take(0, Src::Any, Tag::Any).unwrap();
        m.try_take(0, Src::Any, Tag::Any).unwrap();
        assert_eq!(m.live_bytes(), 0);
    }

    #[test]
    fn drained_buckets_are_garbage_collected() {
        let m = mbox();
        for tag in 0..32 {
            m.push(env(0, 0, tag, tag as u32));
        }
        assert_eq!(m.inner.lock().buckets.len(), 32);
        for tag in 0..32 {
            assert_eq!(val(m.try_take(0, Src::Any, Tag::Value(tag)).unwrap()), tag as u32);
        }
        assert_eq!(m.inner.lock().buckets.len(), 0, "empty waiterless buckets must be dropped");
    }
}
