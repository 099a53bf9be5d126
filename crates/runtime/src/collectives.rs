//! Collective operations over a [`Comm`].
//!
//! All collectives must be invoked by every member of the communicator in
//! the same order. Internal traffic travels on the communicator's
//! *collective* context (`context + 1`) with tags derived from a per-handle
//! operation counter, so collectives can never be confused with user
//! point-to-point traffic or with each other.
//!
//! Algorithms follow the classic implementations: binomial-tree broadcast
//! and reduce, dissemination barrier, ring allgather, reduce+bcast
//! allreduce, pairwise-offset and Bruck all-to-all, and a linear chain
//! scan. Because the runtime's sends are eager (never block), the simple
//! orderings are deadlock-free.
//!
//! Every message owns its value. Where one value must reach several ranks
//! (a broadcast's children, an allgather's ring, a scan's chain), the
//! sender clones it per message and counts each clone against the op.
//!
//! Every collective receive (`coll_take`, `gather`'s root loop, the one
//! `barrier` loop with its optional deadline) goes through the endpoint's
//! receive choke point (see [`crate::comm`]): a match emits `MailboxMatch`
//! and an error return is accounted in both planes, but no fault-plane op
//! is counted — a collective counts its ops once, on the send side.

use std::time::{Duration, Instant};

use crate::comm::Comm;
use crate::envelope::{Envelope, Payload, Src, Tag};
use crate::error::{Result, RuntimeError};
use crate::msgsize::MsgSize;
use crate::stats::{CollOp, TrafficClass};
use crate::tracing::coll_algo;
use mxn_trace::{span, EventId, SpanGuard};

/// Payload-size threshold (bytes) at or below which latency-optimal
/// algorithms (e.g. Bruck for the DCA alltoallv) are preferred over
/// bandwidth-optimal ones. Every member must arrive at the same choice, so
/// selection keys on quantities that are identical across ranks (the
/// uniform payload size of a collective, or an agreed-on maximum).
pub const SMALL_COLLECTIVE_BYTES: usize = 4096;

/// ⌈log₂ p⌉ — the round count of the log-depth collectives, precomputable
/// at span begin because it depends only on the communicator size.
fn ceil_log2(p: usize) -> u64 {
    p.max(1).next_power_of_two().trailing_zeros() as u64
}

impl Comm {
    fn coll_context(&self) -> u32 {
        self.context() + 1
    }

    /// Reserves a tag block for the next collective; `round` indexes within.
    fn next_coll_tag(&self) -> i32 {
        let seq = self.kind.coll_seq.get();
        self.kind.coll_seq.set(seq + 1);
        // 2^12 rounds per op, 2^18 ops before wrap: plenty for both the
        // widest ring collectives and long-running benchmark loops.
        ((seq % (1 << 18)) as i32) << 12
    }

    fn coll_send<T: Send + MsgSize + 'static>(
        &self,
        dst: usize,
        tag: i32,
        value: T,
        op: CollOp,
    ) -> Result<()> {
        let bytes = value.msg_size();
        self.shared.stats().record_coll(op, bytes);
        let payload = Payload::owned(value);
        self.post(dst, self.coll_context(), tag, bytes, payload, TrafficClass::Collective)
    }

    /// Sends a clone of `value`, which the sender keeps, and counts the
    /// clone against `op`.
    fn coll_send_clone<T: Clone + Send + MsgSize + 'static>(
        &self,
        dst: usize,
        tag: i32,
        value: &T,
        op: CollOp,
    ) -> Result<()> {
        self.shared.stats().record_coll_clone(op);
        self.coll_send(dst, tag, value.clone(), op)
    }

    /// One span per collective invocation, opened at entry so the guard
    /// also closes the span on every error return. `args` = `[op, algo,
    /// bytes_hint, rounds]`; all four are deterministic at entry (rounds
    /// depend only on `p`, the bytes hint only on this rank's own input).
    fn coll_span(&self, op: CollOp, algo: u64, bytes: usize, rounds: u64) -> SpanGuard {
        span(EventId::Collective, [op.index() as u64, algo, bytes as u64, rounds])
    }

    /// A collective receive from `src` on the collective context: the
    /// endpoint's choke point without counting an op (collective ops are
    /// counted once, on the send side).
    fn coll_take(&self, src: usize, tag: i32, timeout: Option<Duration>) -> Result<Envelope> {
        self.take(self.coll_context(), Src::Rank(src), Tag::Value(tag), timeout, false)
    }

    fn coll_recv<T: 'static>(&self, src: usize, tag: i32) -> Result<T> {
        let env = self.coll_take(src, tag, None)?;
        self.downcast::<T>(env).map(|(v, _)| v)
    }

    /// Blocks until every member has entered the barrier.
    ///
    /// Dissemination algorithm: ⌈log₂ p⌉ rounds of pairwise notifications.
    pub fn barrier(&self) -> Result<()> {
        self.barrier_until(None)
    }

    /// [`Comm::barrier`] with a deadline over the *whole* operation: if any
    /// round's notification fails to arrive before `timeout` elapses, the
    /// call fails with [`RuntimeError::Timeout`] (or
    /// [`RuntimeError::PeerDead`] when the awaited rank died) instead of
    /// hanging. The primitive for robust phase synchronization between
    /// coupled components.
    pub fn barrier_timeout(&self, timeout: Duration) -> Result<()> {
        self.barrier_until(Some(Instant::now() + timeout))
    }

    fn barrier_until(&self, deadline: Option<Instant>) -> Result<()> {
        let p = self.size();
        let _span = self.coll_span(CollOp::Barrier, coll_algo::DISSEMINATION, 0, ceil_log2(p));
        let r = self.rank();
        let base = self.next_coll_tag();
        let mut round = 0i32;
        let mut dist = 1usize;
        while dist < p {
            let dst = (r + dist) % p;
            let src = (r + p - dist) % p;
            self.coll_send(dst, base + round, (), CollOp::Barrier)?;
            // Each round waits for what is left of the deadline.
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            self.downcast::<()>(self.coll_take(src, base + round, left)?)?;
            dist <<= 1;
            round += 1;
        }
        Ok(())
    }

    /// Broadcasts `root`'s value to every member. `root` must pass
    /// `Some(value)`; all other ranks pass `None` and receive the value.
    ///
    /// Binomial tree: ⌈log₂ p⌉ hops on the critical path and exactly p−1
    /// messages, each a clone of the sender's value.
    pub fn bcast<T: Clone + Send + MsgSize + 'static>(
        &self,
        root: usize,
        value: Option<T>,
    ) -> Result<T> {
        let bytes = value.as_ref().map_or(0, MsgSize::msg_size);
        let rounds = ceil_log2(self.size());
        let _span = self.coll_span(CollOp::Bcast, coll_algo::BINOMIAL, bytes, rounds);
        self.bcast_as(root, value, CollOp::Bcast)
    }

    fn bcast_as<T: Clone + Send + MsgSize + 'static>(
        &self,
        root: usize,
        value: Option<T>,
        op: CollOp,
    ) -> Result<T> {
        let p = self.size();
        if root >= p {
            return Err(RuntimeError::InvalidRank { rank: root, size: p });
        }
        let base = self.next_coll_tag();
        let rel = (self.rank() + p - root) % p;

        let mut value = if rel == 0 {
            Some(value.ok_or_else(|| RuntimeError::CollectiveMismatch {
                detail: "bcast root passed None".into(),
            })?)
        } else {
            None
        };

        // Receive phase: find the bit that identifies my parent.
        let mut mask = 1usize;
        while mask < p {
            if rel & mask != 0 {
                let parent = ((rel - mask) + root) % p;
                value = Some(self.coll_recv::<T>(parent, base)?);
                break;
            }
            mask <<= 1;
        }
        // Send phase: a clone to each child below my identifying bit.
        let v = value.expect("bcast value present after receive phase");
        mask >>= 1;
        while mask > 0 {
            if rel & mask == 0 && rel + mask < p {
                let child = (rel + mask + root) % p;
                self.coll_send_clone(child, base, &v, op)?;
            }
            mask >>= 1;
        }
        Ok(v)
    }

    /// Gathers one value from every member at `root` (rank order).
    /// Non-roots receive `None`.
    pub fn gather<T: Send + MsgSize + 'static>(
        &self,
        root: usize,
        value: T,
    ) -> Result<Option<Vec<T>>> {
        let p = self.size();
        let _span =
            self.coll_span(CollOp::Gather, coll_algo::LINEAR, value.msg_size(), (p as u64) - 1);
        if root >= p {
            return Err(RuntimeError::InvalidRank { rank: root, size: p });
        }
        let base = self.next_coll_tag();
        if self.rank() == root {
            let mut out: Vec<Option<T>> = (0..p).map(|_| None).collect();
            out[root] = Some(value);
            for _ in 0..p - 1 {
                let env =
                    self.take(self.coll_context(), Src::Any, Tag::Value(base), None, false)?;
                let (v, info) = self.downcast::<T>(env)?;
                out[info.src] = Some(v);
            }
            Ok(Some(out.into_iter().map(|o| o.expect("every rank contributed")).collect()))
        } else {
            self.coll_send(root, base, value, CollOp::Gather)?;
            Ok(None)
        }
    }

    /// Gathers one value from every member at *every* member.
    ///
    /// Ring: p−1 steps per rank; at each step a member keeps the block it
    /// received last and forwards a clone of it.
    pub fn allgather<T: Clone + Send + MsgSize + 'static>(&self, value: T) -> Result<Vec<T>> {
        const OP: CollOp = CollOp::Allgather;
        let p = self.size();
        let _span = self.coll_span(OP, coll_algo::RING, value.msg_size(), (p as u64) - 1);
        let r = self.rank();
        let base = self.next_coll_tag();
        let mut out: Vec<Option<T>> = (0..p).map(|_| None).collect();
        out[r] = Some(value);

        let next = (r + 1) % p;
        let prev = (r + p - 1) % p;
        // At step s we forward the block that originated at (r - s) mod p.
        for s in 0..p - 1 {
            let send_origin = (r + p - s) % p;
            let block = out[send_origin].as_ref().expect("block present by induction");
            self.coll_send_clone(next, base + s as i32, block, OP)?;
            let recv_origin = (prev + p - s) % p;
            out[recv_origin] = Some(self.coll_recv::<T>(prev, base + s as i32)?);
        }
        Ok(out.into_iter().map(|o| o.expect("ring delivered all blocks")).collect())
    }

    /// Distributes `root`'s `values` (one per member, rank order); returns
    /// this member's element. Non-roots pass `None`.
    pub fn scatter<T: Send + MsgSize + 'static>(
        &self,
        root: usize,
        values: Option<Vec<T>>,
    ) -> Result<T> {
        let p = self.size();
        let bytes = values.as_ref().map_or(0, MsgSize::msg_size);
        let _span = self.coll_span(CollOp::Scatter, coll_algo::LINEAR, bytes, (p as u64) - 1);
        if root >= p {
            return Err(RuntimeError::InvalidRank { rank: root, size: p });
        }
        let base = self.next_coll_tag();
        if self.rank() == root {
            let values = values.ok_or_else(|| RuntimeError::CollectiveMismatch {
                detail: "scatter root passed None".into(),
            })?;
            if values.len() != p {
                return Err(RuntimeError::CollectiveMismatch {
                    detail: format!("scatter got {} values for {} ranks", values.len(), p),
                });
            }
            let mut mine = None;
            for (dst, v) in values.into_iter().enumerate() {
                if dst == root {
                    mine = Some(v);
                } else {
                    self.coll_send(dst, base, v, CollOp::Scatter)?;
                }
            }
            Ok(mine.expect("root's own element"))
        } else {
            self.coll_recv::<T>(root, base)
        }
    }

    /// Each member provides one value per peer; returns one value from each
    /// peer. `values[i]` goes to rank `i`; result `[i]` came from rank `i`.
    ///
    /// Pairwise-offset exchange: p−1 rounds with distinct partners — the
    /// bandwidth-friendly choice for large blocks. For many small blocks,
    /// [`Comm::alltoall_bruck`] does the same exchange in ⌈log₂ p⌉ rounds.
    pub fn alltoall<T: Send + MsgSize + 'static>(&self, values: Vec<T>) -> Result<Vec<T>> {
        let p = self.size();
        let _span = self.coll_span(
            CollOp::Alltoall,
            coll_algo::PAIRWISE,
            values.msg_size(),
            (p as u64).saturating_sub(1),
        );
        let r = self.rank();
        if values.len() != p {
            return Err(RuntimeError::CollectiveMismatch {
                detail: format!("alltoall got {} values for {} ranks", values.len(), p),
            });
        }
        let base = self.next_coll_tag();
        let mut out: Vec<Option<T>> = (0..p).map(|_| None).collect();
        let mut values: Vec<Option<T>> = values.into_iter().map(Some).collect();
        out[r] = values[r].take();
        for offset in 1..p {
            let dst = (r + offset) % p;
            let src = (r + p - offset) % p;
            let block = values[dst].take().expect("each peer element used once");
            self.coll_send(dst, base, block, CollOp::Alltoall)?;
            out[src] = Some(self.coll_recv::<T>(src, base)?);
        }
        Ok(out.into_iter().map(|o| o.expect("pairwise exchange complete")).collect())
    }

    /// Bruck all-to-all: the same exchange as [`Comm::alltoall`] in
    /// ⌈log₂ p⌉ rounds instead of p−1, at the cost of each block travelling
    /// up to ⌈log₂ p⌉ hops. Latency-optimal for small blocks at large p;
    /// blocks are moved between rounds, never cloned.
    pub fn alltoall_bruck<T: Send + MsgSize + 'static>(&self, values: Vec<T>) -> Result<Vec<T>> {
        const OP: CollOp = CollOp::Alltoall;
        let p = self.size();
        let _span = self.coll_span(OP, coll_algo::BRUCK, values.msg_size(), ceil_log2(p));
        let r = self.rank();
        if values.len() != p {
            return Err(RuntimeError::CollectiveMismatch {
                detail: format!("alltoall got {} values for {} ranks", values.len(), p),
            });
        }
        if p == 1 {
            return Ok(values);
        }
        let base = self.next_coll_tag();
        // Local rotation: slot i holds the block destined for rank (r+i)%p.
        let mut staged: Vec<Option<T>> = values.into_iter().map(Some).collect();
        let mut slots: Vec<Option<T>> = (0..p).map(|i| staged[(r + i) % p].take()).collect();

        // Round j moves every slot with bit j set forward by 2^j ranks; a
        // block at slot i therefore travels a total distance of i, landing
        // at its destination with all bits consumed.
        let mut k = 1usize;
        let mut round = 0i32;
        while k < p {
            let dst = (r + k) % p;
            let src = (r + p - k) % p;
            let idxs: Vec<usize> = (0..p).filter(|i| i & k != 0).collect();
            let outgoing: Vec<T> =
                idxs.iter().map(|&i| slots[i].take().expect("slot occupied")).collect();
            self.coll_send(dst, base + round, outgoing, OP)?;
            let incoming: Vec<T> = self.coll_recv(src, base + round)?;
            if incoming.len() != idxs.len() {
                return Err(RuntimeError::CollectiveMismatch {
                    detail: format!(
                        "bruck round {round}: got {} blocks, expected {}",
                        incoming.len(),
                        idxs.len()
                    ),
                });
            }
            for (&i, v) in idxs.iter().zip(incoming) {
                slots[i] = Some(v);
            }
            k <<= 1;
            round += 1;
        }
        // Inverse rotation: slot i now holds the block from rank (r-i)%p.
        let mut out: Vec<Option<T>> = (0..p).map(|_| None).collect();
        for (i, slot) in slots.iter_mut().enumerate() {
            out[(r + p - i) % p] = slot.take();
        }
        Ok(out.into_iter().map(|o| o.expect("bruck delivered all blocks")).collect())
    }

    /// Variable-size all-to-all: `chunks[i]` (possibly empty) goes to rank
    /// `i`; returns the chunks received from each rank. This is the
    /// primitive DCA's redistribution layer is built on. Callers that can
    /// agree on a size bound across ranks may use [`Comm::alltoall_bruck`]
    /// directly for the small-message regime.
    pub fn alltoallv<T: Send + MsgSize + 'static>(
        &self,
        chunks: Vec<Vec<T>>,
    ) -> Result<Vec<Vec<T>>> {
        self.alltoall(chunks)
    }

    /// Reduces all members' values to `root` with the associative `op`
    /// (applied as `op(&mut acc, incoming)`); non-roots receive `None`.
    ///
    /// Binomial tree combine; `op` is applied in deterministic child order
    /// and partial results move up the tree without cloning.
    pub fn reduce<T, F>(&self, root: usize, value: T, op: F) -> Result<Option<T>>
    where
        T: Send + MsgSize + 'static,
        F: Fn(&mut T, T),
    {
        let _span = self.coll_span(
            CollOp::Reduce,
            coll_algo::BINOMIAL,
            value.msg_size(),
            ceil_log2(self.size()),
        );
        self.reduce_as(root, value, op, CollOp::Reduce)
    }

    fn reduce_as<T, F>(&self, root: usize, value: T, op: F, coll: CollOp) -> Result<Option<T>>
    where
        T: Send + MsgSize + 'static,
        F: Fn(&mut T, T),
    {
        let p = self.size();
        if root >= p {
            return Err(RuntimeError::InvalidRank { rank: root, size: p });
        }
        let base = self.next_coll_tag();
        let rel = (self.rank() + p - root) % p;
        let mut acc = value;
        let mut mask = 1usize;
        loop {
            if rel & mask != 0 {
                // I have a parent: send my partial result up.
                let parent = ((rel - mask) + root) % p;
                self.coll_send(parent, base, acc, coll)?;
                return Ok(None);
            }
            if rel + mask < p {
                let child = (rel + mask + root) % p;
                let incoming = self.coll_recv::<T>(child, base)?;
                op(&mut acc, incoming);
            }
            mask <<= 1;
            if mask >= p {
                break;
            }
        }
        Ok(Some(acc))
    }

    /// Every member receives `op` folded over all members' values.
    ///
    /// One algorithm at every size: binomial reduce to rank 0 — partials
    /// are moved up the tree and folded in place — then the binomial
    /// [`Comm::bcast`] of the result: 2(p−1) messages over 2⌈log₂ p⌉
    /// rounds, and p−1 clones, all in the broadcast. Recursive doubling,
    /// which this replaced, sends and clones p·⌈log₂ p⌉ partials, which
    /// costs more in this runtime, where per-message cost dominates.
    pub fn allreduce<T, F>(&self, value: T, op: F) -> Result<T>
    where
        T: Clone + Send + MsgSize + 'static,
        F: Fn(&mut T, T),
    {
        let p = self.size();
        if p == 1 {
            return Ok(value);
        }
        let bytes = value.msg_size();
        let _span =
            self.coll_span(CollOp::Allreduce, coll_algo::REDUCE_BCAST, bytes, 2 * ceil_log2(p));
        let reduced = self.reduce_as(0, value, op, CollOp::Allreduce)?;
        self.bcast_as(0, reduced, CollOp::Allreduce)
    }

    /// Inclusive prefix reduction: rank r receives `op` applied to the
    /// values of ranks `0..=r`. Linear chain.
    pub fn scan<T, F>(&self, value: T, op: F) -> Result<T>
    where
        T: Clone + Send + MsgSize + 'static,
        F: Fn(&mut T, T),
    {
        let p = self.size();
        let _span = self.coll_span(
            CollOp::Scan,
            coll_algo::LINEAR,
            value.msg_size(),
            (p as u64).saturating_sub(1),
        );
        let r = self.rank();
        let base = self.next_coll_tag();
        let mut acc = value;
        if r > 0 {
            let prefix = self.coll_recv::<T>(r - 1, base)?;
            let mine = std::mem::replace(&mut acc, prefix);
            op(&mut acc, mine);
        }
        if r + 1 < p {
            self.coll_send_clone(r + 1, base, &acc, CollOp::Scan)?;
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{RunOpts, World};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn barrier_orders_phases() {
        // Every rank increments before the barrier; after it, all see n.
        for p in [1, 2, 3, 4, 7, 8] {
            let counter = Arc::new(AtomicUsize::new(0));
            let c2 = counter.clone();
            World::run(p, move |proc| {
                let c = proc.world();
                c2.fetch_add(1, Ordering::SeqCst);
                c.barrier().unwrap();
                assert_eq!(c2.load(Ordering::SeqCst), p);
            });
        }
    }

    #[test]
    fn barrier_timeout_passes_when_all_arrive() {
        World::run(4, |proc| {
            proc.world().barrier_timeout(Duration::from_secs(5)).unwrap();
        });
    }

    #[test]
    fn barrier_timeout_detects_missing_rank() {
        // Rank 0 never enters the barrier; everyone else must time out
        // rather than hang.
        World::run(3, |proc| {
            let c = proc.world();
            if c.rank() != 0 {
                let e = c.barrier_timeout(Duration::from_millis(50)).unwrap_err();
                assert!(e.is_failure_detection(), "got {e}");
            }
        });
    }

    #[test]
    fn bcast_from_every_root() {
        for p in [1, 2, 3, 5, 8] {
            for root in 0..p {
                World::run(p, move |proc| {
                    let c = proc.world();
                    let v = if c.rank() == root { Some(vec![root as u64; 3]) } else { None };
                    let got = c.bcast(root, v).unwrap();
                    assert_eq!(got, vec![root as u64; 3]);
                });
            }
        }
    }

    #[test]
    fn bcast_clones_once_per_message() {
        let stats = World::run_opts(8, RunOpts::default(), |proc| {
            let c = proc.world();
            let v = if c.rank() == 0 { Some(vec![3.25f64; 64]) } else { None };
            assert_eq!(c.bcast(0, v).unwrap(), vec![3.25; 64]);
        })
        .stats;
        let bcast = stats.coll(crate::stats::CollOp::Bcast);
        assert_eq!(bcast.messages, 7, "bcast sends exactly p-1 messages");
        assert_eq!(bcast.payload_clones, 7, "each message owns a clone");
    }

    #[test]
    fn bcast_invalid_root() {
        World::run(2, |p| {
            let c = p.world();
            assert!(matches!(
                c.bcast::<u8>(9, Some(0)),
                Err(RuntimeError::InvalidRank { rank: 9, .. })
            ));
        });
    }

    #[test]
    fn gather_collects_in_rank_order() {
        for p in [1, 2, 4, 6] {
            World::run(p, move |proc| {
                let c = proc.world();
                let got = c.gather(0, c.rank() as u32 * 10).unwrap();
                if c.rank() == 0 {
                    let expect: Vec<u32> = (0..p as u32).map(|r| r * 10).collect();
                    assert_eq!(got.unwrap(), expect);
                } else {
                    assert!(got.is_none());
                }
            });
        }
    }

    #[test]
    fn allgather_ring() {
        for p in [1, 2, 3, 4, 8] {
            World::run(p, move |proc| {
                let c = proc.world();
                let got = c.allgather(format!("r{}", c.rank())).unwrap();
                let expect: Vec<String> = (0..p).map(|r| format!("r{r}")).collect();
                assert_eq!(got, expect);
            });
        }
    }

    #[test]
    fn allgather_ring_clones_once_per_message() {
        let stats = World::run_opts(4, RunOpts::default(), |proc| {
            let c = proc.world();
            let got = c.allgather(vec![c.rank() as u32; 8]).unwrap();
            for (r, block) in got.iter().enumerate() {
                assert_eq!(*block, vec![r as u32; 8]);
            }
        })
        .stats;
        let ag = stats.coll(crate::stats::CollOp::Allgather);
        assert_eq!(ag.messages, 4 * 3, "ring sends p-1 messages per rank");
        assert_eq!(ag.payload_clones, 4 * 3);
    }

    #[test]
    fn scatter_distributes() {
        for root in 0..3 {
            World::run(3, move |proc| {
                let c = proc.world();
                let v = if c.rank() == root { Some(vec![10u8, 20, 30]) } else { None };
                assert_eq!(c.scatter(root, v).unwrap(), (c.rank() as u8 + 1) * 10);
            });
        }
    }

    #[test]
    fn scatter_wrong_count_errors() {
        World::run(2, |p| {
            let c = p.world();
            if c.rank() == 0 {
                let e = c.scatter(0, Some(vec![1u8])).unwrap_err();
                assert!(matches!(e, RuntimeError::CollectiveMismatch { .. }));
            }
            // Rank 1 would block forever; don't call on rank 1.
        });
    }

    #[test]
    fn alltoall_transpose() {
        for p in [1, 2, 3, 5] {
            World::run(p, move |proc| {
                let c = proc.world();
                let vals: Vec<u64> = (0..p).map(|d| (c.rank() * 100 + d) as u64).collect();
                let got = c.alltoall(vals).unwrap();
                let expect: Vec<u64> = (0..p).map(|s| (s * 100 + c.rank()) as u64).collect();
                assert_eq!(got, expect);
            });
        }
    }

    #[test]
    fn alltoall_bruck_matches_pairwise() {
        for p in [1, 2, 3, 4, 5, 6, 7, 8] {
            World::run(p, move |proc| {
                let c = proc.world();
                let vals: Vec<u64> = (0..p).map(|d| (c.rank() * 100 + d) as u64).collect();
                let got = c.alltoall_bruck(vals).unwrap();
                let expect: Vec<u64> = (0..p).map(|s| (s * 100 + c.rank()) as u64).collect();
                assert_eq!(got, expect);
            });
        }
    }

    #[test]
    fn alltoall_bruck_uses_logarithmic_rounds() {
        let stats = World::run_opts(8, RunOpts::default(), |proc| {
            let c = proc.world();
            let vals: Vec<u64> = (0..8).map(|d| (c.rank() * 10 + d) as u64).collect();
            c.alltoall_bruck(vals).unwrap();
        })
        .stats;
        // ceil(log2 8) = 3 bundled messages per rank, vs 7 pairwise.
        assert_eq!(stats.coll(crate::stats::CollOp::Alltoall).messages, 8 * 3);
    }

    #[test]
    fn alltoallv_uneven_chunks() {
        World::run(3, |proc| {
            let c = proc.world();
            let r = c.rank();
            // Rank r sends r copies of its rank id to each peer.
            let chunks: Vec<Vec<usize>> = (0..3).map(|_| vec![r; r]).collect();
            let got = c.alltoallv(chunks).unwrap();
            for (s, chunk) in got.iter().enumerate() {
                assert_eq!(chunk, &vec![s; s]);
            }
        });
    }

    #[test]
    fn reduce_sum_every_root() {
        for p in [1, 2, 3, 4, 8] {
            for root in 0..p {
                World::run(p, move |proc| {
                    let c = proc.world();
                    let got = c.reduce(root, c.rank() as u64 + 1, |a, b| *a += b).unwrap();
                    if c.rank() == root {
                        assert_eq!(got.unwrap(), (p * (p + 1) / 2) as u64);
                    } else {
                        assert!(got.is_none());
                    }
                });
            }
        }
    }

    #[test]
    fn allreduce_max() {
        World::run(5, |proc| {
            let c = proc.world();
            let got = c.allreduce(c.rank() as i64 * 7, |a, b| *a = (*a).max(b)).unwrap();
            assert_eq!(got, 28);
        });
    }

    #[test]
    fn allreduce_finds_where_the_maximum_lives() {
        World::run(4, |p| {
            let c = p.world();
            // Who holds the largest value of (rank*7 mod 5)? Ties go to the
            // smaller rank, as MPI_MAXLOC breaks them.
            let mine = ((c.rank() * 7) % 5) as f64;
            let maxloc = |acc: &mut (f64, usize), inc: (f64, usize)| {
                if inc.0 > acc.0 || (inc.0 == acc.0 && inc.1 < acc.1) {
                    *acc = inc;
                }
            };
            let (val, who) = c.allreduce((mine, c.rank()), maxloc).unwrap();
            assert_eq!(val, 4.0);
            assert_eq!(who, 2, "rank 2 holds 14 mod 5 = 4");
        });
    }

    #[test]
    fn allreduce_small_and_large_payloads_agree() {
        // Every payload size takes reduce+bcast; both a scalar and a bulk
        // vector must produce the fold of every rank's value, at every size
        // (power of two or not).
        for p in [1, 2, 3, 4, 5, 6, 7, 8, 9] {
            World::run(p, move |proc| {
                let c = proc.world();
                let r = c.rank() as u64;
                let small = c.allreduce(r + 1, |a, b| *a += b).unwrap();
                assert_eq!(small, (p * (p + 1) / 2) as u64, "scalar at p={p}");
                let big = c
                    .allreduce(vec![r as f64; 1024], |a, b| {
                        for (x, y) in a.iter_mut().zip(b) {
                            *x += y;
                        }
                    })
                    .unwrap();
                let expect = (p * (p - 1) / 2) as f64;
                assert!(big.iter().all(|&x| x == expect), "bulk at p={p}");
            });
        }
    }

    #[test]
    fn allreduce_message_complexity_and_clones() {
        // Reduce (p-1 moved partials) + bcast (p-1 clones of the result):
        // 2(p-1) messages, p-1 clones.
        let stats = World::run_opts(8, RunOpts::default(), |proc| {
            proc.world().allreduce(1u64, |a, b| *a += b).unwrap();
        })
        .stats;
        let cell = stats.coll(crate::stats::CollOp::Allreduce);
        assert_eq!(cell.messages, 2 * (8 - 1));
        assert_eq!(cell.payload_clones, 8 - 1);
    }

    /// Message and byte counts per collective, from each algorithm's shape:
    /// dissemination barrier p·⌈log₂ p⌉ empty messages, binomial bcast and
    /// root gather p−1, ring allgather and pairwise alltoall p(p−1),
    /// reduce+bcast allreduce 2(p−1), and a 3-way multicast 3.
    #[test]
    fn collective_traffic_follows_the_algorithms() {
        use crate::stats::CollOp;
        const B: u64 = 32; // a `Vec<u64>` of four
        for p in [1usize, 2, 5, 16] {
            let stats = World::run_opts(p, RunOpts::default(), |proc| {
                let c = proc.world();
                let r = c.rank();
                c.barrier().unwrap();
                c.bcast(0, (r == 0).then(|| vec![1u64; 4])).unwrap();
                c.gather(0, vec![2u64; 4]).unwrap();
                c.allgather(vec![3u64; 4]).unwrap();
                c.alltoall((0..c.size()).map(|_| vec![4u64; 4]).collect()).unwrap();
                c.allreduce(vec![5u64; 4], |a, b| a[0] += b[0]).unwrap();
                if r == 0 {
                    let dsts: Vec<usize> = (1..=3).map(|d| d % c.size()).collect();
                    c.multicast(&dsts, 6, vec![6u64; 4]).unwrap();
                }
                let mine = (1..=3).filter(|d| d % c.size() == r).count();
                for _ in 0..mine {
                    c.recv::<Vec<u64>>(0, 6).unwrap();
                }
            })
            .stats;
            let n = p as u64;
            let log = n.next_power_of_two().trailing_zeros() as u64;
            let expect = [
                (CollOp::Barrier, n * log, 0),
                (CollOp::Bcast, n - 1, B),
                (CollOp::Gather, n - 1, B),
                (CollOp::Allgather, n * (n - 1), B),
                (CollOp::Alltoall, n * (n - 1), B),
                (CollOp::Allreduce, 2 * (n - 1), B),
            ];
            for (op, messages, bytes) in expect {
                let got = stats.coll(op);
                assert_eq!((got.messages, got.bytes), (messages, messages * bytes), "{op:?} p={p}");
            }
            assert_eq!((stats.p2p_messages, stats.p2p_bytes), (3, 3 * B), "multicast p={p}");
        }
    }

    #[test]
    fn scan_prefix_sums() {
        World::run(6, |proc| {
            let c = proc.world();
            let got = c.scan(c.rank() as u64 + 1, |a, b| *a += b).unwrap();
            let r = c.rank() as u64 + 1;
            assert_eq!(got, r * (r + 1) / 2);
        });
    }

    #[test]
    fn collectives_back_to_back_do_not_cross_talk() {
        World::run(4, |proc| {
            let c = proc.world();
            for i in 0..20u64 {
                let s = c.allreduce(i, |a, b| *a += b).unwrap();
                assert_eq!(s, i * 4);
                let g = c.allgather(i + c.rank() as u64).unwrap();
                assert_eq!(g, (0..4).map(|r| i + r).collect::<Vec<_>>());
            }
        });
    }

    #[test]
    fn collectives_on_subcommunicator() {
        World::run(6, |proc| {
            let c = proc.world();
            let sub = c.split((c.rank() % 2) as i64, 0).unwrap().unwrap();
            let sum: usize = sub.allreduce(c.rank(), |a, b| *a += b).unwrap();
            let expect = if c.rank() % 2 == 0 { 2 + 4 } else { 1 + 3 + 5 };
            assert_eq!(sum, expect);
        });
    }

    #[test]
    fn collective_traffic_is_classified() {
        let stats = World::run_opts(4, RunOpts::default(), |proc| {
            proc.world().barrier().unwrap();
        })
        .stats;
        assert_eq!(stats.p2p_messages, 0);
        assert!(stats.collective_messages > 0);
        // Per-op attribution agrees with the aggregate.
        let barrier = stats.coll(crate::stats::CollOp::Barrier);
        assert_eq!(barrier.messages, stats.collective_messages);
        assert_eq!(barrier.messages, 4 * 2, "dissemination: ceil(log2 4) rounds per rank");
    }
}
