//! Collective operations over a [`Comm`].
//!
//! All collectives must be invoked by every member of the communicator in
//! the same order. Internal traffic travels on the communicator's
//! *collective* context (`context + 1`) with tags derived from a per-handle
//! operation counter, so collectives can never be confused with user
//! point-to-point traffic or with each other.
//!
//! Algorithms follow the classic implementations: binomial-tree broadcast
//! and reduce, dissemination barrier, ring allgather, recursive-doubling
//! allreduce (with a reduce+bcast path for large payloads), recursive-halving
//! reduce-scatter, pairwise-offset and Bruck all-to-all, and a linear chain
//! scan. Because the runtime's sends are eager (never block), the simple
//! orderings are deadlock-free.
//!
//! Broadcast-shaped collectives move payloads as [`crate::Payload::Shared`]
//! envelopes: the value is allocated once (`Arc::new`) and every hop forwards
//! another handle, so a p-rank broadcast performs O(1) payload allocations.
//! The `*_shared` variants hand that `Arc` straight to the caller; the owned
//! variants unwrap it copy-on-write.
//!
//! Every collective receive (`coll_take`, `gather`'s root loop, the one
//! `barrier` loop with its optional deadline) goes through the endpoint's
//! receive choke point (see [`crate::comm`]): a match emits `MailboxMatch`
//! and an error return is accounted in both planes, but no fault-plane op
//! is counted — a collective counts its ops once, on the send side.

use std::sync::Arc;
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

    /// Forwards a shared handle: no payload copy, whatever the fan-out.
    fn coll_send_shared<T: Send + Sync + Clone + 'static>(
        &self,
        dst: usize,
        tag: i32,
        value: Arc<T>,
        bytes: usize,
        op: CollOp,
    ) -> Result<()> {
        self.shared.stats().record_coll(op, bytes);
        let payload = Payload::shared(value);
        self.post(dst, self.coll_context(), tag, bytes, payload, TrafficClass::Collective)
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

    fn coll_recv_shared<T: Send + Sync + 'static>(&self, src: usize, tag: i32) -> Result<Arc<T>> {
        let env = self.coll_take(src, tag, None)?;
        self.downcast_shared::<T>(env).map(|(v, _)| v)
    }

    /// Copy-on-write unwrap of a collective result, attributing any forced
    /// deep clone to `op`.
    fn unwrap_cow<T: Clone>(&self, arc: Arc<T>, op: CollOp) -> T {
        match Arc::try_unwrap(arc) {
            Ok(v) => v,
            Err(arc) => {
                self.shared.stats().record_coll_clones(op, 1);
                (*arc).clone()
            }
        }
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
    /// Binomial tree over one shared payload: ⌈log₂ p⌉ hops on the critical
    /// path, exactly p−1 messages, and a single payload allocation
    /// regardless of p. Each receiver unwraps copy-on-write: leaves get the
    /// value without any copy once their subtree's handles drop.
    pub fn bcast<T: Clone + Send + Sync + MsgSize + 'static>(
        &self,
        root: usize,
        value: Option<T>,
    ) -> Result<T> {
        let bytes = value.as_ref().map_or(0, MsgSize::msg_size);
        let _span = self.coll_span(
            CollOp::Bcast,
            coll_algo::BINOMIAL_SHARED,
            bytes,
            ceil_log2(self.size()),
        );
        let arc = self.bcast_shared_as(root, value, CollOp::Bcast)?;
        Ok(self.unwrap_cow(arc, CollOp::Bcast))
    }

    /// The zero-clone broadcast: like [`Comm::bcast`], but every member
    /// receives an `Arc` handle to the *same* allocation — no payload is
    /// ever deep-copied, whatever the communicator size.
    pub fn bcast_shared<T: Clone + Send + Sync + MsgSize + 'static>(
        &self,
        root: usize,
        value: Option<T>,
    ) -> Result<Arc<T>> {
        let bytes = value.as_ref().map_or(0, MsgSize::msg_size);
        let _span = self.coll_span(
            CollOp::Bcast,
            coll_algo::BINOMIAL_SHARED,
            bytes,
            ceil_log2(self.size()),
        );
        self.bcast_shared_as(root, value, CollOp::Bcast)
    }

    fn bcast_shared_as<T: Clone + Send + Sync + MsgSize + 'static>(
        &self,
        root: usize,
        value: Option<T>,
        op: CollOp,
    ) -> Result<Arc<T>> {
        let p = self.size();
        if root >= p {
            return Err(RuntimeError::InvalidRank { rank: root, size: p });
        }
        let base = self.next_coll_tag();
        let rel = (self.rank() + p - root) % p;

        let mut value: Option<Arc<T>> = if rel == 0 {
            let v = value.ok_or_else(|| RuntimeError::CollectiveMismatch {
                detail: "bcast root passed None".into(),
            })?;
            // The broadcast's single payload allocation.
            self.shared.stats().record_coll_allocs(op, 1);
            Some(Arc::new(v))
        } else {
            None
        };

        // Receive phase: find the bit that identifies my parent.
        let mut mask = 1usize;
        while mask < p {
            if rel & mask != 0 {
                let parent = ((rel - mask) + root) % p;
                value = Some(self.coll_recv_shared::<T>(parent, base)?);
                break;
            }
            mask <<= 1;
        }
        // Send phase: forward handles to children below my identifying bit.
        let v = value.expect("bcast value present after receive phase");
        let bytes = v.msg_size();
        mask >>= 1;
        while mask > 0 {
            if rel & mask == 0 && rel + mask < p {
                let child = (rel + mask + root) % p;
                self.coll_send_shared(child, base, Arc::clone(&v), bytes, op)?;
            }
            mask >>= 1;
        }
        Ok(v)
    }

    /// Clone-per-child broadcast over the same binomial tree, retained as
    /// the baseline the zero-clone path is compared against (see the
    /// `runtime_collectives` bench): identical message count, but every
    /// parent deep-copies the payload once per child — O(p) copies total,
    /// serialized on the interior ranks.
    pub fn bcast_cloning<T: Clone + Send + MsgSize + 'static>(
        &self,
        root: usize,
        value: Option<T>,
    ) -> Result<T> {
        let p = self.size();
        let bytes = value.as_ref().map_or(0, MsgSize::msg_size);
        let _span = self.coll_span(CollOp::Bcast, coll_algo::BINOMIAL_CLONING, bytes, ceil_log2(p));
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

        let mut mask = 1usize;
        while mask < p {
            if rel & mask != 0 {
                let parent = ((rel - mask) + root) % p;
                value = Some(self.coll_recv::<T>(parent, base)?);
                break;
            }
            mask <<= 1;
        }
        let v = value.expect("bcast value present after receive phase");
        mask >>= 1;
        while mask > 0 {
            if rel & mask == 0 && rel + mask < p {
                let child = (rel + mask + root) % p;
                self.shared.stats().record_coll_clones(CollOp::Bcast, 1);
                self.coll_send(child, base, v.clone(), CollOp::Bcast)?;
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
    /// Ring over shared envelopes: p−1 steps per rank, each member forwards
    /// a *handle* to the block it just received, so every block is allocated
    /// exactly once however many ranks end up holding it. The owned result
    /// unwraps each block copy-on-write.
    pub fn allgather<T: Clone + Send + Sync + MsgSize + 'static>(
        &self,
        value: T,
    ) -> Result<Vec<T>> {
        let _span = self.coll_span(
            CollOp::Allgather,
            coll_algo::RING,
            value.msg_size(),
            (self.size() as u64) - 1,
        );
        let shared = self.allgather_shared_inner(value)?;
        Ok(shared.into_iter().map(|arc| self.unwrap_cow(arc, CollOp::Allgather)).collect())
    }

    /// The zero-clone allgather: every member receives `Arc` handles to the
    /// p shared block allocations (one per contributor).
    pub fn allgather_shared<T: Clone + Send + Sync + MsgSize + 'static>(
        &self,
        value: T,
    ) -> Result<Vec<Arc<T>>> {
        let _span = self.coll_span(
            CollOp::Allgather,
            coll_algo::RING,
            value.msg_size(),
            (self.size() as u64) - 1,
        );
        self.allgather_shared_inner(value)
    }

    fn allgather_shared_inner<T: Clone + Send + Sync + MsgSize + 'static>(
        &self,
        value: T,
    ) -> Result<Vec<Arc<T>>> {
        let p = self.size();
        let r = self.rank();
        let base = self.next_coll_tag();
        let mut out: Vec<Option<Arc<T>>> = (0..p).map(|_| None).collect();
        // My contribution: the one allocation this rank makes.
        self.shared.stats().record_coll_allocs(CollOp::Allgather, 1);
        out[r] = Some(Arc::new(value));

        let next = (r + 1) % p;
        let prev = (r + p - 1) % p;
        // At step s we forward the block that originated at (r - s) mod p.
        for s in 0..p.saturating_sub(1) {
            let send_origin = (r + p - s) % p;
            let block = Arc::clone(out[send_origin].as_ref().expect("block present by induction"));
            let bytes = block.msg_size();
            self.coll_send_shared(next, base + s as i32, block, bytes, CollOp::Allgather)?;
            let recv_origin = (prev + p - s) % p;
            out[recv_origin] = Some(self.coll_recv_shared::<T>(prev, base + s as i32)?);
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
        let bytes = values.as_ref().map_or(0, MsgSize::msg_size);
        let _span =
            self.coll_span(CollOp::Scatter, coll_algo::LINEAR, bytes, (self.size() as u64) - 1);
        self.scatter_as(root, values, CollOp::Scatter)
    }

    fn scatter_as<T: Send + MsgSize + 'static>(
        &self,
        root: usize,
        values: Option<Vec<T>>,
        op: CollOp,
    ) -> Result<T> {
        let p = self.size();
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
                    self.coll_send(dst, base, v, op)?;
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
            coll_algo::BINOMIAL_SHARED,
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
    /// One algorithm at every size: binomial reduce — partials are *moved*
    /// up the tree and folded in place, never cloned — followed by the
    /// zero-clone shared broadcast (one allocation, `Arc` handles fanned
    /// out). This replaced recursive doubling for small payloads: RD's
    /// owned-message exchange rounds force every rank to clone its
    /// accumulator once per round (both partners need both values, so the
    /// copy is inherent to the algorithm, not the transport) — p·⌈log₂ p⌉
    /// deep copies and messages per op, 2048 of each at p=256. Reduce+bcast
    /// doubles the critical-path round count to 2⌈log₂ p⌉ but sends only
    /// 2(p−1) messages and copies nothing in the reduce phase (the shared
    /// bcast's final unwrap still costs one clone per non-root rank), which
    /// wins outright in this runtime where per-message cost dominates
    /// (BENCH_runtime.json allreduce cells vs the last recursive-doubling
    /// run: 1.5x at p=16, 2.4x at p=64, 2.8x at p=256, all at 1KiB).
    pub fn allreduce<T, F>(&self, value: T, op: F) -> Result<T>
    where
        T: Clone + Send + Sync + MsgSize + 'static,
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
        let arc = self.bcast_shared_as(0, reduced, CollOp::Allreduce)?;
        Ok(self.unwrap_cow(arc, CollOp::Allreduce))
    }

    /// Reduces `values` (one block per member, rank order) element-wise and
    /// scatters the result: rank `r` receives the reduction of every
    /// member's `values[r]`.
    ///
    /// Power-of-two sizes use recursive halving: each round a rank sends
    /// the half of its remaining blocks the partner is responsible for (the
    /// blocks are *moved* into the message — no clones) and folds the
    /// incoming half into its own; ⌈log₂ p⌉ messages per rank, halving in
    /// volume each round. Other sizes fall back to a binomial vector reduce
    /// followed by a scatter.
    pub fn reduce_scatter<T, F>(&self, values: Vec<T>, op: F) -> Result<T>
    where
        T: Send + MsgSize + 'static,
        F: Fn(&mut T, T),
    {
        const OP: CollOp = CollOp::ReduceScatter;
        let p = self.size();
        let r = self.rank();
        if values.len() != p {
            return Err(RuntimeError::CollectiveMismatch {
                detail: format!("reduce_scatter got {} values for {} ranks", values.len(), p),
            });
        }
        if p == 1 {
            return Ok(values.into_iter().next().expect("one block for one rank"));
        }
        let algo =
            if p.is_power_of_two() { coll_algo::RECURSIVE_HALVING } else { coll_algo::LINEAR };
        let _span = self.coll_span(OP, algo, values.msg_size(), ceil_log2(p));
        if !p.is_power_of_two() {
            let reduced = self.reduce_as(
                0,
                values,
                |acc: &mut Vec<T>, incoming: Vec<T>| {
                    for (a, b) in acc.iter_mut().zip(incoming) {
                        op(a, b);
                    }
                },
                OP,
            )?;
            return self.scatter_as(0, reduced, OP);
        }

        let base = self.next_coll_tag();
        let mut blocks: Vec<Option<T>> = values.into_iter().map(Some).collect();
        let (mut lo, mut hi) = (0usize, p);
        let mut round = 0i32;
        while hi - lo > 1 {
            let half = (hi - lo) / 2;
            let mid = lo + half;
            let (partner, send_lo, send_hi, keep_lo, keep_hi) =
                if r < mid { (r + half, mid, hi, lo, mid) } else { (r - half, lo, mid, mid, hi) };
            let outgoing: Vec<T> =
                (send_lo..send_hi).map(|i| blocks[i].take().expect("unsent block")).collect();
            self.coll_send(partner, base + round, outgoing, OP)?;
            let incoming: Vec<T> = self.coll_recv(partner, base + round)?;
            if incoming.len() != keep_hi - keep_lo {
                return Err(RuntimeError::CollectiveMismatch {
                    detail: format!(
                        "reduce_scatter round {round}: got {} blocks, expected {}",
                        incoming.len(),
                        keep_hi - keep_lo
                    ),
                });
            }
            for (i, v) in (keep_lo..keep_hi).zip(incoming) {
                let acc = blocks[i].as_mut().expect("kept block");
                if partner < r {
                    let mine = std::mem::replace(acc, v);
                    op(acc, mine);
                } else {
                    op(acc, v);
                }
            }
            lo = keep_lo;
            hi = keep_hi;
            round += 1;
        }
        Ok(blocks[r].take().expect("own block fully reduced"))
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
            self.shared.stats().record_coll_clones(CollOp::Scan, 1);
            self.coll_send(r + 1, base, acc.clone(), CollOp::Scan)?;
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{RunOpts, RunReport, World};
    use std::sync::atomic::{AtomicUsize, Ordering};

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
    fn bcast_cloning_from_every_root() {
        for p in [1, 2, 3, 5, 8] {
            for root in 0..p {
                World::run(p, move |proc| {
                    let c = proc.world();
                    let v = if c.rank() == root { Some(vec![root as u64; 3]) } else { None };
                    assert_eq!(c.bcast_cloning(root, v).unwrap(), vec![root as u64; 3]);
                });
            }
        }
    }

    #[test]
    fn bcast_shared_hands_out_one_allocation() {
        let RunReport { results, stats, .. } = World::run_opts(8, RunOpts::default(), |proc| {
            let c = proc.world();
            let v = if c.rank() == 0 { Some(vec![3.25f64; 64]) } else { None };
            let arc = c.bcast_shared(0, v).unwrap();
            assert_eq!(*arc, vec![3.25; 64]);
            Arc::as_ptr(&arc) as usize
        });
        assert!(results.windows(2).all(|w| w[0] == w[1]), "all ranks see the same allocation");
        let bcast = stats.coll(crate::stats::CollOp::Bcast);
        assert_eq!(bcast.messages, 7, "bcast sends exactly p-1 messages");
        assert_eq!(bcast.payload_allocs, 1, "one allocation regardless of p");
        assert_eq!(bcast.payload_clones, 0, "shared broadcast never deep-copies");
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
    fn allgather_shared_allocates_once_per_contributor() {
        let stats = World::run_opts(4, RunOpts::default(), |proc| {
            let c = proc.world();
            let got = c.allgather_shared(vec![c.rank() as u32; 8]).unwrap();
            for (r, arc) in got.iter().enumerate() {
                assert_eq!(**arc, vec![r as u32; 8]);
            }
        })
        .stats;
        let ag = stats.coll(crate::stats::CollOp::Allgather);
        assert_eq!(ag.messages, 4 * 3, "ring sends p-1 messages per rank");
        assert_eq!(ag.payload_allocs, 4, "one allocation per contributed block");
        assert_eq!(ag.payload_clones, 0);
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
    fn allreduce_message_complexity_and_zero_clones() {
        // Reduce (p-1 moved partials) + shared bcast (p-1 Arc handles):
        // 2(p-1) messages total, no payload deep copies, one allocation.
        let stats = World::run_opts(8, RunOpts::default(), |proc| {
            proc.world().allreduce(1u64, |a, b| *a += b).unwrap();
        })
        .stats;
        let cell = stats.coll(crate::stats::CollOp::Allreduce);
        assert_eq!(cell.messages, 2 * (8 - 1));
        // The algorithm itself never clones (partials move and fold in
        // place); the only copies are COW unwraps of the shared broadcast
        // result when handles race — bounded by p, vs p·log₂p (24) for the
        // recursive doubling this replaced.
        assert!(cell.payload_clones <= 8, "got {}", cell.payload_clones);
        assert_eq!(cell.payload_allocs, 1, "the bcast's single shared allocation");
    }

    #[test]
    fn reduce_scatter_power_of_two() {
        for p in [1, 2, 4, 8] {
            World::run(p, move |proc| {
                let c = proc.world();
                let r = c.rank();
                // Block destined for rank d carries r*100 + d.
                let blocks: Vec<u64> = (0..p).map(|d| (r * 100 + d) as u64).collect();
                let got = c.reduce_scatter(blocks, |a, b| *a += b).unwrap();
                let expect: u64 = (0..p).map(|s| (s * 100 + r) as u64).sum();
                assert_eq!(got, expect);
            });
        }
    }

    #[test]
    fn reduce_scatter_fallback_sizes() {
        for p in [3, 5, 6, 7] {
            World::run(p, move |proc| {
                let c = proc.world();
                let r = c.rank();
                let blocks: Vec<u64> = (0..p).map(|d| (r * 100 + d) as u64).collect();
                let got = c.reduce_scatter(blocks, |a, b| *a += b).unwrap();
                let expect: u64 = (0..p).map(|s| (s * 100 + r) as u64).sum();
                assert_eq!(got, expect);
            });
        }
    }

    #[test]
    fn reduce_scatter_wrong_count_errors() {
        World::run(2, |proc| {
            let c = proc.world();
            if c.rank() == 0 {
                let e = c.reduce_scatter(vec![1u8], |a, b| *a += b).unwrap_err();
                assert!(matches!(e, RuntimeError::CollectiveMismatch { .. }));
            }
        });
    }

    #[test]
    fn reduce_scatter_moves_blocks_without_cloning() {
        let stats = World::run_opts(8, RunOpts::default(), |proc| {
            let c = proc.world();
            let blocks: Vec<u64> = (0..8).map(|d| d as u64).collect();
            c.reduce_scatter(blocks, |a, b| *a += b).unwrap();
        })
        .stats;
        let rs = stats.coll(crate::stats::CollOp::ReduceScatter);
        assert_eq!(rs.messages, 8 * 3, "log2(p) halving rounds per rank");
        assert_eq!(rs.payload_clones, 0, "recursive halving moves every block");
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
