//! Collective-route redistribution planning under per-rank memory budgets.
//!
//! The direct M×N path ([`RegionSchedule::execute_send`] /
//! [`RegionSchedule::execute_recv`]) is message-optimal — one packed buffer
//! per overlapping peer — but not memory-optimal: with eager sends, a
//! receiver's mailbox holds its *entire* incoming set before the first
//! `recv` drains it, so the per-rank transfer footprint reaches the full
//! destination shard on top of the destination allocation (≈ 2× shard).
//! For fields sized near the memory limit that is fatal; redistribution
//! then has to trade messages (time) for peak bytes.
//!
//! This module makes that trade explicit. A [`RoutePlanner`] compiles a
//! [`RedistRoute`] — a short list of typed [`RouteStep`]s, each with a
//! closed-form per-rank peak-bytes bound — for a given
//! (source [`Dad`], destination [`Dad`], element size, budget):
//!
//! * [`RouteKind::Direct`] — the existing one-message-per-peer exchange.
//!   Peak ≈ shard + full receive set + one pack buffer. Fastest.
//! * [`RouteKind::Chunked`] — the same pairwise schedule, executed in
//!   fenced rounds of at most `chunk_elems` elements per pair. The fence
//!   is per pair: a sender packs its round-*k* chunk for a pair, then
//!   waits for that pair's ack of round *k−1* before sending it, and a
//!   receiver acks each pair as soon as it has unpacked that pair's chunk.
//!   The ack carries the drained buffer back for the sender's next chunk.
//!   Peak ≈ shard + one chunk per pair + one pack and one unpack chunk,
//!   tunable down to a single element per pair.
//! * [`RouteKind::AllgatherSlice`] — intra-communicator only: move whole
//!   shards with a collective allgather and slice the needed regions out
//!   locally. Fewest distinct messages (good for latency-bound tiny
//!   fields on wide communicators), but peak includes the whole array.
//!
//! The planner scores each candidate with a [`NetworkModel`] for time and
//! the summed step bounds for memory, then picks the fastest route whose
//! peak fits the budget (falling back to the smallest-peak route when none
//! fits, so a too-tight budget degrades to best effort rather than
//! failing). Both sides of a transfer derive the plan from the descriptor
//! pair alone — no negotiation round is needed for them to agree.
//!
//! Every execution opens a `RoutePlan` trace span with one `RouteStep`
//! span per executed step, and threads live-transfer bytes through
//! [`record_transfer_acquired`] / [`record_transfer_released`] so
//! [`mxn_runtime::ScheduleStats`] exposes the measured high-water mark the
//! declared bounds promise.

use std::time::Duration;

use mxn_dad::{Dad, LocalArray};
use mxn_runtime::{
    record_transfer_acquired, record_transfer_released, Comm, InterComm, MsgSize, NetworkModel,
    Result,
};
use mxn_trace::EventId;

use crate::plan::{CopyPlan, TransferBuffers};
use crate::region_schedule::{RegionSchedule, Role};

/// Round-fence acknowledgements travel on the transfer tag with this bit
/// set, so they can never match a data receive. User tags must keep the
/// bit clear.
pub const ROUTE_ACK_BIT: i32 = 1 << 28;

/// Worst-case per-rank footprint profile of a redistribution, derived
/// purely from the descriptor pair (plus element size) by building every
/// sender's pruned schedule. Rank-independent: all ranks computing the
/// profile for the same `(src, dst, elem_size)` get identical numbers, so
/// route planning needs no negotiation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RedistProfile {
    /// Element size in bytes the byte figures below are scaled by.
    pub elem_size: usize,
    /// Ranks in the source / destination decompositions.
    pub src_ranks: usize,
    pub dst_ranks: usize,
    /// Max bytes any single rank sends / receives in total.
    pub max_send_bytes: u64,
    pub max_recv_bytes: u64,
    /// Max messages any single rank sends / receives on the direct path.
    pub max_send_msgs: u64,
    pub max_recv_msgs: u64,
    /// Largest single pairwise message on the direct path.
    pub max_pair_bytes: u64,
    /// Largest source / destination shard (resident array bytes).
    pub max_src_shard_bytes: u64,
    pub max_dst_shard_bytes: u64,
    /// Whole-array bytes (what an allgather moves to every rank).
    pub total_bytes: u64,
}

impl RedistProfile {
    /// Profiles the redistribution `src → dst` for `elem_size`-byte
    /// elements by building all sender schedules (pruned construction, so
    /// this scales with overlap, not with `src_ranks × dst_ranks`).
    pub fn compute(src: &Dad, dst: &Dad, elem_size: usize) -> RedistProfile {
        let es = elem_size as u64;
        let mut recv_bytes = vec![0u64; dst.nranks()];
        let mut recv_msgs = vec![0u64; dst.nranks()];
        let mut max_send_bytes = 0u64;
        let mut max_send_msgs = 0u64;
        let mut max_pair_bytes = 0u64;
        for s in 0..src.nranks() {
            let sched = RegionSchedule::for_sender(src, dst, s);
            let mut sent = 0u64;
            for (i, pair) in sched.pairs().iter().enumerate() {
                let b = sched.plan(i).total() as u64 * es;
                sent += b;
                max_pair_bytes = max_pair_bytes.max(b);
                recv_bytes[pair.peer] += b;
                recv_msgs[pair.peer] += 1;
            }
            max_send_bytes = max_send_bytes.max(sent);
            max_send_msgs = max_send_msgs.max(sched.num_messages() as u64);
        }
        let shard = |d: &Dad, r: usize| d.patches(r).iter().map(|p| p.len() as u64 * es).sum();
        let src_shards: Vec<u64> = (0..src.nranks()).map(|r| shard(src, r)).collect();
        RedistProfile {
            elem_size,
            src_ranks: src.nranks(),
            dst_ranks: dst.nranks(),
            max_send_bytes,
            max_recv_bytes: recv_bytes.iter().copied().max().unwrap_or(0),
            max_send_msgs,
            max_recv_msgs: recv_msgs.iter().copied().max().unwrap_or(0),
            max_pair_bytes,
            max_src_shard_bytes: src_shards.iter().copied().max().unwrap_or(0),
            max_dst_shard_bytes: (0..dst.nranks()).map(|r| shard(dst, r)).max().unwrap_or(0),
            total_bytes: src_shards.iter().sum(),
        }
    }
}

/// The lowering a route uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouteKind {
    /// One packed message per overlapping peer (the classic schedule).
    Direct,
    /// The pairwise schedule in fenced, bounded-size rounds.
    Chunked,
    /// Whole-shard allgather plus local slicing (intra-communicator only).
    AllgatherSlice,
}

impl RouteKind {
    /// Stable numeric code used in trace span arguments.
    pub(crate) fn code(self) -> u64 {
        match self {
            RouteKind::Direct => 0,
            RouteKind::Chunked => 1,
            RouteKind::AllgatherSlice => 2,
        }
    }
}

/// What one step of a route does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOp {
    /// Whole pairwise exchange, one message per peer.
    DirectExchange,
    /// `rounds` fenced rounds of ≤ `chunk_elems` elements per pair.
    ChunkRounds { rounds: u32, chunk_elems: usize },
    /// Collective allgather of every rank's flat shard.
    Allgather,
    /// Local slice of the gathered shards into the destination layout.
    Slice,
}

/// One typed step with its closed-form per-rank bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteStep {
    pub op: StepOp,
    /// Max bytes any rank moves during this step.
    pub bytes: u64,
    /// Declared per-rank peak (resident shards + live transfer bytes)
    /// while this step runs.
    pub peak_bytes: u64,
}

/// A compiled route: the lowering, its steps, and the planner's verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RedistRoute {
    pub kind: RouteKind,
    pub steps: Vec<RouteStep>,
    /// Declared per-rank peak over all steps.
    pub peak_bytes: u64,
    /// [`NetworkModel`] time estimate used for selection.
    pub est_time: Duration,
    /// The budget this route was planned against.
    pub budget_bytes: u64,
    /// Whether `peak_bytes <= budget_bytes`. When no candidate fits, the
    /// planner returns the smallest-peak route with `fits == false`.
    pub fits: bool,
}

impl RedistRoute {
    /// Chunk size (elements) for [`RouteKind::Chunked`] routes, 0 otherwise.
    pub fn chunk_elems(&self) -> usize {
        self.steps
            .iter()
            .find_map(|s| match s.op {
                StepOp::ChunkRounds { chunk_elems, .. } => Some(chunk_elems),
                _ => None,
            })
            .unwrap_or(0)
    }

    /// Bytes a buffer pool may keep idle across transfers on this route:
    /// the budget's headroom above the declared peak, but never less than
    /// a quarter of the peak (nor 4 KiB), so a route planned right at its
    /// budget still keeps a round's buffers warm.
    pub fn idle_allowance(&self) -> u64 {
        let headroom = self.budget_bytes.saturating_sub(self.peak_bytes);
        headroom.max((self.peak_bytes / 4).max(4096))
    }

    /// Round count for [`RouteKind::Chunked`] routes, 0 otherwise.
    pub fn rounds(&self) -> u32 {
        self.steps
            .iter()
            .find_map(|s| match s.op {
                StepOp::ChunkRounds { rounds, .. } => Some(rounds),
                _ => None,
            })
            .unwrap_or(0)
    }
}

/// Chooses the fastest route whose declared peak fits a per-rank budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutePlanner {
    /// Cost model scoring candidate routes for time.
    pub model: NetworkModel,
}

impl Default for RoutePlanner {
    /// A cluster-shaped default: 1 µs latency, 12.5 GB/s links.
    fn default() -> Self {
        RoutePlanner {
            model: NetworkModel { latency: Duration::from_micros(1), bytes_per_sec: 12.5e9 },
        }
    }
}

impl RoutePlanner {
    /// Resident (non-transfer) array bytes a rank holds during the
    /// exchange: one shard across an inter-communicator, both shards for
    /// an in-place intra-communicator redistribution.
    fn resident(p: &RedistProfile, intra: bool) -> u64 {
        if intra {
            p.max_src_shard_bytes + p.max_dst_shard_bytes
        } else {
            p.max_src_shard_bytes.max(p.max_dst_shard_bytes)
        }
    }

    fn direct_candidate(&self, p: &RedistProfile, intra: bool) -> RedistRoute {
        let bytes = p.max_send_bytes.max(p.max_recv_bytes);
        // Receiver mailbox holds the full receive set before draining,
        // plus one pack/unpack buffer in flight.
        let peak = Self::resident(p, intra) + p.max_recv_bytes + p.max_pair_bytes;
        let msgs = (p.max_send_msgs + p.max_recv_msgs).max(1);
        let time = self.model.delay(bytes as usize) + self.model.latency * (msgs - 1) as u32;
        RedistRoute {
            kind: RouteKind::Direct,
            steps: vec![RouteStep { op: StepOp::DirectExchange, bytes, peak_bytes: peak }],
            peak_bytes: peak,
            est_time: time,
            budget_bytes: 0,
            fits: false,
        }
    }

    fn chunked_candidate(&self, p: &RedistProfile, budget: u64, intra: bool) -> RedistRoute {
        let resident = Self::resident(p, intra);
        let pairs = p.max_send_msgs.max(p.max_recv_msgs).max(1);
        // Solve resident + pairs·C (mailbox round) + 2·C (pack + unpack
        // buffers) ≤ budget for the chunk size C, floored at one element.
        let headroom = budget.saturating_sub(resident);
        let chunk_bytes =
            (headroom / (pairs + 2)).clamp(p.elem_size as u64, p.max_pair_bytes.max(1));
        let chunk_elems = (chunk_bytes / p.elem_size as u64).max(1) as usize;
        let chunk_bytes = chunk_elems as u64 * p.elem_size as u64;
        let rounds = p.max_pair_bytes.div_ceil(chunk_bytes).max(1) as u32;
        let round_bytes = (pairs * chunk_bytes).min(p.max_recv_bytes.max(chunk_bytes));
        let peak = resident + round_bytes + 2 * chunk_bytes;
        let bytes = p.max_send_bytes.max(p.max_recv_bytes);
        // Data messages per round plus an ack round trip per pair.
        let time = self.model.delay(bytes as usize)
            + self.model.latency * (2 * pairs as u32).saturating_mul(rounds);
        RedistRoute {
            kind: RouteKind::Chunked,
            steps: vec![RouteStep {
                op: StepOp::ChunkRounds { rounds, chunk_elems },
                bytes,
                peak_bytes: peak,
            }],
            peak_bytes: peak,
            est_time: time,
            budget_bytes: 0,
            fits: false,
        }
    }

    fn allgather_candidate(&self, p: &RedistProfile) -> RedistRoute {
        // Intra only: every rank ends up holding the whole array (its own
        // flat copy included) before slicing.
        let resident = Self::resident(p, true);
        let gather_peak = resident + p.total_bytes;
        let slice_peak = gather_peak + p.max_pair_bytes;
        let ranks = p.src_ranks.max(1) as u32;
        let time =
            self.model.latency * (ranks - 1).max(1) + self.model.delay(p.total_bytes as usize);
        RedistRoute {
            kind: RouteKind::AllgatherSlice,
            steps: vec![
                RouteStep { op: StepOp::Allgather, bytes: p.total_bytes, peak_bytes: gather_peak },
                RouteStep { op: StepOp::Slice, bytes: p.max_recv_bytes, peak_bytes: slice_peak },
            ],
            peak_bytes: slice_peak,
            est_time: time,
            budget_bytes: 0,
            fits: false,
        }
    }

    /// Plans the fastest route with declared peak ≤ `budget_bytes`.
    /// `intra` admits the allgather lowering (it needs one communicator)
    /// and charges both shards as resident. When nothing fits, returns
    /// the smallest-peak candidate with [`RedistRoute::fits`] = `false`.
    pub(crate) fn plan(&self, p: &RedistProfile, budget_bytes: u64, intra: bool) -> RedistRoute {
        let mut cands =
            vec![self.direct_candidate(p, intra), self.chunked_candidate(p, budget_bytes, intra)];
        if intra {
            cands.push(self.allgather_candidate(p));
        }
        for c in &mut cands {
            c.budget_bytes = budget_bytes;
            c.fits = c.peak_bytes <= budget_bytes;
        }
        cands
            .iter()
            .filter(|c| c.fits)
            .min_by_key(|c| c.est_time)
            .or_else(|| cands.iter().min_by_key(|c| c.peak_bytes))
            .unwrap()
            .clone()
    }

    /// Plans the fastest route from `src` to `dst` with declared peak ≤
    /// `budget_bytes`. `intra` admits the allgather lowering (it needs one
    /// communicator) and charges both shards as resident. When nothing
    /// fits, returns the smallest-peak candidate with
    /// [`RedistRoute::fits`] = `false`.
    pub fn plan_for(
        &self,
        src: &Dad,
        dst: &Dad,
        elem_size: usize,
        budget_bytes: u64,
        intra: bool,
    ) -> RedistRoute {
        self.plan(&RedistProfile::compute(src, dst, elem_size), budget_bytes, intra)
    }
}

fn route_span(route: &RedistRoute) -> mxn_trace::SpanGuard {
    mxn_trace::span(
        EventId::RoutePlan,
        [route.kind.code(), route.budget_bytes, route.peak_bytes, route.steps.len() as u64],
    )
}

/// Per-pair round counts under a chunk size, identical on both sides by
/// the schedule mirror property.
fn pair_rounds(sched: &RegionSchedule, chunk: usize) -> Vec<usize> {
    (0..sched.pairs().len()).map(|i| sched.plan(i).total().div_ceil(chunk)).collect()
}

/// Sender side of a planned route across an inter-communicator.
/// Returns elements sent.
pub fn execute_send_routed<T>(
    route: &RedistRoute,
    sched: &RegionSchedule,
    ic: &InterComm,
    local: &LocalArray<T>,
    tag: i32,
    pool: &mut TransferBuffers<T>,
) -> Result<usize>
where
    T: Copy + Send + MsgSize + 'static,
{
    let mut span = route_span(route);
    let moved = match route.kind {
        RouteKind::Direct => {
            let mut step = mxn_trace::span(EventId::RouteStep, [route.kind.code(), 0, 0, 0]);
            let moved = sched.execute_send(ic, local, tag, pool)?;
            step.set_end([route.kind.code(), 0, moved as u64 * size_of::<T>() as u64, 0]);
            moved
        }
        RouteKind::Chunked => chunked_send(route, sched, ic, local, tag, pool)?,
        RouteKind::AllgatherSlice => {
            panic!("allgather-slice routes only apply within one communicator")
        }
    };
    span.set_end([route.kind.code(), moved as u64 * size_of::<T>() as u64, 0, 0]);
    Ok(moved)
}

/// Receiver side of a planned route across an inter-communicator.
/// Returns elements received.
pub fn execute_recv_routed<T>(
    route: &RedistRoute,
    sched: &RegionSchedule,
    ic: &InterComm,
    local: &mut LocalArray<T>,
    tag: i32,
    pool: &mut TransferBuffers<T>,
) -> Result<usize>
where
    T: Copy + Send + MsgSize + 'static,
{
    let mut span = route_span(route);
    let moved = match route.kind {
        RouteKind::Direct => {
            let mut step = mxn_trace::span(EventId::RouteStep, [route.kind.code(), 0, 0, 0]);
            let moved = sched.execute_recv(ic, local, tag, pool)?;
            step.set_end([route.kind.code(), 0, moved as u64 * size_of::<T>() as u64, 0]);
            moved
        }
        RouteKind::Chunked => chunked_recv(route, sched, ic, local, tag, pool)?,
        RouteKind::AllgatherSlice => {
            panic!("allgather-slice routes only apply within one communicator")
        }
    };
    span.set_end([route.kind.code(), moved as u64 * size_of::<T>() as u64, 0, 0]);
    Ok(moved)
}

/// Intra-communicator execution of a planned route (every rank of `comm`
/// calls this collectively). `src` is the source descriptor — the
/// allgather lowering needs it to slice peers' gathered shards. Returns
/// elements received into `dst_local`.
#[allow(clippy::too_many_arguments)]
pub fn execute_within_routed<T>(
    route: &RedistRoute,
    send: &RegionSchedule,
    recv: &RegionSchedule,
    comm: &Comm,
    src: &Dad,
    src_local: &LocalArray<T>,
    dst_local: &mut LocalArray<T>,
    tag: i32,
    pool: &mut TransferBuffers<T>,
) -> Result<usize>
where
    T: Copy + Send + MsgSize + 'static,
{
    let mut span = route_span(route);
    let moved = match route.kind {
        RouteKind::Direct => {
            let mut step = mxn_trace::span(EventId::RouteStep, [route.kind.code(), 0, 0, 0]);
            let moved =
                RegionSchedule::execute_local(send, recv, comm, src_local, dst_local, tag, pool)?;
            step.set_end([route.kind.code(), 0, moved as u64 * size_of::<T>() as u64, 0]);
            moved
        }
        RouteKind::Chunked => {
            chunked_within(route, send, recv, comm, src_local, dst_local, tag, pool)?
        }
        RouteKind::AllgatherSlice => allgather_within(recv, comm, src, src_local, dst_local, pool)?,
    };
    span.set_end([route.kind.code(), moved as u64 * size_of::<T>() as u64, 0, 0]);
    Ok(moved)
}

/// Leases a buffer from `pool` and packs pair `i`'s round-`k` chunk into
/// it, counted as live transfer memory until the caller sends it.
fn pack_chunk<T>(
    sched: &RegionSchedule,
    i: usize,
    chunk: usize,
    k: usize,
    local: &LocalArray<T>,
    pool: &mut TransferBuffers<T>,
) -> (Vec<T>, u64)
where
    T: Copy,
{
    let plan = sched.plan(i);
    let lo = k * chunk;
    let hi = (lo + chunk).min(plan.total());
    let mut buf = pool.lease(hi - lo);
    plan.pack_range_into(local, &mut buf, lo, hi);
    let bytes = (buf.len() * size_of::<T>()) as u64;
    record_transfer_acquired(bytes);
    (buf, bytes)
}

/// Unpacks pair `i`'s round-`k` chunk, then hands the drained buffer on —
/// the one ack rule of this module. While the pair has a later round the
/// emptied buffer *is* the ack: it goes back to the sender through `ack`
/// (0 payload bytes, capacity kept) and serves the sender's next lease.
/// After the pair's last round nobody waits for an ack, so the buffer is
/// recycled into `pool`. Returns elements received.
#[allow(clippy::too_many_arguments)]
fn land_chunk<T>(
    sched: &RegionSchedule,
    rounds: &[usize],
    i: usize,
    chunk: usize,
    k: usize,
    mut data: Vec<T>,
    local: &mut LocalArray<T>,
    pool: &mut TransferBuffers<T>,
    ack: impl FnOnce(Vec<T>) -> Result<()>,
) -> Result<usize>
where
    T: Copy,
{
    let bytes = (data.len() * size_of::<T>()) as u64;
    record_transfer_acquired(bytes);
    let lo = k * chunk;
    sched.plan(i).unpack_range_from(local, &data, lo, lo + data.len());
    record_transfer_released(bytes);
    let moved = data.len();
    if k + 1 < rounds[i] {
        data.clear();
        ack(data)?;
    } else {
        pool.recycle(data);
    }
    Ok(moved)
}

fn chunked_send<T>(
    route: &RedistRoute,
    sched: &RegionSchedule,
    ic: &InterComm,
    local: &LocalArray<T>,
    tag: i32,
    pool: &mut TransferBuffers<T>,
) -> Result<usize>
where
    T: Copy + Send + MsgSize + 'static,
{
    assert_eq!(sched.role(), Role::Sender, "chunked send needs a sender schedule");
    let chunk = route.chunk_elems().max(1);
    let rounds = pair_rounds(sched, chunk);
    let max_rounds = rounds.iter().copied().max().unwrap_or(0);
    let mut moved = 0;
    for k in 0..max_rounds {
        let mut step = mxn_trace::span(EventId::RouteStep, [route.kind.code(), k as u64, 0, 0]);
        let mut posted = 0u64;
        for (i, pair) in sched.pairs().iter().enumerate() {
            if k >= rounds[i] {
                continue;
            }
            // Pack first, then fence on this pair alone: chunk k goes out
            // only after this pair's receiver has drained chunk k−1, which
            // bounds its mailbox to one chunk per pair. Packing ahead lets
            // the receiver's unpack and ack run while this rank packs; the
            // chunk held during the wait is the pack half of the declared
            // peak's `2·C` term.
            let (buf, bytes) = pack_chunk(sched, i, chunk, k, local, pool);
            if k > 0 {
                let drained = ic
                    .recv::<Vec<T>>(pair.peer, tag | ROUTE_ACK_BIT)
                    .inspect_err(|_| record_transfer_released(bytes))?;
                pool.recycle(drained);
            }
            moved += buf.len();
            ic.send(pair.peer, tag, buf)?;
            // The transport owns the buffer now; the receiver's mailbox
            // accounting carries it from here.
            record_transfer_released(bytes);
            posted += bytes;
        }
        step.set_end([route.kind.code(), k as u64, posted, 0]);
    }
    Ok(moved)
}

fn chunked_recv<T>(
    route: &RedistRoute,
    sched: &RegionSchedule,
    ic: &InterComm,
    local: &mut LocalArray<T>,
    tag: i32,
    pool: &mut TransferBuffers<T>,
) -> Result<usize>
where
    T: Copy + Send + MsgSize + 'static,
{
    assert_eq!(sched.role(), Role::Receiver, "chunked recv needs a receiver schedule");
    let chunk = route.chunk_elems().max(1);
    let rounds = pair_rounds(sched, chunk);
    let max_rounds = rounds.iter().copied().max().unwrap_or(0);
    let mut moved = 0;
    for k in 0..max_rounds {
        let mut step = mxn_trace::span(EventId::RouteStep, [route.kind.code(), k as u64, 0, 0]);
        let mut m = 0;
        // Each pair is acked as soon as its chunk is unpacked, so a sender
        // waits on this receiver only, never on the rest of the round.
        for (i, pair) in sched.pairs().iter().enumerate() {
            if k >= rounds[i] {
                continue;
            }
            let data = ic.recv(pair.peer, tag)?;
            let ack = |buf| ic.send(pair.peer, tag | ROUTE_ACK_BIT, buf);
            m += land_chunk(sched, &rounds, i, chunk, k, data, local, pool, ack)?;
        }
        moved += m;
        step.set_end([route.kind.code(), k as u64, m as u64 * size_of::<T>() as u64, 0]);
    }
    Ok(moved)
}

#[allow(clippy::too_many_arguments)]
fn chunked_within<T>(
    route: &RedistRoute,
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
    assert_eq!(send.role(), Role::Sender);
    assert_eq!(recv.role(), Role::Receiver);
    let chunk = route.chunk_elems().max(1);
    let srounds = pair_rounds(send, chunk);
    let rrounds = pair_rounds(recv, chunk);
    let max_rounds = srounds.iter().chain(rrounds.iter()).copied().max().unwrap_or(0);
    let mut moved = 0;
    // Per round, every rank: posts its sends, drains its receives (acking
    // each), then waits for acks. All sends precede every blocking
    // receive on every rank, so no round can deadlock.
    for k in 0..max_rounds {
        let mut step = mxn_trace::span(EventId::RouteStep, [route.kind.code(), k as u64, 0, 0]);
        let mut posted = 0u64;
        for (i, pair) in send.pairs().iter().enumerate() {
            if k < srounds[i] {
                let (buf, bytes) = pack_chunk(send, i, chunk, k, src_local, pool);
                comm.send(pair.peer, tag, buf)?;
                record_transfer_released(bytes);
                posted += bytes;
            }
        }
        for (i, pair) in recv.pairs().iter().enumerate() {
            if k < rrounds[i] {
                let data = comm.recv(pair.peer, tag)?;
                let ack = |buf| comm.send(pair.peer, tag | ROUTE_ACK_BIT, buf);
                moved += land_chunk(recv, &rrounds, i, chunk, k, data, dst_local, pool, ack)?;
            }
        }
        for (i, pair) in send.pairs().iter().enumerate() {
            if k + 1 < srounds[i] {
                pool.recycle(comm.recv::<Vec<T>>(pair.peer, tag | ROUTE_ACK_BIT)?);
            }
        }
        step.set_end([route.kind.code(), k as u64, posted, 0]);
    }
    Ok(moved)
}

fn allgather_within<T>(
    recv: &RegionSchedule,
    comm: &Comm,
    src: &Dad,
    src_local: &LocalArray<T>,
    dst_local: &mut LocalArray<T>,
    pool: &mut TransferBuffers<T>,
) -> Result<usize>
where
    T: Copy + Send + MsgSize + 'static,
{
    assert_eq!(recv.role(), Role::Receiver);
    assert_eq!(
        comm.size(),
        src.nranks(),
        "allgather-slice needs the communicator to span the source decomposition"
    );
    let kind = RouteKind::AllgatherSlice.code();
    let mut gather = mxn_trace::span(EventId::RouteStep, [kind, 0, 0, 0]);
    let shards: Vec<Vec<T>> = comm.allgather(src_local.to_flat())?;
    let total_bytes: u64 = shards.iter().map(|s| (s.len() * size_of::<T>()) as u64).sum();
    record_transfer_acquired(total_bytes);
    gather.set_end([kind, 0, total_bytes, 0]);

    let mut slice = mxn_trace::span(EventId::RouteStep, [kind, 1, 0, 0]);
    let mut moved = 0;
    for (i, pair) in recv.pairs().iter().enumerate() {
        // The gathered shard holds the peer's patches back to back.
        let (regions, mut shard) = (src.patches(pair.peer), shards[pair.peer].as_slice());
        let layout = regions.iter().collect();
        let cut = CopyPlan::compile(&regions, &pair.regions);
        let patches = regions.into_iter().map(|r| {
            let (data, rest) = shard.split_at(r.len());
            shard = rest;
            (r, data.to_vec())
        });
        let peer = LocalArray::from_patches(pair.peer, patches.collect(), layout);
        let mut buf = pool.lease(cut.total());
        cut.pack_into(&peer, &mut buf);
        recv.plan(i).unpack_from(dst_local, &buf);
        moved += buf.len();
        pool.recycle(buf);
    }
    record_transfer_released(total_bytes);
    slice.set_end([kind, 1, moved as u64 * size_of::<T>() as u64, 0]);
    Ok(moved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mxn_dad::Extents;

    fn dads(rows: usize) -> (Dad, Dad) {
        (
            Dad::block(Extents::new([rows, 8]), &[4, 1]).unwrap(),
            Dad::block(Extents::new([rows, 8]), &[1, 4]).unwrap(),
        )
    }

    #[test]
    fn profile_is_mirror_consistent() {
        let (src, dst) = dads(8);
        let p = RedistProfile::compute(&src, &dst, 8);
        // 4×1 → 1×4 on 8×8: every sender meets every receiver with a 2×2
        // block of f64.
        assert_eq!(p.max_send_msgs, 4);
        assert_eq!(p.max_recv_msgs, 4);
        assert_eq!(p.max_pair_bytes, 4 * 8);
        assert_eq!(p.max_send_bytes, 16 * 8);
        assert_eq!(p.max_recv_bytes, 16 * 8);
        assert_eq!(p.max_src_shard_bytes, 16 * 8);
        assert_eq!(p.max_dst_shard_bytes, 16 * 8);
        assert_eq!(p.total_bytes, 64 * 8);
    }

    #[test]
    fn loose_budget_picks_direct() {
        let (src, dst) = dads(8);
        let r = RoutePlanner::default().plan_for(&src, &dst, 8, u64::MAX, false);
        assert_eq!(r.kind, RouteKind::Direct);
        assert!(r.fits);
    }

    #[test]
    fn tight_budget_picks_chunked_and_respects_bound() {
        let (src, dst) = dads(64);
        let p = RedistProfile::compute(&src, &dst, 8);
        // Direct needs shard + full receive set; offer only shard + 25%.
        let budget = p.max_dst_shard_bytes + p.max_dst_shard_bytes / 4;
        let planner = RoutePlanner::default();
        assert!(planner.plan(&p, u64::MAX, false).kind == RouteKind::Direct);
        let r = planner.plan(&p, budget, false);
        assert_eq!(r.kind, RouteKind::Chunked, "direct cannot fit {budget}");
        assert!(r.fits, "declared peak {} over budget {budget}", r.peak_bytes);
        assert!(r.peak_bytes <= budget);
        assert!(r.rounds() > 1);
    }

    #[test]
    fn impossible_budget_degrades_to_smallest_peak() {
        let (src, dst) = dads(8);
        let r = RoutePlanner::default().plan_for(&src, &dst, 8, 1, false);
        assert!(!r.fits, "a 1-byte budget cannot be met");
        assert_eq!(r.kind, RouteKind::Chunked, "chunked is the memory-minimal lowering");
        assert_eq!(r.chunk_elems(), 1, "degrades to single-element chunks");
    }

    #[test]
    fn tiny_field_on_wide_comm_prefers_allgather_intra() {
        // 16 elements over 16 ranks: direct transpose costs ~n² tiny
        // messages; one allgather is latency-cheaper under the model.
        let e = Extents::new([16, 16]);
        let src = Dad::block(e.clone(), &[16, 1]).unwrap();
        let dst = Dad::block(e, &[1, 16]).unwrap();
        let r = RoutePlanner::default().plan_for(&src, &dst, 8, u64::MAX, true);
        assert_eq!(r.kind, RouteKind::AllgatherSlice);
        assert_eq!(r.steps.len(), 2);
        assert!(r.steps[1].peak_bytes >= r.steps[0].peak_bytes);
    }

    #[test]
    fn route_is_identical_on_both_sides() {
        let (src, dst) = dads(32);
        let planner = RoutePlanner::default();
        let budget = 3000;
        // Any two ranks planning from the descriptors alone agree.
        let a = planner.plan_for(&src, &dst, 8, budget, false);
        let b = planner.plan_for(&src, &dst, 8, budget, false);
        assert_eq!(a, b);
    }
}
