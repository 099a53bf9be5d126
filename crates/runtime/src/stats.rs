//! Traffic accounting.
//!
//! The runtime counts every message and its reported wire size (see
//! [`crate::MsgSize`]), split into point-to-point and collective-internal
//! traffic. Benchmarks report these counters alongside wall-clock time so
//! that results stay meaningful on a real cluster, where message count and
//! volume — not thread-to-thread copy speed — dominate.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Which runtime layer produced a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficClass {
    /// A user-level `send`/`recv` pair.
    PointToPoint,
    /// Internal traffic of a collective operation (barrier, bcast, ...).
    Collective,
}

/// A collective operation, for per-algorithm traffic accounting. The
/// discriminant is the op's stable code (code 7, a retired reduce-scatter,
/// stays unused).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollOp {
    /// Dissemination barrier.
    Barrier = 0,
    /// Binomial-tree broadcast.
    Bcast = 1,
    /// Root-gather.
    Gather = 2,
    /// Root-scatter.
    Scatter = 3,
    /// Ring allgather.
    Allgather = 4,
    /// All-to-all exchange (pairwise or Bruck).
    Alltoall = 5,
    /// Binomial-tree reduction.
    Reduce = 6,
    /// Allreduce: binomial reduce, then binomial broadcast.
    Allreduce = 8,
    /// Linear-chain prefix scan.
    Scan = 9,
}

impl CollOp {
    /// Length of the per-op counter tables: one past the largest code.
    pub const COUNT: usize = 10;
    /// Every operation, in code order.
    pub const ALL: [CollOp; 9] = [
        CollOp::Barrier,
        CollOp::Bcast,
        CollOp::Gather,
        CollOp::Scatter,
        CollOp::Allgather,
        CollOp::Alltoall,
        CollOp::Reduce,
        CollOp::Allreduce,
        CollOp::Scan,
    ];

    /// Position in the per-op counter tables. Also the stable op code
    /// carried in trace-event args (`CollMsg`/`CollClone`/`CollAlloc`).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// A fault injected by the fault plane, for accounting purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultClass {
    /// Message silently dropped.
    Dropped,
    /// Message delivered twice.
    Duplicated,
    /// Message delivered with a damaged checksum.
    Corrupted,
    /// Message visibility delayed beyond the network model.
    Delayed,
    /// A rank died.
    RankDeath,
}

/// Live counters for one world. All methods are thread-safe.
#[derive(Default)]
pub struct WorldStats {
    p2p_msgs: AtomicU64,
    p2p_bytes: AtomicU64,
    coll_msgs: AtomicU64,
    coll_bytes: AtomicU64,
    /// Per-[`CollOp`] message/byte/clone counters, indexed by
    /// [`CollOp::index`].
    coll_op_msgs: [AtomicU64; CollOp::COUNT],
    coll_op_bytes: [AtomicU64; CollOp::COUNT],
    coll_op_clones: [AtomicU64; CollOp::COUNT],
    /// Payload clones the transport made so that each of several receivers
    /// owns its message (collective clones and multicast fan-out).
    payload_clones: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    corrupted: AtomicU64,
    delayed: AtomicU64,
    deaths: AtomicU64,
    /// Receives that failed with [`crate::RuntimeError::Timeout`].
    recv_timeouts: AtomicU64,
    /// Operations that failed with [`crate::RuntimeError::PeerDead`].
    peer_dead_errors: AtomicU64,
    /// High-water mark of payload bytes resident in any single rank's
    /// mailbox — the per-rank peak transfer memory an eager transport
    /// actually commits. Folded in at the send choke point.
    transfer_peak_bytes: AtomicU64,
}

/// One measured sample of a rank's mailbox occupancy — the *queue depth*
/// an autoscaler judges load by. Unlike the monotone counters above, this
/// is a gauge: each sample replaces the last. `peak_bytes` is the
/// high-water mark since the previous sample (the sampler resets it), so a
/// backlog that built and drained entirely between samples is still seen.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MailboxGauge {
    /// Payload bytes resident in the mailbox right now.
    pub live_bytes: u64,
    /// High-water mark of resident bytes since the previous sample.
    pub peak_bytes: u64,
    /// Messages queued (undelivered envelopes) right now.
    pub depth_msgs: u64,
}

impl WorldStats {
    /// Creates zeroed counters.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records one sent message of `bytes` wire bytes.
    pub(crate) fn record(&self, class: TrafficClass, bytes: usize) {
        match class {
            TrafficClass::PointToPoint => {
                self.p2p_msgs.fetch_add(1, Ordering::Relaxed);
                self.p2p_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
            }
            TrafficClass::Collective => {
                self.coll_msgs.fetch_add(1, Ordering::Relaxed);
                self.coll_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
            }
        }
    }

    /// Records one message of `bytes` wire bytes attributed to a specific
    /// collective algorithm (in addition to the aggregate
    /// [`TrafficClass::Collective`] counters, which the send path updates).
    pub(crate) fn record_coll(&self, op: CollOp, bytes: usize) {
        let i = op.index();
        self.coll_op_msgs[i].fetch_add(1, Ordering::Relaxed);
        self.coll_op_bytes[i].fetch_add(bytes as u64, Ordering::Relaxed);
        // Trace and counters update at the same site so the two accounting
        // paths cannot drift (asserted by the trace/stats cross-check test).
        mxn_trace::emit_instant(mxn_trace::EventId::CollMsg, [i as u64, bytes as u64, 0, 0]);
    }

    /// Records one payload clone made by a collective algorithm.
    pub(crate) fn record_coll_clone(&self, op: CollOp) {
        self.coll_op_clones[op.index()].fetch_add(1, Ordering::Relaxed);
        self.payload_clones.fetch_add(1, Ordering::Relaxed);
        mxn_trace::emit_instant(mxn_trace::EventId::CollClone, [op.index() as u64, 1, 0, 0]);
    }

    /// Records one payload clone outside any collective (a multicast to
    /// one more destination).
    pub(crate) fn record_payload_clone(&self) {
        self.payload_clones.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one injected fault (called by the fault plane's send path).
    pub(crate) fn record_fault(&self, class: FaultClass) {
        let counter = match class {
            FaultClass::Dropped => &self.dropped,
            FaultClass::Duplicated => &self.duplicated,
            FaultClass::Corrupted => &self.corrupted,
            FaultClass::Delayed => &self.delayed,
            FaultClass::RankDeath => &self.deaths,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one receive that failed with `Timeout`.
    pub(crate) fn record_recv_timeout(&self) {
        self.recv_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one operation that failed with `PeerDead`.
    pub(crate) fn record_peer_dead_error(&self) {
        self.peer_dead_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Raises the per-rank transfer-memory high-water mark to `peak` if it
    /// is higher than anything recorded so far (CAS-max).
    pub(crate) fn note_transfer_peak(&self, peak: u64) {
        self.transfer_peak_bytes.fetch_max(peak, Ordering::Relaxed);
    }

    /// Snapshot of the counters.
    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        let table = |arr: &[AtomicU64; CollOp::COUNT]| {
            let mut out = [0u64; CollOp::COUNT];
            for (o, a) in out.iter_mut().zip(arr) {
                *o = a.load(Ordering::Relaxed);
            }
            out
        };
        StatsSnapshot {
            p2p_messages: self.p2p_msgs.load(Ordering::Relaxed),
            p2p_bytes: self.p2p_bytes.load(Ordering::Relaxed),
            collective_messages: self.coll_msgs.load(Ordering::Relaxed),
            collective_bytes: self.coll_bytes.load(Ordering::Relaxed),
            coll_op_messages: table(&self.coll_op_msgs),
            coll_op_bytes: table(&self.coll_op_bytes),
            coll_op_payload_clones: table(&self.coll_op_clones),
            coll_op_payload_allocs: [0; CollOp::COUNT],
            payload_clones: self.payload_clones.load(Ordering::Relaxed),
            payload_allocs: 0,
            dropped_messages: self.dropped.load(Ordering::Relaxed),
            duplicated_messages: self.duplicated.load(Ordering::Relaxed),
            corrupted_messages: self.corrupted.load(Ordering::Relaxed),
            delayed_messages: self.delayed.load(Ordering::Relaxed),
            rank_deaths: self.deaths.load(Ordering::Relaxed),
            recv_timeouts: self.recv_timeouts.load(Ordering::Relaxed),
            peer_dead_errors: self.peer_dead_errors.load(Ordering::Relaxed),
            transfer_peak_bytes: self.transfer_peak_bytes.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a world's traffic counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Point-to-point messages sent.
    pub p2p_messages: u64,
    /// Point-to-point bytes sent.
    pub p2p_bytes: u64,
    /// Collective-internal messages sent.
    pub collective_messages: u64,
    /// Collective-internal bytes sent.
    pub collective_bytes: u64,
    /// Messages per collective algorithm, indexed like [`CollOp::ALL`].
    pub coll_op_messages: [u64; CollOp::COUNT],
    /// Bytes per collective algorithm.
    pub coll_op_bytes: [u64; CollOp::COUNT],
    /// Payload clones per collective algorithm: one per message that
    /// delivers a value the sender keeps or sends again.
    pub coll_op_payload_clones: [u64; CollOp::COUNT],
    /// Always zero: every payload is owned, so no algorithm allocates a
    /// value to share it. Kept so reports keep their columns.
    pub coll_op_payload_allocs: [u64; CollOp::COUNT],
    /// Payload clones across the whole transport: the collectives' clones
    /// plus one per multicast destination but the last.
    pub payload_clones: u64,
    /// Always zero: every payload is owned, so the transport never
    /// allocates a value to share it. Kept so reports keep their columns.
    pub payload_allocs: u64,
    /// Messages dropped by the fault plane.
    pub dropped_messages: u64,
    /// Messages duplicated by the fault plane.
    pub duplicated_messages: u64,
    /// Messages corrupted by the fault plane.
    pub corrupted_messages: u64,
    /// Messages delayed by the fault plane (beyond the network model).
    pub delayed_messages: u64,
    /// Ranks that died (scheduled or explicit kills).
    pub rank_deaths: u64,
    /// Receives that returned a `Timeout` error.
    pub recv_timeouts: u64,
    /// Operations that returned a `PeerDead` error.
    pub peer_dead_errors: u64,
    /// High-water mark of payload bytes resident in any single rank's
    /// mailbox. A *high-water mark*, not a counter: [`Self::since`] carries
    /// the later value instead of subtracting (reset between phases to
    /// measure one phase's peak).
    pub transfer_peak_bytes: u64,
}

impl StatsSnapshot {
    /// Total messages of both classes.
    pub fn total_messages(&self) -> u64 {
        self.p2p_messages + self.collective_messages
    }

    /// Per-algorithm view: (messages, bytes, payload clones) attributed to
    /// `op`.
    pub fn coll(&self, op: CollOp) -> CollOpStats {
        let i = op.index();
        CollOpStats {
            messages: self.coll_op_messages[i],
            bytes: self.coll_op_bytes[i],
            payload_clones: self.coll_op_payload_clones[i],
        }
    }

    /// Difference `self - earlier`, for measuring a phase.
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        let sub = |a: &[u64; CollOp::COUNT], b: &[u64; CollOp::COUNT]| {
            let mut out = [0u64; CollOp::COUNT];
            for i in 0..CollOp::COUNT {
                out[i] = a[i] - b[i];
            }
            out
        };
        StatsSnapshot {
            p2p_messages: self.p2p_messages - earlier.p2p_messages,
            p2p_bytes: self.p2p_bytes - earlier.p2p_bytes,
            collective_messages: self.collective_messages - earlier.collective_messages,
            collective_bytes: self.collective_bytes - earlier.collective_bytes,
            coll_op_messages: sub(&self.coll_op_messages, &earlier.coll_op_messages),
            coll_op_bytes: sub(&self.coll_op_bytes, &earlier.coll_op_bytes),
            coll_op_payload_clones: sub(
                &self.coll_op_payload_clones,
                &earlier.coll_op_payload_clones,
            ),
            coll_op_payload_allocs: sub(
                &self.coll_op_payload_allocs,
                &earlier.coll_op_payload_allocs,
            ),
            payload_clones: self.payload_clones - earlier.payload_clones,
            payload_allocs: self.payload_allocs - earlier.payload_allocs,
            dropped_messages: self.dropped_messages - earlier.dropped_messages,
            duplicated_messages: self.duplicated_messages - earlier.duplicated_messages,
            corrupted_messages: self.corrupted_messages - earlier.corrupted_messages,
            delayed_messages: self.delayed_messages - earlier.delayed_messages,
            rank_deaths: self.rank_deaths - earlier.rank_deaths,
            recv_timeouts: self.recv_timeouts - earlier.recv_timeouts,
            peer_dead_errors: self.peer_dead_errors - earlier.peer_dead_errors,
            // High-water mark: monotone, so the later snapshot's value *is*
            // the peak over the combined interval.
            transfer_peak_bytes: self.transfer_peak_bytes,
        }
    }
}

/// Per-collective-algorithm counters extracted from a [`StatsSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CollOpStats {
    /// Messages sent by this algorithm.
    pub messages: u64,
    /// Payload bytes sent by this algorithm.
    pub bytes: u64,
    /// Payload clones made by this algorithm.
    pub payload_clones: u64,
}

/// Per-thread schedule-pipeline counters.
///
/// Schedule construction and transfer execution are measured per rank, and
/// in this runtime every rank is its own thread — so thread-local counters
/// give each rank (and each `cargo test` thread) a deterministic, isolated
/// view without cross-rank interference.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleStats {
    /// Schedules built on this thread.
    pub builds: u64,
    /// Candidate peers examined across all builds — the pruning metric: a
    /// naive build probes `nranks` peers, a pruned build only the peers
    /// whose patches can overlap.
    pub peer_probes: u64,
    /// Non-empty per-peer pair lists emitted by builds.
    pub pairs_emitted: u64,
    /// Elements moved through plan-driven pack/unpack/local copies.
    pub elements_copied: u64,
    /// Contiguous copy runs executed by plan-driven transfers.
    pub copy_runs: u64,
    /// Transfer buffers leased from a pool.
    pub buffer_leases: u64,
    /// Leases that had to allocate a fresh buffer (pool empty). In steady
    /// state this stops growing: buffers circulate instead.
    pub buffer_allocs: u64,
    /// Transfer bytes this rank's executor currently holds live (leased or
    /// packed, not yet sent / not yet recycled).
    pub transfer_live_bytes: u64,
    /// High-water mark of [`Self::transfer_live_bytes`] — the executor-side
    /// half of per-rank peak transfer memory (the mailbox-side half lives in
    /// [`StatsSnapshot::transfer_peak_bytes`]).
    pub transfer_peak_bytes: u64,
    /// High-water mark of bytes parked idle in `TransferBuffers` pools on
    /// this thread.
    pub pool_peak_bytes: u64,
}

thread_local! {
    static SCHEDULE_STATS: Cell<ScheduleStats> = const { Cell::new(ScheduleStats {
        builds: 0,
        peer_probes: 0,
        pairs_emitted: 0,
        elements_copied: 0,
        copy_runs: 0,
        buffer_leases: 0,
        buffer_allocs: 0,
        transfer_live_bytes: 0,
        transfer_peak_bytes: 0,
        pool_peak_bytes: 0,
    }) };
}

/// Snapshot of this thread's schedule counters.
pub fn schedule_stats() -> ScheduleStats {
    SCHEDULE_STATS.with(Cell::get)
}

/// Zeroes this thread's schedule counters (between measurement phases).
pub fn reset_schedule_stats() {
    SCHEDULE_STATS.with(|c| c.set(ScheduleStats::default()));
}

/// Records one schedule build: candidate peers examined and non-empty
/// per-peer pair lists produced.
pub fn record_schedule_build(peer_probes: u64, pairs_emitted: u64) {
    SCHEDULE_STATS.with(|c| {
        let mut s = c.get();
        s.builds += 1;
        s.peer_probes += peer_probes;
        s.pairs_emitted += pairs_emitted;
        c.set(s);
    });
}

/// Records plan-driven copy work: `elements` moved in `runs` contiguous runs.
pub fn record_schedule_copy(elements: u64, runs: u64) {
    SCHEDULE_STATS.with(|c| {
        let mut s = c.get();
        s.elements_copied += elements;
        s.copy_runs += runs;
        c.set(s);
    });
}

/// Records a transfer-buffer lease; `fresh` when the pool had to allocate.
pub fn record_buffer_lease(fresh: bool) {
    SCHEDULE_STATS.with(|c| {
        let mut s = c.get();
        s.buffer_leases += 1;
        s.buffer_allocs += u64::from(fresh);
        c.set(s);
    });
}

/// Records `bytes` of transfer memory acquired by this rank's executor
/// (buffer leased and filled), raising the thread's high-water mark.
pub fn record_transfer_acquired(bytes: u64) {
    SCHEDULE_STATS.with(|c| {
        let mut s = c.get();
        s.transfer_live_bytes += bytes;
        s.transfer_peak_bytes = s.transfer_peak_bytes.max(s.transfer_live_bytes);
        c.set(s);
    });
}

/// Records `bytes` of transfer memory released (buffer sent away or
/// recycled).
pub fn record_transfer_released(bytes: u64) {
    SCHEDULE_STATS.with(|c| {
        let mut s = c.get();
        s.transfer_live_bytes = s.transfer_live_bytes.saturating_sub(bytes);
        c.set(s);
    });
}

/// Raises this thread's idle-pool-bytes high-water mark to `idle_bytes`.
pub fn record_pool_bytes(idle_bytes: u64) {
    SCHEDULE_STATS.with(|c| {
        let mut s = c.get();
        s.pool_peak_bytes = s.pool_peak_bytes.max(idle_bytes);
        c.set(s);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_counters_are_thread_local() {
        reset_schedule_stats();
        record_schedule_build(3, 2);
        record_schedule_copy(100, 4);
        record_buffer_lease(true);
        record_buffer_lease(false);
        let s = schedule_stats();
        assert_eq!(s.builds, 1);
        assert_eq!(s.peer_probes, 3);
        assert_eq!(s.pairs_emitted, 2);
        assert_eq!(s.elements_copied, 100);
        assert_eq!(s.copy_runs, 4);
        assert_eq!(s.buffer_leases, 2);
        assert_eq!(s.buffer_allocs, 1);

        let other = std::thread::spawn(schedule_stats).join().unwrap();
        assert_eq!(other, ScheduleStats::default(), "isolated per thread");

        reset_schedule_stats();
        assert_eq!(schedule_stats(), ScheduleStats::default());
    }

    #[test]
    fn transfer_peak_is_a_high_water_mark() {
        let s = WorldStats::new();
        s.note_transfer_peak(100);
        s.note_transfer_peak(40);
        let snap = s.snapshot();
        assert_eq!(snap.transfer_peak_bytes, 100, "lower observations never regress the peak");
        s.note_transfer_peak(250);
        let later = s.snapshot();
        assert_eq!(later.transfer_peak_bytes, 250);
        assert_eq!(later.since(&snap).transfer_peak_bytes, 250, "since carries, not subtracts");
    }

    #[test]
    fn executor_transfer_and_pool_peaks_track_live_bytes() {
        reset_schedule_stats();
        record_transfer_acquired(64);
        record_transfer_acquired(32);
        record_transfer_released(64);
        record_transfer_acquired(16);
        record_pool_bytes(40);
        record_pool_bytes(8);
        let s = schedule_stats();
        assert_eq!(s.transfer_live_bytes, 48);
        assert_eq!(s.transfer_peak_bytes, 96);
        assert_eq!(s.pool_peak_bytes, 40);
        reset_schedule_stats();
    }

    #[test]
    fn record_and_snapshot() {
        let s = WorldStats::new();
        s.record(TrafficClass::PointToPoint, 100);
        s.record(TrafficClass::PointToPoint, 50);
        s.record(TrafficClass::Collective, 8);
        let snap = s.snapshot();
        assert_eq!(snap.p2p_messages, 2);
        assert_eq!(snap.p2p_bytes, 150);
        assert_eq!(snap.collective_messages, 1);
        assert_eq!(snap.collective_bytes, 8);
        assert_eq!(snap.total_messages(), 3);
    }

    #[test]
    fn since_computes_phase_delta() {
        let s = WorldStats::new();
        s.record(TrafficClass::PointToPoint, 10);
        let before = s.snapshot();
        s.record(TrafficClass::PointToPoint, 20);
        s.record(TrafficClass::Collective, 5);
        let delta = s.snapshot().since(&before);
        assert_eq!(delta.p2p_messages, 1);
        assert_eq!(delta.p2p_bytes, 20);
        assert_eq!(delta.collective_bytes, 5);
    }

    #[test]
    fn per_collective_counters_accumulate() {
        let s = WorldStats::new();
        s.record_coll(CollOp::Bcast, 100);
        s.record_coll(CollOp::Bcast, 100);
        s.record_coll(CollOp::Allreduce, 8);
        for _ in 0..3 {
            s.record_coll_clone(CollOp::Bcast);
        }
        s.record_payload_clone();
        let before = s.snapshot();
        let bcast = before.coll(CollOp::Bcast);
        assert_eq!(bcast, CollOpStats { messages: 2, bytes: 200, payload_clones: 3 });
        assert_eq!(before.coll(CollOp::Allreduce).messages, 1);
        assert_eq!(before.coll(CollOp::Barrier), CollOpStats::default());
        assert_eq!(before.payload_clones, 4, "per-op clones roll up into the global counter");

        s.record_coll(CollOp::Bcast, 50);
        let delta = s.snapshot().since(&before);
        assert_eq!(
            delta.coll(CollOp::Bcast),
            CollOpStats { messages: 1, bytes: 50, ..Default::default() }
        );
    }

    #[test]
    fn coll_op_codes_are_stable() {
        let codes: Vec<usize> = CollOp::ALL.iter().map(|op| op.index()).collect();
        assert_eq!(codes, [0, 1, 2, 3, 4, 5, 6, 8, 9]);
        assert_eq!(CollOp::COUNT, 10);
    }

    #[test]
    fn fault_counters_accumulate() {
        let s = WorldStats::new();
        s.record_fault(FaultClass::Dropped);
        s.record_fault(FaultClass::Dropped);
        s.record_fault(FaultClass::Duplicated);
        s.record_fault(FaultClass::Corrupted);
        s.record_fault(FaultClass::Delayed);
        s.record_fault(FaultClass::RankDeath);
        let snap = s.snapshot();
        assert_eq!(snap.dropped_messages, 2);
        assert_eq!(snap.duplicated_messages, 1);
        assert_eq!(snap.corrupted_messages, 1);
        assert_eq!(snap.delayed_messages, 1);
        assert_eq!(snap.rank_deaths, 1);
        assert_eq!(snap.total_messages(), 0, "faults are not traffic");
    }

    #[test]
    fn recv_error_counters_accumulate() {
        let s = WorldStats::new();
        s.record_recv_timeout();
        s.record_recv_timeout();
        s.record_peer_dead_error();
        let snap = s.snapshot();
        assert_eq!(snap.recv_timeouts, 2);
        assert_eq!(snap.peer_dead_errors, 1);
        let delta = s.snapshot().since(&snap);
        assert_eq!(delta.recv_timeouts, 0);
    }
}
