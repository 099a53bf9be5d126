//! Structured event tracing: per-rank lock-free recorders, merged run
//! traces, Chrome trace-event export, and canonical digests.
//!
//! The M×N pipeline — describe decompositions, build a schedule, execute
//! the transfer or PRMI — emits structured events with **stable ids** at
//! every architecturally interesting point (schedule build, `CopyPlan`
//! execution, collective algorithm selection, mailbox post/match, PRMI
//! call/serve, the DCA delivery barrier, fault injections). This crate is
//! the substrate; the recording *points* live in `mxn-runtime`,
//! `mxn-schedule`, `mxn-dca`, `mxn-prmi` and `mxn-framework`.
//!
//! Design constraints, in order:
//!
//! 1. **A disabled tracer is a branch.** Every [`emit`] first reads one
//!    process-global `AtomicBool` (relaxed) and returns; no thread-local
//!    access, no allocation, no fence. The mailbox-flood bench holds the
//!    disabled-tracer overhead under 5% (EXPERIMENTS.md E20).
//! 2. **Recording is lock-free and per-rank.** Each rank thread owns a
//!    [`RankRecorder`]: a chunked append-only buffer where a slot is
//!    claimed by `fetch_add` on the sequence counter and published with a
//!    release store on a ready flag. Claiming doubles as the rank's
//!    **logical clock**: sequence numbers are strictly monotone in
//!    program order.
//! 3. **Determinism is a test axiom.** The canonical serialization and
//!    digest cover only logical fields — `(rank, seq, id, phase, args)` —
//!    never wall time, so identical seeds ⇒ identical digests, byte for
//!    byte, across machines (the golden-trace suite).
//!
//! Rank threads find their recorder through a thread-local installed by
//! [`TraceHandle::install`] (done by `World`/`Universe` traced runs), so
//! leaf crates emit events without any API plumbing. At teardown the
//! [`TraceCollector`] drains every rank buffer into a merged [`RunTrace`]
//! ordered by `(rank, seq)`.

#![warn(unreachable_pub)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Stable event identifiers. The numeric values are part of the
/// golden-trace format: never renumber, only append.
#[repr(u16)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventId {
    /// Schedule-construction span; End args = `[peer_probes, pairs_emitted]`.
    ScheduleBuild = 1,
    /// One `CopyPlan` pack execution; args = `[elements, runs]`.
    CopyPack = 2,
    /// One `CopyPlan` unpack execution; args = `[elements, runs]`.
    CopyUnpack = 3,
    /// Transfer-pool lease; args = `[fresh]` (0 = recycled, 1 = allocated).
    BufferLease = 4,
    /// One collective operation span; Begin args =
    /// `[op, algorithm, bytes_hint, rounds]` (codes defined by the runtime).
    Collective = 5,
    /// One collective point-to-point message; args = `[op, bytes]`.
    CollMsg = 6,
    /// Payload deep-clone attributed to a collective; args = `[op, n]`.
    CollClone = 7,
    /// Payload allocation attributed to a collective; args = `[op, n]`.
    CollAlloc = 8,
    /// Envelope posted to a peer mailbox; args = `[context, tag, dst, bytes]`.
    MailboxPost = 9,
    /// Envelope matched by a receive; args = `[context, tag, src, bytes]`.
    MailboxMatch = 10,
    /// Operation failed; args = `[code, src, tag]` (codes defined by the
    /// runtime: timeout, peer-dead, corrupt, …).
    OpError = 11,
    /// PRMI collective/subset call span; args = `[method, seq]`.
    PrmiCall = 12,
    /// PRMI serve-side dispatch; args = `[method, seq]`.
    PrmiServe = 13,
    /// Serial RMI call span; args = `[method, call_id]`.
    RmiCall = 14,
    /// Serial RMI serve-side dispatch; args = `[method, src]`.
    RmiServe = 15,
    /// DCA intra-component alltoallv span; Begin args =
    /// `[algorithm, max_chunk_bytes]`.
    DcaAlltoallv = 16,
    /// DCA/PRMI delivery barrier executed before shares are sent;
    /// args = `[participants]`.
    DcaBarrier = 17,
    /// Fault-plane injection applied to a message; args =
    /// `[kind, dst, tag, bytes]`.
    FaultInject = 18,
    /// A communicator context pair was revoked; args = `[context]`.
    Revoke = 19,
    /// Fault-tolerant agreement span; End args = `[members, heard]`
    /// (`heard` = peers whose contribution arrived before the deadline).
    Agree = 20,
    /// Survivor-set shrink; args = `[old_size, new_size, new_context]`.
    Shrink = 21,
    /// Connection heal span (shrink + schedule rebuild); End args =
    /// `[epoch, survivors]`.
    Heal = 22,
    /// Transactional transfer committed; args = `[epoch, seq]`.
    Commit = 23,
    /// Transactional transfer rolled back; args = `[epoch, seq]`.
    Rollback = 24,
    /// A wire-transport link was established (or accepted); args =
    /// `[peer, attempt, resumed_frames, listener]`.
    WireConnect = 25,
    /// A wire-transport reconnect attempt span; End args =
    /// `[peer, attempt, success]`.
    WireReconnect = 26,
    /// A received frame failed its CRC (payload or header); args =
    /// `[peer, kind, bytes, header_ok]`.
    WireFrameCorrupt = 27,
    /// A peer missed its heartbeat/liveness deadline; args =
    /// `[peer, silence_micros, deadline_micros]`.
    HeartbeatMiss = 28,
    /// Serving-plane client connection lifecycle; args =
    /// `[conn, shard, opened]` (1 = accepted, 0 = closed).
    ServeConn = 29,
    /// One shard batch dispatch span; Begin args =
    /// `[shard, method, batch_len, queue_depth]`.
    ServeBatch = 30,
    /// Admission control shed a request with an `Overloaded` NACK; args =
    /// `[shard, conn, queue_depth]`.
    ServeOverload = 31,
    /// A slow client's reader was parked (cooperative backpressure);
    /// args = `[conn, inflight, budget]`.
    ServePark = 32,
    /// One budgeted redistribution under a chosen route; Begin args =
    /// `[kind, budget_bytes, planned_peak_bytes, steps]`, End args =
    /// `[kind, total_bytes, 0, 0]`.
    RoutePlan = 33,
    /// One step of a compiled redistribution route; Begin args =
    /// `[kind, step_index, step_bytes, step_peak_bytes]`.
    RouteStep = 34,
    /// An RMA window was exposed (collective epoch open); args =
    /// `[win_id, exposed_elems, members, 0]`.
    RmaExpose = 35,
    /// One-sided put issued against a window; args =
    /// `[win_id, target, dst_off, elems]`.
    RmaPut = 36,
    /// One-sided get issued against a window; args =
    /// `[win_id, target, runs, elems]`.
    RmaGet = 37,
    /// RMA fence span completing a window epoch; Begin args =
    /// `[win_id, my_puts, my_gets, 0]`, End args =
    /// `[win_id, served_puts, served_gets, 0]`.
    RmaFence = 38,
    /// An intercomm membership reconfiguration (grow or graceful contract)
    /// committed; args = `[participants, new_total, new_context, attempt]`.
    Expand = 39,
    /// Progress-fence zombie verdict transition on a wire peer; args =
    /// `[peer, transition, stalled_fences, micros_since_quarantine]` where
    /// `transition` is 1 = quarantined, 2 = re-admitted, 3 = evicted.
    WireZombie = 40,
    /// Wire-mesh join handshake outcome at the sponsor; args =
    /// `[new_rank, attempt, committed, mesh_size]`.
    WireJoin = 41,
}

/// Every id, in numeric order (drives aggregation tables).
pub const ALL_EVENT_IDS: [EventId; 41] = [
    EventId::ScheduleBuild,
    EventId::CopyPack,
    EventId::CopyUnpack,
    EventId::BufferLease,
    EventId::Collective,
    EventId::CollMsg,
    EventId::CollClone,
    EventId::CollAlloc,
    EventId::MailboxPost,
    EventId::MailboxMatch,
    EventId::OpError,
    EventId::PrmiCall,
    EventId::PrmiServe,
    EventId::RmiCall,
    EventId::RmiServe,
    EventId::DcaAlltoallv,
    EventId::DcaBarrier,
    EventId::FaultInject,
    EventId::Revoke,
    EventId::Agree,
    EventId::Shrink,
    EventId::Heal,
    EventId::Commit,
    EventId::Rollback,
    EventId::WireConnect,
    EventId::WireReconnect,
    EventId::WireFrameCorrupt,
    EventId::HeartbeatMiss,
    EventId::ServeConn,
    EventId::ServeBatch,
    EventId::ServeOverload,
    EventId::ServePark,
    EventId::RoutePlan,
    EventId::RouteStep,
    EventId::RmaExpose,
    EventId::RmaPut,
    EventId::RmaGet,
    EventId::RmaFence,
    EventId::Expand,
    EventId::WireZombie,
    EventId::WireJoin,
];

impl EventId {
    /// Stable display name (also the Chrome trace event name).
    pub(crate) fn name(self) -> &'static str {
        match self {
            EventId::ScheduleBuild => "ScheduleBuild",
            EventId::CopyPack => "CopyPack",
            EventId::CopyUnpack => "CopyUnpack",
            EventId::BufferLease => "BufferLease",
            EventId::Collective => "Collective",
            EventId::CollMsg => "CollMsg",
            EventId::CollClone => "CollClone",
            EventId::CollAlloc => "CollAlloc",
            EventId::MailboxPost => "MailboxPost",
            EventId::MailboxMatch => "MailboxMatch",
            EventId::OpError => "OpError",
            EventId::PrmiCall => "PrmiCall",
            EventId::PrmiServe => "PrmiServe",
            EventId::RmiCall => "RmiCall",
            EventId::RmiServe => "RmiServe",
            EventId::DcaAlltoallv => "DcaAlltoallv",
            EventId::DcaBarrier => "DcaBarrier",
            EventId::FaultInject => "FaultInject",
            EventId::Revoke => "Revoke",
            EventId::Agree => "Agree",
            EventId::Shrink => "Shrink",
            EventId::Heal => "Heal",
            EventId::Commit => "Commit",
            EventId::Rollback => "Rollback",
            EventId::WireConnect => "WireConnect",
            EventId::WireReconnect => "WireReconnect",
            EventId::WireFrameCorrupt => "WireFrameCorrupt",
            EventId::HeartbeatMiss => "HeartbeatMiss",
            EventId::ServeConn => "ServeConn",
            EventId::ServeBatch => "ServeBatch",
            EventId::ServeOverload => "ServeOverload",
            EventId::ServePark => "ServePark",
            EventId::RoutePlan => "RoutePlan",
            EventId::RouteStep => "RouteStep",
            EventId::RmaExpose => "RmaExpose",
            EventId::RmaPut => "RmaPut",
            EventId::RmaGet => "RmaGet",
            EventId::RmaFence => "RmaFence",
            EventId::Expand => "Expand",
            EventId::WireZombie => "WireZombie",
            EventId::WireJoin => "WireJoin",
        }
    }

    /// Category grouping for aggregation and the Chrome `cat` field.
    pub(crate) fn category(self) -> &'static str {
        match self {
            EventId::ScheduleBuild
            | EventId::CopyPack
            | EventId::CopyUnpack
            | EventId::BufferLease
            | EventId::RoutePlan
            | EventId::RouteStep => "schedule",
            EventId::Collective | EventId::CollMsg | EventId::CollClone | EventId::CollAlloc => {
                "collective"
            }
            EventId::MailboxPost | EventId::MailboxMatch | EventId::OpError => "mailbox",
            EventId::PrmiCall | EventId::PrmiServe | EventId::DcaBarrier => "prmi",
            EventId::RmiCall | EventId::RmiServe => "rmi",
            EventId::DcaAlltoallv => "dca",
            EventId::FaultInject => "fault",
            EventId::Revoke
            | EventId::Agree
            | EventId::Shrink
            | EventId::Heal
            | EventId::Commit
            | EventId::Rollback
            | EventId::Expand => "recovery",
            EventId::RmaExpose | EventId::RmaPut | EventId::RmaGet | EventId::RmaFence => "rma",
            EventId::WireConnect
            | EventId::WireReconnect
            | EventId::WireFrameCorrupt
            | EventId::HeartbeatMiss
            | EventId::WireZombie
            | EventId::WireJoin => "wire",
            EventId::ServeConn
            | EventId::ServeBatch
            | EventId::ServeOverload
            | EventId::ServePark => "serve",
        }
    }

    /// Reverses the stable numeric id.
    pub(crate) fn from_u16(v: u16) -> Option<EventId> {
        ALL_EVENT_IDS.iter().copied().find(|id| *id as u16 == v)
    }

    /// True if events with this id are part of the canonical serialization
    /// (and therefore the digest).
    ///
    /// Excluded ids record *physical* outcomes that legitimately differ
    /// between runs of the same seeded program: which receiver won an
    /// `Arc` refcount race ([`EventId::CollClone`], [`EventId::CollAlloc`]),
    /// which sender a wildcard receive happened to match
    /// ([`EventId::MailboxMatch`]), how many timeout polls a serve loop
    /// spun before its message arrived ([`EventId::OpError`]), how many
    /// agreement contributions beat the deadline ([`EventId::Agree`] —
    /// whether a dying rank's vote lands depends on thread interleaving),
    /// and every wire-transport event ([`EventId::WireConnect`],
    /// [`EventId::WireReconnect`], [`EventId::WireFrameCorrupt`],
    /// [`EventId::HeartbeatMiss`] — socket timing is real wall-clock
    /// physics, not seeded simulation). Serving-plane events
    /// ([`EventId::ServeConn`] … [`EventId::ServePark`]) are likewise
    /// physical: which requests share a batch and when admission sheds
    /// depend on OS thread scheduling across free-running clients.
    /// They are still recorded, merged, exported and aggregated — they just
    /// never participate in golden digests, exactly like `wall_us`.
    pub(crate) fn in_digest(self) -> bool {
        !matches!(
            self,
            EventId::CollClone
                | EventId::CollAlloc
                | EventId::MailboxMatch
                | EventId::OpError
                | EventId::Agree
                | EventId::WireConnect
                | EventId::WireReconnect
                | EventId::WireFrameCorrupt
                | EventId::HeartbeatMiss
                | EventId::ServeConn
                | EventId::ServeBatch
                | EventId::ServeOverload
                | EventId::ServePark
                | EventId::WireZombie
                | EventId::WireJoin
        )
    }
}

/// Span phase of an event.
#[repr(u8)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Span open.
    Begin = 0,
    /// Span close.
    End = 1,
    /// Point event.
    Instant = 2,
}

impl Phase {
    fn from_u8(v: u8) -> Phase {
        match v {
            0 => Phase::Begin,
            1 => Phase::End,
            _ => Phase::Instant,
        }
    }
}

/// One recorded event, as surfaced by a merged [`RunTrace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Recording rank (Chrome `tid`).
    pub rank: u32,
    /// Per-rank logical clock: strictly monotone in program order.
    pub seq: u64,
    /// What happened.
    pub id: EventId,
    /// Span phase.
    pub phase: Phase,
    /// Microseconds since the collector's epoch. Display only — **never**
    /// part of the canonical serialization or digest.
    pub wall_us: u64,
    /// Event-specific payload (see [`EventId`] docs for each layout).
    pub args: [u64; 4],
}

// ---------------------------------------------------------------------------
// Global enable gate + thread-local recorder
// ---------------------------------------------------------------------------

/// The one-branch gate every [`emit`] checks first. Kept in sync with
/// `ACTIVE_COLLECTORS` so concurrent traced runs (tests) compose.
static TRACING_ENABLED: AtomicBool = AtomicBool::new(false);
static ACTIVE_COLLECTORS: AtomicUsize = AtomicUsize::new(0);

/// True while at least one [`TraceCollector`] is live. This is the cheap
/// check: one relaxed atomic load and a branch.
#[inline(always)]
pub(crate) fn tracing_enabled() -> bool {
    TRACING_ENABLED.load(Ordering::Relaxed)
}

thread_local! {
    static RECORDER: RefCell<Option<Arc<RankRecorder>>> = const { RefCell::new(None) };
}

/// Records an event on the calling thread's installed recorder, if tracing
/// is enabled and a recorder is installed. The disabled path is a single
/// relaxed load + branch.
#[inline]
pub fn emit(id: EventId, phase: Phase, args: [u64; 4]) {
    if !tracing_enabled() {
        return;
    }
    emit_installed(id, phase, args);
}

#[cold]
fn emit_installed(id: EventId, phase: Phase, args: [u64; 4]) {
    RECORDER.with(|slot| {
        if let Some(rec) = slot.borrow().as_ref() {
            rec.record(id, phase, args);
        }
    });
}

/// [`emit`] with [`Phase::Instant`].
#[inline]
pub fn emit_instant(id: EventId, args: [u64; 4]) {
    emit(id, Phase::Instant, args);
}

/// Opens a span: emits `Begin(begin_args)` now and `End(end_args)` when the
/// returned guard drops (so spans close on every exit path, including `?`).
/// End args default to `[begin_args[0], 0, 0, 0]`; override with
/// [`SpanGuard::set_end`].
#[inline]
pub fn span(id: EventId, begin_args: [u64; 4]) -> SpanGuard {
    emit(id, Phase::Begin, begin_args);
    SpanGuard { id, end_args: [begin_args[0], 0, 0, 0] }
}

/// Drop guard closing a span opened by [`span`].
pub struct SpanGuard {
    id: EventId,
    end_args: [u64; 4],
}

impl SpanGuard {
    /// Overrides the End args (e.g. counts only known when the span closes).
    pub fn set_end(&mut self, args: [u64; 4]) {
        self.end_args = args;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        emit(self.id, Phase::End, self.end_args);
    }
}

// ---------------------------------------------------------------------------
// The lock-free per-rank recorder
// ---------------------------------------------------------------------------

/// Events per chunk. A chunk is allocated lazily when the sequence counter
/// first crosses into it.
const CHUNK_CAP: usize = 4096;
/// Chunks per recorder; capacity = `MAX_CHUNKS * CHUNK_CAP` events per
/// rank, after which events are counted as dropped (never lost silently).
const MAX_CHUNKS: usize = 1024;

#[derive(Clone, Copy)]
struct RawEvent {
    id: u16,
    phase: u8,
    seq: u64,
    wall_us: u64,
    args: [u64; 4],
}

struct Slot {
    /// Publication flag: set (release) after the event is fully written.
    ready: AtomicBool,
    ev: std::cell::UnsafeCell<RawEvent>,
}

struct Chunk {
    slots: Box<[Slot]>,
}

// SAFETY: exclusive slot ownership — a slot is written exactly once, by the
// single thread that claimed its sequence number via `fetch_add`, and
// readers only dereference it after observing `ready` with acquire
// ordering, which orders the write before the read.
unsafe impl Sync for Chunk {}

impl Chunk {
    fn new() -> Chunk {
        let slots = (0..CHUNK_CAP)
            .map(|_| Slot {
                ready: AtomicBool::new(false),
                ev: std::cell::UnsafeCell::new(RawEvent {
                    id: 0,
                    phase: 0,
                    seq: 0,
                    wall_us: 0,
                    args: [0; 4],
                }),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Chunk { slots }
    }
}

/// One rank's lock-free event buffer. Appending claims a slot with a
/// `fetch_add` (the rank's logical clock), writes the event, and publishes
/// it with a release store — no locks anywhere on the record path, so
/// recorders may also be flooded from several threads (the concurrency
/// proptests do exactly that).
pub struct RankRecorder {
    rank: u32,
    next_seq: AtomicU64,
    chunks: Vec<AtomicPtr<Chunk>>,
    dropped: AtomicU64,
    epoch: Instant,
}

impl RankRecorder {
    fn new(rank: u32, epoch: Instant) -> RankRecorder {
        let chunks = (0..MAX_CHUNKS).map(|_| AtomicPtr::new(ptr::null_mut())).collect();
        RankRecorder {
            rank,
            next_seq: AtomicU64::new(0),
            chunks,
            dropped: AtomicU64::new(0),
            epoch,
        }
    }

    /// Appends one event. Lock-free: claim a sequence number, write the
    /// slot, publish. Overflow past the fixed capacity increments the
    /// dropped counter instead of blocking or reallocating.
    pub(crate) fn record(&self, id: EventId, phase: Phase, args: [u64; 4]) {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let idx = seq as usize;
        let ci = idx / CHUNK_CAP;
        if ci >= MAX_CHUNKS {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let chunk = self.chunk(ci);
        let slot = &chunk.slots[idx % CHUNK_CAP];
        let wall_us = self.epoch.elapsed().as_micros() as u64;
        // SAFETY: exclusive slot ownership — the `fetch_add` above gave this
        // thread the only claim on `seq`, so no other thread writes this
        // slot, and no reader touches it before the release store below
        // publishes the write.
        unsafe {
            *slot.ev.get() = RawEvent { id: id as u16, phase: phase as u8, seq, wall_us, args };
        }
        slot.ready.store(true, Ordering::Release);
    }

    /// Returns chunk `ci`, allocating and CAS-installing it if this is the
    /// first claim to land there. The loser of the race frees its copy.
    fn chunk(&self, ci: usize) -> &Chunk {
        let cell = &self.chunks[ci];
        let ptr = cell.load(Ordering::Acquire);
        if !ptr.is_null() {
            // SAFETY: chunk publication order — a non-null pointer was
            // installed by the compare-exchange below after the chunk was
            // fully built, and the acquire load makes that build visible.
            // Chunks are freed only in `Drop`, which needs `&mut self`, so
            // the chunk outlives the returned borrow of `self`.
            return unsafe { &*ptr };
        }
        let fresh = Box::into_raw(Box::new(Chunk::new()));
        match cell.compare_exchange(ptr::null_mut(), fresh, Ordering::AcqRel, Ordering::Acquire) {
            // SAFETY: `fresh` came from `Box::into_raw` and is now the
            // published chunk of this cell; it lives until `Drop`.
            Ok(_) => unsafe { &*fresh },
            Err(existing) => {
                // SAFETY: freeing is sound because `fresh` lost the race: it
                // was never published, so this thread holds the only pointer
                // to the box `Box::into_raw` produced above.
                unsafe { drop(Box::from_raw(fresh)) };
                // SAFETY: chunk publication order — `existing` is the chunk
                // the winning thread installed after building it, and the
                // acquire ordering of the failed exchange makes it visible.
                unsafe { &*existing }
            }
        }
    }

    /// Snapshots every published event in sequence order. Slots claimed but
    /// not yet published (a writer preempted mid-record) are counted as
    /// dropped rather than returned half-written.
    fn drain(&self) -> (Vec<TraceEvent>, u64) {
        let claimed = self.next_seq.load(Ordering::Acquire);
        let readable = claimed.min((MAX_CHUNKS * CHUNK_CAP) as u64);
        let mut out = Vec::with_capacity(readable as usize);
        let mut unpublished = 0u64;
        for seq in 0..readable {
            let idx = seq as usize;
            let ptr = self.chunks[idx / CHUNK_CAP].load(Ordering::Acquire);
            if ptr.is_null() {
                unpublished += 1;
                continue;
            }
            // SAFETY: chunk publication order — `ptr` is non-null, so it was
            // installed fully built and the acquire load made that visible;
            // `&self` keeps `Drop` from freeing it meanwhile.
            let slot = unsafe { &(*ptr).slots[idx % CHUNK_CAP] };
            if !slot.ready.load(Ordering::Acquire) {
                unpublished += 1;
                continue;
            }
            // SAFETY: exclusive slot ownership ended with the writer's
            // release store of `ready`; observing it with acquire means the
            // write is complete and no thread writes this slot again.
            let raw = unsafe { *slot.ev.get() };
            let id = EventId::from_u16(raw.id).expect("recorder only stores known event ids");
            out.push(TraceEvent {
                rank: self.rank,
                seq: raw.seq,
                id,
                phase: Phase::from_u8(raw.phase),
                wall_us: raw.wall_us,
                args: raw.args,
            });
        }
        (out, self.dropped.load(Ordering::Acquire) + unpublished)
    }
}

impl Drop for RankRecorder {
    fn drop(&mut self) {
        for cell in &self.chunks {
            let ptr = cell.load(Ordering::Acquire);
            if !ptr.is_null() {
                // SAFETY: freeing is sound here — every non-null pointer in
                // `chunks` came from `Box::into_raw` and was installed
                // exactly once, and `&mut self` proves no borrow handed out
                // by `chunk` or `drain` is still alive.
                unsafe { drop(Box::from_raw(ptr)) };
            }
        }
    }
}

/// Cheap cloneable handle to one rank's recorder.
#[derive(Clone)]
pub struct TraceHandle {
    rec: Arc<RankRecorder>,
}

impl TraceHandle {
    /// Installs this recorder as the calling thread's emit target until the
    /// guard drops (restoring whatever was installed before).
    pub fn install(&self) -> InstallGuard {
        let prev = RECORDER.with(|slot| slot.borrow_mut().replace(Arc::clone(&self.rec)));
        InstallGuard { prev }
    }

    /// Records directly on this handle's recorder, bypassing the global
    /// gate and the thread-local — the concurrency tests flood a single
    /// recorder from many threads through this.
    pub fn record(&self, id: EventId, phase: Phase, args: [u64; 4]) {
        self.rec.record(id, phase, args);
    }
}

/// Restores the previously installed recorder on drop.
pub struct InstallGuard {
    prev: Option<Arc<RankRecorder>>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        RECORDER.with(|slot| *slot.borrow_mut() = self.prev.take());
    }
}

/// Keeps the global gate up while at least one collector is live.
struct EnableGuard;

impl EnableGuard {
    fn new() -> EnableGuard {
        if ACTIVE_COLLECTORS.fetch_add(1, Ordering::SeqCst) == 0 {
            TRACING_ENABLED.store(true, Ordering::SeqCst);
        }
        EnableGuard
    }
}

impl Drop for EnableGuard {
    fn drop(&mut self) {
        if ACTIVE_COLLECTORS.fetch_sub(1, Ordering::SeqCst) == 1 {
            TRACING_ENABLED.store(false, Ordering::SeqCst);
        }
    }
}

/// Owns the per-rank recorders for one traced run. Creating a collector
/// raises the global enable gate; [`TraceCollector::finish`] (or drop)
/// lowers it. `World`/`Universe` hand each rank thread its
/// [`TraceHandle`] and call `finish` after the join.
pub struct TraceCollector {
    recorders: Vec<Arc<RankRecorder>>,
    _enable: EnableGuard,
}

impl TraceCollector {
    /// A collector with one recorder per rank, sharing one wall-clock
    /// epoch so timestamps are comparable across ranks.
    pub fn new(nranks: usize) -> TraceCollector {
        let epoch = Instant::now();
        let recorders = (0..nranks).map(|r| Arc::new(RankRecorder::new(r as u32, epoch))).collect();
        TraceCollector { recorders, _enable: EnableGuard::new() }
    }

    /// The handle for `rank`'s recorder.
    pub fn handle(&self, rank: usize) -> TraceHandle {
        TraceHandle { rec: Arc::clone(&self.recorders[rank]) }
    }

    /// Drains every rank buffer into a merged [`RunTrace`] ordered by
    /// `(rank, seq)` and lowers the enable gate.
    pub fn finish(self) -> RunTrace {
        let mut events = Vec::new();
        let mut dropped = 0;
        for rec in &self.recorders {
            let (mut evs, d) = rec.drain();
            events.append(&mut evs);
            dropped += d;
        }
        RunTrace { nranks: self.recorders.len(), events, dropped }
    }
}

// ---------------------------------------------------------------------------
// Merged run traces: canonical bytes, digest, Chrome export, aggregation
// ---------------------------------------------------------------------------

/// The merged trace of one run: every rank's events, ordered by
/// `(rank, seq)` — i.e. per-rank program order, ranks concatenated.
#[derive(Debug, Clone)]
pub struct RunTrace {
    /// Ranks that recorded.
    pub nranks: usize,
    /// Merged events.
    pub events: Vec<TraceEvent>,
    /// Events lost to buffer overflow (0 in any healthy run).
    pub dropped: u64,
}

impl RunTrace {
    /// Canonical byte serialization. Covers **logical content only**: the
    /// [`EventId::in_digest`] subset of events, in merged `(rank, seq)`
    /// order, each as `(rank, id, phase, args)` little-endian fixed width.
    /// Neither `wall_us` nor the raw `seq` is serialized — per-rank order
    /// is carried by position, so physically-raced events (clone
    /// attribution, wildcard matches, timeout polls) can neither appear in
    /// the bytes nor shift the logical clocks of the events that do.
    /// Identical seeds therefore produce identical bytes on any machine.
    pub(crate) fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.events.len() * 39);
        out.extend_from_slice(b"MXNTRACE1");
        out.extend_from_slice(&(self.nranks as u32).to_le_bytes());
        let digested = self.events.iter().filter(|e| e.id.in_digest());
        out.extend_from_slice(&(digested.clone().count() as u64).to_le_bytes());
        for ev in digested {
            out.extend_from_slice(&ev.rank.to_le_bytes());
            out.extend_from_slice(&(ev.id as u16).to_le_bytes());
            out.push(ev.phase as u8);
            for a in ev.args {
                out.extend_from_slice(&a.to_le_bytes());
            }
        }
        out
    }

    /// FNV-1a digest of the canonical event bytes. Deterministic runs must
    /// produce identical digests — the golden-trace axiom.
    pub(crate) fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.canonical_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// The FNV-1a digest of the canonical event bytes as a fixed-width hex
    /// string (golden files). Deterministic runs must produce identical
    /// digests — the golden-trace axiom.
    pub fn digest_hex(&self) -> String {
        format!("{:016x}", self.digest())
    }

    /// Chrome trace-event JSON (load via `chrome://tracing` or Perfetto):
    /// `pid` 0, `tid` = rank, `ts` in microseconds from the run epoch.
    pub fn chrome_json(&self) -> String {
        let mut s = String::from("{\"traceEvents\":[\n");
        for (i, ev) in self.events.iter().enumerate() {
            let ph = match ev.phase {
                Phase::Begin => "B",
                Phase::End => "E",
                Phase::Instant => "i",
            };
            let scope = if ev.phase == Phase::Instant { ",\"s\":\"t\"" } else { "" };
            let _ = write!(
                s,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\"{},\"pid\":0,\"tid\":{},\"ts\":{},\"args\":{{\"seq\":{},\"a0\":{},\"a1\":{},\"a2\":{},\"a3\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                ev.id.name(),
                ev.id.category(),
                ph,
                scope,
                ev.rank,
                ev.wall_us,
                ev.seq,
                ev.args[0],
                ev.args[1],
                ev.args[2],
                ev.args[3],
            );
        }
        s.push_str("\n]}\n");
        s
    }

    /// Per-category aggregation tables.
    pub fn aggregate(&self) -> TraceAggregate {
        let mut agg = TraceAggregate::default();
        for ev in &self.events {
            if ev.phase != Phase::End {
                *agg.counts.entry(ev.id).or_insert(0) += 1;
            }
            match ev.id {
                EventId::CollMsg => {
                    let t = agg.coll.entry(ev.args[0]).or_default();
                    t.messages += 1;
                    t.bytes += ev.args[1];
                }
                EventId::CollClone => agg.coll.entry(ev.args[0]).or_default().clones += ev.args[1],
                EventId::CollAlloc => agg.coll.entry(ev.args[0]).or_default().allocs += ev.args[1],
                EventId::OpError if ev.phase != Phase::End => {
                    *agg.errors.entry(ev.args[0]).or_insert(0) += 1;
                }
                _ => {}
            }
        }
        agg
    }

    /// Human-readable aggregation summary (the example prints this).
    pub fn summary_table(&self) -> String {
        let agg = self.aggregate();
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{} events across {} ranks ({} dropped)",
            self.events.len(),
            self.nranks,
            self.dropped
        );
        let _ = writeln!(s, "{:<16} {:<12} {:>10}", "event", "category", "count");
        for (id, n) in &agg.counts {
            let _ = writeln!(s, "{:<16} {:<12} {:>10}", id.name(), id.category(), n);
        }
        if !agg.coll.is_empty() {
            let _ = writeln!(
                s,
                "{:<8} {:>10} {:>12} {:>8} {:>8}",
                "coll op", "msgs", "bytes", "clones", "allocs"
            );
            for (op, t) in &agg.coll {
                let _ = writeln!(
                    s,
                    "{:<8} {:>10} {:>12} {:>8} {:>8}",
                    op, t.messages, t.bytes, t.clones, t.allocs
                );
            }
        }
        s
    }
}

/// Per-collective-op totals reconstructed from trace events — compared
/// against `WorldStats` counters by the cross-check tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CollTotals {
    /// Point-to-point messages ([`EventId::CollMsg`] count).
    pub messages: u64,
    /// Payload bytes moved (sum of `CollMsg` args\[1\]).
    pub bytes: u64,
    /// Payload deep-clones (sum of `CollClone` args\[1\]).
    pub clones: u64,
    /// Payload allocations (sum of `CollAlloc` args\[1\]).
    pub allocs: u64,
}

/// Aggregation tables over a [`RunTrace`].
#[derive(Debug, Clone, Default)]
pub struct TraceAggregate {
    /// Occurrences per event id (Begin + Instant; End phases not counted).
    pub counts: BTreeMap<EventId, u64>,
    /// Per-collective-op totals, keyed by the runtime's op code (args\[0\]).
    pub coll: BTreeMap<u64, CollTotals>,
    /// OpError occurrences keyed by error code (args\[0\]).
    pub errors: BTreeMap<u64, u64>,
}

impl TraceAggregate {
    /// Occurrences of `id` (0 if absent).
    pub fn count(&self, id: EventId) -> u64 {
        self.counts.get(&id).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert() {
        assert!(!tracing_enabled());
        emit_instant(EventId::MailboxPost, [1, 2, 3, 4]); // must not panic or record
    }

    #[test]
    fn record_merge_digest_roundtrip() {
        let collector = TraceCollector::new(2);
        assert!(tracing_enabled());
        for r in 0..2 {
            let h = collector.handle(r);
            let _g = h.install();
            emit_instant(EventId::MailboxPost, [r as u64, 7, 0, 0]);
            let mut sp = span(EventId::Collective, [1, 2, 1024, 4]);
            sp.set_end([1, 4, 0, 0]);
            drop(sp);
        }
        let trace = collector.finish();
        assert_eq!(trace.events.len(), 6);
        // Merged order is (rank, seq).
        for w in trace.events.windows(2) {
            assert!((w[0].rank, w[0].seq) < (w[1].rank, w[1].seq));
        }
        let agg = trace.aggregate();
        assert_eq!(agg.count(EventId::MailboxPost), 2);
        assert_eq!(agg.count(EventId::Collective), 2);
        // Digest is stable and ignores wall time.
        let mut other = trace.clone();
        for ev in &mut other.events {
            ev.wall_us += 12345;
        }
        assert_eq!(trace.digest_hex(), other.digest_hex());
        // …and ignores physically-raced events (clone attribution, wildcard
        // matches, timeout polls) plus the seq shifts they cause.
        other.events.insert(
            0,
            TraceEvent {
                rank: 0,
                seq: 0,
                id: EventId::CollClone,
                phase: Phase::Instant,
                wall_us: 0,
                args: [4, 1, 0, 0],
            },
        );
        for (i, ev) in other.events.iter_mut().enumerate() {
            ev.seq = 1000 + i as u64;
        }
        assert_eq!(trace.digest_hex(), other.digest_hex());
        // The Chrome export parses as the right shape.
        let json = trace.chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"B\"") && json.contains("\"ph\":\"E\""));
    }

    #[test]
    fn span_guard_closes_on_early_exit() {
        let collector = TraceCollector::new(1);
        let h = collector.handle(0);
        let _g = h.install();
        fn body() -> Result<(), ()> {
            let _sp = span(EventId::ScheduleBuild, [0; 4]);
            Err(())? // early return: the guard must still emit End
        }
        let _ = body();
        let trace = collector.finish();
        assert_eq!(trace.events.len(), 2);
        assert_eq!(trace.events[1].phase, Phase::End);
    }

    #[test]
    fn event_ids_are_stable() {
        // These values are the golden-trace wire format: a change here
        // invalidates every committed digest on purpose.
        assert_eq!(EventId::ScheduleBuild as u16, 1);
        assert_eq!(EventId::FaultInject as u16, 18);
        assert_eq!(EventId::Revoke as u16, 19);
        assert_eq!(EventId::Rollback as u16, 24);
        assert_eq!(EventId::RmaExpose as u16, 35);
        assert_eq!(EventId::Expand as u16, 39);
        assert_eq!(EventId::WireZombie as u16, 40);
        assert_eq!(EventId::WireJoin as u16, 41);
        for id in ALL_EVENT_IDS {
            assert_eq!(EventId::from_u16(id as u16), Some(id));
        }
        assert_eq!(EventId::from_u16(999), None);
    }
}
