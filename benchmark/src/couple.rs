//! The `couple_*` workloads: a two-way M=2 → N=2 coupling step, forward
//! field M→N then reverse field N→M, over the in-proc mailbox or a UDS mesh.
//!
//! Every workload can run on two paths. The *user* path is the call a user
//! of the library would write (`data_ready`, `data_ready_budgeted`,
//! `send/recv_redistributed_cached`; on UDS there is no higher call than
//! pack → `WireNode::send`). The *decomposed* path makes the same transfer
//! through each layer's public functions, one span per call, so the traced
//! pass can attribute the step. End-to-end numbers come from the user path
//! with the recorder off.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use mxn_core::{ConnectionKind, FieldData, MxnComponent, MxnConnection};
use mxn_dad::{AccessMode, AxisDist, Dad, Extents, LocalArray, Template};
use mxn_runtime::{
    reset_schedule_stats, schedule_stats, InterComm, ScheduleStats, StatsSnapshot, Universe,
};
use mxn_schedule::{
    execute_recv_routed, execute_send_routed, recv_redistributed_cached, send_redistributed_cached,
    RedistRoute, RegionSchedule, Role, RouteKind, RoutePlanner, ScheduleCache, TransferBuffers,
};
use mxn_wire::{CodecRegistry, WireConfig, WireNode, WireStats};

use crate::gen::{Field, RegridSeq};
use crate::spans::{Recorder, Span, OP_SPAN};

/// Ranks per side. Part of the workload definition: never scales with the host.
pub const SIDE: usize = 2;
/// Fixed warm-up steps of every bring-up; they fill caches and buffer pools
/// and are part of `setup_s`.
pub const WARMUP_STEPS: u64 = 8;
/// Steps of the count window: counts are taken over a fixed number of steps
/// right after the warm-up, so they do not depend on timing.
pub const COUNT_STEPS: u64 = 8;
/// Elements the per-step oracle samples on every rank.
const SAMPLES: usize = 1024;
/// The regrid workload drops its schedule caches this often, so cache memory
/// stays bounded however many steps a window fits. Divides the 4096-step
/// cycle, within which no descriptor pair repeats.
const REGRID_CLEAR_EVERY: u64 = 256;
/// Most steps a traced pass records; its window ends early rather than let
/// the span lists grow without bound on microsecond steps.
pub const MAX_TRACED_STEPS: u64 = 3000;

/// Timed steps per bring-up of `couple_uds_bulk`. Every link keeps its last
/// 1024 frames for resend whether or not they were delivered, so the mesh
/// grows by the 8 MiB it sends each step until 8 GiB are retained, far
/// longer than a run. Growing means touching fresh pages every step, and
/// past the few hundred MiB a sandbox VM keeps backed, a first touch costs
/// ten times a warm one: step time then measures the hypervisor. A
/// long-lived coupling ends up with full rings and no growth, so the
/// workload is timed in short episodes that stay inside warm memory.
const UDS_BULK_EPISODE: u64 = 32;

const FWD_TAG: i32 = 1;
const REV_TAG: i32 = 2;
const UDS_CONTEXT: u32 = 7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CarrierKind {
    Inproc,
    Uds,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    User,
    Decomposed,
}

/// One `couple_*` workload.
#[derive(Debug, Clone, Copy)]
pub struct CoupleSpec {
    pub carrier: CarrierKind,
    pub rows: usize,
    pub cols: usize,
    /// Block-cyclic templates whose block sizes change every step.
    pub regrid: bool,
    /// Per-rank memory budget as a multiple of the shard, if any.
    pub budget_over_shard: Option<f64>,
    /// Most steps one bring-up may time before the mesh must be torn down
    /// and brought up afresh; `None` for no limit.
    pub episode_steps: Option<u64>,
    /// Leave the mesh's `WireConfig` as it comes. No workload does: see
    /// `run_uds` for why, and `check` for the probe that sets this.
    pub default_wire_config: bool,
}

pub fn spec(workload: &str) -> Option<CoupleSpec> {
    let base = CoupleSpec {
        carrier: CarrierKind::Inproc,
        rows: 1024,
        cols: 512,
        regrid: false,
        budget_over_shard: None,
        episode_steps: None,
        default_wire_config: false,
    };
    Some(match workload {
        "couple_inproc_bulk" => base,
        "couple_uds_bulk" => {
            CoupleSpec { carrier: CarrierKind::Uds, episode_steps: Some(UDS_BULK_EPISODE), ..base }
        }
        "couple_uds_fine" => CoupleSpec { carrier: CarrierKind::Uds, rows: 16, cols: 16, ..base },
        "couple_inproc_regrid" => CoupleSpec { rows: 512, cols: 512, regrid: true, ..base },
        "couple_inproc_budgeted" => CoupleSpec { budget_over_shard: Some(1.25), ..base },
        _ => return None,
    })
}

impl CoupleSpec {
    pub fn field(&self, seed: u64) -> Field {
        Field { rows: self.rows, cols: self.cols, seed }
    }

    /// Bytes one rank holds (both sides split the field in two).
    pub fn shard_bytes(&self) -> u64 {
        (self.rows * self.cols * size_of::<f64>() / SIDE) as u64
    }

    pub fn budget_bytes(&self) -> Option<u64> {
        self.budget_over_shard.map(|x| (self.shard_bytes() as f64 * x) as u64)
    }

    /// Bytes of one pairwise message (each rank talks to both remote ranks).
    pub fn pair_bytes(&self) -> usize {
        self.shard_bytes() as usize / SIDE
    }
}

/// How long each phase of one bring-up runs.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    /// Untimed steps after the fixed warm-up, until this much time passed.
    pub settle: Duration,
    /// Whether to run the count window.
    pub count: bool,
    /// The timed window; zero for a set-up-only bring-up.
    pub window: Duration,
}

/// What one bring-up measured.
#[derive(Debug, Default)]
pub struct CoupleRun {
    /// Bring-up, descriptors, first schedules, handshake and warm-up.
    pub setup_s: f64,
    /// One entry per step of the timed window: latest M-rank end minus
    /// earliest M-rank start.
    pub op_ms: Vec<f64>,
    /// First start to last end of the timed window.
    pub window_s: f64,
    /// Steps run and checked (all phases), and how many failed a check.
    pub attempted: u64,
    pub failed: u64,
    pub counts: Option<Counts>,
    /// Max over ranks of the mailbox high-water mark since the warm-up.
    pub mailbox_peak_bytes: u64,
    /// Max over ranks of (shard + mailbox peak + live transfer peak) / shard.
    pub peak_over_shard: f64,
    /// The planned route of a budgeted workload.
    pub route: Option<RedistRoute>,
    pub spans: Vec<Vec<Span>>,
}

/// Per-step counts over the count window, summed over ranks.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    pub msgs: f64,
    pub bytes: f64,
    pub payload_clones: f64,
    pub payload_allocs: f64,
    pub overlap_probes: f64,
    pub copy_runs: f64,
    pub fresh_allocs: f64,
    /// `None` when the path keeps no schedule cache (`data_ready` holds
    /// its schedule in the connection).
    pub cache_hit_ratio: Option<f64>,
    /// Totals over the count window, summed over the mesh's nodes.
    pub wire: WireStats,
}

// ---------------------------------------------------------------------------
// Descriptors
// ---------------------------------------------------------------------------

fn m_regrid_dad(extents: &Extents, block: usize) -> Dad {
    let axes = vec![AxisDist::BlockCyclic { block, nprocs: SIDE }, AxisDist::Collapsed];
    Dad::regular(Template::new(extents.clone(), axes).expect("valid block-cyclic row template"))
}

fn n_regrid_dad(extents: &Extents, block: usize) -> Dad {
    let axes = vec![AxisDist::Collapsed, AxisDist::BlockCyclic { block, nprocs: SIDE }];
    Dad::regular(Template::new(extents.clone(), axes).expect("valid block-cyclic column template"))
}

/// The descriptors of the current step: the field moves `m → n` forward and
/// `n → m_next` back. Fixed layouts (row bands → column bands, a corner
/// turn) never change; the regrid layout changes both sides every step.
struct Dads {
    m: Dad,
    n: Dad,
    m_next: Dad,
    regrid: Option<(RegridSeq, Extents)>,
}

impl Dads {
    /// `bring_up` moves the regrid sequence's starting point.
    fn new(spec: &CoupleSpec, seed: u64, bring_up: u64) -> Dads {
        let extents = Extents::new([spec.rows, spec.cols]);
        if spec.regrid {
            let seq = RegridSeq::new(seed, bring_up * 409);
            Dads {
                m: m_regrid_dad(&extents, seq.bx(0)),
                n: n_regrid_dad(&extents, seq.by(0)),
                m_next: m_regrid_dad(&extents, seq.bx(1)),
                regrid: Some((seq, extents)),
            }
        } else {
            let m = Dad::block(extents.clone(), &[SIDE, 1]).expect("row bands");
            let n = Dad::block(extents, &[1, SIDE]).expect("column bands");
            Dads { m_next: m.clone(), m, n, regrid: None }
        }
    }

    /// Moves on to the descriptors of `step`: two fresh `Dad`s (templates
    /// and fingerprints) on the regrid layout, nothing on a fixed one.
    fn describe(&mut self, step: u64) {
        if let Some((seq, extents)) = &self.regrid {
            if step > 0 {
                let next = m_regrid_dad(extents, seq.bx(step + 1));
                self.m = std::mem::replace(&mut self.m_next, next);
                self.n = n_regrid_dad(extents, seq.by(step));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// What a rank does in one step
// ---------------------------------------------------------------------------

/// One rank's side of the coupling, on one path.
trait RankOps {
    /// Untimed work before step `step`: the M side advances its field.
    fn advance(&mut self, step: u64);
    /// This rank's half of the two-way exchange of `step`.
    fn exchange(&mut self, step: u64, rec: &mut Recorder);
    /// Oracle mismatches in what this rank holds after `step`.
    fn check(&self, step: u64, full: bool) -> u64;
    /// `(hits, misses)` of this rank's schedule cache, if the path has one.
    fn cache_stats(&self) -> Option<(u64, u64)>;
}

/// User path of the fixed-layout in-proc workloads: a persistent
/// `MxnConnection` pair per rank, `data_ready` (or its budgeted variant).
struct ConnRank<'a> {
    ic: &'a InterComm,
    is_m: bool,
    field: Field,
    dad: Dad,
    mxn: MxnComponent,
    data: FieldData,
    out: MxnConnection,
    inc: MxnConnection,
    budget: Option<(u64, ScheduleCache)>,
}

impl<'a> ConnRank<'a> {
    fn new(
        ic: &'a InterComm,
        is_m: bool,
        rank: usize,
        field: Field,
        dads: &Dads,
        budget: Option<u64>,
    ) -> Self {
        let dad = if is_m { dads.m.clone() } else { dads.n.clone() };
        let mut mxn = MxnComponent::new(rank);
        let data =
            mxn.register_allocated("field", dad.clone(), AccessMode::ReadWrite).expect("register");
        let kind = ConnectionKind::Persistent { period: 1 };
        let (out, inc) = if is_m {
            field.fill(&mut data.write(), 0);
            let out = mxn.export_field(ic, "field", "field", kind).expect("export forward");
            (out, mxn.accept_connection(ic).expect("accept reverse"))
        } else {
            let inc = mxn.accept_connection(ic).expect("accept forward");
            (mxn.export_field(ic, "field", "field", kind).expect("export reverse"), inc)
        };
        let budget = budget.map(|b| (b, ScheduleCache::new()));
        ConnRank { ic, is_m, field, dad, mxn, data, out, inc, budget }
    }

    fn ready(
        conn: &mut MxnConnection,
        ic: &InterComm,
        mxn: &MxnComponent,
        b: &Option<(u64, ScheduleCache)>,
    ) {
        match b {
            Some((bytes, cache)) => conn.data_ready_budgeted(ic, mxn.registry(), cache, *bytes),
            None => conn.data_ready(ic, mxn.registry()),
        }
        .expect("data_ready");
    }
}

impl RankOps for ConnRank<'_> {
    fn advance(&mut self, step: u64) {
        if self.is_m && step > 0 {
            Field::bump(&mut self.data.write());
        }
    }

    fn exchange(&mut self, _step: u64, _rec: &mut Recorder) {
        let (first, second) =
            if self.is_m { (&mut self.out, &mut self.inc) } else { (&mut self.inc, &mut self.out) };
        Self::ready(first, self.ic, &self.mxn, &self.budget);
        Self::ready(second, self.ic, &self.mxn, &self.budget);
    }

    fn check(&self, step: u64, full: bool) -> u64 {
        check_local(&self.field, &self.dad, &self.data.read(), step, full)
    }

    fn cache_stats(&self) -> Option<(u64, u64)> {
        self.budget.as_ref().map(|(_, cache)| cache.stats())
    }
}

/// User path of the regrid workload: one-call cached redistribution with
/// descriptors that change every step.
struct RegridRank<'a> {
    ic: &'a InterComm,
    is_m: bool,
    field: Field,
    dads: Dads,
    cache: ScheduleCache,
    local: LocalArray<f64>,
}

impl RankOps for RegridRank<'_> {
    fn advance(&mut self, step: u64) {
        advance_regrid(self.is_m, step, &mut self.local, &self.cache);
    }

    fn exchange(&mut self, step: u64, _rec: &mut Recorder) {
        self.dads.describe(step);
        let (d, c, ic) = (&self.dads, &self.cache, self.ic);
        if self.is_m {
            send_redistributed_cached(c, ic, &d.m, &d.n, &self.local, FWD_TAG).expect("forward");
            self.local =
                recv_redistributed_cached(c, ic, &d.n, &d.m_next, REV_TAG).expect("reverse");
        } else {
            self.local = recv_redistributed_cached(c, ic, &d.m, &d.n, FWD_TAG).expect("forward");
            send_redistributed_cached(c, ic, &d.n, &d.m_next, &self.local, REV_TAG)
                .expect("reverse");
        }
    }

    fn check(&self, step: u64, full: bool) -> u64 {
        let dad = if self.is_m { &self.dads.m_next } else { &self.dads.n };
        check_local(&self.field, dad, &self.local, step, full)
    }

    fn cache_stats(&self) -> Option<(u64, u64)> {
        Some(self.cache.stats())
    }
}

fn advance_regrid(is_m: bool, step: u64, local: &mut LocalArray<f64>, cache: &ScheduleCache) {
    if is_m && step > 0 {
        Field::bump(local);
    }
    if step > 0 && step.is_multiple_of(REGRID_CLEAR_EVERY) {
        cache.clear();
    }
}

fn check_local(field: &Field, dad: &Dad, local: &LocalArray<f64>, step: u64, full: bool) -> u64 {
    if full {
        field.check_full(dad, local.rank(), local, step)
    } else {
        field.check_sample(local, step, SAMPLES)
    }
}

/// How packed pair buffers travel on the decomposed path.
trait Carrier {
    const SEND: &'static str;
    const RECV: &'static str;
    fn send(&self, peer: usize, tag: i32, buf: Vec<f64>);
    fn recv(&self, peer: usize, tag: i32) -> Vec<f64>;
}

impl Carrier for &InterComm {
    const SEND: &'static str = "runtime.send";
    const RECV: &'static str = "runtime.recv_wait";
    fn send(&self, peer: usize, tag: i32, buf: Vec<f64>) {
        InterComm::send(self, peer, tag, buf).expect("mailbox send");
    }
    fn recv(&self, peer: usize, tag: i32) -> Vec<f64> {
        InterComm::recv(self, peer, tag).expect("mailbox recv")
    }
}

/// One wire node and where the other side's ranks start in the mesh.
struct UdsSide<'a> {
    node: &'a WireNode,
    remote_base: usize,
}

impl Carrier for UdsSide<'_> {
    const SEND: &'static str = "wire.node.send";
    const RECV: &'static str = "wire.node.recv_wait";
    fn send(&self, peer: usize, tag: i32, buf: Vec<f64>) {
        self.node.send(self.remote_base + peer, UDS_CONTEXT, tag, buf).expect("wire send");
    }
    fn recv(&self, peer: usize, tag: i32) -> Vec<f64> {
        self.node.recv(self.remote_base + peer, UDS_CONTEXT, tag).expect("wire recv")
    }
}

/// Decomposed path: cache lookup or build → pack → carrier send, and
/// carrier receive → unpack, each call in its own span. Serves the fixed
/// and the regrid layout over either carrier, and is the only path a UDS
/// coupling has.
struct DecompRank<C: Carrier> {
    is_m: bool,
    field: Field,
    dads: Dads,
    io: DecompIo<C>,
}

/// Everything of a [`DecompRank`] but its descriptors, so a transfer can
/// borrow those while it changes this.
struct DecompIo<C: Carrier> {
    carrier: C,
    rank: usize,
    cache: ScheduleCache,
    pool: TransferBuffers<f64>,
    local: LocalArray<f64>,
}

impl<C: Carrier> DecompRank<C> {
    fn new(carrier: C, is_m: bool, rank: usize, field: Field, dads: Dads) -> Self {
        let local = first_local(is_m, rank, &field, &dads);
        let (cache, pool) = (ScheduleCache::new(), TransferBuffers::new());
        DecompRank { is_m, field, dads, io: DecompIo { carrier, rank, cache, pool, local } }
    }
}

/// The storage a rank starts with: the M side holds the field of step 0.
fn first_local(is_m: bool, rank: usize, field: &Field, dads: &Dads) -> LocalArray<f64> {
    let mut local = LocalArray::allocate(if is_m { &dads.m } else { &dads.n }, rank);
    if is_m {
        field.fill(&mut local, 0);
    }
    local
}

impl<C: Carrier> DecompIo<C> {
    fn send(&mut self, src: &Dad, dst: &Dad, tag: i32, op: u64, rec: &mut Recorder) {
        let sched = rec.scope("schedule.build", op, || {
            self.cache.get_or_build(src, dst, self.rank, Role::Sender)
        });
        for (i, pair) in sched.pairs().iter().enumerate() {
            let mut buf = self.pool.lease(sched.plan(i).total());
            rec.scope("schedule.pack", op, || sched.pack_pair_into(i, &self.local, &mut buf));
            rec.scope(C::SEND, op, || self.carrier.send(pair.peer, tag, buf));
        }
    }

    /// `fresh` allocates the destination storage first, as the one-call
    /// receive does when the layout changed.
    fn recv(&mut self, src: &Dad, dst: &Dad, fresh: bool, tag: i32, op: u64, rec: &mut Recorder) {
        let sched = rec.scope("schedule.build", op, || {
            self.cache.get_or_build(src, dst, self.rank, Role::Receiver)
        });
        if fresh {
            self.local = rec.scope("dad.allocate", op, || LocalArray::allocate(dst, self.rank));
        }
        for (i, pair) in sched.pairs().iter().enumerate() {
            let data = rec.scope(C::RECV, op, || self.carrier.recv(pair.peer, tag));
            rec.scope("schedule.unpack", op, || sched.unpack_pair_from(i, &mut self.local, &data));
            self.pool.recycle(data);
        }
    }
}

impl<C: Carrier> RankOps for DecompRank<C> {
    fn advance(&mut self, step: u64) {
        if self.dads.regrid.is_some() {
            advance_regrid(self.is_m, step, &mut self.io.local, &self.io.cache);
        } else if self.is_m && step > 0 {
            Field::bump(&mut self.io.local);
        }
    }

    fn exchange(&mut self, step: u64, rec: &mut Recorder) {
        let regrid = self.dads.regrid.is_some();
        if regrid {
            rec.scope("dad.describe", step, || self.dads.describe(step));
        }
        let (d, io) = (&self.dads, &mut self.io);
        if self.is_m {
            io.send(&d.m, &d.n, FWD_TAG, step, rec);
            io.recv(&d.n, &d.m_next, regrid, REV_TAG, step, rec);
        } else {
            io.recv(&d.m, &d.n, regrid, FWD_TAG, step, rec);
            io.send(&d.n, &d.m_next, REV_TAG, step, rec);
        }
    }

    fn check(&self, step: u64, full: bool) -> u64 {
        let dad = if self.is_m { &self.dads.m_next } else { &self.dads.n };
        check_local(&self.field, dad, &self.io.local, step, full)
    }

    fn cache_stats(&self) -> Option<(u64, u64)> {
        Some(self.io.cache.stats())
    }
}

/// Decomposed path of the budgeted workload: route lookup, schedule lookup,
/// then the library's routed executor (its rounds and acks are private, so
/// the executor is one span).
struct RoutedRank<'a> {
    is_m: bool,
    field: Field,
    dads: Dads,
    io: RoutedIo<'a>,
}

struct RoutedIo<'a> {
    ic: &'a InterComm,
    rank: usize,
    budget: u64,
    cache: ScheduleCache,
    local: LocalArray<f64>,
}

/// The pool `data_ready_budgeted` gives each routed transfer: idle buffers
/// may use the budget's headroom above the declared peak and no more.
fn budget_pool(route: &RedistRoute) -> TransferBuffers<f64> {
    let headroom = route.budget_bytes.saturating_sub(route.peak_bytes.min(route.budget_bytes));
    let floor = (route.peak_bytes / 4).max(4096);
    TransferBuffers::with_byte_cap(16, headroom.max(floor) as usize)
}

impl RoutedIo<'_> {
    fn transfer(
        &mut self,
        src: &Dad,
        dst: &Dad,
        send: bool,
        tag: i32,
        op: u64,
        rec: &mut Recorder,
    ) {
        let planner = RoutePlanner::default();
        let route = rec.scope("schedule.route_plan", op, || {
            self.cache.route_for(src, dst, size_of::<f64>(), self.budget, false, &planner)
        });
        let role = if send { Role::Sender } else { Role::Receiver };
        let sched =
            rec.scope("schedule.build", op, || self.cache.get_or_build(src, dst, self.rank, role));
        let mut pool = budget_pool(&route);
        rec.scope("schedule.route_exec", op, || {
            if send {
                execute_send_routed(&route, &sched, self.ic, &self.local, tag, &mut pool)
            } else {
                execute_recv_routed(&route, &sched, self.ic, &mut self.local, tag, &mut pool)
            }
            .expect("routed transfer")
        });
    }
}

impl RankOps for RoutedRank<'_> {
    fn advance(&mut self, step: u64) {
        if self.is_m && step > 0 {
            Field::bump(&mut self.io.local);
        }
    }

    fn exchange(&mut self, step: u64, rec: &mut Recorder) {
        let (d, io) = (&self.dads, &mut self.io);
        io.transfer(&d.m, &d.n, self.is_m, FWD_TAG, step, rec);
        io.transfer(&d.n, &d.m, !self.is_m, REV_TAG, step, rec);
    }

    fn check(&self, step: u64, full: bool) -> u64 {
        let dad = if self.is_m { &self.dads.m } else { &self.dads.n };
        check_local(&self.field, dad, &self.io.local, step, full)
    }

    fn cache_stats(&self) -> Option<(u64, u64)> {
        Some(self.io.cache.stats())
    }
}

// ---------------------------------------------------------------------------
// The step loop every rank runs
// ---------------------------------------------------------------------------

/// Shared by the four rank threads of one bring-up.
struct Control {
    barrier: Barrier,
    /// Last step of the settle phase and of the timed window; `u64::MAX`
    /// until the deciding rank has seen the deadline.
    phase_end: [AtomicU64; 2],
}

impl Control {
    fn new() -> Self {
        Control {
            barrier: Barrier::new(2 * SIDE),
            phase_end: [AtomicU64::new(u64::MAX), AtomicU64::new(u64::MAX)],
        }
    }
}

/// What one rank brings back.
#[derive(Default)]
struct RankOut {
    /// `(start, end)` of every step of the timed window (M ranks only).
    log: Vec<(Instant, Instant)>,
    failed_steps: Vec<u64>,
    steps: u64,
    /// When the fixed warm-up ended (deciding rank only).
    setup_done: Option<Instant>,
    sched: ScheduleStats,
    cache: Option<(u64, u64)>,
    world: Option<StatsSnapshot>,
    wire: Option<WireStats>,
    mailbox_peak: u64,
    transfer_peak: u64,
    spans: Vec<Span>,
}

struct Stepper<'a> {
    ctl: &'a Control,
    is_m: bool,
    /// M rank 0 decides when a time-bounded phase ends.
    decider: bool,
    next: u64,
    rec: Recorder,
    out: RankOut,
}

impl Stepper<'_> {
    fn step(&mut self, ops: &mut dyn RankOps, record: bool, full: bool) {
        let s = self.next;
        ops.advance(s);
        let start = Instant::now();
        self.rec.enter(OP_SPAN, s);
        ops.exchange(s, &mut self.rec);
        self.rec.exit();
        let end = Instant::now();
        if record && self.is_m {
            self.out.log.push((start, end));
        }
        if ops.check(s, full) > 0 {
            self.out.failed_steps.push(s);
        }
        self.next += 1;
    }

    fn fixed(&mut self, ops: &mut dyn RankOps, steps: u64, full_first: bool) {
        for i in 0..steps {
            self.step(ops, false, full_first && i == 0);
        }
    }

    /// Runs steps until `limit` has passed (and at most `max_steps`). All
    /// ranks must stop after the same step without an extra message: the
    /// deciding rank publishes the last step *before* it starts that step,
    /// and no other rank can finish the step (and look) until the
    /// decider's forward data of that step has arrived.
    fn timed(
        &mut self,
        ops: &mut dyn RankOps,
        phase: usize,
        limit: Duration,
        max_steps: u64,
        record: bool,
    ) {
        let began = Instant::now();
        let first = self.next;
        let end = &self.ctl.phase_end[phase];
        loop {
            let s = self.next;
            if self.decider && (began.elapsed() >= limit || s + 1 - first >= max_steps) {
                end.store(s, Ordering::SeqCst);
            }
            self.step(ops, record, false);
            if s >= end.load(Ordering::SeqCst) {
                return;
            }
        }
    }
}

/// The phases of one bring-up, as one rank runs them. `snapshot` is called
/// by every rank at the two edges of the count window, between barriers.
fn drive(
    ops: &mut dyn RankOps,
    st: &mut Stepper,
    phases: &Phases,
    max_steps: u64,
    mut snapshot: impl FnMut(&mut RankOut, bool),
) {
    st.fixed(ops, WARMUP_STEPS, true);
    if st.decider {
        st.out.setup_done = Some(Instant::now());
    }
    if phases.window.is_zero() {
        st.out.steps = st.next;
        return;
    }
    if phases.count {
        let cache_before = ops.cache_stats();
        st.ctl.barrier.wait();
        reset_schedule_stats();
        snapshot(&mut st.out, false);
        st.ctl.barrier.wait();
        st.fixed(ops, COUNT_STEPS, false);
        st.ctl.barrier.wait();
        st.out.sched = schedule_stats();
        st.out.cache = ops.cache_stats().zip(cache_before).map(|(a, b)| (a.0 - b.0, a.1 - b.1));
        snapshot(&mut st.out, true);
        st.ctl.barrier.wait();
    }
    st.timed(ops, 0, phases.settle, u64::MAX, false);
    st.timed(ops, 1, phases.window, max_steps, true);
    st.out.transfer_peak = schedule_stats().transfer_peak_bytes;
    // One more step, checked in full against the from_fn oracle.
    st.step(ops, false, true);
    st.out.steps = st.next;
}

// ---------------------------------------------------------------------------
// Bring-ups
// ---------------------------------------------------------------------------

/// One bring-up of `spec` on `path`: set-up, warm-up, the phases, one fully
/// checked step, teardown.
#[allow(clippy::too_many_arguments)]
pub fn run(
    spec: &CoupleSpec,
    path: Path,
    seed: u64,
    bring_up: u64,
    phases: &Phases,
    traced: bool,
    epoch: Instant,
    workload: &str,
) -> CoupleRun {
    let t0 = Instant::now();
    let ctl = Control::new();
    let route = spec.budget_bytes().map(|budget| {
        let d = Dads::new(spec, seed, bring_up);
        let route = RoutePlanner::default().plan_for(&d.m, &d.n, size_of::<f64>(), budget, false);
        assert_eq!(route.kind, RouteKind::Chunked, "the budgeted workload must plan Chunked");
        assert!(route.fits, "the planned route must fit the budget");
        route
    });
    let cap = if traced { MAX_TRACED_STEPS } else { u64::MAX };
    let max_steps = spec.episode_steps.unwrap_or(u64::MAX).min(cap);
    let outs = match spec.carrier {
        CarrierKind::Inproc => {
            run_inproc(spec, path, seed, bring_up, phases, max_steps, traced, epoch, &ctl)
        }
        CarrierKind::Uds => {
            run_uds(spec, seed, bring_up, phases, max_steps, traced, epoch, &ctl, workload)
        }
    };
    reduce(spec, outs, t0, phases.count, route)
}

#[allow(clippy::too_many_arguments)]
fn run_inproc(
    spec: &CoupleSpec,
    path: Path,
    seed: u64,
    bring_up: u64,
    phases: &Phases,
    max_steps: u64,
    traced: bool,
    epoch: Instant,
    ctl: &Control,
) -> Vec<RankOut> {
    Universe::run(&[SIDE, SIDE], |p, ctx| {
        let is_m = ctx.program == 0;
        let rank = ctx.comm.rank();
        let ic = ctx.intercomm(if is_m { 1 } else { 0 });
        let field = spec.field(seed);
        let dads = Dads::new(spec, seed, bring_up);
        let mut ops: Box<dyn RankOps + '_> = match (path, spec.regrid, spec.budget_bytes()) {
            (Path::User, true, _) => {
                let (cache, local) = (ScheduleCache::new(), first_local(is_m, rank, &field, &dads));
                Box::new(RegridRank { ic, is_m, field, dads, cache, local })
            }
            (Path::User, false, budget) => {
                Box::new(ConnRank::new(ic, is_m, rank, field, &dads, budget))
            }
            (Path::Decomposed, _, Some(budget)) => {
                let (cache, local) = (ScheduleCache::new(), first_local(is_m, rank, &field, &dads));
                let io = RoutedIo { ic, rank, budget, cache, local };
                Box::new(RoutedRank { is_m, field, dads, io })
            }
            (Path::Decomposed, _, None) => Box::new(DecompRank::new(ic, is_m, rank, field, dads)),
        };
        let mut st = Stepper {
            ctl,
            is_m,
            decider: p.rank() == 0,
            next: 0,
            rec: Recorder::new(epoch, p.rank() as u32, traced),
            out: RankOut::default(),
        };
        let mut before = StatsSnapshot::default();
        drive(ops.as_mut(), &mut st, phases, max_steps, |out, end| {
            if !end {
                ic.reset_mailbox_peak();
            }
            if p.rank() == 0 {
                if end {
                    out.world = Some(p.stats().since(&before));
                } else {
                    before = p.stats();
                }
            }
        });
        st.out.mailbox_peak = ic.mailbox_bytes().1;
        st.out.spans = st.rec.finish();
        st.out
    })
}

/// A fresh socket directory, removed when the guard drops (also on panic).
/// It sits in the build directory when the environment names one, as the
/// driver does with a path relative to the checkout it runs from: a run then
/// writes nothing outside its checkout and socket paths stay short.
/// Otherwise it sits in the system's temporary directory.
pub struct SocketDir(pub PathBuf);

impl SocketDir {
    pub fn new(workload: &str) -> SocketDir {
        let base =
            std::env::var_os("CARGO_TARGET_DIR").map_or_else(std::env::temp_dir, PathBuf::from);
        let dir = base.join(format!("mxn-benchmark-{}-{workload}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create socket dir");
        SocketDir(dir)
    }
}

impl Drop for SocketDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[allow(clippy::too_many_arguments)]
fn run_uds(
    spec: &CoupleSpec,
    seed: u64,
    bring_up: u64,
    phases: &Phases,
    max_steps: u64,
    traced: bool,
    epoch: Instant,
    ctl: &Control,
    workload: &str,
) -> Vec<RankOut> {
    let dir = SocketDir::new(workload);
    let nodes: Vec<WireNode> = (0..2 * SIDE)
        .map(|r| {
            let mut cfg = WireConfig::new(&dir.0, r, 2 * SIDE);
            // Failure detection is tuned out of the way; the benchmark
            // measures the data path. With 1 MiB frames a 25 ms progress
            // fence reports a frame still in flight as lost; the NACK
            // re-sends it from the reader thread, and two peers doing so
            // to each other block until the write timeout (= the liveness
            // deadline). Left on, that tears links down at the default
            // deadline and stalls steps for seconds at a longer one. `check`
            // runs a few steps on the default configuration to keep that
            // defect in view.
            if !spec.default_wire_config {
                cfg.fence_interval = Duration::from_secs(3600);
                cfg.liveness_deadline = Duration::from_secs(5);
            }
            WireNode::start(cfg, CodecRegistry::with_defaults()).expect("start wire node")
        })
        .collect();
    let outs = std::thread::scope(|s| {
        let handles: Vec<_> = nodes
            .iter()
            .enumerate()
            .map(|(r, node)| {
                s.spawn(move || {
                    node.connect().expect("connect the mesh");
                    let is_m = r < SIDE;
                    let side = UdsSide { node, remote_base: if is_m { SIDE } else { 0 } };
                    let dads = Dads::new(spec, seed, bring_up);
                    let mut ops = DecompRank::new(side, is_m, r % SIDE, spec.field(seed), dads);
                    let mut st = Stepper {
                        ctl,
                        is_m,
                        decider: r == 0,
                        next: 0,
                        rec: Recorder::new(epoch, r as u32, traced),
                        out: RankOut::default(),
                    };
                    let mut before = WireStats::default();
                    drive(&mut ops, &mut st, phases, max_steps, |out, end| {
                        if end {
                            out.wire =
                                Some(wire_zip(&node.stats(), &before, |now, then| now - then));
                        } else {
                            before = node.stats();
                        }
                    });
                    // Nobody may close a socket while a peer still reads.
                    ctl.barrier.wait();
                    st.out.spans = st.rec.finish();
                    st.out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("rank thread")).collect()
    });
    for node in nodes {
        node.shutdown();
    }
    outs
}

/// Combines, counter by counter, the wire counters the benchmark reports.
fn wire_zip(a: &WireStats, b: &WireStats, f: fn(u64, u64) -> u64) -> WireStats {
    WireStats {
        frames_sent: f(a.frames_sent, b.frames_sent),
        frames_received: f(a.frames_received, b.frames_received),
        corrupt_frames: f(a.corrupt_frames, b.corrupt_frames),
        duplicates_dropped: f(a.duplicates_dropped, b.duplicates_dropped),
        reconnect_dials: f(a.reconnect_dials, b.reconnect_dials),
        ..WireStats::default()
    }
}

fn reduce(
    spec: &CoupleSpec,
    outs: Vec<RankOut>,
    t0: Instant,
    counted: bool,
    route: Option<RedistRoute>,
) -> CoupleRun {
    let setup_done = outs.iter().find_map(|o| o.setup_done).expect("the decider stamps set-up");
    let mut run = CoupleRun {
        setup_s: setup_done.duration_since(t0).as_secs_f64(),
        attempted: outs[0].steps,
        route,
        ..CoupleRun::default()
    };
    let mut failed: Vec<u64> = outs.iter().flat_map(|o| o.failed_steps.iter().copied()).collect();
    failed.sort_unstable();
    failed.dedup();
    run.failed = failed.len() as u64;

    let logs: Vec<&Vec<(Instant, Instant)>> =
        outs.iter().map(|o| &o.log).filter(|l| !l.is_empty()).collect();
    if let Some(steps) = logs.iter().map(|l| l.len()).min() {
        for i in 0..steps {
            let start = logs.iter().map(|l| l[i].0).min().expect("an M rank");
            let end = logs.iter().map(|l| l[i].1).max().expect("an M rank");
            run.op_ms.push(end.duration_since(start).as_secs_f64() * 1e3);
        }
        let first = logs.iter().map(|l| l[0].0).min().expect("an M rank");
        let last = logs.iter().map(|l| l[steps - 1].1).max().expect("an M rank");
        run.window_s = last.duration_since(first).as_secs_f64();
    }

    let shard = spec.shard_bytes();
    run.mailbox_peak_bytes = outs.iter().map(|o| o.mailbox_peak).max().unwrap_or(0);
    let peak_bytes =
        outs.iter().map(|o| shard + o.mailbox_peak + o.transfer_peak).max().unwrap_or(shard);
    run.peak_over_shard = peak_bytes as f64 / shard as f64;
    // The bound is part of the result: a window that broke it failed.
    if spec.budget_bytes().is_some_and(|budget| peak_bytes > budget) {
        run.failed = run.attempted;
    }

    if counted {
        let per_step = |total: u64| total as f64 / COUNT_STEPS as f64;
        let sum = |f: fn(&ScheduleStats) -> u64| per_step(outs.iter().map(|o| f(&o.sched)).sum());
        let world = outs.iter().find_map(|o| o.world).unwrap_or_default();
        let wire = outs
            .iter()
            .filter_map(|o| o.wire)
            .fold(WireStats::default(), |a, w| wire_zip(&a, &w, |x, y| x + y));
        let (hits, misses) =
            outs.iter().filter_map(|o| o.cache).fold((0, 0), |a, c| (a.0 + c.0, a.1 + c.1));
        run.counts = Some(Counts {
            msgs: per_step(world.p2p_messages),
            bytes: per_step(world.p2p_bytes),
            payload_clones: per_step(world.payload_clones),
            payload_allocs: per_step(world.payload_allocs),
            overlap_probes: sum(|s| s.peer_probes),
            copy_runs: sum(|s| s.copy_runs),
            fresh_allocs: sum(|s| s.buffer_allocs),
            cache_hit_ratio: (hits + misses > 0).then(|| hits as f64 / (hits + misses) as f64),
            wire,
        });
    }
    run.spans = outs.into_iter().map(|o| o.spans).collect();
    run
}

/// A packed pair buffer of this workload, for the wire-layer replays.
pub fn sample_message(spec: &CoupleSpec, seed: u64) -> Vec<f64> {
    let dads = Dads::new(spec, seed, 0);
    let local = first_local(true, 0, &spec.field(seed), &dads);
    let mut buf = Vec::new();
    RegionSchedule::for_sender(&dads.m, &dads.n, 0).pack_pair_into(0, &local, &mut buf);
    buf
}
