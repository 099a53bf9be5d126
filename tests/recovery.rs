//! End-to-end self-healing: survivors of a rank death shrink the coupling,
//! rebuild their schedules over the survivor decomposition, and complete
//! the remaining epochs with data identical to a no-fault oracle — and no
//! transfer is ever half-committed along the way.

use mxn::core::redistribute_elastic;
use mxn::core::{
    ConnectionKind, Direction, FieldData, FieldRegistry, MxnConnection, MxnError, TransferOutcome,
};
use mxn::dad::{AccessMode, Dad, Extents, LocalArray};
use mxn::framework::{AnyPayload, CallPolicy, Dispatch, RemoteService};
use mxn::prmi::{serve, Endpoint, Invocation, ServeOpts, ServeStats};
use mxn::runtime::{ChannelPolicy, FaultConfig, InterComm, RunOpts, Universe, World};

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Step-coded cell value: the global index plus a per-epoch offset, so a
/// transferred field identifies both *what* arrived and *when* it was
/// produced.
fn coded(idx: &[usize], step: f64) -> f64 {
    (idx[0] * 6 + idx[1]) as f64 + step * 100.0
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Rewrites every element this rank owns (under its *current* descriptor)
/// with step-coded values — the per-epoch producer refresh.
fn refill(reg: &FieldRegistry, data: &FieldData, step: f64) {
    let _ = reg;
    let mut d = data.write();
    for r in 0..6 {
        for c in 0..6 {
            if let Some(v) = d.get_mut(&[r, c]) {
                *v = coded(&[r, c], step);
            }
        }
    }
}

/// The acceptance scenario: a 3-exporter / 2-importer transactional
/// coupling loses an importer between epochs 2 and 3. Epoch 3's first
/// attempt aborts collectively (rollback everywhere, committed data
/// untouched), the survivors heal — revoke, shrink, re-decompose, rebind,
/// rebuild schedules — and epochs 3 and 4 then complete on the healed
/// coupling. The surviving importer's final field equals a no-fault
/// oracle restricted to the survivor decomposition.
#[test]
fn survivors_heal_and_complete_remaining_epochs() {
    const DEAD_WORLD_RANK: usize = 4; // importer local rank 1
    let results = Universe::run(&[3, 2], |p, ctx| {
        let rank = ctx.comm.rank();
        let src = Dad::block(Extents::new([6, 6]), &[3, 1]).unwrap();
        let dst = Dad::block(Extents::new([6, 6]), &[1, 2]).unwrap();
        let exporting = ctx.program == 0;
        let mut reg = FieldRegistry::new(rank);
        let data = if exporting {
            reg.register_allocated("f", src, AccessMode::Read).unwrap()
        } else {
            reg.register_allocated("f", dst, AccessMode::Write).unwrap()
        };
        let mut conn = if exporting {
            MxnConnection::initiate(
                ctx.intercomm(1),
                &reg,
                0,
                "f",
                "f",
                Direction::Export,
                ConnectionKind::Persistent { period: 1 },
            )
            .unwrap()
        } else {
            MxnConnection::accept(ctx.intercomm(0), &reg, 0).unwrap()
        };
        conn.set_transactional(true);
        let ic = if exporting { ctx.intercomm(1) } else { ctx.intercomm(0) };
        // Epochs 1 and 2 commit cleanly.
        for step in 1..=2u64 {
            if exporting {
                refill(&reg, &data, step as f64);
            }
            assert!(matches!(
                conn.data_ready(ic, &reg).unwrap(),
                TransferOutcome::Transferred { .. }
            ));
        }
        p.world().barrier().unwrap();
        if p.rank() == DEAD_WORLD_RANK {
            p.kill_rank(DEAD_WORLD_RANK);
            return None;
        }
        while !p.is_dead(DEAD_WORLD_RANK) {
            std::thread::yield_now();
        }
        // Epoch 3's first attempt aborts *collectively*: the commit vote
        // fails on every survivor, nobody unpacks partial data.
        if exporting {
            refill(&reg, &data, 3.0);
        }
        let e = conn.data_ready(ic, &reg).unwrap_err();
        assert!(
            matches!(e, MxnError::PeerFailed { .. } | MxnError::TransferAborted { .. }),
            "unexpected abort error: {e}"
        );
        assert_eq!(conn.stats().1, 2, "no transfer is ever half-committed");
        if !exporting {
            // The surviving importer still holds epoch 2, bit-for-bit.
            let d = data.read();
            for (idx, v) in d.iter() {
                assert_eq!(*v, coded(&idx, 2.0), "rolled-back attempt left {idx:?} dirty");
            }
        }
        // Survivors shrink the membership, re-derive both descriptors and
        // rebuild the transfer schedule.
        let (healed, report) = conn.heal(ic, &mut reg).unwrap();
        assert_eq!(conn.epoch(), 1);
        if exporting {
            assert_eq!(report.local_survivors, vec![0, 1, 2]);
            assert_eq!(report.remote_survivors, vec![0]);
        } else {
            assert_eq!(report.local_survivors, vec![0]);
            assert_eq!(report.remote_survivors, vec![0, 1, 2]);
        }
        // Epoch 3 retries (same sequence number), epoch 4 follows.
        for step in 3..=4u64 {
            if exporting {
                refill(&reg, &data, step as f64);
            }
            assert!(matches!(
                conn.data_ready(&healed, &reg).unwrap(),
                TransferOutcome::Transferred { .. }
            ));
        }
        assert_eq!(conn.stats().1, 4, "all four epochs committed exactly once");
        if exporting {
            None
        } else {
            // Compare against the no-fault oracle restricted to the
            // survivor decomposition: what a fault-free run over the
            // survivor set would have delivered at epoch 4.
            let survivor_dad = reg.get("f").unwrap().dad().clone();
            let oracle = LocalArray::from_fn(&survivor_dad, 0, |idx| coded(idx, 4.0));
            let d = data.read();
            let mut elems = 0usize;
            for (idx, v) in d.iter() {
                assert_eq!(*v, *oracle.get(&idx).unwrap(), "mismatch vs oracle at {idx:?}");
                elems += 1;
            }
            assert_eq!(elems, 36, "the survivor owns the whole array after the shrink");
            Some(elems)
        }
    });
    assert_eq!(results.iter().filter(|r| r.is_some()).count(), 1);
}

/// CI fault-matrix entry point: `MXN_FAULT_SEED` selects the fault
/// plane's RNG stream, `MXN_FAULT_KIND` ∈ {drop, corrupt, death} selects
/// the failure class. Every combination must end in a correct result —
/// never a hang, never a double execution.
#[test]
fn seeded_fault_matrix() {
    let seed = env_u64("MXN_FAULT_SEED", 1);
    match std::env::var("MXN_FAULT_KIND").as_deref() {
        Ok("drop") => drop_matrix(seed),
        Ok("corrupt") => corrupt_matrix(seed),
        _ => death_matrix(seed),
    }
}

/// Service used by the drop/corrupt matrix arms: counts dispatches so the
/// exactly-once guarantee is checkable.
struct Doubler(AtomicUsize);
impl RemoteService for Doubler {
    fn dispatch(&self, _m: u32, arg: AnyPayload) -> Dispatch {
        let x: u64 = arg.downcast().unwrap();
        self.0.fetch_add(1, Ordering::SeqCst);
        AnyPayload::replicable(x * 2).into()
    }
}

/// Half the requests vanish: the retry policy (with the backoff jitter
/// seeded from the fault plane) retransmits until the provider answers;
/// the idempotency token keeps execution exactly-once.
fn drop_matrix(seed: u64) {
    let cfg = FaultConfig::reliable(seed).with_channel(0, 1, ChannelPolicy::lossy(0.5));
    let opts = RunOpts { faults: Some(cfg), ..RunOpts::default() };
    Universe::run_opts(&[1, 1], opts, |p, ctx| {
        if ctx.program == 0 {
            let ic = ctx.intercomm(1);
            let mut port = Endpoint::default();
            let policy = CallPolicy {
                deadline: Duration::from_millis(30),
                max_retries: 20,
                backoff: Duration::from_millis(1),
                ..CallPolicy::default()
            }
            .seeded(p.fault_seed());
            let got: u64 =
                port.call(ic, Invocation::independent(0, 0, 21u64).policy(policy)).unwrap();
            assert_eq!(got, 42);
            // The shutdown must not be eaten by the lossy channel.
            p.set_faults_armed(false);
            port.shutdown(ic, ServeOpts::independent()).unwrap();
        } else {
            let svc = Doubler(AtomicUsize::new(0));
            let stats: ServeStats =
                serve(ctx.intercomm(0), &svc, ServeOpts::independent()).unwrap();
            assert_eq!(svc.0.load(Ordering::SeqCst), 1, "exactly-once despite drops");
            assert_eq!(stats.calls, 1);
        }
    });
}

/// Both directions corrupt messages: corrupt requests are NACKed back,
/// corrupt responses are re-fetched from the provider's cache; execution
/// stays exactly-once.
fn corrupt_matrix(seed: u64) {
    let corrupting = ChannelPolicy { corrupt: 0.4, ..ChannelPolicy::reliable() };
    let cfg =
        FaultConfig::reliable(seed).with_channel(0, 1, corrupting).with_channel(1, 0, corrupting);
    let opts = RunOpts { faults: Some(cfg), ..RunOpts::default() };
    Universe::run_opts(&[1, 1], opts, |p, ctx| {
        if ctx.program == 0 {
            let ic = ctx.intercomm(1);
            let mut port = Endpoint::default();
            let policy = CallPolicy {
                deadline: Duration::from_millis(30),
                max_retries: 20,
                backoff: Duration::from_millis(1),
                ..CallPolicy::default()
            }
            .seeded(p.fault_seed());
            let got: u64 =
                port.call(ic, Invocation::independent(0, 0, 21u64).policy(policy)).unwrap();
            assert_eq!(got, 42);
            p.set_faults_armed(false);
            port.shutdown(ic, ServeOpts::independent()).unwrap();
        } else {
            let svc = Doubler(AtomicUsize::new(0));
            let _ = serve(ctx.intercomm(0), &svc, ServeOpts::independent()).unwrap();
            assert_eq!(svc.0.load(Ordering::SeqCst), 1, "exactly-once despite corruption");
        }
    });
}

/// A caller dies between collective calls: the next call's commit vote
/// fails on every survivor, both sides heal in lock-step (the retry
/// backoff jittered from the fault seed), and the retried sequence
/// completes with each provider executing it exactly once.
fn death_matrix(seed: u64) {
    struct Bump;
    impl RemoteService for Bump {
        fn dispatch(&self, _m: u32, arg: AnyPayload) -> Dispatch {
            let x: f64 = arg.downcast().unwrap();
            AnyPayload::replicable(x + 1.0).into()
        }
    }
    let cfg = FaultConfig::reliable(seed);
    let opts = RunOpts { faults: Some(cfg), ..RunOpts::default() };
    Universe::run_opts(&[3, 2], opts, |p, ctx| {
        if ctx.program == 0 {
            let ic = ctx.intercomm(1);
            let mut ep = Endpoint::default();
            let policy = CallPolicy {
                deadline: Duration::from_millis(100),
                max_retries: 4,
                backoff: Duration::from_millis(2),
                jitter: p.fault_seed(),
                recover: true,
            };
            let r: f64 = ep.call(ic, Invocation::collective(0, 1.0f64).policy(policy)).unwrap();
            assert_eq!(r, 2.0);
            if ctx.comm.rank() == 2 {
                p.kill_rank(p.rank());
                return;
            }
            while !p.is_dead(2) {
                std::thread::yield_now();
            }
            let r2: f64 = ep.call(ic, Invocation::collective(0, 5.0f64).policy(policy)).unwrap();
            assert_eq!(r2, 6.0);
            assert!(ep.epoch() >= 1, "the death forced at least one heal");
            ep.shutdown(ic, ServeOpts::collective()).unwrap();
        } else {
            let stats =
                serve(ctx.intercomm(0), &Bump, ServeOpts::collective().recovering()).unwrap();
            assert_eq!(stats.calls, 2, "exactly-once per provider across the heal");
        }
    });
}

/// Asserts every locally held element carries the given step's coding.
fn check_step(data: &FieldData, step: f64) {
    let d = data.read();
    for (idx, &v) in d.iter() {
        assert_eq!(v, coded(&idx, step), "mismatch at {idx:?} (step {step})");
    }
}

/// CI fault-matrix entry point for the *elastic* plane: the same
/// `MXN_FAULT_KIND` × `MXN_FAULT_SEED` grid as [`seeded_fault_matrix`],
/// aimed at the grow handshake. `death` kills the invited newcomer
/// mid-join and demands a clean rollback plus a successful retry with a
/// healthy spare; `drop` and `corrupt` arm faulty channels between the
/// sponsor and the newcomer and demand the handshake (which runs
/// fault-disarmed by design) still commits and delivers oracle-exact data.
#[test]
fn seeded_elastic_fault_matrix() {
    let seed = env_u64("MXN_FAULT_SEED", 1);
    match std::env::var("MXN_FAULT_KIND").as_deref() {
        Ok("drop") => elastic_grow_despite(ChannelPolicy::lossy(0.5), seed),
        Ok("corrupt") => {
            elastic_grow_despite(ChannelPolicy { corrupt: 0.4, ..ChannelPolicy::reliable() }, seed)
        }
        _ => elastic_death_matrix(seed),
    }
}

/// Membership-level grow with faulty sponsor↔newcomer channels armed
/// around the handshake: the reconfiguration's internal disarm keeps the
/// offer/vote traffic deliverable, the grow commits at epoch 1, and the
/// RMA rebind hands the newcomer an oracle-exact shard.
fn elastic_grow_despite(policy: ChannelPolicy, seed: u64) {
    let cfg = FaultConfig::reliable(seed)
        .with_channel(0, 2, policy)
        .with_channel(2, 0, policy)
        .with_channel(1, 2, policy)
        .with_channel(2, 1, policy);
    let opts = RunOpts { faults: Some(cfg), ..RunOpts::default() };
    World::run_opts(3, opts, |p| {
        let world = p.world();
        // World collectives (the split below) must not cross armed faulty
        // channels; arming is scoped to the handshake.
        p.set_faults_armed(false);
        let old = Dad::block(Extents::new([6, 6]), &[1, 1]).unwrap();
        let new = old.expand(2).unwrap();
        let color = if p.rank() < 2 { 0 } else { -1 };
        let pair = world.split(color, 0).unwrap();
        if p.rank() == 2 {
            let (_ic, report) =
                InterComm::await_join_with_report(world, Duration::from_secs(10)).unwrap();
            assert_eq!(report.new_local_group, vec![0, 2]);
            assert_eq!(report.epoch, 1);
            let got = redistribute_elastic(world, 31, &old, &new, &[0], &[0, 2], None, Some(1))
                .unwrap()
                .unwrap();
            let want = LocalArray::from_fn(&new, 1, |idx| (idx[0] * 6 + idx[1]) as f64);
            assert_eq!(got, want, "the newcomer's shard matches the oracle");
            return;
        }
        let side = p.rank();
        let (_prog, ic) = InterComm::create(&pair.unwrap(), side).unwrap();
        p.set_faults_armed(true);
        let (add_local, add_remote): (&[usize], &[usize]) =
            if side == 0 { (&[2], &[]) } else { (&[], &[2]) };
        let (_grown, report) = ic.expand(add_local, add_remote).unwrap();
        assert_eq!(report.epoch, 1, "the grow commits despite the armed fault plane");
        p.set_faults_armed(false);
        if p.rank() == 0 {
            let mine = LocalArray::from_fn(&old, 0, |idx| (idx[0] * 6 + idx[1]) as f64);
            let got = redistribute_elastic(
                world,
                31,
                &old,
                &new,
                &[0],
                &[0, 2],
                Some((0, &mine)),
                Some(0),
            )
            .unwrap()
            .unwrap();
            let want = LocalArray::from_fn(&new, 0, |idx| (idx[0] * 6 + idx[1]) as f64);
            assert_eq!(got, want, "the sponsor keeps an oracle-exact shard");
        }
    });
}

/// The invited newcomer dies mid-join: the handshake aborts on every
/// incumbent, the rollback leaves the old coupling committing cleanly,
/// and a retry naming a healthy spare grows the connection — the spare
/// landing with the last committed step and following the next one.
fn elastic_death_matrix(seed: u64) {
    const DOOMED: usize = 4;
    const SPARE: usize = 5;
    let cfg = FaultConfig::reliable(seed);
    let opts = RunOpts { faults: Some(cfg), ..RunOpts::default() };
    World::run_opts(6, opts, |p| {
        let world = p.world();
        // The split is a world collective: the doomed spare takes part
        // (color −1) before dying, so nobody deadlocks waiting on it.
        let color = if p.rank() < 4 { 0 } else { -1 };
        let pair = world.split(color, 0).unwrap();
        if p.rank() == DOOMED {
            p.kill_rank(DOOMED);
            return;
        }
        // Every participant observes the death before any vote runs.
        while !p.is_dead(DOOMED) {
            std::thread::yield_now();
        }
        if p.rank() == SPARE {
            let (mut conn, ic, reg) = MxnConnection::join(world, Duration::from_secs(10)).unwrap();
            assert_eq!(conn.epoch(), 1, "the healthy spare lands in the retried epoch");
            assert_eq!(conn.direction(), Direction::Import);
            let data = reg.get("f").unwrap().data().clone();
            // The join rebind delivered the last *committed* step — the
            // one published by the rolled-back coupling after the abort.
            check_step(&data, 2.0);
            conn.data_ready(&ic, &reg).unwrap();
            check_step(&data, 3.0);
            return;
        }
        let side = usize::from(p.rank() >= 2);
        let (_prog, ic) = InterComm::create(&pair.unwrap(), side).unwrap();
        let rank = ic.local_rank();
        let mut reg = FieldRegistry::new(rank);
        let src = Dad::block(Extents::new([6, 6]), &[2, 1]).unwrap();
        let dst = Dad::block(Extents::new([6, 6]), &[1, 2]).unwrap();
        let (data, mut conn) = if side == 0 {
            let data = reg.register_allocated("f", src, AccessMode::Read).unwrap();
            let conn = MxnConnection::initiate(
                &ic,
                &reg,
                0,
                "f",
                "f",
                Direction::Export,
                ConnectionKind::Persistent { period: 1 },
            )
            .unwrap();
            (data, conn)
        } else {
            let data = reg.register_allocated("f", dst, AccessMode::Write).unwrap();
            (data, MxnConnection::accept(&ic, &reg, 0).unwrap())
        };
        // One epoch at the original size.
        if side == 0 {
            refill(&reg, &data, 1.0);
        }
        conn.data_ready(&ic, &reg).unwrap();
        if side == 1 {
            check_step(&data, 1.0);
        }
        // The grow names the doomed spare: the handshake must abort, and
        // the abort must not bump the epoch.
        let before = conn.epoch();
        let (al, ar): (&[usize], &[usize]) =
            if side == 0 { (&[], &[DOOMED]) } else { (&[DOOMED], &[]) };
        let err = conn.expand(&ic, world, &mut reg, al, ar).unwrap_err();
        assert!(
            matches!(&err, MxnError::Runtime(re) if re.is_reconfig_aborted()),
            "expected a reconfig abort, got: {err}"
        );
        assert_eq!(conn.epoch(), before, "an aborted grow must not bump the epoch");
        // Rollback assert: the old coupling still commits a full step.
        if side == 0 {
            refill(&reg, &data, 2.0);
        }
        conn.data_ready(&ic, &reg).unwrap();
        if side == 1 {
            check_step(&data, 2.0);
        }
        // Retry with the healthy spare: the grow commits this time.
        let (al, ar): (&[usize], &[usize]) =
            if side == 0 { (&[], &[SPARE]) } else { (&[SPARE], &[]) };
        let (grown, report) = conn.expand(&ic, world, &mut reg, al, ar).unwrap();
        assert_eq!(conn.epoch(), 1);
        // The spare joined the import side (side 1).
        assert_eq!(report.new_local_group.len(), if side == 1 { 3 } else { 2 });
        if side == 0 {
            refill(&reg, &data, 3.0);
        }
        conn.data_ready(&grown, &reg).unwrap();
        if side == 1 {
            check_step(&data, 3.0);
        }
        assert_eq!(conn.stats(), (3, 3), "three committed transfers, zero half-commits");
    });
}
