//! Failure injection: the error paths a production coupling middleware
//! must turn into diagnoses rather than hangs or silent corruption.

use mxn::core::{ConnectionKind, Direction, FieldRegistry, MxnConnection, MxnError};
use mxn::dad::{AccessMode, Dad, Extents};
use mxn::framework::{AnyPayload, Dispatch, RemoteService};
use mxn::prmi::{serve, Endpoint, Invocation, PrmiError, ServeOpts, ServeStats};
use mxn::runtime::{RunOpts, RunReport, RuntimeError, Src, Tag, Universe, World};

/// RMI marshalling type confusion is caught, not UB: the callee asked for
/// the wrong payload type.
#[test]
fn rmi_type_confusion_is_detected() {
    struct WrongTypes;
    impl RemoteService for WrongTypes {
        fn dispatch(&self, _m: u32, arg: AnyPayload) -> Dispatch {
            // Service expects a String but the caller sent f64.
            match arg.downcast::<String>() {
                Ok(_) => AnyPayload::new(0u8),
                Err(e) => AnyPayload::new(format!("caught: {e}")),
            }
            .into()
        }
    }
    Universe::run(&[1, 1], |_, ctx| {
        if ctx.program == 0 {
            let ic = ctx.intercomm(1);
            let mut port = Endpoint::default();
            let reply: String = port.call(ic, Invocation::independent(0, 0, 3.75f64)).unwrap();
            assert!(reply.contains("caught"), "type confusion surfaced as an error");
            port.shutdown(ic, ServeOpts::independent()).unwrap();
        } else {
            serve(ctx.intercomm(0), &WrongTypes, ServeOpts::independent()).unwrap();
        }
    });
}

/// A typed receive that matches a wrong-typed message reports the sender
/// and tag instead of panicking.
#[test]
fn runtime_type_mismatch_reports_source() {
    World::run(2, |p| {
        let c = p.world();
        if c.rank() == 0 {
            c.send(1, 9, vec![1.0f64, 2.0]).unwrap();
        } else {
            let e = c.recv::<Vec<i32>>(0, 9).unwrap_err();
            match e {
                RuntimeError::TypeMismatch { src, tag, expected } => {
                    assert_eq!((src, tag), (0, 9));
                    assert!(expected.contains("i32"));
                }
                other => panic!("unexpected error {other}"),
            }
        }
    });
}

/// Connecting to a field the peer never registered fails cleanly on BOTH
/// sides: the acceptor's validation error is NACKed back, so the
/// initiator gets a handshake error instead of hanging forever.
#[test]
fn connection_to_missing_field_fails_cleanly() {
    Universe::run(&[1, 1], |_, ctx| {
        let dad = Dad::block(Extents::new([4]), &[1]).unwrap();
        if ctx.program == 0 {
            let ic = ctx.intercomm(1);
            let mut reg = FieldRegistry::new(0);
            reg.register_allocated("f", dad, AccessMode::Read).unwrap();
            let e = MxnConnection::initiate(
                ic,
                &reg,
                0,
                "f",
                "nope",
                Direction::Export,
                ConnectionKind::OneShot,
            )
            .unwrap_err();
            match e {
                MxnError::Handshake { detail } => {
                    assert!(detail.contains("nope"), "rejection names the field: {detail}")
                }
                other => panic!("unexpected {other}"),
            }
        } else {
            let ic = ctx.intercomm(0);
            let reg = FieldRegistry::new(0); // nothing registered
            let e = MxnConnection::accept(ic, &reg, 0).unwrap_err();
            assert!(matches!(e, MxnError::FieldNotFound { .. }));
        }
    });
}

/// Wrong access mode on the accepting side: AccessDenied locally, a
/// handshake rejection remotely.
#[test]
fn acceptor_access_mode_rejection_propagates() {
    Universe::run(&[1, 1], |_, ctx| {
        let dad = Dad::block(Extents::new([4]), &[1]).unwrap();
        if ctx.program == 0 {
            let ic = ctx.intercomm(1);
            let mut reg = FieldRegistry::new(0);
            reg.register_allocated("src_field", dad, AccessMode::Read).unwrap();
            let e = MxnConnection::initiate(
                ic,
                &reg,
                0,
                "src_field",
                "read_only_sink",
                Direction::Export,
                ConnectionKind::OneShot,
            )
            .unwrap_err();
            assert!(
                matches!(e, MxnError::Handshake { ref detail } if detail.contains("write")),
                "initiator learns why: {e}"
            );
        } else {
            let ic = ctx.intercomm(0);
            let mut reg = FieldRegistry::new(0);
            reg.register_allocated("read_only_sink", dad, AccessMode::Read).unwrap();
            let e = MxnConnection::accept(ic, &reg, 0).unwrap_err();
            assert!(matches!(e, MxnError::AccessDenied { needed: "write", .. }));
        }
    });
}

/// DCA redistribution specs are validated: counts exceeding the buffer and
/// wrong peer counts are rejected before any message is sent.
#[test]
fn dca_spec_validation() {
    use mxn::dca::{alltoallv_within, AlltoallvSpec};
    World::run(2, |p| {
        let comm = p.world();
        let data = vec![1.0, 2.0];
        // Chunk runs past the end of the buffer.
        let bad = AlltoallvSpec::new(vec![2, 2], vec![0, 1]).unwrap();
        let e = alltoallv_within(comm, &data, &bad).unwrap_err();
        assert!(matches!(e, RuntimeError::CollectiveMismatch { .. }));
        // Wrong number of peers.
        let wrong_peers = AlltoallvSpec::contiguous(&[1]);
        let e = alltoallv_within(comm, &data, &wrong_peers).unwrap_err();
        assert!(matches!(e, RuntimeError::CollectiveMismatch { .. }));
        // A valid spec still works afterwards (no poisoned state).
        let ok = AlltoallvSpec::contiguous(&[1, 1]);
        let got = alltoallv_within(comm, &data, &ok).unwrap();
        assert_eq!(got.len(), 2);
    });
}

/// A panicking rank aborts the world: blocked peers get `Aborted` instead
/// of hanging, and the panic is re-thrown to the caller.
#[test]
fn rank_panic_unblocks_the_world() {
    let result = std::panic::catch_unwind(|| {
        Universe::run(&[2, 1], |_, ctx| {
            if ctx.program == 0 && ctx.comm.rank() == 1 {
                panic!("injected failure");
            }
            // Everyone else blocks on traffic that will never come.
            let e = ctx.comm.recv::<u8>(Src::Any, Tag::Any).unwrap_err();
            assert_eq!(e, RuntimeError::Aborted);
        });
    });
    assert!(result.is_err(), "the injected panic must propagate");
}

/// Registering storage of the wrong shape is rejected with exact numbers.
#[test]
fn storage_shape_mismatch_diagnosed() {
    let dad4 = Dad::block(Extents::new([4, 4]), &[2, 1]).unwrap();
    let dad6 = Dad::block(Extents::new([6, 6]), &[2, 1]).unwrap();
    let mut reg = FieldRegistry::new(0);
    let storage = reg.register_allocated("a", dad6, AccessMode::Read).unwrap();
    let e = reg.register("b", dad4, AccessMode::Read, storage).unwrap_err();
    match e {
        MxnError::StorageMismatch { expected, actual, .. } => {
            assert_eq!((expected, actual), (8, 18));
        }
        other => panic!("unexpected {other}"),
    }
}

// ---------------------------------------------------------------------------
// Fault-plane failure injection: drops, deaths and retries.
// ---------------------------------------------------------------------------

use mxn::framework::CallPolicy;
use mxn::runtime::{ChannelPolicy, FaultConfig, FaultKind};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// A handshake message eaten by a lossy channel surfaces as a `Timeout`
/// carrying the elapsed wait and the (src, tag) being waited on — never a
/// hang — and the drop is recorded in the fault trace.
#[test]
fn dropped_handshake_times_out_with_context() {
    let cfg = FaultConfig::reliable(0xBEEF).with_channel(0, 1, ChannelPolicy::lossy(1.0));
    let opts = RunOpts { faults: Some(cfg), ..RunOpts::default() };
    let trace = World::run_opts(2, opts, |p| {
        let c = p.world();
        if c.rank() == 0 {
            // The "handshake": swallowed whole by the 0→1 policy.
            c.send(1, 11, 42u32).unwrap();
        } else {
            let e = c.recv_timeout::<u32>(0, 11, Duration::from_millis(40)).unwrap_err();
            match e {
                RuntimeError::Timeout { elapsed, src, tag, .. } => {
                    assert!(elapsed >= Duration::from_millis(40));
                    assert_eq!(src, Src::Rank(0));
                    assert_eq!(tag, Tag::Value(11));
                }
                other => panic!("expected Timeout, got {other}"),
            }
        }
    })
    .fault_trace;
    assert!(
        trace.events().iter().any(|e| e.kind == FaultKind::Dropped && e.src == 0 && e.dst == 1),
        "the dropped handshake is in the trace: {:?}",
        trace.events()
    );
}

/// When the handshake initiator *dies* (scheduled death), the blocked
/// receiver gets `PeerDead` instead of waiting out a timeout.
#[test]
fn initiator_death_unblocks_receiver_with_peer_dead() {
    let cfg =
        FaultConfig::reliable(3).with_channel(0, 1, ChannelPolicy::lossy(1.0)).with_death(0, 1);
    let opts = RunOpts { faults: Some(cfg), ..RunOpts::default() };
    let RunReport { results, fault_trace: trace, .. } = World::run_opts(2, opts, |p| {
        let c = p.world();
        if c.rank() == 0 {
            c.send(1, 5, 1u8).unwrap(); // op 0: sent, dropped
            c.send(1, 5, 2u8).unwrap_err() // op 1: own death fires
        } else {
            // Blocking receive, no timeout: only the liveness registry can
            // save us from hanging here.
            c.recv::<u8>(0, 5).unwrap_err()
        }
    });
    assert_eq!(results[0], RuntimeError::PeerDead { rank: 0 });
    assert_eq!(results[1], RuntimeError::PeerDead { rank: 0 });
    assert!(trace.events().iter().any(|e| matches!(e.kind, FaultKind::Death(_))));
}

/// A retried PRMI call executes **exactly once** server-side: the service
/// is slow enough that the client's per-attempt deadline fires and it
/// retransmits; the idempotency token makes the server re-send the cached
/// response instead of dispatching again.
#[test]
fn retried_prmi_call_executes_exactly_once() {
    struct SlowCounter(AtomicUsize);
    impl RemoteService for SlowCounter {
        fn dispatch(&self, _m: u32, arg: AnyPayload) -> Dispatch {
            // Slower than the client's per-attempt deadline, so at least
            // one retransmission is in flight before we answer.
            std::thread::sleep(Duration::from_millis(120));
            let x: u64 = arg.downcast().unwrap();
            let n = self.0.fetch_add(1, Ordering::SeqCst) + 1;
            AnyPayload::replicable(x + n as u64).into()
        }
    }
    Universe::run(&[1, 1], |_, ctx| {
        if ctx.program == 0 {
            let ic = ctx.intercomm(1);
            let mut port = Endpoint::default();
            let policy = CallPolicy {
                deadline: Duration::from_millis(40),
                max_retries: 8,
                backoff: Duration::from_millis(2),
                ..CallPolicy::default()
            };
            let got: u64 =
                port.call(ic, Invocation::independent(0, 0, 100u64).policy(policy)).unwrap();
            assert_eq!(got, 101, "executed once: result reflects a single increment");
            port.shutdown(ic, ServeOpts::independent()).unwrap();
        } else {
            let svc = SlowCounter(AtomicUsize::new(0));
            let stats: ServeStats =
                serve(ctx.intercomm(0), &svc, ServeOpts::independent()).unwrap();
            assert_eq!(svc.0.load(Ordering::SeqCst), 1, "dispatched exactly once");
            assert_eq!(stats.calls, 1);
            assert!(stats.duplicate_requests >= 1, "at least one retransmission deduped");
        }
    });
}

/// Kills a source rank mid-redistribution: every surviving rank of the
/// coupling — both sides — returns `PeerFailed` for the transfer instead
/// of hanging or silently accepting partial data.
#[test]
fn rank_death_mid_redistribution_fails_all_survivors() {
    let results = Universe::run(&[2, 2], |p, ctx| {
        let rank = ctx.comm.rank();
        let src = Dad::block(Extents::new([6, 6]), &[2, 1]).unwrap();
        let dst = Dad::block(Extents::new([6, 6]), &[1, 2]).unwrap();
        let mut reg = FieldRegistry::new(rank);
        let conn = if ctx.program == 0 {
            reg.register_allocated("f", src, AccessMode::Read).unwrap();
            MxnConnection::initiate(
                ctx.intercomm(1),
                &reg,
                0,
                "f",
                "f",
                Direction::Export,
                ConnectionKind::OneShot,
            )
        } else {
            reg.register_allocated("f", dst, AccessMode::Write).unwrap();
            MxnConnection::accept(ctx.intercomm(0), &reg, 0)
        };
        let mut conn = conn.unwrap();
        // Everyone is alive through establishment…
        p.world().barrier().unwrap();
        // …then world rank 1 (source rank 1) drops dead without sending.
        // It kills itself only after its own barrier completed, so the
        // pre-death barrier notifications it already sent still drain on
        // the ranks that are one dissemination round behind.
        if p.rank() == 1 {
            p.kill_rank(1);
            return None;
        }
        if p.rank() == 0 {
            // A pure sender would otherwise race past the consistency
            // check before the death lands.
            while !p.is_dead(1) {
                std::thread::yield_now();
            }
        }
        let ic = if ctx.program == 0 { ctx.intercomm(1) } else { ctx.intercomm(0) };
        Some(conn.data_ready(ic, &reg).unwrap_err())
    });
    for (rank, r) in results.iter().enumerate() {
        match r {
            None => assert_eq!(rank, 1, "only the dead rank skips the transfer"),
            // The `tag` differs by how the failure surfaced (a specific
            // receive vs the post-transfer liveness sweep); the dead
            // participant is named consistently either way.
            Some(MxnError::PeerFailed { rank: dead, .. }) => {
                assert_eq!(*dead, 1, "rank {rank} reports the dead participant consistently")
            }
            Some(other) => panic!("rank {rank}: expected PeerFailed, got {other}"),
        }
    }
}

/// A free-running producer that dies leaves its queued transfers intact:
/// the polling consumer drains the whole backlog (newest data wins), then
/// sees only quiet — and the death stays observable for an orderly
/// shutdown. Never a hang, never a torn snapshot.
#[test]
fn poll_latest_drains_backlog_of_dead_producer() {
    use mxn::core::TransferOutcome;
    Universe::run(&[1, 1], |p, ctx| {
        let dad = Dad::block(Extents::new([6]), &[1]).unwrap();
        if ctx.program == 0 {
            let ic = ctx.intercomm(1);
            let mut reg = FieldRegistry::new(0);
            let data = reg.register_allocated("s", dad, AccessMode::Read).unwrap();
            let mut conn = MxnConnection::initiate(
                ic,
                &reg,
                0,
                "s",
                "s",
                Direction::Export,
                ConnectionKind::Persistent { period: 1 },
            )
            .unwrap();
            for round in 1..=3u64 {
                {
                    let mut d = data.write();
                    for i in 0..6usize {
                        *d.get_mut(&[i]).unwrap() = (round * 100 + i as u64) as f64;
                    }
                }
                assert!(matches!(
                    conn.data_ready(ic, &reg).unwrap(),
                    TransferOutcome::Transferred { .. }
                ));
            }
            p.kill_rank(p.rank());
        } else {
            let ic = ctx.intercomm(0);
            let mut reg = FieldRegistry::new(0);
            let data = reg.register_allocated("s", dad, AccessMode::Write).unwrap();
            let mut conn = MxnConnection::accept(ic, &reg, 0).unwrap();
            // Let the producer finish every round and die before polling.
            while !p.is_dead(0) {
                std::thread::yield_now();
            }
            let drained = conn.poll_latest(ic, &reg).unwrap();
            assert_eq!(drained, 3, "messages sent before the death still drain");
            {
                let d = data.read();
                for i in 0..6usize {
                    assert_eq!(*d.get(&[i]).unwrap(), (300 + i) as f64, "newest round wins");
                }
            }
            assert_eq!(conn.poll_latest(ic, &reg).unwrap(), 0, "quiet after the backlog");
            assert!(ic.any_dead().is_some(), "the death is observable for shutdown");
        }
    });
}

/// A lossy channel that silences one producer withholds the *whole* round
/// from the polling consumer: `poll_latest` only consumes complete rounds,
/// so the half-arrived snapshot is never unpacked (no tearing), and the
/// drops are attributable in the fault trace.
#[test]
fn poll_latest_withholds_torn_rounds_on_lossy_channel() {
    use mxn::core::TransferOutcome;
    // World layout: ranks 0,1 = producers, rank 2 = consumer. Every
    // coupling message from producer 1 to the consumer is eaten.
    let cfg = FaultConfig::reliable(0xD1CE).with_channel(1, 2, ChannelPolicy::lossy(1.0));
    let opts = RunOpts { faults: Some(cfg), ..RunOpts::default() };
    let trace = Universe::run_opts(&[2, 1], opts, |_, ctx| {
        let src = Dad::block(Extents::new([6]), &[2]).unwrap();
        let dst = Dad::block(Extents::new([6]), &[1]).unwrap();
        if ctx.program == 0 {
            let ic = ctx.intercomm(1);
            let mut reg = FieldRegistry::new(ctx.comm.rank());
            reg.register_allocated("s", src, AccessMode::Read).unwrap();
            let mut conn = MxnConnection::initiate(
                ic,
                &reg,
                0,
                "s",
                "s",
                Direction::Export,
                ConnectionKind::Persistent { period: 1 },
            )
            .unwrap();
            assert!(matches!(
                conn.data_ready(ic, &reg).unwrap(),
                TransferOutcome::Transferred { .. }
            ));
            // Producers confirm completion so the consumer polls only
            // after the surviving half of the round has been delivered.
            ctx.comm.barrier().unwrap();
            if ctx.comm.rank() == 0 {
                ic.send(0, 777, 1u8).unwrap();
            }
        } else {
            let ic = ctx.intercomm(0);
            let mut reg = FieldRegistry::new(0);
            let data = reg.register_allocated("s", dst, AccessMode::Write).unwrap();
            let mut conn = MxnConnection::accept(ic, &reg, 0).unwrap();
            let _: u8 = ic.recv(0, 777).unwrap();
            assert_eq!(
                conn.poll_latest(ic, &reg).unwrap(),
                0,
                "an incomplete round is withheld, not partially unpacked"
            );
            let d = data.read();
            for i in 0..6usize {
                assert_eq!(*d.get(&[i]).unwrap(), 0.0, "no tearing: field untouched");
            }
        }
    })
    .fault_trace;
    assert!(
        trace.events().iter().any(|e| e.kind == FaultKind::Dropped && e.src == 1 && e.dst == 2),
        "the swallowed half-round is attributable: {:?}",
        trace.events()
    );
}

/// Persistent-period coupling across a death: non-due steps stay quiet,
/// the next *due* step reports `PeerFailed` naming the dead rank on every
/// survivor, and the committed-transfer count never moves.
#[test]
fn persistent_period_transfer_fails_due_step_after_death() {
    let results = Universe::run(&[2, 2], |p, ctx| {
        let rank = ctx.comm.rank();
        let src = Dad::block(Extents::new([6, 6]), &[2, 1]).unwrap();
        let dst = Dad::block(Extents::new([6, 6]), &[1, 2]).unwrap();
        let mut reg = FieldRegistry::new(rank);
        let conn = if ctx.program == 0 {
            reg.register_allocated("f", src, AccessMode::Read).unwrap();
            MxnConnection::initiate(
                ctx.intercomm(1),
                &reg,
                0,
                "f",
                "f",
                Direction::Export,
                ConnectionKind::Persistent { period: 2 },
            )
        } else {
            reg.register_allocated("f", dst, AccessMode::Write).unwrap();
            MxnConnection::accept(ctx.intercomm(0), &reg, 0)
        };
        let mut conn = conn.unwrap();
        let ic = if ctx.program == 0 { ctx.intercomm(1) } else { ctx.intercomm(0) };
        // Step 1 (due): a clean transfer while everyone is alive.
        conn.data_ready(ic, &reg).unwrap();
        p.world().barrier().unwrap();
        // Source rank 1 (world rank 1) dies between periods.
        if p.rank() == 1 {
            p.kill_rank(1);
            return None;
        }
        while !p.is_dead(1) {
            std::thread::yield_now();
        }
        // Step 2 is off-period: no traffic, no failure check, no progress.
        use mxn::core::TransferOutcome;
        assert_eq!(conn.data_ready(ic, &reg).unwrap(), TransferOutcome::Skipped);
        // Step 3 is due again: every survivor gets the same diagnosis.
        let e = conn.data_ready(ic, &reg).unwrap_err();
        assert_eq!(conn.stats().1, 1, "the committed count never moves on failure");
        Some(e)
    });
    for (rank, r) in results.iter().enumerate() {
        match r {
            None => assert_eq!(rank, 1),
            Some(MxnError::PeerFailed { rank: dead, .. }) => {
                assert_eq!(*dead, 1, "rank {rank} names the dead participant")
            }
            Some(other) => panic!("rank {rank}: expected PeerFailed, got {other}"),
        }
    }
}

/// An RMI call to a provider that died fails fast with `PeerDead` — the
/// retry policy does not burn its attempt budget on a corpse.
#[test]
fn prmi_call_to_dead_provider_fails_fast() {
    let start = std::time::Instant::now();
    Universe::run(&[1, 1], |p, ctx| {
        if ctx.program == 0 {
            let ic = ctx.intercomm(1);
            let policy = CallPolicy {
                deadline: Duration::from_secs(5),
                max_retries: 10,
                backoff: Duration::from_millis(1),
                ..CallPolicy::default()
            };
            let inv = Invocation::independent(0, 0, 1).policy(policy);
            let e = Endpoint::default().call::<u64, u64>(ic, inv).unwrap_err();
            assert!(
                matches!(e, PrmiError::Runtime(RuntimeError::PeerDead { .. })),
                "expected PeerDead, got {e}"
            );
        } else {
            // The provider dies instead of serving.
            p.kill_rank(p.rank());
        }
    });
    assert!(start.elapsed() < Duration::from_secs(5), "failed fast, not via timeouts");
}
