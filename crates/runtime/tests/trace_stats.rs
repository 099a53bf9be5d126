//! The two accounting planes cannot drift: per-collective trace
//! aggregates must equal the `WorldStats` counters, and error returns
//! must bump both the counters *and* the trace.

use std::time::Duration;

use mxn_runtime::{
    err_code, ChannelPolicy, CollOp, EventId, FaultConfig, InterComm, RunOpts, RunReport,
    RuntimeError, World,
};

/// Drives every collective at least once, then checks that the trace's
/// per-op `CollMsg`/`CollClone`/`CollAlloc` totals equal the stats
/// tables exactly — they are emitted at the same sites, so any drift
/// means an instrumentation bug.
#[test]
fn per_collective_trace_aggregates_match_world_stats() {
    let opts = RunOpts { trace: true, ..RunOpts::default() };
    let report = World::run_opts(4, opts, |p| {
        let c = p.world();
        let r = c.rank();
        c.barrier().unwrap();
        let v = c.bcast(0, (r == 0).then(|| vec![1.0f64; 64])).unwrap();
        assert_eq!(v.len(), 64);
        let gathered = c.gather(1, r as u64).unwrap();
        if r == 1 {
            assert_eq!(gathered.unwrap(), vec![0, 1, 2, 3]);
        }
        let all = c.allgather(r as u32).unwrap();
        assert_eq!(all, vec![0, 1, 2, 3]);
        let mine: u64 = c.scatter(2, (r == 2).then(|| vec![10u64, 11, 12, 13])).unwrap();
        assert_eq!(mine, 10 + r as u64);
        let swapped = c.alltoall((0..4).map(|d| (r * 10 + d) as u64).collect()).unwrap();
        assert_eq!(swapped, (0..4).map(|s| (s * 10 + r) as u64).collect::<Vec<_>>());
        let red = c.reduce(0, r as u64, |a, b| *a += b).unwrap();
        if r == 0 {
            assert_eq!(red, Some(6));
        }
        // A scalar allreduce and a bulk one (both reduce + shared bcast).
        assert_eq!(c.allreduce(1u64, |a, b| *a += b).unwrap(), 4);
        let big = c.allreduce(vec![1.0f64; 1024], |a, b| {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        });
        assert_eq!(big.unwrap()[0], 4.0);
        let rs = c.reduce_scatter((0..4).map(|d| (d + r) as u64).collect(), |a, b| *a += b);
        assert_eq!(rs.unwrap(), 4 * r as u64 + 6); // Σ_src (r + src)
        let sc = c.scan(r as u64, |a, b| *a += b).unwrap();
        assert_eq!(sc, (0..=r as u64).sum::<u64>());
    });
    let (stats, trace) = (report.stats, report.trace.unwrap());

    let agg = trace.aggregate();
    for op in CollOp::ALL {
        let i = op.index();
        let t = agg.coll.get(&(i as u64)).copied().unwrap_or_default();
        assert_eq!(
            t.messages, stats.coll_op_messages[i],
            "{op:?}: trace CollMsg count != stats messages"
        );
        assert_eq!(t.bytes, stats.coll_op_bytes[i], "{op:?}: trace bytes != stats bytes");
        assert_eq!(
            t.clones, stats.coll_op_payload_clones[i],
            "{op:?}: trace clones != stats clones"
        );
        assert_eq!(
            t.allocs, stats.coll_op_payload_allocs[i],
            "{op:?}: trace allocs != stats allocs"
        );
    }
    // The workload exercised every collective: each op shows traffic
    // except the zero-byte barrier (messages yes, bytes zero).
    for op in CollOp::ALL {
        assert!(
            stats.coll_op_messages[op.index()] > 0,
            "{op:?} was never exercised by the workload"
        );
    }
    assert!(agg.count(EventId::Collective) >= 4 * CollOp::COUNT as u64 - 4);
}

/// Each counted error class has exactly one `OpError` event per counter
/// bump in `report`: `Timeout` = `recv_timeouts`, `PeerDead` =
/// `peer_dead_errors`.
fn assert_planes_agree<R>(report: &RunReport<R>) {
    let agg = report.trace.as_ref().expect("traced run").aggregate();
    let events = |code| agg.errors.get(&code).copied().unwrap_or(0);
    assert_eq!(
        events(err_code::TIMEOUT),
        report.stats.recv_timeouts,
        "OpError(Timeout) events == recv_timeouts counter"
    );
    assert_eq!(
        events(err_code::PEER_DEAD),
        report.stats.peer_dead_errors,
        "OpError(PeerDead) events == peer_dead_errors counter"
    );
}

/// `Timeout` and `PeerDead` error returns update the stats counters and
/// emit `OpError` events *consistently* — one counter bump and one event
/// per failed operation, on every mailbox branch: plain recv, intercomm
/// recv, and collective take (through `barrier_timeout`).
#[test]
fn error_returns_update_both_accounting_planes() {
    // A lossy channel drops the only message, so rank 1 times out twice;
    // then rank 0's scheduled death turns rank 1's blocking recv into
    // PeerDead.
    let cfg = FaultConfig::reliable(0xFEED)
        .with_channel(0, 1, ChannelPolicy::lossy(1.0))
        .with_death(0, 2);
    let opts = RunOpts { faults: Some(cfg), trace: true, ..RunOpts::default() };
    let report = World::run_opts(2, opts, |p| {
        let c = p.world();
        if c.rank() == 0 {
            c.send(1, 3, 7u8).unwrap(); // op 0: dropped
                                        // Op 1 blocks until rank 1 has timed out twice, so rank 0 is
                                        // provably alive while the timeouts happen.
            c.recv::<u8>(1, 99).unwrap();
            c.send(1, 3, 9u8).unwrap_err(); // op 2: own scheduled death
        } else {
            for _ in 0..2 {
                let e = c.recv_timeout::<u8>(0, 3, Duration::from_millis(25)).unwrap_err();
                assert!(matches!(e, RuntimeError::Timeout { .. }), "got {e}");
            }
            c.send(0, 99, 1u8).unwrap();
            let e = c.recv::<u8>(0, 3).unwrap_err();
            assert!(matches!(e, RuntimeError::PeerDead { .. }), "got {e}");
        }
    });
    assert_eq!(report.stats.recv_timeouts, 2, "both timeouts counted");
    assert!(report.stats.peer_dead_errors >= 1, "the PeerDead return counted");
    assert_planes_agree(&report);
    // The timeouts carry the awaited (src, tag) for diagnosis.
    let trace = report.trace.unwrap();
    let timeout_ev = trace
        .events
        .iter()
        .find(|e| e.id == EventId::OpError && e.args[0] == err_code::TIMEOUT)
        .expect("a Timeout OpError event");
    assert_eq!(timeout_ev.args[1], 0, "src rank recorded");
    assert_eq!(timeout_ev.args[2], 3, "tag recorded");

    // An intercomm receive from a remote rank that never sends.
    let traced = || RunOpts { trace: true, ..RunOpts::default() };
    let report = World::run_opts(2, traced(), |p| {
        let (_, ic) = InterComm::create(p.world(), p.rank()).unwrap();
        if p.rank() == 1 {
            let e = ic.recv_timeout::<u8>(0, 5, Duration::from_millis(25)).unwrap_err();
            assert!(matches!(e, RuntimeError::Timeout { .. }), "got {e}");
        }
    });
    assert_eq!(report.stats.recv_timeouts, 1, "the intercomm timeout counted");
    assert_planes_agree(&report);

    // A barrier that rank 1 never enters: rank 0's collective take times
    // out. Rank 1 waits for rank 0 to give up before it leaves.
    let report = World::run_opts(2, traced(), |p| {
        let c = p.world();
        if c.rank() == 0 {
            let e = c.barrier_timeout(Duration::from_millis(25)).unwrap_err();
            assert!(matches!(e, RuntimeError::Timeout { .. }), "got {e}");
            c.send(1, 1, 0u8).unwrap();
        } else {
            c.recv::<u8>(0, 1).unwrap();
        }
    });
    assert_eq!(report.stats.recv_timeouts, 1, "the barrier timeout counted");
    assert_planes_agree(&report);
}

/// `Comm::split`'s bootstrap receive accounts its errors: the context
/// owner (rank 0) dies at its context multicast — its op 1, after the
/// allgather's one send — so rank 1's `split` returns `PeerDead`, and that
/// return is counted and traced like any other.
#[test]
fn split_bootstrap_receive_accounts_its_errors() {
    let cfg = FaultConfig::reliable(0x5917).with_death(0, 1);
    let opts = RunOpts { faults: Some(cfg), trace: true, ..RunOpts::default() };
    let report = World::run_opts(2, opts, |p| {
        let e = p.world().split(0, 0).err().expect("the context owner dies");
        assert!(matches!(e, RuntimeError::PeerDead { .. }), "rank {}: {e}", p.rank());
    });
    assert!(report.stats.peer_dead_errors >= 1, "rank 1's PeerDead counted");
    assert_planes_agree(&report);
}
