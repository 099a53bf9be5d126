//! Transport-level properties of the bucketed mailbox under concurrency.
//!
//! The mailbox shards its queues into per-`(context, tag)` buckets for
//! targeted wakeups; these tests pin the user-visible guarantees that the
//! sharding must not disturb:
//!
//! * **Non-overtaking** — two messages from the same sender on the same
//!   `(context, tag)` are received in send order, with any mix of sender
//!   threads, tag interleavings, wildcard receives, and shared (multicast)
//!   envelopes in flight.
//! * **Failure detection** — `recv_timeout` still times out and a dead
//!   peer still raises `PeerDead` when the wait parks on a tag bucket.

use std::collections::HashMap;
use std::time::Duration;

use mxn_runtime::{ChannelPolicy, Comm, FaultConfig, RunOpts, RuntimeError, Src, Tag, World};
use proptest::prelude::*;

/// A traced message: (sender rank, tag it was sent on, per-(sender, tag)
/// sequence number).
type Traced = (usize, i32, u64);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Many sender threads, several tags each, one receiver draining with
    /// wildcard `(Src::Any, Tag::Any)` receives: per (sender, tag) the
    /// sequence numbers must arrive strictly in order, even though the
    /// messages are spread across distinct buckets and interleaved
    /// arbitrarily by the scheduler.
    #[test]
    fn non_overtaking_per_sender_tag_under_concurrency(
        senders in 1usize..5,
        ntags in 1usize..4,
        msgs in 5usize..40,
    ) {
        World::run(senders + 1, move |p| {
            let comm = p.world();
            let me = comm.rank();
            let receiver = senders; // highest rank drains
            if me < senders {
                let mut seq = vec![0u64; ntags];
                for i in 0..msgs {
                    let t = (i % ntags) as i32;
                    let payload: Traced = (me, t, seq[t as usize]);
                    seq[t as usize] += 1;
                    comm.send(receiver, t, payload).unwrap();
                }
            } else {
                let total = senders * msgs;
                let mut last: HashMap<(usize, i32), u64> = HashMap::new();
                for _ in 0..total {
                    let ((src, tag, seq), info) =
                        comm.recv_with_info::<Traced>(Src::Any, Tag::Any).unwrap();
                    assert_eq!(src, info.src, "payload vs envelope sender");
                    assert_eq!(tag, info.tag, "payload vs envelope tag");
                    let next = last.entry((src, tag)).or_insert(0);
                    assert_eq!(
                        seq, *next,
                        "message from rank {src} tag {tag} overtook its predecessor"
                    );
                    *next += 1;
                }
            }
        });
    }

    /// Shared multicast envelopes and plain owned sends interleaved on the
    /// same channel keep a single FIFO order: the receiver sees the global
    /// per-sender sequence 0..n regardless of which transport each message
    /// took.
    #[test]
    fn multicast_does_not_overtake_plain_sends(rounds in 1usize..25) {
        World::run(3, move |p| {
            let comm = p.world();
            match comm.rank() {
                0 => {
                    let mut seq = 0u64;
                    for i in 0..rounds {
                        if i % 2 == 0 {
                            comm.send(2, 9, vec![seq]).unwrap();
                            seq += 1;
                        } else {
                            // Both receivers get the same shared payload.
                            comm.multicast(&[1, 2], 9, vec![seq]).unwrap();
                            seq += 1;
                        }
                    }
                }
                1 => {
                    for i in 0..rounds {
                        if i % 2 == 1 {
                            let v: Vec<u64> = comm.recv(0, 9).unwrap();
                            assert_eq!(v, vec![i as u64]);
                        }
                    }
                }
                _ => {
                    for i in 0..rounds {
                        let v: Vec<u64> = comm.recv(0, 9).unwrap();
                        assert_eq!(v, vec![i as u64], "multicast/send interleave broke FIFO");
                    }
                }
            }
        });
    }
}

/// `recv_timeout` on a concrete tag must fire even while unrelated traffic
/// keeps landing in *other* buckets of the same mailbox (the bucket-focused
/// wait must not be woken into a lost signal, nor sleep past its deadline).
#[test]
fn recv_timeout_fires_on_empty_bucket_despite_other_traffic() {
    World::run(2, |p| {
        let comm = p.world();
        if comm.rank() == 0 {
            for i in 0..32u64 {
                comm.send(1, 1, i).unwrap();
            }
        } else {
            // Tag 2 never receives anything.
            let e = comm.recv_timeout::<u64>(0, 2, Duration::from_millis(30)).unwrap_err();
            assert!(matches!(e, RuntimeError::Timeout { .. }), "got {e}");
            // The tag-1 bucket is intact: all 32 messages drain in order.
            for i in 0..32u64 {
                assert_eq!(comm.recv::<u64>(0, 1).unwrap(), i);
            }
        }
    });
}

/// A receiver parked on a concrete-tag bucket is unblocked with `PeerDead`
/// when the awaited rank dies, rather than sleeping forever.
#[test]
fn peer_death_unblocks_bucketed_receiver() {
    let faults =
        FaultConfig::reliable(11).with_default_policy(ChannelPolicy::reliable()).with_death(0, 0);
    let opts = RunOpts { faults: Some(faults), ..RunOpts::default() };
    let trace = World::run_opts(2, opts, |p: &mxn_runtime::Process| {
        let comm: &Comm = p.world();
        if comm.rank() == 1 {
            let e = comm.recv::<u64>(0, 5).unwrap_err();
            assert!(matches!(e, RuntimeError::PeerDead { rank: 0 }), "got {e}");
        } else {
            // Rank 0 dies on its first operation.
            let _ = comm.send(1, 99, 0u64);
        }
    })
    .fault_trace;
    assert!(!trace.events().is_empty(), "the death must be traced");
}
