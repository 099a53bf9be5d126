//! Serving-plane semantics: per-connection FIFO, batching transparency,
//! admission control, cooperative backpressure, and the PRMI bridge.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mxn_framework::{AnyPayload, Dispatch, RemoteService, ShedReason};
use mxn_prmi::{serve, ServeOpts};
use mxn_runtime::{InterComm, World};
use mxn_serve::{
    PlaneBackend, PrmiBackend, ServeError, ServeOutcome, ServePolicy, ServiceBackend, ServingPlane,
};
use proptest::prelude::*;

/// Methods: 0 → x+1, 1 → x*2, else MethodNotFound. Counts batch calls so
/// tests can assert amortization happened.
struct Arith {
    batches: AtomicU64,
    items: AtomicU64,
}

impl Arith {
    fn new() -> Arc<Self> {
        Arc::new(Arith { batches: AtomicU64::new(0), items: AtomicU64::new(0) })
    }
}

impl RemoteService for Arith {
    fn dispatch(&self, method: u32, arg: AnyPayload) -> Dispatch {
        let x: u64 = arg.downcast().unwrap();
        match method {
            0 => AnyPayload::new(x + 1).into(),
            1 => AnyPayload::new(x * 2).into(),
            _ => Dispatch::MethodNotFound,
        }
    }

    fn dispatch_batch(&self, method: u32, args: Vec<AnyPayload>) -> Vec<Dispatch> {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.items.fetch_add(args.len() as u64, Ordering::Relaxed);
        args.into_iter().map(|a| self.dispatch(method, a)).collect()
    }
}

/// A backend that stalls, so queues build while the test watches.
struct SlowBackend {
    service: ServiceBackend,
    delay: Duration,
}

impl PlaneBackend for SlowBackend {
    fn dispatch_batch(&mut self, method: u32, args: Vec<AnyPayload>) -> Vec<Dispatch> {
        std::thread::sleep(self.delay);
        self.service.dispatch_batch(method, args)
    }
}

fn arith_plane(policy: ServePolicy, svc: &Arc<Arith>) -> ServingPlane {
    let svc = Arc::clone(svc);
    ServingPlane::new(policy, move |_| {
        Box::new(ServiceBackend::new(Arc::clone(&svc) as Arc<dyn RemoteService>))
    })
}

/// Drives `methods[i]` with argument `i` on one connection and returns the
/// reply stream `(seq, value-or-err-marker)` in arrival order.
fn drive(plane: &ServingPlane, methods: &[u32]) -> Vec<(u64, Result<u64, u32>)> {
    let mut client = plane.client();
    let mut seqs = Vec::new();
    for (i, &m) in methods.iter().enumerate() {
        seqs.push(client.send(m, AnyPayload::new(i as u64)).unwrap());
    }
    let mut out = Vec::new();
    for _ in &seqs {
        let reply = client.recv().unwrap();
        let entry = match reply.outcome {
            ServeOutcome::Reply(p) => Ok(p.downcast::<u64>().unwrap()),
            ServeOutcome::MethodNotFound { method } => Err(method),
            ServeOutcome::Overloaded { .. } => panic!("unexpected shed in FIFO test"),
        };
        out.push((reply.seq, entry));
    }
    out
}

#[test]
fn replies_arrive_in_request_order_per_connection() {
    let svc = Arith::new();
    let plane = arith_plane(ServePolicy::default().with_shards(2).with_max_batch(8), &svc);
    let methods = [0, 0, 1, 9, 1, 0];
    let got = drive(&plane, &methods);
    let want: Vec<(u64, Result<u64, u32>)> = methods
        .iter()
        .enumerate()
        .map(|(i, &m)| {
            let x = i as u64;
            (
                x,
                match m {
                    0 => Ok(x + 1),
                    1 => Ok(x * 2),
                    other => Err(other),
                },
            )
        })
        .collect();
    assert_eq!(got, want);
    plane.shutdown();
}

#[test]
fn batching_amortizes_dispatch_calls() {
    let svc = Arith::new();
    // One shard so every request funnels into the same queue; the client
    // pipelines far more requests than batches.
    let plane = arith_plane(
        ServePolicy::default().with_shards(1).with_max_batch(64).with_client_queue(512),
        &svc,
    );
    let methods: Vec<u32> = (0..256).map(|_| 0).collect();
    drive(&plane, &methods);
    let stats = plane.shutdown();
    let totals = stats.totals();
    assert_eq!(totals.replies, 256);
    assert_eq!(svc.items.load(Ordering::Relaxed), 256);
    let batches = svc.batches.load(Ordering::Relaxed);
    assert!(
        batches < 256,
        "pipelined same-method traffic must batch (got {batches} dispatches for 256 calls)"
    );
    assert!(totals.batch_peak > 1, "at least one multi-request batch");
}

#[test]
fn admission_control_sheds_with_queue_depth() {
    let svc = Arith::new();
    let policy = ServePolicy::default()
        .with_shards(1)
        .with_shard_queue(4)
        .with_inflight_budget(4)
        .with_client_queue(64)
        .with_max_batch(4);
    let svc2 = Arc::clone(&svc);
    let plane = ServingPlane::new(policy, move |_| {
        Box::new(SlowBackend {
            service: ServiceBackend::new(Arc::clone(&svc2) as Arc<dyn RemoteService>),
            delay: Duration::from_millis(30),
        })
    });
    let mut client = plane.client();
    let total = 32;
    for i in 0..total {
        client.send(0, AnyPayload::new(i as u64)).unwrap();
    }
    let mut served = 0u32;
    let mut shed = 0u32;
    for _ in 0..total {
        match client.recv().unwrap().outcome {
            ServeOutcome::Reply(_) => served += 1,
            ServeOutcome::Overloaded { queue_depth, reason } => {
                assert_eq!(reason, ShedReason::AdmissionFull);
                assert!(queue_depth >= 4, "shed carries the observed depth, got {queue_depth}");
                shed += 1;
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    assert!(shed > 0, "a 4-deep budget cannot absorb 32 instant sends");
    assert!(served >= 4, "admitted requests still complete");
    drop(client);
    let stats = plane.shutdown();
    assert_eq!(stats.totals().shed_admission, shed as u64);
    assert_eq!(stats.totals().replies, total as u64);
}

#[test]
fn slow_client_parks_its_own_thread_not_the_shard() {
    let svc = Arith::new();
    // Window of 2: the third pipelined send must park until a reply lands.
    let policy = ServePolicy::default()
        .with_shards(1)
        .with_client_queue(2)
        .with_shard_queue(1024)
        .with_inflight_budget(1024);
    let plane = arith_plane(policy, &svc);
    let mut client = plane.client();
    for i in 0..16 {
        client.send(0, AnyPayload::new(i as u64)).unwrap();
    }
    for i in 0..16 {
        let reply = client.recv().unwrap();
        match reply.outcome {
            ServeOutcome::Reply(p) => assert_eq!(p.downcast::<u64>().unwrap(), i + 1),
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    drop(client);
    let stats = plane.shutdown();
    assert!(stats.totals().parks > 0, "a 2-wide window must park a 16-deep pipeline");
    assert_eq!(stats.totals().shed_admission, 0, "backpressure, not shedding");
}

#[test]
fn queue_deadline_sheds_stale_requests() {
    let svc = Arith::new();
    let policy = ServePolicy::default()
        .with_shards(1)
        .with_max_batch(2)
        .with_client_queue(256)
        .with_queue_deadline(Duration::from_millis(10));
    let svc2 = Arc::clone(&svc);
    let plane = ServingPlane::new(policy, move |_| {
        Box::new(SlowBackend {
            service: ServiceBackend::new(Arc::clone(&svc2) as Arc<dyn RemoteService>),
            delay: Duration::from_millis(25),
        })
    });
    let mut client = plane.client();
    let total = 12;
    for i in 0..total {
        client.send(0, AnyPayload::new(i as u64)).unwrap();
    }
    let mut deadline_shed = 0;
    for _ in 0..total {
        if let ServeOutcome::Overloaded { reason, .. } = client.recv().unwrap().outcome {
            assert_eq!(reason, ShedReason::QueueDeadline);
            deadline_shed += 1;
        }
    }
    assert!(deadline_shed > 0, "25ms batches must age a 10ms deadline out");
    drop(client);
    assert_eq!(plane.shutdown().totals().shed_deadline, deadline_shed);
}

#[test]
fn plane_bridges_batches_through_the_prmi_collective_loop() {
    // 2 ranks: rank 0 runs the plane with a PrmiBackend over a 1×1
    // intercomm; rank 1 is the provider running the batched serve loop.
    let results = World::run(2, |p| {
        let world = p.world();
        let me = world.rank();
        let (_local, ic) = InterComm::create(world, if me == 0 { 0 } else { 1 }).unwrap();
        if me == 0 {
            // The factory runs once (one shard); the intercomm moves onto
            // the shard thread.
            let mut ic = Some(ic);
            let plane = ServingPlane::new(
                ServePolicy::default().with_shards(1).with_max_batch(16),
                move |_| Box::new(PrmiBackend::new(ic.take().expect("single shard"))),
            );
            let mut client = plane.client();
            let mut seqs = Vec::new();
            for i in 0..10u64 {
                // Replicable: the collective layer may fan the batch out.
                seqs.push(client.send(0, AnyPayload::replicable(i)).unwrap());
            }
            let mut sum = 0;
            for _ in &seqs {
                match client.recv().unwrap().outcome {
                    ServeOutcome::Reply(p) => sum += p.downcast::<u64>().unwrap(),
                    other => panic!("unexpected outcome {other:?}"),
                }
            }
            // Unknown method becomes a per-item typed NACK through the
            // whole bridge.
            match client.call(42, AnyPayload::replicable(1u64)) {
                Err(ServeError::MethodNotFound { method: 42 }) => {}
                Err(e) => panic!("expected MethodNotFound, got {e:?}"),
                Ok(_) => panic!("expected MethodNotFound, got a reply"),
            }
            drop(client);
            plane.shutdown(); // sends the collective shutdown to providers
            sum
        } else {
            let svc = Arith { batches: AtomicU64::new(0), items: AtomicU64::new(0) };
            let stats = serve(&ic, &svc, ServeOpts::collective()).unwrap();
            stats.calls
        }
    });
    // Rank 0: Σ (i+1) for i in 0..10 = 55. Rank 1: far fewer serve-loop
    // wakeups than the 11 requests — batching crossed the wire.
    assert_eq!(results[0], 55);
    assert!(results[1] <= 11, "provider saw at most one call per batch");
    assert!(results[1] >= 2, "provider served the traffic");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Satellite 3 property: for ANY interleaving of methods across
    /// several pipelined connections, a batching plane (`max_batch` k) and
    /// a non-batching plane (`max_batch` 1) produce identical
    /// per-connection reply streams.
    #[test]
    fn batched_and_unbatched_dispatch_agree(
        methods in proptest::collection::vec(0u32..3, 1..40),
        nconns in 1usize..4,
        max_batch in 2usize..32,
        shards in 1usize..4,
    ) {
        let run = |batch: usize| {
            let svc = Arith::new();
            let plane = arith_plane(
                ServePolicy::default()
                    .with_shards(shards)
                    .with_max_batch(batch)
                    .with_client_queue(methods.len().max(1)),
                &svc,
            );
            // Round-robin the method stream across the connections, all
            // pipelined before any receive.
            let mut clients: Vec<_> = (0..nconns).map(|_| plane.client()).collect();
            let mut counts = vec![0usize; nconns];
            for (i, &m) in methods.iter().enumerate() {
                let c = i % nconns;
                clients[c].send(m, AnyPayload::new(i as u64)).unwrap();
                counts[c] += 1;
            }
            let mut streams = Vec::new();
            for (c, client) in clients.iter_mut().enumerate() {
                let mut stream = Vec::new();
                for _ in 0..counts[c] {
                    let r = client.recv().unwrap();
                    let entry = match r.outcome {
                        ServeOutcome::Reply(p) => Ok(p.downcast::<u64>().unwrap()),
                        ServeOutcome::MethodNotFound { method } => Err(method),
                        ServeOutcome::Overloaded { .. } => panic!("no overload configured"),
                    };
                    stream.push((r.seq, entry));
                }
                streams.push(stream);
            }
            plane.shutdown();
            streams
        };
        let batched = run(max_batch);
        let unbatched = run(1);
        prop_assert_eq!(batched, unbatched);
    }
}
