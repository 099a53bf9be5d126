//! The serving plane over a real Unix-domain socket: typed NACKs cross
//! the wire, many client processes' worth of connections multiplex onto
//! one listener, and backpressure stays per-connection.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use mxn_framework::{AnyPayload, Dispatch, RemoteService};
use mxn_serve::{PlaneBackend, ServePolicy, ServiceBackend, ServingPlane, WireFront};
use mxn_wire::{decode_value, encode_value, MuxClient, MuxStatus};

/// Wire codec tag the tests use for `u64` arguments and results.
const TAG_U64: u32 = 7;

struct Doubler;

impl RemoteService for Doubler {
    fn dispatch(&self, method: u32, arg: AnyPayload) -> Dispatch {
        match method {
            0 => AnyPayload::new(arg.downcast::<u64>().unwrap() * 2).into(),
            _ => Dispatch::MethodNotFound,
        }
    }
}

fn sock_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("mxn-serve-test-{}-{name}.sock", std::process::id()));
    p
}

fn u64_front(plane: &ServingPlane, path: &PathBuf) -> WireFront {
    WireFront::bind(
        path,
        plane.handle(),
        Box::new(|codec, bytes| {
            (codec == TAG_U64)
                .then(|| decode_value::<u64>(bytes).ok().map(AnyPayload::new))
                .flatten()
        }),
        Box::new(|payload| payload.downcast::<u64>().ok().map(|v| (TAG_U64, encode_value(&v)))),
    )
    .unwrap()
}

fn doubler_plane(policy: ServePolicy) -> ServingPlane {
    let svc: Arc<dyn RemoteService> = Arc::new(Doubler);
    ServingPlane::new(policy, move |_| Box::new(ServiceBackend::new(Arc::clone(&svc))))
}

/// Satellite: a request naming an unimplemented method, sent by a real
/// client over the UDS transport, comes back as a `MethodNotFound` NACK —
/// not a hang, not a dropped connection.
#[test]
fn method_not_found_nack_crosses_the_uds_transport() {
    let path = sock_path("nack");
    let plane = doubler_plane(ServePolicy::default().with_shards(1));
    let front = u64_front(&plane, &path);

    let mut client = MuxClient::connect(&path).unwrap();
    // A good call first, proving the conn works.
    let ok = client.call(0, TAG_U64, encode_value(&21u64)).unwrap();
    assert_eq!(ok.status, MuxStatus::Ok);
    assert_eq!(decode_value::<u64>(&ok.payload).unwrap(), 42);
    // Unknown method: typed NACK.
    let nack = client.call(9, TAG_U64, encode_value(&1u64)).unwrap();
    assert_eq!(nack.status, MuxStatus::MethodNotFound);
    // The connection survives the NACK.
    let again = client.call(0, TAG_U64, encode_value(&5u64)).unwrap();
    assert_eq!(decode_value::<u64>(&again.payload).unwrap(), 10);

    drop(client);
    front.shutdown();
    plane.shutdown();
}

/// An undecodable argument (wrong codec tag) is also answered, because a
/// misbehaving client must never wedge the plane.
#[test]
fn undecodable_argument_is_nacked_not_dropped() {
    let path = sock_path("badcodec");
    let plane = doubler_plane(ServePolicy::default().with_shards(1));
    let front = u64_front(&plane, &path);
    let mut client = MuxClient::connect(&path).unwrap();
    let nack = client.call(0, 999, vec![1, 2, 3]).unwrap();
    assert_eq!(nack.status, MuxStatus::MethodNotFound);
    drop(client);
    front.shutdown();
    plane.shutdown();
}

/// Many connections multiplex over one listener; replies demux by call id
/// in per-connection order.
#[test]
fn many_connections_multiplex_onto_one_listener() {
    let path = sock_path("mux");
    let plane = doubler_plane(ServePolicy::default().with_shards(2).with_max_batch(8));
    let front = u64_front(&plane, &path);

    let mut clients: Vec<MuxClient> = (0..12).map(|_| MuxClient::connect(&path).unwrap()).collect();
    // Pipelined: every client issues 8 requests before reading anything.
    for (i, c) in clients.iter_mut().enumerate() {
        for k in 0..8u64 {
            c.send(0, TAG_U64, encode_value(&(i as u64 * 100 + k)), false).unwrap();
        }
    }
    for (i, c) in clients.iter_mut().enumerate() {
        for k in 0..8u64 {
            let resp = c.recv().unwrap();
            assert_eq!(resp.call_id, k, "per-connection reply order is request order");
            assert_eq!(resp.status, MuxStatus::Ok);
            assert_eq!(decode_value::<u64>(&resp.payload).unwrap(), (i as u64 * 100 + k) * 2);
        }
    }
    drop(clients);
    front.shutdown();
    let stats = plane.shutdown();
    assert_eq!(stats.totals().replies, 12 * 8);
    assert_eq!(stats.conns_opened, 12);
}

/// Overload sheds cross the wire as `Overloaded` NACKs carrying the shard
/// queue depth — the client-side backoff input.
#[test]
fn overload_nack_carries_queue_depth_across_the_wire() {
    struct Slow(ServiceBackend);
    impl PlaneBackend for Slow {
        fn dispatch_batch(&mut self, method: u32, args: Vec<AnyPayload>) -> Vec<Dispatch> {
            std::thread::sleep(Duration::from_millis(20));
            self.0.dispatch_batch(method, args)
        }
    }
    let path = sock_path("overload");
    let policy = ServePolicy::default()
        .with_shards(1)
        .with_shard_queue(2)
        .with_inflight_budget(2)
        .with_client_queue(64)
        .with_max_batch(2);
    let plane = ServingPlane::new(policy, |_| {
        Box::new(Slow(ServiceBackend::new(Arc::new(Doubler) as Arc<dyn RemoteService>)))
    });
    let front = u64_front(&plane, &path);
    let mut client = MuxClient::connect(&path).unwrap();
    let total = 16u64;
    for k in 0..total {
        client.send(0, TAG_U64, encode_value(&k), false).unwrap();
    }
    let (mut ok, mut shed) = (0, 0);
    for _ in 0..total {
        let resp = client.recv().unwrap();
        match resp.status {
            MuxStatus::Ok => ok += 1,
            MuxStatus::Overloaded => {
                let (depth, reason) = resp.overload_detail().unwrap();
                assert!(depth >= 2, "NACK carries the observed depth, got {depth}");
                assert_eq!(reason, 0, "admission-full on the wire");
                shed += 1;
            }
            MuxStatus::MethodNotFound => panic!("unexpected NACK kind"),
        }
    }
    assert!(shed > 0, "a 2-deep budget cannot absorb 16 instant sends");
    assert!(ok >= 2, "admitted requests still complete");
    drop(client);
    front.shutdown();
    plane.shutdown();
}
