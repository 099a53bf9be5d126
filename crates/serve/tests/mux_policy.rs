//! End-to-end admission control over a real Unix socket: a [`MuxServer`]
//! sheds requests with `Overloaded(depth)` NACKs and the client's
//! [`CallPolicy`] turns the reported depth into load-scaled backoff until
//! the call gets through — the wire-side counterpart of the in-process
//! PRMI shed-and-retry loop.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mxn_framework::CallPolicy;
use mxn_wire::{
    ConnId, MuxClient, MuxHandler, MuxReplier, MuxRequest, MuxResponse, MuxServer, MuxStatus,
};
use parking_lot::Mutex;

fn sock_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("mxn-mux-policy-{}-{name}.sock", std::process::id()));
    p
}

/// Sheds the first `shed_first` requests with `Overloaded(depth)`, then
/// answers `Ok` echoing the argument.
struct Shedder {
    replier: Mutex<Option<MuxReplier>>,
    shed_first: u32,
    depth: u32,
    attempts: AtomicU32,
}

impl Shedder {
    fn new(shed_first: u32, depth: u32) -> Arc<Self> {
        Arc::new(Shedder {
            replier: Mutex::new(None),
            shed_first,
            depth,
            attempts: AtomicU32::new(0),
        })
    }
}

impl MuxHandler for Shedder {
    fn on_request(&self, conn: ConnId, req: MuxRequest) {
        let replier = self.replier.lock().clone().expect("replier installed");
        let n = self.attempts.fetch_add(1, Ordering::SeqCst);
        let resp = if n < self.shed_first {
            MuxResponse::overloaded(req.call_id, self.depth, 0)
        } else {
            MuxResponse {
                call_id: req.call_id,
                status: MuxStatus::Ok,
                codec: req.codec,
                payload: req.arg,
            }
        };
        replier.reply(conn, resp);
    }
    fn on_close(&self, _conn: ConnId) {}
}

fn serve(name: &str, handler: Arc<Shedder>) -> (MuxServer, PathBuf) {
    let path = sock_path(name);
    let server = MuxServer::bind(&path, handler.clone() as Arc<dyn MuxHandler>).unwrap();
    *handler.replier.lock() = Some(server.replier());
    (server, path)
}

#[test]
fn overload_nacks_drive_load_scaled_backoff_until_success() {
    // Depth 7 → load factor 4. Two sheds then success: the client must
    // pause ≥ (4·base)/2 + (4·2·base)/2 = 30ms even at maximum jitter
    // discount, where unscaled backoff would pause at most base + 2·base
    // = 15ms. The elapsed lower bound therefore proves the reported depth
    // stretched the pauses, without any flaky upper-bound timing.
    let handler = Shedder::new(2, 7);
    let (server, path) = serve("scaled", handler.clone());

    let policy = CallPolicy {
        deadline: Duration::from_millis(500),
        max_retries: 4,
        backoff: Duration::from_millis(5),
        jitter: Some(0xfeed),
        recover: false,
    };
    assert_eq!(CallPolicy::load_factor(7), 4, "depth 7 is a 4x stretch");

    let mut client = MuxClient::connect(&path).unwrap();
    let start = Instant::now();
    let resp = client.call_retrying(0, 12, vec![9, 9, 9], &policy).unwrap();
    let elapsed = start.elapsed();

    assert_eq!(resp.status, MuxStatus::Ok, "third attempt gets through");
    assert_eq!(resp.payload, vec![9, 9, 9]);
    assert_eq!(handler.attempts.load(Ordering::SeqCst), 3, "two sheds + one success");
    assert!(
        elapsed >= Duration::from_millis(30),
        "pauses were not load-scaled: elapsed {elapsed:?} < 30ms"
    );

    server.shutdown();
}

#[test]
fn exhausted_retries_surface_the_final_nack() {
    // A server that always sheds: the client gives up after
    // max_retries + 1 attempts and hands back the NACK with its depth, so
    // callers can see what they lost to.
    let handler = Shedder::new(u32::MAX, 1234);
    let (server, path) = serve("exhausted", handler.clone());

    let policy = CallPolicy {
        deadline: Duration::from_millis(500),
        max_retries: 2,
        backoff: Duration::from_millis(1),
        jitter: Some(1),
        recover: false,
    };
    let mut client = MuxClient::connect(&path).unwrap();
    let resp = client.call_retrying(0, 12, vec![1], &policy).unwrap();
    assert_eq!(resp.status, MuxStatus::Overloaded);
    assert_eq!(resp.overload_detail().unwrap(), (1234, 0));
    assert_eq!(handler.attempts.load(Ordering::SeqCst), 3, "1 + max_retries attempts");

    server.shutdown();
}

#[test]
fn non_overload_statuses_do_not_retry() {
    let handler = Shedder::new(0, 0);
    let (server, path) = serve("no-retry", handler.clone());

    let mut client = MuxClient::connect(&path).unwrap();
    let policy = CallPolicy::default().seeded(Some(7));
    let resp = client.call_retrying(0, 12, vec![4, 2], &policy).unwrap();
    assert_eq!(resp.status, MuxStatus::Ok);
    assert_eq!(handler.attempts.load(Ordering::SeqCst), 1, "a clean reply is never re-sent");

    server.shutdown();
}
