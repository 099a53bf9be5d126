//! The plane's wire front: real client processes over one UDS listener.
//!
//! [`mxn_wire::MuxServer`] owns the socket and the per-connection
//! reader/writer threads; this module is the glue that turns each mux
//! connection into a plane connection:
//!
//! * a decoded [`mxn_wire::MuxRequest`] becomes a [`PlaneSender::send_tagged`]
//!   on the connection's own reader thread — so when the plane parks a
//!   connection whose in-flight window is full, it is *that client's
//!   reader* that stalls, its socket buffer that fills, and its sends
//!   that block; every other client proceeds;
//! * a forwarder thread per connection drains the plane's replies back
//!   into framed [`mxn_wire::MuxResponse`]s, translating typed NACKs
//!   (`MethodNotFound`, `Overloaded` with queue depth) onto their wire
//!   statuses.
//!
//! Payload translation is delegated to two closures, because the plane
//! works on in-memory [`AnyPayload`]s while the wire carries codec-tagged
//! bytes — the application knows its types, this module does not.

use std::collections::{HashMap, HashSet};
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;

use mxn_framework::{AnyPayload, ShedReason};
use mxn_wire::{ConnId, MuxHandler, MuxReplier, MuxRequest, MuxResponse, MuxServer, MuxStatus};
use parking_lot::Mutex;

use crate::plane::{PlaneHandle, PlaneSender, ServeError, ServeOutcome};

/// Decodes one wire argument (`codec` tag + bytes) into a plane payload.
/// `None` means the request is unservable and is NACKed `MethodNotFound`.
pub type DecodeFn = dyn Fn(u32, &[u8]) -> Option<AnyPayload> + Send + Sync;

/// Encodes one plane result back into `(codec, bytes)`. `None` drops the
/// reply (a codec misconfiguration the application must fix).
pub type EncodeFn = dyn Fn(AnyPayload) -> Option<(u32, Vec<u8>)> + Send + Sync;

fn shed_reason_wire(reason: ShedReason) -> u8 {
    match reason {
        ShedReason::AdmissionFull => 0,
        ShedReason::QueueDeadline => 1,
    }
}

struct FrontConn {
    sender: Mutex<Option<PlaneSender>>,
    /// Call ids whose replies are dropped (one-way requests).
    oneway: Arc<Mutex<HashSet<u64>>>,
    forwarder: Option<JoinHandle<()>>,
}

struct FrontHandler {
    plane: PlaneHandle,
    decode: Box<DecodeFn>,
    encode: Arc<EncodeFn>,
    replier: Mutex<Option<MuxReplier>>,
    conns: Mutex<HashMap<ConnId, FrontConn>>,
}

impl FrontHandler {
    /// Gets (or lazily creates, on first request) the plane connection
    /// behind a mux connection.
    fn ensure_conn(&self, conn: ConnId) {
        let mut conns = self.conns.lock();
        if conns.contains_key(&conn) {
            return;
        }
        let (sender, mut receiver) = self.plane.client().split();
        let oneway: Arc<Mutex<HashSet<u64>>> = Arc::new(Mutex::new(HashSet::new()));
        let replier = self.replier.lock().clone().expect("WireFront installed the replier at bind");
        let encode = Arc::clone(&self.encode);
        let oneway_f = Arc::clone(&oneway);
        let forwarder = std::thread::Builder::new()
            .name(format!("serve-fwd-{conn}"))
            .spawn(move || loop {
                let reply = match receiver.recv() {
                    Ok(r) => r,
                    Err(_) => return, // connection or plane closed
                };
                if oneway_f.lock().remove(&reply.seq) {
                    continue;
                }
                let resp = match reply.outcome {
                    ServeOutcome::Reply(p) => match (encode)(p) {
                        Some((codec, payload)) => MuxResponse {
                            call_id: reply.seq,
                            status: MuxStatus::Ok,
                            codec,
                            payload,
                        },
                        None => continue,
                    },
                    ServeOutcome::MethodNotFound { .. } => MuxResponse {
                        call_id: reply.seq,
                        status: MuxStatus::MethodNotFound,
                        codec: 0,
                        payload: Vec::new(),
                    },
                    ServeOutcome::Overloaded { queue_depth, reason } => {
                        MuxResponse::overloaded(reply.seq, queue_depth, shed_reason_wire(reason))
                    }
                };
                if !replier.reply(conn, resp) {
                    return; // mux connection gone; plane close follows
                }
            })
            .expect("spawn reply forwarder");
        conns.insert(
            conn,
            FrontConn { sender: Mutex::new(Some(sender)), oneway, forwarder: Some(forwarder) },
        );
    }
}

impl MuxHandler for FrontHandler {
    fn on_request(&self, conn: ConnId, req: MuxRequest) {
        self.ensure_conn(conn);
        let Some(arg) = (self.decode)(req.codec, &req.arg) else {
            // Undecodable argument: answered, never crashes the plane.
            if let Some(replier) = self.replier.lock().clone() {
                replier.reply(
                    conn,
                    MuxResponse {
                        call_id: req.call_id,
                        status: MuxStatus::MethodNotFound,
                        codec: 0,
                        payload: Vec::new(),
                    },
                );
            }
            return;
        };
        let oneway = match self.conns.lock().get(&conn) {
            Some(fc) => Arc::clone(&fc.oneway),
            None => return,
        };
        if req.oneway {
            oneway.lock().insert(req.call_id);
        }
        // Take the sender out of its slot for the duration of the send:
        // ingress may park this (reader) thread, and neither the registry
        // lock nor the slot lock may be held while parked. Requests on one
        // connection are serial, so the slot is only ever contended by a
        // racing `on_close` — which then owns closing the sender.
        let sender = self.conns.lock().get(&conn).and_then(|fc| fc.sender.lock().take());
        let send_result = match sender {
            Some(mut s) => {
                let r = s.send_tagged(req.call_id, req.method, arg);
                match self.conns.lock().get(&conn) {
                    // Connection closed while we were parked: the sender
                    // drops here, posting the plane-side close.
                    None => {}
                    Some(fc) => *fc.sender.lock() = Some(s),
                }
                r
            }
            None => Err(ServeError::Closed),
        };
        if send_result.is_err() && req.oneway {
            oneway.lock().remove(&req.call_id);
        }
    }

    fn on_close(&self, conn: ConnId) {
        let removed = self.conns.lock().remove(&conn);
        if let Some(mut fc) = removed {
            if let Some(sender) = fc.sender.lock().take() {
                sender.close(); // posts the close sentinel; forwarder exits
            }
            if let Some(h) = fc.forwarder.take() {
                let _ = h.join();
            }
        }
    }
}

/// One UDS listener serving a [`crate::plane::ServingPlane`] to external
/// client processes.
pub struct WireFront {
    server: MuxServer,
}

impl WireFront {
    /// Binds `path` and starts serving `plane` through it.
    pub fn bind(
        path: impl AsRef<Path>,
        plane: PlaneHandle,
        decode: Box<DecodeFn>,
        encode: Box<EncodeFn>,
    ) -> io::Result<WireFront> {
        let handler = Arc::new(FrontHandler {
            plane,
            decode,
            encode: Arc::from(encode),
            replier: Mutex::new(None),
            conns: Mutex::new(HashMap::new()),
        });
        let server = MuxServer::bind(path, Arc::clone(&handler) as Arc<dyn MuxHandler>)?;
        *handler.replier.lock() = Some(server.replier());
        Ok(WireFront { server })
    }

    /// Stops accepting and closes every connection (plane connections
    /// close with them; the plane itself keeps running).
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}
