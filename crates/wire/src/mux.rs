//! Connection multiplexing over **one** UDS listener.
//!
//! The mesh endpoint ([`crate::node::WireNode`]) binds one socket per rank
//! and speaks rank-to-rank — the right shape for a p-way coupling, the
//! wrong one for a serving plane where *thousands* of short-lived clients
//! call into one provider address. This module is the plane's wire front:
//! a single `UnixListener` accepts any number of client connections, each
//! connection gets a plane-assigned id and its own reader/writer thread
//! pair, and every decoded request is handed — still on the connection's
//! reader thread — to a pluggable handler (the shard router in
//! `mxn-serve`).
//!
//! Two properties the serving plane's policy layer relies on:
//!
//! * **A blocking handler parks exactly one client.** Requests are
//!   delivered on the *connection's own* reader thread, so cooperative
//!   backpressure (park the reader of a client whose replies are piling
//!   up) is just "the handler blocks": the socket's kernel buffer then
//!   fills, the client's sends stall, and no other connection notices.
//! * **Replies are decoupled from request flow.** Each connection owns a
//!   writer thread fed by an unbounded channel; [`MuxReplier::reply`]
//!   (from [`MuxServer::replier`]) never blocks the caller (the shard
//!   executor), it enqueues and returns.
//!
//! Frames reuse the `MxN1` framing layer ([`crate::frame`]): header + CRCs,
//! resync on damage. Request/response bodies are [`MuxRequest`] /
//! [`MuxResponse`] — small explicit structs whose *argument bytes* carry
//! their own [`crate::codec::CodecRegistry`] tag, so the mux layer never
//! needs to know the application's payload types.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::Shutdown;
use std::os::fd::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use crate::codec::{decode_value, encode_value, CodecError, WireCodec};
use crate::frame::{Frame, FrameError, FrameKind, FrameReader};
use crate::node::wake_acceptor;

/// Frame-header codec tag marking a [`MuxRequest`] body.
pub const MUX_REQ_CODEC: u32 = 0x4d58_0001; // "MX" 1
/// Frame-header codec tag marking a [`MuxResponse`] body.
pub const MUX_RESP_CODEC: u32 = 0x4d58_0002; // "MX" 2

/// Plane-assigned connection identifier (dense, starting at 0).
pub type ConnId = u64;

/// Outcome discriminant carried by a [`MuxResponse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MuxStatus {
    /// `payload` is the encoded method result under `codec`.
    Ok = 0,
    /// The service does not implement the method; `payload` is empty.
    MethodNotFound = 1,
    /// Admission control shed the request; `payload` is the encoded
    /// `(queue_depth: u32, reason: u8)` pair.
    Overloaded = 2,
}

impl MuxStatus {
    fn from_u8(v: u8) -> Result<Self, CodecError> {
        match v {
            0 => Ok(MuxStatus::Ok),
            1 => Ok(MuxStatus::MethodNotFound),
            2 => Ok(MuxStatus::Overloaded),
            _ => Err(CodecError::Invalid { what: "unknown mux response status" }),
        }
    }
}

/// One client request as it crosses the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MuxRequest {
    /// Method selector on the served port.
    pub method: u32,
    /// Client-local correlation id; echoed on the matching response.
    pub call_id: u64,
    /// One-way requests expect no response.
    pub oneway: bool,
    /// Codec-registry tag of `arg`.
    pub codec: u32,
    /// The encoded argument.
    pub arg: Vec<u8>,
}

impl WireCodec for MuxRequest {
    fn encode(&self, out: &mut Vec<u8>) {
        self.method.encode(out);
        self.call_id.encode(out);
        self.oneway.encode(out);
        self.codec.encode(out);
        self.arg.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(MuxRequest {
            method: u32::decode(input)?,
            call_id: u64::decode(input)?,
            oneway: bool::decode(input)?,
            codec: u32::decode(input)?,
            arg: Vec::<u8>::decode(input)?,
        })
    }
}

/// One reply as it crosses the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MuxResponse {
    /// Correlates with [`MuxRequest::call_id`].
    pub call_id: u64,
    /// What happened to the request.
    pub status: MuxStatus,
    /// Codec-registry tag of `payload` (0 for NACK statuses).
    pub codec: u32,
    /// The encoded result, or the NACK detail bytes.
    pub payload: Vec<u8>,
}

impl MuxResponse {
    /// An `Overloaded` NACK carrying the shard queue depth observed at
    /// shed time (`reason`: 0 = admission-full, 1 = queue-deadline).
    pub fn overloaded(call_id: u64, queue_depth: u32, reason: u8) -> Self {
        let mut payload = Vec::with_capacity(5);
        queue_depth.encode(&mut payload);
        reason.encode(&mut payload);
        MuxResponse { call_id, status: MuxStatus::Overloaded, codec: 0, payload }
    }

    /// Decodes the `(queue_depth, reason)` pair of an `Overloaded` NACK.
    pub fn overload_detail(&self) -> Result<(u32, u8), CodecError> {
        decode_value::<(u32, u8)>(&self.payload)
    }
}

impl WireCodec for MuxResponse {
    fn encode(&self, out: &mut Vec<u8>) {
        self.call_id.encode(out);
        out.push(self.status as u8);
        self.codec.encode(out);
        self.payload.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(MuxResponse {
            call_id: u64::decode(input)?,
            status: MuxStatus::from_u8(u8::decode(input)?)?,
            codec: u32::decode(input)?,
            payload: Vec::<u8>::decode(input)?,
        })
    }
}

/// Callbacks a [`MuxServer`] drives. Implemented by the serving plane's
/// shard router; both run on the affected connection's reader thread.
pub trait MuxHandler: Send + Sync + 'static {
    /// One decoded request from `conn`. Blocking here parks only this
    /// connection's reader (cooperative backpressure).
    fn on_request(&self, conn: ConnId, req: MuxRequest);
    /// `conn` closed (EOF, error, or server shutdown). Called exactly once.
    fn on_close(&self, conn: ConnId);
}

struct ConnState {
    replies: mpsc::Sender<MuxResponse>,
    writer: Option<JoinHandle<()>>,
    /// The socket its reader reads, shut down for reading to wake it.
    stream: Arc<UnixStream>,
}

struct MuxShared {
    shutdown: AtomicBool,
    next_conn: AtomicU64,
    conns: Mutex<HashMap<ConnId, ConnState>>,
    handler: Arc<dyn MuxHandler>,
}

/// One UDS listener multiplexing any number of client connections onto a
/// pluggable request handler. See the module docs for the threading model.
pub struct MuxServer {
    shared: Arc<MuxShared>,
    path: PathBuf,
    /// The acceptor's listening socket, shut down to wake it should
    /// dialing `path` fail.
    listener_fd: i32,
    acceptor: Option<JoinHandle<()>>,
}

impl MuxServer {
    /// Binds `path` (removing any stale socket file) and starts accepting.
    pub fn bind(path: impl AsRef<Path>, handler: Arc<dyn MuxHandler>) -> io::Result<MuxServer> {
        let path = path.as_ref().to_path_buf();
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        let listener_fd = listener.as_raw_fd();
        let shared = Arc::new(MuxShared {
            shutdown: AtomicBool::new(false),
            next_conn: AtomicU64::new(0),
            conns: Mutex::new(HashMap::new()),
            handler,
        });
        let acc = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("mux-accept".into())
                .spawn(move || shared.acceptor_loop(listener))?
        };
        Ok(MuxServer { shared, path, listener_fd, acceptor: Some(acc) })
    }

    /// A clonable reply handle, for executors that outlive the borrow.
    pub fn replier(&self) -> MuxReplier {
        MuxReplier { shared: Arc::clone(&self.shared) }
    }

    /// Stops accepting, closes every connection, removes the socket file.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    /// Every reader reads to an end of stream and closes its connection
    /// itself; the acceptor joins every reader before it exits, so each
    /// `on_close` has run once joining the acceptor returns.
    fn shutdown_inner(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // `attach` registers under this lock after checking the flag, so
        // no connection escapes the wake.
        for st in self.shared.conns.lock().values() {
            let _ = st.stream.shutdown(Shutdown::Read);
        }
        if let Some(h) = self.acceptor.take() {
            // The listener stays open until the joined acceptor drops it.
            wake_acceptor(&self.path, self.listener_fd);
            let _ = h.join();
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

impl Drop for MuxServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Clonable handle that can enqueue replies without borrowing the server.
#[derive(Clone)]
pub struct MuxReplier {
    shared: Arc<MuxShared>,
}

impl MuxReplier {
    /// Enqueues a reply for `conn`'s writer thread. Never blocks. Returns
    /// `false` if the connection is already gone (the reply is dropped —
    /// the client will retransmit or observe the close).
    pub fn reply(&self, conn: ConnId, resp: MuxResponse) -> bool {
        self.shared.reply(conn, resp)
    }
}

impl MuxShared {
    fn reply(&self, conn: ConnId, resp: MuxResponse) -> bool {
        let conns = self.conns.lock();
        match conns.get(&conn) {
            Some(st) => st.replies.send(resp).is_ok(),
            None => false,
        }
    }

    /// Accepts until shutdown, then joins every reader it started.
    fn acceptor_loop(self: Arc<Self>, listener: UnixListener) {
        let mut readers: Vec<JoinHandle<()>> = Vec::new();
        loop {
            let accepted = listener.accept();
            if self.shutdown.load(Ordering::Acquire) {
                break;
            }
            let Ok((stream, _)) = accepted else {
                // A failing `accept` (descriptor exhaustion) backs off
                // instead of spinning.
                std::thread::sleep(Duration::from_millis(1));
                continue;
            };
            // Readers of closed connections have exited: reap them.
            let (done, live): (Vec<_>, Vec<_>) = readers.into_iter().partition(|h| h.is_finished());
            for h in done {
                let _ = h.join();
            }
            readers = live;
            readers.extend(self.attach(stream));
        }
        for h in readers {
            let _ = h.join();
        }
    }

    /// Registers a connection and spawns its reader/writer pair; returns
    /// the reader, or nothing once shutdown has begun.
    fn attach(self: &Arc<Self>, stream: UnixStream) -> Option<JoinHandle<()>> {
        let conn = self.next_conn.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel::<MuxResponse>();
        let write_half = stream.try_clone().ok()?;
        let stream = Arc::new(stream);
        // Register under the lock the reader's first reply must take, so
        // it can never look the connection up before it exists.
        let mut conns = self.conns.lock();
        if self.shutdown.load(Ordering::Acquire) {
            return None;
        }
        let writer = std::thread::Builder::new()
            .name(format!("mux-write-{conn}"))
            .spawn(move || writer_loop(write_half, rx))
            .ok();
        let reader = {
            let (shared, stream) = (Arc::clone(self), Arc::clone(&stream));
            std::thread::Builder::new()
                .name(format!("mux-read-{conn}"))
                .spawn(move || shared.reader_loop(conn, &stream))
                .ok()
        };
        conns.insert(conn, ConnState { replies: tx, writer, stream });
        reader
    }

    /// Per-connection reader: framed requests → handler, until EOF (the
    /// client's, or the read shutdown of [`MuxServer::shutdown`]).
    fn reader_loop(self: Arc<Self>, conn: ConnId, mut stream: &UnixStream) {
        let mut frames = FrameReader::new();
        let mut buf = [0u8; 64 * 1024];
        'read: loop {
            if self.shutdown.load(Ordering::Acquire) {
                break;
            }
            let n = match stream.read(&mut buf) {
                Ok(0) => break, // EOF: client went away
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            };
            frames.feed(&buf[..n]);
            while let Some(next) = frames.next() {
                let frame = match next {
                    Ok(f) => f,
                    // Damaged bytes: the reader resyncs; the client's retry
                    // policy covers the lost request.
                    Err(FrameError::Corrupt { .. }) => continue,
                };
                match frame.kind {
                    FrameKind::Bye => break 'read,
                    FrameKind::Data if frame.codec == MUX_REQ_CODEC => {
                        if let Ok(req) = decode_value::<MuxRequest>(&frame.payload) {
                            // May block: that parks exactly this client.
                            self.handler.on_request(conn, req);
                        }
                    }
                    _ => {}
                }
            }
        }
        // Detach: drop the reply sender so the writer exits once drained.
        let st = self.conns.lock().remove(&conn);
        if let Some(mut st) = st {
            drop(st.replies);
            if let Some(h) = st.writer.take() {
                let _ = h.join();
            }
            self.handler.on_close(conn);
        }
    }
}

/// Per-connection writer: drains the reply channel into framed responses.
fn writer_loop(mut stream: UnixStream, rx: mpsc::Receiver<MuxResponse>) {
    while let Ok(resp) = rx.recv() {
        let frame = Frame {
            kind: FrameKind::Data,
            src: 0,
            context: 0,
            tag: 0,
            seq: 0,
            codec: MUX_RESP_CODEC,
            payload: encode_value(&resp),
        };
        if stream.write_all(&frame.encode()).is_err() {
            return;
        }
    }
    let _ = stream.flush();
}

/// Client side of the mux protocol: one UDS connection, pipelined sends,
/// blocking receives. Not thread-safe by design — a simulated client is
/// one thread; real applications open one `MuxClient` per worker.
pub struct MuxClient {
    stream: UnixStream,
    frames: FrameReader,
    buf: Vec<u8>,
    next_call: u64,
}

impl MuxClient {
    /// Connects to a [`MuxServer`] at `path`.
    pub fn connect(path: impl AsRef<Path>) -> io::Result<MuxClient> {
        let stream = UnixStream::connect(path)?;
        Ok(MuxClient { stream, frames: FrameReader::new(), buf: vec![0; 64 * 1024], next_call: 0 })
    }

    /// Sends one request (pipelined: does not wait for the reply) and
    /// returns its call id.
    pub fn send(&mut self, method: u32, codec: u32, arg: Vec<u8>, oneway: bool) -> io::Result<u64> {
        let call_id = self.next_call;
        self.next_call += 1;
        let req = MuxRequest { method, call_id, oneway, codec, arg };
        let frame = Frame {
            kind: FrameKind::Data,
            src: 0,
            context: 0,
            tag: 0,
            seq: 0,
            codec: MUX_REQ_CODEC,
            payload: encode_value(&req),
        };
        self.stream.write_all(&frame.encode())?;
        Ok(call_id)
    }

    /// Blocks for the next response frame.
    pub fn recv(&mut self) -> io::Result<MuxResponse> {
        loop {
            while let Some(next) = self.frames.next() {
                if let Ok(frame) = next {
                    if frame.kind == FrameKind::Data && frame.codec == MUX_RESP_CODEC {
                        if let Ok(resp) = decode_value::<MuxResponse>(&frame.payload) {
                            return Ok(resp);
                        }
                    }
                }
            }
            let n = self.stream.read(&mut self.buf)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            self.frames.feed(&self.buf[..n]);
        }
    }

    /// Convenience: send one request and block for its reply.
    pub fn call(&mut self, method: u32, codec: u32, arg: Vec<u8>) -> io::Result<MuxResponse> {
        let id = self.send(method, codec, arg, false)?;
        loop {
            let resp = self.recv()?;
            if resp.call_id == id {
                return Ok(resp);
            }
        }
    }

    /// [`MuxClient::call`] under a [`CallPolicy`](mxn_framework::CallPolicy): when the server sheds
    /// the request with an `Overloaded` NACK, the client re-sends after
    /// the policy's backoff — base doubling per attempt, stretched by
    /// [`CallPolicy::load_factor`](mxn_framework::CallPolicy::load_factor) of the queue depth the NACK reported,
    /// jittered when the policy is seeded. Any other status returns
    /// immediately; when retries are exhausted the final NACK is returned
    /// so the caller can see the depth it lost to. This gives a wire
    /// client the same shed-and-retry loop a PRMI serial call under a
    /// policy runs in-process.
    pub fn call_retrying(
        &mut self,
        method: u32,
        codec: u32,
        arg: Vec<u8>,
        policy: &mxn_framework::CallPolicy,
    ) -> io::Result<MuxResponse> {
        let mut base = policy.backoff;
        let mut attempt = 0u32;
        loop {
            let resp = self.call(method, codec, arg.clone())?;
            if resp.status != MuxStatus::Overloaded || attempt >= policy.max_retries {
                return Ok(resp);
            }
            let (depth, _reason) = resp
                .overload_detail()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            std::thread::sleep(policy.retry_pause_loaded(base, attempt, depth));
            base = base.saturating_mul(2);
            attempt += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// Serializes the tests that run a server, so the `mux-*` threads
    /// one of them counts are its own.
    static SERVERS: Mutex<()> = Mutex::new(());

    fn sock_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("mxn-mux-test-{}-{name}.sock", std::process::id()));
        p
    }

    /// This process's live `mux-*` threads, by task id.
    fn mux_tasks() -> Vec<String> {
        let tasks = std::fs::read_dir("/proc/self/task").unwrap().flatten();
        let named = |t: &std::fs::DirEntry| {
            std::fs::read_to_string(t.path().join("comm")).is_ok_and(|c| c.starts_with("mux-"))
        };
        tasks.filter(named).map(|t| t.file_name().to_string_lossy().into_owned()).collect()
    }

    /// Echoes the argument bytes back, doubling each byte.
    struct Doubler {
        replier: Mutex<Option<MuxReplier>>,
        closed: AtomicU64,
    }

    impl MuxHandler for Doubler {
        fn on_request(&self, conn: ConnId, req: MuxRequest) {
            let replier = self.replier.lock().clone().expect("replier installed");
            let payload: Vec<u8> = req.arg.iter().map(|b| b.wrapping_mul(2)).collect();
            let status = if req.method == 0 { MuxStatus::Ok } else { MuxStatus::MethodNotFound };
            replier.reply(
                conn,
                MuxResponse { call_id: req.call_id, status, codec: req.codec, payload },
            );
        }
        fn on_close(&self, _conn: ConnId) {
            self.closed.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn request_response_roundtrip_over_one_listener() {
        let _serial = SERVERS.lock();
        let path = sock_path("roundtrip");
        let handler = Arc::new(Doubler { replier: Mutex::new(None), closed: AtomicU64::new(0) });
        let server = MuxServer::bind(&path, handler.clone() as Arc<dyn MuxHandler>).unwrap();
        *handler.replier.lock() = Some(server.replier());

        let mut clients: Vec<MuxClient> =
            (0..8).map(|_| MuxClient::connect(&path).unwrap()).collect();
        // Pipelined: every client sends 4 requests before reading anything.
        for (i, c) in clients.iter_mut().enumerate() {
            for k in 0..4u8 {
                c.send(0, 12, vec![i as u8, k], false).unwrap();
            }
        }
        for (i, c) in clients.iter_mut().enumerate() {
            for k in 0..4u8 {
                let resp = c.recv().unwrap();
                assert_eq!(resp.call_id, k as u64, "replies stay in order per connection");
                assert_eq!(resp.status, MuxStatus::Ok);
                assert_eq!(resp.payload, vec![(i as u8).wrapping_mul(2), k.wrapping_mul(2)]);
            }
        }
        drop(clients);
        server.shutdown();
        assert_eq!(handler.closed.load(Ordering::Relaxed), 8, "every close observed once");
    }

    #[test]
    fn unknown_method_nack_crosses_the_wire() {
        let _serial = SERVERS.lock();
        let path = sock_path("nack");
        let handler = Arc::new(Doubler { replier: Mutex::new(None), closed: AtomicU64::new(0) });
        let server = MuxServer::bind(&path, handler.clone() as Arc<dyn MuxHandler>).unwrap();
        *handler.replier.lock() = Some(server.replier());
        let mut client = MuxClient::connect(&path).unwrap();
        let resp = client.call(99, 12, vec![1u8]).unwrap();
        assert_eq!(resp.status, MuxStatus::MethodNotFound);
        server.shutdown();
    }

    /// A [`Doubler`] whose closes take a while, so a shutdown that
    /// returns before every close has run is caught at it.
    struct SlowClose(Arc<Doubler>);

    impl MuxHandler for SlowClose {
        fn on_request(&self, conn: ConnId, req: MuxRequest) {
            self.0.on_request(conn, req);
        }
        fn on_close(&self, conn: ConnId) {
            std::thread::sleep(Duration::from_millis(20));
            self.0.on_close(conn);
        }
    }

    #[test]
    fn shutdown_closes_idle_and_mid_request_clients_and_leaves_no_thread() {
        let _serial = SERVERS.lock();
        let path = sock_path("shutdown");
        let handler = Arc::new(Doubler { replier: Mutex::new(None), closed: AtomicU64::new(0) });
        let slow = Arc::new(SlowClose(handler.clone()));
        let server = MuxServer::bind(&path, slow as Arc<dyn MuxHandler>).unwrap();
        *handler.replier.lock() = Some(server.replier());
        let _idle = MuxClient::connect(&path).unwrap();
        let mut busy = MuxClient::connect(&path).unwrap();
        // Accepted in order: a finished call means both are attached.
        assert_eq!(busy.call(0, 12, vec![1]).unwrap().status, MuxStatus::Ok);
        assert_eq!(server.shared.conns.lock().len(), 2);
        // Half a request: the busy reader blocks for the rest of the frame.
        let req = MuxRequest { method: 0, call_id: 1, oneway: false, codec: 12, arg: vec![2; 64] };
        let frame = Frame {
            kind: FrameKind::Data,
            src: 0,
            context: 0,
            tag: 0,
            seq: 0,
            codec: MUX_REQ_CODEC,
            payload: encode_value(&req),
        }
        .encode();
        busy.stream.write_all(&frame[..frame.len() / 2]).unwrap();
        assert!(!mux_tasks().is_empty());

        let (done, shut) = mpsc::channel();
        let shutting = std::thread::spawn(move || {
            server.shutdown();
            let _ = done.send(());
        });
        shut.recv_timeout(Duration::from_secs(10)).expect("shutdown hung: a reader never woke");
        shutting.join().expect("shutdown panicked");
        assert_eq!(handler.closed.load(Ordering::Relaxed), 2, "every close observed once");
        // Joined threads leave the task list within moments.
        let deadline = Instant::now() + Duration::from_secs(5);
        while !mux_tasks().is_empty() && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(mux_tasks(), Vec::<String>::new(), "mux threads outlived shutdown");
        assert!(!path.exists(), "the socket file is removed");
    }

    #[test]
    fn overload_nack_carries_depth_and_reason() {
        let resp = MuxResponse::overloaded(7, 1234, 1);
        let bytes = encode_value(&resp);
        let back = decode_value::<MuxResponse>(&bytes).unwrap();
        assert_eq!(back.status, MuxStatus::Overloaded);
        assert_eq!(back.overload_detail().unwrap(), (1234, 1));
    }

    #[test]
    fn request_codec_is_total() {
        let req = MuxRequest { method: 3, call_id: 9, oneway: true, codec: 12, arg: vec![1, 2] };
        let bytes = encode_value(&req);
        assert_eq!(decode_value::<MuxRequest>(&bytes).unwrap(), req);
        for cut in 0..bytes.len() {
            assert!(decode_value::<MuxRequest>(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }
}
