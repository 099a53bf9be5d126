//! Transport comparison: the in-proc shared-memory path vs the UDS wire
//! path vs the synthetic [`NetworkModel`]'s prediction.
//!
//! The paper's premise is that component coupling must survive the move
//! from one address space to many. This bench quantifies what that move
//! costs here: one-way message time and effective bandwidth for the same
//! payload sizes over (a) the in-proc mailbox transport — pointer moves,
//! no serialization — and (b) the `mxn-wire` UDS transport — codec +
//! framing + CRC + a real kernel socket.
//!
//! E17 validation: from the UDS measurements we fit a
//! `NetworkModel { latency, bytes_per_sec }` on the smallest and largest
//! payloads, then check how well `latency + bytes/bandwidth` predicts the
//! *unfitted* mid-size points — the model the in-proc runtime uses to
//! emulate cluster timing is tested against an actual wire.
//!
//! Zombie detection: the wire's progress-fence plane is timed against a
//! simulated frozen peer (a raw listener whose backlog accepts but whose
//! "application" never reads or speaks — the situation heartbeats alone
//! can never convict). Measured: outstanding-data send → quarantine, and
//! send → eviction, for the default and a fast fence tuning.
//!
//! Results are written to `BENCH_transport.json` at the repo root.

use std::os::unix::net::UnixListener;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mxn_runtime::{
    Envelope, Liveness, Mailbox, NetworkModel, Payload, PeerRef, Revocations, Src, Tag,
};
use mxn_wire::{CodecRegistry, WireConfig, WireNode};

const SIZES: [usize; 4] = [64, 4096, 65536, 1 << 20];

fn iters_for(bytes: usize) -> u64 {
    match bytes {
        0..=4096 => 2000,
        4097..=65536 => 400,
        _ => 48,
    }
}

/// One measured cell.
struct Cell {
    transport: &'static str,
    bytes: usize,
    oneway_ns: f64,
    mb_per_s: f64,
}

impl Cell {
    fn json(&self) -> String {
        format!(
            "    {{\"transport\": \"{}\", \"bytes\": {}, \"oneway_ns\": {:.0}, \"mb_per_s\": {:.1}}}",
            self.transport, self.bytes, self.oneway_ns, self.mb_per_s
        )
    }
}

fn cell(transport: &'static str, bytes: usize, oneway: Duration, iters: u64) -> Cell {
    let oneway_ns = oneway.as_nanos() as f64 / iters as f64;
    Cell { transport, bytes, oneway_ns, mb_per_s: bytes as f64 / (oneway_ns / 1e9) / 1e6 }
}

/// In-proc: ping-pong through two runtime mailboxes from two threads,
/// owned `Vec<u8>` payloads — the exact representation `Comm::send` moves.
fn measure_inproc(bytes: usize, iters: u64) -> Duration {
    let abort = Arc::new(AtomicBool::new(false));
    let liveness = Arc::new(Liveness::new(2));
    let revocations = Arc::new(Revocations::default());
    let a = Arc::new(Mailbox::new(abort.clone(), liveness.clone(), revocations.clone()));
    let b = Arc::new(Mailbox::new(abort, liveness, revocations));
    let peers0 = [PeerRef { global: 0, local: 0 }];
    let peers1 = [PeerRef { global: 1, local: 1 }];
    let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
    let echo = std::thread::spawn(move || {
        for _ in 0..iters {
            let env = b2.take(1, Src::Rank(0), Tag::Value(1), &peers0).unwrap();
            let v = env.payload.into_owned::<Vec<u8>>().ok().unwrap();
            a2.push(Envelope::new(1, 1, 1, 2, v.len(), None, Payload::owned(v)));
        }
    });
    let start = Instant::now();
    let mut ball = vec![7u8; bytes];
    for _ in 0..iters {
        let n = ball.len();
        b.push(Envelope::new(0, 0, 1, 1, n, None, Payload::owned(ball)));
        let env = a.take(1, Src::Rank(1), Tag::Value(2), &peers1).unwrap();
        ball = env.payload.into_owned::<Vec<u8>>().ok().unwrap();
    }
    let elapsed = start.elapsed();
    echo.join().unwrap();
    elapsed / 2
}

/// UDS: the same ping-pong between two wire nodes — codec, framing, CRC,
/// kernel socket, reader thread, mailbox.
fn measure_uds(nodes: &[WireNode], bytes: usize, iters: u64) -> Duration {
    std::thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..iters {
                let v: Vec<u8> = nodes[1].recv(0, 1, 1).unwrap();
                nodes[1].send(0, 1, 2, v).unwrap();
            }
        });
        let start = Instant::now();
        let ball = vec![7u8; bytes];
        for _ in 0..iters {
            nodes[0].send(1, 1, 1, ball.clone()).unwrap();
            let _: Vec<u8> = nodes[0].recv(1, 1, 2).unwrap();
        }
        start.elapsed() / 2
    })
}

/// Times the conviction of a simulated zombie under one fence tuning:
/// rank 0 is a bound listener that never accepts or speaks (its kernel
/// backlog still takes every dial — exactly a SIGSTOP'd process), rank 1
/// sends one message and waits for the watermark stall to quarantine and
/// the grace expiry to evict. Returns (quarantine, evict) from the send.
fn measure_zombie(fence_ms: u64, stall: u32, grace_ms: u64) -> (Duration, Duration) {
    let dir =
        std::env::temp_dir().join(format!("mxn-bench-zombie-{}-{fence_ms}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let _zombie = UnixListener::bind(dir.join("rank_0.sock")).unwrap();
    let mut cfg = WireConfig::new(&dir, 1, 2);
    cfg.fence_interval = Duration::from_millis(fence_ms);
    cfg.fence_stall_fences = stall;
    cfg.quarantine_grace = Duration::from_millis(grace_ms);
    let node = WireNode::start(cfg, CodecRegistry::with_defaults()).unwrap();
    node.connect().unwrap();
    let start = Instant::now();
    node.send(0, 1, 1, 7u64).unwrap();
    assert!(node.await_quarantine(0, Duration::from_secs(10)), "zombie never quarantined");
    let quarantine = start.elapsed();
    while !node.is_evicted(0) {
        std::thread::sleep(Duration::from_millis(1));
    }
    let evict = start.elapsed();
    node.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    (quarantine, evict)
}

fn main() {
    let mut cells: Vec<Cell> = Vec::new();

    for &bytes in &SIZES {
        let iters = iters_for(bytes);
        // Warm-up + measure.
        measure_inproc(bytes, iters / 4 + 1);
        let t = measure_inproc(bytes, iters);
        let c = cell("inproc", bytes, t, iters);
        println!(
            "inproc  {:>8} B: {:>10.0} ns one-way, {:>9.1} MB/s",
            bytes, c.oneway_ns, c.mb_per_s
        );
        cells.push(c);
    }

    let dir = std::env::temp_dir().join(format!("mxn-bench-transport-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let nodes: Vec<WireNode> = (0..2)
        .map(|r| {
            WireNode::start(WireConfig::new(&dir, r, 2), CodecRegistry::with_defaults()).unwrap()
        })
        .collect();
    std::thread::scope(|s| {
        for node in &nodes {
            s.spawn(move || node.connect().unwrap());
        }
    });
    for &bytes in &SIZES {
        let iters = iters_for(bytes);
        measure_uds(&nodes, bytes, iters / 4 + 1);
        let t = measure_uds(&nodes, bytes, iters);
        let c = cell("uds", bytes, t, iters);
        println!(
            "uds     {:>8} B: {:>10.0} ns one-way, {:>9.1} MB/s",
            bytes, c.oneway_ns, c.mb_per_s
        );
        cells.push(c);
    }
    for node in nodes {
        node.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);

    // E17 validation: fit NetworkModel on the UDS endpoints (64 B for
    // latency, 1 MiB for bandwidth), predict the unfitted middle sizes.
    let uds = |b: usize| cells.iter().find(|c| c.transport == "uds" && c.bytes == b).unwrap();
    let latency = Duration::from_nanos(uds(64).oneway_ns as u64);
    let big = uds(1 << 20);
    let transfer_ns = (big.oneway_ns - latency.as_nanos() as f64).max(1.0);
    let bytes_per_sec = (1u64 << 20) as f64 / (transfer_ns / 1e9);
    let model = NetworkModel { latency, bytes_per_sec };
    let mut predictions = Vec::new();
    for &bytes in &[4096usize, 65536] {
        let predicted_ns = model.delay(bytes).as_nanos() as f64;
        let measured_ns = uds(bytes).oneway_ns;
        let rel_error = (predicted_ns - measured_ns).abs() / measured_ns;
        println!(
            "model   {:>8} B: predicted {:>10.0} ns, measured {:>10.0} ns ({:>5.1}% off)",
            bytes,
            predicted_ns,
            measured_ns,
            rel_error * 100.0
        );
        predictions.push(format!(
            "    {{\"bytes\": {bytes}, \"predicted_ns\": {predicted_ns:.0}, \"measured_ns\": {measured_ns:.0}, \"rel_error\": {rel_error:.3}}}"
        ));
    }

    // Zombie conviction latency: default fence tuning and a fast one.
    // 3 samples each; the numbers are wall-clock from the outstanding
    // send, so ≈ stall·interval for quarantine and + grace for eviction.
    let mut zombie_rows = Vec::new();
    for &(fence_ms, stall, grace_ms) in &[(25u64, 4u32, 1500u64), (10, 3, 300)] {
        let samples = 3;
        let (mut q_total, mut e_total) = (Duration::ZERO, Duration::ZERO);
        for _ in 0..samples {
            let (q, e) = measure_zombie(fence_ms, stall, grace_ms);
            q_total += q;
            e_total += e;
        }
        let q_ms = q_total.as_secs_f64() * 1e3 / samples as f64;
        let e_ms = e_total.as_secs_f64() * 1e3 / samples as f64;
        println!(
            "zombie  fence {fence_ms:>3} ms × {stall}, grace {grace_ms:>5} ms: \
             quarantine {q_ms:>7.1} ms, evict {e_ms:>7.1} ms"
        );
        zombie_rows.push(format!(
            "    {{\"fence_interval_ms\": {fence_ms}, \"stall_fences\": {stall}, \
             \"grace_ms\": {grace_ms}, \"quarantine_ms\": {q_ms:.1}, \"evict_ms\": {e_ms:.1}}}"
        ));
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_transport.json");
    let json = format!(
        "{{\n  \"bench\": \"transport_compare\",\n  \"cells\": [\n{}\n  ],\n  \"network_model_fit\": {{\"latency_ns\": {}, \"bytes_per_sec\": {:.0}}},\n  \"e17_validation\": [\n{}\n  ],\n  \"zombie_detection\": [\n{}\n  ]\n}}\n",
        cells.iter().map(Cell::json).collect::<Vec<_>>().join(",\n"),
        latency.as_nanos(),
        bytes_per_sec,
        predictions.join(",\n"),
        zombie_rows.join(",\n"),
    );
    std::fs::write(path, json).expect("write BENCH_transport.json");
    println!("wrote {path}");
}
