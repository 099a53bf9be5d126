//! Zero-clone collective transport: shared-envelope broadcast vs the
//! clone-per-child baseline, algorithmic collectives, and mailbox
//! contention throughput.
//!
//! Cells: bcast (shared vs cloning), allgather, allreduce at
//! p ∈ {16, 64, 256} × payload ∈ {1 KiB, 1 MiB}, timed *inside* one
//! running world so thread-spawn cost does not pollute per-op numbers, plus
//! an 8×8 point-to-point flood exercising bucketed-mailbox post/take
//! contention.
//!
//! The headline claims are asserted, not just printed:
//!
//! * shared bcast performs exactly **one payload allocation per op**,
//!   independent of p (16 and 256 checked), and zero payload clones;
//! * at p = 256 / 1 MiB the shared path beats the clone-per-child baseline
//!   by ≥ 5×.
//!
//! Results are written to `BENCH_runtime.json` at the repo root.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use mxn_bench::{criterion_config, fmt_bytes};
use mxn_runtime::{CollOp, Comm, RunOpts, StatsSnapshot, World};

const KIB: usize = 1 << 10;
const MIB: usize = 1 << 20;

/// Runs `op` `iters` times (after one untimed warm-up round) on a world of
/// `p` ranks; returns (max per-rank ns/op, end-of-run stats). Stats cover
/// warm-up too, so per-op assertions divide by `iters + 1`.
fn time_collective<F>(p: usize, iters: usize, op: F) -> (f64, StatsSnapshot)
where
    F: Fn(&Comm) + Send + Sync,
{
    let report = World::run_opts(p, RunOpts::default(), move |proc| {
        let comm = proc.world();
        op(comm);
        comm.barrier().unwrap();
        let start = Instant::now();
        for _ in 0..iters {
            op(comm);
        }
        start.elapsed().as_nanos() as f64 / iters as f64
    });
    let (ns, stats) = (report.results, report.stats);
    (ns.into_iter().fold(0.0f64, f64::max), stats)
}

struct Cell {
    op: &'static str,
    variant: &'static str,
    p: usize,
    payload_bytes: usize,
    ns_per_op: f64,
    /// Payload allocations per op attributed to this collective.
    allocs_per_op: f64,
    /// Payload deep-clones per op attributed to this collective.
    clones_per_op: f64,
}

impl Cell {
    fn json(&self) -> String {
        format!(
            "    {{\"op\": \"{}\", \"variant\": \"{}\", \"p\": {}, \"payload_bytes\": {}, \"ns_per_op\": {:.0}, \"allocs_per_op\": {:.2}, \"clones_per_op\": {:.2}}}",
            self.op, self.variant, self.p, self.payload_bytes, self.ns_per_op,
            self.allocs_per_op, self.clones_per_op,
        )
    }
}

fn iters_for(payload: usize) -> usize {
    if payload >= MIB {
        3
    } else {
        40
    }
}

fn bcast_cell(p: usize, payload: usize, shared: bool) -> Cell {
    let iters = iters_for(payload);
    let n = payload / 8;
    let (ns, stats) = time_collective(p, iters, move |comm| {
        let v = if comm.rank() == 0 { Some(vec![1.0f64; n]) } else { None };
        if shared {
            std::hint::black_box(comm.bcast_shared(0, v).unwrap());
        } else {
            std::hint::black_box(comm.bcast_cloning(0, v).unwrap());
        }
    });
    let ops = (iters + 1) as f64;
    let coll = stats.coll(CollOp::Bcast);
    Cell {
        op: "bcast",
        variant: if shared { "shared" } else { "cloning" },
        p,
        payload_bytes: payload,
        ns_per_op: ns,
        allocs_per_op: coll.payload_allocs as f64 / ops,
        clones_per_op: coll.payload_clones as f64 / ops,
    }
}

fn allgather_cell(p: usize, total_payload: usize) -> Cell {
    let iters = iters_for(total_payload);
    // `total_payload` is the size of the *gathered* result; each rank
    // contributes one p-th.
    let n = (total_payload / 8 / p).max(1);
    let (ns, stats) = time_collective(p, iters, move |comm| {
        std::hint::black_box(comm.allgather_shared(vec![comm.rank() as f64; n]).unwrap());
    });
    let ops = (iters + 1) as f64;
    let coll = stats.coll(CollOp::Allgather);
    Cell {
        op: "allgather",
        variant: "shared_ring",
        p,
        payload_bytes: total_payload,
        ns_per_op: ns,
        allocs_per_op: coll.payload_allocs as f64 / ops,
        clones_per_op: coll.payload_clones as f64 / ops,
    }
}

fn allreduce_cell(p: usize, payload: usize) -> Cell {
    let iters = iters_for(payload);
    let n = payload / 8;
    let (ns, stats) = time_collective(p, iters, move |comm| {
        std::hint::black_box(
            comm.allreduce(vec![1.0f64; n], |a, b| {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
            })
            .unwrap(),
        );
    });
    let ops = (iters + 1) as f64;
    let coll = stats.coll(CollOp::Allreduce);
    Cell {
        op: "allreduce",
        // Single path at every size: binomial reduce folding moved blocks
        // in place + one-alloc shared bcast (recursive doubling and its
        // clone-per-round cost were removed).
        variant: "reduce_bcast_shared",
        p,
        payload_bytes: payload,
        ns_per_op: ns,
        allocs_per_op: coll.payload_allocs as f64 / ops,
        clones_per_op: coll.payload_clones as f64 / ops,
    }
}

/// 8 senders flood 8 receivers (1 KiB messages, 4 tags round-robin):
/// returns sustained messages/second through the bucketed mailboxes.
/// With `traced` the same flood runs under an armed trace collector, so
/// the traced/untraced ratio is the tracer's hot-path cost.
///
/// Scheduler noise on a shared box swings a single flood by ±40%, so the
/// cell is best-of-5: noise only ever *lowers* throughput, making the max
/// the stable estimator (the 5% regression gate needs one).
fn mailbox_contention(msgs_per_sender: usize, traced: bool) -> f64 {
    let pairs = 8usize;
    let body = move |proc: &mxn_runtime::Process| {
        let comm = proc.world();
        let me = comm.rank();
        comm.barrier().unwrap();
        let start = Instant::now();
        if me < pairs {
            for i in 0..msgs_per_sender {
                comm.send(pairs + me, (i % 4) as i32, vec![i as f64; 128]).unwrap();
            }
        } else {
            for i in 0..msgs_per_sender {
                std::hint::black_box(comm.recv::<Vec<f64>>(me - pairs, (i % 4) as i32).unwrap());
            }
        }
        start.elapsed().as_secs_f64()
    };
    let mut best = 0.0f64;
    for _ in 0..5 {
        let opts = RunOpts { trace: traced, ..RunOpts::default() };
        let secs = World::run_opts(2 * pairs, opts, body).results;
        let slowest = secs.into_iter().fold(0.0f64, f64::max);
        best = best.max((pairs * msgs_per_sender) as f64 / slowest);
    }
    best
}

/// One traced shared bcast cell (p ranks, `payload` bytes): max per-rank
/// ns/op with the trace collector armed, for the E20 on/off comparison.
fn traced_bcast_ns(p: usize, payload: usize) -> f64 {
    let iters = iters_for(payload);
    let n = payload / 8;
    let opts = RunOpts { trace: true, ..RunOpts::default() };
    let ns = World::run_opts(p, opts, move |proc| {
        let comm = proc.world();
        let op = |comm: &Comm| {
            let v = if comm.rank() == 0 { Some(vec![1.0f64; n]) } else { None };
            std::hint::black_box(comm.bcast_shared(0, v).unwrap());
        };
        op(comm);
        comm.barrier().unwrap();
        let start = Instant::now();
        for _ in 0..iters {
            op(comm);
        }
        start.elapsed().as_nanos() as f64 / iters as f64
    })
    .results;
    ns.into_iter().fold(0.0f64, f64::max)
}

/// The committed mailbox-flood throughput, read from `BENCH_runtime.json`
/// *before* this run overwrites it — the baseline the disabled-tracer
/// overhead gate compares against.
fn committed_mailbox_baseline(path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let key = "\"msgs_per_sec\": ";
    let at = text.rfind(key)? + key.len();
    text[at..].split(|c: char| !(c.is_ascii_digit() || c == '.')).next()?.parse().ok()
}

fn bench(c: &mut Criterion) {
    // Criterion smoke cells (small p, whole world per measurement).
    let mut group = c.benchmark_group("runtime_collectives");
    let (p, payload) = (16usize, KIB);
    group.bench_with_input(BenchmarkId::new("bcast_shared", p), &p, |b, _| {
        b.iter(|| bcast_cell(p, payload, true).ns_per_op)
    });
    group.bench_with_input(BenchmarkId::new("bcast_cloning", p), &p, |b, _| {
        b.iter(|| bcast_cell(p, payload, false).ns_per_op)
    });
    group.finish();

    let mut cells = Vec::new();
    for &p in &[16usize, 64, 256] {
        for &payload in &[KIB, MIB] {
            cells.push(bcast_cell(p, payload, true));
            cells.push(bcast_cell(p, payload, false));
            cells.push(allgather_cell(p, payload));
            cells.push(allreduce_cell(p, payload));
        }
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_runtime.json");
    let baseline_msgs_per_sec = committed_mailbox_baseline(path);
    let mailbox_msgs_per_sec = mailbox_contention(4000, false);
    let mailbox_traced_msgs_per_sec = mailbox_contention(4000, true);
    let bcast_p256_traced_ns = traced_bcast_ns(256, MIB);

    println!("\n--- runtime_collectives ---");
    for cell in &cells {
        println!(
            "{:<10} {:<20} p={:>3} payload={:>9} {:>14.0} ns/op  allocs/op={:<6.2} clones/op={:.2}",
            cell.op,
            cell.variant,
            cell.p,
            fmt_bytes(cell.payload_bytes),
            cell.ns_per_op,
            cell.allocs_per_op,
            cell.clones_per_op,
        );
    }
    println!("mailbox 8x8 flood: {mailbox_msgs_per_sec:.0} msgs/s");

    let find = |variant: &str, p: usize, payload: usize| {
        cells
            .iter()
            .find(|c| c.variant == variant && c.p == p && c.payload_bytes == payload)
            .expect("cell present")
    };

    // Zero-clone claim: one allocation per broadcast, independent of p.
    for &p in &[16usize, 256] {
        let shared = find("shared", p, MIB);
        assert!(
            (shared.allocs_per_op - 1.0).abs() < 1e-9,
            "shared bcast at p={p} must allocate exactly once per op (got {})",
            shared.allocs_per_op
        );
        assert!(
            shared.clones_per_op == 0.0,
            "shared bcast at p={p} must never deep-clone (got {} clones/op)",
            shared.clones_per_op
        );
    }
    // Clone-per-child baseline really does p-1 copies.
    let cloning = find("cloning", 256, MIB);
    assert!(
        (cloning.clones_per_op - 255.0).abs() < 1e-9,
        "cloning bcast at p=256 should clone p-1 times per op (got {})",
        cloning.clones_per_op
    );
    // Headline speedup: >=5x at p=256 / 1 MiB.
    let shared = find("shared", 256, MIB);
    let speedup = cloning.ns_per_op / shared.ns_per_op;
    assert!(
        speedup >= 5.0,
        "shared bcast should be >=5x faster than clone-per-child at p=256/1MiB (got {speedup:.1}x)"
    );
    println!("bcast shared vs cloning at p=256/1MiB: {speedup:.1}x");

    // E20: tracer cost, on and off. The *disabled* tracer (the default in
    // every cell above) must stay within 5% of the committed flood
    // throughput; the enabled tracer's cost is reported, not gated.
    let bcast_p256_ns = find("shared", 256, MIB).ns_per_op;
    let flood_overhead = 1.0 - mailbox_traced_msgs_per_sec / mailbox_msgs_per_sec;
    println!(
        "mailbox flood traced: {mailbox_traced_msgs_per_sec:.0} msgs/s ({:.1}% tracer cost)",
        flood_overhead * 100.0
    );
    println!(
        "bcast p=256/1MiB traced: {bcast_p256_traced_ns:.0} ns/op (untraced {bcast_p256_ns:.0})"
    );
    if let Some(baseline) = baseline_msgs_per_sec {
        let ratio = mailbox_msgs_per_sec / baseline;
        println!("mailbox flood vs committed baseline: {:.1}%", ratio * 100.0);
        if std::env::var_os("MXN_ENFORCE_TRACE_OVERHEAD").is_some() {
            assert!(
                ratio >= 0.95,
                "disabled tracer costs more than 5% on the mailbox flood: \
                 {mailbox_msgs_per_sec:.0} msgs/s vs committed {baseline:.0}"
            );
        }
    }

    let json = format!(
        "{{\n  \"bench\": \"runtime_collectives\",\n  \"cells\": [\n{}\n  ],\n  \"bcast_speedup_p256_1mib\": {:.2},\n  \"mailbox_flood\": {{\"senders\": 8, \"receivers\": 8, \"msgs_per_sender\": 4000, \"payload_bytes\": 1024, \"msgs_per_sec\": {:.0}}},\n  \"trace_overhead\": {{\"mailbox_flood_traced_msgs_per_sec\": {:.0}, \"flood_tracer_cost_frac\": {:.4}, \"bcast_p256_1mib_untraced_ns\": {:.0}, \"bcast_p256_1mib_traced_ns\": {:.0}}}\n}}\n",
        cells.iter().map(Cell::json).collect::<Vec<_>>().join(",\n"),
        speedup,
        mailbox_msgs_per_sec,
        mailbox_traced_msgs_per_sec,
        flood_overhead,
        bcast_p256_ns,
        bcast_p256_traced_ns,
    );
    std::fs::write(path, json).expect("write BENCH_runtime.json");
    println!("wrote {path}");
}

criterion_group! {
    name = benches;
    config = criterion_config();
    targets = bench
}
criterion_main!(benches);
