//! E23 — peak-memory-bounded redistribution routes (`BENCH_redist.json`).
//!
//! The scenario the planner exists for: a 256-rank M×N coupling moving a
//! field whose shards are too big to double-buffer. The direct eager path
//! needs every incoming byte resident alongside the destination shard
//! (≈ 2× shard per rank); the chunked collective route fences transfers
//! into acknowledged rounds and must stay under a declared per-rank byte
//! budget of 1.25× shard.
//!
//! Cells:
//!   * `direct` / `budgeted` — the 128×128-program transfer with a stalled
//!     receiver (the worst case for eager sends). Per-rank measured peak =
//!     resident shard bytes + mailbox high-water mark + pooled transfer
//!     buffer high-water mark, maximised over all 256 ranks.
//!   * planner sanity — small halo-sized exchanges and memory-rich ranks
//!     must still plan `Direct`; the big field under budget must plan
//!     `Chunked` with a declared peak within the budget.
//!   * traced run — exports `RoutePlan`/`RouteStep` spans as a Chrome
//!     trace (`target/redist_route_trace.json`, "schedule" category).
//!
//! With `MXN_ENFORCE_REDIST_BASELINE` set, the measured peaks are enforced
//! (budgeted ≤ budget, direct ≥ 1.9× shard) and compared against the
//! committed `BENCH_redist.json`.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use mxn_bench::{criterion_config, field_value, fmt_bytes};
use mxn_dad::{Dad, Extents, LocalArray};
use mxn_runtime::{reset_schedule_stats, schedule_stats, RunOpts, Universe, World};
use mxn_schedule::{Redist, RouteKind, RoutePlanner};
use mxn_trace::EventId;

/// 128 producer programs + 128 consumer programs = 256 ranks.
const SRC_PROGS: usize = 128;
const DST_PROGS: usize = 128;
/// 1024×1024 f64 field: 8 MiB total, 64 KiB per shard on both sides.
const ROWS: usize = 1024;
const COLS: usize = 1024;
const SHARD_BYTES: u64 = (ROWS * COLS / SRC_PROGS * 8) as u64;
/// The acceptance budget: 1.25× the local shard.
const BUDGET_BYTES: u64 = SHARD_BYTES + SHARD_BYTES / 4;
/// How long consumers sit on their hands before draining — the window in
/// which eager sends pile up in the mailbox.
const STALL: Duration = Duration::from_millis(30);

fn field_dads() -> (Dad, Dad) {
    let e = Extents::new([ROWS, COLS]);
    // Row bands on the producer side, coarser row × column blocks on the
    // consumer side: every producer band feeds two consumer blocks.
    let src = Dad::block(e.clone(), &[SRC_PROGS, 1]).unwrap();
    let dst = Dad::block(e, &[DST_PROGS / 2, 2]).unwrap();
    (src, dst)
}

fn shard_bytes(dad: &Dad, rank: usize) -> u64 {
    dad.patches(rank).iter().map(|r| r.len() as u64 * 8).sum()
}

/// Runs the 256-rank transfer once and returns the worst per-rank measured
/// peak (resident shard + mailbox high-water + pooled-buffer high-water)
/// plus the slowest receiver's transfer wall time.
fn measure_transfer(budget: Option<u64>) -> (u64, Duration) {
    let results = Universe::run(&[SRC_PROGS, DST_PROGS], |_, ctx| {
        let (src, dst) = field_dads();
        let redist = Redist::between(&src, &dst);
        let redist = budget.map_or(redist, |b| redist.budget(b));
        if ctx.program == 0 {
            let rank = ctx.comm.rank();
            let local = LocalArray::from_fn(&src, rank, field_value);
            let ic = ctx.intercomm(1);
            ic.reset_mailbox_peak();
            reset_schedule_stats();
            redist.send(ic, &local, 0).unwrap();
            let (_, mailbox_peak) = ic.mailbox_bytes();
            let pool_peak = schedule_stats().transfer_peak_bytes;
            (shard_bytes(&src, rank) + mailbox_peak + pool_peak, Duration::ZERO)
        } else {
            let rank = ctx.comm.rank();
            let ic = ctx.intercomm(0);
            ic.reset_mailbox_peak();
            reset_schedule_stats();
            // A consumer that is busy elsewhere: eager traffic lands in
            // the mailbox while nobody drains it.
            std::thread::sleep(STALL);
            let start = Instant::now();
            let got: LocalArray<f64> = redist.recv(ic, 0).unwrap();
            let elapsed = start.elapsed();
            let (_, mailbox_peak) = ic.mailbox_bytes();
            let pool_peak = schedule_stats().transfer_peak_bytes;
            for (idx, &v) in got.iter().take(3) {
                assert_eq!(v, field_value(&idx), "transfer corrupted at {idx:?}");
            }
            (shard_bytes(&dst, rank) + mailbox_peak + pool_peak, elapsed)
        }
    });
    let peak = results.iter().map(|&(p, _)| p).max().unwrap();
    let elapsed = results.iter().map(|&(_, t)| t).max().unwrap();
    (peak, elapsed)
}

fn committed_baseline(path: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let key = "\"budgeted_peak_bytes\": ";
    let at = text.find(key)? + key.len();
    text[at..].split(|c: char| !c.is_ascii_digit()).next()?.parse().ok()
}

fn bench(c: &mut Criterion) {
    // Criterion smoke cell: a small budget-routed within-world exchange.
    let mut group = c.benchmark_group("redist_route");
    group.bench_function("budgeted_within_p4", |b| {
        b.iter(|| {
            World::run(4, |proc| {
                let comm = proc.world();
                let e = Extents::new([32, 32]);
                let src = Dad::block(e.clone(), &[4, 1]).unwrap();
                let dst = Dad::block(e, &[1, 4]).unwrap();
                let local = LocalArray::from_fn(&src, comm.rank(), field_value);
                let out = Redist::between(&src, &dst).budget(2048).within(comm, &local, 0).unwrap();
                std::hint::black_box(out);
            });
        });
    });
    group.finish();

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_redist.json");
    let enforce = std::env::var_os("MXN_ENFORCE_REDIST_BASELINE").is_some();
    let baseline = committed_baseline(path);

    // --- planner sanity: small transfers stay on the direct path -------
    let planner = RoutePlanner::default();
    let (src, dst) = field_dads();
    let halo = {
        let e = Extents::new([64, 64]);
        let hsrc = Dad::block(e.clone(), &[2, 1]).unwrap();
        let hdst = Dad::block(e, &[1, 2]).unwrap();
        planner.plan_for(&hsrc, &hdst, 8, u64::MAX, false)
    };
    assert_eq!(halo.kind, RouteKind::Direct, "halo-sized transfers must not be chunked");
    let rich = planner.plan_for(&src, &dst, 8, u64::MAX, false);
    assert_eq!(rich.kind, RouteKind::Direct, "memory-rich ranks must keep the fast path");
    let routed = planner.plan_for(&src, &dst, 8, BUDGET_BYTES, false);
    assert_eq!(routed.kind, RouteKind::Chunked, "big field under budget must chunk");
    assert!(routed.fits, "declared peak {} must fit budget {}", routed.peak_bytes, BUDGET_BYTES);

    // --- measured peaks at 256 ranks -----------------------------------
    let (direct_peak, direct_time) = measure_transfer(None);
    let (budgeted_peak, budgeted_time) = measure_transfer(Some(BUDGET_BYTES));
    let direct_over = direct_peak as f64 / SHARD_BYTES as f64;
    let budgeted_over = budgeted_peak as f64 / SHARD_BYTES as f64;

    println!(
        "redist_route: {} ranks, shard {}, budget {}",
        SRC_PROGS + DST_PROGS,
        fmt_bytes(SHARD_BYTES as usize),
        fmt_bytes(BUDGET_BYTES as usize),
    );
    println!(
        "  direct   peak {} ({direct_over:.2}x shard) in {direct_time:?}",
        fmt_bytes(direct_peak as usize),
    );
    println!(
        "  budgeted peak {} ({budgeted_over:.2}x shard) in {budgeted_time:?} \
         [{:?}, chunk {} elems, {} rounds, declared {}]",
        fmt_bytes(budgeted_peak as usize),
        routed.kind,
        routed.chunk_elems(),
        routed.rounds(),
        fmt_bytes(routed.peak_bytes as usize),
    );

    if enforce {
        assert!(
            budgeted_peak <= BUDGET_BYTES,
            "budgeted route peak {budgeted_peak} exceeds the declared budget {BUDGET_BYTES}"
        );
        assert!(
            direct_peak >= SHARD_BYTES * 19 / 10,
            "direct path no longer needs ~2x shard ({direct_peak} vs shard {SHARD_BYTES}) — \
             the bench scenario has stopped stressing memory"
        );
        if let Some(committed) = baseline {
            assert!(
                budgeted_peak <= committed + committed / 10,
                "budgeted peak regressed: {budgeted_peak} > committed {committed} + 10%"
            );
        }
    }

    // --- traced run: route decisions land in the Chrome trace ----------
    let opts = RunOpts { trace: true, ..RunOpts::default() };
    let trace = Universe::run_opts(&[2, 3], opts, |_, ctx| {
        let e = Extents::new([48, 48]);
        let src = Dad::block(e.clone(), &[2, 1]).unwrap();
        let dst = Dad::block(e, &[3, 1]).unwrap();
        let redist = Redist::between(&src, &dst).budget(4096);
        if ctx.program == 0 {
            let local = LocalArray::from_fn(&src, ctx.comm.rank(), field_value);
            redist.send(ctx.intercomm(1), &local, 0).unwrap();
        } else {
            let _: LocalArray<f64> = redist.recv(ctx.intercomm(0), 0).unwrap();
        }
    })
    .trace
    .expect("tracing was requested");
    let agg = trace.aggregate();
    assert!(agg.count(EventId::RoutePlan) > 0, "route planning must be traced");
    assert!(agg.count(EventId::RouteStep) > 0, "route rounds must be traced");
    let trace_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/redist_route_trace.json");
    std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target")).ok();
    std::fs::write(trace_path, trace.chrome_json()).expect("write route trace");
    println!("wrote {trace_path}");

    let json = format!(
        "{{\n  \"bench\": \"redist_route\",\n  \"ranks\": {},\n  \"field_bytes\": {},\n  \
         \"shard_bytes\": {},\n  \"budget_bytes\": {},\n  \"route_kind\": \"{:?}\",\n  \
         \"chunk_elems\": {},\n  \"rounds\": {},\n  \"declared_peak_bytes\": {},\n  \
         \"direct_peak_bytes\": {},\n  \"budgeted_peak_bytes\": {},\n  \
         \"direct_over_shard\": \"{:.2}\",\n  \"budgeted_over_shard\": \"{:.2}\",\n  \
         \"direct_ms\": \"{:.1}\",\n  \"budgeted_ms\": \"{:.1}\",\n  \
         \"small_plan_kind\": \"{:?}\"\n}}\n",
        SRC_PROGS + DST_PROGS,
        ROWS * COLS * 8,
        SHARD_BYTES,
        BUDGET_BYTES,
        routed.kind,
        routed.chunk_elems(),
        routed.rounds(),
        routed.peak_bytes,
        direct_peak,
        budgeted_peak,
        direct_over,
        budgeted_over,
        direct_time.as_secs_f64() * 1e3,
        budgeted_time.as_secs_f64() * 1e3,
        halo.kind,
    );
    std::fs::write(path, json).expect("write BENCH_redist.json");
    println!("wrote {path}");
}

criterion_group! {
    name = benches;
    config = criterion_config();
    targets = bench
}
criterion_main!(benches);
