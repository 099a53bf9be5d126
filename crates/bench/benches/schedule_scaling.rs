//! Sublinear schedule construction and precompiled transfer plans.
//!
//! Measures the two layers added to [`RegionSchedule`]:
//!
//! * **Build**: pruned (overlap-index) vs naive (all-pairs) construction at
//!   p ∈ {16, 64, 256}, for an aligned 256↔256 block coupling (each rank
//!   overlaps O(1) peers) and a fragmented block-cyclic → block layout.
//!   Probe counts come from the runtime's schedule counters, timings from
//!   wall-clock loops over every rank's build.
//! * **Transfer**: a 4-rank transpose executed with precompiled plans and a
//!   [`TransferBuffers`] pool — fresh-allocation counts confirm the pool
//!   circulates after step 1.
//!
//! Results are written to `BENCH_schedule.json` at the repo root so the
//! pruned/naive ratio is recorded alongside the code.

use std::time::Instant;

use mxn_dad::{AxisDist, Dad, Extents, LocalArray, Template};
use mxn_runtime::{reset_schedule_stats, schedule_stats, World};
use mxn_schedule::{RegionSchedule, TransferBuffers};

/// Aligned coupling: the same row-block layout on both sides (two programs
/// sharing a decomposition), where every rank overlaps exactly one peer.
fn aligned(p: usize) -> (Dad, Dad) {
    let e = Extents::new([16 * p, 16]);
    (Dad::block(e.clone(), &[p, 1]).unwrap(), Dad::block(e, &[p, 1]).unwrap())
}

/// Fragmented coupling: block-cyclic rows against contiguous row blocks.
fn fragmented(p: usize) -> (Dad, Dad) {
    let e = Extents::new([64 * p, 16]);
    let src = Dad::regular(
        Template::new(
            e.clone(),
            vec![AxisDist::BlockCyclic { block: 4, nprocs: p }, AxisDist::Collapsed],
        )
        .unwrap(),
    );
    (src, Dad::block(e, &[p, 1]).unwrap())
}

/// Nanoseconds per call of `f` (which builds all `p` ranks' schedules),
/// plus the per-all-ranks probe count from the schedule counters.
fn measure(p: usize, f: impl Fn(usize)) -> (f64, u64) {
    let build_all = || {
        for r in 0..p {
            f(r);
        }
    };
    build_all(); // warm-up
    reset_schedule_stats();
    build_all();
    let probes = schedule_stats().peer_probes;
    let mut iters = 1u32;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            build_all();
        }
        let elapsed = start.elapsed();
        if elapsed.as_millis() >= 50 || iters >= 1 << 14 {
            return (elapsed.as_nanos() as f64 / iters as f64, probes);
        }
        iters *= 2;
    }
}

struct Case {
    p: usize,
    layout: &'static str,
    naive_ns: f64,
    pruned_ns: f64,
    naive_probes: u64,
    pruned_probes: u64,
}

impl Case {
    fn speedup(&self) -> f64 {
        self.naive_ns / self.pruned_ns
    }

    fn json(&self) -> String {
        format!(
            "    {{\"p\": {}, \"layout\": \"{}\", \"naive_build_ns\": {:.0}, \"pruned_build_ns\": {:.0}, \"speedup\": {:.2}, \"naive_probes\": {}, \"pruned_probes\": {}}}",
            self.p,
            self.layout,
            self.naive_ns,
            self.pruned_ns,
            self.speedup(),
            self.naive_probes,
            self.pruned_probes,
        )
    }
}

fn run_case(p: usize, layout: &'static str, src: &Dad, dst: &Dad) -> Case {
    let (naive_ns, naive_probes) = measure(p, |r| {
        std::hint::black_box(RegionSchedule::for_sender_naive(src, dst, r));
    });
    let (pruned_ns, pruned_probes) = measure(p, |r| {
        std::hint::black_box(RegionSchedule::for_sender(src, dst, r));
    });
    Case { p, layout, naive_ns, pruned_ns, naive_probes, pruned_probes }
}

/// 4-rank pooled transpose: returns (ns per step, fresh allocs after the
/// first step, fresh allocs at the end) — the last two must match.
fn transfer_reuse(steps: usize) -> (f64, u64, u64) {
    let results = World::run(4, move |proc| {
        let comm = proc.world();
        let e = Extents::new([64, 64]);
        let src = Dad::block(e.clone(), &[4, 1]).unwrap();
        let dst = Dad::block(e, &[1, 4]).unwrap();
        let send = RegionSchedule::for_sender(&src, &dst, comm.rank());
        let recv = RegionSchedule::for_receiver(&src, &dst, comm.rank());
        let src_local = LocalArray::from_fn(&src, comm.rank(), |idx| (idx[0] * 64 + idx[1]) as f64);
        let mut dst_local: LocalArray<f64> = LocalArray::allocate(&dst, comm.rank());
        let mut pool = TransferBuffers::new();
        let mut after_first = 0;
        let start = Instant::now();
        for step in 0..steps {
            RegionSchedule::execute_local(
                &send,
                &recv,
                comm,
                &src_local,
                &mut dst_local,
                step as i32,
                &mut pool,
            )
            .unwrap();
            comm.barrier().unwrap();
            if step == 0 {
                after_first = pool.stats().1;
            }
        }
        let ns = start.elapsed().as_nanos() as f64 / steps as f64;
        (ns, after_first, pool.stats().1)
    });
    let ns = results.iter().map(|r| r.0).fold(0.0f64, f64::max);
    let after_first = results.iter().map(|r| r.1).max().unwrap();
    let at_end = results.iter().map(|r| r.2).max().unwrap();
    (ns, after_first, at_end)
}

fn main() {
    // Wall-clock + probe-count measurements for the JSON report.
    let mut cases = Vec::new();
    for p in [16usize, 64, 256] {
        let (src, dst) = aligned(p);
        cases.push(run_case(p, "aligned_block", &src, &dst));
        let (src, dst) = fragmented(p);
        cases.push(run_case(p, "block_cyclic_to_block", &src, &dst));
    }

    let (transfer_ns, fresh_after_first, fresh_at_end) = transfer_reuse(50);
    assert_eq!(
        fresh_after_first, fresh_at_end,
        "steady-state pooled transfer must not allocate fresh buffers"
    );

    println!("\n--- schedule_scaling: pruned vs naive build (all ranks) ---");
    for case in &cases {
        println!(
            "p={:>3} {:<22} naive {:>12.0} ns ({} probes)  pruned {:>10.0} ns ({} probes)  speedup {:>6.1}x",
            case.p,
            case.layout,
            case.naive_ns,
            case.naive_probes,
            case.pruned_ns,
            case.pruned_probes,
            case.speedup(),
        );
    }
    println!(
        "pooled transpose: {transfer_ns:.0} ns/step, fresh allocs after step 1: {fresh_after_first}, after 50 steps: {fresh_at_end}"
    );

    let at_256 = cases
        .iter()
        .find(|c| c.p == 256 && c.layout == "aligned_block")
        .expect("aligned 256 case present");
    assert!(
        at_256.speedup() >= 10.0,
        "pruned build should be >=10x faster than naive at p=256 (got {:.1}x)",
        at_256.speedup()
    );
    assert!(
        at_256.pruned_probes * 10 <= at_256.naive_probes,
        "pruned probes ({}) should be far below naive ({})",
        at_256.pruned_probes,
        at_256.naive_probes
    );

    let json = format!(
        "{{\n  \"bench\": \"schedule_scaling\",\n  \"builds\": [\n{}\n  ],\n  \"pooled_transfer\": {{\"steps\": 50, \"ns_per_step\": {:.0}, \"fresh_allocs_after_step1\": {}, \"fresh_allocs_after_50_steps\": {}}}\n}}\n",
        cases.iter().map(Case::json).collect::<Vec<_>>().join(",\n"),
        transfer_ns,
        fresh_after_first,
        fresh_at_end,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_schedule.json");
    std::fs::write(path, json).expect("write BENCH_schedule.json");
    println!("wrote {path}");
}
