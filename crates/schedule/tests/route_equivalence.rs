//! Property test: every collective route lowering moves exactly the same
//! elements as the direct [`CopyPlan`]-schedule path — across the same
//! five descriptor families as `pruned_equivalence.rs`, including
//! non-power-of-two rank counts and source/destination worlds of
//! different sizes.
//!
//! Route kinds are forced explicitly (not left to the planner) so the
//! chunked and allgather executors get coverage regardless of what a cost
//! model would pick, and the chunk size is drawn down to a single element
//! to maximize round/fence traffic.

use std::time::Duration;

use mxn_dad::{AxisDist, Dad, ExplicitDist, Extents, LocalArray, Region, Template};
use mxn_runtime::{Universe, World};
use mxn_schedule::{
    execute_recv_routed, execute_send_routed, execute_within_routed, Redist, RedistProfile,
    RedistRoute, RegionSchedule, RouteKind, RouteStep, ScheduleCache, StepOp, TransferBuffers,
};
use proptest::prelude::*;

/// splitmix64, so descriptor construction is deterministic per drawn seed.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn pick(state: &mut u64, lo: usize, hi: usize) -> usize {
    lo + (next(state) % (hi - lo) as u64) as usize
}

/// The five descriptor families of `pruned_equivalence.rs`: block grids,
/// block-cyclic x cyclic, gen-block, implicit owners, explicit quadrants.
fn make_dad(rows: usize, cols: usize, family: u8, seed: u64) -> Dad {
    let mut s = seed;
    let e = Extents::new([rows, cols]);
    match family % 5 {
        0 => {
            let gr = pick(&mut s, 1, rows.min(5));
            let gc = pick(&mut s, 1, cols.min(4));
            Dad::block(e, &[gr, gc]).unwrap()
        }
        1 => Dad::regular(
            Template::new(
                e,
                vec![
                    AxisDist::BlockCyclic { block: pick(&mut s, 1, 4), nprocs: pick(&mut s, 1, 4) },
                    AxisDist::Cyclic { nprocs: pick(&mut s, 1, 4) },
                ],
            )
            .unwrap(),
        ),
        2 => {
            let nb = pick(&mut s, 1, 5);
            let mut sizes = vec![0usize; nb];
            for _ in 0..rows {
                sizes[pick(&mut s, 0, nb)] += 1;
            }
            Dad::regular(
                Template::new(e, vec![AxisDist::GenBlock { sizes }, AxisDist::Collapsed]).unwrap(),
            )
        }
        3 => {
            let nprocs = pick(&mut s, 1, 5);
            let owners = (0..rows).map(|_| pick(&mut s, 0, nprocs)).collect();
            Dad::regular(
                Template::new(
                    e,
                    vec![
                        AxisDist::Implicit { owners, nprocs },
                        AxisDist::Block { nprocs: pick(&mut s, 1, 3) },
                    ],
                )
                .unwrap(),
            )
        }
        _ => {
            let r = pick(&mut s, 1, rows);
            let c = pick(&mut s, 1, cols);
            let quads = [
                Region::new([0, 0], [r, c]),
                Region::new([0, c], [r, cols]),
                Region::new([r, 0], [rows, c]),
                Region::new([r, c], [rows, cols]),
            ];
            let nranks = pick(&mut s, 1, 5);
            let patches = quads.into_iter().map(|q| (q, pick(&mut s, 0, nranks))).collect();
            Dad::explicit(ExplicitDist::new(e, patches, nranks).unwrap())
        }
    }
}

/// A hand-forced route of the given kind (the executors only consult the
/// kind and, for chunked, the chunk size — cost fields are irrelevant).
fn forced(kind: RouteKind, chunk_elems: usize) -> RedistRoute {
    let op = match kind {
        RouteKind::Chunked => StepOp::ChunkRounds { rounds: 0, chunk_elems },
        RouteKind::Direct => StepOp::DirectExchange,
        RouteKind::AllgatherSlice => StepOp::Allgather,
    };
    RedistRoute {
        kind,
        steps: vec![RouteStep { op, bytes: 0, peak_bytes: 0 }],
        peak_bytes: 0,
        est_time: Duration::ZERO,
        budget_bytes: u64::MAX,
        fits: true,
    }
}

fn value(idx: &[usize], cols: usize) -> i64 {
    (idx[0] * cols + idx[1]) as i64 + 1
}

/// `redist` with the optional parts of a transmission policy applied.
fn with_policy<'a>(
    redist: Redist<'a>,
    cache: Option<&'a ScheduleCache>,
    budget: Option<u64>,
) -> Redist<'a> {
    let redist = cache.map_or(redist, |c| redist.cache(c));
    budget.map_or(redist, |b| redist.budget(b))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cross-program (different world sizes): the chunked route and the
    /// planner-chosen budgeted route deliver byte-identical arrays to the
    /// direct oracle.
    #[test]
    fn routed_inter_transfer_matches_direct_oracle(
        rows in 4..16usize,
        cols in 3..10usize,
        src_family in 0..5u8,
        dst_family in 0..5u8,
        chunk_elems in 1..5usize,
        seed in 0..u64::MAX,
    ) {
        let src = make_dad(rows, cols, src_family, seed);
        let dst = make_dad(rows, cols, dst_family, seed ^ 0x5851_f42d_4c95_7f2d);
        let (m, n) = (src.nranks(), dst.nranks());
        Universe::run(&[m, n], move |_, ctx| {
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let rank = ctx.comm.rank();
                let local = LocalArray::from_fn(&src, rank, |idx| value(idx, cols));
                let sched = RegionSchedule::for_sender(&src, &dst, rank);
                let mut pool = TransferBuffers::new();
                // Oracle, forced chunked, then planner-driven (starved
                // budget → best-effort chunked; tag separates the three).
                sched.execute_send(ic, &local, 0, &mut TransferBuffers::new()).unwrap();
                execute_send_routed(
                    &forced(RouteKind::Chunked, chunk_elems), &sched, ic, &local, 1, &mut pool,
                ).unwrap();
                Redist::between(&src, &dst).budget(1).send(ic, &local, 2).unwrap();
            } else {
                let ic = ctx.intercomm(0);
                let rank = ctx.comm.rank();
                let sched = RegionSchedule::for_receiver(&src, &dst, rank);
                let mut want: LocalArray<i64> = LocalArray::allocate(&dst, rank);
                sched.execute_recv(ic, &mut want, 0, &mut TransferBuffers::new()).unwrap();

                let mut got: LocalArray<i64> = LocalArray::allocate(&dst, rank);
                let mut pool = TransferBuffers::new();
                let moved = execute_recv_routed(
                    &forced(RouteKind::Chunked, chunk_elems), &sched, ic, &mut got, 1, &mut pool,
                ).unwrap();
                assert_eq!(moved, want.len(), "chunked route moves every element");
                assert_eq!(got, want, "chunked != direct for {src:?} -> {dst:?}");

                let budgeted: LocalArray<i64> =
                    Redist::between(&src, &dst).budget(1).recv(ic, 2).unwrap();
                assert_eq!(budgeted, want, "budgeted != direct for {src:?} -> {dst:?}");
            }
        });
    }

    /// Intra-communicator: all three lowerings — direct, single-element
    /// chunked, allgather+slice — produce the same array.
    #[test]
    fn routed_within_matches_direct_oracle(
        rows in 4..16usize,
        cols in 3..10usize,
        family in 0..5u8,
        chunk_elems in 1..4usize,
        seed in 0..u64::MAX,
    ) {
        let src = make_dad(rows, cols, family, seed);
        // The intra setting needs one rank space: pin the destination to
        // exactly the source's rank count with a gen-block axis (zero-size
        // blocks allowed, so any count works and empty shards get covered).
        let p = src.nranks();
        let mut s2 = seed ^ 0xabcd_ef01;
        let mut sizes = vec![0usize; p];
        for _ in 0..rows {
            sizes[pick(&mut s2, 0, p)] += 1;
        }
        let dst = Dad::regular(
            Template::new(
                Extents::new([rows, cols]),
                vec![AxisDist::GenBlock { sizes }, AxisDist::Collapsed],
            )
            .unwrap(),
        );
        World::run(p, move |proc| {
            let comm = proc.world();
            let rank = comm.rank();
            let src_local = LocalArray::from_fn(&src, rank, |idx| value(idx, cols));
            let want = Redist::between(&src, &dst).within(comm, &src_local, 0).unwrap();

            let send = RegionSchedule::for_sender(&src, &dst, rank);
            let recv = RegionSchedule::for_receiver(&src, &dst, rank);
            for (tag, kind) in
                [(1, RouteKind::Chunked), (2, RouteKind::AllgatherSlice), (3, RouteKind::Direct)]
            {
                let mut got: LocalArray<i64> = LocalArray::allocate(&dst, rank);
                let mut pool = TransferBuffers::new();
                execute_within_routed(
                    &forced(kind, chunk_elems), &send, &recv, comm, &src,
                    &src_local, &mut got, tag, &mut pool,
                ).unwrap();
                assert_eq!(got, want, "{kind:?} != direct for {src:?} -> {dst:?}");
            }

            // Planner-driven under a starved and an unlimited budget.
            for (tag, budget) in [(4, 1u64), (5, u64::MAX)] {
                let got =
                    Redist::between(&src, &dst).budget(budget).within(comm, &src_local, tag).unwrap();
                assert_eq!(got, want, "budget {budget} != direct");
            }
        });
    }

    /// Every [`Redist`] policy combination — {no cache, cache} × {no
    /// budget, tight, unlimited} — through both the `send`/`recv` pair and
    /// `within`, each against the `LocalArray::from_fn` oracle.
    #[test]
    fn redist_policy_matrix_matches_from_fn_oracle(
        rows in 4..16usize,
        cols in 3..10usize,
        src_family in 0..5u8,
        dst_family in 0..5u8,
        seed in 0..u64::MAX,
    ) {
        let src = make_dad(rows, cols, src_family, seed);
        let dst = make_dad(rows, cols, dst_family, seed ^ 0x5851_f42d_4c95_7f2d);
        // `within` needs one rank space: rows dealt evenly over exactly the
        // source's rank count (zero-size blocks when it exceeds `rows`).
        let p = src.nranks();
        let sizes = (0..p).map(|r| rows / p + usize::from(r < rows % p)).collect();
        let same = Dad::regular(
            Template::new(
                Extents::new([rows, cols]),
                vec![AxisDist::GenBlock { sizes }, AxisDist::Collapsed],
            )
            .unwrap(),
        );
        // Room for the destination shard plus a quarter of it: the full
        // receive set cannot sit in the mailbox, so the planner must chunk.
        let tight = |s: &Dad, d: &Dad| {
            let shard = RedistProfile::compute(s, d, size_of::<i64>()).max_dst_shard_bytes;
            shard + shard / 4
        };
        let policies = |s: &Dad, d: &Dad| [None, Some(tight(s, d)), Some(u64::MAX)];

        let (src2, inter) = (src.clone(), policies(&src, &dst));
        Universe::run(&[src.nranks(), dst.nranks()], move |_, ctx| {
            let src = &src2;
            let cache = ScheduleCache::new();
            let rank = ctx.comm.rank();
            let mut tag = 0;
            for cached in [false, true] {
                for budget in inter {
                    let redist = with_policy(Redist::between(src, &dst), cached.then_some(&cache), budget);
                    if ctx.program == 0 {
                        let local = LocalArray::from_fn(src, rank, |idx| value(idx, cols));
                        redist.send(ctx.intercomm(1), &local, tag).unwrap();
                    } else {
                        let got: LocalArray<i64> = redist.recv(ctx.intercomm(0), tag).unwrap();
                        let want = LocalArray::from_fn(&dst, rank, |idx| value(idx, cols));
                        assert_eq!(got, want, "cached {cached} budget {budget:?}");
                    }
                    tag += 1;
                }
            }
        });

        let intra = policies(&src, &same);
        World::run(p, move |proc| {
            let comm = proc.world();
            let cache = ScheduleCache::new();
            let src_local = LocalArray::from_fn(&src, comm.rank(), |idx| value(idx, cols));
            let want = LocalArray::from_fn(&same, comm.rank(), |idx| value(idx, cols));
            let mut tag = 0;
            for cached in [false, true] {
                for budget in intra {
                    let redist = with_policy(Redist::between(&src, &same), cached.then_some(&cache), budget);
                    let got = redist.within(comm, &src_local, tag).unwrap();
                    assert_eq!(got, want, "within: cached {cached} budget {budget:?}");
                    tag += 1;
                }
            }
        });
    }
}

/// Non-power-of-two and strongly asymmetric world sizes, exercised
/// deterministically (3→7, 7→3, 5→1, 1→5), with single-element chunks.
#[test]
fn asymmetric_world_sizes_chunk_correctly() {
    for (m, n) in [(3usize, 7usize), (7, 3), (5, 1), (1, 5)] {
        let rows = 21;
        let cols = 5;
        let src = Dad::block(Extents::new([rows, cols]), &[m, 1]).unwrap();
        let dst = Dad::block(Extents::new([rows, cols]), &[1, n.min(cols)]).unwrap();
        Universe::run(&[m, dst.nranks()], move |_, ctx| {
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let rank = ctx.comm.rank();
                let local = LocalArray::from_fn(&src, rank, |idx| value(idx, cols));
                let sched = RegionSchedule::for_sender(&src, &dst, rank);
                let mut pool = TransferBuffers::new();
                execute_send_routed(
                    &forced(RouteKind::Chunked, 1),
                    &sched,
                    ic,
                    &local,
                    0,
                    &mut pool,
                )
                .unwrap();
            } else {
                let ic = ctx.intercomm(0);
                let rank = ctx.comm.rank();
                let sched = RegionSchedule::for_receiver(&src, &dst, rank);
                let mut got: LocalArray<i64> = LocalArray::allocate(&dst, rank);
                let mut pool = TransferBuffers::new();
                execute_recv_routed(
                    &forced(RouteKind::Chunked, 1),
                    &sched,
                    ic,
                    &mut got,
                    0,
                    &mut pool,
                )
                .unwrap();
                for (idx, &v) in got.iter() {
                    assert_eq!(v, value(&idx, cols), "{m}x{n} at {idx:?}");
                }
            }
        });
    }
}

/// The allgather lowering keeps multi-patch (cyclic) source shards intact
/// through the flat round trip.
#[test]
fn allgather_slice_handles_multi_patch_sources() {
    let e = Extents::new([8, 6]);
    let src = Dad::regular(
        Template::new(e.clone(), vec![AxisDist::Cyclic { nprocs: 3 }, AxisDist::Collapsed])
            .unwrap(),
    );
    let dst = Dad::block(e, &[3, 1]).unwrap();
    World::run(3, move |proc| {
        let comm = proc.world();
        let rank = comm.rank();
        let src_local = LocalArray::from_fn(&src, rank, |idx| value(idx, 6));
        let want = Redist::between(&src, &dst).within(comm, &src_local, 0).unwrap();
        let send = RegionSchedule::for_sender(&src, &dst, rank);
        let recv = RegionSchedule::for_receiver(&src, &dst, rank);
        let mut got: LocalArray<i64> = LocalArray::allocate(&dst, rank);
        let mut pool = TransferBuffers::new();
        execute_within_routed(
            &forced(RouteKind::AllgatherSlice, 1),
            &send,
            &recv,
            comm,
            &src,
            &src_local,
            &mut got,
            1,
            &mut pool,
        )
        .unwrap();
        assert_eq!(got, want);
    });
}

/// The chunked memory bound under per-pair fences with pack-ahead, on
/// 2→3 and 3→2 row bands whose pairs run different round counts (8 and
/// 4 rounds of 4 elements). Contents match the `from_fn` oracle; a
/// receiver's mailbox never holds more than one chunk per pair; a thread
/// never holds more than its pack and unpack chunks; and because every
/// ack hands the drained buffer back, an 8-round sender allocates at most
/// two buffers per pair however many rounds it runs.
#[test]
fn per_pair_fences_keep_the_memory_bound() {
    use mxn_runtime::{reset_schedule_stats, schedule_stats};
    const CHUNK: usize = 4;
    let chunk_bytes = (CHUNK * size_of::<i64>()) as u64;
    for (m, n) in [(2usize, 3usize), (3, 2)] {
        let (rows, cols) = (12, 8);
        let src = Dad::block(Extents::new([rows, cols]), &[m, 1]).unwrap();
        let dst = Dad::block(Extents::new([rows, cols]), &[n, 1]).unwrap();
        Universe::run(&[m, n], move |_, ctx| {
            reset_schedule_stats();
            let rank = ctx.comm.rank();
            let route = forced(RouteKind::Chunked, CHUNK);
            let mut pool = TransferBuffers::new();
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let sched = RegionSchedule::for_sender(&src, &dst, rank);
                let rounds: Vec<usize> = (0..sched.pairs().len())
                    .map(|i| sched.plan(i).total().div_ceil(CHUNK))
                    .collect();
                let local = LocalArray::from_fn(&src, rank, |idx| value(idx, cols));
                execute_send_routed(&route, &sched, ic, &local, 0, &mut pool).unwrap();
                if rounds.iter().max() == Some(&8) {
                    let (_, fresh) = pool.stats();
                    let pairs = sched.pairs().len() as u64;
                    assert!(fresh <= 2 * pairs, "{m}->{n} sender {rank}: {fresh} fresh buffers");
                }
            } else {
                let ic = ctx.intercomm(0);
                ic.reset_mailbox_peak();
                let sched = RegionSchedule::for_receiver(&src, &dst, rank);
                let mut got: LocalArray<i64> = LocalArray::allocate(&dst, rank);
                execute_recv_routed(&route, &sched, ic, &mut got, 0, &mut pool).unwrap();
                assert_eq!(got, LocalArray::from_fn(&dst, rank, |idx| value(idx, cols)));
                let peak = ic.mailbox_bytes().1;
                let pairs = sched.pairs().len() as u64;
                assert!(peak <= pairs * chunk_bytes, "{m}->{n} receiver {rank}: mailbox {peak} B");
            }
            let held = schedule_stats().transfer_peak_bytes;
            assert!(held <= 2 * chunk_bytes, "{m}->{n} rank {rank} held {held} B");
        });
    }
}

/// `within` keeps all sends of a round before its receives, and its acks
/// hand buffers back like the inter-communicator executors' do: with
/// single-element chunks (many rounds) a rank allocates one buffer per
/// send pair, in the first round, and every later lease is a returned one.
#[test]
fn within_acks_hand_buffers_back_at_single_element_chunks() {
    let e = Extents::new([6, 6]);
    let src = Dad::block(e.clone(), &[3, 1]).unwrap();
    let dst = Dad::block(e, &[1, 3]).unwrap();
    World::run(3, move |proc| {
        let comm = proc.world();
        let rank = comm.rank();
        let send = RegionSchedule::for_sender(&src, &dst, rank);
        let recv = RegionSchedule::for_receiver(&src, &dst, rank);
        let src_local = LocalArray::from_fn(&src, rank, |idx| value(idx, 6));
        let mut got: LocalArray<i64> = LocalArray::allocate(&dst, rank);
        let mut pool = TransferBuffers::new();
        execute_within_routed(
            &forced(RouteKind::Chunked, 1),
            &send,
            &recv,
            comm,
            &src,
            &src_local,
            &mut got,
            0,
            &mut pool,
        )
        .unwrap();
        assert_eq!(got, LocalArray::from_fn(&dst, rank, |idx| value(idx, 6)));
        let (leases, fresh) = pool.stats();
        assert_eq!(leases, 12, "one lease per element sent");
        assert!(fresh <= send.num_messages() as u64, "rank {rank}: {fresh} fresh buffers");
    });
}
