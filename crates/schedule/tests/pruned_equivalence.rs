//! Property tests: the pruned (overlap-index) schedule construction is
//! observationally identical to the naive all-pairs oracle over random
//! descriptor pairs — same peers, same regions, same canonical order, same
//! compiled plans, same probe count — for every rank and both roles, in
//! one, two and three dimensions; and every compiled strided copy plan
//! moves exactly what per-region packing moves.

use mxn_dad::{region_runs, AxisDist, Dad, ExplicitDist, Extents, LocalArray, Region, Template};
use mxn_runtime::{reset_schedule_stats, schedule_stats};
use mxn_schedule::RegionSchedule;
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

/// One of five descriptor families over shared `rows x cols` extents,
/// covering every axis-distribution kind plus explicit multi-patch layouts.
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
            // GenBlock rows (zero-size blocks allowed) x Collapsed cols.
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
            // Explicit quadrants with random owners (possibly several
            // patches per rank).
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

/// A regular template over `dims` with a random distribution kind per
/// axis, including zero-size gen-blocks, more block positions than
/// elements (ranks that own nothing) and collapsed axes.
fn make_regular(dims: &[usize], seed: u64) -> Dad {
    let mut s = seed;
    let axes = dims
        .iter()
        .map(|&n| match pick(&mut s, 0, 6) {
            0 => AxisDist::Collapsed,
            1 => AxisDist::Block { nprocs: pick(&mut s, 1, n + 3) },
            2 => AxisDist::Cyclic { nprocs: pick(&mut s, 1, 4) },
            3 => AxisDist::BlockCyclic { block: pick(&mut s, 1, 4), nprocs: pick(&mut s, 1, 4) },
            4 => {
                let nb = pick(&mut s, 1, 5);
                let mut sizes = vec![0usize; nb];
                for _ in 0..n {
                    sizes[pick(&mut s, 0, nb)] += 1;
                }
                AxisDist::GenBlock { sizes }
            }
            _ => {
                let nprocs = pick(&mut s, 1, 4);
                AxisDist::Implicit {
                    owners: (0..n).map(|_| pick(&mut s, 0, nprocs)).collect(),
                    nprocs,
                }
            }
        })
        .collect();
    Dad::regular(Template::new(Extents::new(dims.to_vec()), axes).unwrap())
}

/// A descriptor pair: one of the five 2-D families each side (`shape` 0),
/// or random regular templates in 1-D (`shape` 1) or 3-D (`shape` 2).
fn make_pair(shape: u8, dims: &[usize], families: (u8, u8), seed: u64) -> (Dad, Dad) {
    let seed2 = seed ^ 0x5851_f42d_4c95_7f2d;
    match shape % 3 {
        0 => (
            make_dad(dims[0], dims[1], families.0, seed),
            make_dad(dims[0], dims[1], families.1, seed2),
        ),
        1 => (make_regular(&dims[..1], seed), make_regular(&dims[..1], seed2)),
        _ => (make_regular(dims, seed), make_regular(dims, seed2)),
    }
}

/// Checks every plan of `sched` (built for `rank` of `dad`) against
/// per-region `pack_region_into` / `unpack_region`, including range packs
/// and unpacks split at `cuts` and at one point inside a run.
fn check_plans(sched: &RegionSchedule, dad: &Dad, rank: usize, cuts: &[u64]) {
    let value = |idx: &[usize]| idx.iter().fold(1i64, |acc, &i| acc * 31 + i as i64);
    let local = LocalArray::from_fn(dad, rank, value);
    for (i, pair) in sched.pairs().iter().enumerate() {
        let plan = sched.plan(i);
        let mut want = Vec::new();
        for region in &pair.regions {
            local.pack_region_into(region, &mut want);
        }
        let mut got = Vec::new();
        sched.pack_pair_into(i, &local, &mut got);
        assert_eq!(got, want, "pack, pair {i} of rank {rank}");

        let runs: Vec<usize> =
            pair.regions.iter().map(|r| region_runs(local.regions(), r).len()).collect();
        assert_eq!(plan.num_runs(), runs.iter().sum::<usize>(), "runs, pair {i}");

        let mut oracle: LocalArray<i64> = LocalArray::allocate(dad, rank);
        let mut base = 0;
        for region in &pair.regions {
            oracle.unpack_region(region, &want[base..base + region.len()]);
            base += region.len();
        }
        let mut dst: LocalArray<i64> = LocalArray::allocate(dad, rank);
        sched.unpack_pair_from(i, &mut dst, &want);
        assert_eq!(dst, oracle, "unpack, pair {i} of rank {rank}");

        // Cut points: the drawn ones, plus one inside the first run longer
        // than one element, so range copies clip mid-run.
        let total = plan.total();
        let mut points: Vec<usize> =
            cuts.iter().map(|&c| (c % (total as u64 + 1)) as usize).collect();
        let mut base = 0;
        for region in &pair.regions {
            if let Some(run) = region_runs(local.regions(), region).iter().find(|r| r.len > 1) {
                points.push(base + run.sub_off + 1);
                break;
            }
            base += region.len();
        }
        points.extend([0, total]);
        points.sort_unstable();
        points.dedup();
        let mut joined = Vec::new();
        let mut dst: LocalArray<i64> = LocalArray::allocate(dad, rank);
        for w in points.windows(2) {
            let mut part = Vec::new();
            plan.pack_range_into(&local, &mut part, w[0], w[1]);
            plan.unpack_range_from(&mut dst, &want[w[0]..w[1]], w[0], w[1]);
            joined.extend_from_slice(&part);
        }
        assert_eq!(joined, want, "range pack at cuts {points:?}, pair {i}");
        assert_eq!(dst, oracle, "range unpack at cuts {points:?}, pair {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pruned_build_equals_naive_oracle(
        rows in 4..20usize,
        cols in 3..12usize,
        src_family in 0..5u8,
        dst_family in 0..5u8,
        seed in 0..u64::MAX,
    ) {
        let src = make_dad(rows, cols, src_family, seed);
        let dst = make_dad(rows, cols, dst_family, seed ^ 0x5851_f42d_4c95_7f2d);
        for rank in 0..src.nranks() {
            prop_assert_eq!(
                RegionSchedule::for_sender(&src, &dst, rank),
                RegionSchedule::for_sender_naive(&src, &dst, rank),
                "sender rank {} of {:?} -> {:?}", rank, src, dst
            );
        }
        for rank in 0..dst.nranks() {
            prop_assert_eq!(
                RegionSchedule::for_receiver(&src, &dst, rank),
                RegionSchedule::for_receiver_naive(&src, &dst, rank),
                "receiver rank {} of {:?} -> {:?}", rank, src, dst
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every sender and receiver plan — strided blocks — packs exactly
    /// what per-region packing yields, unpacks to the same array, splits at
    /// any cut and counts the runs `region_runs` would emit.
    #[test]
    fn strided_plans_match_per_region_packing(
        shape in 0..3u8,
        dims in proptest::collection::vec(2..7usize, 3),
        rows in 4..20usize,
        cols in 3..12usize,
        src_family in 0..5u8,
        dst_family in 0..5u8,
        seed in 0..u64::MAX,
        cuts in proptest::collection::vec(0..u64::MAX, 3),
    ) {
        let dims = if shape % 3 == 0 { vec![rows, cols] } else { dims };
        let (src, dst) = make_pair(shape, &dims, (src_family, dst_family), seed);
        for rank in 0..src.nranks() {
            check_plans(&RegionSchedule::for_sender(&src, &dst, rank), &src, rank, &cuts);
        }
        for rank in 0..dst.nranks() {
            check_plans(&RegionSchedule::for_receiver(&src, &dst, rank), &dst, rank, &cuts);
        }
    }

    /// The per-axis construction equals the naive oracle beyond 2-D, and
    /// its probe count is what querying every local patch on its own
    /// counts: Π_d Σ_k |candidates_d(k)|.
    #[test]
    fn per_axis_build_equals_naive_in_1d_and_3d(
        three_d in 0..2u8,
        dims in proptest::collection::vec(1..7usize, 3),
        seed in 0..u64::MAX,
    ) {
        let (src, dst) = make_pair(1 + three_d, &dims, (0, 0), seed);
        for (me, peer, sender) in [(&src, &dst, true), (&dst, &src, false)] {
            for rank in 0..me.nranks() {
                reset_schedule_stats();
                let (pruned, naive) = if sender {
                    (
                        RegionSchedule::for_sender(&src, &dst, rank),
                        RegionSchedule::for_sender_naive(&src, &dst, rank),
                    )
                } else {
                    (
                        RegionSchedule::for_receiver(&src, &dst, rank),
                        RegionSchedule::for_receiver_naive(&src, &dst, rank),
                    )
                };
                prop_assert_eq!(&pruned, &naive, "rank {} of {:?} -> {:?}", rank, me, peer);
                // The stats hold the pruned build, then the naive one.
                let index = peer.overlap_index();
                let per_patch: u64 =
                    me.patches(rank).iter().map(|p| index.query(p).probes as u64).sum();
                prop_assert_eq!(
                    schedule_stats().peer_probes,
                    per_patch + peer.nranks() as u64,
                    "probes, rank {} of {:?} -> {:?}", rank, me, peer
                );
            }
        }
    }
}
