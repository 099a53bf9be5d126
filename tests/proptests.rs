//! Property-based tests on the core data structures and invariants.
//!
//! These check the algebraic laws the whole middleware stack rests on:
//! distributions partition index spaces, linearizations are bijections,
//! schedules move every element exactly once, and the mirror property
//! between sender and receiver schedules holds for arbitrary layouts.

use proptest::prelude::*;

use mxn::dad::{AxisDist, Dad, Extents, LocalArray, Region, Template};
use mxn::linearize::{ArrayOrder, SegmentList};
use mxn::schedule::{LinearSchedule, RegionSchedule};

/// Strategy: an arbitrary axis distribution valid for `extent`.
fn axis_dist(extent: usize) -> impl Strategy<Value = AxisDist> {
    let nprocs = 1..=4usize;
    prop_oneof![
        Just(AxisDist::Collapsed),
        nprocs.clone().prop_map(|n| AxisDist::Block { nprocs: n }),
        nprocs.clone().prop_map(|n| AxisDist::Cyclic { nprocs: n }),
        (1..=3usize, nprocs.clone())
            .prop_map(|(b, n)| AxisDist::BlockCyclic { block: b, nprocs: n }),
        // Gen-block: random split of the extent into n parts.
        (1..=4usize).prop_flat_map(move |n| proptest::collection::vec(0..=extent, n - 1)).prop_map(
            move |mut cuts| {
                cuts.push(0);
                cuts.push(extent);
                cuts.sort_unstable();
                let sizes: Vec<usize> = cuts.windows(2).map(|w| w[1] - w[0]).collect();
                AxisDist::GenBlock { sizes }
            }
        ),
        // Implicit: arbitrary owners.
        (1..=3usize).prop_flat_map(move |n| {
            proptest::collection::vec(0..n, extent)
                .prop_map(move |owners| AxisDist::Implicit { owners, nprocs: n })
        }),
    ]
}

/// Strategy: a random 2-D template.
fn template_2d() -> impl Strategy<Value = Template> {
    (1..=9usize, 1..=9usize).prop_flat_map(|(r, c)| {
        (axis_dist(r), axis_dist(c)).prop_map(move |(a0, a1)| {
            Template::new(Extents::new([r, c]), vec![a0, a1]).expect("strategy yields valid axes")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every template partitions its index space: each element has exactly
    /// one owner, and that owner's patches contain it.
    #[test]
    fn template_partitions_index_space(t in template_2d()) {
        let mut counts = vec![0usize; t.nranks()];
        for idx in t.extents().iter() {
            counts[t.owner(&idx)] += 1;
        }
        let mut patch_total = 0;
        for (r, &count) in counts.iter().enumerate() {
            prop_assert_eq!(t.local_size(r), count);
            for p in t.patches(r) {
                for idx in p.iter() {
                    prop_assert_eq!(t.owner(&idx), r);
                    patch_total += 1;
                }
            }
        }
        prop_assert_eq!(patch_total, t.extents().total());
    }

    /// Linearization orders are bijections and region segments cover
    /// exactly the region.
    #[test]
    fn array_orders_are_bijective(
        r in 1..7usize,
        c in 1..7usize,
        d in 1..4usize,
        order in prop_oneof![Just(ArrayOrder::RowMajor), Just(ArrayOrder::ColMajor)],
    ) {
        let e = Extents::new([r, c, d]);
        let mut seen = vec![false; e.total()];
        for idx in e.iter() {
            let p = order.linear(&e, &idx);
            prop_assert!(!seen[p]);
            seen[p] = true;
            prop_assert_eq!(order.index(&e, p), idx);
        }
        prop_assert!(seen.iter().all(|&b| b));
    }

    /// Region segments of a random sub-box cover exactly its elements.
    #[test]
    fn region_segments_cover_region(
        r in 1..8usize, c in 1..8usize,
        lo0 in 0..8usize, lo1 in 0..8usize,
        len0 in 0..8usize, len1 in 0..8usize,
    ) {
        let e = Extents::new([r, c]);
        let lo = [lo0.min(r - 1), lo1.min(c - 1)];
        let hi = [(lo[0] + len0 + 1).min(r), (lo[1] + len1 + 1).min(c)];
        let region = Region::new(lo.to_vec(), hi.to_vec());
        for order in [ArrayOrder::RowMajor, ArrayOrder::ColMajor] {
            let segs = order.region_segments(&e, &region);
            prop_assert_eq!(segs.total_len(), region.len());
            for idx in region.iter() {
                prop_assert!(segs.contains(order.linear(&e, &idx)));
            }
        }
    }

    /// Segment-list intersection is exactly set intersection.
    #[test]
    fn segment_intersection_is_set_intersection(
        a in proptest::collection::vec((0..50usize, 1..6usize), 0..8),
        b in proptest::collection::vec((0..50usize, 1..6usize), 0..8),
    ) {
        fn normalize(v: Vec<(usize, usize)>) -> SegmentList {
            // Drop overlapping runs to satisfy the disjointness contract.
            let mut taken: Vec<(usize, usize)> = Vec::new();
            'outer: for (s, l) in v {
                for &(ts, tl) in &taken {
                    if s < ts + tl && ts < s + l {
                        continue 'outer;
                    }
                }
                taken.push((s, l));
            }
            SegmentList::from_runs(taken)
        }
        let sa = normalize(a);
        let sb = normalize(b);
        let i = sa.intersect(&sb);
        for p in 0..60 {
            prop_assert_eq!(i.contains(p), sa.contains(p) && sb.contains(p), "position {}", p);
        }
        let reversed = sb.intersect(&sa);
        prop_assert_eq!(i.runs(), reversed.runs());
    }

    /// For arbitrary source/destination templates of the same array:
    /// sender schedules collectively move every element exactly once, and
    /// receiver schedules mirror them pair-for-pair.
    #[test]
    fn schedules_are_complete_and_mirrored(src_t in template_2d(), dst_a in axis_dist(64)) {
        let extents = src_t.extents().clone();
        let src = Dad::regular(src_t);
        // Destination: distribute rows by dst_a (clipped to the row count),
        // columns collapsed — guaranteed-conforming second layout.
        let rows = extents.dim(0);
        let dst_axis = match &dst_a {
            AxisDist::GenBlock { .. } | AxisDist::Implicit { .. } => AxisDist::Block { nprocs: 2 },
            other => other.clone(),
        };
        let dst = Dad::regular(
            Template::new(extents.clone(), vec![dst_axis, AxisDist::Collapsed])
                .unwrap_or_else(|_| Template::block(extents.clone(), &[1, 1]).unwrap()),
        );
        let _ = rows;

        // Completeness: union over all sender pairs = every element once.
        let mut delivered = vec![0usize; extents.total()];
        for s in 0..src.nranks() {
            let sched = RegionSchedule::for_sender(&src, &dst, s);
            for pair in sched.pairs() {
                for region in &pair.regions {
                    for idx in region.iter() {
                        prop_assert_eq!(src.owner(&idx), s);
                        prop_assert_eq!(dst.owner(&idx), pair.peer);
                        delivered[extents.linear(&idx)] += 1;
                    }
                }
            }
        }
        prop_assert!(delivered.iter().all(|&c| c == 1), "every element exactly once");

        // Mirror property.
        for r in 0..dst.nranks() {
            let rs = RegionSchedule::for_receiver(&src, &dst, r);
            for pair in rs.pairs() {
                let ss = RegionSchedule::for_sender(&src, &dst, pair.peer);
                let mirror = ss.pairs().iter().find(|p| p.peer == r).expect("mirrored pair");
                prop_assert_eq!(&pair.regions, &mirror.regions);
            }
        }

        // Linear schedules agree with region schedules on totals.
        for s in 0..src.nranks() {
            let lin = LinearSchedule::for_sender(&src, &dst, ArrayOrder::RowMajor, s);
            let reg = RegionSchedule::for_sender(&src, &dst, s);
            prop_assert_eq!(lin.total_elements(), reg.total_elements());
        }
    }

    /// Pack/unpack round-trips restore local storage for any region inside
    /// an owned patch.
    #[test]
    fn pack_unpack_roundtrip(
        rows in 2..8usize,
        cols in 2..8usize,
        grid0 in 1..3usize,
        grid1 in 1..3usize,
    ) {
        let dad = Dad::block(Extents::new([rows, cols]), &[grid0, grid1]).unwrap();
        for rank in 0..dad.nranks() {
            let local = LocalArray::from_fn(&dad, rank, |idx| (idx[0] * cols + idx[1]) as i64);
            for patch in dad.patches(rank) {
                let data = local.pack_region(&patch);
                prop_assert_eq!(data.len(), patch.len());
                let mut copy: LocalArray<i64> = LocalArray::allocate(&dad, rank);
                copy.unpack_region(&patch, &data);
                for idx in patch.iter() {
                    prop_assert_eq!(copy.get(&idx), local.get(&idx));
                }
            }
        }
    }

    /// The 2N-vs-N² converter registries agree on every conversion.
    #[test]
    fn converter_strategies_agree(
        n in 2..6usize,
        len in 0..40usize,
        src in 0..6usize,
        dst in 0..6usize,
    ) {
        use mxn::dad::{ConvertStrategy, ConverterRegistry, SyntheticPackage};
        let (src, dst) = (src % n, dst % n);
        let canonical: Vec<f64> = (0..len).map(|i| i as f64).collect();
        let native = SyntheticPackage { id: src }.from_canonical(&canonical);
        let mut hub = ConverterRegistry::new(n, ConvertStrategy::Hub);
        let mut direct = ConverterRegistry::new(n, ConvertStrategy::Direct);
        prop_assert_eq!(hub.convert(src, dst, &native), direct.convert(src, dst, &native));
    }
}

/// Non-proptest regression: a deterministic heavy case of the schedule
/// completeness law, exercising the paper's Figure 1 shape in 3-D.
#[test]
fn figure1_3d_schedules_complete() {
    let e = Extents::new([6, 6, 6]);
    let src = Dad::block(e.clone(), &[2, 2, 2]).unwrap(); // M = 8
    let dst = Dad::block(e.clone(), &[3, 3, 3]).unwrap(); // N = 27
    let mut delivered = vec![false; 216];
    for s in 0..8 {
        let sched = RegionSchedule::for_sender(&src, &dst, s);
        // Each sender overlaps 8 of the 27 receivers: 64 messages in all.
        assert_eq!(sched.num_messages(), 8);
        for pair in sched.pairs() {
            for region in &pair.regions {
                for idx in region.iter() {
                    let k = e.linear(&idx);
                    assert!(!delivered[k]);
                    delivered[k] = true;
                }
            }
        }
    }
    assert!(delivered.iter().all(|&b| b));
    // Each of the 27 receivers hears from at least one and at most 8 senders.
    for r in 0..27 {
        let sched = RegionSchedule::for_receiver(&src, &dst, r);
        assert!((1..=8).contains(&sched.num_messages()));
        assert_eq!(sched.total_elements(), 8);
    }
}

// ---------------------------------------------------------------------------
// Fault-plane determinism: same seed ⇒ identical trace and identical
// surviving-rank results.
// ---------------------------------------------------------------------------

mod fault_determinism {
    use proptest::prelude::*;
    use std::time::Duration;

    use mxn::runtime::{ChannelPolicy, FaultConfig, RunOpts, RunReport, RuntimeError, World};

    /// Stable, timing-free rendering of one op's outcome (Timeout's elapsed
    /// duration would otherwise differ between runs).
    fn label<T: std::fmt::Debug>(r: Result<T, RuntimeError>) -> String {
        match r {
            Ok(v) => format!("ok:{v:?}"),
            Err(RuntimeError::Timeout { src, tag, .. }) => format!("timeout:{src:?}:{tag:?}"),
            Err(RuntimeError::PeerDead { rank }) => format!("dead:{rank}"),
            Err(RuntimeError::Corrupt { src, tag }) => format!("corrupt:{src}:{tag}"),
            Err(e) => format!("other:{e}"),
        }
    }

    /// All-pairs exchange on 4 ranks under `cfg`: every rank sends to every
    /// other rank, then collects each receive's outcome. Returns the
    /// per-rank outcome log plus the canonical fault-trace digest.
    fn exchange(cfg: FaultConfig) -> (Vec<Vec<String>>, u64) {
        const N: usize = 4;
        let opts = RunOpts { faults: Some(cfg), ..RunOpts::default() };
        let RunReport { results, fault_trace: trace, .. } = World::run_opts(N, opts, |p| {
            let c = p.world();
            let me = c.rank();
            let mut log = Vec::new();
            for dst in (0..N).filter(|&d| d != me) {
                log.push(format!("send->{dst}:{}", label(c.send(dst, 7, (me * 10 + dst) as u64))));
            }
            for src in (0..N).filter(|&s| s != me) {
                log.push(format!(
                    "recv<-{src}:{}",
                    label(c.recv_timeout::<u64>(src, 7, Duration::from_millis(150)))
                ));
            }
            log
        });
        (results, trace.digest())
    }

    fn lossy_cfg(seed: u64) -> FaultConfig {
        FaultConfig::reliable(seed).with_default_policy(ChannelPolicy {
            drop: 0.25,
            duplicate: 0.15,
            corrupt: 0.15,
            // Delays far below the receive deadline, so whether a delayed
            // message beats the timeout never depends on scheduling.
            delay: Duration::from_micros(200),
            jitter: Duration::from_micros(300),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Lossy channels: both the injected-fault trace and every rank's
        /// observed outcomes replay identically for the same seed.
        #[test]
        fn lossy_runs_replay_identically(seed in 0u64..1_000_000) {
            let (r1, d1) = exchange(lossy_cfg(seed));
            let (r2, d2) = exchange(lossy_cfg(seed));
            prop_assert_eq!(d1, d2, "fault traces diverged for seed {}", seed);
            prop_assert_eq!(r1, r2);
        }

        /// Scheduled rank death: survivors observe the same mixture of
        /// delivered messages and `PeerDead` failures on every replay.
        #[test]
        fn death_runs_replay_identically(seed in 0u64..1_000_000, at_op in 0u64..5) {
            let cfg = || FaultConfig::reliable(seed).with_death(3, at_op);
            let (r1, d1) = exchange(cfg());
            let (r2, d2) = exchange(cfg());
            prop_assert_eq!(d1, d2);
            prop_assert_eq!(r1, r2);
        }
    }
}
