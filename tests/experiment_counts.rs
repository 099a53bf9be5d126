//! Claims of EXPERIMENTS.md that are counts, not timings, and that no
//! other test asserts: message rounds read from a world's traffic
//! counters, ownership agreement between descriptor kinds, and the one
//! wait whose lower bound the producer's own sleeps make deterministic.
//! Each test names the experiment it is the home of.

use std::time::{Duration, Instant};

use mxn::dad::{AxisDist, Dad, ExplicitDist, Extents, LocalArray, Region, Template};
use mxn::intercomm::{Exporter, Importer, MatchRule};
use mxn::linearize::{request_and_fill, serve_requests, ArrayOrder};
use mxn::mct::{AttrVect, GlobalSegMap, SparseElem, SparseMatrix, SparseMatrixPlus};
use mxn::runtime::{NetworkModel, RunOpts, Universe, World};
use mxn::schedule::{RegionSchedule, TransferBuffers};

/// Runs `transfers` transfers of a 3 → 4 coupling, row blocks to column
/// blocks, by precomputed schedule or by the receiver-request protocol.
/// Returns the messages sent beyond the universe's own bootstrap and the
/// longest time a receiver spent in its transfers.
fn coupling(opts: RunOpts, use_schedule: bool, transfers: usize) -> (u64, Duration) {
    let e = Extents::new([12, 8]);
    let src = Dad::block(e.clone(), &[3, 1]).unwrap();
    let dst = Dad::block(e, &[1, 4]).unwrap();
    let bootstrap = Universe::run_opts(&[3, 4], opts.clone(), |_, _| ()).stats.total_messages();
    let report = Universe::run_opts(&[3, 4], opts, |_, ctx| {
        let rank = ctx.comm.rank();
        let start = Instant::now();
        if ctx.program == 0 {
            let ic = ctx.intercomm(1);
            let local = LocalArray::from_fn(&src, rank, |idx| (idx[0] * 8 + idx[1]) as f64);
            let sched = RegionSchedule::for_sender(&src, &dst, rank);
            for t in 0..transfers {
                if use_schedule {
                    sched.execute_send(ic, &local, t as i32, &mut TransferBuffers::new()).unwrap();
                } else {
                    serve_requests(ic, &src, ArrayOrder::RowMajor, &local).unwrap();
                }
            }
        } else {
            let ic = ctx.intercomm(0);
            let mut local: LocalArray<f64> = LocalArray::allocate(&dst, rank);
            let sched = RegionSchedule::for_receiver(&src, &dst, rank);
            for t in 0..transfers {
                if use_schedule {
                    let mut buffers = TransferBuffers::new();
                    sched.execute_recv(ic, &mut local, t as i32, &mut buffers).unwrap();
                } else {
                    request_and_fill(ic, &dst, ArrayOrder::RowMajor, &mut local).unwrap();
                }
            }
            for (idx, &v) in local.iter() {
                assert_eq!(v, (idx[0] * 8 + idx[1]) as f64, "at {idx:?}");
            }
        }
        start.elapsed()
    });
    let waited = report.results[3..].iter().copied().max().unwrap();
    (report.stats.total_messages() - bootstrap, waited)
}

/// E7 and E17: a precomputed schedule sends one data message per
/// overlapping pair and transfer; the receiver-request protocol sends a
/// request from every receiver to every sender and an answer back, so
/// each transfer waits out a full round trip of the network's latency.
#[test]
fn receiver_request_pays_a_request_round_per_transfer() {
    let (schedule, _) = coupling(RunOpts::default(), true, 3);
    let (request, _) = coupling(RunOpts::default(), false, 3);
    // Every row block meets every column block: 3 × 4 pairs.
    assert_eq!(schedule, 3 * 12);
    assert_eq!(request, 3 * 2 * 12);

    let latency = Duration::from_millis(2);
    let opts = RunOpts { network: Some(NetworkModel::latency_only(latency)), ..RunOpts::default() };
    let (_, waited) = coupling(opts, false, 3);
    assert!(waited >= 3 * 2 * latency, "three round trips took {waited:?}");
}

/// E11: one multi-field apply of MCT's interpolation matrix shares one
/// gather round among all its fields; applying it field by field pays one
/// round per field.
#[test]
fn multi_field_interpolation_gathers_once() {
    let messages = |fields: usize, applies: usize| {
        let report = World::run_opts(2, RunOpts::default(), |p| {
            let comm = p.world();
            let me = comm.rank();
            let (src, dst) = (GlobalSegMap::block(64, 2), GlobalSegMap::block(32, 2));
            // A 2:1 average over the source half that the other rank owns.
            let mut elems = Vec::new();
            for s in dst.rank_segments(me) {
                for r in s.start..s.start + s.length {
                    let col = |k: usize| (2 * r + k + 32) % 64;
                    elems.extend((0..2).map(|k| SparseElem { row: r, col: col(k), weight: 0.5 }));
                }
            }
            let a = SparseMatrix::new(32, 64, elems).unwrap();
            let plus = SparseMatrixPlus::build(comm, &a, &src, &dst).unwrap();
            let names: Vec<String> = (0..fields).map(|f| format!("f{f}")).collect();
            let names: Vec<&str> = names.iter().map(String::as_str).collect();
            let mut x = AttrVect::new(&names, &[], src.lsize(me));
            for f in 0..fields {
                x.real_at_mut(f).fill(f as f64 + 1.0);
            }
            let mut y = AttrVect::new(&names, &[], dst.lsize(me));
            for i in 0..applies {
                plus.apply(comm, &x, &mut y, i as i32).unwrap();
                for (f, name) in names.iter().enumerate() {
                    assert!(y.real(name).iter().all(|&v| v == f as f64 + 1.0));
                }
            }
        });
        report.stats.total_messages()
    };
    let build = messages(1, 0);
    let round = messages(1, 1) - build;
    assert!(round > 0, "the remap must gather from the other rank");
    assert_eq!(messages(8, 1) - build, round, "eight fields, one gather round");
    assert_eq!(messages(1, 8) - build, 8 * round, "field at a time, eight rounds");
}

/// E12: an import ahead of the producer's frontier waits for the
/// producer's own steps (six of 10 ms here); the transfer itself hides
/// behind them.
#[test]
fn import_ahead_of_the_frontier_waits_for_the_producer() {
    let d = Dad::block(Extents::new([64]), &[1]).unwrap();
    let waits = Universe::run(&[1, 1], |_, ctx| {
        if ctx.program == 0 {
            let ic = ctx.intercomm(1);
            let mut ex = Exporter::new(d.clone(), d.clone(), 0, MatchRule::UpperBound, 16);
            for t in 0..6 {
                std::thread::sleep(Duration::from_millis(10));
                let data = LocalArray::from_fn(&d, 0, |idx| (idx[0] + t) as f64);
                ex.export(ic, t as f64, &data).unwrap();
            }
            ex.close(ic).unwrap();
            Duration::ZERO
        } else {
            let ic = ctx.intercomm(0);
            let mut im = Importer::new(&d, &d, 0);
            let mut dst = LocalArray::allocate(&d, 0);
            let start = Instant::now();
            im.import(ic, 5.0, &mut dst).unwrap();
            let waited = start.elapsed();
            assert_eq!(dst.get(&[3]), Some(&8.0), "version 5 arrived");
            waited
        }
    });
    assert!(waits[1] >= Duration::from_millis(30), "waited only {:?}", waits[1]);
}

/// E14: schedule construction is not serialized: every rank builds its
/// own schedules from the replicated descriptors and sends nothing.
#[test]
fn schedule_construction_sends_no_messages() {
    let report = World::run_opts(4, RunOpts::default(), |p| {
        let e = Extents::new([1024, 4]);
        let cyclic = vec![AxisDist::BlockCyclic { block: 4, nprocs: 4 }, AxisDist::Collapsed];
        let src = Dad::regular(Template::new(e.clone(), cyclic).unwrap());
        let dst = Dad::block(e, &[4, 1]).unwrap();
        let sender = RegionSchedule::for_sender(&src, &dst, p.rank());
        let receiver = RegionSchedule::for_receiver(&src, &dst, p.rank());
        assert_eq!((sender.num_messages(), receiver.num_messages()), (4, 4));
    });
    assert_eq!(report.stats.total_messages(), 0);
}

/// E8: the five descriptor kinds can describe one row-block layout, and
/// then agree on every element's owner.
#[test]
fn five_descriptor_kinds_agree_on_owners() {
    let (rows, cols, p) = (64, 4, 4);
    let e = Extents::new([rows, cols]);
    let chunk = rows / p;
    let regular = |axis: AxisDist| {
        Dad::regular(Template::new(e.clone(), vec![axis, AxisDist::Collapsed]).unwrap())
    };
    let owners = (0..rows).map(|r| r / chunk).collect();
    let patches = (0..p).map(|q| (Region::new([q * chunk, 0], [(q + 1) * chunk, cols]), q));
    let kinds = [
        regular(AxisDist::Block { nprocs: p }),
        regular(AxisDist::BlockCyclic { block: chunk, nprocs: p }),
        regular(AxisDist::GenBlock { sizes: vec![chunk; p] }),
        regular(AxisDist::Implicit { owners, nprocs: p }),
        Dad::explicit(ExplicitDist::new(e.clone(), patches.collect(), p).unwrap()),
    ];
    for idx in e.iter() {
        let owner = kinds[0].owner(&idx);
        assert_eq!(owner, idx[0] / chunk);
        assert!(kinds.iter().all(|d| d.owner(&idx) == owner), "kinds disagree at {idx:?}");
    }
}
