//! Autoscaled coupling: a policy-driven grow under load, a kill mid-grow
//! that rolls back cleanly, a committed retry, and a shrink back when the
//! load drains — all while periodic traffic keeps flowing, oracle-checked
//! every epoch.
//!
//! ```text
//! cargo run --release --example autoscale_coupling [trace.json]
//! ```
//!
//! Two exporters feed two importers a 12×12 field through a persistent
//! connection; three spare ranks park in [`MxnConnection::join`]. Every
//! incumbent runs an identical [`Autoscaler`] replica fed by *measured*
//! mailbox gauges, not invented numbers: during the loaded phase (the
//! first six epochs) each incumbent exchanges ballast bursts with its
//! counterpart and then samples its own mailbox occupancy via
//! `InterComm::sample_mailbox_gauge` — the peak-since-last-sample
//! watermark sees the backlog even though it fully drains before the
//! sample. Identical traffic on every incumbent keeps the policy replicas
//! in lockstep, so all replicas decide the same thing at the same epoch:
//!
//! * **epoch 2** — sustained pressure: `Grow {{ add: 2 }}`. The first two
//!   parked spares are invited, but one died right after startup, so the
//!   join handshake aborts on every participant. The rollback leaves the
//!   coupling exactly as it was ([`Autoscaler::record_aborted`] arms the
//!   policy cooldown), and the surviving invitee re-parks.
//! * **epoch 6** — pressure persists past the cooldown: the retry invites
//!   the two healthy spares and commits. The RMA rebind hands them the
//!   last committed step; epochs 7–10 run at the grown size.
//! * **epoch 10** — the queue has drained: `Shrink {{ remove: 2 }}`. The
//!   newcomers hand their shards back and retire; epochs 11–12 complete
//!   on the original membership.
//!
//! The run is traced; the merged Chrome trace (load in `chrome://tracing`
//! or Perfetto) is written so the Expand/Shrink spans can be inspected —
//! CI uploads it as the elastic-trace artifact.

use std::time::Duration;

use mxn::core::{
    Autoscaler, AutoscalerConfig, ConnectionKind, Direction, FieldData, FieldRegistry,
    MxnConnection, MxnError, ScaleDecision,
};
use mxn::dad::{AccessMode, Dad, Extents};
use mxn::runtime::{InterComm, RunOpts, World};
use mxn::trace::EventId;

const CAPACITY: usize = 7; // 4 incumbents + 3 spares
const DOOMED: usize = 4; // the spare that dies before the first invite
const EPOCHS: u64 = 12;
/// Epochs under ballast pressure; the queue reads idle afterwards.
const LOADED_EPOCHS: u64 = 6;
/// Ballast burst: each message alone crosses the high-water threshold, so
/// the measured peak convicts "overloaded" regardless of how eagerly the
/// receiving thread drains.
const BALLAST_MSGS: usize = 2;
const BALLAST_DOUBLES: usize = 12 * 1024; // 96 KiB per message
const BALLAST_TAG: i32 = 4242;

fn coded(idx: &[usize], step: f64) -> f64 {
    (idx[0] * 12 + idx[1]) as f64 + step * 1000.0
}

fn refill(data: &FieldData, step: f64) {
    let mut d = data.write();
    let idxs: Vec<Vec<usize>> = d.iter().map(|(i, _)| i).collect();
    for idx in idxs {
        *d.get_mut(&idx).unwrap() = coded(&idx, step);
    }
}

fn check(data: &FieldData, step: f64) {
    let d = data.read();
    for (idx, &v) in d.iter() {
        assert_eq!(v, coded(&idx, step), "oracle mismatch at {idx:?} (epoch {step})");
    }
}

fn main() {
    let out_path =
        std::env::args().nth(1).unwrap_or_else(|| "target/autoscale_coupling_trace.json".into());

    let opts = RunOpts { trace: true, ..RunOpts::default() };
    let trace = World::run_opts(CAPACITY, opts, |p| {
        let world = p.world();
        // The split is a world collective: every rank takes part, spares
        // with color −1, before anyone dies or parks.
        let color = if p.rank() < 4 { 0 } else { -1 };
        let pair = world.split(color, 0).unwrap();
        if p.rank() == DOOMED {
            p.kill_rank(DOOMED);
            return;
        }
        if p.rank() > 3 {
            // Spare capacity. The first invitation may abort under this
            // rank (a co-invitee died mid-handshake): re-park and wait
            // for the retry.
            let (mut conn, ic, reg) = loop {
                match MxnConnection::join(world, Duration::from_secs(30)) {
                    Ok(joined) => break joined,
                    Err(MxnError::Runtime(re)) if re.is_reconfig_aborted() => continue,
                    Err(e) => panic!("spare {} could not join: {e}", p.rank()),
                }
            };
            assert_eq!(conn.direction(), Direction::Import);
            let data = reg.get("f").unwrap().data().clone();
            // The data-carrying rebind delivered the last committed epoch.
            check(&data, 6.0);
            for step in 7..=10u64 {
                conn.data_ready(&ic, &reg).unwrap();
                check(&data, step as f64);
            }
            let mut reg = reg;
            let (gone, _) = conn.contract(&ic, world, &mut reg, &[0, 1], &[0, 1]).unwrap();
            assert!(gone.is_none() && conn.is_closed(), "a leaver retires cleanly");
            return;
        }
        // Incumbents: the death must be visible before the first invite so
        // the abort is deterministic.
        while !p.is_dead(DOOMED) {
            std::thread::yield_now();
        }
        let side = usize::from(p.rank() >= 2);
        let (_prog, ic) = InterComm::create(&pair.unwrap(), side).unwrap();
        let rank = ic.local_rank();
        let mut reg = FieldRegistry::new(rank);
        let src = Dad::block(Extents::new([12, 12]), &[2, 1]).unwrap();
        let dst = Dad::block(Extents::new([12, 12]), &[1, 2]).unwrap();
        let (data, mut conn) = if side == 0 {
            let data = reg.register_allocated("f", src, AccessMode::Read).unwrap();
            let conn = MxnConnection::initiate(
                &ic,
                &reg,
                0,
                "f",
                "f",
                Direction::Export,
                ConnectionKind::Persistent { period: 1 },
            )
            .unwrap();
            (data, conn)
        } else {
            let data = reg.register_allocated("f", dst, AccessMode::Write).unwrap();
            (data, MxnConnection::accept(&ic, &reg, 0).unwrap())
        };
        // Every incumbent drives an identical policy replica over the
        // same measured traffic — no coordination needed.
        let cfg = AutoscalerConfig {
            high_queue_bytes: 64 * 1024,
            low_queue_bytes: 4 * 1024,
            step: 2,
            cooldown: 2,
            min_ranks: 4,
            max_ranks: 8,
            sustain: 2,
        };
        let mut scaler = Autoscaler::new(cfg, 4);
        let mut parked: Vec<usize> = vec![4, 5, 6];
        let mut cur = ic;
        for step in 1..=EPOCHS {
            if side == 0 {
                refill(&data, step as f64);
            }
            conn.data_ready(&cur, &reg).unwrap();
            if side == 1 {
                check(&data, step as f64);
            }
            // Measured load: under pressure, exchange ballast with the
            // counterpart rank across the coupling, then sample this
            // rank's own mailbox gauge. The burst is fully drained before
            // the sample — the peak watermark is what convicts.
            if step <= LOADED_EPOCHS {
                let ballast = vec![0.0f64; BALLAST_DOUBLES];
                for _ in 0..BALLAST_MSGS {
                    cur.send(rank, BALLAST_TAG, ballast.clone()).unwrap();
                }
                for _ in 0..BALLAST_MSGS {
                    let _: Vec<f64> = cur.recv(rank, BALLAST_TAG).unwrap();
                }
            }
            let gauge = cur.sample_mailbox_gauge();
            match scaler.observe_stats(&gauge) {
                ScaleDecision::Hold => {}
                ScaleDecision::Grow { add } => {
                    let invite: Vec<usize> = parked.iter().copied().take(add).collect();
                    let (al, ar): (&[usize], &[usize]) =
                        if side == 0 { (&[], &invite) } else { (&invite, &[]) };
                    match conn.expand(&cur, world, &mut reg, al, ar) {
                        Ok((grown, _)) => {
                            parked.retain(|r| !invite.contains(r));
                            scaler.record_scaled(scaler.current() + add);
                            cur = grown;
                            if p.rank() == 0 {
                                println!("epoch {step}: grew to {} ranks", scaler.current());
                            }
                        }
                        Err(e) => {
                            assert!(
                                matches!(&e, MxnError::Runtime(re) if re.is_reconfig_aborted()),
                                "unexpected grow failure: {e}"
                            );
                            parked.retain(|&r| !p.is_dead(r));
                            scaler.record_aborted();
                            if p.rank() == 0 {
                                println!("epoch {step}: grow aborted (invitee died), rolled back");
                            }
                        }
                    }
                }
                ScaleDecision::Shrink { remove: _ } => {
                    let (shrunk, _) =
                        conn.contract(&cur, world, &mut reg, &[0, 1], &[0, 1]).unwrap();
                    scaler.record_scaled(4);
                    cur = shrunk.expect("incumbents survive the contract");
                    if p.rank() == 0 {
                        println!("epoch {step}: load drained, shrank back to 4 ranks");
                    }
                }
            }
        }
        assert_eq!(scaler.current(), 4, "the cycle closes at the original size");
        assert_eq!(conn.stats(), (EPOCHS, EPOCHS), "every epoch committed exactly once");
    })
    .trace
    .expect("tracing was requested");

    // Both the grow and the graceful contract commit through the same
    // reconfigure handshake; each commit emits one Expand event per
    // participant (6 for the grow, 6 for the contract — the abort none).
    let commits = trace.events.iter().filter(|e| e.id == EventId::Expand).count();
    assert_eq!(commits, 12, "exactly two committed reconfigurations");
    println!("trace: {commits} reconfig-commit event(s), digest {}", trace.digest_hex());
    std::fs::write(&out_path, trace.chrome_json()).expect("write chrome trace json");
    println!("wrote {out_path}");
}
