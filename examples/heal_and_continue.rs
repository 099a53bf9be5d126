//! Heal-and-continue: an exporter dies mid-coupling, the survivors shrink
//! the connection and keep transferring — *lossy by design*.
//!
//! ```text
//! cargo run --release --example heal_and_continue [trace.json]
//! ```
//!
//! Three exporters block-decompose a 6×6 field by rows (two rows each) and
//! feed a single importer through a transactional persistent connection.
//! After epoch 1 commits, the middle exporter dies. Epoch 2's first attempt
//! aborts collectively — the importer's field still holds epoch 1 intact —
//! then both sides heal: revoke, shrink to the survivor set, re-decompose,
//! rebind surviving data, rebuild the transfer schedule. The retried epoch
//! completes over the healed coupling.
//!
//! The catch, and the point: rows 2–3 lived *only* on the dead exporter.
//! `FieldRegistry::rebind` carries over every element a survivor owned and
//! zero-fills the rest, so the healed transfer delivers zeros there. The
//! recovery model restores *progress*, not lost state — components that
//! need the data back must re-source it (checkpoint, recompute, re-read).
//!
//! The run is traced; the merged Chrome trace (load in `chrome://tracing`
//! or Perfetto) is written so the heal/rollback spans can be inspected —
//! CI uploads it as the recovery-trace artifact.

use std::fs;

use mxn::core::{ConnectionKind, Direction, FieldRegistry, MxnConnection, TransferOutcome};
use mxn::dad::{AccessMode, Dad, Extents};
use mxn::runtime::{RunOpts, Universe};
use mxn::trace::EventId;

const DEAD_WORLD_RANK: usize = 1; // exporter of rows 2..4

fn main() {
    let out_path =
        std::env::args().nth(1).unwrap_or_else(|| "target/heal_and_continue_trace.json".into());

    let opts = RunOpts { trace: true, ..RunOpts::default() };
    let report = Universe::run_opts(&[3, 1], opts, |p, ctx| {
        let rank = ctx.comm.rank();
        let exporting = ctx.program == 0;
        let src = Dad::block(Extents::new([6, 6]), &[3, 1]).unwrap();
        let dst = Dad::block(Extents::new([6, 6]), &[1, 1]).unwrap();
        let mut reg = FieldRegistry::new(rank);
        let data = if exporting {
            reg.register_allocated("field", src, AccessMode::Read).unwrap()
        } else {
            reg.register_allocated("field", dst, AccessMode::Write).unwrap()
        };
        if exporting {
            // Nonzero everywhere, so lost regions are visible as zeros.
            let mut d = data.write();
            for r in 0..6 {
                for c in 0..6 {
                    if let Some(v) = d.get_mut(&[r, c]) {
                        *v = (r * 6 + c + 1) as f64;
                    }
                }
            }
        }
        let mut conn = if exporting {
            MxnConnection::initiate(
                ctx.intercomm(1),
                &reg,
                0,
                "field",
                "field",
                Direction::Export,
                ConnectionKind::Persistent { period: 1 },
            )
            .unwrap()
        } else {
            MxnConnection::accept(ctx.intercomm(0), &reg, 0).unwrap()
        };
        conn.set_transactional(true);
        let ic = if exporting { ctx.intercomm(1) } else { ctx.intercomm(0) };

        // Epoch 1 commits on the full membership.
        let outcome = conn.data_ready(ic, &reg).unwrap();
        assert!(matches!(outcome, TransferOutcome::Transferred { .. }));
        p.world().barrier().unwrap();

        // The middle exporter dies; a dead rank leaves the protocol.
        if p.rank() == DEAD_WORLD_RANK {
            p.kill_rank(DEAD_WORLD_RANK);
            return format!("rank {rank} (exporter): died after epoch 1");
        }
        while !p.is_dead(DEAD_WORLD_RANK) {
            std::thread::yield_now();
        }

        // Epoch 2, first attempt: the commit vote fails everywhere, the
        // transfer rolls back, committed data stays intact.
        let aborted = conn.data_ready(ic, &reg).unwrap_err();
        let committed_before = conn.stats().1;

        // Heal: shrink to survivors, re-decompose, rebind, re-plan.
        let (healed, report) = conn.heal(ic, &mut reg).unwrap();

        // Epoch 2, retried over the healed coupling.
        let outcome = conn.data_ready(&healed, &reg).unwrap();
        assert!(matches!(outcome, TransferOutcome::Transferred { .. }));

        if exporting {
            format!(
                "rank {rank} (exporter): abort `{aborted}` then healed to {} exporters, epoch {}",
                report.local_survivors.len(),
                conn.epoch(),
            )
        } else {
            // Rows owned only by the dead exporter arrive zeroed: the heal
            // restores progress, not lost state.
            let d = data.read();
            let mut lost = Vec::new();
            let mut kept = 0usize;
            for r in 0..6 {
                let row_sum: f64 = (0..6).map(|c| *d.get(&[r, c]).unwrap()).sum();
                if row_sum == 0.0 {
                    lost.push(r);
                } else {
                    kept += 1;
                }
            }
            format!(
                "rank {rank} (importer): {committed_before} epochs committed before the heal, \
                 {kept} rows re-delivered, rows {lost:?} lost with the dead exporter",
            )
        }
    });
    let results = report.results;
    let trace = report.trace.expect("tracing was requested");

    for line in &results {
        println!("{line}");
    }
    let agg = trace.aggregate();
    let heals = agg.count(EventId::Heal);
    let rollbacks = agg.count(EventId::Rollback);
    println!("trace: {heals} heal span(s), {rollbacks} rollback(s), digest {}", trace.digest_hex());

    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        fs::create_dir_all(dir).expect("create output directory");
    }
    fs::write(&out_path, trace.chrome_json()).expect("write chrome trace json");
    println!("wrote {out_path}");
}
