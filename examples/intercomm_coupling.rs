//! InterComm-style timestamp-coordinated coupling (paper §4.4).
//!
//! A producer simulation exports a field every 0.5 time units; a consumer
//! with a slower, irregular clock imports by timestamp under different
//! matching rules. The consumer never needs to know the producer's
//! schedule — the coordination rules decide which version each import
//! receives, and pending requests are answered as the producer's frontier
//! advances (hiding transfer cost behind the producer's stepping).
//!
//! ```text
//! cargo run --example intercomm_coupling
//! ```

use mxn::dad::{Dad, Extents, LocalArray};
use mxn::intercomm::{Exporter, ImportOutcome, Importer, MatchRule};
use mxn::runtime::Universe;

const N: usize = 32;

fn main() {
    let rules: Vec<(&str, MatchRule)> = vec![
        ("LowerBound", MatchRule::LowerBound),
        ("Nearest(0.3)", MatchRule::Nearest { tol: 0.3 }),
        ("RegularInterval(1.0)", MatchRule::RegularInterval { start: 0.0, every: 1.0 }),
    ];

    for (name, rule) in rules {
        println!("=== rule: {name} ===");
        run_coupling(rule);
        println!();
    }
    println!("all rules behaved as specified");
}

fn run_coupling(rule: MatchRule) {
    let extents = Extents::new([N]);
    let src_dad = Dad::block(extents.clone(), &[2]).unwrap();
    let dst_dad = Dad::block(extents.clone(), &[2]).unwrap();
    // The consumer's irregular request clock.
    let requests = [0.7, 1.2, 2.9, 4.0];

    Universe::run(&[2, 2], |_, ctx| {
        let rank = ctx.comm.rank();
        if ctx.program == 0 {
            // Producer: export at t = 0.0, 0.5, …, 4.5.
            let ic = ctx.intercomm(1);
            let mut ex = Exporter::new(src_dad.clone(), dst_dad.clone(), rank, rule, 32);
            for step in 0..10 {
                let t = step as f64 * 0.5;
                let data = LocalArray::from_fn(&src_dad, rank, |idx| idx[0] as f64 + t * 100.0);
                ex.export(ic, t, &data).unwrap();
            }
            ex.close(ic).unwrap();
            // 2 importer ranks × 4 imports.
            ex.serve_until_answered(ic, 8).unwrap();
            if rank == 0 {
                let s = ex.stats();
                println!(
                    "  producer rank 0: {} exports, {} transfers, {} no-matches",
                    s.exports, s.transfers, s.no_matches
                );
            }
        } else {
            let ic = ctx.intercomm(0);
            let mut im = Importer::new(&dst_dad, &src_dad, rank);
            let mut dst: LocalArray<f64> = LocalArray::allocate(&dst_dad, rank);
            for &treq in &requests {
                match im.import(ic, treq, &mut dst).unwrap() {
                    ImportOutcome::Fulfilled { version } => {
                        // The received data is stamped with its version:
                        // value = point index + version · 100.
                        let (first_idx, sample) = {
                            let (idx, &v) = dst.iter().next().unwrap();
                            (idx[0] as f64, v)
                        };
                        if rank == 0 {
                            println!("  import(t={treq}) → version {version}");
                        }
                        assert!(
                            (sample - first_idx - version * 100.0).abs() < 1e-9,
                            "data does not match version {version}: sample {sample}"
                        );
                    }
                    ImportOutcome::NoMatch => {
                        if rank == 0 {
                            println!("  import(t={treq}) → no match");
                        }
                    }
                }
            }
        }
    });
}
