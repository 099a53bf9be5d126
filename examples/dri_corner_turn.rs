//! The DRI "corner turn" (paper §5, related work).
//!
//! The canonical signal-processing reorganization the DRI standard was
//! written for: a radar datacube processed first along rows (per-pulse
//! filtering, row-block partition) must be reorganized to a column-block
//! partition for the cross-pulse stage. DRI's low-level get/put model lets
//! each process interleave the reorganization with its own compute, and
//! the stage-2 partition declares a column-major local layout: DRI hands
//! that stage its columns contiguous, the order a cross-pulse pass reads.
//!
//! ```text
//! cargo run --example dri_corner_turn
//! ```

use mxn::dad::LocalArray;
use mxn::dri::{DriPartition, DriReorg, ReorgPhase};
use mxn::runtime::World;

const ROWS: usize = 64;
const COLS: usize = 64;
const P: usize = 4;

fn main() {
    println!("DRI corner turn: {ROWS}×{COLS} datacube, {P} processes");
    println!("stage 1 (row blocks) → reorganize → stage 2 (column blocks)\n");

    World::run(P, |proc| {
        let comm = proc.world();
        let rank = comm.rank();
        use mxn::dri::{DriDist, LocalLayout};
        let rows_part = DriPartition::new(
            &[ROWS, COLS],
            &[DriDist::Block(P), DriDist::Whole],
            LocalLayout::RowMajor,
        )
        .unwrap();
        let cols_part = DriPartition::new(
            &[ROWS, COLS],
            &[DriDist::Whole, DriDist::Block(P)],
            LocalLayout::ColMajor,
        )
        .unwrap();

        // Stage 1: per-row "matched filter" (toy: value = row ⊕ col).
        let stage1 =
            LocalArray::from_fn(rows_part.dad(), rank, |idx| (idx[0] * COLS + idx[1]) as f64);

        // Corner turn, interleaved with "compute" between chunks.
        let mut reorg = DriReorg::new(rows_part, cols_part.clone(), rank, 1).unwrap();
        let mut recv: LocalArray<f64> = LocalArray::allocate(cols_part.dad(), rank);
        let mut chunks = 0;
        while !reorg.is_complete() {
            if let ReorgPhase::InProgress { .. } = reorg.put_phase() {
                reorg.put(comm, &stage1).unwrap();
                chunks += 1;
            }
            // … per-chunk compute would overlap here …
            if let ReorgPhase::InProgress { .. } = reorg.get_phase() {
                reorg.get(comm, &mut recv).unwrap();
            }
        }

        // Every element landed in the rank's (canonical) local storage.
        for (idx, &v) in recv.iter() {
            assert_eq!(v, (idx[0] * COLS + idx[1]) as f64, "at {idx:?}");
        }

        // Stage 2 reads its patch through the declared column-major
        // layout: each column of the patch is one contiguous run.
        let patch = &cols_part.dad().patches(rank)[0];
        let cols = cols_part.pack(&recv, patch);
        let first_col = patch.lo()[1];
        for (k, &v) in cols.iter().enumerate() {
            let (row, col) = (k % ROWS, first_col + k / ROWS);
            assert_eq!(v, (row * COLS + col) as f64, "column-major element {k}");
        }
        // The cross-pulse pass: one sum per contiguous column.
        let sum: f64 = cols.chunks(ROWS).map(|column| column.iter().sum::<f64>()).sum();
        let total: f64 = comm.allreduce(sum, |a, b| *a += b).unwrap();
        if rank == 0 {
            let n = (ROWS * COLS) as f64;
            assert_eq!(total, n * (n - 1.0) / 2.0);
            println!("rank 0: drove {chunks} put chunks; column-major checksum verified");
            println!("\ncorner turn complete: all {} elements in column-block layout", ROWS * COLS);
        }
    });
}
