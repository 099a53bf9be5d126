//! Fluid–structure coupling through paired M×N components (Figure 3).
//!
//! A "fluid" solver on 4 processes and a "structure" solver on 6 exchange
//! interface fields every step: the fluid exports the pressure field on a
//! persistent channel, the structure exports displacements back. Each side
//! only calls `data_ready()` when its own data is consistent; no global
//! synchronization couples the two time loops.
//!
//! ```text
//! cargo run --example fluid_structure
//! ```
//!
//! It exits non-zero unless every transfer verified and the persistent
//! channels moved data on exactly one `data_ready` call in `COUPLE_EVERY`.

use std::sync::Arc;

use mxn::core::{ConnectionKind, MxnComponent, TransferOutcome};
use mxn::dad::{AccessMode, Dad, Extents, LocalArray};
use mxn::runtime::Universe;

const NX: usize = 16;
const NY: usize = 12;
const STEPS: u64 = 12;
const COUPLE_EVERY: u32 = 3;

fn main() {
    let extents = Extents::new([NX, NY]);
    // The two codes decompose the shared interface differently.
    let fluid_dad = Dad::block(extents.clone(), &[4, 1]).unwrap(); // 4 row blocks
    let struct_dad = Dad::block(extents.clone(), &[2, 3]).unwrap(); // 2×3 grid

    println!("fluid (M=4, row blocks) ⇄ structure (N=6, 2×3 blocks)");
    println!("field {NX}×{NY}, {STEPS} steps, coupling every {COUPLE_EVERY} steps\n");

    Universe::run(&[4, 6], |_, ctx| {
        let rank = ctx.comm.rank();
        let mut mxn = MxnComponent::new(rank);
        if ctx.program == 0 {
            fluid(ctx.intercomm(1), rank, &fluid_dad, &mut mxn);
        } else {
            structure(ctx.intercomm(0), rank, &struct_dad, &mut mxn);
        }
    });

    println!("\ncoupled run finished: both solvers verified the exchanged fields each transfer");
}

fn fluid(ic: &mxn::runtime::InterComm, rank: usize, dad: &Dad, mxn: &mut MxnComponent) {
    // Register the exported pressure and the imported displacement.
    let pressure = Arc::new(parking_lot::RwLock::new(LocalArray::from_fn(dad, rank, |_| 0.0)));
    mxn.register_field("pressure", dad.clone(), AccessMode::Read, pressure.clone()).unwrap();
    let displacement =
        mxn.register_allocated("displacement", dad.clone(), AccessMode::Write).unwrap();

    let mut out = mxn
        .export_field(
            ic,
            "pressure",
            "pressure",
            ConnectionKind::Persistent { period: COUPLE_EVERY },
        )
        .unwrap();
    let mut inc = mxn.accept_connection(ic).unwrap();

    for step in 0..STEPS {
        // "Solve" the fluid: pressure = step at every interface point.
        {
            let mut p = pressure.write();
            for i in 0..p.num_patches() {
                let (_, buf) = p.patch_mut(i);
                buf.fill(step as f64);
            }
        }
        out.data_ready(ic, mxn.registry()).unwrap();
        if let TransferOutcome::Transferred { elements } =
            inc.data_ready(ic, mxn.registry()).unwrap()
        {
            // The structure answered with displacements = -(its last pressure).
            let d = displacement.read();
            let sample = *d.iter().next().unwrap().1;
            if rank == 0 {
                println!("fluid step {step:2}: received {elements} displacement values (sample {sample})");
            }
            assert_eq!(sample, -(step as f64));
        }
    }
    // Figure 3's persistent channel: the handshake was paid once, and only
    // every COUPLE_EVERY-th data_ready moves data; the rest bump a counter.
    let (calls, transfers) = out.stats();
    if rank == 0 {
        println!("fluid: {calls} data_ready calls, {transfers} transfers out");
    }
    assert_eq!((calls, transfers), (STEPS, STEPS / COUPLE_EVERY as u64));
}

fn structure(ic: &mxn::runtime::InterComm, rank: usize, dad: &Dad, mxn: &mut MxnComponent) {
    let pressure = mxn.register_allocated("pressure", dad.clone(), AccessMode::Write).unwrap();
    let displacement = Arc::new(parking_lot::RwLock::new(LocalArray::from_fn(dad, rank, |_| 0.0)));
    mxn.register_field("displacement", dad.clone(), AccessMode::Read, displacement.clone())
        .unwrap();

    let mut inc = mxn.accept_connection(ic).unwrap();
    let mut out = mxn
        .export_field(
            ic,
            "displacement",
            "displacement",
            ConnectionKind::Persistent { period: COUPLE_EVERY },
        )
        .unwrap();

    for _step in 0..STEPS {
        if let TransferOutcome::Transferred { .. } = inc.data_ready(ic, mxn.registry()).unwrap() {
            // "Solve" the structure: displacement responds to the pressure.
            let p_val = *pressure.read().iter().next().unwrap().1;
            let mut d = displacement.write();
            for i in 0..d.num_patches() {
                let (_, buf) = d.patch_mut(i);
                buf.fill(-p_val);
            }
        }
        out.data_ready(ic, mxn.registry()).unwrap();
    }
}
