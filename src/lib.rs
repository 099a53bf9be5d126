//! # mxn — parallel data redistribution and PRMI for component architectures
//!
//! A complete reproduction of *"Data Redistribution and Remote Method
//! Invocation in Parallel Component Architectures"* (Bertrand, Bramley,
//! Bernholdt, Kohl, Sussman, Larson, Damevski — IPPS 2005): the CCA M×N
//! problem, its middleware solutions, and every system they depend on.
//!
//! This crate is the facade: it re-exports the workspace's crates under
//! stable module names and hosts the runnable examples and the
//! cross-crate integration tests.
//!
//! | Module | Crate | What it is |
//! |---|---|---|
//! | [`runtime`] | `mxn-runtime` | MPI-like message-passing substrate (ranks as threads, communicators, collectives, intercommunicators, multi-program universes) |
//! | [`dad`] | `mxn-dad` | The Distributed Array Descriptor (block/cyclic/block-cyclic/gen-block/implicit/explicit), local patch storage, DA-package converters |
//! | [`linearize`] | `mxn-linearize` | Meta-Chaos-style linearization: segment lists, array/tree/graph orders, the schedule-free receiver-request protocol |
//! | [`schedule`] | `mxn-schedule` | Reusable communication schedules (region fast path + generic linearization sweep), schedule caching, the one-call `Redist` operation |
//! | [`framework`] | `mxn-framework` | CCA component framework: uses/provides ports, direct-connected and distributed (RMI) flavors, Go ports |
//! | [`core`] | `mxn-core` | **The paper's contribution**: the generalized M×N component — field registration, one-shot/persistent connections, `data_ready()`, third-party coordination |
//! | [`prmi`] | `mxn-prmi` | Parallel RMI: independent & collective calls, ghost invocations/returns, parallel arguments, one-way methods, Figure-5 synchronization |
//! | [`dca`] | `mxn-dca` | The Distributed CCA Architecture: communicator-carrying stubs, barrier-delayed delivery, alltoallv-style user redistribution |
//! | [`intercomm`] | `mxn-intercomm` | InterComm: partitioned descriptors, import/export with timestamp matching rules |
//! | [`mct`] | `mxn-mct` | The Model Coupling Toolkit: registry, attribute vectors, segment maps, routers, sparse-matrix interpolation, integrals, accumulators, merges |
//!
//! ## Quickstart
//!
//! Redistribute a block-row array on 2 ranks into a block-column array on
//! 3 ranks (the "M×N problem" in 20 lines):
//!
//! ```
//! use mxn::dad::{Dad, Extents, LocalArray};
//! use mxn::runtime::Universe;
//! use mxn::schedule::Redist;
//!
//! Universe::run(&[2, 3], |_, ctx| {
//!     let e = Extents::new([6, 6]);
//!     let src = Dad::block(e.clone(), &[2, 1]).unwrap(); // 2 row blocks
//!     let dst = Dad::block(e, &[1, 3]).unwrap(); // 3 col blocks
//!     if ctx.program == 0 {
//!         let mine = LocalArray::from_fn(&src, ctx.comm.rank(), |i| (i[0] * 6 + i[1]) as f64);
//!         Redist::between(&src, &dst).send(ctx.intercomm(1), &mine, 0).unwrap();
//!     } else {
//!         let mine: LocalArray<f64> =
//!             Redist::between(&src, &dst).recv(ctx.intercomm(0), 0).unwrap();
//!         for (idx, &v) in mine.iter() {
//!             assert_eq!(v, (idx[0] * 6 + idx[1]) as f64);
//!         }
//!     }
//! });
//! ```

#![warn(unreachable_pub)]

pub mod feature_matrix;

/// The MPI-like message-passing runtime (`mxn-runtime`).
pub mod runtime {
    pub use mxn_runtime::*;
}

/// The Distributed Array Descriptor (`mxn-dad`).
pub mod dad {
    pub use mxn_dad::*;
}

/// Linearization and the receiver-request protocol (`mxn-linearize`).
pub mod linearize {
    pub use mxn_linearize::*;
}

/// Communication schedules (`mxn-schedule`).
pub mod schedule {
    pub use mxn_schedule::*;
}

/// The CCA component framework (`mxn-framework`).
pub mod framework {
    pub use mxn_framework::*;
}

/// The generalized M×N component (`mxn-core`).
pub mod core {
    pub use mxn_core::*;
}

/// Parallel remote method invocation (`mxn-prmi`).
pub mod prmi {
    pub use mxn_prmi::*;
}

/// The Distributed CCA Architecture (`mxn-dca`).
pub mod dca {
    pub use mxn_dca::*;
}

/// InterComm coupling (`mxn-intercomm`).
pub mod intercomm {
    pub use mxn_intercomm::*;
}

/// The Model Coupling Toolkit (`mxn-mct`).
pub mod mct {
    pub use mxn_mct::*;
}

/// Transformation pipelines and super-components (`mxn-pipeline`).
pub mod pipeline {
    pub use mxn_pipeline::*;
}

/// Structured event tracing (`mxn-trace`).
pub mod trace {
    pub use mxn_trace::*;
}

/// The Data Reorganization Interface standard (`mxn-dri`).
pub mod dri {
    pub use mxn_dri::*;
}

/// XChangemxn-style publish/subscribe coupling (`mxn-pubsub`).
pub mod pubsub {
    pub use mxn_pubsub::*;
}

/// The Unix-domain-socket transport: M×N across real OS processes
/// (`mxn-wire`).
pub mod wire {
    pub use mxn_wire::*;
}
