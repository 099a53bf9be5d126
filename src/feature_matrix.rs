//! The Figure 4 feature matrix, rebuilt by runtime probes.
//!
//! The paper's Figure 4 tabulates the M×N projects and their features.
//! Rather than hard-coding the table, each row here is produced by
//! *executing* a small probe of the corresponding implementation in this
//! workspace, so the matrix is a living artifact: a row only reports a
//! capability its code actually demonstrated.

use std::sync::Arc;

use crate::core::{ConnectionKind, Direction, MxnConnection, TransferOutcome};
use crate::dad::{AccessMode, Dad, Extents, LocalArray};
use crate::dca::{alltoallv_within, AlltoallvSpec};
use crate::intercomm::{ImportOutcome, Importer, MatchRule};
use crate::mct::{AttrVect, GlobalSegMap, ModelRegistry, Router};
use crate::prmi::{serve, Endpoint, Invocation, ServeOpts};
use crate::runtime::{Universe, World};

/// How a project describes parallel data (the "Parallel Data" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelDataKind {
    /// MPI-style count/displacement arrays (DCA).
    MpiArrays,
    /// Dense array descriptors (InterComm).
    DenseArrays,
    /// Dense/sparse arrays and grids (MCT).
    ArraysAndGrids,
    /// SIDL-described distributed arrays (MxN component, SciRun2).
    Sidl,
}

impl ParallelDataKind {
    /// The label used in the paper's table.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            ParallelDataKind::MpiArrays => "MPI-based arrays",
            ParallelDataKind::DenseArrays => "Dense arrays",
            ParallelDataKind::ArraysAndGrids => "Dense/sparse arrays, grids",
            ParallelDataKind::Sidl => "SIDL",
        }
    }
}

/// One row of the feature matrix.
#[derive(Debug, Clone)]
pub struct ProjectFeatures {
    /// Project name as in Figure 4.
    pub project: &'static str,
    /// Parallel data representation.
    pub parallel_data: ParallelDataKind,
    /// Does it define PRMI semantics? (Figure 4's "PRMI" column.)
    pub prmi: bool,
    /// Did the runtime probe of this row's capabilities succeed?
    pub verified: bool,
}

/// Probes DCA: communicator-based alltoallv redistribution must work.
fn probe_dca() -> bool {
    let ok = World::run(2, |p| {
        let comm = p.world();
        let data = vec![comm.rank() as f64, 10.0 + comm.rank() as f64];
        let spec = AlltoallvSpec::contiguous(&[1, 1]);
        let got = alltoallv_within(comm, &data, &spec).unwrap();
        got[0] == vec![0.0 + if comm.rank() == 0 { 0.0 } else { 10.0 }] && got.len() == 2
    });
    ok.into_iter().all(|b| b)
}

/// Probes DCA's PRMI: a collective call with ghost returns must complete.
fn probe_prmi_collective() -> bool {
    use crate::framework::{AnyPayload, Dispatch, RemoteService};
    struct Echo;
    impl RemoteService for Echo {
        fn dispatch(&self, _m: u32, arg: AnyPayload) -> Dispatch {
            AnyPayload::replicable(arg.downcast::<f64>().unwrap() * 2.0).into()
        }
    }
    let results = Universe::run(&[3, 2], |_, ctx| {
        if ctx.program == 0 {
            let ic = ctx.intercomm(1);
            let mut ep = Endpoint::default();
            let r: f64 = ep.call(ic, Invocation::collective(0, 21.0f64)).unwrap();
            ep.shutdown(ic, ServeOpts::collective()).unwrap();
            r == 42.0
        } else {
            serve(ctx.intercomm(0), &Echo, ServeOpts::collective()).is_ok()
        }
    });
    results.into_iter().all(|b| b)
}

/// Probes InterComm: a lower-bound timestamp import must fetch the right
/// version.
fn probe_intercomm() -> bool {
    let results = Universe::run(&[1, 1], |_, ctx| {
        let dad = Dad::block(Extents::new([4]), &[1]).unwrap();
        let rule = MatchRule::LowerBound;
        if ctx.program == 0 {
            let ic = ctx.intercomm(1);
            let mut ex = crate::intercomm::Exporter::new(dad.clone(), dad.clone(), 0, rule, 8);
            for t in 0..4 {
                let data = LocalArray::from_fn(&dad, 0, |_| t as f64);
                ex.export(ic, t as f64, &data).unwrap();
            }
            ex.close(ic).unwrap();
            ex.serve_until_answered(ic, 1).unwrap();
            true
        } else {
            let ic = ctx.intercomm(0);
            let mut im = Importer::new(&dad, &dad, 0);
            let mut dst: LocalArray<f64> = LocalArray::allocate(&dad, 0);
            im.import(ic, 2.5, &mut dst).unwrap() == ImportOutcome::Fulfilled { version: 2.0 }
                && *dst.get(&[0]).unwrap() == 2.0
        }
    });
    results.into_iter().all(|b| b)
}

/// Probes MCT: registry + router transfer of a multi-field vector.
fn probe_mct() -> bool {
    let results = World::run(2, |p| {
        let world = p.world();
        let comp = p.rank() as u32 + 1;
        let reg = ModelRegistry::init(world, comp).unwrap();
        let m1 = GlobalSegMap::block(6, 1);
        let m2 = GlobalSegMap::block(6, 1);
        if comp == 1 {
            let router = Router::new(&m1, 0, &m2, &reg, 2).unwrap();
            let mut av = AttrVect::new(&["t"], &[], 6);
            av.real_mut("t").copy_from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
            router.send(world, &av, 0).unwrap();
            true
        } else {
            let router = Router::new(&m2, 0, &m1, &reg, 1).unwrap();
            let mut av = AttrVect::new(&["t"], &[], 6);
            router.recv(world, &mut av, 0).unwrap();
            av.real("t") == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        }
    });
    results.into_iter().all(|b| b)
}

/// Probes the M×N component: a one-shot registered-field transfer.
fn probe_mxn_component() -> bool {
    let results = Universe::run(&[2, 2], |_, ctx| {
        let rank = ctx.comm.rank();
        let src = Dad::block(Extents::new([4, 4]), &[2, 1]).unwrap();
        let dst = Dad::block(Extents::new([4, 4]), &[1, 2]).unwrap();
        let mut reg = crate::core::FieldRegistry::new(rank);
        if ctx.program == 0 {
            let ic = ctx.intercomm(1);
            let data = Arc::new(parking_lot::RwLock::new(LocalArray::from_fn(&src, rank, |idx| {
                (idx[0] + idx[1]) as f64
            })));
            reg.register("f", src, AccessMode::Read, data).unwrap();
            let mut conn = MxnConnection::initiate(
                ic,
                &reg,
                0,
                "f",
                "f",
                Direction::Export,
                ConnectionKind::OneShot,
            )
            .unwrap();
            matches!(conn.data_ready(ic, &reg).unwrap(), TransferOutcome::Transferred { .. })
        } else {
            let ic = ctx.intercomm(0);
            let data = reg.register_allocated("f", dst, AccessMode::Write).unwrap();
            let mut conn = MxnConnection::accept(ic, &reg, 0).unwrap();
            conn.data_ready(ic, &reg).unwrap();
            let ok = data.read().iter().all(|(idx, &v)| v == (idx[0] + idx[1]) as f64);
            ok
        }
    });
    results.into_iter().all(|b| b)
}

/// Probes SciRun2-style PRMI: parallel arguments redistributed during a
/// collective call.
fn probe_scirun_prmi() -> bool {
    use crate::framework::AnyPayload;
    use crate::prmi::{parallel_serve, ParallelPortSpec, ParallelService};
    struct SumSvc {
        dad: Dad,
    }
    impl ParallelService for SumSvc {
        fn spec(&self, _m: u32) -> Option<ParallelPortSpec> {
            Some(ParallelPortSpec { input: self.dad.clone(), output: None })
        }
        fn execute(
            &self,
            _m: u32,
            _arg: AnyPayload,
            input: LocalArray<f64>,
        ) -> (AnyPayload, Option<LocalArray<f64>>) {
            let s: f64 = input.iter().map(|(_, &v)| v).sum();
            (AnyPayload::replicable(s), None)
        }
    }
    let results = Universe::run(&[2, 1], |_, ctx| {
        let e = Extents::new([4]);
        let caller = Dad::block(e.clone(), &[2]).unwrap();
        let callee = Dad::block(e, &[1]).unwrap();
        if ctx.program == 0 {
            let ic = ctx.intercomm(1);
            let mut ep = Endpoint::default();
            let local = LocalArray::from_fn(&caller, ctx.comm.rank(), |idx| idx[0] as f64 + 1.0);
            let inv = Invocation::collective(0, 0.0f64).array(&caller, &callee, &local);
            let s: f64 = ep.call(ic, inv).unwrap();
            ep.shutdown(ic, ServeOpts::collective()).unwrap();
            s == 10.0
        } else {
            let svc = SumSvc { dad: callee.clone() };
            parallel_serve(ctx.intercomm(0), &caller, None, &svc).is_ok()
        }
    });
    results.into_iter().all(|b| b)
}

/// Builds the verified feature matrix (runs all probes; a few seconds).
pub fn build() -> Vec<ProjectFeatures> {
    vec![
        ProjectFeatures {
            project: "Dist. CCA Arch. (DCA)",
            parallel_data: ParallelDataKind::MpiArrays,
            prmi: true,
            verified: probe_dca() && probe_prmi_collective(),
        },
        ProjectFeatures {
            project: "InterComm",
            parallel_data: ParallelDataKind::DenseArrays,
            prmi: false,
            verified: probe_intercomm(),
        },
        ProjectFeatures {
            project: "Model Coupling Toolkit (MCT)",
            parallel_data: ParallelDataKind::ArraysAndGrids,
            prmi: false,
            verified: probe_mct(),
        },
        ProjectFeatures {
            project: "MxN Component",
            parallel_data: ParallelDataKind::Sidl,
            prmi: false,
            verified: probe_mxn_component(),
        },
        ProjectFeatures {
            project: "SciRun2",
            parallel_data: ParallelDataKind::Sidl,
            prmi: true,
            verified: probe_scirun_prmi(),
        },
    ]
}

/// Renders the matrix as the paper's Figure 4 layout (plus the
/// "verified" column showing the probe results).
pub fn render(rows: &[ProjectFeatures]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<30} {:<28} {:<6} {:<8}\n",
        "Project", "Parallel Data", "PRMI", "Verified"
    ));
    out.push_str(&format!("{}\n", "-".repeat(74)));
    for r in rows {
        out.push_str(&format!(
            "{:<30} {:<28} {:<6} {:<8}\n",
            r.project,
            r.parallel_data.label(),
            if r.prmi { "Yes" } else { "No" },
            if r.verified { "ok" } else { "FAILED" },
        ));
    }
    out
}
