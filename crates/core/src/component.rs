//! The M×N component: the paper's §4.1 interface, packaged as a CCA port.
//!
//! [`MxnComponent`] ties together field registration, connection
//! management, self-connections (transpose-style redistributions within one
//! program), and id allocation. Wrapped in an `Arc<RwLock<…>>`, it
//! registers as a provides port of SIDL type [`MXN_PORT_TYPE`] — the
//! "paired M×N component instances co-located on both sides of a
//! connection" of Figure 3, with the inter-communicator as the out-of-band
//! channel between the pair.

use std::sync::Arc;

use parking_lot::RwLock;

use mxn_dad::{AccessMode, Dad, LocalArray};
use mxn_runtime::{Comm, InterComm};
use mxn_schedule::Redist;

use crate::connection::{ConnectionKind, Direction, MxnConnection};
use crate::coordinator::follow_order;
use crate::error::Result;
use crate::field::{FieldData, FieldRegistry};

/// The SIDL port type of the M×N service.
pub const MXN_PORT_TYPE: &str = "cca.ports.MxnService";

/// One rank's instance of the M×N component.
pub struct MxnComponent {
    registry: FieldRegistry,
    next_conn: u32,
}

impl MxnComponent {
    /// Creates the component for this rank.
    pub fn new(rank: usize) -> Self {
        MxnComponent { registry: FieldRegistry::new(rank), next_conn: 0 }
    }

    /// Registers a field with existing local storage.
    pub fn register_field(
        &mut self,
        name: &str,
        dad: Dad,
        access: AccessMode,
        data: FieldData,
    ) -> Result<()> {
        self.registry.register(name, dad, access, data)
    }

    /// Registers a freshly allocated field; returns the storage handle.
    pub fn register_allocated(
        &mut self,
        name: &str,
        dad: Dad,
        access: AccessMode,
    ) -> Result<FieldData> {
        self.registry.register_allocated(name, dad, access)
    }

    /// The field registry (read access for diagnostics).
    pub fn registry(&self) -> &FieldRegistry {
        &self.registry
    }

    fn alloc_id(&mut self) -> u32 {
        let id = self.next_conn;
        self.next_conn += 1;
        id
    }

    /// Source-initiated export connection: couple `my_field` to the remote
    /// program's `peer_field`. Collective over the local program; the peer
    /// must call [`MxnComponent::accept_connection`].
    pub fn export_field(
        &mut self,
        ic: &InterComm,
        my_field: &str,
        peer_field: &str,
        kind: ConnectionKind,
    ) -> Result<MxnConnection> {
        let id = self.alloc_id();
        MxnConnection::initiate(
            ic,
            &self.registry,
            id,
            my_field,
            peer_field,
            Direction::Export,
            kind,
        )
    }

    /// Destination-initiated import ("pull") connection.
    pub fn import_field(
        &mut self,
        ic: &InterComm,
        my_field: &str,
        peer_field: &str,
        kind: ConnectionKind,
    ) -> Result<MxnConnection> {
        let id = self.alloc_id();
        MxnConnection::initiate(
            ic,
            &self.registry,
            id,
            my_field,
            peer_field,
            Direction::Import,
            kind,
        )
    }

    /// Accepts the next connection request arriving on `ic`.
    pub fn accept_connection(&mut self, ic: &InterComm) -> Result<MxnConnection> {
        let id = self.alloc_id();
        MxnConnection::accept(ic, &self.registry, id)
    }

    /// Waits for a third-party controller's order on `ctrl_ic` and executes
    /// it on `data_ic` (the controller side is [`crate::order_connection`]).
    pub fn follow_controller(
        &mut self,
        ctrl_ic: &InterComm,
        data_ic: &InterComm,
    ) -> Result<MxnConnection> {
        let id = self.alloc_id();
        follow_order(ctrl_ic, data_ic, &self.registry, id)
    }

    /// Self-connection: redistributes a field to a new decomposition within
    /// the same program (e.g. a transpose). Collective over `comm`; the
    /// field's descriptor and storage are replaced.
    pub fn self_redistribute(&mut self, comm: &Comm, field: &str, new_dad: Dad) -> Result<()> {
        let (old_dad, access, data) = {
            let entry = self.registry.get(field)?;
            (entry.dad().clone(), entry.access(), entry.data().clone())
        };
        let new_local: LocalArray<f64> = {
            let src = data.read();
            Redist::between(&old_dad, &new_dad).within(comm, &src, (1 << 20) - 4)?
        };
        self.registry.unregister(field)?;
        self.registry.register(field, new_dad, access, Arc::new(RwLock::new(new_local)))
    }
}

/// Shared handle type under which the component registers as a CCA port.
pub type MxnPort = Arc<RwLock<MxnComponent>>;

/// Creates a port handle for this rank, ready for
/// `Services::add_provides_port(name, MXN_PORT_TYPE, handle)`.
pub fn mxn_port(rank: usize) -> MxnPort {
    Arc::new(RwLock::new(MxnComponent::new(rank)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connection::TransferOutcome;
    use mxn_dad::Extents;
    use mxn_framework::{Framework, Services};
    use mxn_runtime::{Universe, World};

    #[test]
    fn component_export_import_roundtrip() {
        Universe::run(&[2, 2], |_, ctx| {
            let rank = ctx.comm.rank();
            let src = Dad::block(Extents::new([4, 4]), &[2, 1]).unwrap();
            let dst = Dad::block(Extents::new([4, 4]), &[1, 2]).unwrap();
            let mut mxn = MxnComponent::new(rank);
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let data = mxn.register_allocated("f", src, AccessMode::ReadWrite).unwrap();
                {
                    let mut d = data.write();
                    let vals: Vec<(Vec<usize>, f64)> = d
                        .iter()
                        .map(|(idx, _)| {
                            let v = (idx[0] * 4 + idx[1]) as f64;
                            (idx, v)
                        })
                        .collect();
                    for (idx, v) in vals {
                        *d.get_mut(&idx).unwrap() = v;
                    }
                }
                let mut conn = mxn.export_field(ic, "f", "g", ConnectionKind::OneShot).unwrap();
                let out = conn.data_ready(ic, mxn.registry()).unwrap();
                assert!(matches!(out, TransferOutcome::Transferred { .. }));
            } else {
                let ic = ctx.intercomm(0);
                let data = mxn.register_allocated("g", dst, AccessMode::Write).unwrap();
                let mut conn = mxn.accept_connection(ic).unwrap();
                conn.data_ready(ic, mxn.registry()).unwrap();
                for (idx, &v) in data.read().iter() {
                    assert_eq!(v, (idx[0] * 4 + idx[1]) as f64);
                }
            }
        });
    }

    fn coded(dad: &Dad, rank: usize) -> FieldData {
        Arc::new(RwLock::new(LocalArray::from_fn(dad, rank, |idx| (idx[0] * 4 + idx[1]) as f64)))
    }

    fn assert_coded(data: &FieldData) {
        for (idx, &v) in data.read().iter() {
            assert_eq!(v, (idx[0] * 4 + idx[1]) as f64);
        }
    }

    /// Destination-initiated ("pull") connection, paper §4.1: the importer
    /// opens the connection and the unaware exporter merely accepts.
    #[test]
    fn import_field_pulls_from_an_accepting_exporter() {
        Universe::run(&[2, 2], |_, ctx| {
            let rank = ctx.comm.rank();
            let src = Dad::block(Extents::new([4, 4]), &[2, 1]).unwrap();
            let dst = Dad::block(Extents::new([4, 4]), &[1, 2]).unwrap();
            let mut mxn = MxnComponent::new(rank);
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                mxn.register_field("f", src.clone(), AccessMode::Read, coded(&src, rank)).unwrap();
                let mut conn = mxn.accept_connection(ic).unwrap();
                assert_eq!(conn.direction(), Direction::Export);
                conn.data_ready(ic, mxn.registry()).unwrap();
            } else {
                let ic = ctx.intercomm(0);
                let data = mxn.register_allocated("g", dst, AccessMode::Write).unwrap();
                let mut conn = mxn.import_field(ic, "g", "f", ConnectionKind::OneShot).unwrap();
                assert_eq!(conn.direction(), Direction::Import);
                let out = conn.data_ready(ic, mxn.registry()).unwrap();
                assert!(matches!(out, TransferOutcome::Transferred { .. }));
                assert_coded(&data);
            }
        });
    }

    /// Third-party-controlled connection, paper §4.1: neither component
    /// names its peer; both follow a controller program's order.
    #[test]
    fn follow_controller_couples_two_unaware_components() {
        // Programs: 0 = controller (1 rank), 1 = source (2), 2 = sink (2).
        Universe::run(&[1, 2, 2], |_, ctx| {
            let rank = ctx.comm.rank();
            let src = Dad::block(Extents::new([4, 4]), &[2, 1]).unwrap();
            let dst = Dad::block(Extents::new([4, 4]), &[1, 2]).unwrap();
            let mut mxn = MxnComponent::new(rank);
            match ctx.program {
                0 => crate::coordinator::order_connection(
                    ctx.intercomm(1),
                    "f",
                    ctx.intercomm(2),
                    "g",
                    ConnectionKind::OneShot,
                )
                .unwrap(),
                1 => {
                    let ic = ctx.intercomm(2);
                    mxn.register_field("f", src.clone(), AccessMode::Read, coded(&src, rank))
                        .unwrap();
                    let mut conn = mxn.follow_controller(ctx.intercomm(0), ic).unwrap();
                    assert_eq!(conn.direction(), Direction::Export);
                    conn.data_ready(ic, mxn.registry()).unwrap();
                }
                _ => {
                    let ic = ctx.intercomm(1);
                    let data = mxn.register_allocated("g", dst, AccessMode::Write).unwrap();
                    let mut conn = mxn.follow_controller(ctx.intercomm(0), ic).unwrap();
                    assert_eq!(conn.direction(), Direction::Import);
                    conn.data_ready(ic, mxn.registry()).unwrap();
                    assert_coded(&data);
                }
            }
        });
    }

    #[test]
    fn self_redistribution_transpose() {
        World::run(4, |p| {
            let comm = p.world();
            let rows = Dad::block(Extents::new([8, 8]), &[4, 1]).unwrap();
            let cols = Dad::block(Extents::new([8, 8]), &[1, 4]).unwrap();
            let mut mxn = MxnComponent::new(comm.rank());
            let data = Arc::new(RwLock::new(LocalArray::from_fn(&rows, comm.rank(), |idx| {
                (idx[0] * 8 + idx[1]) as f64
            })));
            mxn.register_field("u", rows, AccessMode::ReadWrite, data).unwrap();
            mxn.self_redistribute(comm, "u", cols.clone()).unwrap();
            let entry = mxn.registry().get("u").unwrap();
            assert_eq!(entry.dad(), &cols);
            for (idx, &v) in entry.data().read().iter() {
                assert_eq!(v, (idx[0] * 8 + idx[1]) as f64);
            }
        });
    }

    #[test]
    fn registers_as_cca_port() {
        struct MxnProviderComp {
            rank: usize,
        }
        impl mxn_framework::Component for MxnProviderComp {
            fn set_services(&mut self, s: &Services) -> mxn_framework::Result<()> {
                s.add_provides_port("mxn", MXN_PORT_TYPE, mxn_port(self.rank))
            }
        }
        let fw = Framework::new();
        fw.add_component("mxn", &mut MxnProviderComp { rank: 0 }).unwrap();

        struct UserComp {
            services: Option<Services>,
        }
        impl mxn_framework::Component for UserComp {
            fn set_services(&mut self, s: &Services) -> mxn_framework::Result<()> {
                s.register_uses_port("coupler", MXN_PORT_TYPE)?;
                self.services = Some(s.clone());
                Ok(())
            }
        }
        let mut user = UserComp { services: None };
        fw.add_component("app", &mut user).unwrap();
        fw.connect("app", "coupler", "mxn", "mxn").unwrap();

        let port: MxnPort = user.services.unwrap().get_port("coupler").unwrap();
        let dad = Dad::block(Extents::new([4]), &[1]).unwrap();
        port.write().register_allocated("x", dad, AccessMode::ReadWrite).unwrap();
        assert!(port.read().registry().get("x").is_ok());
    }
}
