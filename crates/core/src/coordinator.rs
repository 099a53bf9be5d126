//! Third-party connection initiation.
//!
//! "M×N connections can be initiated by either the source or destination
//! components, **or by a third party controller**. Therefore, neither side
//! of an M×N connection need be fully aware, if at all, of the nature of
//! any such connections … no fundamental changes to the source or
//! destination component codes are strictly necessary." (paper §4.1)
//!
//! The controller (typically a serial driver program) sends each side a
//! [`ConnOrder`] over its control inter-communicator; each side then runs
//! the normal initiate/accept handshake on the *data* inter-communicator.

use mxn_runtime::{InterComm, MsgSize};

use crate::connection::{ConnectionKind, Direction, MxnConnection};
use crate::error::Result;
use crate::field::FieldRegistry;

const ORDER_TAG: i32 = (1 << 20) - 3;

/// An instruction from a third-party controller to one side of a coupling.
pub struct ConnOrder {
    /// True for the side that runs `initiate` (the other runs `accept`).
    pub initiate: bool,
    /// The field to couple on the receiving side of this order.
    pub field: String,
    /// The peer program's field name (used only by the initiator).
    pub peer_field: String,
    /// This side's transfer direction.
    pub direction: Direction,
    /// Transfer cadence.
    pub kind: ConnectionKind,
}

impl MsgSize for ConnOrder {
    fn msg_size(&self) -> usize {
        1 + self.field.len() + self.peer_field.len() + 1 + self.kind.msg_size()
    }
}

/// Controller side: orchestrates a coupling between programs A and B
/// without either being aware of the other in advance. `a_*` describes the
/// exporting side, `b_*` the importing side.
pub fn order_connection(
    ic_a: &InterComm,
    a_field: &str,
    ic_b: &InterComm,
    b_field: &str,
    kind: ConnectionKind,
) -> Result<()> {
    for r in 0..ic_a.remote_size() {
        ic_a.send(
            r,
            ORDER_TAG,
            ConnOrder {
                initiate: true,
                field: a_field.to_string(),
                peer_field: b_field.to_string(),
                direction: Direction::Export,
                kind,
            },
        )?;
    }
    for r in 0..ic_b.remote_size() {
        ic_b.send(
            r,
            ORDER_TAG,
            ConnOrder {
                initiate: false,
                field: b_field.to_string(),
                peer_field: a_field.to_string(),
                direction: Direction::Import,
                kind,
            },
        )?;
    }
    Ok(())
}

/// Component side: waits for a controller order on `ctrl_ic`, then runs
/// the corresponding handshake on `data_ic`. The component never needed to
/// know what it would be coupled to.
pub(crate) fn follow_order(
    ctrl_ic: &InterComm,
    data_ic: &InterComm,
    registry: &FieldRegistry,
    my_id: u32,
) -> Result<MxnConnection> {
    let order: ConnOrder = ctrl_ic.recv(0, ORDER_TAG)?;
    if order.initiate {
        MxnConnection::initiate(
            data_ic,
            registry,
            my_id,
            &order.field,
            &order.peer_field,
            order.direction,
            order.kind,
        )
    } else {
        MxnConnection::accept(data_ic, registry, my_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connection::TransferOutcome;
    use mxn_dad::{AccessMode, Dad, Extents, LocalArray};
    use mxn_runtime::Universe;
    use parking_lot::RwLock;
    use std::sync::Arc;

    #[test]
    fn third_party_controller_couples_two_unaware_programs() {
        // Programs: 0 = controller (1 rank), 1 = source (2), 2 = sink (2).
        Universe::run(&[1, 2, 2], |_, ctx| {
            let dad_src = Dad::block(Extents::new([4, 4]), &[2, 1]).unwrap();
            let dad_dst = Dad::block(Extents::new([4, 4]), &[1, 2]).unwrap();
            match ctx.program {
                0 => {
                    order_connection(
                        ctx.intercomm(1),
                        "temperature",
                        ctx.intercomm(2),
                        "boundary_temp",
                        ConnectionKind::OneShot,
                    )
                    .unwrap();
                }
                1 => {
                    let rank = ctx.comm.rank();
                    let mut reg = FieldRegistry::new(rank);
                    let data = Arc::new(RwLock::new(LocalArray::from_fn(&dad_src, rank, |idx| {
                        (idx[0] * 4 + idx[1]) as f64
                    })));
                    reg.register("temperature", dad_src, AccessMode::Read, data).unwrap();
                    let mut conn =
                        follow_order(ctx.intercomm(0), ctx.intercomm(2), &reg, 0).unwrap();
                    assert_eq!(conn.direction(), Direction::Export);
                    let out = conn.data_ready(ctx.intercomm(2), &reg).unwrap();
                    assert!(matches!(out, TransferOutcome::Transferred { .. }));
                }
                _ => {
                    let rank = ctx.comm.rank();
                    let mut reg = FieldRegistry::new(rank);
                    let data = reg
                        .register_allocated("boundary_temp", dad_dst, AccessMode::Write)
                        .unwrap();
                    let mut conn =
                        follow_order(ctx.intercomm(0), ctx.intercomm(1), &reg, 0).unwrap();
                    assert_eq!(conn.direction(), Direction::Import);
                    conn.data_ready(ctx.intercomm(1), &reg).unwrap();
                    for (idx, &v) in data.read().iter() {
                        assert_eq!(v, (idx[0] * 4 + idx[1]) as f64);
                    }
                }
            }
        });
    }
}
