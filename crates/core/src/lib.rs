//! # mxn-core — the generalized M×N parallel data redistribution component
//!
//! The paper's primary contribution (§4.1): a CCA component specification
//! unifying the CUMULVS and PAWS coupling models under one interface.
//!
//! * **Registration** ([`FieldRegistry`]): components register parallel data
//!   fields by DAD handle, with read/write/read-write access modes.
//! * **Connections** ([`MxnConnection`]): one-shot (PAWS-style point-to-point)
//!   or persistent periodic (CUMULVS-style channels), established by a
//!   descriptor-exchanging handshake, initiated by the source, the
//!   destination, or a third-party controller ([`order_connection`]).
//! * **Transfers**: the `data_ready()` protocol — independent pairwise
//!   point-to-point messages, no synchronization barriers on either side.
//! * **Self-connections**: in-place redistribution (transpose) within one
//!   program ([`MxnComponent::self_redistribute`]).
//! * **CCA integration** ([`MxnComponent`]): the whole service registers as a
//!   provides port ([`MXN_PORT_TYPE`]) in a direct-connected framework,
//!   realizing the paired-component architecture of Figure 3.
//! * **Elasticity** ([`redistribute_elastic`], [`Autoscaler`]): live couplings grow onto
//!   spare ranks and shrink back gracefully, the field spread through a
//!   one-sided RMA window ([`MxnConnection::expand`] /
//!   [`MxnConnection::contract`] / [`MxnConnection::join`]), driven by a
//!   load-watching [`Autoscaler`] policy.

#![warn(unreachable_pub)]

mod autoscale;
mod component;
mod connection;
mod coordinator;
mod elastic;
mod error;
mod field;
mod particles;
mod steering;

pub use autoscale::{Autoscaler, AutoscalerConfig, LoadSample, ScaleDecision};
pub use component::{mxn_port, MxnComponent, MxnPort, MXN_PORT_TYPE};
pub use connection::{ConnectionKind, Direction, MxnConnection, TransferOutcome};
pub use coordinator::{order_connection, ConnOrder};
pub use elastic::redistribute_elastic;
pub use error::{MxnError, Result};
pub use field::{FieldData, FieldEntry, FieldRegistry};
pub use particles::{MigrationReport, Particle, ParticleField};
pub use steering::{receive_snapshot, request_snapshot, steer, SteeringRegistry};
