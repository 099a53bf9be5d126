//! # mxn-pubsub — XChangemxn-style publish/subscribe coupling
//!
//! The related-work system of the paper's §5: "XChangemxn is a middleware
//! infrastructure for coupling components in distributed applications.
//! XChangemxn uses the publish/subscribe paradigm to link interacting
//! components, and deal\[s\] specifically with **dynamic behaviors**, such
//! as dynamic arrivals and departures of components and the
//! **transformation of data 'in-flight'** to match end point
//! requirements."
//!
//! Architecture: a broker rank mediates named *topics*. Publisher cohorts
//! push their per-rank patches of a field; the broker retains the
//! assembled latest version. Subscribers register the sub-regions they
//! want plus an in-flight affine transformation; every committed publish
//! fans transformed region data out to the *current* subscriber set —
//! which may change at any time, with no publisher awareness. A late
//! subscriber immediately receives the retained version, so components
//! can arrive and depart freely.

#![warn(unreachable_pub)]

mod broker;
mod client;

pub use broker::{run_broker, BrokerStats};
pub use client::{shutdown_broker, Publisher, Subscriber, Transform, Update};

use mxn_runtime::MsgSize;

pub(crate) const PUB_TAG: i32 = 0x5842; // "XB"
pub(crate) const SUB_TAG: i32 = 0x5843;
pub(crate) const UPD_TAG: i32 = 0x5844;

/// Wire messages understood by the broker.
pub(crate) enum ToBroker {
    /// One publisher rank's patch of a topic's field.
    Publish {
        topic: String,
        /// Global extents of the topic's field (all chunks must agree).
        extents: Vec<usize>,
        /// Row-major region `[lo, hi)` this chunk covers.
        lo: Vec<usize>,
        hi: Vec<usize>,
        values: Vec<f64>,
        /// The last chunk of a collective publish carries `commit = true`
        /// and triggers fan-out.
        commit: bool,
    },
    /// Register interest in a region of a topic, with a transformation.
    Subscribe { topic: String, lo: Vec<usize>, hi: Vec<usize>, scale: f64, offset: f64 },
    /// Remove this rank's subscription to a topic.
    Unsubscribe { topic: String },
    /// Stop the broker (administrative).
    Shutdown,
}

impl MsgSize for ToBroker {
    fn msg_size(&self) -> usize {
        match self {
            ToBroker::Publish { topic, extents, lo, hi, values, .. } => {
                topic.len() + (extents.len() + lo.len() + hi.len()) * 8 + values.len() * 8 + 1
            }
            ToBroker::Subscribe { topic, lo, hi, .. } => {
                topic.len() + (lo.len() + hi.len()) * 8 + 16
            }
            ToBroker::Unsubscribe { topic } => topic.len(),
            ToBroker::Shutdown => 1,
        }
    }
}

/// Broker → subscriber: one transformed region update.
pub(crate) struct UpdateMsg {
    pub topic: String,
    pub version: u64,
    pub lo: Vec<usize>,
    pub hi: Vec<usize>,
    pub values: Vec<f64>,
}

impl MsgSize for UpdateMsg {
    fn msg_size(&self) -> usize {
        self.topic.len() + 8 + (self.lo.len() + self.hi.len()) * 8 + self.values.len() * 8
    }
}
