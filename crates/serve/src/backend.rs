//! What a shard executor dispatches its batches *into*.
//!
//! The plane is agnostic about where method implementations live. Each
//! shard owns one [`PlaneBackend`]:
//!
//! * [`ServiceBackend`] — the method lives in-process behind a
//!   [`RemoteService`]. This is the 1M-calls/s path: a batch costs one
//!   dynamic `dispatch_batch`, not one dispatch per request.
//! * [`PrmiBackend`] — the method lives on a *parallel component* behind
//!   the PRMI collective layer: the whole batch ships as one
//!   [`mxn_prmi::CollBatch`] inside one `CollReq`, is executed by the
//!   provider's collective serve loop, and comes back position-tagged in
//!   one `CollResp` (§2.4's collective invocation, amortized). One
//!   serve-loop wakeup per *batch*, not per call.

use mxn_framework::{AnyPayload, Dispatch, MethodNotFound, RemoteService};
use mxn_prmi::{CollBatch, CollBatchResult, Endpoint, Invocation, PrmiError, ServeOpts};
use mxn_runtime::InterComm;
use std::sync::Arc;

// `InterComm` is intentionally per-rank state (it carries a `Cell` of
// send-sequence bookkeeping), so `PrmiBackend` owns its intercomm outright
// — exactly one shard executor thread drives it, matching the collective
// layer's one-caller-per-rank discipline.

// Pinned by the out-of-tree benchmark: `benchmark/src/prmi.rs` is the sole
// user of this name; a batch outcome is a `Dispatch`.
#[doc(hidden)]
pub type BatchReply = Dispatch;

/// One shard's dispatch target. `dispatch_batch` runs on the shard's
/// executor thread; it may block (the shard is the unit of concurrency),
/// but must return exactly one outcome per argument, in order.
pub trait PlaneBackend: Send {
    /// Executes a batch of same-method requests.
    fn dispatch_batch(&mut self, method: u32, args: Vec<AnyPayload>) -> Vec<Dispatch>;

    /// Called once on the executor thread when the plane shuts down.
    fn shutdown(&mut self) {}
}

/// In-process backend: requests dispatch straight into a shared
/// [`RemoteService`].
pub struct ServiceBackend {
    service: Arc<dyn RemoteService>,
}

impl ServiceBackend {
    /// Wraps `service`; clones of the `Arc` may back several shards.
    pub fn new(service: Arc<dyn RemoteService>) -> Self {
        ServiceBackend { service }
    }
}

impl PlaneBackend for ServiceBackend {
    fn dispatch_batch(&mut self, method: u32, args: Vec<AnyPayload>) -> Vec<Dispatch> {
        self.service.dispatch_batch(method, args)
    }
}

/// PRMI bridge backend: forwards each batch as one collective batch call
/// to a parallel provider.
///
/// Arguments **must** be built with [`AnyPayload::replicable`] — the
/// collective layer multicasts the request to every provider this caller
/// rank owns, and non-replicable payloads cannot fan out. On shutdown the
/// backend sends the collective shutdown so provider serve loops exit.
pub struct PrmiBackend {
    ic: InterComm,
    endpoint: Endpoint,
}

impl PrmiBackend {
    /// Bridges to the providers on the far side of `ic` (taking ownership:
    /// one shard thread drives this intercomm rank).
    pub fn new(ic: InterComm) -> Self {
        PrmiBackend { ic, endpoint: Endpoint::default() }
    }
}

impl PlaneBackend for PrmiBackend {
    fn dispatch_batch(&mut self, method: u32, args: Vec<AnyPayload>) -> Vec<Dispatch> {
        // Position index as the batch-item id: the collective layer hands
        // ids back verbatim, so order is reconstructible even if a future
        // provider reorders items.
        let items: Vec<(u64, AnyPayload)> =
            args.into_iter().enumerate().map(|(i, a)| (i as u64, a)).collect();
        let n = items.len();
        let batch = Invocation::collective(method, CollBatch { items });
        match self.endpoint.call::<_, CollBatchResult>(&self.ic, batch) {
            Ok(result) => {
                let mut out: Vec<Option<Dispatch>> = (0..n).map(|_| None).collect();
                for (id, payload) in result.items {
                    let slot = out.get_mut(id as usize).expect("provider echoed a foreign id");
                    *slot = Some(match payload.is::<MethodNotFound>() {
                        true => Dispatch::MethodNotFound,
                        false => Dispatch::Reply(payload),
                    });
                }
                out.into_iter().map(|s| s.expect("provider answered every batch item")).collect()
            }
            // A whole-batch MethodNotFound (providers that predate batch
            // support NACK the batch itself).
            Err(PrmiError::MethodNotFound { .. }) => {
                (0..n).map(|_| Dispatch::MethodNotFound).collect()
            }
            Err(e) => panic!("PRMI bridge dispatch failed: {e}"),
        }
    }

    fn shutdown(&mut self) {
        let _ = self.endpoint.shutdown(&self.ic, ServeOpts::collective());
    }
}
