//! Invocation policy as a value: one caller terminal, one provider loop.
//!
//! The paper's PRMI flavours are points on four axes: who participates
//! (SciRun2 marks a method collective or independent, §4.2; DCA passes a
//! participation communicator, §4.3), delivery timing (DCA's barrier),
//! reply or none (one-way methods, §2.4), and failure policy. Following
//! Walker et al. ("Promoting Component Reuse by Separating Transmission
//! Policy from Implementation"), each axis is a field of one
//! [`Invocation`] value run by the one terminal [`Endpoint::call`], and
//! every provider rank runs the one [`serve`] loop configured by
//! [`ServeOpts`]. The three participation kinds remain three wire
//! protocols ([`crate::collective`], [`crate::independent`],
//! [`crate::subset`]), each with one caller body and one loop body.

use std::any::TypeId;
use std::time::Duration;

use mxn_dad::{Dad, LocalArray};
use mxn_framework::{AnyPayload, CallPolicy, MethodNotFound, Overloaded, RemoteService};
use mxn_runtime::{Comm, InterComm, MsgSize, RuntimeError};

use crate::collective::{self, Exec};
use crate::error::{PrmiError, Result};
use crate::independent;
use crate::subset::{self, DeliveryPolicy};

/// Reserved method id ending a collective or serial serve loop.
pub const METHOD_SHUTDOWN: u32 = u32::MAX;

/// Who takes part in an invocation, and so which wire protocol carries it.
pub(crate) enum Target<'a> {
    Collective,
    Independent(usize),
    Subset { participants: &'a Comm, ranks: Vec<usize>, provider: usize },
}

/// The pre-send check [`Invocation::checked`] installs.
type ArgCheck<'a, A> = Box<dyn FnOnce(&A) -> Result<()> + 'a>;

/// One remote method invocation and how it travels. Build it with one of
/// the three participation constructors, add policy, and run it with
/// [`Endpoint::call`]:
///
/// ```text
/// Invocation::{collective(method, arg), independent(provider, method, arg),
///              subset(&comm, ranks, provider, method, arg)}
///   [.oneway()] [.policy(CallPolicy)] [.delivery(DeliveryPolicy)]
///   [.checked(&local)] [.array(..)] [.array_ret(..)]
/// ```
pub struct Invocation<'a, A> {
    pub(crate) method: u32,
    pub(crate) arg: A,
    pub(crate) target: Target<'a>,
    pub(crate) oneway: bool,
    pub(crate) policy: Option<CallPolicy>,
    pub(crate) delivery: Option<DeliveryPolicy>,
    pub(crate) check: Option<ArgCheck<'a, A>>,
    /// The callers' decomposition, the provider's layout, this rank's part.
    pub(crate) array: Option<(&'a Dad, &'a Dad, &'a LocalArray<f64>)>,
    /// The provider's output layout, the callers' layout, this rank's part.
    pub(crate) ret: Option<(&'a Dad, &'a Dad, &'a mut LocalArray<f64>)>,
}

impl<'a, A> Invocation<'a, A> {
    fn new(target: Target<'a>, method: u32, arg: A) -> Self {
        Invocation {
            method,
            arg,
            target,
            oneway: false,
            policy: None,
            delivery: None,
            check: None,
            array: None,
            ret: None,
        }
    }

    /// A collective call (§4.2): every caller rank makes it with the same
    /// `arg`, every provider executes it once and every caller receives a
    /// return value, for any M×N pairing (ghost invocations and ghost
    /// returns). A [`crate::CollBatch`] argument ships a whole request
    /// batch as one call and returns a [`crate::CollBatchResult`].
    pub fn collective(method: u32, arg: A) -> Self {
        Self::new(Target::Collective, method, arg)
    }

    /// A serial (independent) call to remote rank `provider`; Damevski's
    /// one-to-one pairing is `provider = local_rank % remote_size`.
    pub fn independent(provider: usize, method: u32, arg: A) -> Self {
        Self::new(Target::Independent(provider), method, arg)
    }

    /// A subset call (DCA, §4.3): every rank of `participants` — the
    /// program-local `ranks` — makes it with the same `arg`, and the serial
    /// remote rank `provider` executes it once all shares have arrived.
    pub fn subset(
        participants: &'a Comm,
        ranks: impl Into<Vec<usize>>,
        provider: usize,
        method: u32,
        arg: A,
    ) -> Self {
        Self::new(Target::Subset { participants, ranks: ranks.into(), provider }, method, arg)
    }

    /// One-way (§2.4): the call returns `()` once the request is sent and
    /// the provider sends no reply.
    pub fn oneway(mut self) -> Self {
        self.oneway = true;
        self
    }

    /// Failure policy. `deadline` bounds the wait for the reply — missing
    /// it is a [`PrmiError::DeliveryDeadlock`], except that a serial call
    /// retransmits under one idempotency token up to `max_retries` times.
    /// `recover` lets a collective call heal the connection and retry; its
    /// providers must serve with [`ServeOpts::recovering`].
    pub fn policy(mut self, policy: CallPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// How a subset call's delivery is synchronized; without it the
    /// participants barrier first ([`DeliveryPolicy::safe`]).
    pub fn delivery(mut self, delivery: DeliveryPolicy) -> Self {
        self.delivery = Some(delivery);
        self
    }

    /// Before anything is sent, checks the CCA convention that "a simple
    /// argument must have the same actual value in all the processes"
    /// (§2.4) across `local`; a difference fails every rank with
    /// [`PrmiError::SimpleArgMismatch`].
    pub fn checked(mut self, local: &'a Comm) -> Self
    where
        A: Clone + PartialEq + Send + Sync + MsgSize + 'static,
    {
        let method = self.method;
        self.check = Some(Box::new(move |arg: &A| {
            let all = local.allgather(arg.clone())?;
            match all.iter().all(|a| a == arg) {
                true => Ok(()),
                false => Err(PrmiError::SimpleArgMismatch { method }),
            }
        }));
        self
    }

    /// A parallel argument (§2.4) of a collective call: `local` is this
    /// rank's portion of the callers' decomposition `caller`, redistributed
    /// as part of the call into `callee`, the layout the provider declared
    /// before calls arrive (its loop is [`crate::parallel_serve`]).
    pub fn array(mut self, caller: &'a Dad, callee: &'a Dad, local: &'a LocalArray<f64>) -> Self {
        self.array = Some((caller, callee, local));
        self
    }

    /// A parallel return value of a two-way [`Invocation::array`] call: the
    /// provider's output, laid out as `callee`, is redistributed into
    /// `result`, this rank's pre-allocated portion of `caller`.
    pub fn array_ret(
        mut self,
        callee: &'a Dad,
        caller: &'a Dad,
        result: &'a mut LocalArray<f64>,
    ) -> Self {
        self.ret = Some((callee, caller, result));
        self
    }

    /// Rejects an invocation no protocol can carry, before anything is sent.
    fn validate<R: 'static>(&self) -> Result<()> {
        let collective = matches!(self.target, Target::Collective);
        let subset = matches!(self.target, Target::Subset { .. });
        let recover = self.policy.is_some_and(|p| p.recover);
        let parallel = self.array.is_some() || self.ret.is_some();
        let reserved = match subset {
            true => self.method >= subset::METHOD_SHUTDOWN,
            false => self.method == METHOD_SHUTDOWN,
        };
        let rules = [
            (reserved, "reserved or out-of-range method id"),
            (recover && !collective, "only a collective call can recover"),
            (parallel && !collective, "parallel arguments need a collective call"),
            (parallel && recover, "a parallel-argument call cannot recover"),
            (
                self.ret.is_some() && (self.oneway || self.array.is_none()),
                "a parallel return needs a two-way call with a parallel argument",
            ),
            (self.delivery.is_some() && !subset, "a delivery policy needs a subset call"),
            (self.oneway && TypeId::of::<R>() != TypeId::of::<()>(), "a one-way call returns ()"),
        ];
        match rules.iter().find(|(broken, _)| *broken) {
            Some((_, why)) => {
                Err(PrmiError::Protocol { detail: format!("method {}: {why}", self.method) })
            }
            None => Ok(()),
        }
    }
}

/// A caller rank's state for one remote port: the collective call
/// sequence (callers stay in lock-step) and recovery epoch, the healed
/// intercommunicator, and the serial call id. After a heal, later calls
/// and the shutdown transparently travel over the survivors'
/// intercommunicator.
#[derive(Default)]
pub struct Endpoint {
    pub(crate) call_seq: u64,
    pub(crate) epoch: u64,
    pub(crate) healed: Option<InterComm>,
    pub(crate) next_call: u64,
}

impl Endpoint {
    /// Runs `inv` over `ic` and returns its result (`()` for a one-way
    /// call). A reserved method id or an invalid policy combination fails
    /// with [`PrmiError::Protocol`] before anything is sent.
    pub fn call<A, R>(&mut self, ic: &InterComm, mut inv: Invocation<'_, A>) -> Result<R>
    where
        A: Send + Sync + MsgSize + Clone + 'static,
        R: 'static,
    {
        inv.validate::<R>()?;
        if let Some(check) = inv.check.take() {
            check(&inv.arg)?;
        }
        match inv.target {
            Target::Collective => collective::call(self, ic, inv),
            Target::Independent(_) => independent::call(self, ic, inv),
            Target::Subset { .. } => subset::call(ic, inv),
        }
    }

    /// Stops the serve loops `opts` names on the far side of `ic`. Every
    /// caller rank shuts down a collective or serial loop (a serial loop
    /// waits for all of them); one caller rank shuts down subset loops.
    pub fn shutdown(&mut self, ic: &InterComm, opts: ServeOpts) -> Result<()> {
        match opts.kind {
            Kind::Collective => collective::shutdown(self, ic),
            Kind::Independent => independent::shutdown(ic),
            Kind::Subset(_) => subset::shutdown(ic),
        }
    }

    /// The intercommunicator calls currently travel over: `ic` until the
    /// first heal, the latest survivor intercommunicator afterwards.
    pub(crate) fn current<'b>(&'b self, ic: &'b InterComm) -> &'b InterComm {
        self.healed.as_ref().unwrap_or(ic)
    }

    /// The recovery epoch (number of heals performed on this endpoint).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of collective calls made so far.
    pub fn calls(&self) -> u64 {
        self.call_seq
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Collective,
    Independent,
    /// With the share timeout.
    Subset(Duration),
}

/// Which protocol a provider rank serves, and its loop policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOpts {
    kind: Kind,
    recovering: bool,
}

impl ServeOpts {
    /// The collective loop: executes each call once, routes (ghost) return
    /// values, dispatches a [`crate::CollBatch`] argument through one
    /// `RemoteService::dispatch_batch`, and runs until the collective
    /// shutdown.
    pub fn collective() -> Self {
        ServeOpts { kind: Kind::Collective, recovering: false }
    }

    /// The serial RMI loop: requests from any remote rank, at-most-once
    /// execution per idempotency token, NACKs for undecodable requests;
    /// runs until every remote rank has shut down or died.
    pub fn independent() -> Self {
        ServeOpts { kind: Kind::Independent, recovering: false }
    }

    /// The serial subset loop: delivery on first arrival, then up to
    /// `share_timeout` for each remaining participant's share. A share that
    /// never comes is the Figure 5 deadlock: the loop ends with
    /// [`ServeStats::deadlock`] set.
    pub fn subset(share_timeout: Duration) -> Self {
        ServeOpts { kind: Kind::Subset(share_timeout), recovering: false }
    }

    /// Collective loop only: every two-way call ends in a commit vote, and
    /// an aborted one heals the connection and replays the cached result
    /// to the retry (exactly-once execution), so results must be built
    /// with [`AnyPayload::replicable`]. Stale-epoch requests are dropped.
    pub fn recovering(mut self) -> Self {
        self.recovering = true;
        self
    }
}

/// What one provider rank's serve loop did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Invocations executed (a batch counts its items; NACKs do not count).
    pub calls: u64,
    /// Of which one-way.
    pub oneway_calls: u64,
    /// Ghost return values sent beyond the one-per-call minimum.
    pub ghost_returns: u64,
    /// Requests naming an unimplemented method id, answered with a typed
    /// [`MethodNotFound`] NACK instead of crashing the provider.
    pub method_not_found: u64,
    /// Retransmitted serial requests suppressed by idempotency-token dedup.
    pub duplicate_requests: u64,
    /// Undecodable (corrupt or mistyped) serial requests answered with a
    /// retransmission NACK.
    pub nacks: u64,
    /// Remote ranks that died before sending their serial shutdown.
    pub dead_clients: u64,
    /// The Figure 5 verdict of a subset loop: set when a participant's
    /// share never arrived, which ended the loop.
    pub deadlock: Option<Deadlock>,
}

/// A subset call whose shares never all arrived (the Figure 5 deadlock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadlock {
    /// The participant whose share never arrived.
    pub missing_rank: usize,
    /// The method being collected.
    pub method: u32,
}

/// Runs a provider rank's serve loop for the protocol `opts` names until
/// its shutdown — the "component blocked waiting for remote port
/// invocations" state of §2.4.
pub fn serve(ic: &InterComm, service: &dyn RemoteService, opts: ServeOpts) -> Result<ServeStats> {
    match opts.kind {
        Kind::Collective => collective::serve_loop(ic, Exec::Service(service), opts.recovering),
        _ if opts.recovering => {
            Err(PrmiError::Protocol { detail: "only the collective loop can recover".into() })
        }
        Kind::Independent => independent::serve_loop(ic, service),
        Kind::Subset(share_timeout) => subset::serve_loop(ic, service, share_timeout),
    }
}

/// The `()` a one-way call returns (`validate` checked that `R` is `()`).
pub(crate) fn no_reply<R: 'static>() -> Result<R> {
    Ok(AnyPayload::new(()).downcast()?)
}

/// Decodes a reply; the typed NACK payloads become typed errors.
pub(crate) fn reply<R: 'static>(method: u32, result: AnyPayload) -> Result<R> {
    if result.is::<MethodNotFound>() {
        return Err(PrmiError::MethodNotFound { method });
    }
    if result.is::<Overloaded>() {
        let shed: Overloaded = result.downcast()?;
        return Err(PrmiError::Overloaded { method, queue_depth: shed.queue_depth });
    }
    Ok(result.downcast()?)
}

/// Waits for `provider`'s reply on `tag`. Under a policy the wait is
/// bounded by its deadline, and missing it is a delivery deadlock — the
/// Figure 5 failure mode, detected instead of hung.
pub(crate) fn await_reply<T: 'static>(
    ic: &InterComm,
    provider: usize,
    tag: i32,
    policy: Option<CallPolicy>,
    method: u32,
) -> Result<T> {
    let Some(policy) = policy else { return Ok(ic.recv(provider, tag)?) };
    ic.recv_timeout(provider, tag, policy.deadline).map_err(|e| match e {
        RuntimeError::Timeout { .. } => PrmiError::DeliveryDeadlock {
            waiting_for: format!("response to method {method} from provider {provider}"),
        },
        e => e.into(),
    })
}
