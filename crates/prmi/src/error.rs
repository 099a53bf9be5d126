//! PRMI error types.

use std::fmt;

use mxn_framework::FrameworkError;
use mxn_runtime::RuntimeError;

/// Errors raised by parallel remote method invocation.
#[derive(Debug)]
pub enum PrmiError {
    /// A simple argument differed across caller processes (violating the
    /// CCA convention of §2.4, detected by a checked call).
    SimpleArgMismatch {
        /// The offending method id.
        method: u32,
    },
    /// Protocol-level inconsistency (sequence mismatch, unreplicable ghost
    /// return, malformed participation) or an invocation rejected before
    /// anything was sent (reserved method id, invalid policy combination).
    Protocol {
        /// What went wrong.
        detail: String,
    },
    /// A collective delivery deadlocked (detected by timeout) — the
    /// Figure 5 failure mode.
    DeliveryDeadlock {
        /// What the blocked side was waiting for.
        waiting_for: String,
    },
    /// Every provider answered with a typed NACK: the service does not
    /// implement the requested method id. Authoritative — neither retrying
    /// nor healing can help.
    MethodNotFound {
        /// The unknown method id.
        method: u32,
    },
    /// The server answered with a typed `Overloaded` NACK: admission
    /// control shed the request instead of queueing it unboundedly.
    Overloaded {
        /// The method id of the shed call.
        method: u32,
        /// The load the NACK reported (see `mxn_framework::Overloaded`).
        queue_depth: u32,
    },
    /// A policy-governed call used up its attempts: a serial call never saw
    /// a response within its deadlines (the provider may still have
    /// executed it), or a recovering collective call never won a commit
    /// vote (the connection kept failing faster than it could be healed).
    RetriesExhausted {
        /// The method being invoked.
        method: u32,
        /// Attempts made (initial call plus retries).
        attempts: u32,
    },
    /// Marshalling/unmarshalling type error.
    Framework(FrameworkError),
    /// Underlying messaging failure.
    Runtime(RuntimeError),
}

impl fmt::Display for PrmiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrmiError::SimpleArgMismatch { method } => {
                write!(f, "simple argument differs across callers of method {method}")
            }
            PrmiError::Protocol { detail } => write!(f, "PRMI protocol error: {detail}"),
            PrmiError::DeliveryDeadlock { waiting_for } => {
                write!(f, "collective delivery deadlocked waiting for {waiting_for}")
            }
            PrmiError::MethodNotFound { method } => {
                write!(f, "parallel service does not implement method {method}")
            }
            PrmiError::Overloaded { method, queue_depth } => {
                write!(f, "server shed method {method} under load (queue depth {queue_depth})")
            }
            PrmiError::RetriesExhausted { method, attempts } => {
                write!(f, "call of method {method} failed after {attempts} attempt(s)")
            }
            PrmiError::Framework(e) => write!(f, "framework error: {e}"),
            PrmiError::Runtime(e) => write!(f, "runtime error: {e}"),
        }
    }
}

impl std::error::Error for PrmiError {}

impl From<FrameworkError> for PrmiError {
    fn from(e: FrameworkError) -> Self {
        PrmiError::Framework(e)
    }
}

impl From<RuntimeError> for PrmiError {
    fn from(e: RuntimeError) -> Self {
        PrmiError::Runtime(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, PrmiError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages() {
        assert!(PrmiError::SimpleArgMismatch { method: 3 }.to_string().contains('3'));
        let d = PrmiError::DeliveryDeadlock { waiting_for: "share from rank 2".into() };
        assert!(d.to_string().contains("rank 2"));
    }
}
