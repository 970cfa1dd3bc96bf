//! Engine error type.

use std::error::Error;
use std::fmt;

use ccn_sim::SimError;

/// Errors produced when configuring or running the serving engine.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EngineError {
    /// An engine parameter was out of range or inconsistent.
    InvalidConfig {
        /// Explanation of the rejected configuration.
        reason: String,
    },
    /// The generated workload was invalid (bad Zipf exponent, rate…).
    Workload(SimError),
    /// The accounting invariant `completed + shed == offered` was
    /// violated on one node — requests were lost inside the engine.
    Accounting {
        /// The node whose ledger does not balance.
        node: usize,
        /// Requests issued by the node's clients.
        offered: u64,
        /// Requests completed by some tier.
        completed: u64,
        /// Requests rejected at admission.
        shed: u64,
    },
    /// The OS refused to spawn a shard worker thread — the cluster
    /// cannot be brought up (surfaced at construction, never mid-run).
    Spawn {
        /// The underlying spawn failure.
        reason: String,
    },
    /// A fault plan or `--faults` spec was malformed or referenced
    /// nodes/shards outside the cluster.
    FaultSpec {
        /// Explanation of the rejected plan.
        reason: String,
    },
    /// A wire-tier socket operation failed: connect, frame I/O, or a
    /// torn-down peer mid-conversation. Carries the operation that
    /// failed so a degradation decision (retry, re-route, shed) can be
    /// made without string matching.
    Net {
        /// The operation that failed (`"connect"`, `"read-frame"`, …).
        op: String,
        /// The underlying I/O or protocol detail.
        detail: String,
        /// `true` when the failure was a socket timeout
        /// (`io::ErrorKind::WouldBlock` / `TimedOut`). Classified from
        /// the error *kind*, never from platform-dependent error text
        /// ("Resource temporarily unavailable" on Linux), so idle and
        /// deadline decisions stay portable.
        timeout: bool,
    },
    /// A wire frame violated the protocol: unknown kind, truncated
    /// payload, oversized length prefix, or a reply that does not
    /// answer the request that was sent.
    Protocol {
        /// Explanation of the malformed or unexpected frame.
        reason: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::InvalidConfig { reason } => {
                write!(f, "invalid engine configuration: {reason}")
            }
            EngineError::Workload(e) => write!(f, "workload error: {e}"),
            EngineError::Accounting { node, offered, completed, shed } => write!(
                f,
                "request accounting violated on node {node}: \
                 offered {offered} != completed {completed} + shed {shed}"
            ),
            EngineError::Spawn { reason } => write!(f, "failed to spawn shard worker: {reason}"),
            EngineError::FaultSpec { reason } => write!(f, "invalid fault plan: {reason}"),
            EngineError::Net { op, detail, .. } => write!(f, "wire {op} failed: {detail}"),
            EngineError::Protocol { reason } => write!(f, "wire protocol violation: {reason}"),
        }
    }
}

impl Error for EngineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EngineError::Workload(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for EngineError {
    fn from(e: SimError) -> Self {
        EngineError::Workload(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_every_variant() {
        let e = EngineError::InvalidConfig { reason: "nodes must be >= 1".into() };
        assert!(e.to_string().contains("nodes must be >= 1"));
        let e: EngineError = SimError::InvalidConfig { reason: "bad rate".into() }.into();
        assert!(e.to_string().contains("bad rate"));
        let e = EngineError::Accounting { node: 2, offered: 10, completed: 8, shed: 1 };
        assert!(e.to_string().contains("on node 2: offered 10"));
        let e = EngineError::Spawn { reason: "resource exhausted".into() };
        assert!(e.to_string().contains("resource exhausted"));
        let e = EngineError::FaultSpec { reason: "node 9 out of range".into() };
        assert!(e.to_string().contains("node 9 out of range"));
        let e = EngineError::Net { op: "connect".into(), detail: "refused".into(), timeout: false };
        assert!(e.to_string().contains("wire connect failed: refused"));
        let e = EngineError::Protocol { reason: "unknown frame kind 0x7f".into() };
        assert!(e.to_string().contains("unknown frame kind"));
    }
}
