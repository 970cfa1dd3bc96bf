use std::error::Error;
use std::fmt;

use ccn_model::ModelError;

/// Errors produced by the coordination layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoordError {
    /// The underlying optimization model failed.
    Model(ModelError),
    /// A protocol precondition was violated.
    Protocol {
        /// Explanation of the violated precondition.
        reason: String,
    },
    /// The topology is partitioned: some routers cannot be reached, so
    /// no coordination round can span them. Costing such a round would
    /// silently produce bogus (infinite-latency, `u32::MAX`-hop)
    /// figures.
    Partition {
        /// Routers cut off from router 0's component, ascending.
        unreachable: Vec<usize>,
    },
}

impl fmt::Display for CoordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoordError::Model(e) => write!(f, "model error: {e}"),
            CoordError::Protocol { reason } => write!(f, "protocol error: {reason}"),
            CoordError::Partition { unreachable } => {
                write!(
                    f,
                    "partitioned topology: {} router(s) unreachable: {unreachable:?}",
                    unreachable.len()
                )
            }
        }
    }
}

impl Error for CoordError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoordError::Model(e) => Some(e),
            CoordError::Protocol { .. } | CoordError::Partition { .. } => None,
        }
    }
}

impl From<ModelError> for CoordError {
    fn from(e: ModelError) -> Self {
        CoordError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = CoordError::Protocol { reason: "no routers".into() };
        assert!(e.to_string().contains("no routers"));
        assert!(Error::source(&e).is_none());
        let e = CoordError::from(ModelError::SolverDomain {
            solver: "closed form",
            reason: "α ≠ 1",
        });
        assert!(Error::source(&e).is_some());
        let e = CoordError::Partition { unreachable: vec![3, 4] };
        assert!(e.to_string().contains("2 router(s)"));
        assert!(Error::source(&e).is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoordError>();
    }
}
