//! Coordination protocol for provisioned in-network caching.
//!
//! The paper models the coordination cost as `W(x) = w·n·x + ŵ`
//! (Eq. 3): a communication term linear in the number of coordinated
//! contents per router and a fixed computation/enforcement term. This
//! crate *realizes* that cost model as an executable protocol:
//!
//! 1. **Collect** — the (conceptually centralized) coordinator gathers
//!    one statistics report from each of the `n` routers;
//! 2. **Solve** — it fits the popularity exponent, solves the
//!    `ccn-model` optimum `ℓ*`, and partitions the coordinated rank
//!    range into per-router slices;
//! 3. **Disseminate** — it pushes each router its assignment: one
//!    directive plus one placement entry per coordinated content
//!    (the `w·n·x` term), then collects acknowledgements.
//!
//! [`CostAccounting`] tallies actual messages/bytes so tests can
//! verify the realized cost matches Eq. 3, and the convergence time is
//! bounded by the maximum router RTT — the paper's rationale for
//! estimating `w = max_{i,j} d_ij`.
//!
//! [`reliability`] prices the round under message loss
//! (retransmission inflation of both traffic and convergence time);
//! [`rounds`] hardens the round into a retrying state machine with
//! bounded backoff, abort-to-last-known-good semantics, and
//! coordinator failover on the surviving subgraph;
//! and [`distributed`] costs the round under concrete realizations
//! (centralized unicast, spanning-tree aggregation, flooding) in
//! link crossings over a real topology. [`LayoutDelta`] measures what
//! a re-provisioning moves; the closed loop that decides when to
//! re-provision (the paper's "online self-adaptive algorithms" future
//! work) is `ccn_engine::control::Controller`.
//!
//! # Example
//!
//! ```
//! use ccn_coord::{Coordinator, CoordinatorConfig};
//! use ccn_model::ModelParams;
//!
//! # fn main() -> Result<(), ccn_coord::CoordError> {
//! let params = ModelParams::builder().alpha(0.9).build()?;
//! let coordinator = Coordinator::new(CoordinatorConfig::default());
//! let round = coordinator.provision(params)?;
//! assert_eq!(round.assignments.len(), 20);          // one per router
//! assert!(round.cost.messages >= 2 * 20);            // collect + disseminate
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod distributed;
pub mod reliability;
pub mod rounds;

mod assignment;
mod coordinator;
mod cost;
mod delta;
mod error;
mod message;

pub use assignment::{centrality_ordered_slices, contiguous_slices, slice_order, RouterAssignment};
pub use coordinator::{Coordinator, CoordinatorConfig, ProvisioningRound};
pub use cost::CostAccounting;
pub use delta::{LayoutDelta, RouterMove};
pub use error::CoordError;
pub use message::Message;
pub use rounds::{
    failover_coordinator, Phase, ResilientCoordinator, RetryPolicy, RoundAttempt, RoundOutcome,
    RoundReport,
};
