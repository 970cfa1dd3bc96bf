//! Distributed realizations of the conceptually centralized
//! coordinator.
//!
//! §III-A notes the coordinator "is conceptually centralized; in
//! practice, it can be implemented in a fully distributed manner".
//! This module makes that concrete by costing one provisioning round
//! (collect statistics → disseminate directives and `x` placement
//! entries per router → acknowledge) under three realizations over a
//! real topology:
//!
//! - [`Dissemination::Centralized`]: unicast between a coordinator
//!   router and every other router along shortest paths;
//! - [`Dissemination::SpanningTree`]: reports and acks are
//!   *aggregated* along a BFS tree (one message per tree edge per
//!   phase), per-router payloads still travel their tree path;
//! - [`Dissemination::Flooding`]: every payload is flooded once over
//!   every link — maximal redundancy, no coordinator, convergence
//!   bounded by the network eccentricity.
//!
//! Costs are measured in *link crossings* (each hop of each message),
//! which is what actually loads the network, unlike the abstract
//! end-to-end count of [`crate::Coordinator`].

use ccn_topology::shortest_path::{all_pairs, AllPairs};
use ccn_topology::{Graph, NodeId};

use crate::CoordError;

/// How the coordination round is realized on the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dissemination {
    /// A single coordinator router unicasts to/from everyone.
    Centralized {
        /// The coordinator's node id.
        coordinator: NodeId,
    },
    /// Aggregation and dissemination along a BFS spanning tree.
    SpanningTree {
        /// The tree root's node id.
        root: NodeId,
    },
    /// Flood every payload over every link.
    Flooding,
}

/// Link-level cost of one provisioning round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DisseminationCost {
    /// Total link crossings over the whole round.
    pub link_crossings: u64,
    /// Link crossings carrying placement entries only (the `w·n·x`
    /// term's physical realization).
    pub entry_crossings: u64,
    /// Wall-clock convergence bound in ms (latency of the slowest
    /// path, summed over the round's three phases).
    pub convergence_ms: f64,
}

/// Rejects partitioned topologies: every cost formula below assumes
/// all-pairs reachability, and an unreachable pair would otherwise
/// poison the figures with `u32::MAX` hops / infinite latency (or,
/// worse, silently undercount a flood that can never reach everyone).
fn check_connected(graph: &Graph, routes: &AllPairs) -> Result<(), CoordError> {
    let unreachable: Vec<NodeId> =
        (1..graph.node_count()).filter(|&v| routes.hops(0, v) == u32::MAX).collect();
    if unreachable.is_empty() {
        Ok(())
    } else {
        Err(CoordError::Partition { unreachable })
    }
}

fn check_node(graph: &Graph, node: NodeId) -> Result<(), CoordError> {
    if node >= graph.node_count() {
        return Err(CoordError::Protocol {
            reason: format!("node {node} outside topology of {} routers", graph.node_count()),
        });
    }
    Ok(())
}

/// Costs one provisioning round that pushes `entries_per_router`
/// placement entries to each router (plus one report, one directive
/// and one ack per router) under the chosen realization.
///
/// # Errors
///
/// Returns [`CoordError::Protocol`] for an unknown coordinator/root
/// node or a topology with fewer than two routers, and
/// [`CoordError::Partition`] when the topology is disconnected (no
/// realization can span a partition, and the cost figures would be
/// bogus).
pub fn dissemination_cost(
    graph: &Graph,
    strategy: Dissemination,
    entries_per_router: u64,
) -> Result<DisseminationCost, CoordError> {
    let n = graph.node_count();
    if n < 2 {
        return Err(CoordError::Protocol {
            reason: format!("coordination needs at least 2 routers, got {n}"),
        });
    }
    let routes = all_pairs(graph);
    check_connected(graph, &routes)?;
    match strategy {
        Dissemination::Centralized { coordinator } => {
            check_node(graph, coordinator)?;
            let mut crossings = 0u64;
            let mut entry_crossings = 0u64;
            let mut max_lat: f64 = 0.0;
            for v in 0..n {
                if v == coordinator {
                    continue;
                }
                let hops = u64::from(routes.routed_hops(coordinator, v));
                // Report up, directive + entries down, ack up.
                crossings += hops * (1 + 1 + entries_per_router + 1);
                entry_crossings += hops * entries_per_router;
                max_lat = max_lat.max(routes.latency_ms(coordinator, v));
            }
            Ok(DisseminationCost {
                link_crossings: crossings,
                entry_crossings,
                convergence_ms: 3.0 * max_lat,
            })
        }
        Dissemination::SpanningTree { root } => {
            check_node(graph, root)?;
            // BFS tree: depth(v) in hops; tree edges = n - 1.
            let mut crossings = 0u64;
            let mut entry_crossings = 0u64;
            let mut max_lat: f64 = 0.0;
            // Reports aggregate upward: one message per tree edge.
            crossings += (n as u64) - 1;
            // Directives + entries travel the root→v tree path (BFS
            // tree paths have hop length = hop distance from root).
            for v in 0..n {
                if v == root {
                    continue;
                }
                let hops = u64::from(routes.hops(root, v));
                crossings += hops * (1 + entries_per_router);
                entry_crossings += hops * entries_per_router;
                max_lat = max_lat.max(routes.latency_ms(root, v));
            }
            // Acks aggregate upward again.
            crossings += (n as u64) - 1;
            Ok(DisseminationCost {
                link_crossings: crossings,
                entry_crossings,
                convergence_ms: 3.0 * max_lat,
            })
        }
        Dissemination::Flooding => {
            let links = graph.undirected_edge_count() as u64;
            // Every router floods one report; every router's directive
            // and entries are flooded; acks are flooded. Each flood
            // crosses every link once.
            let payloads = (n as u64) * (1 + 1 + entries_per_router + 1);
            let entry_payloads = (n as u64) * entries_per_router;
            // Convergence: a flood reaches everyone within the largest
            // pairwise latency; three phases.
            Ok(DisseminationCost {
                link_crossings: payloads * links,
                entry_crossings: entry_payloads * links,
                convergence_ms: 3.0 * routes.max_latency_ms(),
            })
        }
    }
}

/// Picks the coordinator placement minimizing the centralized round's
/// convergence bound (the latency 1-center of the topology).
///
/// # Errors
///
/// Returns [`CoordError::Protocol`] for a topology with fewer than two
/// routers and [`CoordError::Partition`] when it is disconnected (a
/// 1-center over infinite eccentricities is meaningless).
pub fn best_coordinator(graph: &Graph) -> Result<NodeId, CoordError> {
    let n = graph.node_count();
    if n < 2 {
        return Err(CoordError::Protocol {
            reason: format!("coordination needs at least 2 routers, got {n}"),
        });
    }
    let routes = all_pairs(graph);
    check_connected(graph, &routes)?;
    let ecc = |v: NodeId| {
        (0..n).filter(|&u| u != v).map(|u| routes.latency_ms(v, u)).fold(0.0f64, f64::max)
    };
    Ok((0..n).min_by(|&a, &b| ecc(a).total_cmp(&ecc(b))).expect("non-empty topology"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccn_topology::{datasets, generators};

    #[test]
    fn star_topology_costs_are_exact() {
        // Star with hub 0 and 4 leaves, unit latency. Centralized at
        // the hub: every leaf is 1 hop; 4 messages per leaf (report,
        // directive, x entries, ack) with x = 2 -> 5 crossings each.
        let g = generators::star(5, 1.0).unwrap();
        let c = dissemination_cost(&g, Dissemination::Centralized { coordinator: 0 }, 2).unwrap();
        assert_eq!(c.link_crossings, 4 * (1 + 1 + 2 + 1));
        assert_eq!(c.entry_crossings, 4 * 2);
        assert!((c.convergence_ms - 3.0).abs() < 1e-12);
    }

    #[test]
    fn tree_aggregation_beats_centralized_on_reports() {
        // On a line, reports to an end-coordinator cost sum of depths;
        // the tree aggregates them to n-1 crossings.
        let g = generators::line(6, 1.0).unwrap();
        let central =
            dissemination_cost(&g, Dissemination::Centralized { coordinator: 0 }, 0).unwrap();
        let tree = dissemination_cost(&g, Dissemination::SpanningTree { root: 0 }, 0).unwrap();
        assert!(
            tree.link_crossings < central.link_crossings,
            "tree {} vs central {}",
            tree.link_crossings,
            central.link_crossings
        );
    }

    #[test]
    fn flooding_pays_in_messages_not_latency() {
        let g = datasets::abilene();
        let x = 10;
        let best = best_coordinator(&g).unwrap();
        let central =
            dissemination_cost(&g, Dissemination::Centralized { coordinator: best }, x).unwrap();
        let flood = dissemination_cost(&g, Dissemination::Flooding, x).unwrap();
        assert!(flood.link_crossings > central.link_crossings);
        // Flooding converges within the max pairwise latency, never
        // faster than the best centralized placement's bound.
        assert!(flood.convergence_ms >= central.convergence_ms - 1e-9);
    }

    #[test]
    fn best_coordinator_is_latency_center() {
        // On a line the center node minimizes eccentricity.
        let g = generators::line(7, 1.0).unwrap();
        assert_eq!(best_coordinator(&g).unwrap(), 3);
    }

    #[test]
    fn entry_crossings_scale_linearly_with_x() {
        let g = datasets::us_a();
        let at = |x| {
            dissemination_cost(&g, Dissemination::Centralized { coordinator: 0 }, x)
                .unwrap()
                .entry_crossings
        };
        assert_eq!(at(20), 2 * at(10));
        assert_eq!(at(0), 0);
    }

    #[test]
    fn disconnected_topology_is_a_typed_partition_error() {
        // Triangle {0,1,2} plus an isolated pair {3,4}: every
        // realization and the 1-center must refuse with a Partition
        // error naming the cut-off routers, not return bogus costs.
        let mut g = Graph::new("split");
        for i in 0..5 {
            g.add_node(format!("r{i}"), 0.0, 0.0);
        }
        g.add_edge(0, 1, 1.0).unwrap();
        g.add_edge(1, 2, 1.0).unwrap();
        g.add_edge(2, 0, 1.0).unwrap();
        g.add_edge(3, 4, 1.0).unwrap();
        for strategy in [
            Dissemination::Centralized { coordinator: 0 },
            Dissemination::SpanningTree { root: 0 },
            Dissemination::Flooding,
        ] {
            let r = dissemination_cost(&g, strategy, 2);
            assert!(
                matches!(r, Err(CoordError::Partition { .. })),
                "{strategy:?} must reject a partition, got {r:?}"
            );
        }
        match best_coordinator(&g) {
            Err(CoordError::Partition { unreachable }) => assert_eq!(unreachable, vec![3, 4]),
            other => panic!("expected partition error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let g = generators::ring(4, 1.0).unwrap();
        assert!(dissemination_cost(&g, Dissemination::Centralized { coordinator: 9 }, 1).is_err());
        assert!(dissemination_cost(&g, Dissemination::SpanningTree { root: 9 }, 1).is_err());
        let mut solo = Graph::new("solo");
        solo.add_node("only", 0.0, 0.0);
        assert!(dissemination_cost(&solo, Dissemination::Flooding, 1).is_err());
        assert!(best_coordinator(&solo).is_err());
    }
}
