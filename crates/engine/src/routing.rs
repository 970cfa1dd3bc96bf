//! Rendezvous-backed routing for the coordinated content range.
//!
//! The paper's provisioning assigns each router one contiguous slice
//! of the coordinated range (`ccn_coord::contiguous_slices` /
//! `centrality_ordered_slices`). A [`RoutingTable`] turns those
//! assignments into the lookup the serving path needs: *which live
//! node holds this content?* While every node is up the answer is the
//! assigned primary — the table agrees exactly with the coordination
//! plane. When a node fails, only *its* share re-homes: orphaned
//! contents fall back to highest-random-weight (rendezvous) hashing
//! over the survivors, so no other node's share moves and a recovering
//! node gets its exact old share back.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

use ccn_coord::RouterAssignment;
use ccn_sim::ContentId;

use crate::error::EngineError;
use crate::shard::mix;

/// Maps coordinated content ids onto their holders. Liveness is not
/// the table's: [`LiveRouting`] owns it.
#[derive(Debug, Clone)]
pub struct RoutingTable {
    nodes: usize,
    range: Range<u64>,
    /// Non-empty assigned slices, sorted by start, tiling `range`.
    slices: Vec<(Range<u64>, usize)>,
}

impl RoutingTable {
    /// Builds the table from the coordination plane's slice
    /// assignments for a cluster of `nodes` nodes.
    ///
    /// # Errors
    ///
    /// Rejects assignments referencing nodes outside the cluster,
    /// assigning one node twice, or whose non-empty slices do not tile
    /// a contiguous range.
    pub fn from_assignments(
        assignments: &[RouterAssignment],
        nodes: usize,
    ) -> Result<Self, EngineError> {
        let invalid = |reason: String| Err(EngineError::InvalidConfig { reason });
        let mut seen = vec![false; nodes];
        for a in assignments {
            if a.router >= nodes {
                return invalid(format!("assignment references node {} of {nodes}", a.router));
            }
            if seen[a.router] {
                return invalid(format!("node {} assigned twice", a.router));
            }
            seen[a.router] = true;
        }
        let table = Self::tiled(assignments.iter().map(|a| (a.slice.clone(), a.router)), nodes);
        match table.slices.windows(2).find(|pair| pair[0].0.end != pair[1].0.start) {
            Some(p) => invalid(format!("slices {:?} and {:?} do not tile", p[0].0, p[1].0)),
            None => Ok(table),
        }
    }

    /// The table over `(slice, node)` pairs already known to tile.
    pub(crate) fn tiled(slices: impl Iterator<Item = (Range<u64>, usize)>, nodes: usize) -> Self {
        let mut slices: Vec<(Range<u64>, usize)> = slices.filter(|(s, _)| !s.is_empty()).collect();
        slices.sort_by_key(|(s, _)| s.start);
        let range = match (slices.first(), slices.last()) {
            (Some((first, _)), Some((last, _))) => first.start..last.end,
            _ => 0..0,
        };
        Self { nodes, range, slices }
    }

    /// Number of nodes the table routes over.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The coordinated rank range `[c−x+1, c−x+1+n·x)` (empty in
    /// non-coordinated mode).
    #[must_use]
    pub fn coordinated_range(&self) -> Range<u64> {
        self.range.clone()
    }

    /// The assigned primary for `content`, live or not.
    #[must_use]
    pub fn primary(&self, content: ContentId) -> Option<usize> {
        let rank = content.rank();
        if !self.range.contains(&rank) {
            return None;
        }
        let at = self.slices.partition_point(|(s, _)| s.end <= rank);
        self.slices.get(at).filter(|(s, _)| s.contains(&rank)).map(|&(_, node)| node)
    }

    /// [`LiveRouting::holder`] under the liveness view `is_live`.
    fn holder_where(&self, content: ContentId, is_live: impl Fn(usize) -> bool) -> Option<usize> {
        let primary = self.primary(content)?;
        if is_live(primary) {
            return Some(primary);
        }
        let rank = content.rank();
        (0..self.nodes)
            .filter(|&node| is_live(node))
            .max_by_key(|&node| mix(rank ^ mix(node as u64 + 1)))
    }
}

/// An epoch-stamped liveness-and-layout view over a [`RoutingTable`].
///
/// Two things change at runtime, on very different cadences:
///
/// - **Liveness** flips on every plan-driven kill/revive or
///   health-detector verdict. It lives in atomics so shard workers and
///   submitters can route without locks, and every effective flip
///   bumps a monotone *liveness epoch*.
/// - **Layout** changes only when the adaptive controller installs a
///   re-slice ([`Self::install_table`]). The table sits behind an
///   `RwLock<Arc<...>>`, read and cloned per call, per run of items
///   (a view: the wire's serve path), or per config epoch (a shard
///   worker's snapshot, `route`); installs are stamped with a
///   separate monotone *config epoch*.
///
/// In-flight operations routed under either epoch N are never recalled
/// when N+1 lands mid-batch: they complete (possibly degraded to
/// origin) or shed under the accounting invariant, and only operations
/// admitted after the flip see the new view.
#[derive(Debug)]
pub struct LiveRouting {
    table: RwLock<Arc<RoutingTable>>,
    live: Vec<AtomicBool>,
    /// Bumped on every effective liveness change; starts at 1.
    epoch: AtomicU64,
    /// Bumped on every installed layout; starts at 1.
    config_epoch: AtomicU64,
}

impl LiveRouting {
    /// Wraps a table with every node live.
    #[must_use]
    pub fn new(table: RoutingTable) -> Self {
        let live = (0..table.nodes()).map(|_| AtomicBool::new(true)).collect();
        Self {
            table: RwLock::new(Arc::new(table)),
            live,
            epoch: AtomicU64::new(1),
            config_epoch: AtomicU64::new(1),
        }
    }

    /// A snapshot of the current slice assignment. The snapshot is
    /// immutable; a concurrent [`Self::install_table`] does not affect
    /// lookups already made through it.
    #[must_use]
    pub fn table(&self) -> Arc<RoutingTable> {
        Arc::clone(&self.table.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Atomically replaces the slice assignment, preserving the
    /// liveness flags (a node that is down stays down across a
    /// re-slice). Returns the new config epoch.
    ///
    /// # Errors
    ///
    /// Rejects tables routing over a different node count — the
    /// cluster's membership is fixed; only the slicing moves.
    pub fn install_table(&self, table: RoutingTable) -> Result<u64, EngineError> {
        if table.nodes() != self.live.len() {
            return Err(EngineError::InvalidConfig {
                reason: format!(
                    "installed table routes {} nodes, cluster has {}",
                    table.nodes(),
                    self.live.len()
                ),
            });
        }
        let mut slot = self.table.write().unwrap_or_else(PoisonError::into_inner);
        *slot = Arc::new(table);
        drop(slot);
        Ok(self.config_epoch.fetch_add(1, Ordering::AcqRel) + 1)
    }

    /// The current liveness epoch (1 at construction).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The current layout (config) epoch (1 at construction).
    #[must_use]
    pub fn config_epoch(&self) -> u64 {
        self.config_epoch.load(Ordering::Acquire)
    }

    /// Whether `node` is currently live.
    #[must_use]
    pub fn is_live(&self, node: usize) -> bool {
        self.live[node].load(Ordering::Acquire)
    }

    /// Number of live nodes.
    #[must_use]
    pub fn live_count(&self) -> usize {
        self.live.iter().filter(|l| l.load(Ordering::Acquire)).count()
    }

    /// Marks a node up or down; bumps and returns the new epoch only
    /// when the flag actually changed (idempotent re-marks are free).
    pub fn set_live(&self, node: usize, up: bool) -> Option<u64> {
        if self.live[node].swap(up, Ordering::AcqRel) == up {
            return None;
        }
        Some(self.epoch.fetch_add(1, Ordering::AcqRel) + 1)
    }

    /// The assigned primary for `content`, live or not.
    #[must_use]
    pub fn primary(&self, content: ContentId) -> Option<usize> {
        self.view().primary(content)
    }

    /// The live node responsible for `content` under the current
    /// epoch's view: the assigned primary while it is up, otherwise the
    /// rendezvous (highest-random-weight) choice among the survivors.
    /// `None` for uncoordinated content or when no node is live.
    #[must_use]
    pub fn holder(&self, content: ContentId) -> Option<usize> {
        self.view().holder(content)
    }

    /// `(holder, primary)` through a caller-held `(config epoch, table)`
    /// snapshot, re-read only once that epoch (bumped after its table is
    /// installed) moves: one `Acquire` load, no lock, no reference-count
    /// write. Liveness is still read per call.
    pub(crate) fn route(
        &self,
        snapshot: &mut (u64, Arc<RoutingTable>),
        content: ContentId,
    ) -> Option<(usize, usize)> {
        let epoch = self.config_epoch();
        if snapshot.0 != epoch {
            *snapshot = (epoch, self.table());
        }
        let primary = snapshot.1.primary(content)?;
        Some((snapshot.1.holder_where(content, |node| self.is_live(node))?, primary))
    }

    /// One table snapshot to route many items through: the lock and
    /// the `Arc` clone are paid once, liveness is still read per call.
    pub(crate) fn view(&self) -> RoutingView<'_> {
        RoutingView { table: self.table(), live: &self.live }
    }
}

/// [`LiveRouting`] with its table pinned ([`LiveRouting::view`]).
pub(crate) struct RoutingView<'a> {
    table: Arc<RoutingTable>,
    live: &'a [AtomicBool],
}

impl RoutingView<'_> {
    /// [`LiveRouting::primary`] under the pinned table.
    pub(crate) fn primary(&self, content: ContentId) -> Option<usize> {
        self.table.primary(content)
    }

    /// [`LiveRouting::holder`] under the pinned table.
    pub(crate) fn holder(&self, content: ContentId) -> Option<usize> {
        self.table.holder_where(content, |node| self.live[node].load(Ordering::Acquire))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccn_coord::contiguous_slices;
    use proptest::prelude::*;

    fn table(prefix: u64, x: u64, nodes: usize) -> RoutingTable {
        RoutingTable::from_assignments(&contiguous_slices(prefix, prefix + 1, x, nodes), nodes)
            .expect("contiguous assignments are valid")
    }

    /// Every coordinated rank's current holder.
    fn holders(lr: &LiveRouting) -> Vec<usize> {
        lr.table().coordinated_range().map(|r| lr.holder(ContentId(r)).unwrap()).collect()
    }

    #[test]
    fn empty_table_routes_nothing() {
        let lr = LiveRouting::new(RoutingTable::from_assignments(&[], 5).unwrap());
        assert_eq!(lr.live_count(), 5);
        assert_eq!(lr.holder(ContentId(1)), None);
        assert!(lr.table().coordinated_range().is_empty());
    }

    #[test]
    fn rejects_overlapping_and_foreign_assignments() {
        let mut a = contiguous_slices(10, 11, 5, 3);
        a[2].slice = 14..19; // overlaps slice 1
        assert!(RoutingTable::from_assignments(&a, 3).is_err());
        let a = contiguous_slices(10, 11, 5, 3);
        assert!(RoutingTable::from_assignments(&a, 2).is_err());
    }

    #[test]
    fn live_routing_epochs_bump_only_on_effective_change() {
        let lr = LiveRouting::new(table(10, 4, 4));
        assert_eq!(lr.epoch(), 1);
        assert_eq!(lr.live_count(), 4);
        assert_eq!(lr.set_live(2, true), None, "already live: no epoch bump");
        assert_eq!(lr.epoch(), 1);
        assert_eq!(lr.set_live(2, false), Some(2));
        assert!(!lr.is_live(2));
        assert_eq!(lr.set_live(2, false), None, "already down: no epoch bump");
        assert_eq!(lr.set_live(2, true), Some(3));
        assert_eq!(lr.epoch(), 3);
        assert_eq!(lr.live_count(), 4);
    }

    #[test]
    fn install_table_reslices_while_preserving_liveness() {
        let lr = LiveRouting::new(table(10, 4, 4));
        assert_eq!(lr.config_epoch(), 1);
        lr.set_live(2, false);
        let epoch = lr.install_table(table(20, 6, 4)).unwrap();
        assert_eq!(epoch, 2);
        assert_eq!(lr.config_epoch(), 2);
        assert!(!lr.is_live(2), "liveness survives the re-slice");
        assert_eq!(lr.table().coordinated_range(), 21..21 + 24);
        // The dead node's share of the *new* layout re-homes to
        // survivors, same as under a static table.
        for rank in lr.table().coordinated_range() {
            let holder = lr.holder(ContentId(rank)).unwrap();
            assert!(lr.is_live(holder), "rank {rank} routed to dead node");
        }
        // Membership is fixed: a table over a different node count is
        // rejected and the epoch does not move.
        assert!(lr.install_table(table(20, 6, 5)).is_err());
        assert_eq!(lr.config_epoch(), 2);
        // Liveness epochs stay independent of config epochs.
        assert_eq!(lr.epoch(), 2, "one liveness flip so far");
    }

    proptest! {
        /// Every coordinated content id resolves to exactly one node,
        /// and that node is live — even with part of the cluster down.
        #[test]
        fn every_coordinated_id_maps_to_one_live_node(
            nodes in 2usize..12,
            x in 1u64..40,
            prefix in 0u64..200,
            down in 0usize..12,
        ) {
            let lr = LiveRouting::new(table(prefix, x, nodes));
            // Kill up to all-but-one node, deterministically spread.
            let kill = down.min(nodes - 1);
            for k in 0..kill {
                lr.set_live((k * 7 + 1) % nodes, false);
            }
            let killed = nodes - lr.live_count();
            prop_assert!(killed <= kill);
            for rank in lr.table().coordinated_range() {
                let holder = lr.holder(ContentId(rank));
                prop_assert!(holder.is_some(), "rank {rank} unroutable");
                let holder = holder.unwrap();
                prop_assert!(holder < nodes);
                prop_assert!(lr.is_live(holder), "rank {rank} routed to dead node {holder}");
            }
            // Outside the range nothing is coordinated.
            prop_assert_eq!(lr.holder(ContentId(prefix)), None);
            prop_assert_eq!(lr.holder(ContentId(lr.table().coordinated_range().end)), None);
        }

        /// Killing one node re-homes only that node's share: every
        /// content whose primary survives keeps its holder. Reviving it
        /// hands the share back bit-exactly.
        #[test]
        fn single_failure_moves_only_the_failed_share(
            nodes in 2usize..12,
            x in 1u64..40,
            prefix in 0u64..200,
            victim in 0usize..12,
        ) {
            let lr = LiveRouting::new(table(prefix, x, nodes));
            let victim = victim % nodes;
            let before = holders(&lr);
            prop_assert!(lr.set_live(victim, false).is_some());
            for (rank, old) in lr.table().coordinated_range().zip(&before) {
                let now = lr.holder(ContentId(rank)).unwrap();
                if *old == victim {
                    prop_assert!(now != victim && lr.is_live(now));
                } else {
                    prop_assert_eq!(now, *old, "rank {} reshuffled {} -> {}", rank, old, now);
                }
            }
            prop_assert!(lr.set_live(victim, true).is_some());
            prop_assert_eq!(holders(&lr), before);
        }

        /// With every node live the table *is* the coordination
        /// plane's slice assignment.
        #[test]
        fn agrees_with_coord_assignment_when_all_live(
            nodes in 1usize..16,
            x in 1u64..40,
            prefix in 0u64..200,
        ) {
            let assignments = contiguous_slices(prefix, prefix + 1, x, nodes);
            let lr = LiveRouting::new(RoutingTable::from_assignments(&assignments, nodes).unwrap());
            prop_assert_eq!(
                lr.table().coordinated_range(),
                prefix + 1..prefix + 1 + x * nodes as u64
            );
            for a in &assignments {
                for rank in a.slice.clone() {
                    prop_assert_eq!(lr.holder(ContentId(rank)), Some(a.router));
                    prop_assert_eq!(lr.primary(ContentId(rank)), Some(a.router));
                }
            }
        }
    }
}
