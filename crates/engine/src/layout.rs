//! The one slice layout both serving tiers provision: the paper's
//! hybrid strategy (every router holds the `c − x` most popular
//! contents plus a disjoint coordinated slice of `x`, `ℓ = x/c`,
//! `c − x + n·x ≤ N`) as one cluster shape, one prefix and each node's
//! slice. Only this module splits ℓ, checks the shape, converts to and
//! from `RouterAssignment`s and `Provision`s, builds the
//! [`RoutingTable`] and each shard's store, and decides which stores a
//! new layout keeps ([`Layout::keeps_stores`]).

use std::ops::Range;

use ccn_coord::{contiguous_slices, RouterAssignment};
use ccn_sim::store::{ContentStore, LruStore, StaticStore};
use ccn_sim::ContentId;

use crate::cluster::StorePolicy;
use crate::error::EngineError;
use crate::net::{Provision, SliceAssignment};
use crate::routing::RoutingTable;
use crate::shard::shard_of;

/// Coordinated slots per node at level `ell`, `x = round(ℓ·c)` — the
/// rounding [`ccn_sim::scenario::steady_state`] applies, so both engine
/// tiers and the simulator provision identical layouts.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
pub(crate) fn coordinated_slots(ell: f64, capacity: u64) -> u64 {
    (ell * capacity as f64).round() as u64
}

/// One cluster shape with one prefix and each node's coordinated slice.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Layout {
    nodes: usize,
    catalogue: u64,
    capacity: u64,
    policy: StorePolicy,
    prefix: u64,
    /// Node `i`'s coordinated slice, indexed by node id.
    slices: Vec<Range<u64>>,
}

fn invalid<T>(reason: String) -> Result<T, EngineError> {
    Err(EngineError::InvalidConfig { reason })
}

impl Layout {
    /// The paper's static hybrid layout at level `ell`, after the one
    /// shape check: at least one node, capacity ≥ 1, `ell` ∈ [0, 1]
    /// (NaN rejected), and `c − x + n·x ≤ N`.
    pub(crate) fn hybrid(
        nodes: usize,
        catalogue: u64,
        capacity: u64,
        ell: f64,
        policy: StorePolicy,
    ) -> Result<Self, EngineError> {
        if nodes == 0 {
            return invalid("need at least one node".into());
        }
        if capacity == 0 {
            return invalid("need a non-zero store capacity".into());
        }
        if !(0.0..=1.0).contains(&ell) {
            return invalid(format!("ell {ell} outside [0, 1]"));
        }
        let x = coordinated_slots(ell, capacity);
        if (nodes as u64).saturating_mul(x).saturating_add(capacity - x) > catalogue {
            return invalid(format!(
                "catalogue {catalogue} too small for prefix + {nodes} slices of x = {x}"
            ));
        }
        Ok(Self { nodes, catalogue, capacity, policy, prefix: 0, slices: Vec::new() }.at_ell(ell))
    }

    /// This shape's hybrid layout at `ell`, not checked against the
    /// catalogue: how the controller turns a re-solved ℓ into a target.
    pub(crate) fn at_ell(&self, ell: f64) -> Self {
        let x = coordinated_slots(ell, self.capacity);
        let prefix = self.capacity - x;
        let slices = contiguous_slices(prefix, prefix + 1, x, self.nodes);
        Self { prefix, slices: slices.into_iter().map(|a| a.slice).collect(), ..*self }
    }

    /// This shape with the slices of `given` (a controller step,
    /// `Cluster::apply_layout`'s argument, a pushed epoch); a node
    /// without one holds no slice. Rejects more than one prefix, and
    /// what [`RoutingTable::from_assignments`] rejects: a node out of
    /// range or assigned twice, slices that do not tile.
    pub(crate) fn with_assignments(&self, given: &[RouterAssignment]) -> Result<Self, EngineError> {
        let prefix = given.first().map_or(self.prefix, |a| a.local_prefix);
        if let Some(a) = given.iter().find(|a| a.local_prefix != prefix) {
            return invalid(format!("assignments mix prefixes {prefix} and {}", a.local_prefix));
        }
        RoutingTable::from_assignments(given, self.nodes)?;
        let mut slices = vec![0..0; self.nodes];
        for a in given {
            slices[a.router] = a.slice.clone();
        }
        Ok(Self { prefix, slices, ..*self })
    }

    /// The layout a pushed epoch carries, checked as
    /// [`Layout::with_assignments`] checks.
    pub(crate) fn from_provision(p: &Provision) -> Result<Self, EngineError> {
        let (nodes, catalogue, capacity, policy, prefix) =
            (p.nodes as usize, p.catalogue, p.capacity, p.policy, p.prefix);
        let slice = |s: &SliceAssignment| RouterAssignment {
            router: s.node as usize,
            local_prefix: prefix,
            slice: s.start..s.end,
        };
        let given: Vec<RouterAssignment> = p.slices.iter().map(slice).collect();
        Self { nodes, catalogue, capacity, policy, prefix, slices: Vec::new() }
            .with_assignments(&given)
    }

    /// The `ConfigEpoch` push of this layout; `x` is the widest slice
    /// (a mid-chain layout's slices may be uneven).
    pub(crate) fn provision(&self, epoch: u64, fitted_s: f64, peers: Vec<String>) -> Provision {
        let slices = self.slices.iter().zip(0..);
        Provision {
            epoch,
            nodes: self.nodes as u32,
            catalogue: self.catalogue,
            capacity: self.capacity,
            prefix: self.prefix,
            x: self.slices.iter().map(|s| s.end - s.start).max().unwrap_or(0),
            fitted_s,
            policy: self.policy,
            slices: slices
                .map(|(s, node)| SliceAssignment { node, start: s.start, end: s.end })
                .collect(),
            peers,
        }
    }

    /// One assignment per node.
    pub(crate) fn assignments(&self) -> Vec<RouterAssignment> {
        let slices = self.slices.iter().cloned().enumerate();
        slices
            .map(|(router, slice)| RouterAssignment { router, local_prefix: self.prefix, slice })
            .collect()
    }

    /// The boundaries of a contiguous layout: node `i`'s slice is
    /// `[b[i], b[i+1])`, and the prefix ends at `b[0] − 1`.
    pub(crate) fn boundaries(&self) -> Vec<u64> {
        let first = self.slices.first().map_or(self.prefix + 1, |s| s.start);
        std::iter::once(first).chain(self.slices.iter().map(|s| s.end)).collect()
    }

    /// This shape sliced at `boundaries` (see [`Layout::boundaries`]).
    pub(crate) fn with_boundaries(&self, boundaries: &[u64]) -> Self {
        let slices = boundaries.windows(2).map(|pair| pair[0]..pair[1]).collect();
        Self { prefix: boundaries[0] - 1, slices, ..*self }
    }

    /// The routing table over this layout, every node live.
    pub(crate) fn routing_table(&self) -> RoutingTable {
        RoutingTable::tiled(self.slices.iter().cloned().zip(0..), self.nodes)
    }

    pub(crate) fn policy(&self) -> StorePolicy {
        self.policy
    }

    /// Node `node`'s store for shard `shard` of `shards`: prefix ∪ its
    /// slice, filtered to the shard, under [`StorePolicy::Provisioned`];
    /// an empty LRU holding the shard's share of the capacity under
    /// [`StorePolicy::Lru`].
    pub(crate) fn shard_store(
        &self,
        node: usize,
        shards: usize,
        shard: usize,
    ) -> Box<dyn ContentStore> {
        if self.policy == StorePolicy::Provisioned {
            let pinned = (1..=self.prefix).chain(self.slices[node].clone()).map(ContentId);
            return Box::new(StaticStore::new(pinned.filter(|&c| shard_of(c, shards) == shard)));
        }
        let share = self.capacity / shards as u64
            + u64::from((shard as u64) < self.capacity % shards as u64);
        #[allow(clippy::cast_possible_truncation)]
        Box::new(LruStore::new(share.max(1) as usize))
    }

    /// The store rule: node `node` keeps its stores when `next` replaces
    /// this layout iff its recipe is unchanged — its policy and
    /// capacity, plus, under [`StorePolicy::Provisioned`] only, the
    /// prefix and its own slice. So an LRU node whose slice moves stays
    /// warm, and a fit-only or peer-address-only push keeps every store.
    pub(crate) fn keeps_stores(&self, next: &Layout, node: usize) -> bool {
        let recipe = |l: &Layout| {
            let pinned = l.policy == StorePolicy::Provisioned;
            (l.policy, l.capacity, pinned.then(|| (l.prefix, l.slices[node].clone())))
        };
        recipe(self) == recipe(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hybrid(capacity: u64, ell: f64, policy: StorePolicy) -> Layout {
        Layout::hybrid(3, 10_000, capacity, ell, policy).expect("valid shape")
    }

    /// `base` with the slices of `boundaries`, through the assignment
    /// path a controller step takes.
    fn resliced(base: &Layout, boundaries: &[u64]) -> Layout {
        base.with_assignments(&base.with_boundaries(boundaries).assignments()).expect("tiles")
    }

    /// `base` as a node reads it back from a push.
    fn pushed(base: &Layout, epoch: u64, fitted_s: f64, peers: &[&str]) -> Layout {
        let peers = peers.iter().map(|&p| p.to_owned()).collect();
        Layout::from_provision(&base.provision(epoch, fitted_s, peers)).expect("valid push")
    }

    /// The store rule for node 0 of a 3-node cluster: at ℓ = 0.5 and
    /// c = 100 the prefix is 50 and the slices start at 51, 101, 151.
    #[test]
    fn a_node_keeps_its_stores_iff_its_own_recipe_is_unchanged() {
        use StorePolicy::{Lru, Provisioned};
        let pinned = hybrid(100, 0.5, Provisioned);
        let lru = hybrid(100, 0.5, Lru);
        let cases: [(&str, &Layout, Layout, bool); 8] = [
            ("fit-only", &pinned, pushed(&pinned, 9, 0.9, &["a", "b", "c"]), true),
            ("peers-only", &pinned, pushed(&pinned, 2, 0.0, &["x", "y", "z"]), true),
            ("another node's slice", &pinned, resliced(&pinned, &[51, 101, 140, 201]), true),
            ("own slice, LRU", &lru, lru.at_ell(0.25), true),
            ("own prefix, provisioned", &pinned, pinned.at_ell(0.25), false),
            ("own slice, provisioned", &pinned, resliced(&pinned, &[51, 90, 151, 201]), false),
            ("capacity", &lru, hybrid(50, 0.5, Lru), false),
            ("policy", &pinned, hybrid(100, 0.5, Lru), false),
        ];
        for (change, from, to, keeps) in cases {
            assert_eq!(from.keeps_stores(&to, 0), keeps, "{change}");
        }
    }

    #[test]
    fn a_pushed_layout_reads_back_unchanged() {
        let layout = hybrid(100, 0.5, StorePolicy::Provisioned);
        assert_eq!(pushed(&layout, 1, 0.0, &[]), layout);
        assert_eq!(layout.boundaries(), [51, 101, 151, 201]);
        assert_eq!(layout.with_boundaries(&layout.boundaries()), layout);
    }

    #[test]
    fn outside_layouts_share_one_prefix_and_tile() {
        let layout = hybrid(100, 0.5, StorePolicy::Provisioned);
        let mut mixed = layout.assignments();
        mixed[1].local_prefix = 49;
        assert!(layout.with_assignments(&mixed).is_err(), "mixed prefixes");
        let mut gapped = layout.assignments();
        gapped[1].slice = 102..151;
        assert!(layout.with_assignments(&gapped).is_err(), "a gap");
        let mut foreign = layout.assignments();
        foreign[2].router = 3;
        assert!(layout.with_assignments(&foreign).is_err(), "node out of range");
    }

    /// The one shape check: capacity ≥ 1, ℓ ∈ [0, 1], c − x + n·x ≤ N.
    #[test]
    fn the_shape_check_is_the_union_of_the_tiers_rules() {
        let shape = |nodes, catalogue, capacity, ell| {
            Layout::hybrid(nodes, catalogue, capacity, ell, StorePolicy::Provisioned)
        };
        assert!(shape(4, 200, 0, 0.5).is_err());
        assert!(shape(4, 10_000, 100, 1.5).is_err());
        assert!(shape(4, 10_000, 100, f64::NAN).is_err());
        assert!(shape(4, 200, 100, 0.5).is_err(), "50 + 4 × 50 > 200");
        assert!(shape(4, 250, 100, 0.5).is_ok(), "50 + 4 × 50 = 250");
        assert!(shape(1, 99, 100, 0.0).is_err(), "capacity beyond the catalogue");
    }
}
