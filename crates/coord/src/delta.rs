//! Layout deltas between provisioning rounds.
//!
//! A re-provisioning round emits a fresh slice layout; what the
//! network actually pays for is not the layout itself but the *delta*
//! against what routers already hold — every coordinated slot a router
//! gains must be fetched and warmed. [`LayoutDelta`] measures that
//! cost.

use std::collections::HashMap;
use std::ops::Range;

use crate::assignment::RouterAssignment;

/// Slots a single router gains in a layout transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterMove {
    /// The router in question.
    pub router: usize,
    /// Coordinated slots in the new slice that the old slice did not
    /// cover (each must be fetched).
    pub gained_slice: u64,
    /// Growth of the shared local prefix visible at this router.
    pub gained_prefix: u64,
}

impl RouterMove {
    /// Total slots this router must fetch for the transition.
    #[must_use]
    pub fn gained(&self) -> u64 {
        self.gained_slice + self.gained_prefix
    }
}

/// The movement cost of replacing one slice layout with another.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutDelta {
    /// Per-router movement, for every router present in the new
    /// layout (routers that vanish cost nothing — eviction is free).
    pub moves: Vec<RouterMove>,
}

fn overlap(a: &Range<u64>, b: &Range<u64>) -> u64 {
    let lo = a.start.max(b.start);
    let hi = a.end.min(b.end);
    hi.saturating_sub(lo)
}

impl LayoutDelta {
    /// Measures the transition `old → new`. Routers are matched by id;
    /// a router appearing only in `new` pays for its whole assignment.
    #[must_use]
    pub fn between(old: &[RouterAssignment], new: &[RouterAssignment]) -> Self {
        let previous: HashMap<usize, &RouterAssignment> =
            old.iter().map(|a| (a.router, a)).collect();
        let moves = new
            .iter()
            .map(|a| match previous.get(&a.router) {
                Some(prev) => RouterMove {
                    router: a.router,
                    gained_slice: a.slice_len() - overlap(&a.slice, &prev.slice),
                    gained_prefix: a.local_prefix.saturating_sub(prev.local_prefix),
                },
                None => RouterMove {
                    router: a.router,
                    gained_slice: a.slice_len(),
                    gained_prefix: a.local_prefix,
                },
            })
            .collect();
        Self { moves }
    }

    /// Total slots fetched across all routers.
    #[must_use]
    pub fn moved_slots(&self) -> u64 {
        self.moves.iter().map(RouterMove::gained).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contiguous_slices;

    #[test]
    fn identical_layouts_move_nothing() {
        let layout = contiguous_slices(100, 101, 50, 4);
        let delta = LayoutDelta::between(&layout, &layout);
        assert_eq!(delta.moved_slots(), 0);
    }

    #[test]
    fn disjoint_layouts_pay_the_full_new_demand() {
        let old = contiguous_slices(0, 1, 10, 2); // slices at 1..21
        let new = contiguous_slices(0, 100, 10, 2); // slices at 100..120
        assert_eq!(LayoutDelta::between(&old, &new).moved_slots(), 20);
    }

    #[test]
    fn prefix_growth_is_charged_shrink_is_free() {
        let old = contiguous_slices(50, 51, 10, 3);
        let grown = contiguous_slices(60, 51, 10, 3);
        // Every router fetches the 10 new prefix slots; slices overlap
        // fully.
        assert_eq!(LayoutDelta::between(&old, &grown).moved_slots(), 30);
        assert_eq!(LayoutDelta::between(&grown, &old).moved_slots(), 0);
    }
}
