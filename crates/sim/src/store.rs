//! Router content stores and replacement policies.
//!
//! The model's two provisioning modes map onto store composition:
//!
//! - **non-coordinated**: each router runs a classic replacement
//!   policy ([`LruStore`], [`LfuStore`], [`FifoStore`],
//!   [`RandomStore`]) or statically pins the popularity prefix
//!   ([`StaticStore`]);
//! - **coordinated**: a [`StaticStore`] holding the `c − x` local
//!   prefix plus this router's slice of the coordinated range (built
//!   by [`crate::Placement`]).
//!
//! All policies expose the same object-safe [`ContentStore`] trait so
//! the simulator can mix them per router.
//!
//! # Performance
//!
//! The LRU and LFU stores are on the simulator's per-event hot path
//! (every Data packet may trigger an insertion and therefore an
//! eviction), so both are implemented with O(1) amortized operations:
//! LRU as an intrusive doubly-linked list over a slab, LFU as the
//! classic frequency-bucket list (Shah, Mitra & Matani 2010). O(n)-scan
//! implementations live in the test-only `reference` module as
//! differential-testing oracles.

use std::collections::{HashMap, HashSet, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ContentId;

/// Sentinel slot index for "no node" in the intrusive lists.
const NIL: usize = usize::MAX;

/// A router's content store: a bounded set of unit-size contents under
/// some replacement policy.
pub trait ContentStore: std::fmt::Debug + Send {
    /// Whether the store currently holds `content`.
    fn contains(&self, content: ContentId) -> bool;

    /// Notifies the policy that `content` was served from this store.
    fn on_hit(&mut self, content: ContentId);

    /// Offers `content` (just fetched) to the store; the policy may
    /// insert it, evicting another object. Returns the evicted object
    /// if one was displaced.
    fn on_data(&mut self, content: ContentId) -> Option<ContentId>;

    /// Number of objects currently stored.
    fn len(&self) -> usize;

    /// Whether the store holds nothing.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The store's capacity in objects.
    fn capacity(&self) -> usize;

    /// Snapshot of the stored objects in a deterministic,
    /// policy-defined order: eviction order (first element is the next
    /// victim) for the replacement policies, ascending rank for
    /// [`StaticStore`]. Identical seeds and operation sequences yield
    /// identical snapshots across runs and platforms.
    fn contents(&self) -> Vec<ContentId>;
}

/// One node of the intrusive recency list used by [`LruStore`].
#[derive(Debug, Clone, Copy)]
struct LruNode {
    content: ContentId,
    prev: usize,
    next: usize,
}

/// Least-recently-used replacement with O(1) operations: a slab of
/// list nodes threaded into a doubly-linked recency list (head = most
/// recent, tail = next victim) plus a content → slot index.
#[derive(Debug)]
pub struct LruStore {
    capacity: usize,
    index: HashMap<ContentId, usize>,
    nodes: Vec<LruNode>,
    /// Most-recently-used slot (`NIL` when empty).
    head: usize,
    /// Least-recently-used slot (`NIL` when empty).
    tail: usize,
}

impl LruStore {
    /// Creates an empty LRU store with the given capacity.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            index: HashMap::with_capacity(capacity.min(1 << 20)),
            nodes: Vec::with_capacity(capacity.min(1 << 20)),
            head: NIL,
            tail: NIL,
        }
    }

    /// Detaches `slot` from the recency list (it must be linked).
    fn unlink(&mut self, slot: usize) {
        let LruNode { prev, next, .. } = self.nodes[slot];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n].prev = prev,
        }
    }

    /// Links `slot` at the head (most-recent end) of the list.
    fn push_front(&mut self, slot: usize) {
        self.nodes[slot].prev = NIL;
        self.nodes[slot].next = self.head;
        match self.head {
            NIL => self.tail = slot,
            h => self.nodes[h].prev = slot,
        }
        self.head = slot;
    }

    fn move_to_front(&mut self, slot: usize) {
        if self.head != slot {
            self.unlink(slot);
            self.push_front(slot);
        }
    }

    /// Removes `content` outright (SLRU promotion path). Returns
    /// whether it was present.
    fn remove(&mut self, content: ContentId) -> bool {
        let Some(slot) = self.index.remove(&content) else {
            return false;
        };
        self.unlink(slot);
        // Keep the slab dense: move the last node into the freed slot
        // so `nodes` never grows beyond the live entry count.
        let last = self.nodes.len() - 1;
        if slot != last {
            let moved = self.nodes[last];
            self.nodes[slot] = moved;
            *self.index.get_mut(&moved.content).expect("moved node is indexed") = slot;
            match moved.prev {
                NIL => self.head = slot,
                p => self.nodes[p].next = slot,
            }
            match moved.next {
                NIL => self.tail = slot,
                n => self.nodes[n].prev = slot,
            }
        }
        self.nodes.pop();
        true
    }
}

impl ContentStore for LruStore {
    fn contains(&self, content: ContentId) -> bool {
        self.index.contains_key(&content)
    }

    fn on_hit(&mut self, content: ContentId) {
        if let Some(&slot) = self.index.get(&content) {
            self.move_to_front(slot);
        }
    }

    fn on_data(&mut self, content: ContentId) -> Option<ContentId> {
        if self.capacity == 0 {
            return None;
        }
        if let Some(&slot) = self.index.get(&content) {
            self.move_to_front(slot);
            return None;
        }
        if self.nodes.len() >= self.capacity {
            // Reuse the victim's slot in place of allocating.
            let slot = self.tail;
            let victim = self.nodes[slot].content;
            self.index.remove(&victim);
            self.unlink(slot);
            self.nodes[slot].content = content;
            self.index.insert(content, slot);
            self.push_front(slot);
            return Some(victim);
        }
        let slot = self.nodes.len();
        self.nodes.push(LruNode { content, prev: NIL, next: NIL });
        self.index.insert(content, slot);
        self.push_front(slot);
        None
    }

    fn len(&self) -> usize {
        self.nodes.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    /// Eviction order: least- to most-recently used.
    fn contents(&self) -> Vec<ContentId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut cur = self.tail;
        while cur != NIL {
            out.push(self.nodes[cur].content);
            cur = self.nodes[cur].prev;
        }
        out
    }
}

/// One item node of the frequency-bucket structure.
#[derive(Debug, Clone, Copy)]
struct LfuItem {
    content: ContentId,
    /// Owning bucket slot.
    bucket: usize,
    /// Neighbours within the bucket's recency list.
    prev: usize,
    next: usize,
}

/// One frequency bucket: all items with the same hit count, in
/// last-touch order (head = oldest, the eviction tie-break).
#[derive(Debug, Clone, Copy)]
struct LfuBucket {
    freq: u64,
    head: usize,
    tail: usize,
    /// Neighbouring buckets in ascending-frequency order.
    prev: usize,
    next: usize,
}

/// Least-frequently-used replacement (ties broken by recency) with
/// O(1) operations: a doubly-linked list of frequency buckets, each
/// holding its items in last-touch order. Evicting pops the head item
/// of the lowest bucket; touching moves an item to the next bucket's
/// tail — both constant-time.
#[derive(Debug)]
pub struct LfuStore {
    capacity: usize,
    index: HashMap<ContentId, usize>,
    items: Vec<LfuItem>,
    buckets: Vec<LfuBucket>,
    /// Free slots in `buckets` (item slots stay dense via swap-remove).
    free_buckets: Vec<usize>,
    /// Lowest-frequency bucket (`NIL` when empty).
    min_bucket: usize,
}

impl LfuStore {
    /// Creates an empty LFU store with the given capacity.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            index: HashMap::with_capacity(capacity.min(1 << 20)),
            items: Vec::with_capacity(capacity.min(1 << 20)),
            buckets: Vec::new(),
            free_buckets: Vec::new(),
            min_bucket: NIL,
        }
    }

    fn alloc_bucket(&mut self, bucket: LfuBucket) -> usize {
        match self.free_buckets.pop() {
            Some(slot) => {
                self.buckets[slot] = bucket;
                slot
            }
            None => {
                self.buckets.push(bucket);
                self.buckets.len() - 1
            }
        }
    }

    /// Appends item `slot` to bucket `b`'s tail (most recent end).
    fn append_item(&mut self, b: usize, slot: usize) {
        let tail = self.buckets[b].tail;
        self.items[slot].bucket = b;
        self.items[slot].prev = tail;
        self.items[slot].next = NIL;
        match tail {
            NIL => self.buckets[b].head = slot,
            t => self.items[t].next = slot,
        }
        self.buckets[b].tail = slot;
    }

    /// Detaches item `slot` from its bucket, freeing the bucket if it
    /// empties.
    fn detach_item(&mut self, slot: usize) {
        let LfuItem { bucket: b, prev, next, .. } = self.items[slot];
        match prev {
            NIL => self.buckets[b].head = next,
            p => self.items[p].next = next,
        }
        match next {
            NIL => self.buckets[b].tail = prev,
            n => self.items[n].prev = prev,
        }
        if self.buckets[b].head == NIL {
            let LfuBucket { prev, next, .. } = self.buckets[b];
            match prev {
                NIL => self.min_bucket = next,
                p => self.buckets[p].next = next,
            }
            if next != NIL {
                self.buckets[next].prev = prev;
            }
            self.free_buckets.push(b);
        }
    }

    /// Moves item `slot` from its bucket at frequency `f` to the
    /// bucket at `f + 1`, creating that bucket if needed.
    fn promote(&mut self, slot: usize) {
        let b = self.items[slot].bucket;
        let freq = self.buckets[b].freq;
        let next = self.buckets[b].next;
        // Find or create the f+1 bucket *before* detaching, because
        // detaching may free bucket `b` and recycle its slot.
        let target = if next != NIL && self.buckets[next].freq == freq + 1 {
            next
        } else {
            let t = self.alloc_bucket(LfuBucket {
                freq: freq + 1,
                head: NIL,
                tail: NIL,
                prev: b,
                next,
            });
            self.buckets[b].next = t;
            if next != NIL {
                self.buckets[next].prev = t;
            }
            t
        };
        self.detach_item(slot);
        // If detaching freed `b`, splice the target down to take its
        // place in the bucket chain.
        if self.free_buckets.last() == Some(&b) {
            let prev = self.buckets[b].prev;
            self.buckets[target].prev = prev;
            match prev {
                NIL => self.min_bucket = target,
                p => self.buckets[p].next = target,
            }
        }
        self.append_item(target, slot);
    }

    /// Evicts the oldest item of the lowest-frequency bucket.
    fn evict(&mut self) -> ContentId {
        let slot = self.buckets[self.min_bucket].head;
        let victim = self.items[slot].content;
        self.detach_item(slot);
        self.index.remove(&victim);
        // Swap-remove to keep the item slab dense.
        let last = self.items.len() - 1;
        if slot != last {
            let moved = self.items[last];
            self.items[slot] = moved;
            *self.index.get_mut(&moved.content).expect("moved item is indexed") = slot;
            match moved.prev {
                NIL => self.buckets[moved.bucket].head = slot,
                p => self.items[p].next = slot,
            }
            match moved.next {
                NIL => self.buckets[moved.bucket].tail = slot,
                n => self.items[n].prev = slot,
            }
        }
        self.items.pop();
        victim
    }

    /// Inserts a brand-new item at frequency 1.
    fn insert_new(&mut self, content: ContentId) {
        let target = if self.min_bucket != NIL && self.buckets[self.min_bucket].freq == 1 {
            self.min_bucket
        } else {
            let t = self.alloc_bucket(LfuBucket {
                freq: 1,
                head: NIL,
                tail: NIL,
                prev: NIL,
                next: self.min_bucket,
            });
            if self.min_bucket != NIL {
                self.buckets[self.min_bucket].prev = t;
            }
            self.min_bucket = t;
            t
        };
        let slot = self.items.len();
        self.items.push(LfuItem { content, bucket: target, prev: NIL, next: NIL });
        self.index.insert(content, slot);
        self.append_item(target, slot);
    }
}

impl ContentStore for LfuStore {
    fn contains(&self, content: ContentId) -> bool {
        self.index.contains_key(&content)
    }

    fn on_hit(&mut self, content: ContentId) {
        if let Some(&slot) = self.index.get(&content) {
            self.promote(slot);
        }
    }

    fn on_data(&mut self, content: ContentId) -> Option<ContentId> {
        if self.capacity == 0 {
            return None;
        }
        if let Some(&slot) = self.index.get(&content) {
            self.promote(slot);
            return None;
        }
        let evicted = (self.items.len() >= self.capacity).then(|| self.evict());
        self.insert_new(content);
        evicted
    }

    fn len(&self) -> usize {
        self.items.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    /// Eviction order: ascending frequency, oldest-touched first
    /// within each frequency.
    fn contents(&self) -> Vec<ContentId> {
        let mut out = Vec::with_capacity(self.items.len());
        let mut b = self.min_bucket;
        while b != NIL {
            let mut slot = self.buckets[b].head;
            while slot != NIL {
                out.push(self.items[slot].content);
                slot = self.items[slot].next;
            }
            b = self.buckets[b].next;
        }
        out
    }
}

/// First-in-first-out replacement.
#[derive(Debug)]
pub struct FifoStore {
    capacity: usize,
    queue: VecDeque<ContentId>,
    members: HashSet<ContentId>,
}

impl FifoStore {
    /// Creates an empty FIFO store with the given capacity.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self { capacity, queue: VecDeque::new(), members: HashSet::new() }
    }
}

impl ContentStore for FifoStore {
    fn contains(&self, content: ContentId) -> bool {
        self.members.contains(&content)
    }

    fn on_hit(&mut self, _content: ContentId) {}

    fn on_data(&mut self, content: ContentId) -> Option<ContentId> {
        if self.capacity == 0 || self.members.contains(&content) {
            return None;
        }
        let evicted = if self.queue.len() >= self.capacity {
            let victim = self.queue.pop_front();
            if let Some(v) = victim {
                self.members.remove(&v);
            }
            victim
        } else {
            None
        };
        self.queue.push_back(content);
        self.members.insert(content);
        evicted
    }

    fn len(&self) -> usize {
        self.queue.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    /// Eviction (insertion) order: oldest first.
    fn contents(&self) -> Vec<ContentId> {
        self.queue.iter().copied().collect()
    }
}

/// Random replacement with a seeded generator (deterministic runs).
#[derive(Debug)]
pub struct RandomStore {
    capacity: usize,
    items: Vec<ContentId>,
    members: HashSet<ContentId>,
    rng: StdRng,
}

impl RandomStore {
    /// Creates an empty random-replacement store.
    #[must_use]
    pub fn new(capacity: usize, seed: u64) -> Self {
        Self {
            capacity,
            items: Vec::new(),
            members: HashSet::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl ContentStore for RandomStore {
    fn contains(&self, content: ContentId) -> bool {
        self.members.contains(&content)
    }

    fn on_hit(&mut self, _content: ContentId) {}

    fn on_data(&mut self, content: ContentId) -> Option<ContentId> {
        if self.capacity == 0 || self.members.contains(&content) {
            return None;
        }
        let evicted = if self.items.len() >= self.capacity {
            let idx = self.rng.gen_range(0..self.items.len());
            let victim = self.items.swap_remove(idx);
            self.members.remove(&victim);
            Some(victim)
        } else {
            None
        };
        self.items.push(content);
        self.members.insert(content);
        evicted
    }

    fn len(&self) -> usize {
        self.items.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    /// Slab order — deterministic for a fixed seed and op sequence.
    fn contents(&self) -> Vec<ContentId> {
        self.items.clone()
    }
}

/// Largest rank (inclusive) covered by [`StaticStore`]'s dense bitset:
/// 2^27 bits = 16 MiB. Catalogues up to ~1.3·10^8 contents get
/// branch-free membership tests; rarer out-of-range ranks fall back to
/// a hash probe.
const STATIC_BITSET_MAX_RANK: u64 = 1 << 27;

/// A pinned store: holds a fixed content set and never replaces it —
/// the steady-state store of the model's provisioning strategies.
///
/// Membership is a dense bitset over ranks (the simulator probes
/// `contains` on every traversed router for every Interest, so this is
/// the single hottest query in coordinated runs); ranks beyond
/// [`STATIC_BITSET_MAX_RANK`] spill into a hash set.
#[derive(Debug)]
pub struct StaticStore {
    /// Pinned ranks, ascending (the deterministic snapshot order).
    sorted: Vec<ContentId>,
    /// Bit `r` set ⇔ rank `r` pinned, for ranks ≤ the bitset bound.
    bits: Vec<u64>,
    /// Pinned ranks beyond the bitset bound (normally empty).
    spill: HashSet<ContentId>,
}

impl StaticStore {
    /// Creates a static store pinning exactly `contents` (capacity
    /// equals the pinned set size).
    #[must_use]
    pub fn new(contents: impl IntoIterator<Item = ContentId>) -> Self {
        let mut sorted: Vec<ContentId> = contents.into_iter().collect();
        sorted.sort_unstable();
        sorted.dedup();
        let dense_max =
            sorted.iter().map(|c| c.rank()).filter(|&r| r <= STATIC_BITSET_MAX_RANK).max();
        let mut bits = vec![0u64; dense_max.map_or(0, |m| m as usize / 64 + 1)];
        let mut spill = HashSet::new();
        for c in &sorted {
            let r = c.rank();
            if r <= STATIC_BITSET_MAX_RANK {
                bits[(r / 64) as usize] |= 1 << (r % 64);
            } else {
                spill.insert(*c);
            }
        }
        Self { sorted, bits, spill }
    }

    /// A static store holding the popularity prefix `1..=k` plus one
    /// coordinated slice `[slice_start, slice_end)` — the model's
    /// hybrid layout for a single router.
    #[must_use]
    pub fn hybrid(local_prefix: u64, slice_start: u64, slice_end: u64) -> Self {
        Self::new(
            (1..=local_prefix).chain(slice_start..slice_end).map(ContentId).collect::<Vec<_>>(),
        )
    }
}

impl ContentStore for StaticStore {
    fn contains(&self, content: ContentId) -> bool {
        let r = content.rank();
        let word = (r / 64) as usize;
        if word < self.bits.len() {
            (self.bits[word] >> (r % 64)) & 1 != 0
        } else {
            !self.spill.is_empty() && self.spill.contains(&content)
        }
    }

    fn on_hit(&mut self, _content: ContentId) {}

    fn on_data(&mut self, _content: ContentId) -> Option<ContentId> {
        None
    }

    fn len(&self) -> usize {
        self.sorted.len()
    }

    fn capacity(&self) -> usize {
        self.sorted.len()
    }

    /// Ascending rank order.
    fn contents(&self) -> Vec<ContentId> {
        self.sorted.clone()
    }
}

/// O(n)-per-eviction store implementations kept as *reference
/// models*: the property tests check the O(1) structures against them
/// over random operation sequences.
#[cfg(test)]
mod reference {
    use std::collections::HashMap;

    use super::ContentStore;
    use crate::ContentId;

    /// O(n)-eviction LRU: content → last-touch timestamp, victim found
    /// by a full scan.
    #[derive(Debug)]
    pub struct NaiveLruStore {
        capacity: usize,
        /// content → logical timestamp of last touch.
        entries: HashMap<ContentId, u64>,
        clock: u64,
    }

    impl NaiveLruStore {
        /// Creates an empty naive LRU store with the given capacity.
        #[must_use]
        pub fn new(capacity: usize) -> Self {
            Self { capacity, entries: HashMap::new(), clock: 0 }
        }

        fn touch(&mut self, content: ContentId) {
            self.clock += 1;
            self.entries.insert(content, self.clock);
        }

        fn evict_lru(&mut self) -> Option<ContentId> {
            let victim = self.entries.iter().min_by_key(|(_, &t)| t).map(|(&c, _)| c)?;
            self.entries.remove(&victim);
            Some(victim)
        }
    }

    impl ContentStore for NaiveLruStore {
        fn contains(&self, content: ContentId) -> bool {
            self.entries.contains_key(&content)
        }

        fn on_hit(&mut self, content: ContentId) {
            if self.entries.contains_key(&content) {
                self.touch(content);
            }
        }

        fn on_data(&mut self, content: ContentId) -> Option<ContentId> {
            if self.capacity == 0 {
                return None;
            }
            if self.entries.contains_key(&content) {
                self.touch(content);
                return None;
            }
            let evicted = if self.entries.len() >= self.capacity { self.evict_lru() } else { None };
            self.touch(content);
            evicted
        }

        fn len(&self) -> usize {
            self.entries.len()
        }

        fn capacity(&self) -> usize {
            self.capacity
        }

        /// Least- to most-recently used (sorted by timestamp), so
        /// snapshots compare directly against [`super::LruStore`].
        fn contents(&self) -> Vec<ContentId> {
            let mut pairs: Vec<(u64, ContentId)> =
                self.entries.iter().map(|(&c, &t)| (t, c)).collect();
            pairs.sort_unstable();
            pairs.into_iter().map(|(_, c)| c).collect()
        }
    }

    /// O(n)-eviction LFU: content → (count, last touch), victim found
    /// by a full scan.
    #[derive(Debug)]
    pub struct NaiveLfuStore {
        capacity: usize,
        /// content → (hit count, last-touch timestamp).
        entries: HashMap<ContentId, (u64, u64)>,
        clock: u64,
    }

    impl NaiveLfuStore {
        /// Creates an empty naive LFU store with the given capacity.
        #[must_use]
        pub fn new(capacity: usize) -> Self {
            Self { capacity, entries: HashMap::new(), clock: 0 }
        }
    }

    impl ContentStore for NaiveLfuStore {
        fn contains(&self, content: ContentId) -> bool {
            self.entries.contains_key(&content)
        }

        fn on_hit(&mut self, content: ContentId) {
            self.clock += 1;
            if let Some(e) = self.entries.get_mut(&content) {
                e.0 += 1;
                e.1 = self.clock;
            }
        }

        fn on_data(&mut self, content: ContentId) -> Option<ContentId> {
            if self.capacity == 0 {
                return None;
            }
            self.clock += 1;
            if let Some(e) = self.entries.get_mut(&content) {
                e.0 += 1;
                e.1 = self.clock;
                return None;
            }
            let evicted = if self.entries.len() >= self.capacity {
                let victim = self
                    .entries
                    .iter()
                    .min_by_key(|(_, &(count, last))| (count, last))
                    .map(|(&c, _)| c);
                if let Some(v) = victim {
                    self.entries.remove(&v);
                }
                victim
            } else {
                None
            };
            self.entries.insert(content, (1, self.clock));
            evicted
        }

        fn len(&self) -> usize {
            self.entries.len()
        }

        fn capacity(&self) -> usize {
            self.capacity
        }

        /// Ascending (count, last touch) — eviction order, comparable
        /// against [`super::LfuStore`] snapshots.
        fn contents(&self) -> Vec<ContentId> {
            let mut triples: Vec<(u64, u64, ContentId)> =
                self.entries.iter().map(|(&c, &(n, t))| (n, t, c)).collect();
            triples.sort_unstable();
            triples.into_iter().map(|(_, _, c)| c).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(rank: u64) -> ContentId {
        ContentId(rank)
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut s = LruStore::new(2);
        assert_eq!(s.on_data(c(1)), None);
        assert_eq!(s.on_data(c(2)), None);
        s.on_hit(c(1)); // 2 is now least recent
        assert_eq!(s.on_data(c(3)), Some(c(2)));
        assert!(s.contains(c(1)) && s.contains(c(3)) && !s.contains(c(2)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn lru_reinsert_refreshes_without_eviction() {
        let mut s = LruStore::new(2);
        s.on_data(c(1));
        s.on_data(c(2));
        assert_eq!(s.on_data(c(1)), None); // refresh, no eviction
        assert_eq!(s.on_data(c(3)), Some(c(2)));
    }

    #[test]
    fn lru_contents_in_eviction_order() {
        let mut s = LruStore::new(3);
        s.on_data(c(1));
        s.on_data(c(2));
        s.on_data(c(3));
        s.on_hit(c(1));
        assert_eq!(s.contents(), vec![c(2), c(3), c(1)]);
    }

    #[test]
    fn lfu_evicts_least_frequent() {
        let mut s = LfuStore::new(2);
        s.on_data(c(1));
        s.on_data(c(2));
        s.on_hit(c(1));
        s.on_hit(c(1));
        s.on_hit(c(2));
        // 2 has fewer hits than 1.
        assert_eq!(s.on_data(c(3)), Some(c(2)));
        assert!(s.contains(c(1)));
    }

    #[test]
    fn lfu_ties_break_by_recency() {
        let mut s = LfuStore::new(2);
        s.on_data(c(1));
        s.on_data(c(2)); // both count 1; 1 older
        assert_eq!(s.on_data(c(3)), Some(c(1)));
    }

    #[test]
    fn lfu_contents_in_eviction_order() {
        let mut s = LfuStore::new(3);
        s.on_data(c(1));
        s.on_data(c(2));
        s.on_data(c(3));
        s.on_hit(c(2)); // counts: 1→1, 2→2, 3→1; eviction order 1, 3, 2
        assert_eq!(s.contents(), vec![c(1), c(3), c(2)]);
    }

    #[test]
    fn fifo_ignores_hits() {
        let mut s = FifoStore::new(2);
        s.on_data(c(1));
        s.on_data(c(2));
        s.on_hit(c(1)); // FIFO does not care
        assert_eq!(s.on_data(c(3)), Some(c(1)));
    }

    #[test]
    fn random_store_is_bounded_and_deterministic() {
        let run = |seed| {
            let mut s = RandomStore::new(3, seed);
            let mut evicted = Vec::new();
            for i in 1..=10 {
                if let Some(v) = s.on_data(c(i)) {
                    evicted.push(v);
                }
            }
            assert_eq!(s.len(), 3);
            evicted
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn static_store_never_changes() {
        let mut s = StaticStore::new([c(1), c(5)]);
        assert_eq!(s.on_data(c(9)), None);
        assert!(!s.contains(c(9)));
        assert!(s.contains(c(5)));
        assert_eq!(s.len(), 2);
        assert_eq!(s.capacity(), 2);
    }

    #[test]
    fn static_store_contents_sorted_and_deduped() {
        let s = StaticStore::new([c(9), c(2), c(9), c(4)]);
        assert_eq!(s.contents(), vec![c(2), c(4), c(9)]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn static_store_handles_ranks_beyond_the_bitset() {
        let huge = STATIC_BITSET_MAX_RANK + 12;
        let s = StaticStore::new([c(3), c(huge)]);
        assert!(s.contains(c(3)));
        assert!(s.contains(c(huge)));
        assert!(!s.contains(c(huge + 1)));
        assert!(!s.contains(c(4)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn hybrid_layout_prefix_plus_slice() {
        // c = 5, x = 2: local prefix 1..=3, slice ranks [10, 12).
        let s = StaticStore::hybrid(3, 10, 12);
        for r in 1..=3 {
            assert!(s.contains(c(r)), "prefix rank {r}");
        }
        assert!(s.contains(c(10)) && s.contains(c(11)));
        assert!(!s.contains(c(4)) && !s.contains(c(12)));
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn zero_capacity_stores_stay_empty() {
        let mut stores: Vec<Box<dyn ContentStore>> = vec![
            Box::new(LruStore::new(0)),
            Box::new(LfuStore::new(0)),
            Box::new(FifoStore::new(0)),
            Box::new(RandomStore::new(0, 1)),
        ];
        for s in &mut stores {
            assert_eq!(s.on_data(c(1)), None);
            assert!(s.is_empty(), "{s:?}");
        }
    }

    #[test]
    fn policies_never_exceed_capacity() {
        let mut stores: Vec<Box<dyn ContentStore>> = vec![
            Box::new(LruStore::new(4)),
            Box::new(LfuStore::new(4)),
            Box::new(FifoStore::new(4)),
            Box::new(RandomStore::new(4, 7)),
        ];
        for s in &mut stores {
            for i in 1..=100 {
                s.on_data(c(i));
                s.on_hit(c(i / 2 + 1));
                assert!(s.len() <= 4, "{s:?}");
            }
            assert_eq!(s.len(), 4);
            assert_eq!(s.contents().len(), 4);
        }
    }
}

#[cfg(test)]
mod equivalence_tests {
    //! Differential tests: the O(1) stores must be operationally
    //! indistinguishable from the seed's naive implementations over
    //! random operation sequences — same eviction decisions, same
    //! membership, same deterministic snapshot order — including the
    //! capacity-0 and capacity-1 edges.

    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::reference::{NaiveLfuStore, NaiveLruStore};
    use super::*;

    /// Drives both stores through an identical random op sequence,
    /// checking observable equivalence after every step.
    fn check_equivalence(
        fast: &mut dyn ContentStore,
        naive: &mut dyn ContentStore,
        seed: u64,
        universe: u64,
        ops: usize,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let mut rng = StdRng::seed_from_u64(seed);
        for step in 0..ops {
            let rank = rng.gen_range(1..=universe);
            if rng.gen_range(0u32..3) == 0 {
                fast.on_hit(ContentId(rank));
                naive.on_hit(ContentId(rank));
            } else {
                let a = fast.on_data(ContentId(rank));
                let b = naive.on_data(ContentId(rank));
                prop_assert_eq!(a, b, "step {}: eviction mismatch", step);
            }
            prop_assert_eq!(fast.len(), naive.len(), "step {}: len mismatch", step);
            prop_assert_eq!(
                fast.contains(ContentId(rank)),
                naive.contains(ContentId(rank)),
                "step {}: membership mismatch",
                step
            );
        }
        prop_assert_eq!(fast.contents(), naive.contents(), "final snapshot order mismatch");
        Ok(())
    }

    proptest! {
        #[test]
        fn lru_matches_naive_reference(
            capacity in 0usize..12,
            universe in 1u64..24,
            seed in 0u64..1_000_000,
        ) {
            let mut fast = LruStore::new(capacity);
            let mut naive = NaiveLruStore::new(capacity);
            check_equivalence(&mut fast, &mut naive, seed, universe, 400)?;
        }

        #[test]
        fn lfu_matches_naive_reference(
            capacity in 0usize..12,
            universe in 1u64..24,
            seed in 0u64..1_000_000,
        ) {
            let mut fast = LfuStore::new(capacity);
            let mut naive = NaiveLfuStore::new(capacity);
            check_equivalence(&mut fast, &mut naive, seed, universe, 400)?;
        }
    }

    #[test]
    fn capacity_edges_match_exactly() {
        for capacity in [0usize, 1] {
            let mut fast = LruStore::new(capacity);
            let mut naive = NaiveLruStore::new(capacity);
            check_equivalence(&mut fast, &mut naive, 7, 4, 600).unwrap();
            let mut fast = LfuStore::new(capacity);
            let mut naive = NaiveLfuStore::new(capacity);
            check_equivalence(&mut fast, &mut naive, 7, 4, 600).unwrap();
        }
    }

    #[test]
    fn lru_remove_keeps_structure_consistent() {
        // Exercises the SLRU promotion path (`LruStore::remove`) with
        // interleaved removals against recomputed expectations.
        let mut s = LruStore::new(4);
        for r in 1..=4 {
            s.on_data(ContentId(r));
        }
        assert!(s.remove(ContentId(2)));
        assert!(!s.remove(ContentId(2)));
        assert_eq!(s.len(), 3);
        assert_eq!(s.contents(), vec![ContentId(1), ContentId(3), ContentId(4)]);
        s.on_data(ContentId(9));
        s.on_hit(ContentId(1));
        assert_eq!(s.contents(), vec![ContentId(3), ContentId(4), ContentId(9), ContentId(1)]);
        assert!(s.remove(ContentId(1)));
        assert_eq!(s.on_data(ContentId(10)), None);
        assert_eq!(s.len(), 4);
    }
}

/// Segmented LRU (SLRU): a probationary LRU segment and a protected
/// LRU segment. New contents enter probation; a hit promotes to the
/// protected segment (demoting its LRU victim back to probation).
/// Scan-resistant: one-hit wonders never displace proven contents.
#[derive(Debug)]
pub struct SlruStore {
    probation: LruStore,
    protected: LruStore,
}

impl SlruStore {
    /// Creates an SLRU store with the given segment capacities.
    #[must_use]
    pub fn new(probation_capacity: usize, protected_capacity: usize) -> Self {
        Self {
            probation: LruStore::new(probation_capacity),
            protected: LruStore::new(protected_capacity),
        }
    }

    /// Splits a total capacity 20/80 between probation and protection
    /// (the classic SLRU ratio).
    #[must_use]
    pub fn with_total_capacity(total: usize) -> Self {
        let probation = (total / 5).max(usize::from(total > 0));
        Self::new(probation.min(total), total - probation.min(total))
    }
}

impl ContentStore for SlruStore {
    fn contains(&self, content: ContentId) -> bool {
        self.probation.contains(content) || self.protected.contains(content)
    }

    fn on_hit(&mut self, content: ContentId) {
        if self.protected.contains(content) {
            self.protected.on_hit(content);
            return;
        }
        if self.probation.contains(content) {
            // Promote; a displaced protected victim falls back to
            // probation (standard SLRU demotion).
            self.probation.remove(content);
            if let Some(demoted) = self.protected.on_data(content) {
                self.probation.on_data(demoted);
            }
        }
    }

    fn on_data(&mut self, content: ContentId) -> Option<ContentId> {
        if self.contains(content) {
            self.on_hit(content);
            return None;
        }
        self.probation.on_data(content)
    }

    fn len(&self) -> usize {
        self.probation.len() + self.protected.len()
    }

    fn capacity(&self) -> usize {
        self.probation.capacity() + self.protected.capacity()
    }

    /// Probation in eviction order, then protected in eviction order.
    fn contents(&self) -> Vec<ContentId> {
        let mut all = self.probation.contents();
        all.extend(self.protected.contents());
        all
    }
}

#[cfg(test)]
mod slru_tests {
    use super::*;

    fn c(rank: u64) -> ContentId {
        ContentId(rank)
    }

    #[test]
    fn new_contents_enter_probation_only() {
        let mut s = SlruStore::new(2, 2);
        s.on_data(c(1));
        s.on_data(c(2));
        assert_eq!(s.len(), 2);
        // A third insert evicts from probation, never touching the
        // (empty) protected segment.
        let evicted = s.on_data(c(3));
        assert_eq!(evicted, Some(c(1)));
    }

    #[test]
    fn hits_promote_to_protected() {
        let mut s = SlruStore::new(1, 2);
        s.on_data(c(1));
        s.on_hit(c(1)); // promoted
        s.on_data(c(2));
        s.on_data(c(3)); // evicts 2 from probation, 1 survives
        assert!(s.contains(c(1)));
        assert!(s.contains(c(3)));
        assert!(!s.contains(c(2)));
    }

    #[test]
    fn scan_resistance() {
        // Two proven-hot contents survive a scan of 20 one-hit wonders.
        let mut s = SlruStore::new(2, 2);
        s.on_data(c(100));
        s.on_hit(c(100));
        s.on_data(c(200));
        s.on_hit(c(200));
        for i in 1..=20 {
            s.on_data(c(i));
        }
        assert!(s.contains(c(100)) && s.contains(c(200)), "protected survived the scan");
        assert!(s.len() <= s.capacity());
    }

    #[test]
    fn protected_overflow_demotes_to_probation() {
        let mut s = SlruStore::new(2, 1);
        s.on_data(c(1));
        s.on_hit(c(1)); // 1 protected
        s.on_data(c(2));
        s.on_hit(c(2)); // 2 protected, 1 demoted to probation
        assert!(s.contains(c(1)), "demoted, not dropped");
        assert!(s.contains(c(2)));
    }

    #[test]
    fn total_capacity_split() {
        let s = SlruStore::with_total_capacity(10);
        assert_eq!(s.capacity(), 10);
        let tiny = SlruStore::with_total_capacity(1);
        assert_eq!(tiny.capacity(), 1);
        let zero = SlruStore::with_total_capacity(0);
        assert_eq!(zero.capacity(), 0);
    }

    #[test]
    fn reinsertion_counts_as_hit() {
        let mut s = SlruStore::new(1, 1);
        s.on_data(c(1));
        assert_eq!(s.on_data(c(1)), None); // promotes instead of evicting
        s.on_data(c(2));
        s.on_data(c(3)); // probation churn
        assert!(s.contains(c(1)), "promoted entry survives churn");
    }
}
