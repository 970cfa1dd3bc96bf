//! Bounded multi-producer / single-consumer ring queue — the engine's
//! purpose-built replacement for the `std::sync::mpsc::sync_channel`
//! hop on the shard request path.
//!
//! `sync_channel` takes a mutex on every send and allocates per
//! channel; under open-loop load that mutex (plus a condvar wake) is
//! paid *per request*. This ring makes the uncontended enqueue a
//! couple of atomic operations and, crucially, supports **batch
//! reservation**: a run of `n` jobs claims its slots with a single
//! compare-and-swap, so the queue-hop cost is amortized across the
//! whole run (the same discipline memcached-derived and LMAX-style
//! servers use to survive per-op coordination costs).
//!
//! # Design
//!
//! A power-of-two slot array indexed by monotonically increasing
//! `u64` positions (`pos & mask`), in the style of D. Vyukov's
//! bounded queue, restricted to one consumer:
//!
//! - `tail` is the next unclaimed producer position. Producers claim
//!   `[tail, tail+n)` by CAS-ing `tail` forward once per batch.
//! - `head` is the next unconsumed position, advanced only by the
//!   single consumer.
//! - Each slot carries a `seq` word that *publishes* it: after
//!   writing the value for position `p`, the producer stores
//!   `seq = p + 1`. The consumer treats a slot as readable only when
//!   `seq == p + 1`, which tolerates out-of-order publication among
//!   racing producers.
//!
//! # Single-producer mode
//!
//! A ring built with [`Mode::Spsc`] has exactly one producer at a
//! time for its whole life (the engine's per-shard completion lanes:
//! only the lane's shard worker ever publishes into one). The claim
//! CAS — the one contended RMW on the enqueue path — is then a plain
//! load + plain store of `tail`, because a lone producer's snapshot
//! can never go stale. Publication (`seq`) and reuse (`head`) edges
//! are unchanged, so the consumer side is oblivious to the mode and
//! the observable behaviour is identical (property-tested against the
//! MPSC path below). The mode is fixed by [`ring_with`]; a second
//! concurrent producer on an SPSC ring is a data race on the slot
//! array, so debug builds carry an overlap detector that panics if
//! two claims ever interleave.
//!
//! # Why this is sound (Loom-style reasoning)
//!
//! The two hazards are a producer overwriting a slot the consumer is
//! still reading, and the consumer reading a value the producer has
//! not finished writing. Both reduce to two happens-before edges:
//!
//! 1. **publish**: producer writes value, then `seq.store(p + 1,
//!    Release)`; the consumer's `seq.load(Acquire) == p + 1` pairs
//!    with it, so the value write happens-before the value read.
//! 2. **reuse**: the consumer finishes reading position `q`, *then*
//!    stores `head ≥ q + 1` (Release). A producer claims position
//!    `p` only after observing `p < head + capacity` via
//!    `head.load(Acquire)`, i.e. only after observing a head store
//!    that happens-after the read of position `p − capacity` from the
//!    same slot. So the old read happens-before the new write.
//!
//! Claims are serialized by the CAS on `tail` (`u64` positions never
//! wrap in practice — 2⁶⁴ operations — so there is no ABA); in SPSC
//! mode they are serialized by the caller's single-producer contract
//! instead. The consumer is single-threaded by construction:
//! [`Consumer`] is not `Clone` and its methods take `&mut self`.
//!
//! One more subtlety: a producer's `tail` snapshot can go stale
//! between loading it and loading `head` — another producer advances
//! the real tail and the consumer then moves `head` *past* the
//! snapshot. Both MPSC claim loops detect `head > tail` and refresh
//! the snapshot instead of computing a wrapped occupancy (the stale
//! CAS would have failed anyway). In the other direction the snapshot
//! is a lower bound of the real occupancy, so a `full` verdict is
//! never spurious. In SPSC mode the snapshot is exact — only this
//! producer moves `tail` — so neither hazard exists.
//!
//! A producer that panics between claiming slots and publishing them
//! stalls the consumer at the unpublished position (and leaks the
//! claimed slots at drop); the engine's producers only move `Send`
//! data into slots, which cannot panic.
//!
//! The single-threaded semantics (FIFO per producer, capacity bound,
//! batch claim/drain equivalence to singles) are property-tested
//! against a `VecDeque` model below — in both modes, plus a direct
//! MPSC-vs-SPSC equivalence run; a cross-thread stress test checks
//! per-producer order and loss-freedom under contention, and a
//! handoff test exercises SPSC across threads with a happens-before
//! edge between producers.

// The one module in the engine allowed to define unsafe code: the
// slot array needs `UnsafeCell<MaybeUninit<T>>` for racing
// initialization. Every unsafe block cites the happens-before
// argument above.
#![allow(unsafe_code)]

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::pad::CachePadded;

/// Producer-side coordination discipline of a ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Any number of concurrent producers; slots claimed by CAS.
    Mpsc,
    /// Exactly one producer at a time; slots claimed by a plain
    /// load + store of `tail`. Concurrent producers are a data race.
    Spsc,
}

struct Slot<T> {
    /// Publication word: `p + 1` once position `p`'s value is ready.
    seq: AtomicU64,
    value: UnsafeCell<MaybeUninit<T>>,
}

struct RingInner<T> {
    slots: Box<[Slot<T>]>,
    mask: u64,
    /// Claim discipline, fixed at construction.
    mode: Mode,
    /// Debug-only overlap detector: set while an SPSC claim is in
    /// flight so a racing second producer panics instead of silently
    /// corrupting the slot array.
    #[cfg(debug_assertions)]
    spsc_claim: std::sync::atomic::AtomicBool,
    /// Next position a producer may claim. Padded: producers hammer
    /// `tail` while the consumer hammers `head`; sharing a line would
    /// make every claim and every drain invalidate the other side.
    tail: CachePadded<AtomicU64>,
    /// Next position the consumer will read.
    head: CachePadded<AtomicU64>,
}

// SAFETY: slots are plain storage; cross-thread transfer of T is
// gated on the Release/Acquire protocol documented above, so sharing
// the ring between threads is safe exactly when T itself is Send.
unsafe impl<T: Send> Send for RingInner<T> {}
unsafe impl<T: Send> Sync for RingInner<T> {}

impl<T> Drop for RingInner<T> {
    fn drop(&mut self) {
        // Exclusive access (`&mut self`): drop every published,
        // unconsumed value. Claimed-but-unpublished slots (producer
        // panic mid-batch) are leaked, never double-dropped.
        let head = *self.head.get_mut();
        let tail = *self.tail.get_mut();
        for pos in head..tail {
            let slot = &self.slots[(pos & self.mask) as usize];
            if slot.seq.load(Ordering::Relaxed) == pos + 1 {
                // SAFETY: seq == pos + 1 means the value was fully
                // written and never read (head never passed it).
                unsafe { (*slot.value.get()).assume_init_drop() };
            }
        }
    }
}

/// Debug-build guard asserting SPSC claims never overlap. Entering
/// while another claim is in flight panics — turning a silent data
/// race into a loud test failure.
#[cfg(debug_assertions)]
struct SpscClaimGuard<'a> {
    flag: &'a std::sync::atomic::AtomicBool,
}

#[cfg(debug_assertions)]
impl<'a> SpscClaimGuard<'a> {
    fn enter(flag: &'a std::sync::atomic::AtomicBool) -> Self {
        assert!(
            !flag.swap(true, Ordering::Acquire),
            "two producers claimed concurrently on an SPSC ring — \
             the single-producer contract was violated"
        );
        Self { flag }
    }
}

#[cfg(debug_assertions)]
impl Drop for SpscClaimGuard<'_> {
    fn drop(&mut self) {
        self.flag.store(false, Ordering::Release);
    }
}

/// Creates a bounded **MPSC** ring with room for at least `capacity`
/// values (rounded up to the next power of two), returning the
/// shareable producer side and the unique consumer side.
///
/// # Panics
///
/// Panics if `capacity` is zero.
#[must_use]
pub fn ring<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    ring_with(capacity, Mode::Mpsc)
}

/// Creates a bounded ring in an explicit [`Mode`]. `Mode::Spsc` rings
/// carry the single-producer contract: the caller must
/// guarantee at most one thread pushes at a time, with a
/// happens-before edge between successive producing threads (a
/// thread join or message handoff). [`Producer`] is still `Clone` —
/// the contract is *at most one pushing at a time*, not *one handle*.
///
/// # Panics
///
/// Panics if `capacity` is zero.
#[must_use]
pub fn ring_with<T>(capacity: usize, mode: Mode) -> (Producer<T>, Consumer<T>) {
    assert!(capacity >= 1, "ring capacity must be at least 1");
    let cap = capacity.next_power_of_two();
    let slots = (0..cap)
        .map(|_| Slot { seq: AtomicU64::new(0), value: UnsafeCell::new(MaybeUninit::uninit()) })
        .collect::<Vec<_>>()
        .into_boxed_slice();
    let inner = Arc::new(RingInner {
        slots,
        mask: cap as u64 - 1,
        mode,
        #[cfg(debug_assertions)]
        spsc_claim: std::sync::atomic::AtomicBool::new(false),
        tail: CachePadded::new(AtomicU64::new(0)),
        head: CachePadded::new(AtomicU64::new(0)),
    });
    (Producer { inner: Arc::clone(&inner) }, Consumer { inner, head: 0 })
}

/// Shareable enqueue side of a [`ring`]. Cloning is cheap; any number
/// of threads may push concurrently in MPSC mode, at most one at a
/// time in SPSC mode.
pub struct Producer<T> {
    inner: Arc<RingInner<T>>,
}

impl<T> Clone for Producer<T> {
    fn clone(&self) -> Self {
        Self { inner: Arc::clone(&self.inner) }
    }
}

impl<T> Producer<T> {
    /// Usable capacity of the ring.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.inner.slots.len()
    }

    /// Values currently claimed but not yet consumed (approximate
    /// under concurrency; exact when the ring is quiescent).
    #[must_use]
    pub fn len(&self) -> usize {
        let tail = self.inner.tail.load(Ordering::Relaxed);
        let head = self.inner.head.load(Ordering::Relaxed);
        tail.saturating_sub(head) as usize
    }

    /// Whether the ring currently holds nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The claim discipline the ring was built with.
    #[must_use]
    pub fn mode(&self) -> Mode {
        self.inner.mode
    }

    /// Enqueues one value, returning it if the ring is full.
    ///
    /// # Errors
    ///
    /// Returns `Err(value)` when no slot is free.
    pub fn try_push(&self, value: T) -> Result<(), T> {
        if self.mode() == Mode::Spsc {
            return self.try_push_spsc(value);
        }
        let inner = &*self.inner;
        let cap = inner.slots.len() as u64;
        let mut tail = inner.tail.load(Ordering::Relaxed);
        loop {
            // Reuse edge: Acquire on head makes the consumer's last
            // read of the slot we are about to claim visible.
            let head = inner.head.load(Ordering::Acquire);
            if head > tail {
                // Stale snapshot: another producer advanced tail and
                // the consumer moved head past our copy. Refresh and
                // retry (the CAS below would have failed anyway).
                tail = inner.tail.load(Ordering::Relaxed);
                continue;
            }
            // `tail <= real tail` at the moment head was read, so
            // `tail - head` is a lower bound of the real occupancy —
            // a `full` verdict here is never spurious.
            if tail - head >= cap {
                return Err(value); // full
            }
            match inner.tail.compare_exchange_weak(
                tail,
                tail + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(current) => tail = current,
            }
        }
        let slot = &inner.slots[(tail & inner.mask) as usize];
        // SAFETY: the CAS gave this thread exclusive ownership of
        // position `tail`, and `tail < head + cap` proved the
        // consumer is done with this slot (reuse edge above).
        unsafe { (*slot.value.get()).write(value) };
        // Publish edge: value write happens-before this store.
        slot.seq.store(tail + 1, Ordering::Release);
        Ok(())
    }

    /// Single-producer enqueue: no CAS. Sound only under the
    /// [`ring_with`] single-producer contract — this thread is the
    /// only producer, so its `tail` snapshot is exact and a plain
    /// store claims the slot.
    fn try_push_spsc(&self, value: T) -> Result<(), T> {
        let inner = &*self.inner;
        #[cfg(debug_assertions)]
        let _guard = SpscClaimGuard::enter(&inner.spsc_claim);
        let cap = inner.slots.len() as u64;
        let tail = inner.tail.load(Ordering::Relaxed);
        // Reuse edge: identical to the MPSC path. `head > tail` is
        // impossible here — only this producer advances tail.
        let head = inner.head.load(Ordering::Acquire);
        if tail - head >= cap {
            return Err(value); // full
        }
        let slot = &inner.slots[(tail & inner.mask) as usize];
        // SAFETY: single-producer contract — no other thread can
        // claim `tail` — and `tail < head + cap` proved the consumer
        // is done with this slot (reuse edge above).
        unsafe { (*slot.value.get()).write(value) };
        // Publish edge: value write happens-before this store.
        slot.seq.store(tail + 1, Ordering::Release);
        // Claim advance: a plain store, the whole point of the mode.
        // Relaxed is enough — the consumer keys off `seq`, and only
        // this producer reads `tail`.
        inner.tail.store(tail + 1, Ordering::Relaxed);
        Ok(())
    }

    /// Enqueues a run of values with **one** claim operation,
    /// draining the accepted prefix out of `values`. Returns how many
    /// were accepted (0 when the ring is full; fewer than
    /// `values.len()` when it is nearly full).
    pub fn try_push_batch(&self, values: &mut Vec<T>) -> usize {
        self.try_push_batch_map(values, |value| value)
    }

    /// Like [`Producer::try_push_batch`], but wraps each accepted
    /// value through `wrap` on its way into the ring — so callers
    /// holding a `Vec<U>` can enqueue `T`-typed messages without an
    /// intermediate allocation.
    pub fn try_push_batch_map<U>(
        &self,
        values: &mut Vec<U>,
        mut wrap: impl FnMut(U) -> T,
    ) -> usize {
        let want = values.len() as u64;
        if want == 0 {
            return 0;
        }
        if self.mode() == Mode::Spsc {
            return self.try_push_batch_map_spsc(values, wrap);
        }
        let inner = &*self.inner;
        let cap = inner.slots.len() as u64;
        let mut tail = inner.tail.load(Ordering::Relaxed);
        let claimed = loop {
            let head = inner.head.load(Ordering::Acquire);
            if head > tail {
                // Stale snapshot (see `try_push`): refresh and retry.
                tail = inner.tail.load(Ordering::Relaxed);
                continue;
            }
            let free = cap - (tail - head);
            let n = want.min(free);
            if n == 0 {
                return 0;
            }
            match inner.tail.compare_exchange_weak(
                tail,
                tail + n,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break n,
                Err(current) => tail = current,
            }
        };
        for (i, value) in values.drain(..claimed as usize).enumerate() {
            let pos = tail + i as u64;
            let slot = &inner.slots[(pos & inner.mask) as usize];
            // SAFETY: the batch CAS claimed `[tail, tail+claimed)`
            // exclusively, and every claimed position is below
            // `head + cap` (reuse edge), so each slot is writable.
            unsafe { (*slot.value.get()).write(wrap(value)) };
            slot.seq.store(pos + 1, Ordering::Release);
        }
        claimed as usize
    }

    /// Test-only: holds the SPSC overlap-detector flag as if a claim
    /// were in flight, so tests can provoke the detector
    /// deterministically instead of racing threads.
    #[cfg(all(test, debug_assertions))]
    fn hold_spsc_claim(&self) -> SpscClaimGuard<'_> {
        SpscClaimGuard::enter(&self.inner.spsc_claim)
    }

    /// Single-producer batch claim: the batch CAS becomes a plain
    /// store after the slots are published.
    fn try_push_batch_map_spsc<U>(
        &self,
        values: &mut Vec<U>,
        mut wrap: impl FnMut(U) -> T,
    ) -> usize {
        let inner = &*self.inner;
        #[cfg(debug_assertions)]
        let _guard = SpscClaimGuard::enter(&inner.spsc_claim);
        let want = values.len() as u64;
        let cap = inner.slots.len() as u64;
        let tail = inner.tail.load(Ordering::Relaxed);
        let head = inner.head.load(Ordering::Acquire);
        let free = cap - (tail - head);
        let claimed = want.min(free);
        if claimed == 0 {
            return 0;
        }
        for (i, value) in values.drain(..claimed as usize).enumerate() {
            let pos = tail + i as u64;
            let slot = &inner.slots[(pos & inner.mask) as usize];
            // SAFETY: single-producer contract — positions
            // `[tail, tail+claimed)` cannot be claimed by anyone
            // else — and every position is below `head + cap`
            // (reuse edge), so each slot is writable.
            unsafe { (*slot.value.get()).write(wrap(value)) };
            slot.seq.store(pos + 1, Ordering::Release);
        }
        inner.tail.store(tail + claimed, Ordering::Relaxed);
        claimed as usize
    }
}

/// Unique dequeue side of a [`ring`]. Not `Clone`; all methods take
/// `&mut self`, so single-consumer discipline is enforced by the type
/// system rather than by convention.
pub struct Consumer<T> {
    inner: Arc<RingInner<T>>,
    /// Consumer-private copy of head (the atomic is only for
    /// producers' capacity checks).
    head: u64,
}

impl<T> Consumer<T> {
    /// Whether a published value is ready to pop.
    #[must_use]
    pub fn has_pending(&self) -> bool {
        let slot = &self.inner.slots[(self.head & self.inner.mask) as usize];
        slot.seq.load(Ordering::Acquire) == self.head + 1
    }

    /// Pops the next value, if one is published.
    pub fn pop(&mut self) -> Option<T> {
        let pos = self.head;
        let slot = &self.inner.slots[(pos & self.inner.mask) as usize];
        if slot.seq.load(Ordering::Acquire) != pos + 1 {
            return None;
        }
        // SAFETY: publish edge — seq == pos + 1 (Acquire) pairs with
        // the producer's Release store, so the value is fully written
        // and exclusively ours (only this consumer reads, and
        // producers cannot reclaim the slot until head advances).
        let value = unsafe { (*slot.value.get()).assume_init_read() };
        self.head = pos + 1;
        // Reuse edge: the value read above happens-before this store.
        self.inner.head.store(self.head, Ordering::Release);
        Some(value)
    }

    /// Drains up to `max` published values into `out` with a single
    /// head update — the consumer-side half of batch amortization.
    /// Returns how many values were appended.
    pub fn pop_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        let mut taken = 0u64;
        while (taken as usize) < max {
            let pos = self.head + taken;
            let slot = &self.inner.slots[(pos & self.inner.mask) as usize];
            if slot.seq.load(Ordering::Acquire) != pos + 1 {
                break;
            }
            // SAFETY: same publish-edge argument as `pop`, per slot.
            out.push(unsafe { (*slot.value.get()).assume_init_read() });
            taken += 1;
        }
        if taken > 0 {
            self.head += taken;
            // One Release store frees all `taken` slots at once.
            self.inner.head.store(self.head, Ordering::Release);
        }
        taken as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::VecDeque;

    #[test]
    fn fifo_and_capacity_bound() {
        for mode in [Mode::Mpsc, Mode::Spsc] {
            let (tx, mut rx) = ring_with::<u32>(4, mode);
            assert_eq!(tx.capacity(), 4);
            assert_eq!(tx.mode(), mode);
            for v in 0..4 {
                tx.try_push(v).unwrap();
            }
            assert_eq!(tx.try_push(99), Err(99), "fifth push must bounce");
            assert_eq!(tx.len(), 4);
            for v in 0..4 {
                assert_eq!(rx.pop(), Some(v));
            }
            assert_eq!(rx.pop(), None);
            assert!(tx.is_empty());
        }
    }

    #[test]
    fn batch_push_claims_at_most_the_free_space() {
        for mode in [Mode::Mpsc, Mode::Spsc] {
            let (tx, mut rx) = ring_with::<u32>(4, mode);
            tx.try_push(0).unwrap();
            let mut batch = vec![1, 2, 3, 4, 5];
            assert_eq!(tx.try_push_batch(&mut batch), 3, "only 3 slots were free");
            assert_eq!(batch, vec![4, 5], "accepted prefix drained");
            let mut out = Vec::new();
            assert_eq!(rx.pop_batch(&mut out, 16), 4);
            assert_eq!(out, vec![0, 1, 2, 3]);
            assert!(!rx.has_pending());
        }
    }

    #[test]
    fn wraparound_reuses_slots_correctly() {
        for mode in [Mode::Mpsc, Mode::Spsc] {
            let (tx, mut rx) = ring_with::<u64>(2, mode);
            for lap in 0..1_000u64 {
                tx.try_push(lap).unwrap();
                assert_eq!(rx.pop(), Some(lap));
            }
            assert_eq!(rx.pop(), None);
        }
    }

    #[test]
    fn drop_releases_unconsumed_values() {
        // Arc strong counts observe that queued values are dropped
        // with the ring, not leaked.
        for mode in [Mode::Mpsc, Mode::Spsc] {
            let marker = Arc::new(());
            {
                let (tx, rx) = ring_with::<Arc<()>>(8, mode);
                for _ in 0..5 {
                    tx.try_push(Arc::clone(&marker)).unwrap();
                }
                drop(tx);
                drop(rx);
            }
            assert_eq!(Arc::strong_count(&marker), 1);
        }
    }

    /// Drives one ring with a scripted operation sequence, checking
    /// it against a `VecDeque` model at every step.
    fn run_against_model(
        mode: Mode,
        seed: u64,
        cap: usize,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let (tx, mut rx) = ring_with::<u64>(cap, mode);
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut next = 0u64;
        for _ in 0..400 {
            match rng.gen_range(0u32..4) {
                0 => {
                    let accepted = tx.try_push(next).is_ok();
                    prop_assert_eq!(accepted, model.len() < tx.capacity());
                    if accepted {
                        model.push_back(next);
                    }
                    next += 1;
                }
                1 => {
                    let n = rng.gen_range(0usize..8);
                    let mut batch: Vec<u64> = (next..next + n as u64).collect();
                    let accepted = tx.try_push_batch(&mut batch);
                    let free = tx.capacity() - model.len();
                    prop_assert_eq!(accepted, n.min(free));
                    for v in next..next + accepted as u64 {
                        model.push_back(v);
                    }
                    next += n as u64;
                }
                2 => {
                    prop_assert_eq!(rx.pop(), model.pop_front());
                }
                _ => {
                    let max = rng.gen_range(0usize..8);
                    let mut out = Vec::new();
                    let taken = rx.pop_batch(&mut out, max);
                    prop_assert_eq!(taken, max.min(model.len()));
                    for v in out {
                        prop_assert_eq!(Some(v), model.pop_front());
                    }
                }
            }
            prop_assert_eq!(tx.len(), model.len());
        }
        Ok(())
    }

    proptest! {
        /// Random interleavings of single/batch push and pop match a
        /// VecDeque executing the same accepted operations — in both
        /// claim modes. Each mode tracking the model implies the two
        /// modes are observationally identical, and the run below
        /// checks that directly as well.
        #[test]
        fn matches_a_vecdeque_model(seed in 0u64..500, cap in 1usize..40) {
            run_against_model(Mode::Mpsc, seed, cap)?;
            run_against_model(Mode::Spsc, seed, cap)?;
        }

        /// The SPSC claim path is observationally invisible: an MPSC ring
        /// and an SPSC ring fed the identical operation sequence
        /// return bit-identical results — same accept/reject
        /// verdicts, same popped values, same lengths, at every step.
        #[test]
        fn spsc_is_bit_identical_to_mpsc(seed in 0u64..500, cap in 1usize..40) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mtx, mut mrx) = ring_with::<u64>(cap, Mode::Mpsc);
            let (stx, mut srx) = ring_with::<u64>(cap, Mode::Spsc);
            let mut next = 0u64;
            for _ in 0..400 {
                match rng.gen_range(0u32..4) {
                    0 => {
                        prop_assert_eq!(mtx.try_push(next).is_ok(), stx.try_push(next).is_ok());
                        next += 1;
                    }
                    1 => {
                        let n = rng.gen_range(0usize..8);
                        let mut a: Vec<u64> = (next..next + n as u64).collect();
                        let mut b = a.clone();
                        prop_assert_eq!(mtx.try_push_batch(&mut a), stx.try_push_batch(&mut b));
                        prop_assert_eq!(a, b);
                        next += n as u64;
                    }
                    2 => {
                        prop_assert_eq!(mrx.pop(), srx.pop());
                    }
                    _ => {
                        let max = rng.gen_range(0usize..8);
                        let (mut a, mut b) = (Vec::new(), Vec::new());
                        prop_assert_eq!(mrx.pop_batch(&mut a, max), srx.pop_batch(&mut b, max));
                        prop_assert_eq!(a, b);
                    }
                }
                prop_assert_eq!(mtx.len(), stx.len());
            }
        }
    }

    #[test]
    fn concurrent_producers_lose_nothing_and_keep_per_producer_order() {
        const PRODUCERS: u64 = 3;
        const PER_PRODUCER: u64 = 20_000;
        let (tx, mut rx) = ring::<u64>(64);
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let tx = tx.clone();
            handles.push(std::thread::spawn(move || {
                let mut batch = Vec::new();
                let mut sent = 0u64;
                while sent < PER_PRODUCER {
                    // Alternate single pushes and batches of 7.
                    if sent.is_multiple_of(2) {
                        let v = p * PER_PRODUCER + sent;
                        while tx.try_push(v).is_err() {
                            std::thread::yield_now();
                        }
                        sent += 1;
                    } else {
                        let n = 7.min(PER_PRODUCER - sent);
                        batch.clear();
                        batch.extend((sent..sent + n).map(|i| p * PER_PRODUCER + i));
                        while !batch.is_empty() {
                            if tx.try_push_batch(&mut batch) == 0 {
                                std::thread::yield_now();
                            }
                        }
                        sent += n;
                    }
                }
            }));
        }
        let mut last_seen = [None::<u64>; PRODUCERS as usize];
        let mut received = 0u64;
        let mut out = Vec::new();
        while received < PRODUCERS * PER_PRODUCER {
            out.clear();
            if rx.pop_batch(&mut out, 32) == 0 {
                std::thread::yield_now();
                continue;
            }
            for &v in &out {
                let producer = (v / PER_PRODUCER) as usize;
                // FIFO per producer: values arrive in send order.
                assert!(last_seen[producer].is_none_or(|prev| prev < v), "reordered {v}");
                last_seen[producer] = Some(v);
                received += 1;
            }
        }
        for handle in handles {
            handle.join().unwrap();
        }
        for (p, last) in last_seen.iter().enumerate() {
            assert_eq!(*last, Some((p as u64 + 1) * PER_PRODUCER - 1));
        }
    }

    #[test]
    fn spsc_cross_thread_handoff_with_happens_before_is_sound() {
        // Producers take turns across threads: thread A pushes, is
        // joined (happens-before edge), then thread B pushes. This
        // is exactly the temporal single-producer contract SPSC
        // permits — the consumer drains concurrently throughout.
        const TURNS: u64 = 8;
        const PER_TURN: u64 = 5_000;
        let (tx, mut rx) = ring_with::<u64>(64, Mode::Spsc);
        let drainer = std::thread::spawn(move || {
            let mut out = Vec::new();
            let mut received = Vec::new();
            while received.len() < (TURNS * PER_TURN) as usize {
                out.clear();
                if rx.pop_batch(&mut out, 32) == 0 {
                    std::thread::yield_now();
                    continue;
                }
                received.extend_from_slice(&out);
            }
            received
        });
        for turn in 0..TURNS {
            let tx = tx.clone();
            // join() gives the next turn's thread a happens-before
            // edge over this one's pushes.
            std::thread::spawn(move || {
                let mut batch = Vec::new();
                let mut sent = 0u64;
                while sent < PER_TURN {
                    let n = 9.min(PER_TURN - sent);
                    batch.clear();
                    batch.extend((sent..sent + n).map(|i| turn * PER_TURN + i));
                    while !batch.is_empty() {
                        if tx.try_push_batch(&mut batch) == 0 {
                            std::thread::yield_now();
                        }
                    }
                    sent += n;
                }
            })
            .join()
            .unwrap();
        }
        let received = drainer.join().unwrap();
        // Strict FIFO overall: with one producer at a time, global
        // order equals send order.
        let expected: Vec<u64> = (0..TURNS * PER_TURN).collect();
        assert_eq!(received, expected);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn overlap_detector_catches_a_second_spsc_producer() {
        // Simulate the overlap the contract forbids: while one claim
        // is (deterministically) in flight, a second producer's push
        // must panic at claim entry rather than corrupt the slots.
        let (tx, _rx) = ring_with::<u64>(4, Mode::Spsc);
        let guard = tx.hold_spsc_claim();
        let second = tx.clone();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = second.try_push(1);
        }))
        .is_err();
        assert!(panicked, "overlapping SPSC claim went undetected");
        drop(guard);
        // With the first claim retired, pushing works again.
        tx.try_push(2).unwrap();
    }
}
