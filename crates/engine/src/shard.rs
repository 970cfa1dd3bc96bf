//! Single-writer sharding adapter over `ccn_sim` content stores.
//!
//! The simulator's O(1) stores ([`ccn_sim::store::LruStore`],
//! [`ccn_sim::store::LfuStore`], …) are deliberately not thread-safe:
//! their intrusive lists and frequency buckets assume one mutator.
//! Instead of rewriting them lock-free, a [`ShardedStore`] partitions
//! the content-id space across worker shards, gives each shard its own
//! store *owned by a dedicated thread*, and reaches every shard through
//! a bounded queue. One writer per store means the stores are reused
//! unchanged; bounded queues mean overload surfaces as backpressure
//! ([`ShardHandle::try_job`] fails) instead of unbounded memory growth.
//!
//! # The batched pipeline
//!
//! The queue is the vendored [`crate::ring`] MPSC ring, not a
//! `std::sync::mpsc::sync_channel`: the uncontended enqueue is a
//! couple of atomics, and a *run* of jobs bound for the same shard
//! moves through **one** claim operation
//! ([`ShardHandle::try_submit_batch`]) instead of one queue hop per
//! job. Workers drain in bulk ([`crate::ring::Consumer::pop_batch`])
//! and idle with a fixed spin → yield → park escalation instead of
//! blocking inside a channel `recv()`.
//!
//! # Synchronous runs
//!
//! A synchronous op ([`ShardHandle::apply`], [`ShardHandle::probe`],
//! their batch forms, and the crate-private `run_ops` underneath all
//! four) is run-granular: the ops bound for one shard travel as
//! **one** message carrying a buffer of `(content, flag)` pairs, the
//! worker executes them in order in one loop — hit → touch, miss →
//! admit iff the op's flag asks for it — writes each verdict over
//! the op's flag, and answers with **one** reply that hands the same
//! buffer back. The buffer is owned by whoever holds it (submitter →
//! message → worker → reply → submitter), so it crosses threads in
//! safe code, without a lock or a copy on the worker; it lives in a
//! pooled completion set next to the SPSC reply lanes, so a warm
//! caller and a warm worker allocate nothing. A run spanning shards
//! is submitted to every shard before the first reply is awaited; a
//! shard's run of one travels inline in the message, because bouncing
//! a heap line between two cores costs more than the op it carries.
//!
//! The waiter polls its lane once and then `yield_now`s — no spin
//! phase, never a sleep or park. Whenever submitter and worker share
//! a core a spinning waiter only delays the worker it is waiting
//! for; yielding at once hands it the core.
//!
//! # Owner threads
//!
//! What a shard's single writer holds is a `ShardOwner`: the store
//! and the consumer end of the ring. A [`ShardedStore`] gives each
//! owner a worker thread that does nothing else, serving through its
//! own `Serve` value. A wire node ([`crate::net`]) builds the same
//! shards without threads (`shard_set`) and runs each owner on a serve
//! worker that also reads its own sockets: that thread runs its own
//! shard's ops inline (`ShardOwner::run_ops`), sends only the other
//! shards' share through their rings, keeps draining its own ring
//! while it waits for them, and blocks in its poller instead of
//! parking — its `Waker` is an eventfd.
//!
//! # Every job ring is multi-producer
//!
//! A shard's job ring is reached from arbitrary threads: load
//! generators and peer workers submit jobs, a wire node's serve
//! workers hand each other runs and accepted connections, and the
//! synchronous ops (runs, `shard_contents`, `replace_store`) push
//! control messages onto the same ring. It is therefore built
//! [`Mode::Mpsc`], always. The completion lanes are the one place
//! single-producer is structural — only a lane's shard worker ever
//! publishes into it — and they alone are built [`Mode::Spsc`].

use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use ccn_sim::store::ContentStore;
use ccn_sim::ContentId;

use crate::affinity::{pin_current_thread, PinOutcome};
use crate::error::EngineError;
use crate::pad::CachePadded;
use crate::ring::{ring, ring_with, Consumer, Mode, Producer};

/// Poison-tolerant lock: a worker that panicked while holding one of
/// the engine's mutexes (fault injection makes that survivable rather
/// than hypothetical) must not cascade the panic into every other
/// thread touching the lock. The protected data here (pooled
/// completion sets, fault logs) is valid at every instruction, so the
/// poison flag carries no information — recover the guard.
pub(crate) fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// SplitMix64 finalizer — the same scrambling step the placement layer
/// uses, so shard routing is uniform even for the sequential rank ids
/// the paper's model hands out.
pub(crate) fn mix(mut v: u64) -> u64 {
    v = v.wrapping_add(0x9e37_79b9_7f4a_7c15);
    v = (v ^ (v >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    v = (v ^ (v >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    v ^ (v >> 31)
}

/// Maps a content id to the shard that owns it (stable for a fixed
/// shard count; every caller — provisioning, routing, benchmarks —
/// must agree on this function).
#[must_use]
pub fn shard_of(content: ContentId, shards: usize) -> usize {
    (mix(content.rank()) % shards as u64) as usize
}

/// How a [`ShardedStore`] worker waits when its queue runs dry:
/// busy-spin this many times (lowest wake latency), …
const IDLE_SPINS: u32 = 64;
/// … then `yield_now` this many times (hands the core to producers —
/// essential on single-core hosts), then park until a producer wakes
/// it.
const IDLE_YIELDS: u32 = 16;
/// Backstop timeout for a parked worker: even a lost wake (or a
/// producer that crashed between enqueue and wake) only delays the
/// queue by this much, never hangs it.
const PARK_TIMEOUT: Duration = Duration::from_millis(1);

/// One op of a synchronous run. The flag travels both ways: towards
/// the worker it says whether a miss admits the content, on the way
/// back it is the hit verdict.
pub(crate) type RunOp = (ContentId, bool);

/// The ops of one shard's run, as they travel: the buffer itself, or
/// — for a run of one — the op inline. A pooled buffer's heap line
/// bounces submitter → worker → submitter; for a single op that
/// round trip costs more than the op, and the message already
/// crosses.
enum RunBuf {
    One(RunOp),
    Many(Vec<RunOp>),
}

impl RunBuf {
    fn ops_mut(&mut self) -> &mut [RunOp] {
        match self {
            Self::One(op) => std::slice::from_mut(op),
            Self::Many(ops) => ops,
        }
    }
}

/// Reply payload for the synchronous shard ops.
enum Reply {
    /// `Run` answer: the run's own ops, each flag now the verdict.
    Run(RunBuf),
    /// `shard_contents` answer.
    Contents(Vec<ContentId>),
    /// `replace_store` answer: the old store has been retired and the
    /// worker now serves from the replacement.
    Replaced,
}

/// One submitter's reply channel from one shard worker. The ring is
/// SPSC by construction: exactly one worker (the lane's shard) ever
/// publishes into it, and the lane is owned exclusively by whoever
/// checked the set out of the pool. A submitter has at most one
/// message per shard outstanding, so one slot is all a lane needs.
struct CompletionLane {
    tx: Producer<Reply>,
    rx: Consumer<Reply>,
}

/// Per-submitter completion state, one lane and one run buffer per
/// shard. Pooled and reused, so the synchronous ops cost a couple of
/// atomics per shard touched and allocate nothing once warm.
struct CompletionSet {
    lanes: Vec<CompletionLane>,
    /// The ops bound for each shard. A buffer of two or more moves
    /// into its shard's `ShardMsg::Run` and comes back in the
    /// `Reply::Run`; see [`RunBuf`].
    runs: Vec<Vec<RunOp>>,
    /// Shards the current run touches, in first-seen order.
    touched: Vec<usize>,
    /// Staging for the slice-of-ids batch wrappers.
    ops: Vec<RunOp>,
}

impl CompletionSet {
    fn new(shards: usize) -> Self {
        let lanes = (0..shards)
            .map(|_| {
                // SPSC is sound here by construction: the only
                // thread that ever pushes into a lane is the worker
                // of the shard the lane indexes, and workers process
                // their queue serially.
                let (tx, rx) = ring_with(1, Mode::Spsc);
                CompletionLane { tx, rx }
            })
            .collect();
        Self {
            lanes,
            runs: (0..shards).map(|_| Vec::new()).collect(),
            touched: Vec::with_capacity(shards),
            ops: Vec::new(),
        }
    }
}

/// Worker-side publish. The lane always has room: its submitter
/// awaits each reply before sending that shard another message.
fn publish_reply(done: &Producer<Reply>, reply: Reply) {
    if done.try_push(reply).is_err() {
        unreachable!("a completion lane never holds more than one reply");
    }
}

/// Submitter-side wait for a reply: poll, then yield until it is
/// there. No park/wake protocol is needed — the worker is already
/// awake (it is processing the message we are waiting on) — and no
/// spin phase is wanted: see *Synchronous runs* in the module docs.
fn await_reply(rx: &mut Consumer<Reply>) -> Reply {
    loop {
        if let Some(reply) = rx.pop() {
            return reply;
        }
        std::thread::yield_now();
    }
}

enum ShardMsg<J> {
    /// An asynchronous unit of work handled by the engine's callback.
    Job(J),
    /// Synchronous run: the worker executes `ops` in order (hit →
    /// touch; miss → insert iff the op's flag is set), overwrites
    /// each flag with the hit verdict and publishes the ops back as
    /// `Reply::Run` into `done`.
    Run { ops: RunBuf, done: Producer<Reply> },
    /// Synchronous eviction-order snapshot of one shard's store.
    Snapshot { done: Producer<Reply> },
    /// Synchronous store swap: the worker retires its current store
    /// and serves every later message from `store`. Used by the
    /// adaptive controller to re-pin a provisioned shard after a
    /// re-slice without restarting the worker. Publishes
    /// `Reply::Replaced` into `done` once the swap is visible.
    Replace { store: Box<dyn ContentStore>, done: Producer<Reply> },
    /// Drain sentinel: the shard thread exits after seeing this.
    Stop,
}

struct Shard<J> {
    queue: Producer<ShardMsg<J>>,
    /// Jobs currently queued (control messages are not counted).
    /// Cache-padded: each shard's depth is hammered by its producers
    /// and its worker; without padding, adjacent shards' counters
    /// share a line and every update invalidates the neighbours.
    depth: Arc<CachePadded<AtomicUsize>>,
    /// Set by the worker just before parking; producers that see it
    /// wake the worker after publishing. Padded for the same
    /// reason as `depth`.
    sleeping: Arc<CachePadded<AtomicBool>>,
    /// Wakes the parked owner: an unpark for a [`ShardedStore`]
    /// worker, an eventfd write for a wire node's serve worker.
    waker: Waker,
}

/// How a producer wakes a shard's parked owner thread.
pub(crate) type Waker = Box<dyn Fn() + Send + Sync>;

impl<J: Send + 'static> Shard<J> {
    /// Publishes-then-wakes: called after every successful enqueue.
    ///
    /// The SeqCst fence orders the enqueue's Release publish before
    /// the `sleeping` load; the worker runs the mirror-image sequence
    /// (store `sleeping`, fence, re-check queue) before parking, so at
    /// least one side always observes the other — either the producer
    /// sees `sleeping` and unparks, or the worker sees the message on
    /// its final pre-park check. Both wakers are sticky (an `unpark`
    /// token, an eventfd count), so racing ahead of the actual block
    /// still wakes it; a [`ShardedStore`] worker's park is
    /// additionally bounded by `PARK_TIMEOUT`.
    fn wake(&self) {
        fence(Ordering::SeqCst);
        if self.sleeping.load(Ordering::Relaxed) {
            (self.waker)();
        }
    }

    /// Blocking control-message send: retries until the ring has room
    /// (the worker is draining, so room appears), then wakes.
    fn send_control(&self, mut msg: ShardMsg<J>) {
        loop {
            match self.queue.try_push(msg) {
                Ok(()) => break,
                Err(returned) => {
                    msg = returned;
                    std::thread::yield_now();
                }
            }
        }
        self.wake();
    }
}

/// Producer claim discipline of a [`ShardedStore`]'s job rings: always
/// multi-producer.
// Kept only because the frozen `benchmark/src/probe.rs:85` names it.
#[derive(Debug, Clone, Copy)]
pub enum RingMode {
    /// Multi-producer; the only discipline.
    Mpsc,
}

// Kept only because the frozen `benchmark/src/probe.rs:85` names it;
// workers idle spin → yield → park with fixed constants.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub struct IdleStrategy;

impl IdleStrategy {
    #[doc(hidden)]
    #[must_use]
    pub fn spin_then_park() -> Self {
        Self
    }
}

struct HandleInner<J> {
    shards: Vec<Shard<J>>,
    /// High-water mark of any single shard queue. Padded: updated
    /// (via `fetch_max`) by every producer on every accepted push.
    max_depth: CachePadded<AtomicUsize>,
    capacity: usize,
    /// Workers that successfully pinned themselves to a core.
    pinned_workers: Arc<AtomicUsize>,
    /// Reusable per-submitter completion sets for the synchronous
    /// ops; grown on first use per concurrent caller, then recycled
    /// forever.
    completion_pool: Mutex<Vec<CompletionSet>>,
}

impl<J> HandleInner<J> {
    fn checkout_completion_set(&self) -> CompletionSet {
        lock_recover(&self.completion_pool)
            .pop()
            .unwrap_or_else(|| CompletionSet::new(self.shards.len()))
    }

    fn return_completion_set(&self, set: CompletionSet) {
        lock_recover(&self.completion_pool).push(set);
    }
}

/// Clonable, shareable access to a [`ShardedStore`]'s queues.
///
/// Handles outlive nothing: once the owning store is shut down, job
/// submission fails and the synchronous ops panic.
pub struct ShardHandle<J> {
    inner: Arc<HandleInner<J>>,
}

impl<J> Clone for ShardHandle<J> {
    fn clone(&self) -> Self {
        Self { inner: Arc::clone(&self.inner) }
    }
}

impl<J: Send + 'static> ShardHandle<J> {
    fn over(shards: Vec<Shard<J>>, pinned_workers: Arc<AtomicUsize>) -> Self {
        let inner = HandleInner {
            capacity: shards.first().map_or(0, |shard| shard.queue.capacity()),
            shards,
            max_depth: CachePadded::new(AtomicUsize::new(0)),
            pinned_workers,
            completion_pool: Mutex::new(Vec::new()),
        };
        Self { inner: Arc::new(inner) }
    }

    /// Sends the drain sentinel to every shard's owner.
    pub(crate) fn stop_all(&self) {
        for shard in &self.inner.shards {
            shard.send_control(ShardMsg::Stop);
        }
    }

    /// Number of worker shards behind this handle.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// Per-shard queue capacity (the admission bound; the requested
    /// capacity rounded up to the ring's power of two).
    #[must_use]
    pub fn queue_capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Workers that successfully pinned themselves to the core their
    /// [`ShardSpec::pin_cores`] assignment named.
    #[must_use]
    pub fn pinned_workers(&self) -> usize {
        self.inner.pinned_workers.load(Ordering::Relaxed)
    }

    /// Enqueues `job` on the shard owning `content`.
    ///
    /// # Errors
    ///
    /// Returns the job back when that shard's bounded queue is full
    /// (or the store was shut down) so the caller can shed or degrade.
    pub fn try_job(&self, content: ContentId, job: J) -> Result<(), J> {
        let shard = &self.inner.shards[shard_of(content, self.shards())];
        // Count *before* pushing: the worker decrements only after
        // processing a pushed job, so depth can never underflow; the
        // add-after-push order would let the decrement race ahead and
        // wrap the counter.
        let occupied = shard.depth.fetch_add(1, Ordering::Relaxed) + 1;
        match shard.queue.try_push(ShardMsg::Job(job)) {
            Ok(()) => {
                self.inner.max_depth.fetch_max(occupied, Ordering::Relaxed);
                shard.wake();
                Ok(())
            }
            Err(ShardMsg::Job(job)) => {
                shard.depth.fetch_sub(1, Ordering::Relaxed);
                Err(job)
            }
            // try_push returns exactly the message we pushed.
            Err(_) => unreachable!("non-job message rejected"),
        }
    }

    /// Enqueues a run of jobs — **already grouped by
    /// [`shard_of`]** — on shard `shard` with a single queue claim,
    /// draining the accepted prefix out of `jobs`. Returns how many
    /// jobs were accepted; the remainder stays in `jobs` for the
    /// caller to shed or retry. One wake, one depth update, one
    /// claim CAS per run: the per-job queue-hop cost is amortized
    /// across the batch.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn try_submit_batch(&self, shard: usize, jobs: &mut Vec<J>) -> usize {
        let want = jobs.len();
        if want == 0 {
            return 0;
        }
        let shard = &self.inner.shards[shard];
        // Same count-before-push discipline as `try_job`; the
        // rejected remainder is subtracted back below.
        let occupied = shard.depth.fetch_add(want, Ordering::Relaxed) + want;
        let accepted = shard.queue.try_push_batch_map(jobs, ShardMsg::Job);
        if accepted < want {
            shard.depth.fetch_sub(want - accepted, Ordering::Relaxed);
        }
        if accepted > 0 {
            self.inner.max_depth.fetch_max(occupied - (want - accepted), Ordering::Relaxed);
            shard.wake();
        }
        accepted
    }

    /// Blocking variant of [`ShardHandle::try_submit_batch`]: retries
    /// (yielding) until the whole run is enqueued. Returns the number
    /// of jobs submitted.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn submit_batch(&self, shard: usize, jobs: &mut Vec<J>) -> usize {
        let mut submitted = 0;
        while !jobs.is_empty() {
            let accepted = self.try_submit_batch(shard, jobs);
            submitted += accepted;
            if accepted == 0 {
                std::thread::yield_now();
            }
        }
        submitted
    }

    /// Synchronous churn against the owning shard: on a hit the store
    /// is touched and `true` comes back; on a miss the content is
    /// inserted (evicting per policy) and `false` comes back.
    ///
    /// The round trip through the queue is the per-op cost this
    /// adapter adds over calling the store directly — benchmarked in
    /// `ccn-bench`'s `engine` bench, deliberately not hidden (and
    /// amortized by [`ShardHandle::try_submit_batch`] on the serve
    /// path, by [`ShardHandle::apply_batch`] on the churn path). A
    /// run of one: the call allocates nothing once the pool is warm.
    ///
    /// # Panics
    ///
    /// Panics if the owning [`ShardedStore`] has been shut down.
    pub fn apply(&self, content: ContentId) -> bool {
        let mut op = [(content, true)];
        self.run_ops(&mut op);
        op[0].1
    }

    /// Synchronous read-mostly lookup against the owning shard: on a
    /// hit the store is touched (recency/frequency state advances,
    /// exactly as a served request would) and `true` comes back; on a
    /// miss the store is **left untouched** and `false` comes back.
    ///
    /// # Panics
    ///
    /// Panics if the owning [`ShardedStore`] has been shut down.
    pub fn probe(&self, content: ContentId) -> bool {
        let mut op = [(content, false)];
        self.run_ops(&mut op);
        op[0].1
    }

    /// Batched synchronous churn: every content in `run` is applied
    /// to its owning shard (hit → touch, miss → insert) and `hits`
    /// is filled with the per-op hit verdicts **in input order**.
    /// One message and one reply per shard touched, whatever the
    /// length of `run`.
    ///
    /// # Panics
    ///
    /// Panics if the owning [`ShardedStore`] has been shut down.
    pub fn apply_batch(&self, run: &[ContentId], hits: &mut Vec<bool>) {
        self.run_uniform(run, hits, true);
    }

    /// Batched [`ShardHandle::probe`]: every content in `run` is
    /// probed against its owning shard (hit → touch, miss → store
    /// untouched) and `hits` is filled with per-op verdicts in input
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if the owning [`ShardedStore`] has been shut down.
    pub fn probe_batch(&self, run: &[ContentId], hits: &mut Vec<bool>) {
        self.run_uniform(run, hits, false);
    }

    /// The slice-of-ids form of a run: every op carries the same
    /// `admit` flag, staged through the set's pooled op buffer.
    fn run_uniform(&self, run: &[ContentId], hits: &mut Vec<bool>, admit: bool) {
        let mut set = self.inner.checkout_completion_set();
        let mut ops = std::mem::take(&mut set.ops);
        ops.clear();
        ops.extend(run.iter().map(|&content| (content, admit)));
        self.run_in(&mut set, &mut ops, None);
        hits.clear();
        hits.extend(ops.iter().map(|&(_, hit)| hit));
        set.ops = ops;
        self.inner.return_completion_set(set);
    }

    /// Executes `ops` synchronously, in order, each on its owning
    /// shard: a hit touches the store; a miss inserts (evicting per
    /// policy) iff the op's flag is set and otherwise leaves the
    /// store untouched. On return each op's flag has been overwritten
    /// with its hit verdict.
    ///
    /// Whether a miss admits is per op because, on the wire tier, it
    /// depends on routing: coordinated content belongs to its holder,
    /// not to whichever edge node was asked first.
    ///
    /// # Panics
    ///
    /// Panics if the owning [`ShardedStore`] has been shut down.
    pub(crate) fn run_ops(&self, ops: &mut [RunOp]) {
        let mut set = self.inner.checkout_completion_set();
        self.run_in(&mut set, ops, None);
        self.inner.return_completion_set(set);
    }

    /// The run behind every synchronous op. With `local`, the caller
    /// *is* one of the shards' owner threads: that shard's ops execute
    /// inline on its store, and while the other shards' replies are
    /// awaited the owner keeps draining its own ring (two owners
    /// running through each other would otherwise wait forever).
    /// Returns how many runs crossed to another thread, or `None` if
    /// the owner was told to stop while waiting — `ops` then read all
    /// misses and `set` must not be reused.
    fn run_in(
        &self,
        set: &mut CompletionSet,
        ops: &mut [RunOp],
        mut local: Option<(&mut ShardOwner<J>, OnJob<'_, J>)>,
    ) -> Option<usize> {
        let shards = self.shards();
        let me = local.as_ref().map(|(owner, _)| owner.index);
        let CompletionSet { lanes, runs, touched, .. } = set;
        touched.clear();
        for &op in ops.iter() {
            let index = shard_of(op.0, shards);
            if runs[index].is_empty() && Some(index) != me {
                touched.push(index);
            }
            runs[index].push(op);
        }
        // Every shard gets its run before any reply is awaited, so
        // the shards of a multi-shard run work concurrently.
        for &index in touched.iter() {
            let run = &mut runs[index];
            let ops = match run[..] {
                [op] => {
                    run.clear();
                    RunBuf::One(op)
                }
                _ => RunBuf::Many(std::mem::take(run)),
            };
            self.inner.shards[index]
                .send_control(ShardMsg::Run { ops, done: lanes[index].tx.clone() });
        }
        if let Some((owner, _)) = &mut local {
            execute(owner.store.as_mut(), &mut runs[owner.index]);
        }
        for &index in touched.iter() {
            let reply = match &mut local {
                Some((owner, on_job)) => owner.await_reply(&mut lanes[index].rx, on_job),
                None => Some(await_reply(&mut lanes[index].rx)),
            };
            match reply {
                Some(Reply::Run(RunBuf::One(op))) => runs[index].push(op),
                Some(Reply::Run(RunBuf::Many(run))) => runs[index] = run,
                Some(_) => unreachable!("a run always answers Run"),
                None => {
                    ops.iter_mut().for_each(|op| op.1 = false);
                    return None;
                }
            }
        }
        // Each shard's buffer holds its ops in input order, so walking
        // the input backwards and popping restores input order across
        // shards and leaves every buffer empty for the next run.
        for op in ops.iter_mut().rev() {
            let (content, hit) =
                runs[shard_of(op.0, shards)].pop().expect("a run answers every op it carried");
            debug_assert_eq!(content, op.0);
            op.1 = hit;
        }
        Some(touched.len())
    }

    /// Synchronously swaps one shard worker's store for `store`,
    /// blocking until the worker has retired the old one. Messages
    /// already queued ahead of the swap run against the old store;
    /// everything after runs against the new — there is no window
    /// where the shard serves from neither.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range or the owning
    /// [`ShardedStore`] has been shut down.
    pub fn replace_store(&self, shard: usize, store: Box<dyn ContentStore>) {
        let mut set = self.inner.checkout_completion_set();
        let lane = &mut set.lanes[shard];
        self.inner.shards[shard].send_control(ShardMsg::Replace { store, done: lane.tx.clone() });
        let Reply::Replaced = await_reply(&mut lane.rx) else {
            unreachable!("replace always answers Replaced");
        };
        self.inner.return_completion_set(set);
    }

    /// Eviction-order contents of one shard's store.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range or the store was shut down.
    #[must_use]
    pub fn shard_contents(&self, shard: usize) -> Vec<ContentId> {
        let mut set = self.inner.checkout_completion_set();
        let lane = &mut set.lanes[shard];
        self.inner.shards[shard].send_control(ShardMsg::Snapshot { done: lane.tx.clone() });
        let Reply::Contents(contents) = await_reply(&mut lane.rx) else {
            unreachable!("snapshot always answers Contents");
        };
        self.inner.return_completion_set(set);
        contents
    }

    /// Contents across all shards, sorted by rank.
    ///
    /// # Panics
    ///
    /// Panics if the store was shut down.
    #[must_use]
    pub fn contents(&self) -> Vec<ContentId> {
        let mut all: Vec<ContentId> =
            (0..self.shards()).flat_map(|s| self.shard_contents(s)).collect();
        all.sort_unstable();
        all
    }

    /// Jobs currently queued across all shards.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.inner.shards.iter().map(|s| s.depth.load(Ordering::Relaxed)).sum()
    }

    /// High-water mark of any single shard queue since spawn.
    #[must_use]
    pub fn max_queue_depth(&self) -> usize {
        self.inner.max_depth.load(Ordering::Relaxed)
    }
}

/// Full construction recipe for a [`ShardedStore`]: shape and
/// thread-per-core placement.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Worker shard count (≥ 1).
    pub shards: usize,
    /// Per-shard bounded queue capacity (≥ 1; rounded up to a power
    /// of two).
    pub queue_capacity: usize,
    /// Optional per-shard core assignment: `pin_cores[shard]` names
    /// the core that shard's worker pins itself to at thread start
    /// (`None` floats). Empty means no pinning. Must be empty or
    /// exactly `shards` long.
    pub pin_cores: Vec<Option<usize>>,
}

impl ShardSpec {
    /// A spec without pinning.
    #[must_use]
    pub fn new(shards: usize, queue_capacity: usize) -> Self {
        Self { shards, queue_capacity, pin_cores: Vec::new() }
    }

    // No-ops kept only because the frozen `benchmark/src/probe.rs:85` calls them.
    #[doc(hidden)]
    #[must_use]
    pub fn idle(self, _idle: IdleStrategy) -> Self {
        self
    }

    #[doc(hidden)]
    #[must_use]
    pub fn ring_mode(self, _mode: RingMode) -> Self {
        self
    }

    /// Replaces the per-shard core assignment.
    #[must_use]
    pub fn pin_cores(mut self, pins: Vec<Option<usize>>) -> Self {
        self.pin_cores = pins;
        self
    }
}

/// A content store sharded across single-writer worker threads.
///
/// `J` is the asynchronous job type routed by content id; each job is
/// handed to the `handler` callback together with exclusive access to
/// the owning shard's store. Synchronous ops ([`ShardHandle::apply`],
/// [`ShardHandle::contents`]) ride the same queues, so they observe a
/// consistent single-writer view.
pub struct ShardedStore<J: Send + 'static> {
    handle: ShardHandle<J>,
    workers: Vec<JoinHandle<()>>,
}

impl<J: Send + 'static> ShardedStore<J> {
    /// Spawns `spec.shards` worker threads, each owning the store
    /// built by `store_factory(shard)` and processing jobs via
    /// `handler`. Workers pin themselves to their `spec.pin_cores`
    /// entry first thing on their own thread (affinity is inherited by
    /// children on Linux, so the spawner must not pin on the workers'
    /// behalf); a refused pin is counted, not fatal — see
    /// [`ShardHandle::pinned_workers`]. A refused thread spawn unwinds
    /// the partial bring-up: workers already spawned are drained and
    /// joined, so nothing leaks.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidConfig`] for zero `shards` or
    /// `queue_capacity` or a `pin_cores` of the wrong length;
    /// [`EngineError::Spawn`] when the OS refuses a worker thread.
    pub fn try_spawn_with<F, H>(
        spec: ShardSpec,
        store_factory: F,
        handler: Arc<H>,
    ) -> Result<Self, EngineError>
    where
        F: FnMut(usize) -> Box<dyn ContentStore>,
        H: Fn(&mut dyn ContentStore, J) + Send + Sync + 'static,
    {
        Self::try_spawn_serving(spec, store_factory, |_| Arc::clone(&handler))
    }

    /// [`ShardedStore::try_spawn_with`] with one [`Serve`] value per
    /// worker, `serve(shard)`, moved onto that worker's thread.
    pub(crate) fn try_spawn_serving<S: Serve<J> + Send + 'static>(
        spec: ShardSpec,
        store_factory: impl FnMut(usize) -> Box<dyn ContentStore>,
        serve: impl FnMut(usize) -> S,
    ) -> Result<Self, EngineError> {
        Self::try_spawn_idling(spec, (IDLE_SPINS, IDLE_YIELDS), store_factory, serve)
    }

    /// [`ShardedStore::try_spawn_serving`] with the workers' idle
    /// escalation given as `(spins, yields)` before they park.
    fn try_spawn_idling<S: Serve<J> + Send + 'static>(
        spec: ShardSpec,
        idle: (u32, u32),
        mut store_factory: impl FnMut(usize) -> Box<dyn ContentStore>,
        mut serve: impl FnMut(usize) -> S,
    ) -> Result<Self, EngineError> {
        if spec.shards == 0 {
            return Err(EngineError::InvalidConfig { reason: "need at least one shard".into() });
        }
        if spec.queue_capacity == 0 {
            return Err(EngineError::InvalidConfig { reason: "need a non-empty queue".into() });
        }
        if !spec.pin_cores.is_empty() && spec.pin_cores.len() != spec.shards {
            return Err(EngineError::InvalidConfig {
                reason: format!(
                    "pin_cores names {} shards but the store has {}",
                    spec.pin_cores.len(),
                    spec.shards
                ),
            });
        }
        let pinned_workers = Arc::new(AtomicUsize::new(0));
        let mut shards = Vec::with_capacity(spec.shards);
        let mut workers = Vec::with_capacity(spec.shards);
        for shard in 0..spec.shards {
            let (owner, with_waker) = new_shard(shard, spec.queue_capacity, store_factory(shard));
            let worker_serve = serve(shard);
            let worker_pinned = Arc::clone(&pinned_workers);
            let pin_core = spec.pin_cores.get(shard).copied().flatten();
            let spawned =
                std::thread::Builder::new().name(format!("ccn-shard-{shard}")).spawn(move || {
                    if let Some(core) = pin_core {
                        if pin_current_thread(core) == PinOutcome::Pinned {
                            worker_pinned.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    worker_loop(owner, idle, worker_serve);
                });
            let worker = match spawned {
                Ok(worker) => worker,
                Err(e) => {
                    // Unwind the partial bring-up before reporting.
                    let handle = ShardHandle::over(shards, pinned_workers);
                    Self { handle, workers }.shutdown();
                    return Err(EngineError::Spawn { reason: e.to_string() });
                }
            };
            let thread = worker.thread().clone();
            shards.push(with_waker(Box::new(move || thread.unpark())));
            workers.push(worker);
        }
        Ok(Self { handle: ShardHandle::over(shards, pinned_workers), workers })
    }

    /// A clonable handle for submitting work.
    #[must_use]
    pub fn handle(&self) -> ShardHandle<J> {
        self.handle.clone()
    }

    /// Sends the drain sentinel to every shard and joins the workers.
    ///
    /// Queued messages ahead of the sentinel are still processed;
    /// idempotent (second call is a no-op). Callers must stop feeding
    /// jobs first or late submissions are silently dropped.
    pub fn shutdown(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        self.handle.stop_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl<J: Send + 'static> Drop for ShardedStore<J> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Messages drained per worker wakeup — bounds the bulk-drain scratch
/// buffer and how long one drain can monopolize the store.
const DRAIN_MAX: usize = 256;

/// The asynchronous-job callback of a shard's owner thread.
pub(crate) type OnJob<'a, J> = &'a mut dyn FnMut(&mut dyn ContentStore, J);

/// A [`ShardedStore`] worker's serve state, owned by its thread.
/// [`Serve::drained`] runs after every non-empty drain, the one that
/// meets the stop sentinel included, so what a worker records once
/// per batch is never left behind when it idles or exits.
pub(crate) trait Serve<J> {
    /// Serves one job against the worker's store.
    fn job(&mut self, store: &mut dyn ContentStore, job: J);

    /// Ends a batch of up to [`DRAIN_MAX`] messages.
    fn drained(&mut self);
}

/// [`ShardedStore::try_spawn_with`]'s shared callback: nothing to record.
impl<J, H: Fn(&mut dyn ContentStore, J)> Serve<J> for Arc<H> {
    fn job(&mut self, store: &mut dyn ContentStore, job: J) {
        (**self)(store, job);
    }

    fn drained(&mut self) {}
}

/// Executes one run against its store, in order: hit → touch; miss →
/// insert iff the op's flag is set. Each flag becomes the hit verdict.
fn execute(store: &mut dyn ContentStore, ops: &mut [RunOp]) {
    for (content, flag) in ops {
        let hit = store.contains(*content);
        if hit {
            store.on_hit(*content);
        } else if *flag {
            store.on_data(*content);
        }
        *flag = hit;
    }
}

/// The owner thread's half of one shard: its store and the consumer
/// end of its ring. Whoever holds it is the shard's single writer —
/// a [`ShardedStore`] worker thread, or a wire node's serve worker,
/// which also reads its own sockets between drains.
pub(crate) struct ShardOwner<J> {
    /// Which shard this is the owner of.
    pub(crate) index: usize,
    store: Box<dyn ContentStore>,
    queue: Consumer<ShardMsg<J>>,
    depth: Arc<CachePadded<AtomicUsize>>,
    sleeping: Arc<CachePadded<AtomicBool>>,
    batch: Vec<ShardMsg<J>>,
    /// Set once the drain sentinel has been seen.
    pub(crate) stopped: bool,
}

impl<J: Send + 'static> ShardOwner<J> {
    /// Executes up to [`DRAIN_MAX`] queued messages; whether there
    /// were any. Messages queued behind a `Stop` are dropped.
    pub(crate) fn drain(&mut self, mut on_job: impl FnMut(&mut dyn ContentStore, J)) -> bool {
        self.batch.clear();
        if self.queue.pop_batch(&mut self.batch, DRAIN_MAX) == 0 {
            return false;
        }
        let mut jobs = 0usize;
        for msg in self.batch.drain(..) {
            match msg {
                ShardMsg::Job(job) => {
                    jobs += 1;
                    on_job(self.store.as_mut(), job);
                }
                ShardMsg::Run { mut ops, done } => {
                    execute(self.store.as_mut(), ops.ops_mut());
                    publish_reply(&done, Reply::Run(ops));
                }
                ShardMsg::Snapshot { done } => {
                    publish_reply(&done, Reply::Contents(self.store.contents()));
                }
                ShardMsg::Replace { store: replacement, done } => {
                    self.store = replacement;
                    publish_reply(&done, Reply::Replaced);
                }
                ShardMsg::Stop => {
                    self.stopped = true;
                    break;
                }
            }
        }
        if jobs > 0 {
            self.depth.fetch_sub(jobs, Ordering::Relaxed);
        }
        true
    }

    /// Blocks in `block` unless the ring has work — the mirror image
    /// of `Shard::wake` (see its doc comment): publish intent to
    /// sleep, fence, re-check, then block. `None` means the re-check
    /// found a message and `block` never ran.
    pub(crate) fn park_with<T>(&mut self, block: impl FnOnce() -> T) -> Option<T> {
        self.sleeping.store(true, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let blocked = (!self.queue.has_pending()).then(block);
        self.sleeping.store(false, Ordering::Relaxed);
        blocked
    }

    /// [`ShardHandle::run_ops`] for the owner thread itself: this
    /// shard's ops run inline on the store — with one shard, all of
    /// them, and nothing touches a ring. Returns how many runs crossed
    /// to other shards.
    pub(crate) fn run_ops(
        &mut self,
        handle: &ShardHandle<J>,
        ops: &mut [RunOp],
        on_job: OnJob<'_, J>,
    ) -> usize {
        if handle.shards() == 1 {
            execute(self.store.as_mut(), ops);
            return 0;
        }
        let mut set = handle.inner.checkout_completion_set();
        let crossed = handle.run_in(&mut set, ops, Some((self, on_job)));
        if crossed.is_some() {
            handle.inner.return_completion_set(set);
        }
        crossed.unwrap_or(0)
    }

    /// Replaces every shard's store with `build(shard)`: this one
    /// inline, the others by `ShardMsg::Replace`, returning once every
    /// owner serves from its replacement (or this one was stopped).
    pub(crate) fn replace_stores(
        &mut self,
        handle: &ShardHandle<J>,
        mut build: impl FnMut(usize) -> Box<dyn ContentStore>,
        on_job: OnJob<'_, J>,
    ) {
        let mut set = handle.inner.checkout_completion_set();
        for (shard, lane) in set.lanes.iter().enumerate() {
            if shard == self.index {
                self.store = build(shard);
            } else {
                let msg = ShardMsg::Replace { store: build(shard), done: lane.tx.clone() };
                handle.inner.shards[shard].send_control(msg);
            }
        }
        let me = self.index;
        for shard in (0..handle.shards()).filter(|&shard| shard != me) {
            if self.await_reply(&mut set.lanes[shard].rx, on_job).is_none() {
                return;
            }
        }
        handle.inner.return_completion_set(set);
    }

    /// An owner's wait for another shard's reply: it keeps executing
    /// its own ring's messages, so two owners waiting on each other
    /// both get served. `None` once this owner has been told to stop
    /// (the other one may already be gone).
    fn await_reply(&mut self, rx: &mut Consumer<Reply>, on_job: OnJob<'_, J>) -> Option<Reply> {
        loop {
            if let Some(reply) = rx.pop() {
                return Some(reply);
            }
            if !self.drain(&mut *on_job) {
                if self.stopped {
                    return None;
                }
                std::thread::yield_now();
            }
        }
    }
}

/// Builds one shard: the owner half, and the producer half with the
/// `waker` that reaches whichever thread will own it.
fn new_shard<J>(
    index: usize,
    queue_capacity: usize,
    store: Box<dyn ContentStore>,
) -> (ShardOwner<J>, impl FnOnce(Waker) -> Shard<J>) {
    let (queue, consumer) = ring(queue_capacity);
    let depth = Arc::new(CachePadded::new(AtomicUsize::new(0)));
    let sleeping = Arc::new(CachePadded::new(AtomicBool::new(false)));
    let owner = ShardOwner {
        index,
        store,
        queue: consumer,
        depth: Arc::clone(&depth),
        sleeping: Arc::clone(&sleeping),
        batch: Vec::with_capacity(DRAIN_MAX),
        stopped: false,
    };
    (owner, move |waker| Shard { queue, depth, sleeping, waker })
}

/// A shard set without threads: the handle, and one [`ShardOwner`] per
/// shard for the caller's own threads to run. `wakers[shard]` must
/// wake whatever [`ShardOwner::park_with`] blocks in on that thread.
pub(crate) fn shard_set<J: Send + 'static>(
    queue_capacity: usize,
    wakers: Vec<Waker>,
    mut store_factory: impl FnMut(usize) -> Box<dyn ContentStore>,
) -> (ShardHandle<J>, Vec<ShardOwner<J>>) {
    let (owners, shards): (Vec<_>, Vec<_>) = wakers
        .into_iter()
        .enumerate()
        .map(|(index, waker)| {
            let (owner, shard) = new_shard(index, queue_capacity, store_factory(index));
            (owner, shard(waker))
        })
        .unzip();
    (ShardHandle::over(shards, Arc::default()), owners)
}

/// Drains `owner`'s queue into `serve` until stopped; when it runs
/// dry, spins `idle.0` times, yields `idle.1` times, then parks.
fn worker_loop<J: Send + 'static>(
    mut owner: ShardOwner<J>,
    idle: (u32, u32),
    mut serve: impl Serve<J>,
) {
    let (idle_spins, idle_yields) = idle;
    let mut spins = 0u32;
    let mut yields = 0u32;
    loop {
        if owner.drain(|store, job| serve.job(store, job)) {
            serve.drained();
            if owner.stopped {
                return;
            }
            spins = 0;
            yields = 0;
            continue;
        }
        // Queue dry: escalate spin → yield → park.
        if spins < idle_spins {
            spins += 1;
            std::hint::spin_loop();
        } else if yields < idle_yields {
            yields += 1;
            std::thread::yield_now();
        } else if owner.park_with(|| std::thread::park_timeout(PARK_TIMEOUT)).is_some() {
            spins = 0;
            yields = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccn_sim::store::LruStore;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn noop() -> Arc<impl Fn(&mut dyn ContentStore, ()) + Send + Sync> {
        Arc::new(|_: &mut dyn ContentStore, (): ()| {})
    }

    fn spawn_lru(shards: usize, queue: usize, capacity: usize) -> ShardedStore<()> {
        spawn_lru_with(shards, queue, capacity, noop())
    }

    fn spawn_lru_with<J: Send + 'static, H>(
        shards: usize,
        queue: usize,
        capacity: usize,
        handler: Arc<H>,
    ) -> ShardedStore<J>
    where
        H: Fn(&mut dyn ContentStore, J) + Send + Sync + 'static,
    {
        let spec = ShardSpec::new(shards, queue);
        ShardedStore::try_spawn_with(spec, move |_| Box::new(LruStore::new(capacity)), handler)
            .unwrap()
    }

    /// One worker with zero spins and zero yields: it parks after
    /// *every* dry poll, so each submission races its pre-park check.
    fn spawn_park_eager<H>(queue: usize, handler: Arc<H>) -> ShardedStore<u64>
    where
        H: Fn(&mut dyn ContentStore, u64) + Send + Sync + 'static,
    {
        let spec = ShardSpec::new(1, queue);
        let serve = |_| Arc::clone(&handler);
        ShardedStore::try_spawn_idling(spec, (0, 0), |_| Box::new(LruStore::new(4)), serve).unwrap()
    }

    #[test]
    fn single_shard_apply_matches_raw_lru() {
        let mut raw = LruStore::new(8);
        let mut sharded = spawn_lru(1, 64, 8);
        let handle = sharded.handle();
        // Deterministic churny access pattern over a small catalogue.
        let stream: Vec<u64> = (0..400).map(|i| mix(i) % 24 + 1).collect();
        for &rank in &stream {
            let c = ContentId(rank);
            let raw_hit = raw.contains(c);
            if raw_hit {
                raw.on_hit(c);
            } else {
                raw.on_data(c);
            }
            assert_eq!(handle.apply(c), raw_hit, "divergence at rank {rank}");
        }
        assert_eq!(handle.contents(), {
            let mut v = raw.contents();
            v.sort_unstable();
            v
        });
        sharded.shutdown();
    }

    #[test]
    fn contents_land_on_their_owning_shard() {
        let shards = 4;
        let mut sharded = spawn_lru(shards, 64, 1_000);
        let handle = sharded.handle();
        for rank in 1..=200u64 {
            handle.apply(ContentId(rank));
        }
        for s in 0..shards {
            for c in handle.shard_contents(s) {
                assert_eq!(shard_of(c, shards), s, "{c} stored on wrong shard");
            }
        }
        assert_eq!(handle.contents().len(), 200);
        sharded.shutdown();
    }

    #[test]
    fn replace_store_swaps_one_shard_and_keeps_the_rest_warm() {
        let shards = 4;
        let mut sharded = spawn_lru(shards, 64, 1_000);
        let handle = sharded.handle();
        for rank in 1..=200u64 {
            handle.apply(ContentId(rank));
        }
        let before: Vec<Vec<ContentId>> = (0..shards).map(|s| handle.shard_contents(s)).collect();
        // Re-pin shard 1 with a pre-warmed replacement store.
        let mut replacement = LruStore::new(1_000);
        let seeded: Vec<u64> =
            (500..900u64).filter(|&r| shard_of(ContentId(r), shards) == 1).collect();
        for &rank in &seeded {
            replacement.on_data(ContentId(rank));
        }
        handle.replace_store(1, Box::new(replacement));
        // Shard 1 now serves from the replacement; the others are
        // untouched (warmth survives).
        let swapped = handle.shard_contents(1);
        assert_eq!(swapped.len(), seeded.len());
        assert!(swapped.iter().all(|c| seeded.contains(&c.rank())));
        for s in [0, 2, 3] {
            assert_eq!(handle.shard_contents(s), before[s], "shard {s} disturbed");
        }
        // The swapped shard keeps working: hits on seeded content,
        // misses (then inserts) on the evicted old contents.
        assert!(handle.apply(ContentId(seeded[0])));
        let old_on_shard_1 = before[1][0];
        assert!(!handle.apply(old_on_shard_1), "old store's content must be gone");
        sharded.shutdown();
    }

    #[test]
    fn full_queue_returns_the_job_to_the_caller() {
        // A handler that blocks until released, so the queue backs up.
        let gate = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let seen = Arc::clone(&gate);
        let handler = Arc::new(move |_: &mut dyn ContentStore, v: u64| {
            while seen.load(Ordering::Acquire) == 0 {
                std::thread::yield_now();
            }
            let _ = v;
        });
        let mut sharded = spawn_lru_with(1, 2, 4, handler);
        let handle = sharded.handle();
        // One job may be in the handler plus two queued: the fourth
        // (or at latest fifth) submission must bounce.
        let mut bounced = None;
        for v in 0..8u64 {
            if handle.try_job(ContentId(1), v).is_err() {
                bounced = Some(v);
                break;
            }
        }
        assert!(bounced.is_some(), "bounded queue never pushed back");
        assert!(handle.max_queue_depth() >= 2);
        gate.store(1, Ordering::Release);
        sharded.shutdown();
    }

    #[test]
    fn batched_submission_accepts_up_to_capacity_and_returns_the_rest() {
        // Park the worker behind a gate so the queue fills.
        let gate = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let seen = Arc::clone(&gate);
        let handler = Arc::new(move |_: &mut dyn ContentStore, v: u64| {
            while seen.load(Ordering::Acquire) == 0 {
                std::thread::yield_now();
            }
            let _ = v;
        });
        let mut sharded = spawn_lru_with(1, 8, 4, handler);
        let handle = sharded.handle();
        let mut jobs: Vec<u64> = (0..32).collect();
        let accepted = handle.try_submit_batch(0, &mut jobs);
        // 8 queued (worker may have pulled a few into its drain batch
        // before blocking, so allow a small overshoot window).
        assert!((8..=9).contains(&accepted), "accepted {accepted}");
        assert_eq!(jobs.len(), 32 - accepted, "rejected jobs stay with the caller");
        assert_eq!(jobs[0], accepted as u64, "accepted prefix preserved order");
        assert!(handle.max_queue_depth() >= accepted.min(8));
        gate.store(1, Ordering::Release);
        // With the worker released, the rest drains via the blocking path.
        handle.submit_batch(0, &mut jobs);
        assert!(jobs.is_empty());
        sharded.shutdown();
    }

    #[test]
    fn batched_and_per_op_submission_agree_on_store_state() {
        let stream: Vec<u64> = (0..600).map(|i| mix(i) % 48 + 1).collect();
        let churn = Arc::new(|store: &mut dyn ContentStore, rank: u64| {
            let c = ContentId(rank);
            if store.contains(c) {
                store.on_hit(c);
            } else {
                store.on_data(c);
            }
        });
        let run = |batch: usize| {
            let mut sharded: ShardedStore<u64> = spawn_lru_with(1, 64, 16, Arc::clone(&churn));
            let handle = sharded.handle();
            let mut pending = Vec::with_capacity(batch);
            for &rank in &stream {
                pending.push(rank);
                if pending.len() >= batch {
                    handle.submit_batch(0, &mut pending);
                }
            }
            handle.submit_batch(0, &mut pending);
            while handle.queue_depth() > 0 {
                std::thread::yield_now();
            }
            let contents = handle.contents();
            sharded.shutdown();
            contents
        };
        let per_op = run(1);
        for batch in [2, 16, 256] {
            assert_eq!(run(batch), per_op, "batch={batch} diverged from per-op");
        }
    }

    #[test]
    fn try_spawn_rejects_degenerate_shapes_with_typed_errors() {
        let r: Result<ShardedStore<()>, _> = ShardedStore::try_spawn_with(
            ShardSpec::new(0, 64),
            |_| Box::new(LruStore::new(4)),
            noop(),
        );
        assert!(matches!(r, Err(EngineError::InvalidConfig { .. })));
        let r: Result<ShardedStore<()>, _> = ShardedStore::try_spawn_with(
            ShardSpec::new(1, 0),
            |_| Box::new(LruStore::new(4)),
            noop(),
        );
        assert!(matches!(r, Err(EngineError::InvalidConfig { .. })));
    }

    /// Regression guard for the sleeping-flag/SeqCst-fence wake
    /// protocol: with zero spins and zero yields the worker parks
    /// after *every* dry poll, so each of the serial submissions below
    /// races a worker entering park. A lost wake would stall each op
    /// behind the 1 ms park backstop; 4000 ops would then need ≥ 4 s,
    /// so the 2 s budget fails loudly while a working protocol
    /// finishes in milliseconds.
    #[test]
    fn park_happy_wake_protocol_never_loses_a_submission() {
        let done = Arc::new(AtomicUsize::new(0));
        let observed = Arc::clone(&done);
        let handler = Arc::new(move |_: &mut dyn ContentStore, _v: u64| {
            observed.fetch_add(1, Ordering::Release);
        });
        let mut sharded = spawn_park_eager(64, handler);
        let handle = sharded.handle();
        const OPS: usize = 4_000;
        let budget = Duration::from_secs(2);
        let start = std::time::Instant::now();
        for v in 0..OPS as u64 {
            // Serial round trips: wait for the previous job to finish
            // so the worker is guaranteed idle (and parking) when the
            // next submission lands.
            while handle.try_job(ContentId(v + 1), v).is_err() {
                std::thread::yield_now();
            }
            while done.load(Ordering::Acquire) <= v as usize {
                assert!(
                    start.elapsed() < budget,
                    "lost wake: stuck at {} of {OPS} after {:?}",
                    done.load(Ordering::Acquire),
                    start.elapsed()
                );
                std::hint::spin_loop();
            }
        }
        assert_eq!(done.load(Ordering::Acquire), OPS);
        sharded.shutdown();
    }

    /// Multi-producer variant: several submitters hammer one
    /// eagerly-parking worker concurrently. Every job must be
    /// processed well inside the park-backstop-dominated worst case.
    #[test]
    fn racing_producers_never_strand_jobs_behind_a_parked_worker() {
        let done = Arc::new(AtomicUsize::new(0));
        let observed = Arc::clone(&done);
        let handler = Arc::new(move |_: &mut dyn ContentStore, _v: u64| {
            observed.fetch_add(1, Ordering::Release);
        });
        let mut sharded = spawn_park_eager(1_024, handler);
        let handle = sharded.handle();
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: usize = 2_000;
        std::thread::scope(|scope| {
            for p in 0..PRODUCERS {
                let handle = handle.clone();
                scope.spawn(move || {
                    for v in 0..PER_PRODUCER as u64 {
                        let id = (p as u64) << 32 | v;
                        while handle.try_job(ContentId(v + 1), id).is_err() {
                            std::thread::yield_now();
                        }
                        if v % 7 == 0 {
                            // Let the queue run dry regularly so the
                            // worker actually reaches the park path
                            // mid-race instead of staying hot.
                            std::thread::sleep(Duration::from_micros(50));
                        }
                    }
                });
            }
        });
        let total = PRODUCERS * PER_PRODUCER;
        let start = std::time::Instant::now();
        while done.load(Ordering::Acquire) < total {
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "stranded jobs: {} of {total} processed",
                done.load(Ordering::Acquire)
            );
            std::thread::yield_now();
        }
        assert_eq!(handle.queue_depth(), 0);
        sharded.shutdown();
    }

    #[test]
    fn apply_batch_matches_per_op_apply_across_shards() {
        let shards = 4;
        let stream: Vec<ContentId> = (0..700).map(|i| ContentId(mix(i) % 60 + 1)).collect();
        let mut serial = spawn_lru(shards, 64, 8);
        let mut batched = spawn_lru(shards, 64, 8);
        let serial_handle = serial.handle();
        let batched_handle = batched.handle();
        let serial_hits: Vec<bool> = stream.iter().map(|&c| serial_handle.apply(c)).collect();
        let mut batched_hits = Vec::new();
        batched_handle.apply_batch(&stream, &mut batched_hits);
        assert_eq!(batched_hits, serial_hits, "hit verdicts diverged");
        assert_eq!(batched_handle.contents(), serial_handle.contents(), "stores diverged");
        // A run far longer than the shard buffers have grown to.
        let long: Vec<ContentId> = (0..3 * 256 + 17).map(|i| ContentId(mix(i) % 60 + 1)).collect();
        let mut a = Vec::new();
        batched_handle.apply_batch(&long, &mut a);
        let b: Vec<bool> = long.iter().map(|&c| serial_handle.apply(c)).collect();
        assert_eq!(a, b);
        serial.shutdown();
        batched.shutdown();
    }

    /// The oracle of the run property: an LRU as a plain vector, least
    /// recently used first, every operation a linear scan.
    struct VecLru {
        capacity: usize,
        order: Vec<ContentId>,
    }

    impl VecLru {
        /// One run op: the hit verdict, after touching or admitting.
        fn op(&mut self, content: ContentId, admit: bool) -> bool {
            let at = self.order.iter().position(|&c| c == content);
            if let Some(at) = at {
                self.order.remove(at);
            } else if !admit {
                return false;
            } else if self.order.len() == self.capacity {
                self.order.remove(0);
            }
            self.order.push(content);
            at.is_some()
        }
    }

    proptest! {
        /// A run is a sequential replay: whatever its length, shard
        /// spread, duplicates and mix of admit flags, the verdicts, the
        /// final contents and the eviction order of every shard equal
        /// those of the same ops applied one by one to a raw
        /// `LruStore` and to the vector oracle — through `run_ops`, and
        /// through the four public wrappers carrying the same ops as
        /// same-flag segments, alternately batched and per op.
        #[test]
        fn runs_match_a_sequential_lru_replay(
            shards in 1usize..=4,
            len in prop::sample::select(vec![0usize, 1, 63, 64, 65, 257, 1000]),
            seed in 0u64..1_000_000,
        ) {
            const CAPACITY: usize = 5;
            let mut rng = StdRng::seed_from_u64(seed);
            let ops: Vec<RunOp> = (0..len)
                .map(|_| (ContentId(rng.gen_range(1..=40u64)), rng.gen_range(0u32..3) > 0))
                .collect();
            let mut raw: Vec<LruStore> = (0..shards).map(|_| LruStore::new(CAPACITY)).collect();
            let mut oracle: Vec<VecLru> =
                (0..shards).map(|_| VecLru { capacity: CAPACITY, order: Vec::new() }).collect();
            let mut want = Vec::with_capacity(len);
            for &(content, admit) in &ops {
                let shard = shard_of(content, shards);
                let hit = raw[shard].contains(content);
                if hit {
                    raw[shard].on_hit(content);
                } else if admit {
                    raw[shard].on_data(content);
                }
                prop_assert_eq!(oracle[shard].op(content, admit), hit);
                want.push(hit);
            }

            let mut by_run = spawn_lru(shards, 64, CAPACITY);
            let mut by_wrappers = spawn_lru(shards, 64, CAPACITY);
            let handle = by_run.handle();
            let mut ran = ops.clone();
            handle.run_ops(&mut ran);
            let got: Vec<bool> = ran.iter().map(|&(_, hit)| hit).collect();
            prop_assert_eq!(&got, &want, "run_ops verdicts");
            prop_assert!(ran.iter().zip(&ops).all(|(a, b)| a.0 == b.0), "run_ops moved an id");

            let wrapped = by_wrappers.handle();
            let mut got = Vec::with_capacity(len);
            let mut hits = Vec::new();
            for (turn, segment) in ops.chunk_by(|a, b| a.1 == b.1).enumerate() {
                let admit = segment[0].1;
                let ids: Vec<ContentId> = segment.iter().map(|&(content, _)| content).collect();
                match (turn % 2 == 0, admit) {
                    (true, true) => wrapped.apply_batch(&ids, &mut hits),
                    (true, false) => wrapped.probe_batch(&ids, &mut hits),
                    (false, true) => {
                        hits.clear();
                        hits.extend(ids.iter().map(|&c| wrapped.apply(c)));
                    }
                    (false, false) => {
                        hits.clear();
                        hits.extend(ids.iter().map(|&c| wrapped.probe(c)));
                    }
                }
                got.extend_from_slice(&hits);
            }
            prop_assert_eq!(&got, &want, "wrapper verdicts");

            for shard in 0..shards {
                let order = raw[shard].contents();
                prop_assert_eq!(&oracle[shard].order, &order, "oracle vs raw store");
                prop_assert_eq!(handle.shard_contents(shard), order.clone(), "run_ops store");
                prop_assert_eq!(wrapped.shard_contents(shard), order, "wrapper store");
            }
            by_run.shutdown();
            by_wrappers.shutdown();
        }
    }

    /// A warm run allocates nothing, on either side of the ring: the
    /// caller's count is read directly, each worker's through a job
    /// whose handler runs on the worker thread and reports that
    /// thread's count.
    #[test]
    fn warm_runs_allocate_nothing_on_the_caller_or_the_workers() {
        use crate::alloc_count::allocations;
        let shards = 2;
        let reported = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let reports = Arc::new(AtomicUsize::new(0));
        let (sum, count) = (Arc::clone(&reported), Arc::clone(&reports));
        let handler = Arc::new(move |_: &mut dyn ContentStore, (): ()| {
            sum.fetch_add(allocations(), Ordering::Relaxed);
            count.fetch_add(1, Ordering::Release);
        });
        let mut sharded = spawn_lru_with(shards, 64, 16, handler);
        let handle = sharded.handle();
        let one_per_shard: Vec<ContentId> = (0..shards)
            .map(|s| (1..).map(ContentId).find(|&c| shard_of(c, shards) == s).unwrap())
            .collect();
        // Sum of the workers' allocation counts so far.
        let worker_allocations = || {
            let before = reports.load(Ordering::Acquire);
            for &content in &one_per_shard {
                handle.try_job(content, ()).expect("empty queue");
            }
            while reports.load(Ordering::Acquire) < before + shards {
                std::thread::yield_now();
            }
            reported.swap(0, Ordering::Relaxed)
        };
        let ids: Vec<ContentId> = (0..257).map(|i| ContentId(mix(i) % 90 + 1)).collect();
        let mut ops: Vec<RunOp> = Vec::with_capacity(ids.len());
        let mut hits: Vec<bool> = Vec::with_capacity(ids.len());
        let mut round = |len: usize| {
            ops.clear();
            ops.extend(ids[..len].iter().enumerate().map(|(i, &c)| (c, i % 3 > 0)));
            handle.run_ops(&mut ops);
            handle.apply_batch(&ids[..len], &mut hits);
            handle.probe_batch(&ids[..len], &mut hits);
            handle.apply(ids[len - 1]);
            handle.probe(ids[len - 1]);
        };
        // Warm-up: grows the pooled buffers and the stores to steady state.
        for len in [257, 64, 1] {
            round(len);
        }
        let workers_before = worker_allocations();
        assert!(workers_before > 0, "the report job must read the workers' own counters");
        let caller_before = allocations();
        for _ in 0..8 {
            for len in [1, 64, 257, 2] {
                round(len);
            }
        }
        let caller = allocations() - caller_before;
        let workers = worker_allocations() - workers_before;
        assert_eq!(caller, 0, "a warm caller allocated {caller} times over 32 rounds");
        assert_eq!(workers, 0, "warm workers allocated {workers} times over 32 rounds");
        sharded.shutdown();
    }

    /// The high-water mark uses `fetch_max`, so racing producers can
    /// never lose an observation: with the worker gated, the last of
    /// N concurrent accepted submissions must record depth == N.
    #[test]
    fn max_depth_high_water_survives_racing_producers() {
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: usize = 50;
        let gate = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&gate);
        let handler = Arc::new(move |_: &mut dyn ContentStore, _v: u64| {
            while seen.load(Ordering::Acquire) == 0 {
                std::thread::yield_now();
            }
        });
        let mut sharded = spawn_lru_with(1, 1_024, 4, handler);
        let handle = sharded.handle();
        std::thread::scope(|scope| {
            for p in 0..PRODUCERS {
                let handle = handle.clone();
                scope.spawn(move || {
                    for v in 0..PER_PRODUCER as u64 {
                        handle.try_job(ContentId(v + 1), (p as u64) << 32 | v).unwrap();
                    }
                });
            }
        });
        // All 200 accepted and none processed (worker gated): the
        // producer whose fetch_add returned the final count also
        // fetch_maxed it, whatever the interleaving.
        assert_eq!(handle.max_queue_depth(), PRODUCERS * PER_PRODUCER);
        gate.store(1, Ordering::Release);
        sharded.shutdown();
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for shards in 1..=8 {
            for rank in 1..=1_000u64 {
                let s = shard_of(ContentId(rank), shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(ContentId(rank), shards));
            }
        }
    }
}
