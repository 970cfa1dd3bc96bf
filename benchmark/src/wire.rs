//! The benchmark's load drivers for the wire tier: one thread and one
//! connection per node, a credit window of tagged `BatchLookup` frames,
//! replies settled in send order. Both loops block in `ppoll` — for a
//! reply, or (open loop) for whichever comes first of a reply and the
//! next intended send time — and never busy-poll, so the generator does
//! not take the cores the nodes need.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use ccn_engine::net::{Request, Response};

use crate::nodes::Conn;
use crate::schedule::Arrival;
use crate::trace::Tracer;

/// A reply later than this fails the run: nothing on an idle loopback
/// cluster takes seconds.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// The driver's own account of one connection. `failed` collects every
/// way a request can go unserved (shed or refused by the node); each
/// offered request lands in exactly one of the other four fields.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    pub offered: u64,
    pub local: u64,
    pub peer: u64,
    pub origin: u64,
    pub failed: u64,
}

impl Ledger {
    pub fn completed(&self) -> u64 {
        self.local + self.peer + self.origin
    }

    pub fn add(&mut self, other: &Ledger) {
        self.offered += other.offered;
        self.local += other.local;
        self.peer += other.peer;
        self.origin += other.origin;
        self.failed += other.failed;
    }
}

/// One answered frame.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the reply was decoded, nanoseconds since the phase start.
    pub done_ns: u64,
    /// Reply decoded − intended send time (open loop) or − hand-off to
    /// the socket (closed loop).
    pub latency_ns: u64,
    /// Actual send − intended send time (open loop only).
    pub lag_ns: u64,
    pub ops: u32,
    /// Whether the peer tier answered any request of the frame.
    pub peer: bool,
}

#[derive(Debug, Default)]
pub struct DriveOut {
    pub ledger: Ledger,
    pub samples: Vec<Sample>,
    /// Open loop: requests due but not yet answered when the step's
    /// schedule ran out — the backlog the step left behind.
    pub backlog_end: u64,
}

/// When a closed loop stops offering.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many requests (warm-up: a count, not a duration).
    Count(u64),
    /// This many nanoseconds after the phase start.
    At(u64),
}

struct Pending {
    tag: u32,
    ops: u32,
    due_ns: u64,
    sent_ns: u64,
    /// Traced frames: the request id and the `(encoded, written)`
    /// instants, which only a sampled frame reads the clock for.
    trace: Option<(u64, u64, u64)>,
}

fn since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The state both loops share: the connection, its frames in flight,
/// and where answered frames are recorded.
struct Flight<'a> {
    conn: &'a mut Conn,
    tracer: &'a mut Option<Tracer>,
    t0: Instant,
    /// Whether latency counts from a frame's due time (open loop) or
    /// from its hand-off to the socket (closed loop).
    from_due: bool,
    request: Request,
    pending: VecDeque<Pending>,
    out: DriveOut,
}

impl<'a> Flight<'a> {
    fn new(
        conn: &'a mut Conn,
        tracer: &'a mut Option<Tracer>,
        t0: Instant,
        from_due: bool,
        batch: usize,
        window: usize,
    ) -> Self {
        Self {
            conn,
            tracer,
            t0,
            from_due,
            request: Request::BatchLookup { tag: 0, contents: Vec::with_capacity(batch) },
            pending: VecDeque::with_capacity(window),
            out: DriveOut::default(),
        }
    }

    /// Sends one `BatchLookup` of `ranks`, due at `due_ns` (open loop:
    /// its intended send time; closed loop: when its window slot came
    /// free).
    fn send(&mut self, ranks: impl Iterator<Item = u64>, due_ns: u64) -> Result<(), String> {
        let Request::BatchLookup { tag, contents } = &mut self.request else {
            unreachable!("drivers only send BatchLookup");
        };
        *tag = tag.wrapping_add(1);
        contents.clear();
        contents.extend(ranks);
        let (tag, ops) = (*tag, u32::try_from(contents.len()).expect("batch fits u32"));
        self.out.ledger.offered += u64::from(ops);
        let sent_ns = since(self.t0);
        let trace = match self.tracer.as_mut().and_then(Tracer::sample) {
            Some(id) => {
                self.conn.encode(&self.request)?;
                let encoded = since(self.t0);
                self.conn.write_encoded()?;
                Some((id, encoded, since(self.t0)))
            }
            None => {
                self.conn.send(&self.request)?;
                None
            }
        };
        self.pending.push_back(Pending { tag, ops, due_ns, sent_ns, trace });
        Ok(())
    }

    /// Reads what the socket holds and settles every complete reply
    /// against the front of `pending`: the node answers strictly in
    /// receipt order, so any other tag, or a tally that does not cover
    /// the frame, is a protocol violation and fails the run.
    fn settle(&mut self, readable_ns: u64) -> Result<(), String> {
        self.conn.fill()?;
        while let Some(reply) = self.conn.buffered()? {
            let done_ns = since(self.t0);
            let Response::BatchServed { tag, local, peer, origin, shed } = reply else {
                return Err(format!("expected BatchServed, got {reply:?}"));
            };
            let Some(frame) = self.pending.pop_front() else {
                return Err(format!("reply tag {tag} with nothing in flight"));
            };
            if tag != frame.tag || local + peer + origin + shed != u64::from(frame.ops) {
                return Err(format!(
                    "reply (tag {tag}: {local}+{peer}+{origin}+{shed}) does not answer frame \
                     (tag {}, {} requests)",
                    frame.tag, frame.ops
                ));
            }
            let ledger = &mut self.out.ledger;
            ledger.local += local;
            ledger.peer += peer;
            ledger.origin += origin;
            ledger.failed += shed;
            let from = if self.from_due { frame.due_ns } else { frame.sent_ns };
            self.out.samples.push(Sample {
                done_ns,
                latency_ns: done_ns.saturating_sub(from),
                lag_ns: frame.sent_ns.saturating_sub(frame.due_ns),
                ops: frame.ops,
                peer: peer > 0,
            });
            if let (Some((id, encoded, written)), Some(tracer)) =
                (frame.trace, self.tracer.as_mut())
            {
                // schedule_wait | encode | write | await | read_decode
                let edges = [frame.due_ns, frame.sent_ns, encoded, written, readable_ns, done_ns];
                tracer.record(id, &edges);
            }
        }
        Ok(())
    }

    /// Blocks up to `timeout` for replies and settles them; `false`
    /// when the wait timed out.
    fn wait_and_settle(&mut self, timeout: Duration) -> Result<bool, String> {
        if !self.conn.wait(timeout)? {
            return Ok(false);
        }
        let readable_ns = since(self.t0);
        self.settle(readable_ns)?;
        Ok(true)
    }
}

/// Closed loop: keeps `window` frames of `batch` ranks in flight until
/// `stop`, then drains. Ranks come from `stream` starting at `*pos`,
/// cycling; `*pos` advances so a later phase continues where this one
/// ended.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    conn: &mut Conn,
    stream: &[u64],
    pos: &mut usize,
    batch: usize,
    window: usize,
    stop: Stop,
    t0: Instant,
    tracer: &mut Option<Tracer>,
) -> Result<DriveOut, String> {
    let mut flight = Flight::new(conn, tracer, t0, false, batch, window);
    let mut slot_free_ns = since(t0);
    loop {
        while flight.pending.len() < window {
            let stopped = match stop {
                Stop::Count(n) => flight.out.ledger.offered >= n,
                Stop::At(ns) => since(t0) >= ns,
            };
            if stopped {
                break;
            }
            flight.send((0..batch).map(|i| stream[(*pos + i) % stream.len()]), slot_free_ns)?;
            *pos = (*pos + batch) % stream.len();
        }
        if flight.pending.is_empty() {
            return Ok(flight.out);
        }
        if !flight.wait_and_settle(REPLY_TIMEOUT)? {
            return Err(format!("no reply within {REPLY_TIMEOUT:?}"));
        }
        slot_free_ns = since(t0);
    }
}

/// Open loop: sends each arrival at its intended time (relative to
/// `t0`) when the credit window allows, and times every request from
/// that intended time, so a stall is charged to every request it
/// delays and not only to the one that hit it.
pub fn open_loop(
    conn: &mut Conn,
    arrivals: &[Arrival],
    window: usize,
    horizon_ns: u64,
    t0: Instant,
    tracer: &mut Option<Tracer>,
) -> Result<DriveOut, String> {
    let mut flight = Flight::new(conn, tracer, t0, true, 1, window);
    let mut next = 0usize;
    let mut backlog_taken = false;
    loop {
        let mut now = since(t0);
        while next < arrivals.len() && arrivals[next].at_ns <= now && flight.pending.len() < window
        {
            flight.send(std::iter::once(arrivals[next].rank), arrivals[next].at_ns)?;
            next += 1;
            now = since(t0);
        }
        if !backlog_taken && now >= horizon_ns {
            // Every arrival is due by now; what is unanswered is backlog.
            flight.out.backlog_end = (arrivals.len() - next + flight.pending.len()) as u64;
            backlog_taken = true;
        }
        if next == arrivals.len() && flight.pending.is_empty() {
            return Ok(flight.out);
        }
        let timeout = if next < arrivals.len() && flight.pending.len() < window {
            Duration::from_nanos(arrivals[next].at_ns.saturating_sub(now))
        } else {
            REPLY_TIMEOUT
        };
        if !flight.wait_and_settle(timeout)? && timeout == REPLY_TIMEOUT {
            return Err(format!("no reply within {REPLY_TIMEOUT:?}"));
        }
    }
}

/// Median round trip, microseconds, of stop-and-wait exchanges: one
/// per item of `requests`, counting those whose reply `accept`s (the
/// expected tier answered). Fails when fewer than half did.
pub fn round_trip_p50_us(
    conn: &mut Conn,
    requests: impl Iterator<Item = Request>,
    accept: impl Fn(&Response) -> bool,
) -> Result<f64, String> {
    let mut rtts = Vec::new();
    let mut rounds = 0usize;
    for request in requests {
        let start = Instant::now();
        let reply = conn.call(&request)?;
        let rtt = start.elapsed();
        rounds += 1;
        if accept(&reply) {
            rtts.push(rtt.as_secs_f64() * 1.0e6);
        }
    }
    if rtts.len() * 2 < rounds {
        return Err(format!(
            "round-trip probe: only {} of {rounds} replies as expected",
            rtts.len()
        ));
    }
    crate::stats::median(&rtts).ok_or_else(|| "round-trip probe made no rounds".to_owned())
}
