//! A node's outbound side towards one peer: the shared [`PeerLink`]
//! (address, failure streak, the health prober's connection) and each
//! serve worker's own [`Link`] carrying the pipelined
//! `PeerForwardBatch` conversation.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use super::codec::{encode_forward_batch_from, parse_forward_batch_reply, Request, Response};
use super::conn::{check_hello_ack, connect, connect_hello, hello, is_timeout, Conn};
use super::poll::READABLE;
use super::worker::{Worker, LINK_BASE};
use crate::fault::FailureStreak;
use crate::shard::lock_recover;

/// Link-local outcome codes for forwarded items whose round-trip
/// never completed. Never sent on the wire — the wire verdict space
/// is `FWD_HIT` / `FWD_MISS` / `FWD_REFUSED` — so they sit at the top
/// of the byte range.
pub(super) const OUT_TIMEOUT: u8 = 0xFE;
/// See [`OUT_TIMEOUT`]: socket failure (refused, reset, desync).
pub(super) const OUT_BROKEN: u8 = 0xFF;

/// Fails every not-yet-drained outcome slot from `from` on.
fn mark_from(outcomes: &mut [u8], from: usize, code: u8) {
    let from = from.min(outcomes.len());
    for o in &mut outcomes[from..] {
        *o = code;
    }
}

/// What a node's workers share about one peer: where it listens, the
/// consecutive-failure streak that marks it down, and the health
/// prober's persistent connection (its own, so probes never interleave
/// with forward framing).
pub(super) struct PeerLink {
    pub(super) node: usize,
    addr: String,
    probe: Mutex<Option<Conn>>,
    pub(super) streak: FailureStreak,
}

impl PeerLink {
    pub(super) fn new(node: usize, addr: String) -> Self {
        Self { node, addr, probe: Mutex::new(None), streak: FailureStreak::default() }
    }

    /// Health probe on the prober's connection, lazily redialled after
    /// any failure — a healthy peer costs one dial total instead of
    /// one per probe.
    pub(super) fn probe_health(&self, my_id: u32) -> Option<u64> {
        let mut guard = lock_recover(&self.probe);
        if guard.is_none() {
            *guard = connect_hello(&self.addr, my_id, Duration::from_millis(100), None).ok();
        }
        let conn = guard.as_mut()?;
        let result = conn.send_request(&Request::HealthProbe).and_then(|()| conn.recv_response());
        match result {
            Ok(Response::HealthAck { epoch }) => Some(epoch),
            _ => {
                *guard = None;
                None
            }
        }
    }
}

/// One worker's forward connection to one peer, registered in that
/// worker's poller; established on first use and dropped on any
/// failure (a timed-out stream may deliver a late reply, which would
/// desynchronize the framing — never reuse it).
pub(super) struct Link {
    conn: Conn,
    /// The connection's registration in its worker's poller.
    token: u64,
    next_tag: u32,
}

impl Worker {
    /// Forwards a burst of same-holder misses on this worker's link to
    /// `peer`: `items` chunked into `PeerForwardBatch` frames of at
    /// most `wire_batch` items, up to `window` tagged frames in
    /// flight, replies drained FIFO until the deadline `until`. Fills
    /// one verdict per item into `outcomes` (`FWD_HIT` / `FWD_MISS` /
    /// `FWD_REFUSED` / [`OUT_TIMEOUT`] / [`OUT_BROKEN`]) and returns
    /// the number of frames sent. Any transport failure or tag desync
    /// fails the un-drained tail and drops the connection.
    pub(super) fn forward_batch(
        &mut self,
        peer: &PeerLink,
        items: &[(u64, u32)],
        until: Instant,
        outcomes: &mut Vec<u8>,
    ) -> u64 {
        outcomes.clear();
        outcomes.resize(items.len(), OUT_BROKEN);
        if items.is_empty() {
            return 0;
        }
        let mut link = match self.links[peer.node].take() {
            Some(link) => link,
            None => match self.dial(peer, until) {
                Ok(link) => link,
                Err(code) => {
                    mark_from(outcomes, 0, code);
                    return 0;
                }
            },
        };
        let mut frames_sent = 0u64;
        if self.converse(&mut link, items, until, outcomes, &mut frames_sent) {
            self.links[peer.node] = Some(link);
        }
        frames_sent
    }

    /// Dials `peer` and completes the version handshake. The connect
    /// itself blocks (the standard library has no other kind; on a
    /// reachable host the kernel completes it without the peer's
    /// help), the handshake waits like every other wait: pumping.
    fn dial(&mut self, peer: &PeerLink, until: Instant) -> Result<Link, u8> {
        let shared = &self.shared;
        let budget = until.saturating_duration_since(Instant::now());
        let mut conn = connect(&peer.addr, budget, Some(Arc::clone(&shared.meter)))
            .map_err(|e| if is_timeout(&e) { OUT_TIMEOUT } else { OUT_BROKEN })?;
        let token = LINK_BASE + peer.node as u64;
        conn.stream
            .set_nonblocking(true)
            .and_then(|()| self.poller.add(&conn.stream, token, READABLE))
            .map_err(|_| OUT_BROKEN)?;
        conn.send_request(&hello(shared.config.id as u32)).map_err(|_| OUT_BROKEN)?;
        self.await_frame(&mut conn, token, until)?;
        Response::decode(conn.last_frame()).and_then(check_hello_ack).map_err(|_| OUT_BROKEN)?;
        Ok(Link { conn, token, next_tag: 0 })
    }

    /// The send/drain conversation of [`Worker::forward_batch`];
    /// `false` means the link must be dropped.
    fn converse(
        &mut self,
        link: &mut Link,
        items: &[(u64, u32)],
        until: Instant,
        outcomes: &mut [u8],
        frames_sent: &mut u64,
    ) -> bool {
        let window = self.shared.config.window.max(1);
        let max_per_frame = self.shared.config.wire_batch.max(1);
        let chunks = items.len().div_ceil(max_per_frame);
        let chunk = |k: usize| k * max_per_frame..((k + 1) * max_per_frame).min(items.len());
        let base_tag = link.next_tag;
        link.next_tag = base_tag.wrapping_add(chunks as u32);
        let mut sent = 0usize;
        let mut drained = 0usize;
        while drained < chunks {
            // Top up the credit window.
            while sent < chunks && sent - drained < window {
                let tag = base_tag.wrapping_add(sent as u32);
                let frame = &items[chunk(sent)];
                if link.conn.send(|buf| encode_forward_batch_from(buf, tag, frame)).is_err() {
                    mark_from(outcomes, chunk(drained).start, OUT_BROKEN);
                    return false;
                }
                *frames_sent += 1;
                sent += 1;
            }
            if let Some(m) = &link.conn.meter {
                m.window(sent - drained);
            }
            // Drain the oldest outstanding frame under what's left of
            // the budget.
            let range = chunk(drained);
            if let Err(code) = self.await_frame(&mut link.conn, link.token, until) {
                mark_from(outcomes, range.start, code);
                return false;
            }
            let want = base_tag.wrapping_add(drained as u32);
            match parse_forward_batch_reply(link.conn.last_frame()) {
                Ok((tag, verdicts)) if tag == want && verdicts.len() == range.len() => {
                    outcomes[range].copy_from_slice(verdicts);
                    drained += 1;
                }
                // A stale tag, short reply, or any other frame means
                // the stream is desynchronized: fail the tail, drop
                // the connection.
                _ => {
                    mark_from(outcomes, range.start, OUT_BROKEN);
                    return false;
                }
            }
        }
        true
    }
}
