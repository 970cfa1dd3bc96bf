//! A node's outbound link to one peer: the pipelined
//! `PeerForwardBatch` conversation on one connection and health
//! probes on another.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use super::codec::{encode_forward_batch_from, parse_forward_batch_reply, Request, Response};
use super::conn::{connect_hello, is_timeout, Conn, WireMeter, MIN_SOCKET_TIMEOUT};
use crate::shard::lock_recover;

// ---------------------------------------------------------------------------
// Peer links (client side of the forward path)
// ---------------------------------------------------------------------------

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

/// One outbound connection to a peer node, lazily established and
/// dropped on any failure (a timed-out stream may deliver a late
/// reply, which would desynchronize the framing — never reuse it).
/// The health prober uses its own persistent connection so probes
/// never interleave with forward framing.
pub(super) struct PeerLink {
    pub(super) node: usize,
    addr: String,
    conn: Mutex<Option<Conn>>,
    probe: Mutex<Option<Conn>>,
    pub(super) failures: AtomicU32,
    next_tag: AtomicU32,
    meter: Arc<WireMeter>,
}

impl PeerLink {
    pub(super) fn new(node: usize, addr: String, meter: Arc<WireMeter>) -> Self {
        Self {
            node,
            addr,
            conn: Mutex::new(None),
            probe: Mutex::new(None),
            failures: AtomicU32::new(0),
            next_tag: AtomicU32::new(0),
            meter,
        }
    }

    /// Forwards a burst of same-holder misses: `items` chunked into
    /// `PeerForwardBatch` frames of at most `max_per_frame` items,
    /// up to `window` tagged frames in flight, replies drained FIFO
    /// under the remaining `budget`. Fills one verdict per item into
    /// `outcomes` (`FWD_HIT` / `FWD_MISS` / `FWD_REFUSED` /
    /// [`OUT_TIMEOUT`] / [`OUT_BROKEN`]) and returns the number of
    /// frames sent. Any transport failure or tag desync fails the
    /// un-drained tail and drops the connection.
    pub(super) fn forward_batch(
        &self,
        my_id: u32,
        items: &[(u64, u32)],
        budget: Duration,
        window: usize,
        max_per_frame: usize,
        outcomes: &mut Vec<u8>,
    ) -> u64 {
        outcomes.clear();
        outcomes.resize(items.len(), OUT_BROKEN);
        if items.is_empty() {
            return 0;
        }
        let budget = budget.max(MIN_SOCKET_TIMEOUT);
        let issued = Instant::now();
        let mut guard = lock_recover(&self.conn);
        if guard.is_none() {
            match connect_hello(&self.addr, my_id, budget, Some(self.meter.clone())) {
                Ok(c) => *guard = Some(c),
                Err(e) => {
                    let code = if is_timeout(&e) { OUT_TIMEOUT } else { OUT_BROKEN };
                    mark_from(outcomes, 0, code);
                    return 0;
                }
            }
        }
        let max_per_frame = max_per_frame.max(1);
        let chunks = items.len().div_ceil(max_per_frame);
        let base_tag =
            self.next_tag.fetch_add(u32::try_from(chunks).unwrap_or(u32::MAX), Ordering::Relaxed);
        let mut frames_sent = 0u64;
        let conn = guard.as_mut().expect("connection just established");
        let keep = pump_forward_batch(
            conn,
            base_tag,
            items,
            budget,
            issued,
            window.max(1),
            max_per_frame,
            outcomes,
            &mut frames_sent,
        );
        if !keep {
            *guard = None;
        }
        frames_sent
    }

    /// Health probe on a persistent dedicated connection (never the
    /// forward stream, whose framing a probe could interleave with),
    /// lazily redialled after any failure — a healthy peer costs one
    /// dial total instead of one per probe.
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

/// The send/drain pump of [`PeerLink::forward_batch`], split out so
/// the caller can drop the connection when it returns `false`.
#[allow(clippy::too_many_arguments)]
fn pump_forward_batch(
    conn: &mut Conn,
    base_tag: u32,
    items: &[(u64, u32)],
    budget: Duration,
    issued: Instant,
    window: usize,
    max_per_frame: usize,
    outcomes: &mut [u8],
    frames_sent: &mut u64,
) -> bool {
    let chunks = items.len().div_ceil(max_per_frame);
    let mut sent = 0usize;
    let mut drained = 0usize;
    while drained < chunks {
        // Top up the credit window.
        while sent < chunks && sent - drained < window {
            let start = sent * max_per_frame;
            let end = (start + max_per_frame).min(items.len());
            let tag = base_tag.wrapping_add(sent as u32);
            if conn.send(|buf| encode_forward_batch_from(buf, tag, &items[start..end])).is_err() {
                mark_from(outcomes, drained * max_per_frame, OUT_BROKEN);
                return false;
            }
            *frames_sent += 1;
            sent += 1;
        }
        if let Some(m) = &conn.meter {
            m.window(sent - drained);
        }
        // Drain the oldest outstanding frame under what's left of the
        // budget.
        let remaining = budget.saturating_sub(issued.elapsed());
        if remaining.is_zero() {
            mark_from(outcomes, drained * max_per_frame, OUT_TIMEOUT);
            return false;
        }
        if conn.set_read_timeout(remaining).is_err() {
            mark_from(outcomes, drained * max_per_frame, OUT_BROKEN);
            return false;
        }
        let code = match conn.recv_len() {
            Ok(Some(_)) => None,
            Ok(None) => Some(OUT_BROKEN),
            Err(e) if is_timeout(&e) => Some(OUT_TIMEOUT),
            Err(_) => Some(OUT_BROKEN),
        };
        if let Some(code) = code {
            mark_from(outcomes, drained * max_per_frame, code);
            return false;
        }
        let start = drained * max_per_frame;
        let end = (start + max_per_frame).min(items.len());
        let want = base_tag.wrapping_add(drained as u32);
        match parse_forward_batch_reply(conn.last_frame()) {
            Ok((tag, verdicts)) if tag == want && verdicts.len() == end - start => {
                outcomes[start..end].copy_from_slice(verdicts);
                drained += 1;
            }
            // A stale tag, short reply, or any other frame means the
            // stream is desynchronized: fail the tail, drop the
            // connection.
            _ => {
                mark_from(outcomes, start, OUT_BROKEN);
                return false;
            }
        }
    }
    true
}
