//! One framed TCP connection: owned read/write scratch, the shared
//! frame/byte meter, the version handshake, and the classification of
//! socket errors into timeouts (safe to retry or re-route) and
//! everything else (drop the connection).

use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use super::codec::{proto_err, Request, Response, MAX_FRAME, PROTOCOL_VERSION};
use crate::error::EngineError;

pub(super) fn net_err(op: &str, detail: impl std::fmt::Display) -> EngineError {
    EngineError::Net { op: op.to_owned(), detail: detail.to_string(), timeout: false }
}

/// Wraps an `io::Error`, classifying timeouts from its *kind*: Linux
/// reports a socket read timeout as `WouldBlock` ("Resource
/// temporarily unavailable"), other platforms as `TimedOut` — the
/// display string is not portable, the kind is.
pub(super) fn net_io_err(op: &str, e: &io::Error) -> EngineError {
    let timeout = matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut);
    EngineError::Net { op: op.to_owned(), detail: e.to_string(), timeout }
}

pub(super) fn is_timeout(e: &EngineError) -> bool {
    matches!(e, EngineError::Net { timeout: true, .. })
}

/// Shared per-role wire counters: one meter covers every metered
/// connection of one role (a node's links, or one driver stream). All
/// relaxed — these feed throughput accounting, not synchronization.
#[derive(Debug, Default)]
pub(super) struct WireMeter {
    pub(super) frames_out: AtomicU64,
    pub(super) frames_in: AtomicU64,
    pub(super) bytes_out: AtomicU64,
    pub(super) bytes_in: AtomicU64,
    /// High-water mark of frames in flight on any metered connection.
    pub(super) max_window: AtomicU64,
}

impl WireMeter {
    fn sent(&self, bytes: usize) {
        self.frames_out.fetch_add(1, Ordering::Relaxed);
        self.bytes_out.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    fn received(&self, bytes: usize) {
        self.frames_in.fetch_add(1, Ordering::Relaxed);
        self.bytes_in.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(super) fn window(&self, depth: usize) {
        self.max_window.fetch_max(depth as u64, Ordering::Relaxed);
    }
}

/// One framed connection with owned codec scratch: a read buffer
/// replacing the header/body `read_exact` syscall pairs with buffered
/// bulk reads (one `read` often delivers several pipelined frames),
/// and a write buffer encoded in place — 4-byte length hole, body,
/// length patched — flushed with a single `write_all`. A warm
/// connection sends and receives frames without allocating.
#[derive(Debug)]
pub(super) struct Conn {
    pub(super) stream: TcpStream,
    /// Read scratch; `rbuf[rstart..rend]` is valid unconsumed input.
    rbuf: Vec<u8>,
    rstart: usize,
    rend: usize,
    /// Write scratch, reused across frames.
    wbuf: Vec<u8>,
    /// `(offset, len)` of the last received frame body in `rbuf`;
    /// valid until the next `recv_len` call.
    last: (usize, usize),
    pub(super) meter: Option<Arc<WireMeter>>,
}

impl Conn {
    pub(super) fn new(stream: TcpStream, meter: Option<Arc<WireMeter>>) -> Self {
        Self { stream, rbuf: Vec::new(), rstart: 0, rend: 0, wbuf: Vec::new(), last: (0, 0), meter }
    }

    fn buffered(&self) -> usize {
        self.rend - self.rstart
    }

    /// Ensures `rbuf` can hold `need` bytes starting at `rstart`,
    /// compacting the unconsumed tail to the front before growing.
    fn make_room(&mut self, need: usize) {
        if self.rstart + need <= self.rbuf.len() {
            return;
        }
        self.rbuf.copy_within(self.rstart..self.rend, 0);
        self.rend -= self.rstart;
        self.rstart = 0;
        if self.rbuf.len() < need {
            self.rbuf.resize(need, 0);
        }
    }

    /// Receives one frame, honouring the stream's read timeout; the
    /// body (kind byte + payload) is readable via [`Conn::last_frame`]
    /// until the next receive. `Ok(None)` is a clean EOF on a frame
    /// boundary.
    ///
    /// Only a timeout with *no* partial frame buffered — a frame
    /// boundary — is classified as a timeout ([`is_timeout`]): it is
    /// safe to retry (idle) or re-route (deadline). Once any frame
    /// byte has arrived, a stall leaves the stream desynchronized, so
    /// mid-frame errors are deliberately wrapped via [`net_err`]
    /// (never a timeout) and the caller drops the connection.
    pub(super) fn recv_len(&mut self) -> Result<Option<usize>, EngineError> {
        if self.buffered() == 0 {
            self.rstart = 0;
            self.rend = 0;
        }
        while self.buffered() < 4 {
            let at_boundary = self.buffered() == 0;
            self.make_room(4);
            match self.stream.read(&mut self.rbuf[self.rend..]) {
                Ok(0) if at_boundary => return Ok(None),
                Ok(0) => return Err(net_err("read-frame", "connection closed mid-frame")),
                Ok(n) => self.rend += n,
                Err(e) if at_boundary => return Err(net_io_err("read-frame", &e)),
                Err(e) => return Err(net_err("read-frame", e)),
            }
        }
        let h = self.rstart;
        let len = u32::from_le_bytes([
            self.rbuf[h],
            self.rbuf[h + 1],
            self.rbuf[h + 2],
            self.rbuf[h + 3],
        ]);
        if len == 0 || len > MAX_FRAME {
            return Err(proto_err(format!("frame length {len} outside 1..={MAX_FRAME}")));
        }
        let total = 4 + len as usize;
        self.make_room(total);
        while self.buffered() < total {
            match self.stream.read(&mut self.rbuf[self.rend..]) {
                Ok(0) => return Err(net_err("read-frame", "connection closed mid-frame")),
                Ok(n) => self.rend += n,
                Err(e) => return Err(net_err("read-frame", e)),
            }
        }
        self.last = (self.rstart + 4, len as usize);
        self.rstart += total;
        if let Some(m) = &self.meter {
            m.received(total);
        }
        Ok(Some(len as usize))
    }

    /// The body of the last frame received by [`Conn::recv_len`].
    pub(super) fn last_frame(&self) -> &[u8] {
        &self.rbuf[self.last.0..self.last.0 + self.last.1]
    }

    /// Encodes one frame in the write scratch — length hole, body via
    /// `enc`, length patched — and sends it with one `write_all`.
    pub(super) fn send(
        &mut self,
        enc: impl FnOnce(&mut Vec<u8>) -> Result<(), EngineError>,
    ) -> Result<(), EngineError> {
        self.wbuf.clear();
        self.wbuf.extend_from_slice(&[0u8; 4]);
        enc(&mut self.wbuf)?;
        let len = u32::try_from(self.wbuf.len() - 4)
            .ok()
            .filter(|&len| len > 0 && len <= MAX_FRAME)
            .ok_or_else(|| {
                proto_err(format!(
                    "frame of {} bytes outside 1..={MAX_FRAME}",
                    self.wbuf.len().saturating_sub(4)
                ))
            })?;
        self.wbuf[..4].copy_from_slice(&len.to_le_bytes());
        self.stream.write_all(&self.wbuf).map_err(|e| net_io_err("write-frame", &e))?;
        if let Some(m) = &self.meter {
            m.sent(self.wbuf.len());
        }
        Ok(())
    }

    pub(super) fn send_request(&mut self, req: &Request) -> Result<(), EngineError> {
        self.send(|buf| req.encode_into(buf))
    }

    pub(super) fn send_response(&mut self, resp: &Response) -> Result<(), EngineError> {
        self.send(|buf| resp.encode_into(buf))
    }

    pub(super) fn recv_response(&mut self) -> Result<Response, EngineError> {
        match self.recv_len()? {
            Some(_) => Response::decode(self.last_frame()),
            None => Err(net_err("read-frame", "connection closed mid-conversation")),
        }
    }

    pub(super) fn set_read_timeout(&self, t: Duration) -> Result<(), EngineError> {
        self.stream
            .set_read_timeout(Some(t.max(MIN_SOCKET_TIMEOUT)))
            .map_err(|e| net_err("set-timeout", e))
    }
}

fn resolve(addr: &str) -> Result<SocketAddr, EngineError> {
    addr.to_socket_addrs()
        .map_err(|e| net_err("resolve", format!("{addr}: {e}")))?
        .next()
        .ok_or_else(|| net_err("resolve", format!("{addr}: no addresses")))
}

/// Floor for connect/read timeouts so a zero remaining budget still
/// maps to a valid socket timeout (`set_read_timeout` rejects zero).
pub(super) const MIN_SOCKET_TIMEOUT: Duration = Duration::from_micros(50);

/// Dials `addr` and completes the version handshake: `Hello` out,
/// `HelloAck` back. A mismatched or refused handshake is a hard error
/// — mixed-version clusters fail at connect time, not mid-stream.
pub(super) fn connect_hello(
    addr: &str,
    my_id: u32,
    timeout: Duration,
    meter: Option<Arc<WireMeter>>,
) -> Result<Conn, EngineError> {
    let sockaddr = resolve(addr)?;
    let timeout = timeout.max(MIN_SOCKET_TIMEOUT);
    let stream =
        TcpStream::connect_timeout(&sockaddr, timeout).map_err(|e| net_io_err("connect", &e))?;
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(timeout)).map_err(|e| net_io_err("connect", &e))?;
    let mut conn = Conn::new(stream, meter);
    conn.send_request(&Request::Hello { node: my_id, version: PROTOCOL_VERSION })?;
    match conn.recv_response()? {
        Response::HelloAck { version: PROTOCOL_VERSION } => Ok(conn),
        Response::HelloAck { version } => Err(proto_err(format!(
            "protocol version mismatch: peer speaks v{version}, we speak v{PROTOCOL_VERSION}"
        ))),
        Response::Refused { reason } => Err(proto_err(format!("peer refused hello: {reason}"))),
        other => Err(proto_err(format!("unexpected hello answer {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Regression: a socket read timeout must classify as a timeout
    /// from its `io::ErrorKind`. On Linux it surfaces as `WouldBlock`
    /// and displays as "Resource temporarily unavailable (os error
    /// 11)" — the old string-match on "timed out" never saw it.
    #[test]
    fn frame_read_timeout_is_classified_by_kind() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let _server = listener.accept().expect("accept");
        client.set_read_timeout(Some(Duration::from_millis(25))).expect("set timeout");
        let mut conn = Conn::new(client, None);
        let err = conn.recv_len().expect_err("idle read must time out");
        assert!(is_timeout(&err), "boundary read timeout must classify as timeout, got: {err}");
    }
}
