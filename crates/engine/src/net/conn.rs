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
    fn sent(&self, frames: u64, bytes: usize) {
        self.frames_out.fetch_add(frames, Ordering::Relaxed);
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
/// length patched — flushed with as few `write`s as the socket
/// allows. A warm connection sends and receives frames without
/// allocating, and never buffers more than `4 + MAX_FRAME` bytes.
///
/// The blocking side ([`Conn::recv_len`]) serves drivers, probers and
/// tests; a node's serve worker puts the stream in nonblocking mode
/// and steps it with [`Conn::poll_frame`] when its poller says so.
#[derive(Debug)]
pub(super) struct Conn {
    pub(super) stream: TcpStream,
    /// Read scratch; `rbuf[rstart..rend]` is valid unconsumed input.
    rbuf: Vec<u8>,
    rstart: usize,
    rend: usize,
    /// Whether the socket may hold unread bytes: set by the poller's
    /// report ([`Conn::mark_ready`]), cleared by the `read` that
    /// drained it — so a nonblocking connection costs one `read` per
    /// report, not a second one to learn `WouldBlock`.
    ready: bool,
    /// Write scratch, reused across frames: `wqueued` encoded frames,
    /// of which `wbuf[wsent..]` is still owed to the socket.
    wbuf: Vec<u8>,
    wsent: usize,
    wqueued: u64,
    /// `(offset, len)` of the last received frame body in `rbuf`;
    /// valid until the next receive.
    last: (usize, usize),
    pub(super) meter: Option<Arc<WireMeter>>,
}

/// Smallest read window: one `read` takes a whole credit window of
/// small frames.
const READ_WINDOW: usize = 16 * 1024;

/// One nonblocking receive step ([`Conn::poll_frame`]).
#[derive(Debug, PartialEq, Eq)]
pub(super) enum Polled {
    /// A frame is ready in [`Conn::last_frame`].
    Frame,
    /// The socket is drained; wait for the poller.
    Pending,
    /// Clean EOF on a frame boundary.
    Closed,
}

impl Conn {
    pub(super) fn new(stream: TcpStream, meter: Option<Arc<WireMeter>>) -> Self {
        Self {
            stream,
            rbuf: Vec::new(),
            rstart: 0,
            rend: 0,
            ready: true,
            wbuf: Vec::new(),
            wsent: 0,
            wqueued: 0,
            last: (0, 0),
            meter,
        }
    }

    fn buffered(&self) -> usize {
        self.rend - self.rstart
    }

    /// Consumes the next frame if all of it is buffered; the body
    /// (kind byte + payload) is then readable via
    /// [`Conn::last_frame`] until the next receive.
    fn take_frame(&mut self) -> Result<Option<usize>, EngineError> {
        let Some(total) = self.frame_size()? else { return Ok(None) };
        if self.buffered() < total {
            return Ok(None);
        }
        self.last = (self.rstart + 4, total - 4);
        self.rstart += total;
        if let Some(m) = &self.meter {
            m.received(total);
        }
        Ok(Some(total - 4))
    }

    /// Header plus body length of the frame at the read cursor, once
    /// its header is buffered.
    fn frame_size(&self) -> Result<Option<usize>, EngineError> {
        let Some(header) = self.rbuf[self.rstart..self.rend].first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(*header);
        if len == 0 || len > MAX_FRAME {
            return Err(proto_err(format!("frame length {len} outside 1..={MAX_FRAME}")));
        }
        Ok(Some(4 + len as usize))
    }

    /// One `read` into the free window, sized for the frame in
    /// progress: the unconsumed tail is compacted to the front first.
    fn fill(&mut self) -> io::Result<usize> {
        let need = self.frame_size().ok().flatten().unwrap_or(4).max(READ_WINDOW);
        if self.rstart + need > self.rbuf.len() {
            self.rbuf.copy_within(self.rstart..self.rend, 0);
            self.rend -= self.rstart;
            self.rstart = 0;
            if self.rbuf.len() < need {
                self.rbuf.resize(need, 0);
            }
        }
        let n = self.stream.read(&mut self.rbuf[self.rend..])?;
        self.ready = self.rend + n == self.rbuf.len();
        self.rend += n;
        Ok(n)
    }

    /// Receives one frame, honouring the stream's read timeout.
    /// `Ok(None)` is a clean EOF on a frame boundary.
    ///
    /// Only a timeout with *no* partial frame buffered — a frame
    /// boundary — is classified as a timeout ([`is_timeout`]): it is
    /// safe to retry (idle) or re-route (deadline). Once any frame
    /// byte has arrived, a stall leaves the stream desynchronized, so
    /// mid-frame errors are deliberately wrapped via [`net_err`]
    /// (never a timeout) and the caller drops the connection.
    pub(super) fn recv_len(&mut self) -> Result<Option<usize>, EngineError> {
        loop {
            if let Some(len) = self.take_frame()? {
                return Ok(Some(len));
            }
            let at_boundary = self.buffered() == 0;
            match self.fill() {
                Ok(0) if at_boundary => return Ok(None),
                Ok(0) => return Err(net_err("read-frame", "connection closed mid-frame")),
                Ok(_) => {}
                Err(e) if at_boundary => return Err(net_io_err("read-frame", &e)),
                Err(e) => return Err(net_err("read-frame", e)),
            }
        }
    }

    /// The poller reported the socket readable.
    pub(super) fn mark_ready(&mut self) {
        self.ready = true;
    }

    /// Nonblocking [`Conn::recv_len`] for a stream in nonblocking
    /// mode: takes a buffered frame, or reads once if the socket may
    /// hold bytes. A partial frame simply stays buffered — however the
    /// sender slices its writes, the frame is served when its last
    /// byte arrives.
    pub(super) fn poll_frame(&mut self) -> Result<Polled, EngineError> {
        loop {
            if self.take_frame()?.is_some() {
                return Ok(Polled::Frame);
            }
            if !self.ready {
                return Ok(Polled::Pending);
            }
            match self.fill() {
                Ok(0) if self.buffered() == 0 => return Ok(Polled::Closed),
                Ok(0) => return Err(net_err("read-frame", "connection closed mid-frame")),
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => self.ready = false,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(net_err("read-frame", e)),
            }
        }
    }

    /// The body of the last frame received by [`Conn::recv_len`].
    pub(super) fn last_frame(&self) -> &[u8] {
        &self.rbuf[self.last.0..self.last.0 + self.last.1]
    }

    /// The body of the next frame if all of it is already buffered —
    /// no `read`, nothing consumed; [`Conn::poll_frame`] then takes it
    /// without a syscall.
    pub(super) fn peek_frame(&self) -> Option<&[u8]> {
        let total = self.frame_size().ok().flatten()?;
        (self.buffered() >= total).then(|| &self.rbuf[self.rstart + 4..self.rstart + total])
    }

    /// Encodes one frame at the end of the write scratch — length
    /// hole, body via `enc`, length patched — for the next
    /// [`Conn::flush`].
    pub(super) fn queue(
        &mut self,
        enc: impl FnOnce(&mut Vec<u8>) -> Result<(), EngineError>,
    ) -> Result<(), EngineError> {
        let start = self.wbuf.len();
        self.wbuf.extend_from_slice(&[0u8; 4]);
        let len = enc(&mut self.wbuf).and_then(|()| {
            let body = self.wbuf.len() - start - 4;
            u32::try_from(body)
                .ok()
                .filter(|&len| len > 0 && len <= MAX_FRAME)
                .ok_or_else(|| proto_err(format!("frame of {body} bytes outside 1..={MAX_FRAME}")))
        });
        match len {
            Ok(len) => {
                self.wbuf[start..start + 4].copy_from_slice(&len.to_le_bytes());
                self.wqueued += 1;
                Ok(())
            }
            Err(e) => {
                self.wbuf.truncate(start);
                Err(e)
            }
        }
    }

    /// [`Conn::queue`]s one frame and [`Conn::flush`]es.
    pub(super) fn send(
        &mut self,
        enc: impl FnOnce(&mut Vec<u8>) -> Result<(), EngineError>,
    ) -> Result<(), EngineError> {
        self.queue(enc)?;
        self.flush()
    }

    /// Writes what the socket still owes of the queued frames, which
    /// are metered once all of them are out. On a nonblocking stream a
    /// full socket is a timeout-class error ([`is_timeout`]) that keeps
    /// the remainder: call again once the poller reports the socket
    /// writable.
    pub(super) fn flush(&mut self) -> Result<(), EngineError> {
        while self.wsent < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wsent..]) {
                Ok(0) => return Err(net_err("write-frame", "connection closed")),
                Ok(n) => self.wsent += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(net_io_err("write-frame", &e)),
            }
        }
        if let Some(m) = &self.meter {
            m.sent(self.wqueued, self.wbuf.len());
        }
        self.wbuf.clear();
        self.wsent = 0;
        self.wqueued = 0;
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
}

fn resolve(addr: &str) -> Result<SocketAddr, EngineError> {
    addr.to_socket_addrs()
        .map_err(|e| net_err("resolve", format!("{addr}: {e}")))?
        .next()
        .ok_or_else(|| net_err("resolve", format!("{addr}: no addresses")))
}

/// Floor for connect/read timeouts so a zero remaining budget still
/// maps to a valid socket timeout (`set_read_timeout` rejects zero).
const MIN_SOCKET_TIMEOUT: Duration = Duration::from_micros(50);

/// Dials `addr` (a blocking connect under `timeout`, which also
/// becomes the stream's read timeout).
pub(super) fn connect(
    addr: &str,
    timeout: Duration,
    meter: Option<Arc<WireMeter>>,
) -> Result<Conn, EngineError> {
    let sockaddr = resolve(addr)?;
    let timeout = timeout.max(MIN_SOCKET_TIMEOUT);
    let stream =
        TcpStream::connect_timeout(&sockaddr, timeout).map_err(|e| net_io_err("connect", &e))?;
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(timeout)).map_err(|e| net_io_err("connect", &e))?;
    Ok(Conn::new(stream, meter))
}

/// The opening frame of every connection.
pub(super) fn hello(my_id: u32) -> Request {
    Request::Hello { node: my_id, version: PROTOCOL_VERSION }
}

/// Checks the answer to [`hello`]. A mismatched or refused handshake
/// is a hard error — mixed-version clusters fail at connect time, not
/// mid-stream.
pub(super) fn check_hello_ack(answer: Response) -> Result<(), EngineError> {
    match answer {
        Response::HelloAck { version: PROTOCOL_VERSION } => Ok(()),
        Response::HelloAck { version } => Err(proto_err(format!(
            "protocol version mismatch: peer speaks v{version}, we speak v{PROTOCOL_VERSION}"
        ))),
        Response::Refused { reason } => Err(proto_err(format!("peer refused hello: {reason}"))),
        other => Err(proto_err(format!("unexpected hello answer {other:?}"))),
    }
}

/// Dials `addr` and completes the version handshake, blocking.
pub(super) fn connect_hello(
    addr: &str,
    my_id: u32,
    timeout: Duration,
    meter: Option<Arc<WireMeter>>,
) -> Result<Conn, EngineError> {
    let mut conn = connect(addr, timeout, meter)?;
    conn.send_request(&hello(my_id))?;
    check_hello_ack(conn.recv_response()?)?;
    Ok(conn)
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

    /// The read window is bounded by the largest legal frame: a
    /// nonblocking connection fed a maximal frame with small ones
    /// pipelined behind it, in slices that split headers and bodies,
    /// yields every frame intact and never buffers past
    /// `4 + MAX_FRAME` bytes.
    #[test]
    fn nonblocking_receive_reassembles_slices_within_the_frame_bound() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).expect("nonblocking");
        let mut conn = Conn::new(server, None);
        let bodies: Vec<Vec<u8>> = [MAX_FRAME as usize, 1, 9, MAX_FRAME as usize / 3, 2]
            .iter()
            .enumerate()
            .map(|(i, &len)| vec![i as u8 + 1; len])
            .collect();
        let mut stream = Vec::new();
        for body in &bodies {
            stream.extend_from_slice(&(body.len() as u32).to_le_bytes());
            stream.extend_from_slice(body);
        }
        // Slices of a size co-prime to every frame's, so cuts land
        // inside headers and bodies alike.
        let writer = std::thread::spawn(move || {
            for slice in stream.chunks(65_537) {
                client.write_all(slice).expect("write");
            }
            client
        });
        let mut received = Vec::new();
        while received.len() < bodies.len() {
            conn.mark_ready();
            match conn.poll_frame().expect("well-formed stream") {
                Polled::Frame => received.push(conn.last_frame().to_vec()),
                Polled::Pending => std::thread::yield_now(),
                Polled::Closed => panic!("the client is still connected"),
            }
            assert!(conn.rbuf.len() <= 4 + MAX_FRAME as usize, "read window outgrew a frame");
        }
        drop(writer.join().expect("writer"));
        assert!(received == bodies, "a frame came out damaged or out of order");
    }
}
