//! The cluster under test in its deployment shape: `ccn node` child
//! processes on ephemeral loopback ports, one driver connection each.

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use ccn_engine::net::{NodeStatsSnapshot, Provision, Request, Response, PROTOCOL_VERSION};

use crate::frame::{encode_frame, FrameReader};
use crate::sys;

/// How long a node may take to print `READY`, and a reply to arrive on
/// an otherwise healthy connection, before the run is abandoned.
const NODE_TIMEOUT: Duration = Duration::from_secs(15);

/// One `ccn node` child. Dropping it kills the process, so no path out
/// of a run — error, panic, early return — leaves a node serving.
pub struct NodeProc {
    child: Child,
    pub addr: String,
    /// Held so the node's final summary print cannot hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl NodeProc {
    /// Spawns node `id` confined to `core` — a child inherits the CPU
    /// affinity of the thread that forks it, so the fork happens on a
    /// short-lived thread pinned there first.
    pub fn spawn_on(exe: &Path, id: usize, wire_batch: usize, core: usize) -> Result<Self, String> {
        std::thread::scope(|scope| {
            let pinned = scope.spawn(|| {
                sys::pin_to(core);
                Self::spawn(exe, id, wire_batch)
            });
            pinned.join().map_err(|_| "node spawner panicked".to_owned())?
        })
    }

    /// Spawns node `id` with the program's defaults (only the forward
    /// coalescing cap is a workload parameter) and waits for its
    /// `READY <addr>` line.
    fn spawn(exe: &Path, id: usize, wire_batch: usize) -> Result<Self, String> {
        let mut child = Command::new(exe)
            .arg("node")
            .args(["--id", &id.to_string()])
            .args(["--listen", "127.0.0.1:0"])
            .args(["--wire-batch", &wire_batch.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        // The read runs on a helper so a node that starts but never
        // reports cannot hang the run; killing the node ends the read.
        let (tx, rx) = mpsc::channel();
        let helper = std::thread::spawn(move || {
            let mut reader = BufReader::new(stdout);
            let mut line = String::new();
            let read = reader.read_line(&mut line);
            let _ = tx.send((read.map(|_| line), reader));
        });
        let received = rx.recv_timeout(NODE_TIMEOUT);
        if received.is_err() {
            let _ = child.kill();
        }
        helper.join().map_err(|_| "READY reader panicked".to_owned())?;
        let fail = |child: &mut Child, why: String| {
            let _ = child.kill();
            let _ = child.wait();
            Err(format!("node {id}: {why}"))
        };
        match received {
            Ok((Ok(line), reader)) => match line.trim().strip_prefix("READY ") {
                Some(addr) => Ok(Self { addr: addr.to_owned(), child, _stdout: reader }),
                None => fail(&mut child, format!("reported {:?}, expected READY", line.trim())),
            },
            Ok((Err(e), _)) => fail(&mut child, format!("stdout failed: {e}")),
            Err(_) => fail(&mut child, format!("no READY within {NODE_TIMEOUT:?}")),
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Waits for the process to exit after a `Shutdown` frame; the drop
    /// guard kills it if it has not by then.
    fn wait_exit(&mut self) {
        let deadline = Instant::now() + Duration::from_secs(3);
        while Instant::now() < deadline {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for NodeProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Exact wire counts of one driver connection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireCount {
    pub frames_out: u64,
    pub frames_in: u64,
    pub bytes_out: u64,
    pub bytes_in: u64,
}

impl WireCount {
    pub fn since(&self, earlier: &WireCount) -> WireCount {
        WireCount {
            frames_out: self.frames_out - earlier.frames_out,
            frames_in: self.frames_in - earlier.frames_in,
            bytes_out: self.bytes_out - earlier.bytes_out,
            bytes_in: self.bytes_in - earlier.bytes_in,
        }
    }

    pub fn plus(&self, other: &WireCount) -> WireCount {
        WireCount {
            frames_out: self.frames_out + other.frames_out,
            frames_in: self.frames_in + other.frames_in,
            bytes_out: self.bytes_out + other.bytes_out,
            bytes_in: self.bytes_in + other.bytes_in,
        }
    }
}

/// The driver's one connection to a node: control frames, warm-up and
/// the measured traffic all travel on it.
pub struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    wbuf: Vec<u8>,
    pub count: WireCount,
}

impl Conn {
    /// Dials `addr` and completes the `Hello` / `HelloAck` handshake.
    pub fn connect(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        let mut conn = Self {
            stream,
            reader: FrameReader::default(),
            wbuf: Vec::new(),
            count: WireCount::default(),
        };
        // Nodes key peer links by node id; the driver uses one outside
        // any cluster's range.
        match conn.call(&Request::Hello { node: u32::MAX, version: PROTOCOL_VERSION })? {
            Response::HelloAck { version: PROTOCOL_VERSION } => Ok(conn),
            other => Err(format!("hello to {addr} answered {other:?}")),
        }
    }

    /// Encodes and writes one frame.
    pub fn send(&mut self, request: &Request) -> Result<(), String> {
        encode_frame(&mut self.wbuf, request)?;
        self.write_encoded()
    }

    /// Encodes `request` into the connection's write buffer without
    /// sending it, so a traced caller can time the two halves apart.
    pub fn encode(&mut self, request: &Request) -> Result<(), String> {
        encode_frame(&mut self.wbuf, request)
    }

    /// Writes the frame left by [`Conn::encode`].
    pub fn write_encoded(&mut self) -> Result<(), String> {
        self.stream.write_all(&self.wbuf).map_err(|e| format!("write frame: {e}"))?;
        self.count.frames_out += 1;
        self.count.bytes_out += self.wbuf.len() as u64;
        Ok(())
    }

    /// Waits up to `timeout` for the socket to become readable.
    pub fn wait(&self, timeout: Duration) -> Result<bool, String> {
        sys::wait_readable(&self.stream, timeout).map_err(|e| format!("poll: {e}"))
    }

    /// One `read` of whatever the socket holds (call after
    /// [`Conn::wait`] said readable, or to block).
    pub fn fill(&mut self) -> Result<(), String> {
        match self.reader.fill(&mut self.stream) {
            Ok(0) if self.reader.mid_frame() => Err("node closed the connection mid-frame".into()),
            Ok(0) => Err("node closed the connection".into()),
            Ok(_) => Ok(()),
            Err(e) => Err(format!("read frame: {e}")),
        }
    }

    /// The next fully buffered reply, if any.
    pub fn buffered(&mut self) -> Result<Option<Response>, String> {
        match self.reader.next_frame()? {
            Some(body) => {
                self.count.frames_in += 1;
                self.count.bytes_in += 4 + body.len() as u64;
                Response::decode(body).map(Some).map_err(|e| e.to_string())
            }
            None => Ok(None),
        }
    }

    /// Blocks for the next reply.
    pub fn recv(&mut self) -> Result<Response, String> {
        loop {
            if let Some(response) = self.buffered()? {
                return Ok(response);
            }
            if !self.wait(NODE_TIMEOUT)? {
                return Err(format!("no reply within {NODE_TIMEOUT:?}"));
            }
            self.fill()?;
        }
    }

    /// One stop-and-wait exchange.
    pub fn call(&mut self, request: &Request) -> Result<Response, String> {
        self.send(request)?;
        self.recv()
    }

    pub fn provision(&mut self, provision: &Provision) -> Result<(), String> {
        match self.call(&Request::ConfigEpoch(provision.clone()))? {
            Response::EpochAck { epoch } if epoch == provision.epoch => Ok(()),
            other => Err(format!("config epoch {} answered {other:?}", provision.epoch)),
        }
    }

    pub fn stats(&mut self) -> Result<NodeStatsSnapshot, String> {
        match self.call(&Request::Stats)? {
            Response::StatsReply(snapshot) => Ok(snapshot),
            other => Err(format!("stats answered {other:?}")),
        }
    }
}

/// Orderly teardown: a `Shutdown` frame to every node, then wait for
/// the processes; whatever is still alive afterwards is killed by the
/// [`NodeProc`] drop guard.
pub fn shutdown(nodes: Vec<NodeProc>, conns: Vec<Conn>) {
    for mut conn in conns {
        let _ = conn.call(&Request::Shutdown);
    }
    for mut node in nodes {
        node.wait_exit();
    }
}
