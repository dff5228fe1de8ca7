//! `emlio-zmq` — a ZeroMQ-inspired PUSH/PULL transport over TCP.
//!
//! EMLIO's daemons "PUSH \[payloads\] over ZeroMQ — implicitly providing
//! backpressure via ZMQ HWM" (§4.2), with the receiver binding a PULL socket
//! (Algorithm 3, line 1). This crate re-implements the slice of ZeroMQ the
//! paper depends on, over real `std::net` TCP:
//!
//! * **PUSH sockets** ([`push::PushSocket`]) with a configurable high-water
//!   mark: once `hwm` messages are queued, `send` blocks — the paper sets
//!   HWM = 16 with infinite blocking send, so storage workers naturally back
//!   off when compute-side queues are full (§4.5). A socket may stripe over
//!   several TCP connections ([`SocketOptions::connections`]), each with
//!   its own sender thread taking frames from the one queue: frames then
//!   keep their order on each connection but not across them,
//!   [`PushSocket::close_with`] ends *every* connection with the same last
//!   frame, and a socket holds at most HWM + S frames in user space: HWM
//!   queued and the one frame each sender is writing. A sender writes the
//!   frame it takes alone — the daemon batches at the source, one training
//!   batch per frame, so there is no second batching layer here;
//! * **PULL sockets** ([`pull::PullSocket`]) that accept any number of
//!   connections and fair-queue incoming messages into one bounded queue,
//!   each connection's reader pushing straight into it — this is what
//!   makes out-of-order multi-stream prefetching possible;
//! * length-prefixed wire framing with a maximum-frame guard
//!   ([`MAX_FRAME`], [`frame`]),
//!   unbuffered in both directions: a frame's segments go to the kernel in
//!   one vectored write and come back out of it straight into a recycled
//!   buffer, so this crate never copies, zero-fills or allocates for a
//!   payload;
//! * a receive side that wakes only for work: before each read a PULL
//!   reader sets the connection's `SO_RCVLOWAT` to what that read still
//!   needs (the rest of the length prefix or payload, at most 1 MiB) and
//!   sleeps in `poll` until that much is in, so a 3 MiB frame is at most
//!   four wake-ups instead of one per queued segment. The mark is per
//!   read, never per connection or per frame, so it never waits for a
//!   byte the sender has not written ([`pull`] says why).
//!
//! TCP is the only transport: tests and single-process runs bind
//! `tcp://127.0.0.1:0` and take the same path production does.
//!
//! The full backpressure chain is real: a slow consumer fills the PULL
//! socket's one bounded queue (HWM) → reader threads block on it and stop
//! draining TCP → the kernel window closes → the sender thread blocks on
//! `write` → the PUSH queue fills → `send` blocks. Striped, every
//! connection's sender blocks before the queue fills.

pub mod endpoint;
pub mod frame;
pub mod pull;
pub mod push;
pub mod stream_end;

pub use endpoint::Endpoint;
pub use frame::Frame;
pub use pull::{Intake, PullSocket, StopHandle};
pub use push::PushSocket;

use std::fmt;

/// Default high-water mark (the paper's setting).
pub const DEFAULT_HWM: usize = 16;

/// Largest frame a PULL socket accepts: 256 MiB (a 2 MB-sample batch of
/// 64 plus headers fits comfortably; anything bigger is a protocol error,
/// refused before a buffer is sized by it).
pub const MAX_FRAME: usize = 256 << 20;

/// Socket configuration.
#[derive(Debug, Clone)]
pub struct SocketOptions {
    /// Send/receive high-water mark in messages.
    pub hwm: usize,
    /// How long `PushSocket::connect` keeps retrying a refused connection.
    pub connect_timeout: std::time::Duration,
    /// TCP connections a PUSH socket stripes over, each with its own
    /// sender thread (PULL sockets ignore it). Default 1.
    pub connections: usize,
    /// Stage recorder for latency histograms:
    /// [`emlio_obs::Stage::SocketSend`] per call on PUSH sockets, and
    /// [`emlio_obs::Stage::RecvWait`] and [`emlio_obs::Stage::QueuePush`]
    /// per frame on each PULL reader (sums per connection).
    pub recorder: Option<std::sync::Arc<emlio_obs::StageRecorder>>,
}

impl Default for SocketOptions {
    fn default() -> Self {
        SocketOptions {
            hwm: DEFAULT_HWM,
            connect_timeout: std::time::Duration::from_secs(10),
            connections: 1,
            recorder: None,
        }
    }
}

impl SocketOptions {
    /// Override the high-water mark.
    pub fn with_hwm(mut self, hwm: usize) -> Self {
        assert!(hwm > 0, "hwm must be positive");
        self.hwm = hwm;
        self
    }

    /// Stripe a PUSH socket over `connections` TCP connections.
    pub fn with_connections(mut self, connections: usize) -> Self {
        assert!(connections > 0, "a socket needs a connection");
        self.connections = connections;
        self
    }

    /// Record per-call socket latencies into `recorder`.
    pub fn with_recorder(mut self, recorder: std::sync::Arc<emlio_obs::StageRecorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }
}

/// Transport errors.
#[derive(Debug)]
pub enum ZmqError {
    /// Underlying socket I/O failed.
    Io(std::io::Error),
    /// The peer or socket has been closed.
    Closed,
    /// Frame exceeded [`MAX_FRAME`].
    FrameTooLarge { size: usize, limit: usize },
    /// Endpoint string did not parse.
    BadEndpoint(String),
    /// Could not connect within `connect_timeout`.
    ConnectTimeout(String),
}

impl fmt::Display for ZmqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ZmqError::Io(e) => write!(f, "I/O error: {e}"),
            ZmqError::Closed => write!(f, "socket closed"),
            ZmqError::FrameTooLarge { size, limit } => {
                write!(f, "frame of {size} bytes exceeds limit {limit}")
            }
            ZmqError::BadEndpoint(s) => write!(f, "bad endpoint: {s}"),
            ZmqError::ConnectTimeout(s) => write!(f, "connect timeout: {s}"),
        }
    }
}

impl std::error::Error for ZmqError {}

impl From<std::io::Error> for ZmqError {
    fn from(e: std::io::Error) -> Self {
        ZmqError::Io(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, ZmqError>;
