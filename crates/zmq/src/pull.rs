//! PULL socket: binds an address, accepts any number of PUSH connections,
//! and fair-queues what they send into one bounded queue.
//!
//! Each connection's reader thread reads frames straight off its
//! `TcpStream` into buffers recycled through one per-socket [`BufferPool`]
//! (the buffer goes back to the pool when the consumer drops the last view
//! of the frame), runs the socket's intake over each frame — the frame
//! itself for [`PullSocket::bind`], a scan into a batch for the EMLIO
//! receiver — and pushes what it delivers into the queue.
//!
//! The bounded queue is the receive-side HWM: when the consumer (DALI
//! pipeline) falls behind, reader threads block on the queue, stop draining
//! their sockets, and the kernel's TCP flow control propagates backpressure
//! to every connected daemon.
//!
//! The queue's sending half sits in one slot, and each reader holds a clone
//! of it. [`StreamEnds`], under one lock with the slot, takes every accept,
//! [`Intake::Marker`], closed connection and stop; once it says the queue
//! has ended, the slot is emptied and the queue ends with the last reader.
//!
//! **A reader wakes for its bytes, its connection's end or its socket's
//! wake, never on a clock.** Before each read, the connection's
//! `SO_RCVLOWAT` is set to the bytes that read asks for, capped at 1 MiB
//! (`MAX_LOW_WATER`), and the reader sleeps in `poll`, with no timeout,
//! until the kernel holds that many, the stream ends, or the wake is
//! raised. [`FrameReader`] asks for exactly the rest of the part in
//! progress: the 4-byte length prefix, then the payload bytes still
//! missing. So a 3 MiB frame is at most four reads and four wake-ups,
//! where a plain read wakes once per segment the kernel queues (about ten
//! on loopback, each paid in the sender's context there).
//!
//! The mark is set per read: one above what the sender has written (a
//! fixed mark, or the frame's length kept for the next prefix) waits for
//! bytes that never come. The wait is in `poll`, since a blocking `read`
//! that finds part of its mark copies it, then waits for a whole mark
//! more. The mark only raises the receive buffer and window clamp (to
//! twice the mark), so it cannot shrink a WAN window. The wake is a Unix
//! socket pair shut down when the slot is emptied, so it stays readable
//! for every reader. Woken, a reader asks the rule: after a stop it
//! returns; after the last marker it polls its stream alone until
//! `END_QUIET` after the later of the end and its last frame. Elsewhere a
//! read is a plain read with a tick as its timeout, and a stop that ends
//! the queue shuts each live reader's stream for reading; where setting the
//! mark fails, the reader wakes for any byte.

use crate::endpoint::Endpoint;
use crate::frame::FrameReader;
use crate::stream_end::{Marker, StreamEnds};
use crate::{Result, SocketOptions, ZmqError, MAX_FRAME};
use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, Sender};
use emlio_obs::{obs_warn, FlightRecorder, Stage, StageRecorder};
use emlio_util::pool::BufferPool;
use emlio_util::wake_listener;
use parking_lot::Mutex;
use std::io::ErrorKind::{TimedOut, WouldBlock};
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Once the queue has ended, a connection that has delivered no frame for
/// this long, counted from the end at the earliest, is read no further
/// ([`StreamEnds::reads_on`]).
const END_QUIET: Duration = Duration::from_millis(500);

/// The most a read's low-water mark asks the kernel to gather before it
/// wakes the reader. The kernel grows the socket's receive buffer to twice
/// the mark and never shrinks it, so this bounds what one connection can
/// make it reserve; on loopback a 4 MiB cap measured no faster.
const MAX_LOW_WATER: usize = 1 << 20;

/// What a reader does with a frame it read ([`PullSocket::bind_with`]).
#[derive(Debug)]
pub enum Intake<T> {
    /// Push this into the socket's queue.
    Deliver(T),
    /// Queue nothing.
    Skip,
    /// Queue nothing: an end-of-stream marker from `origin`, whose stream
    /// went over `connections` connections ([`StreamEnds::marker`]).
    Marker { origin: Arc<str>, connections: u32 },
}

/// A snapshot of a PULL socket's counters ([`PullSocket::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PullStats {
    /// Frames the readers read.
    pub msgs_received: u64,
    /// Payload bytes of those frames.
    pub bytes_received: u64,
    /// Read calls that returned bytes: the receive twin of
    /// `PushStats::writes`. With the low-water mark a frame of `len` bytes
    /// takes at most `1 + ⌈len / 1 MiB⌉` of them.
    pub reads: u64,
    /// Connections accepted over the socket's lifetime.
    pub connections: u64,
    /// Connections a reader gave up on: an oversized length prefix, EOF
    /// inside a frame, or any other I/O error. Each is also logged and
    /// left in the flight recorder (`zmq_pull_read_error`).
    pub read_errors: u64,
    /// Frames read into a buffer an earlier frame had used.
    pub buffers_reused: u64,
    /// Frames a fresh buffer had to be allocated for. Stops growing once
    /// as many buffers exist as the consumer keeps frames alive at once.
    pub buffers_allocated: u64,
}

#[derive(Default)]
struct Counters {
    msgs_received: AtomicU64,
    bytes_received: AtomicU64,
    reads: AtomicU64,
    connections: AtomicU64,
    read_errors: AtomicU64,
}

struct Shared<T> {
    counters: Counters,
    /// Where every reader thread's frame buffers come from and go back to.
    pool: BufferPool,
    intake: Box<dyn Fn(Bytes) -> Intake<T> + Send + Sync>,
    /// The rule, and the queue's sending half: cloned into each reader
    /// the rule lets in, emptied once it says the queue has ended.
    lifecycle: Mutex<(StreamEnds, Option<Sender<T>>)>,
    /// Raised when the slot is emptied; every reader polls it.
    wake: sys::Wake,
    /// The socket was dropped: the accept thread returns.
    closed: AtomicBool,
    recorder: Option<Arc<StageRecorder>>,
}

impl<T> Shared<T> {
    /// Tell the rule one event and, in the same critical section, empty the
    /// slot and raise the wake if it says the queue has ended: its answer.
    fn lifecycle<R>(&self, event: impl FnOnce(&mut StreamEnds) -> R) -> (R, Option<Sender<T>>) {
        let (ends, tx) = &mut *self.lifecycle.lock();
        let answer = event(ends);
        if tx.take_if(|_| ends.is_ended()).is_some() {
            sys::raise(&self.wake, !ends.reads_on(|| false));
        }
        (answer, tx.clone())
    }
}

/// A PULL socket bound to one endpoint, queueing what its intake makes of
/// each frame (the frame itself for [`PullSocket::bind`]).
pub struct PullSocket<T = Bytes> {
    rx: Receiver<T>,
    shared: Arc<Shared<T>>,
    accept_thread: Option<JoinHandle<()>>,
    local_addr: SocketAddr,
}

/// Stops a [`PullSocket`] from any thread ([`PullSocket::stop_handle`]).
pub struct StopHandle<T = Bytes>(Arc<Shared<T>>);

impl<T> StopHandle<T> {
    /// Stop reading: no new connection is read, every reader waiting on
    /// the wake returns at once (one reading out after the last marker, at
    /// its deadline), and the queue's consumers see its end after what is
    /// already queued.
    pub fn stop(&self) {
        self.0.lifecycle(StreamEnds::stop);
    }

    /// Whether the socket was stopped (or dropped).
    pub fn is_stopped(&self) -> bool {
        !self.0.lifecycle(|ends| ends.reads_on(|| false)).0
    }
}

impl PullSocket {
    /// Bind and start accepting connections, queueing every frame as it
    /// is (so only a stop ends the queue). For `tcp://host:0` the kernel
    /// picks a free port — see [`PullSocket::local_endpoint`].
    pub fn bind(endpoint: &Endpoint, options: SocketOptions) -> Result<PullSocket> {
        PullSocket::bind_with(endpoint, options, u32::MAX, Intake::Deliver)
    }
}

impl<T: Send + 'static> PullSocket<T> {
    /// Bind and start accepting connections until `streams` streams have
    /// ended ([`StreamEnds`]). Each connection's reader runs `intake` over
    /// every frame and pushes what it delivers into the queue, which holds
    /// `options.hwm` items. `options.recorder` gets each reader's
    /// [`Stage::RecvWait`] (from its previous hand-off to a frame's last
    /// byte) and [`Stage::QueuePush`]: sums per connection.
    pub fn bind_with(
        endpoint: &Endpoint,
        options: SocketOptions,
        streams: u32,
        intake: impl Fn(Bytes) -> Intake<T> + Send + Sync + 'static,
    ) -> Result<PullSocket<T>> {
        let Endpoint::Tcp(addr) = endpoint;
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let (tx, rx) = bounded(options.hwm.max(1));
        let ends = StreamEnds::new(streams);
        let tx = (!ends.is_ended()).then_some(tx);
        let shared = Arc::new(Shared {
            counters: Counters::default(),
            // `hwm` frames can wait in the queue while the consumer and
            // each reader hold one more, so that many buffers (and a
            // little slack) are worth keeping idle.
            pool: BufferPool::with_retention(options.hwm + 4),
            intake: Box::new(intake),
            lifecycle: Mutex::new((ends, tx)),
            wake: sys::wake()?,
            closed: AtomicBool::new(false),
            recorder: options.recorder,
        });
        let shared2 = shared.clone();
        let accept_thread = std::thread::Builder::new()
            .name(format!("zmq-pull-accept:{local_addr}"))
            .spawn(move || accept_loop(listener, shared2))
            .expect("spawn pull accept thread");
        Ok(PullSocket {
            rx,
            shared,
            accept_thread: Some(accept_thread),
            local_addr,
        })
    }
}

impl<T> PullSocket<T> {
    /// The concrete endpoint after binding (resolves `:0` ports). Always
    /// `Some`; the `Option` is what callers were written against.
    pub fn local_endpoint(&self) -> Option<Endpoint> {
        Some(Endpoint::Tcp(self.local_addr.to_string()))
    }

    /// Blocking receive of the next item from any connected pusher;
    /// `Closed` once the queue has ended.
    pub fn recv(&self) -> Result<T> {
        self.rx.recv().map_err(|_| ZmqError::Closed)
    }

    /// The queue itself, for consumers on other threads.
    pub fn queue(&self) -> Receiver<T> {
        self.rx.clone()
    }

    /// Streams that have ended so far ([`StreamEnds::streams_ended`]).
    pub fn streams_ended(&self) -> u32 {
        self.shared.lifecycle(|ends| ends.streams_ended()).0
    }

    /// A handle that stops this socket from any thread.
    pub fn stop_handle(&self) -> StopHandle<T> {
        StopHandle(self.shared.clone())
    }

    /// Snapshot of counters.
    pub fn stats(&self) -> PullStats {
        let c = &self.shared.counters;
        let pool = self.shared.pool.stats();
        PullStats {
            msgs_received: c.msgs_received.load(Ordering::Relaxed),
            bytes_received: c.bytes_received.load(Ordering::Relaxed),
            reads: c.reads.load(Ordering::Relaxed),
            connections: c.connections.load(Ordering::Relaxed),
            read_errors: c.read_errors.load(Ordering::Relaxed),
            buffers_reused: pool.pool_reuse,
            buffers_allocated: pool.pool_alloc + pool.unpooled,
        }
    }
}

impl<T> Drop for PullSocket<T> {
    /// Stops the socket and joins its accept thread. Readers are not
    /// joined: one may be blocked on a full queue whose consumer is still
    /// alive; each returns when [`StopHandle::stop`] says.
    fn drop(&mut self) {
        self.shared.lifecycle(StreamEnds::stop);
        self.shared.closed.store(true, Ordering::SeqCst);
        let Some(h) = self.accept_thread.take() else {
            return;
        };
        // The accept thread sleeps in `accept`: one connect of our own
        // wakes it to see the flag. A wake that cannot be delivered must
        // not hang the drop, so then the thread is left to exit with the
        // process instead of joined.
        if wake_listener(self.local_addr) {
            let _ = h.join();
        }
    }
}

/// Accept connections, one reader thread each, blocking in `accept` until
/// the next arrives; the socket's drop sets `closed` and then connects
/// once to wake this loop to see it.
fn accept_loop<T: Send + 'static>(listener: TcpListener, shared: Arc<Shared<T>>) {
    loop {
        let accepted = listener.accept();
        if shared.closed.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, peer)) => {
                // One the rule refuses is closed unread.
                let (true, Some(tx)) = shared.lifecycle(StreamEnds::accept) else {
                    continue;
                };
                stream.set_nodelay(true).ok();
                shared.counters.connections.fetch_add(1, Ordering::Relaxed);
                let shared2 = shared.clone();
                std::thread::Builder::new()
                    .name(format!("zmq-pull-read:{peer}"))
                    .spawn(move || {
                        read_connection(stream, peer, tx, &shared2);
                        shared2.lifecycle(StreamEnds::closed);
                    })
                    .expect("spawn pull reader thread");
            }
            Err(e) => {
                // One failed accept (a connection reset before we got to
                // it, a signal, a momentary descriptor shortage) must not
                // strand every daemon that connects later.
                FlightRecorder::global().record("zmq_pull_accept_error", 0, 0);
                obs_warn!("zmq", "pull: accept failed, still accepting: {e}");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// Read one connection's frames into the queue until the peer closes, the
/// stream breaks, the socket stops or every consumer is gone — or until
/// the connection has been quiet for [`END_QUIET`] and the rule reads it
/// no further. Returning drops this reader's sending half.
fn read_connection<T>(stream: TcpStream, peer: SocketAddr, tx: Sender<T>, shared: &Shared<T>) {
    let _registered = sys::prepare(&stream, peer, &shared.wake);
    let mut stream = LowWaterReader {
        stream,
        mark: 1,
        wake: &shared.wake,
        quiet_until: None,
        reads: &shared.counters.reads,
    };
    // A wake can come mid-frame: the frame in progress lives in `frames`.
    let mut frames = FrameReader::with_pool(shared.pool.clone());
    let record = |stage, since: Instant| {
        if let Some(rec) = &shared.recorder {
            rec.record(stage, since.elapsed().as_nanos() as u64);
        }
    };
    // Where the wait for the next frame started: the previous hand-off.
    let mut handed_off = Instant::now();
    // When this reader first heard that the queue had ended.
    let mut ended = None;
    loop {
        match frames.read_frame(&mut stream, MAX_FRAME) {
            Ok(Some(frame)) => {
                record(Stage::RecvWait, handed_off);
                let c = &shared.counters;
                c.msgs_received.fetch_add(1, Ordering::Relaxed);
                c.bytes_received
                    .fetch_add(frame.len() as u64, Ordering::Relaxed);
                match (shared.intake)(frame) {
                    Intake::Deliver(item) => {
                        let pushed = Instant::now();
                        if tx.send(item).is_err() {
                            return; // every consumer of the queue is gone
                        }
                        // Time blocked handing the item to a full queue.
                        record(Stage::QueuePush, pushed);
                    }
                    Intake::Skip => {}
                    Intake::Marker {
                        origin,
                        connections,
                    } => {
                        let marker = shared.lifecycle(|e| e.marker(&origin, connections));
                        if let (Marker::Refused(why), _) = marker {
                            let recorder = FlightRecorder::global();
                            recorder.record("recv_refused_marker", u64::from(connections), 0);
                            obs_warn!("zmq", "pull: dropping marker from {origin}: {why:?}");
                        }
                    }
                }
                handed_off = Instant::now();
            }
            Ok(None) => return, // peer closed cleanly
            Err(ZmqError::Io(e)) if matches!(e.kind(), WouldBlock | TimedOut) => {
                // Woken, or past the deadline `quiet` sets after the end.
                let quiet = || {
                    let until = handed_off.max(*ended.get_or_insert_with(Instant::now)) + END_QUIET;
                    stream.quiet_until = Some(until);
                    Instant::now() >= until
                };
                if !shared.lifecycle(|ends| ends.reads_on(quiet)).0 {
                    return;
                }
            }
            Err(e) => {
                // The stream is out of frame or gone: this connection is
                // over, the others are not.
                shared.counters.read_errors.fetch_add(1, Ordering::Relaxed);
                FlightRecorder::global().record("zmq_pull_read_error", peer.port() as u64, 0);
                obs_warn!("zmq", "pull: dropping connection from {peer}: {e}");
                return;
            }
        }
    }
}

/// A connection read with `SO_RCVLOWAT` equal to what each read asks for,
/// up to [`MAX_LOW_WATER`]: the reader sleeps in `poll` (see the module
/// docs), then reads without blocking whatever is there, `WouldBlock` if
/// nothing is or if it was woken.
struct LowWaterReader<'a> {
    stream: TcpStream,
    /// The mark last set (the kernel's default is one byte).
    mark: usize,
    wake: &'a sys::Wake,
    /// Once the queue has ended, the deadline polled in the wake's place.
    quiet_until: Option<Instant>,
    /// Read calls that returned bytes ([`PullStats::reads`]).
    reads: &'a AtomicU64,
}

impl Read for LowWaterReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let want = buf.len().clamp(1, MAX_LOW_WATER);
        if want != self.mark && sys::set_rcvlowat(&self.stream, want) {
            self.mark = want;
        }
        sys::wait_readable(&self.stream, self.wake, self.quiet_until)?;
        let n = self.stream.read(buf)?;
        if n > 0 {
            self.reads.fetch_add(1, Ordering::Relaxed);
        }
        Ok(n)
    }
}

/// 64-bit Linux on x86-64 and AArch64, where the socket option numbers
/// are the generic ones: a non-blocking socket, its mark set with
/// `setsockopt(SO_RCVLOWAT)` and its reads waited for with `poll`.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    use std::ffi::{c_int, c_short, c_ulong, c_void};
    use std::io;
    use std::net::{Shutdown, SocketAddr, TcpStream};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    const SOL_SOCKET: c_int = 1;
    const SO_RCVLOWAT: c_int = 18;
    const POLLIN: c_short = 1;

    /// `pollfd`: the descriptor, the events asked for, the events seen.
    #[repr(C)]
    struct PollFd(c_int, c_short, c_short);

    extern "C" {
        fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *const c_void,
            len: u32,
        ) -> c_int;
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    /// A connected pair: [`raise`] shuts the first's writing half, so the
    /// second reads as an end of file for every poll from then on.
    pub(super) type Wake = (UnixStream, UnixStream);

    pub(super) fn wake() -> io::Result<Wake> {
        UnixStream::pair()
    }

    /// Raised, the wake ends every reader's wait, on a stop or not.
    pub(super) fn raise(wake: &Wake, _stopped: bool) {
        wake.0.shutdown(Shutdown::Write).ok();
    }

    /// Nothing to hold for a reader: the wake reaches every one.
    pub(super) struct Registered;

    /// Reads never block: the waiting is [`wait_readable`]'s.
    pub(super) fn prepare(stream: &TcpStream, _: SocketAddr, _: &Wake) -> Registered {
        stream.set_nonblocking(true).ok();
        Registered
    }

    /// Set `stream`'s low-water mark to `bytes`; whether the kernel took it.
    pub(super) fn set_rcvlowat(stream: &TcpStream, bytes: usize) -> bool {
        let value = c_int::try_from(bytes).unwrap_or(c_int::MAX);
        // SAFETY: `value` is a live local `c_int` and the length passed is
        // its size; the descriptor is open for as long as `stream` is
        // borrowed, and the call writes nothing.
        let rc = unsafe {
            setsockopt(
                stream.as_raw_fd(),
                SOL_SOCKET,
                SO_RCVLOWAT,
                (&value as *const c_int).cast(),
                std::mem::size_of::<c_int>() as u32,
            )
        };
        rc == 0
    }

    /// Sleep until `s` holds its mark's bytes, has ended or failed, or `w`
    /// is raised (`WouldBlock`) or, in its place, `until` passes.
    pub(super) fn wait_readable(s: &TcpStream, w: &Wake, until: Option<Instant>) -> io::Result<()> {
        // `poll` skips a negative descriptor.
        let wake_fd = until.map_or(w.1.as_raw_fd(), |_| -1);
        let mut fds = [s.as_raw_fd(), wake_fd].map(|fd| PollFd(fd, POLLIN, 0));
        let left = until.map(|at| at.saturating_duration_since(Instant::now()));
        let timeout = left.map_or(-1, |left| left.as_millis() as c_int + 1);
        // SAFETY: two live, exclusively borrowed `pollfd`s and a count of
        // two; each descriptor is -1 or open for as long as `s` and `w` are
        // borrowed.
        match unsafe { poll(fds.as_mut_ptr(), 2, timeout) } {
            n if n < 0 => Err(io::Error::last_os_error()),
            _ if fds[1].2 != 0 => Err(io::ErrorKind::WouldBlock.into()),
            _ => Ok(()),
        }
    }
}

/// Elsewhere there is no mark and no wake: a read is a plain read that
/// blocks for one tick at most, after which the reader asks the rule. A
/// stop that ends the queue shuts every live reader's stream for reading,
/// so a read blocked on a quiet connection returns at once; the end by
/// markers leaves the readers to their tick, reading out what is still in
/// flight.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod sys {
    use parking_lot::Mutex;
    use std::io;
    use std::net::{Shutdown, SocketAddr, TcpStream};
    use std::time::{Duration, Instant};

    const READ_TICK: Duration = Duration::from_millis(100);

    /// Whether the socket was stopped, and each live reader's stream (a
    /// clone) by its peer.
    #[derive(Default)]
    pub(super) struct Wake(Mutex<(bool, Vec<Reader>)>);

    type Reader = (SocketAddr, TcpStream);

    pub(super) fn wake() -> io::Result<Wake> {
        Ok(Wake::default())
    }

    /// The end by markers leaves the readers to their tick.
    pub(super) fn raise(wake: &Wake, stopped: bool) {
        let (shut, live) = &mut *wake.0.lock();
        *shut = stopped;
        if stopped {
            for (_, stream) in live.iter() {
                stream.shutdown(Shutdown::Read).ok();
            }
        }
    }

    /// A reader among the live ones until dropped, so that its clone does
    /// not hold the connection open past the reader.
    pub(super) struct Registered<'a>(&'a Wake, SocketAddr);

    impl Drop for Registered<'_> {
        fn drop(&mut self) {
            self.0 .0.lock().1.retain(|(peer, _)| *peer != self.1);
        }
    }

    /// A stream that cannot be cloned is left to its tick.
    pub(super) fn prepare<'a>(s: &TcpStream, peer: SocketAddr, w: &'a Wake) -> Registered<'a> {
        s.set_read_timeout(Some(READ_TICK)).ok();
        let (stopped, live) = &mut *w.0.lock();
        if *stopped {
            s.shutdown(Shutdown::Read).ok();
        } else if let Ok(clone) = s.try_clone() {
            live.push((peer, clone));
        }
        Registered(w, peer)
    }

    pub(super) fn set_rcvlowat(_: &TcpStream, _: usize) -> bool {
        false
    }

    pub(super) fn wait_readable(_: &TcpStream, _: &Wake, _: Option<Instant>) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::push::PushSocket;
    use crossbeam::channel::RecvTimeoutError;

    fn tcp_pair(hwm: usize) -> (PullSocket, PushSocket) {
        let pull = PullSocket::bind(
            &Endpoint::tcp("127.0.0.1", 0),
            SocketOptions::default().with_hwm(hwm),
        )
        .unwrap();
        let ep = pull.local_endpoint().unwrap();
        let push = PushSocket::connect(&ep, SocketOptions::default().with_hwm(hwm)).unwrap();
        (pull, push)
    }

    #[test]
    fn tcp_roundtrip() {
        let (pull, push) = tcp_pair(16);
        for i in 0..50u32 {
            push.send(Bytes::from(i.to_be_bytes().to_vec())).unwrap();
        }
        let mut got = Vec::new();
        for _ in 0..50 {
            let m = pull.recv().unwrap();
            got.push(u32::from_be_bytes(m.as_ref().try_into().unwrap()));
        }
        // Single stream: order preserved.
        assert_eq!(got, (0..50).collect::<Vec<u32>>());
        push.close().unwrap();
    }

    #[test]
    fn multi_stream_fan_in_delivers_everything() {
        let pull = PullSocket::bind(
            &Endpoint::tcp("127.0.0.1", 0),
            SocketOptions::default().with_hwm(32),
        )
        .unwrap();
        let ep = pull.local_endpoint().unwrap();
        const STREAMS: u32 = 4;
        const PER_STREAM: u32 = 100;
        let handles: Vec<_> = (0..STREAMS)
            .map(|s| {
                let ep = ep.clone();
                std::thread::spawn(move || {
                    let push = PushSocket::connect(&ep, SocketOptions::default()).unwrap();
                    for i in 0..PER_STREAM {
                        let id = s * PER_STREAM + i;
                        push.send(Bytes::from(id.to_be_bytes().to_vec())).unwrap();
                    }
                    push.close().unwrap();
                })
            })
            .collect();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..STREAMS * PER_STREAM {
            let m = pull.recv().unwrap();
            seen.insert(u32::from_be_bytes(m.as_ref().try_into().unwrap()));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            seen.len(),
            (STREAMS * PER_STREAM) as usize,
            "exactly-once fan-in"
        );
        let stats = pull.stats();
        assert_eq!(stats.msgs_received, (STREAMS * PER_STREAM) as u64);
        assert_eq!(stats.connections, STREAMS as u64);
        assert_eq!(stats.read_errors, 0);
    }

    #[test]
    fn a_socket_nobody_connected_to_drops_promptly_and_frees_its_port() {
        // The accept thread blocks in `accept` with no connection ever
        // arriving: the drop has to wake it, and join it — a detached
        // thread would still hold the listener, and the port.
        for endpoint in [Endpoint::tcp("127.0.0.1", 0), Endpoint::tcp("0.0.0.0", 0)] {
            let pull = PullSocket::bind(&endpoint, SocketOptions::default()).unwrap();
            let addr = pull.local_addr;
            let t0 = std::time::Instant::now();
            drop(pull);
            assert!(
                t0.elapsed() < Duration::from_millis(500),
                "{:?}",
                t0.elapsed()
            );
            TcpListener::bind(addr).expect("the listener is closed with the socket");
        }
    }

    #[test]
    fn recv_timeout_times_out() {
        let (pull, push) = tcp_pair(4);
        let queue = pull.queue();
        assert!(matches!(
            queue.recv_timeout(Duration::from_millis(50)),
            Err(RecvTimeoutError::Timeout)
        ));
        push.send(Bytes::from_static(b"x")).unwrap();
        assert!(queue.recv_timeout(Duration::from_secs(2)).is_ok());
        push.close().unwrap();
    }

    #[test]
    fn backpressure_end_to_end() {
        // Small HWMs everywhere; a sender that produces 64 large messages
        // must block until the receiver drains, and nothing may be lost.
        let (pull, push) = tcp_pair(2);
        let stats = push.stats();
        let producer = std::thread::spawn(move || {
            for i in 0..64u32 {
                push.send(Bytes::from(vec![i as u8; 64 << 10])).unwrap();
            }
            push.close().unwrap();
        });
        // Wait until the sender has actually hit the HWM and blocked
        // (bounded deadline poll — a fixed sleep here flakes on loaded
        // machines) before draining a single message.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while stats.blocked_nanos.load(Ordering::Relaxed) == 0
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            stats.blocked_nanos.load(Ordering::Relaxed) > 0,
            "sender should have hit the HWM and blocked"
        );
        let mut count = 0;
        while count < 64 {
            pull.recv().unwrap();
            count += 1;
        }
        producer.join().unwrap();
    }

    #[test]
    fn large_frame_transfer() {
        let (pull, push) = tcp_pair(4);
        let payload = vec![0xAB; 8 << 20]; // 8 MiB batch
        push.send(Bytes::from(payload.clone())).unwrap();
        let got = pull.recv().unwrap();
        assert_eq!(got.len(), payload.len());
        assert!(got.iter().all(|&b| b == 0xAB));
        push.close().unwrap();
    }

    #[test]
    fn oversized_prefix_ends_one_connection_loudly_and_only_that_one() {
        use emlio_util::testutil::poll_until;
        use std::io::Write;

        let pull =
            PullSocket::bind(&Endpoint::tcp("127.0.0.1", 0), SocketOptions::default()).unwrap();
        let push =
            PushSocket::connect(&pull.local_endpoint().unwrap(), SocketOptions::default()).unwrap();
        push.send(Bytes::from_static(b"before")).unwrap();
        assert_eq!(pull.recv().unwrap().as_ref(), b"before");

        let mut raw = TcpStream::connect(pull.local_addr).unwrap();
        assert!(u32::MAX as usize > MAX_FRAME);
        raw.write_all(&u32::MAX.to_be_bytes()).unwrap();
        assert!(
            poll_until(Duration::from_secs(5), || pull.stats().read_errors == 1),
            "the oversized length prefix is counted"
        );
        assert!(
            poll_until(Duration::from_secs(5), || {
                pull.shared.lifecycle(|ends| ends.open()).0 == 1
            }),
            "its reader is gone, the good connection's is not"
        );
        let events = FlightRecorder::global().dump();
        assert!(events.iter().any(|e| e.name == "zmq_pull_read_error"));

        for i in 0..20u8 {
            push.send(Bytes::from(vec![i; 1000])).unwrap();
            assert_eq!(pull.recv().unwrap(), vec![i; 1000]);
        }
        push.close().unwrap();
        let stats = pull.stats();
        assert_eq!((stats.connections, stats.read_errors), (2, 1));
        assert_eq!(stats.msgs_received, 21);
    }

    /// The next frame, failing the test after 5 s rather than hanging it.
    fn recv(pull: &PullSocket) -> Bytes {
        let got = pull.queue().recv_timeout(Duration::from_secs(5));
        got.expect("a frame within 5 s")
    }

    /// A scatter frame shaped like a served batch: `segments` payloads of
    /// `seg_len` bytes, a few header bytes before each.
    fn batch_frame(tag: u8, segments: usize, seg_len: usize) -> crate::Frame {
        let body = Bytes::from(vec![tag; seg_len]);
        let header = Bytes::from(vec![tag ^ 0xFF; 11]);
        crate::Frame::from_segments(
            (0..segments)
                .flat_map(|_| [header.clone(), body.clone()])
                .collect(),
        )
    }

    #[test]
    fn one_write_per_frame_and_buffers_recycle() {
        let (pull, push) = tcp_pair(4);
        let push_stats = push.stats();
        // Closed loop, each frame dropped before the next is sent: nothing
        // ever blocks, and one buffer serves every frame.
        const FRAMES: u64 = 40;
        for i in 0..FRAMES {
            let frame = batch_frame(i as u8, 32, 16 << 10);
            let expect = frame.clone().into_bytes();
            push.send(frame).unwrap();
            assert_eq!(pull.recv().unwrap(), expect);
        }
        // One write per frame, and one more per write the kernel took
        // only part of.
        let writes = push_stats.writes.load(Ordering::Relaxed);
        let short = push_stats.short_writes.load(Ordering::Relaxed);
        assert_eq!(
            writes,
            FRAMES + short,
            "{FRAMES} 64-segment frames took {writes} writes, {short} short"
        );
        assert!(push_stats.write_nanos.load(Ordering::Relaxed) > 0);
        let stats = pull.stats();
        assert_eq!(stats.buffers_allocated, 1, "{stats:?}");
        assert_eq!(stats.buffers_reused, FRAMES - 1);

        // Small frames queued together still go out one write each; frames
        // the consumer keeps hold their buffers, and the count of buffers
        // stops at what is kept alive at once.
        const SMALL: u64 = 300;
        let producer = std::thread::spawn(move || {
            for i in 0..SMALL {
                push.send(batch_frame(i as u8, 3, 50)).unwrap();
            }
            push.close().unwrap();
        });
        let mut kept = std::collections::VecDeque::new();
        for i in 0..SMALL {
            let got = pull.recv().unwrap();
            assert_eq!(got, batch_frame(i as u8, 3, 50).into_bytes());
            kept.push_back(got);
            if kept.len() > 3 {
                kept.pop_front();
            }
        }
        producer.join().unwrap();
        let small_writes = push_stats.writes.load(Ordering::Relaxed) - writes;
        let small_short = push_stats.short_writes.load(Ordering::Relaxed) - short;
        assert_eq!(
            small_writes,
            SMALL + small_short,
            "one write per small frame, {small_short} short"
        );
        // 3 kept + 1 being checked + 4 queued + 1 in the reader's hands.
        let allocated = pull.stats().buffers_allocated;
        assert!(allocated <= 1 + 9, "{allocated} buffers for {SMALL} frames");
    }

    #[test]
    fn writer_stalling_mid_frame_keeps_the_stream_in_frame() {
        use emlio_util::testutil::poll_until;
        use std::io::Write;

        let pull =
            PullSocket::bind(&Endpoint::tcp("127.0.0.1", 0), SocketOptions::default()).unwrap();
        let mut raw = TcpStream::connect(pull.local_addr).unwrap();
        raw.set_nodelay(true).unwrap();
        // The reader goes back to its wait with part of the frame already
        // consumed, inside the length prefix and then inside the payload.
        let stall = Duration::from_millis(250);

        let first = vec![0x5A; 40_000];
        let second = b"the frame after the stalls";
        let mut wire = Vec::new();
        crate::frame::write_frame(&mut wire, &first).unwrap();
        crate::frame::write_frame(&mut wire, second).unwrap();
        // Cut inside the first header, then inside the first payload.
        for part in [&wire[..2], &wire[2..10_000], &wire[10_000..]] {
            raw.write_all(part).unwrap();
            std::thread::sleep(stall);
        }
        let got = pull.queue().recv_timeout(Duration::from_secs(10)).ok();
        assert_eq!(got.as_deref(), Some(&first[..]), "stalled frame intact");
        let got = pull.queue().recv_timeout(Duration::from_secs(10)).ok();
        assert_eq!(got.as_deref(), Some(&second[..]), "stream still in frame");

        // A stop is still prompt with a frame half-delivered and the
        // writer gone quiet (connection open, no EOF to wake the reader).
        raw.write_all(&[0, 0]).unwrap();
        std::thread::sleep(stall);
        let shared = pull.shared.clone();
        assert_eq!(shared.lifecycle(|ends| ends.open()).0, 1);
        drop(pull);
        assert!(
            poll_until(Duration::from_secs(5), || {
                shared.lifecycle(|ends| ends.open()).0 == 0
            }),
            "reader thread exits on shutdown mid-frame"
        );
    }

    #[test]
    fn a_frame_takes_one_read_per_mib_and_one_for_its_prefix() {
        // 32 frames of 3 MiB, each 32 segments sent in one vectored write,
        // to a consumer that keeps up: each frame is sent once the one
        // before it is received, so the reader is always waiting for it.
        // The low-water mark wakes it once a MiB (or the rest of the frame)
        // is in, not once per segment the kernel queues.
        const FRAMES: u64 = 32;
        const SEGMENTS: usize = 32;
        const LEN: usize = 3 << 20;
        let (pull, push) = tcp_pair(4);
        for i in 0..FRAMES {
            push.send(batch_frame(i as u8, SEGMENTS, LEN / SEGMENTS - 11))
                .unwrap();
            let got = recv(&pull);
            assert_eq!((got.len(), got[11]), (LEN, i as u8));
        }
        push.close().unwrap();
        let stats = pull.stats();
        assert_eq!(stats.msgs_received, FRAMES);
        let bound = FRAMES * (1 + LEN.div_ceil(MAX_LOW_WATER) as u64) + 8;
        assert!(
            stats.reads <= bound,
            "{} reads for {FRAMES} frames of 3 MiB (bound {bound})",
            stats.reads
        );
    }

    #[test]
    fn nothing_waits_on_the_low_water_mark() {
        use emlio_util::testutil::poll_until;
        use std::io::Write;

        // Each case writes a stream in two pieces, pausing in between, on a
        // connection that then stays open and silent: its last frame must
        // arrive within 20 ms of its last byte. A mark fixed per
        // connection, or raised per frame and never lowered, holds a frame
        // until something else wakes the reader; so does waiting in a
        // blocking `read`, which takes the first half and then waits for a
        // whole mark more (the third case).
        let big = 3 << 20;
        let cases = [
            // A small frame after a large one, the reader asleep before it.
            (&[(big, 0x3C), (40, 0xC3)][..], 4 + big, 10),
            // A frame whose last 100 KiB follow a writer stall.
            (&[(big, 0x69)][..], 4 + big - (100 << 10), 250),
            // A frame of less than the mark, in two halves.
            (&[(512 << 10, 0x96)][..], (4 + (512 << 10)) / 2, 20),
        ];
        for (frames, cut, pause_ms) in cases {
            let mut wire = Vec::new();
            let mut whole = 0;
            for &(len, byte) in frames {
                crate::frame::write_frame(&mut wire, &vec![byte; len]).unwrap();
                whole += u64::from(wire.len() <= cut);
            }
            let pull =
                PullSocket::bind(&Endpoint::tcp("127.0.0.1", 0), SocketOptions::default()).unwrap();
            let mut raw = TcpStream::connect(pull.local_addr).unwrap();
            raw.set_nodelay(true).unwrap();
            raw.write_all(&wire[..cut]).unwrap();
            // What is timed is the wait for the rest, not the reading of
            // frames that were whole before it.
            assert!(poll_until(Duration::from_secs(5), || {
                pull.stats().msgs_received == whole
            }));
            std::thread::sleep(Duration::from_millis(pause_ms));
            let sent = Instant::now();
            raw.write_all(&wire[cut..]).unwrap();
            let got: Vec<Bytes> = frames.iter().map(|_| recv(&pull)).collect();
            let took = sent.elapsed();
            for (got, &(len, byte)) in got.iter().zip(frames) {
                assert_eq!(got, &vec![byte; len]);
            }
            assert!(
                took < Duration::from_millis(20),
                "{took:?} after a {pause_ms} ms pause"
            );
            drop(raw);
        }
    }

    #[test]
    fn end_of_stream_reads_open_connections_out_and_no_new_one() {
        use emlio_util::testutil::poll_until;

        let pull = PullSocket::bind_with(
            &Endpoint::tcp("127.0.0.1", 0),
            SocketOptions::default(),
            1,
            |frame: Bytes| match frame.as_ref() {
                b"end" => Intake::Marker {
                    origin: "ending".into(),
                    connections: 1,
                },
                b"skip" => Intake::Skip,
                _ => Intake::Deliver(frame),
            },
        )
        .unwrap();
        let ep = pull.local_endpoint().unwrap();
        let open = PushSocket::connect(&ep, SocketOptions::default()).unwrap();
        open.send(Bytes::from_static(b"before")).unwrap();
        assert_eq!(pull.recv().unwrap(), b"before".as_slice());

        let ending = PushSocket::connect(&ep, SocketOptions::default()).unwrap();
        ending.send(Bytes::from_static(b"skip")).unwrap();
        ending.send(Bytes::from_static(b"end")).unwrap();
        ending.close().unwrap();
        assert!(
            poll_until(Duration::from_secs(5), || {
                let readers = pull.shared.lifecycle(|ends| ends.open()).0;
                pull.stats().msgs_received == 3 && readers == 1
            }),
            "the ending connection's reader read the end and returned"
        );

        // A connection opened before the end is read until it closes (or
        // goes quiet), one opened after it is closed unread, and the queue
        // ends with the last reader.
        open.send(Bytes::from_static(b"after")).unwrap();
        let late = PushSocket::connect(&ep, SocketOptions::default()).unwrap();
        let _ = late.send(Bytes::from_static(b"late"));
        drop(late);
        assert_eq!(pull.recv().unwrap(), b"after".as_slice());
        open.close().unwrap();
        assert!(matches!(pull.recv(), Err(ZmqError::Closed)));
        let stats = pull.stats();
        assert_eq!((stats.connections, stats.msgs_received), (2, 4));
    }

    #[test]
    fn stop_ends_the_queue_promptly_while_a_connection_is_quiet() {
        use emlio_util::testutil::poll_until;

        let (pull, push) = tcp_pair(4);
        push.send(Bytes::from_static(b"queued")).unwrap();
        assert!(poll_until(Duration::from_secs(5), || {
            pull.stats().msgs_received == 1
        }));
        let stop = pull.stop_handle();
        assert!(!stop.is_stopped());
        let t0 = Instant::now();
        stop.stop();
        assert!(stop.is_stopped());
        assert_eq!(
            pull.recv().unwrap(),
            b"queued".as_slice(),
            "what was queued is kept"
        );
        // The reader sleeps with no timeout on a connection that stays
        // open and silent: only the socket's wake can end its wait.
        let end = pull.queue().recv_timeout(Duration::from_secs(5));
        assert!(
            matches!(end, Err(RecvTimeoutError::Disconnected)),
            "{end:?}"
        );
        assert!(
            t0.elapsed() < Duration::from_millis(100),
            "{:?}",
            t0.elapsed()
        );
        drop(push);
    }
}
