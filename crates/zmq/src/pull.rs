//! PULL socket: binds an address, accepts any number of PUSH connections,
//! and fair-queues their messages into one bounded stream.
//!
//! The bounded queue is the receive-side HWM: when the consumer (DALI
//! pipeline) falls behind, reader threads block on the queue, stop draining
//! their sockets, and the kernel's TCP flow control propagates backpressure
//! to every connected daemon.

use crate::endpoint::Endpoint;
use crate::frame::FrameReader;
use crate::{Result, SocketOptions, ZmqError};
use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Shared counters for observability and tests.
#[derive(Debug, Default)]
pub struct PullStats {
    /// Messages delivered to `recv`.
    pub msgs_received: AtomicU64,
    /// Payload bytes received.
    pub bytes_received: AtomicU64,
    /// Connections accepted over the socket's lifetime.
    pub connections: AtomicU64,
}

struct Shared {
    stats: PullStats,
    shutdown: AtomicBool,
    active_readers: AtomicUsize,
}

/// A PULL socket bound to one endpoint.
pub struct PullSocket {
    rx: Receiver<Bytes>,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    local_addr: Option<std::net::SocketAddr>,
    inproc_name: Option<String>,
}

impl PullSocket {
    /// Bind and start accepting connections. For `tcp://host:0` the kernel
    /// picks a free port — see [`PullSocket::local_endpoint`].
    pub fn bind(endpoint: &Endpoint, options: SocketOptions) -> Result<PullSocket> {
        match endpoint {
            Endpoint::Tcp(addr) => Self::bind_tcp(addr, options),
            Endpoint::Inproc(name) => {
                let rx = crate::inproc::bind(name, options.hwm.max(1));
                Ok(PullSocket {
                    rx,
                    shared: Arc::new(Shared {
                        stats: PullStats::default(),
                        shutdown: AtomicBool::new(false),
                        active_readers: AtomicUsize::new(0),
                    }),
                    accept_thread: None,
                    local_addr: None,
                    inproc_name: Some(name.clone()),
                })
            }
        }
    }

    fn bind_tcp(addr: &str, options: SocketOptions) -> Result<PullSocket> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let (tx, rx) = bounded::<Bytes>(options.hwm.max(1));
        let shared = Arc::new(Shared {
            stats: PullStats::default(),
            shutdown: AtomicBool::new(false),
            active_readers: AtomicUsize::new(0),
        });
        let shared2 = shared.clone();
        let accept_thread = std::thread::Builder::new()
            .name(format!("zmq-pull-accept:{local_addr}"))
            .spawn(move || accept_loop(listener, tx, shared2, options.max_frame))
            .expect("spawn pull accept thread");
        Ok(PullSocket {
            rx,
            shared,
            accept_thread: Some(accept_thread),
            local_addr: Some(local_addr),
            inproc_name: None,
        })
    }

    /// The concrete endpoint after binding (resolves `:0` ports).
    pub fn local_endpoint(&self) -> Option<Endpoint> {
        if let Some(a) = self.local_addr {
            Some(Endpoint::Tcp(a.to_string()))
        } else {
            self.inproc_name.as_deref().map(Endpoint::inproc)
        }
    }

    /// Blocking receive of the next message from any connected pusher.
    pub fn recv(&self) -> Result<Bytes> {
        let msg = self.rx.recv().map_err(|_| ZmqError::Closed)?;
        self.record(&msg);
        Ok(msg)
    }

    /// Receive with a timeout. `Ok(None)` on timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Option<Bytes>> {
        match self.rx.recv_timeout(timeout) {
            Ok(msg) => {
                self.record(&msg);
                Ok(Some(msg))
            }
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(ZmqError::Closed),
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<Option<Bytes>> {
        match self.rx.try_recv() {
            Ok(msg) => {
                self.record(&msg);
                Ok(Some(msg))
            }
            Err(crossbeam::channel::TryRecvError::Empty) => Ok(None),
            Err(crossbeam::channel::TryRecvError::Disconnected) => Err(ZmqError::Closed),
        }
    }

    fn record(&self, msg: &Bytes) {
        self.shared
            .stats
            .msgs_received
            .fetch_add(1, Ordering::Relaxed);
        self.shared
            .stats
            .bytes_received
            .fetch_add(msg.len() as u64, Ordering::Relaxed);
    }

    /// Snapshot of counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.shared.stats.msgs_received.load(Ordering::Relaxed),
            self.shared.stats.bytes_received.load(Ordering::Relaxed),
            self.shared.stats.connections.load(Ordering::Relaxed),
        )
    }

    /// Number of currently connected pushers (TCP only).
    pub fn active_connections(&self) -> usize {
        self.shared.active_readers.load(Ordering::SeqCst)
    }
}

impl Drop for PullSocket {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        if let Some(name) = &self.inproc_name {
            crate::inproc::unbind(name);
        }
    }
}

fn accept_loop(listener: TcpListener, tx: Sender<Bytes>, shared: Arc<Shared>, max_frame: usize) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, peer)) => {
                stream.set_nonblocking(false).ok();
                stream.set_nodelay(true).ok();
                shared.stats.connections.fetch_add(1, Ordering::Relaxed);
                shared.active_readers.fetch_add(1, Ordering::SeqCst);
                let tx2 = tx.clone();
                let shared2 = shared.clone();
                std::thread::Builder::new()
                    .name(format!("zmq-pull-read:{peer}"))
                    .spawn(move || {
                        reader_loop(stream, tx2, &shared2, max_frame);
                        shared2.active_readers.fetch_sub(1, Ordering::SeqCst);
                    })
                    .expect("spawn pull reader thread");
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => return,
        }
    }
}

fn reader_loop(stream: TcpStream, tx: Sender<Bytes>, shared: &Shared, max_frame: usize) {
    // Reads block; a read timeout lets us observe shutdown. The timeout can
    // fire mid-frame, so the frame in progress lives in `frames` across
    // ticks.
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .ok();
    let mut r = BufReader::with_capacity(256 << 10, stream);
    let mut frames = FrameReader::default();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match frames.read_frame(&mut r, max_frame) {
            Ok(Some(msg)) => {
                if tx.send(msg).is_err() {
                    return; // socket dropped
                }
            }
            Ok(None) => return, // peer closed cleanly
            Err(ZmqError::Io(e))
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue; // timeout tick: re-check shutdown
            }
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::push::PushSocket;

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
        let (msgs, _bytes, conns) = pull.stats();
        assert_eq!(msgs, (STREAMS * PER_STREAM) as u64);
        assert_eq!(conns, STREAMS as u64);
    }

    #[test]
    fn recv_timeout_times_out() {
        let (pull, push) = tcp_pair(4);
        assert!(pull
            .recv_timeout(Duration::from_millis(50))
            .unwrap()
            .is_none());
        push.send(Bytes::from_static(b"x")).unwrap();
        assert!(pull.recv_timeout(Duration::from_secs(2)).unwrap().is_some());
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
    fn inproc_pull_socket() {
        let pull = PullSocket::bind(
            &Endpoint::inproc("pull-test-inproc"),
            SocketOptions::default(),
        )
        .unwrap();
        let push =
            PushSocket::connect(&pull.local_endpoint().unwrap(), SocketOptions::default()).unwrap();
        push.send(Bytes::from_static(b"via-inproc")).unwrap();
        assert_eq!(pull.recv().unwrap().as_ref(), b"via-inproc");
        push.close().unwrap();
    }

    #[test]
    fn writer_stalling_mid_frame_keeps_the_stream_in_frame() {
        use emlio_util::testutil::poll_until;
        use std::io::Write;

        let pull =
            PullSocket::bind(&Endpoint::tcp("127.0.0.1", 0), SocketOptions::default()).unwrap();
        let mut raw = TcpStream::connect(pull.local_addr.unwrap()).unwrap();
        raw.set_nodelay(true).unwrap();
        // Longer than the reader's 100 ms shutdown-poll timeout, so the
        // timeout fires with part of the frame already consumed.
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
        let got = pull.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(got.as_deref(), Some(&first[..]), "stalled frame intact");
        let got = pull.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(got.as_deref(), Some(&second[..]), "stream still in frame");

        // Shutdown is still prompt with a frame half-delivered and the
        // writer gone quiet (connection open, no EOF to wake the reader).
        raw.write_all(&[0, 0]).unwrap();
        std::thread::sleep(stall);
        let shared = pull.shared.clone();
        assert_eq!(shared.active_readers.load(Ordering::SeqCst), 1);
        drop(pull);
        assert!(
            poll_until(Duration::from_secs(5), || {
                shared.active_readers.load(Ordering::SeqCst) == 0
            }),
            "reader thread exits on shutdown mid-frame"
        );
    }
}
