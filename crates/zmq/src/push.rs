//! PUSH socket: bounded send queue (the HWM) drained by one sender thread
//! per TCP connection. `send` blocks once `hwm` messages are queued — the
//! paper's "HWM 16, blocking send to infinity" configuration (§4.5).
//!
//! A socket stripes over [`SocketOptions::connections`] connections to its
//! one PULL endpoint. Each connection has its own sender thread, and every
//! sender takes its next frame from the one queue, so the HWM still bounds
//! what `send` may run ahead by, and a second core can copy a second frame
//! into the kernel while the first is still going out. What that costs:
//!
//! * **no order across connections.** Each connection is FIFO, but frames
//!   of one socket may arrive in any order across its connections;
//! * **one end per connection.** [`PushSocket::close_with`] writes its last
//!   frame as the final frame of *every* connection, so a receiver that
//!   has that frame from all of them has read each to its end;
//! * **frames held in user space ≤ HWM + S.** `hwm` wait in the queue and
//!   each of the `S` senders holds the one frame it is writing. A sender
//!   takes one frame at a time and writes it alone, with one vectored
//!   write: frames are never batched together on the send side, because
//!   the daemon already sends a whole training batch as one frame.

use crate::endpoint::Endpoint;
use crate::frame::{write_scatter, Frame};
use crate::{Result, SocketOptions, ZmqError};
use crossbeam::channel::{bounded, Receiver, Sender};
use emlio_obs::{Stage, StageRecorder};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

enum Cmd {
    Msg(Frame),
    /// Write this frame last (if any) and end the sender: one per sender.
    Close(Option<Frame>),
}

/// Shared counters for observability and tests.
#[derive(Debug, Default)]
pub struct PushStats {
    /// Messages handed to the socket.
    pub msgs_sent: AtomicU64,
    /// Payload bytes written to the wire (excluding frame headers).
    pub bytes_sent: AtomicU64,
    /// Write syscalls the sender threads issued: exactly one per frame,
    /// and one more per short write.
    pub writes: AtomicU64,
    /// Writes the kernel took only part of.
    pub short_writes: AtomicU64,
    /// Total nanoseconds the sender threads spent writing to their streams
    /// (summed over connections) — the cost `send` callers see only as
    /// backpressure.
    pub write_nanos: AtomicU64,
}

/// A PUSH socket connected to exactly one PULL endpoint, over one or more
/// TCP connections.
///
/// EMLIO's plan assigns each `SendWorker` thread its own stream to its
/// destination node, so one socket per (worker, destination) is the natural
/// unit; multi-stream transfer = several `PushSocket`s to one `PullSocket`.
pub struct PushSocket {
    tx: Sender<Cmd>,
    sender_threads: Vec<JoinHandle<Result<()>>>,
    dead: Arc<AtomicBool>,
    stats: Arc<PushStats>,
    recorder: Option<Arc<StageRecorder>>,
}

impl PushSocket {
    /// Connect `options.connections` streams to a PULL endpoint, retrying
    /// refused connections until `options.connect_timeout` (the receiver
    /// may not be bound yet).
    pub fn connect(endpoint: &Endpoint, options: SocketOptions) -> Result<PushSocket> {
        let stats = Arc::new(PushStats::default());
        let dead = Arc::new(AtomicBool::new(false));
        let (tx, rx) = bounded::<Cmd>(options.hwm);
        let Endpoint::Tcp(addr) = endpoint;
        let streams = (0..options.connections)
            .map(|_| connect_with_retry(addr, options.connect_timeout))
            .collect::<Result<Vec<_>>>()?;
        let sender_threads = streams
            .into_iter()
            .map(|stream| {
                stream.set_nodelay(true).ok();
                let (rx, stats, dead) = (rx.clone(), stats.clone(), dead.clone());
                std::thread::Builder::new()
                    .name(format!("zmq-push:{addr}"))
                    .spawn(move || {
                        let result = tcp_sender_loop(stream, &rx, &stats);
                        if result.is_err() {
                            dead.store(true, Ordering::SeqCst);
                        }
                        result
                    })
                    .expect("spawn push sender thread")
            })
            .collect();
        Ok(PushSocket {
            tx,
            sender_threads,
            dead,
            stats,
            recorder: options.recorder,
        })
    }

    /// Queue a message, blocking while the HWM is reached. Fails if the
    /// connection has died. Takes the queue's lock once per frame; with a
    /// recorder, the whole call, wait included, is one
    /// [`Stage::SocketSend`] sample, the only place the stall is kept.
    ///
    /// Accepts anything convertible into a [`Frame`] — a `Bytes`, a
    /// `Vec<u8>`, or a pre-built scatter list. A multi-segment frame goes
    /// out in one vectored write; the payload is never gathered.
    pub fn send(&self, payload: impl Into<Frame>) -> Result<()> {
        if self.dead.load(Ordering::SeqCst) {
            return Err(ZmqError::Closed);
        }
        let t0 = Instant::now();
        self.tx
            .send(Cmd::Msg(payload.into()))
            .map_err(|_| ZmqError::Closed)?;
        if let Some(rec) = &self.recorder {
            // The caller-visible cost of handing one frame to the socket:
            // a queue push, plus the whole backpressure stall when the HWM
            // was reached.
            rec.record(Stage::SocketSend, t0.elapsed().as_nanos() as u64);
        }
        self.stats.msgs_sent.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Shared statistics handle.
    pub fn stats(&self) -> Arc<PushStats> {
        self.stats.clone()
    }

    /// Flush queued messages and shut every connection down. Returns once
    /// the peer has been sent everything accepted by `send`.
    pub fn close(self) -> Result<()> {
        self.finish(None)
    }

    /// Flush queued messages, then write `last` as the final frame of every
    /// connection and shut them down. Frames sent before are all written
    /// first: each connection is FIFO, so whoever reads `last` on a
    /// connection has read everything this socket sent on it.
    pub fn close_with(self, last: impl Into<Frame>) -> Result<()> {
        self.finish(Some(last.into()))
    }

    fn finish(mut self, last: Option<Frame>) -> Result<()> {
        let mut result = Ok(());
        for h in self.shut_down(last) {
            let joined = h.join().map_err(|_| ZmqError::Closed).and_then(|r| r);
            result = result.and(joined);
        }
        result
    }

    /// Queue one `Close` per sender behind every frame already sent: a
    /// sender ends at the first it takes, so each takes exactly one, and
    /// only once the queue ahead of it is empty.
    fn shut_down(&mut self, last: Option<Frame>) -> Vec<JoinHandle<Result<()>>> {
        for _ in &self.sender_threads {
            let _ = self.tx.send(Cmd::Close(last.clone()));
        }
        std::mem::take(&mut self.sender_threads)
    }
}

impl Drop for PushSocket {
    fn drop(&mut self) {
        // Best-effort flush if close() wasn't called.
        for h in self.shut_down(None) {
            let _ = h.join();
        }
    }
}

fn connect_with_retry(addr: &str, timeout: Duration) -> Result<TcpStream> {
    let deadline = Instant::now() + timeout;
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(ZmqError::ConnectTimeout(format!("{addr}: {e}")));
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// Take one command at a time off the queue and write its one frame: a
/// frame never shares a write with another.
fn tcp_sender_loop(mut stream: TcpStream, rx: &Receiver<Cmd>, stats: &PushStats) -> Result<()> {
    while let Ok(cmd) = rx.recv() {
        let (frame, closing) = match cmd {
            Cmd::Msg(frame) => (Some(frame), false),
            Cmd::Close(last) => (last, true),
        };
        if let Some(frame) = frame {
            let t0 = Instant::now();
            let (writes, short) = write_scatter(&mut stream, &frame)?;
            stats
                .write_nanos
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            stats.writes.fetch_add(writes, Ordering::Relaxed);
            stats.short_writes.fetch_add(short, Ordering::Relaxed);
            stats
                .bytes_sent
                .fetch_add(frame.len() as u64, Ordering::Relaxed);
        }
        if closing {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PullSocket;
    use bytes::Bytes;

    #[test]
    fn send_and_close_flushes() {
        let pull = PullSocket::bind(
            &Endpoint::tcp("127.0.0.1", 0),
            SocketOptions::default().with_hwm(64),
        )
        .unwrap();
        let sock =
            PushSocket::connect(&pull.local_endpoint().unwrap(), SocketOptions::default()).unwrap();
        for i in 0..10u8 {
            sock.send(Bytes::from(vec![i])).unwrap();
        }
        sock.close().unwrap();
        let got: Vec<u8> = (0..10).map(|_| pull.recv().unwrap()[0]).collect();
        assert_eq!(got, (0..10).collect::<Vec<u8>>());
    }

    #[test]
    fn a_striped_socket_ends_every_connection_with_its_last_frame() {
        const FRAMES: u64 = 64;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let ep = Endpoint::Tcp(listener.local_addr().unwrap().to_string());
        let sock = PushSocket::connect(&ep, SocketOptions::default().with_connections(2)).unwrap();
        // Each connection is read to its end on a thread of its own, once
        // `start` lets it.
        let start = Arc::new(std::sync::Barrier::new(3));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let (mut conn, _) = listener.accept().unwrap();
                let start = start.clone();
                std::thread::spawn(move || {
                    start.wait();
                    let mut reader = crate::frame::FrameReader::with_pool(Default::default());
                    std::iter::from_fn(|| reader.read_frame(&mut conn, usize::MAX).unwrap())
                        .collect::<Vec<Bytes>>()
                })
            })
            .collect();
        let stats = sock.stats();
        let body = Bytes::from(vec![7u8; 1 << 20]);
        let pusher = std::thread::spawn(move || {
            for i in 0..FRAMES {
                let index = Bytes::from(i.to_le_bytes().to_vec());
                sock.send(Frame::from_segments(vec![index, body.clone()]))
                    .unwrap();
            }
            sock.close_with(Bytes::from_static(b"last")).unwrap();
        });
        // Unread, 64 MiB do not fit in two connections' kernel buffers and
        // the queue: `send` stalls only once both senders are blocked in a
        // write, so each connection carries frames.
        let mut last = u64::MAX;
        while stats.msgs_sent.load(Ordering::SeqCst) != last {
            last = stats.msgs_sent.load(Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(100));
        }
        assert!(last < FRAMES, "every frame fit unread");
        start.wait();
        pusher.join().unwrap();

        let mut got = Vec::new();
        for r in readers {
            let mut frames = r.join().unwrap();
            assert_eq!(
                frames.pop().as_deref(),
                Some(&b"last"[..]),
                "a connection did not end with the last frame"
            );
            assert!(!frames.is_empty(), "one connection carried every frame");
            for f in frames {
                assert_eq!(f.len(), 8 + (1 << 20));
                got.push(u64::from_le_bytes(f[..8].try_into().unwrap()));
            }
        }
        got.sort_unstable();
        assert_eq!(got, (0..FRAMES).collect::<Vec<_>>(), "every frame once");
    }

    #[test]
    fn send_blocks_once_hwm_frames_wait_behind_every_sender() {
        // Nobody reads: each sender blocks inside a frame larger than its
        // connection's kernel buffers, `hwm` frames fill the queue, and the
        // next send blocks. The socket holds HWM + S frames.
        const HWM: usize = 2;
        const S: usize = 2;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let ep = Endpoint::Tcp(listener.local_addr().unwrap().to_string());
        let options = SocketOptions::default().with_hwm(HWM).with_connections(S);
        let sock = PushSocket::connect(&ep, options).unwrap();
        let accepted: Vec<_> = (0..S).map(|_| listener.accept().unwrap().0).collect();
        let big = Bytes::from(vec![0u8; 64 << 20]);
        let sent = Arc::new(AtomicU64::new(0));
        let sent2 = sent.clone();
        let pusher = std::thread::spawn(move || {
            while sock.send(big.clone()).is_ok() {
                sent2.fetch_add(1, Ordering::SeqCst);
            }
        });
        let held = (HWM + S) as u64;
        assert!(emlio_util::testutil::poll_until(
            Duration::from_secs(10),
            || sent.load(Ordering::SeqCst) == held
        ));
        std::thread::sleep(Duration::from_millis(300));
        assert_eq!(sent.load(Ordering::SeqCst), held, "send ran past the HWM");
        // Resetting the connections fails the senders, and the blocked
        // send with them.
        drop(accepted);
        pusher.join().unwrap();
    }

    #[test]
    fn connect_timeout_on_refused_tcp() {
        let opts = SocketOptions {
            connect_timeout: Duration::from_millis(80),
            ..Default::default()
        };
        // Port 1 on localhost should refuse quickly.
        let r = PushSocket::connect(&Endpoint::tcp("127.0.0.1", 1), opts);
        assert!(matches!(r, Err(ZmqError::ConnectTimeout(_))));
    }
}
