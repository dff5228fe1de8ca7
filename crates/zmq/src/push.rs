//! PUSH socket: bounded send queue (the HWM) drained by a dedicated sender
//! thread. `send` blocks once `hwm` messages are in flight — the paper's
//! "HWM 16, blocking send to infinity" configuration (§4.5).

use crate::endpoint::Endpoint;
use crate::frame::{write_frames, Frame};
use crate::{Result, SocketOptions, ZmqError};
use crossbeam::channel::{bounded, Sender};
use emlio_obs::{Stage, StageRecorder};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

enum Cmd {
    Msg(Frame),
    Close,
}

/// Shared counters for observability and tests.
#[derive(Debug, Default)]
pub struct PushStats {
    /// Messages handed to the socket.
    pub msgs_sent: AtomicU64,
    /// Payload bytes written to the wire (excluding frame headers).
    pub bytes_sent: AtomicU64,
    /// Total nanoseconds `send` spent blocked on a full queue.
    pub blocked_nanos: AtomicU64,
    /// Write syscalls the sender thread issued: one per frame,
    /// or per burst of small frames, unless the kernel took a write in
    /// parts.
    pub writes: AtomicU64,
    /// Total nanoseconds the sender thread spent writing to the stream —
    /// the cost `send` callers see only as backpressure.
    pub write_nanos: AtomicU64,
}

/// A burst stops growing once it holds this many payload bytes: small
/// frames queued together share one write, while a batch-sized frame goes
/// out alone, so no more than one frame beyond the HWM is ever in flight
/// on the send side.
const COALESCE_BYTES: usize = 256 << 10;

/// A PUSH socket connected to exactly one PULL endpoint.
///
/// EMLIO's plan assigns each `SendWorker` thread its own stream to its
/// destination node, so one socket per (worker, destination) is the natural
/// unit; multi-stream transfer = several `PushSocket`s to one `PullSocket`.
pub struct PushSocket {
    tx: Sender<Cmd>,
    sender_thread: Option<JoinHandle<Result<()>>>,
    dead: Arc<AtomicBool>,
    stats: Arc<PushStats>,
    recorder: Option<Arc<StageRecorder>>,
}

impl PushSocket {
    /// Connect to a PULL endpoint, retrying refused connections until
    /// `options.connect_timeout` (the receiver may not be bound yet).
    pub fn connect(endpoint: &Endpoint, options: SocketOptions) -> Result<PushSocket> {
        let stats = Arc::new(PushStats::default());
        let dead = Arc::new(AtomicBool::new(false));
        let (tx, rx) = bounded::<Cmd>(options.hwm);
        let Endpoint::Tcp(addr) = endpoint;
        let stream = connect_with_retry(addr, options.connect_timeout)?;
        stream.set_nodelay(true).ok();
        let stats2 = stats.clone();
        let dead2 = dead.clone();
        let sender_thread = std::thread::Builder::new()
            .name(format!("zmq-push:{addr}"))
            .spawn(move || {
                let result = tcp_sender_loop(stream, &rx, &stats2);
                if result.is_err() {
                    dead2.store(true, Ordering::SeqCst);
                }
                result
            })
            .expect("spawn push sender thread");
        Ok(PushSocket {
            tx,
            sender_thread: Some(sender_thread),
            dead,
            stats,
            recorder: options.recorder,
        })
    }

    /// Queue a message, blocking while the HWM is reached. Fails if the
    /// connection has died.
    ///
    /// Accepts anything convertible into a [`Frame`] — a `Bytes`, a
    /// `Vec<u8>`, or a pre-built scatter list. A multi-segment frame goes
    /// out in one vectored write; the payload is never gathered.
    pub fn send(&self, payload: impl Into<Frame>) -> Result<()> {
        if self.dead.load(Ordering::SeqCst) {
            return Err(ZmqError::Closed);
        }
        let t0 = Instant::now();
        let full = self.tx.is_full();
        self.tx
            .send(Cmd::Msg(payload.into()))
            .map_err(|_| ZmqError::Closed)?;
        let elapsed = t0.elapsed().as_nanos() as u64;
        if full {
            self.stats
                .blocked_nanos
                .fetch_add(elapsed, Ordering::Relaxed);
        }
        if let Some(rec) = &self.recorder {
            // The caller-visible cost of handing one frame to the socket:
            // a queue push, plus the whole backpressure stall when the HWM
            // was reached.
            rec.record(Stage::SocketSend, elapsed);
        }
        self.stats.msgs_sent.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Shared statistics handle.
    pub fn stats(&self) -> Arc<PushStats> {
        self.stats.clone()
    }

    /// Flush queued messages and shut the connection down. Returns once the
    /// peer has been sent everything accepted by `send`.
    pub fn close(mut self) -> Result<()> {
        let _ = self.tx.send(Cmd::Close);
        if let Some(h) = self.sender_thread.take() {
            h.join().map_err(|_| ZmqError::Closed)??;
        }
        Ok(())
    }
}

impl Drop for PushSocket {
    fn drop(&mut self) {
        // Best-effort flush if close() wasn't called.
        let _ = self.tx.send(Cmd::Close);
        if let Some(h) = self.sender_thread.take() {
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

fn tcp_sender_loop(
    mut stream: TcpStream,
    rx: &crossbeam::channel::Receiver<Cmd>,
    stats: &PushStats,
) -> Result<()> {
    let mut burst: Vec<Frame> = Vec::new();
    // Block for the next command, then take what is already queued behind
    // it (up to COALESCE_BYTES) so a burst of small frames is one write.
    while let Ok(first) = rx.recv() {
        let mut closing = false;
        let mut bytes = 0;
        let mut next = Some(first);
        while let Some(cmd) = next.take() {
            match cmd {
                Cmd::Msg(frame) => {
                    bytes += frame.len();
                    burst.push(frame);
                    if bytes < COALESCE_BYTES {
                        next = rx.try_recv().ok();
                    }
                }
                Cmd::Close => closing = true,
            }
        }
        let t0 = Instant::now();
        let writes = write_frames(&mut stream, &burst)?;
        stats
            .write_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        stats.writes.fetch_add(writes, Ordering::Relaxed);
        stats.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
        burst.clear();
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
