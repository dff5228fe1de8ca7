//! A delay/bandwidth-shaping TCP proxy — the userspace `tc qdisc netem`.
//!
//! Each accepted connection is relayed by one thread per direction, a delay
//! line: a read of `n` bytes serializes once the link is free, then
//! propagates (`link_free = max(link_free, now) + n / bandwidth`, by
//! [`NetProfile::reserve`], the rule the NFS mount is charged by too; due
//! at `link_free + rtt / 2`), and what is due leaves in one vectored write.
//! Reading pauses while the bytes in flight reach the bandwidth-delay
//! product, so backpressure passes through as through a real pipe. A drop
//! calls `shutdown(Read)` on every live connection's source streams: each
//! relay sees EOF, delivers what is in flight when due, and half-closes.

use crate::profile::NetProfile;
use emlio_obs::{obs_warn, FlightRecorder};
use emlio_util::clock::{RealClock, SharedClock};
use emlio_util::wake_listener;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

/// Size of one pooled read buffer: one read takes at most this much.
const READ: usize = 256 << 10;
/// Slices one vectored write takes at most (Linux's `IOV_MAX`).
const IOV_MAX: usize = 1024;

/// Counters exposed for tests and reports.
#[derive(Debug, Default)]
pub struct ProxyStats {
    /// Bytes relayed client→target.
    pub bytes_up: AtomicU64,
    /// Bytes relayed target→client.
    pub bytes_down: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
}

/// A running shaping proxy. Dropping it stops accepting new connections and
/// ends every relay once it has delivered what is in flight.
pub struct Proxy {
    local_addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    stats: Arc<ProxyStats>,
    /// The source streams of live connections, `None` once the proxy is
    /// dropped. The relays own the streams: these handles keep none open.
    live: Arc<Mutex<Option<Vec<Weak<TcpStream>>>>>,
}

impl Proxy {
    /// Start a proxy listening on `listen` (use port 0 for ephemeral) and
    /// relaying to `target` under `profile`'s delay/bandwidth.
    pub fn spawn(
        listen: &str,
        target: &str,
        profile: NetProfile,
        clock: SharedClock,
    ) -> std::io::Result<Proxy> {
        let listener = TcpListener::bind(listen)?;
        let local_addr = listener.local_addr()?;
        let stats = Arc::new(ProxyStats::default());
        let live = Arc::new(Mutex::new(Some(Vec::new())));
        let (target, counted, registry) = (target.to_string(), stats.clone(), live.clone());
        let accept_thread = std::thread::Builder::new()
            .name(format!("netem-proxy:{local_addr}"))
            .spawn(move || accept_loop(listener, &target, profile, clock, &counted, &registry))?;
        let accept_thread = Some(accept_thread);
        Ok(Proxy {
            local_addr,
            accept_thread,
            stats,
            live,
        })
    }

    /// The address clients should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Shared statistics.
    pub fn stats(&self) -> Arc<ProxyStats> {
        self.stats.clone()
    }
}

impl Drop for Proxy {
    fn drop(&mut self) {
        // Closed under the registering lock: every relay's reads end, and no new one starts.
        let live = self.live.lock().take().unwrap_or_default();
        for stream in live.iter().filter_map(Weak::upgrade) {
            let _ = stream.shutdown(Shutdown::Read);
        }
        // One connect of our own wakes the accept thread to see it closed. A
        // wake that cannot be delivered must not hang the drop.
        if let Some(h) = self.accept_thread.take() {
            if wake_listener(self.local_addr) {
                let _ = h.join();
            }
        }
    }
}

/// Relay each accepted connection, blocking in `accept` until the next
/// arrives, until the proxy's drop closes `live`.
fn accept_loop(
    listener: TcpListener,
    target: &str,
    profile: NetProfile,
    clock: SharedClock,
    stats: &Arc<ProxyStats>,
    live: &Mutex<Option<Vec<Weak<TcpStream>>>>,
) {
    loop {
        let accepted = listener.accept();
        if live.lock().is_none() {
            return;
        }
        let dialed = accepted
            .map_err(|e| ("netem_accept_error", e, None))
            .and_then(|(client, _)| match TcpStream::connect(target) {
                Ok(upstream) => Ok((client, upstream)),
                Err(e) => Err(("netem_dial_error", e, Some(client))),
            });
        let (client, upstream) = match dialed {
            Ok(pair) => pair,
            Err((event, e, client)) => {
                // A failed accept or dial closes that one client, and no
                // other — once the failure is on record.
                FlightRecorder::global().record(event, 0, 0);
                obs_warn!("netem", "proxy: {event} ({e}), still accepting");
                drop(client);
                std::thread::sleep(Duration::from_millis(50));
                continue;
            }
        };
        stats.connections.fetch_add(1, Ordering::Relaxed);
        client.set_nodelay(true).ok();
        upstream.set_nodelay(true).ok();
        let (client, upstream) = (Arc::new(client), Arc::new(upstream));
        let Some(live) = &mut *live.lock() else {
            return;
        };
        live.retain(|stream| stream.strong_count() > 0);
        live.extend([Arc::downgrade(&client), Arc::downgrade(&upstream)]);
        let up: fn(&ProxyStats) -> &AtomicU64 = |s| &s.bytes_up;
        let directions = [
            (client.clone(), upstream.clone(), up),
            (upstream, client, |s| &s.bytes_down),
        ];
        for (src, dst, relayed) in directions {
            let line = DelayLine {
                link: profile.clone(),
                reads: VecDeque::new(),
                spare: Vec::new(),
                link_free: 0,
            };
            let (clock, stats) = (clock.clone(), stats.clone());
            std::thread::Builder::new()
                .name("netem-relay".into())
                .spawn(move || line.relay(&src, &dst, &clock, relayed(&stats)))
                .expect("spawn netem relay");
        }
    }
}

/// One direction of the link: the reads not yet delivered, oldest first,
/// each in a pooled buffer and stamped with its due time.
struct DelayLine {
    link: NetProfile,
    reads: VecDeque<Stamped>,
    spare: Vec<Box<[u8]>>,
    /// When the link has serialized every read so far.
    link_free: u64,
}

/// One read: `buf[..end]`, due at the far end at `due`.
struct Stamped {
    buf: Box<[u8]>,
    end: usize,
    due: u64,
}

impl DelayLine {
    /// Relay `src` to `dst` until `src` ends (EOF, an error or the proxy's
    /// drop) and all it sent is delivered when due, then half-close `dst`.
    fn relay(mut self, mut src: &TcpStream, dst: &TcpStream, clock: &RealClock, n: &AtomicU64) {
        // The BDP in whole reads, plus two to keep a link with no delay busy.
        let max_reads = self.link.bdp_bytes() as usize / READ + 2;
        let mut eof = false;
        loop {
            if self.release(dst, clock.now_nanos()).is_err() {
                return;
            }
            let next_due = self.reads.front().map(|read| read.due);
            let wait = next_due.map(|due| due.saturating_sub(clock.now_nanos()));
            if eof || self.reads.len() >= max_reads {
                let Some(wait) = wait else { break };
                clock.sleep_nanos(wait);
            } else if wait != Some(0) {
                // Block until bytes arrive, or only until the next are due.
                src.set_read_timeout(wait.map(Duration::from_nanos)).ok();
                let mut buf = self.spare.pop().unwrap_or_else(|| vec![0; READ].into());
                match src.read(&mut buf) {
                    Ok(0) => eof = true,
                    Ok(end) => {
                        n.fetch_add(end as u64, Ordering::Relaxed);
                        let due = self.due(clock.now_nanos(), end);
                        self.reads.push_back(Stamped { buf, end, due });
                    }
                    Err(e) => {
                        self.spare.push(buf);
                        eof = !matches!(e.kind(), WouldBlock | TimedOut | Interrupted);
                    }
                }
            }
        }
        let _ = dst.shutdown(Shutdown::Write);
    }

    /// Serialize `n` bytes read at `now` once the link is free, then
    /// propagate them: the time they are due at the far end.
    fn due(&mut self, now: u64, n: usize) -> u64 {
        let sent = self.link.reserve(&mut self.link_free, now, n as u64);
        sent + self.link.one_way_delay().as_nanos() as u64
    }

    /// Write the reads due by `now` to `dst` in one vectored write of at
    /// most [`IOV_MAX`] slices, and return their buffers to the pool.
    fn release(&mut self, mut dst: &TcpStream, now: u64) -> io::Result<()> {
        let due = self.reads.iter().take_while(|read| read.due <= now);
        let due = due.take(IOV_MAX).count();
        let mut slices = [IoSlice::new(&[]); IOV_MAX];
        for (slice, read) in slices.iter_mut().zip(self.reads.range(..due)) {
            *slice = IoSlice::new(&read.buf[..read.end]);
        }
        let mut unsent = &mut slices[..due];
        while !unsent.is_empty() {
            let written = dst.write_vectored(unsent)?;
            IoSlice::advance_slices(&mut unsent, written);
        }
        let written = self.reads.drain(..due).map(|read| read.buf);
        self.spare.extend(written);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emlio_util::clock::RealClock;
    use std::io::{Read, Write};

    /// Echo server that returns whatever it receives, once, then closes.
    fn echo_server() -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let h = std::thread::spawn(move || {
            if let Ok((mut s, _)) = listener.accept() {
                let mut buf = [0u8; 4096];
                loop {
                    match s.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => {
                            if s.write_all(&buf[..n]).is_err() {
                                break;
                            }
                        }
                    }
                }
            }
        });
        (addr, h)
    }

    #[test]
    fn round_trip_latency_imposed() {
        let (target, server) = echo_server();
        let profile = NetProfile::new("test-20ms", Duration::from_millis(20), 1.25e9);
        let proxy = Proxy::spawn(
            "127.0.0.1:0",
            &target.to_string(),
            profile,
            RealClock::shared(),
        )
        .unwrap();

        let mut c = TcpStream::connect(proxy.local_addr()).unwrap();
        c.set_nodelay(true).unwrap();
        let t0 = std::time::Instant::now();
        c.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        c.read_exact(&mut buf).unwrap();
        let rtt = t0.elapsed();
        assert_eq!(&buf, b"ping");
        assert!(
            rtt >= Duration::from_millis(19),
            "expected ≥ ~20ms RTT, got {rtt:?}"
        );
        assert!(
            rtt < Duration::from_millis(500),
            "not absurdly slow: {rtt:?}"
        );
        drop(c);
        drop(proxy);
        server.join().unwrap();
    }

    #[test]
    fn bandwidth_paced() {
        let (target, server) = echo_server();
        // 2 MB/s, negligible delay; echoing 512 KiB costs ≥ ~0.25s each way
        // but pipelined, so total ≥ ~0.25s and ≤ ~2s.
        let profile = NetProfile::new("test-slow", Duration::from_micros(100), 2.0e6);
        let proxy = Proxy::spawn(
            "127.0.0.1:0",
            &target.to_string(),
            profile,
            RealClock::shared(),
        )
        .unwrap();
        let mut c = TcpStream::connect(proxy.local_addr()).unwrap();
        let payload = vec![0x5A; 512 << 10];
        let t0 = std::time::Instant::now();
        let writer = {
            let mut c2 = c.try_clone().unwrap();
            let p = payload.clone();
            std::thread::spawn(move || c2.write_all(&p).unwrap())
        };
        let mut got = vec![0u8; payload.len()];
        c.read_exact(&mut got).unwrap();
        writer.join().unwrap();
        let elapsed = t0.elapsed();
        assert_eq!(got, payload);
        assert!(
            elapsed >= Duration::from_millis(230),
            "pacing too fast: {elapsed:?}"
        );
        drop(c);
        drop(proxy);
        server.join().unwrap();
    }

    #[test]
    fn reads_queue_behind_the_link_and_an_idle_gap_restarts_it() {
        // 1 byte per µs, 5 ms one way.
        let mut line = DelayLine {
            link: NetProfile::new("test", Duration::from_millis(10), 1e6),
            reads: VecDeque::new(),
            spare: Vec::new(),
            link_free: 0,
        };
        let ms = 1_000_000;
        // Back to back: the second read serializes after the first.
        assert_eq!(line.due(ms, 1000), 2 * ms + 5 * ms);
        assert_eq!(line.due(ms, 1000), 3 * ms + 5 * ms);
        // Read while the link is still busy: it queues behind `link_free`.
        assert_eq!(line.due(2 * ms, 500), 3 * ms + ms / 2 + 5 * ms);
        // After an idle gap the schedule restarts at `now`.
        assert_eq!(line.due(10 * ms, 1000), 11 * ms + 5 * ms);
    }

    #[test]
    fn a_refused_dial_is_recorded_and_the_next_connection_is_relayed() {
        // A port nothing listens on: dials to it are refused.
        let target = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let proxy = Proxy::spawn(
            "127.0.0.1:0",
            &target.to_string(),
            NetProfile::local(),
            RealClock::shared(),
        )
        .unwrap();
        let dial_errors = || {
            FlightRecorder::global()
                .dump()
                .iter()
                .filter(|ev| ev.name == "netem_dial_error")
                .count()
        };
        let before = dial_errors();
        let mut refused = TcpStream::connect(proxy.local_addr()).unwrap();
        // The proxy records the failed dial, then closes the client.
        assert_eq!(refused.read(&mut [0u8; 1]).unwrap_or(0), 0);
        assert_eq!(dial_errors(), before + 1);

        let listener = TcpListener::bind(target).unwrap();
        let mut c = TcpStream::connect(proxy.local_addr()).unwrap();
        c.write_all(b"after").unwrap();
        let (mut s, _) = listener.accept().unwrap();
        let mut buf = [0u8; 5];
        s.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"after");
        assert_eq!(proxy.stats().connections.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn stats_count_both_directions() {
        let (target, server) = echo_server();
        let proxy = Proxy::spawn(
            "127.0.0.1:0",
            &target.to_string(),
            NetProfile::local(),
            RealClock::shared(),
        )
        .unwrap();
        let mut c = TcpStream::connect(proxy.local_addr()).unwrap();
        c.write_all(&[1u8; 1000]).unwrap();
        let mut buf = vec![0u8; 1000];
        c.read_exact(&mut buf).unwrap();
        let stats = proxy.stats();
        assert_eq!(stats.bytes_up.load(Ordering::Relaxed), 1000);
        assert_eq!(stats.bytes_down.load(Ordering::Relaxed), 1000);
        assert_eq!(stats.connections.load(Ordering::Relaxed), 1);
        drop(c);
        drop(proxy);
        server.join().unwrap();
    }
}
