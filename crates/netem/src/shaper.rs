//! A delay/bandwidth-shaping TCP proxy — the userspace `tc qdisc netem`.
//!
//! `Proxy::spawn(listen, target, profile)` relays every accepted connection
//! to `target`, imposing, per direction:
//!
//! * token-bucket pacing at the profile's bandwidth;
//! * one-way propagation delay (RTT/2), **pipelined**: a reader thread
//!   timestamps chunks as they arrive and a writer thread releases each chunk
//!   at `arrival + delay`, so throughput is not `chunk/delay`-limited;
//! * a bounded in-flight buffer sized to the bandwidth-delay product, so the
//!   emulated pipe holds only as many bytes as a real one — this preserves
//!   end-to-end TCP/app backpressure through the proxy.

use crate::profile::NetProfile;
use crossbeam::channel::{bounded, Receiver, Sender};
use emlio_util::clock::SharedClock;
use emlio_util::rate::TokenBucket;
use emlio_util::wake_listener;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Size of relay chunks. Small enough that pacing is smooth, large enough
/// that syscall overhead is negligible.
const CHUNK: usize = 16 << 10;

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
/// tears down relay threads.
pub struct Proxy {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    stats: Arc<ProxyStats>,
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
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ProxyStats::default());
        let target = target.to_string();
        let shutdown2 = shutdown.clone();
        let stats2 = stats.clone();
        let accept_thread = std::thread::Builder::new()
            .name(format!("netem-proxy:{local_addr}"))
            .spawn(move || {
                accept_loop(listener, &target, profile, clock, shutdown2, stats2);
            })
            .expect("spawn proxy accept thread");
        Ok(Proxy {
            local_addr,
            shutdown,
            accept_thread: Some(accept_thread),
            stats,
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
        self.shutdown.store(true, Ordering::SeqCst);
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

/// Relay each accepted connection, blocking in `accept` until the next
/// arrives; the proxy's drop sets `shutdown` and then connects once to
/// wake this loop to see it.
fn accept_loop(
    listener: TcpListener,
    target: &str,
    profile: NetProfile,
    clock: SharedClock,
    shutdown: Arc<AtomicBool>,
    stats: Arc<ProxyStats>,
) {
    loop {
        let accepted = listener.accept();
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((client, _)) => {
                let upstream = match TcpStream::connect(target) {
                    Ok(s) => s,
                    Err(_) => continue,
                };
                stats.connections.fetch_add(1, Ordering::Relaxed);
                client.set_nodelay(true).ok();
                upstream.set_nodelay(true).ok();
                let up_rx = client.try_clone().expect("clone client stream");
                let up_tx = upstream.try_clone().expect("clone upstream stream");
                let down_rx = upstream;
                let down_tx = client;
                spawn_direction(
                    up_rx,
                    up_tx,
                    profile.clone(),
                    clock.clone(),
                    shutdown.clone(),
                    ByteCounter::Up(stats.clone()),
                );
                spawn_direction(
                    down_rx,
                    down_tx,
                    profile.clone(),
                    clock.clone(),
                    shutdown.clone(),
                    ByteCounter::Down(stats.clone()),
                );
            }
            Err(_) => return,
        }
    }
}

enum ByteCounter {
    Up(Arc<ProxyStats>),
    Down(Arc<ProxyStats>),
}

impl ByteCounter {
    fn add(&self, n: u64) {
        match self {
            ByteCounter::Up(s) => s.bytes_up.fetch_add(n, Ordering::Relaxed),
            ByteCounter::Down(s) => s.bytes_down.fetch_add(n, Ordering::Relaxed),
        };
    }
}

/// A timestamped chunk "on the wire".
struct InFlight {
    deliver_at_nanos: u64,
    data: Vec<u8>,
}

fn spawn_direction(
    mut src: TcpStream,
    mut dst: TcpStream,
    profile: NetProfile,
    clock: SharedClock,
    shutdown: Arc<AtomicBool>,
    counter: ByteCounter,
) {
    // In-flight capacity: the pipe holds ~BDP bytes; at CHUNK granularity.
    let capacity = ((profile.bdp_bytes() as usize / CHUNK) + 2).max(2);
    let (tx, rx): (Sender<InFlight>, Receiver<InFlight>) = bounded(capacity);
    let delay_nanos = profile.one_way_delay().as_nanos() as u64;
    let bandwidth = profile.bandwidth_bps;

    // Reader: paces at link bandwidth, stamps delivery deadlines.
    {
        let clock = clock.clone();
        let shutdown = shutdown.clone();
        std::thread::Builder::new()
            .name("netem-read".into())
            .spawn(move || {
                src.set_read_timeout(Some(Duration::from_millis(100))).ok();
                let mut bucket = TokenBucket::new(clock.clone(), bandwidth, CHUNK as f64);
                let mut buf = vec![0u8; CHUNK];
                loop {
                    if shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    match src.read(&mut buf) {
                        Ok(0) => return, // EOF: dropping tx closes the writer
                        Ok(n) => {
                            bucket.take(n as f64);
                            counter.add(n as u64);
                            let item = InFlight {
                                deliver_at_nanos: clock.now_nanos() + delay_nanos,
                                data: buf[..n].to_vec(),
                            };
                            if tx.send(item).is_err() {
                                return;
                            }
                        }
                        Err(e)
                            if e.kind() == std::io::ErrorKind::WouldBlock
                                || e.kind() == std::io::ErrorKind::TimedOut =>
                        {
                            continue;
                        }
                        Err(_) => return,
                    }
                }
            })
            .expect("spawn netem reader");
    }

    // Writer: releases chunks at their delivery deadline.
    std::thread::Builder::new()
        .name("netem-write".into())
        .spawn(move || {
            while let Ok(item) = rx.recv() {
                let now = clock.now_nanos();
                if item.deliver_at_nanos > now {
                    clock.sleep_nanos(item.deliver_at_nanos - now);
                }
                if dst.write_all(&item.data).is_err() {
                    return;
                }
            }
            // Upstream EOF: propagate by shutting down the write half.
            let _ = dst.shutdown(std::net::Shutdown::Write);
        })
        .expect("spawn netem writer");
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
