//! A proxied connection is two `netem-relay` threads, one per direction:
//! they sleep in `read` while the connection is idle, deliver what is in
//! flight and exit when the proxy drops, and carry the profile's bandwidth
//! at any RTT. This has its own test binary, so every `netem-relay` thread
//! in the process belongs to these tests, which run one at a time.
#![cfg(target_os = "linux")]

use emlio_netem::{NetProfile, Proxy};
use emlio_util::clock::RealClock;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// The tests count threads process-wide, so they take turns.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `/proc/self/task/<tid>` of every relay thread.
fn relay_threads() -> Vec<PathBuf> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .map(|task| task.unwrap().path())
        .filter(|task| {
            std::fs::read_to_string(task.join("comm"))
                .is_ok_and(|comm| comm.trim_end() == "netem-relay")
        })
        .collect()
}

/// The relay threads, once there are `n` of them.
fn await_relays(n: usize, within: Duration) -> Vec<PathBuf> {
    let deadline = Instant::now() + within;
    loop {
        let tasks = relay_threads();
        if tasks.len() == n {
            return tasks;
        }
        assert!(
            Instant::now() < deadline,
            "{} relay threads, expected {n}",
            tasks.len()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn voluntary_switches(task: &Path) -> u64 {
    std::fs::read_to_string(task.join("status"))
        .unwrap()
        .lines()
        .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
        .expect("a voluntary_ctxt_switches line")
        .trim()
        .parse()
        .unwrap()
}

/// A proxy to a fresh listener, one client connected through it, and the
/// target's end of that connection.
fn connected(profile: NetProfile) -> (Proxy, TcpStream, TcpStream) {
    let target = TcpListener::bind("127.0.0.1:0").unwrap();
    let proxy = Proxy::spawn(
        "127.0.0.1:0",
        &target.local_addr().unwrap().to_string(),
        profile,
        RealClock::shared(),
    )
    .unwrap();
    let client = TcpStream::connect(proxy.local_addr()).unwrap();
    let (server, _) = target.accept().unwrap();
    (proxy, client, server)
}

#[test]
fn an_open_connection_runs_two_relays_that_sleep_while_idle() {
    let _serial = serial();
    let (proxy, client, server) = connected(NetProfile::lan_1ms());
    let relays = await_relays(2, Duration::from_secs(5));
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(relay_threads().len(), 2, "one relay per direction");

    let before: Vec<u64> = relays.iter().map(|t| voluntary_switches(t)).collect();
    std::thread::sleep(Duration::from_secs(1));
    for (task, before) in relays.iter().zip(before) {
        let woke = voluntary_switches(task) - before;
        assert!(woke <= 5, "an idle relay woke {woke} times in 1 s");
    }
    drop((client, server, proxy));
    await_relays(0, Duration::from_secs(5));
}

#[test]
fn a_drop_delivers_what_is_in_flight_then_ends_both_relays() {
    let _serial = serial();
    // 10 ms one way: the bytes are still in the line when the proxy drops.
    let (proxy, mut client, mut server) = connected(NetProfile::lan_10ms());
    await_relays(2, Duration::from_secs(5));
    let sent: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
    client.write_all(&sent).unwrap();
    let stats = proxy.stats();
    let deadline = Instant::now() + Duration::from_secs(5);
    while stats.bytes_up.load(std::sync::atomic::Ordering::Relaxed) < sent.len() as u64 {
        assert!(Instant::now() < deadline, "the proxy never read the bytes");
        std::thread::sleep(Duration::from_millis(1));
    }

    let t0 = Instant::now();
    drop(proxy);
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(1), "drop took {took:?}");

    // Everything written before the drop arrives, then EOF.
    let mut got = Vec::new();
    server.read_to_end(&mut got).unwrap();
    assert!(got == sent, "{} of {} bytes arrived", got.len(), sent.len());
    // The other direction ends too.
    assert_eq!(client.read(&mut [0u8; 1]).unwrap(), 0);
    await_relays(0, Duration::from_secs(1));
}

/// Push `total` bytes through a 10 Gb/s proxy at `rtt`, checking every
/// byte at the target. Returns GiB/s from connect to the last byte.
fn relay_rate(rtt: Duration, total: usize) -> f64 {
    const BLOCK: usize = 1 << 20;
    let profile = NetProfile::new("test-10g", rtt, emlio_netem::profile::BW_10GBPS);
    let t0 = Instant::now();
    let (proxy, mut client, mut server) = connected(profile);
    // A fixed pseudo-random block, its first 8 bytes the block's index.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let pattern: Vec<u8> = (0..BLOCK)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u8
        })
        .collect();
    let writer = {
        let mut block = pattern.clone();
        std::thread::spawn(move || {
            for i in 0..total / BLOCK {
                block[..8].copy_from_slice(&(i as u64).to_le_bytes());
                client.write_all(&block).unwrap();
            }
            client
        })
    };
    let mut got = vec![0u8; BLOCK];
    let mut expected = pattern;
    for i in 0..total / BLOCK {
        server.read_exact(&mut got).unwrap();
        expected[..8].copy_from_slice(&(i as u64).to_le_bytes());
        assert!(got == expected, "block {i} differs");
    }
    let elapsed = t0.elapsed();
    drop(writer.join().unwrap());
    assert_eq!(server.read(&mut got).unwrap(), 0, "nothing past the end");
    drop((server, proxy));
    await_relays(0, Duration::from_secs(5));
    total as f64 / (1u64 << 30) as f64 / elapsed.as_secs_f64()
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timed: release builds only")]
fn a_ten_gigabit_profile_carries_its_bandwidth_at_0_and_30_ms() {
    let _serial = serial();
    let total = 256 << 20;
    let at_0 = relay_rate(Duration::ZERO, total);
    let at_30 = relay_rate(Duration::from_millis(30), total);
    eprintln!("256 MiB through 10 Gb/s: {at_0:.2} GiB/s at 0 ms, {at_30:.2} GiB/s at 30 ms");
    assert!(at_0 >= 0.5, "{at_0:.2} GiB/s at 0 ms");
    assert!(at_30 >= 0.5, "{at_30:.2} GiB/s at 30 ms");
    assert!(
        at_30 / at_0 >= 0.8,
        "rate(30) / rate(0) = {:.2}",
        at_30 / at_0
    );
}
