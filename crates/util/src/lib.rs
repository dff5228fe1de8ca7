//! `emlio-util` — shared substrate utilities for the EMLIO workspace.
//!
//! This crate hosts the small pieces every other crate leans on:
//!
//! * [`clock`] — [`RealClock`], a handle on the process clock
//!   (`emlio_obs::clock`) for the components that take a clock and sleep
//!   on it, so energy tuples and data-path events share one time base.
//! * [`json`] — the codec for the two JSON files the workspace writes:
//!   shard indexes (`mapping_shard_*.json`) and a per-file dataset's
//!   `labels.json`.
//! * [`bytesize`] — human-readable byte formatting/parsing.
//! * [`alloc`] — a counting `#[global_allocator]` wrapper so tests and
//!   benches can assert allocation budgets on the zero-copy serve path.
//! * [`pool`] — [`BufferPool`], the size-classed free list of block
//!   buffers both ends of the data path draw from (storage reads in
//!   `emlio-tfrecord`/`emlio-core`, socket reads in `emlio-zmq`).
//! * [`fault`] — seeded, deterministic fault plans ([`FaultPlan`] /
//!   [`FaultInjector`]) driving named failpoint sites across the serve
//!   path, plus the [`RetryPolicy`] backoff that absorbs transient faults.

pub mod alloc;
pub mod bytesize;
pub mod clock;
pub mod fault;
pub mod json;
pub mod pool;
pub mod testutil;

pub use alloc::CountingAllocator;
pub use clock::{RealClock, SharedClock};
pub use fault::{FaultDecision, FaultInjector, FaultPlan, FaultSpec, RetryPolicy};
pub use json::Json;
pub use pool::{BufferPool, PoolStats};

use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpStream};
use std::time::Duration;

/// Nanoseconds per second, as a `u64`.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// Convert seconds (f64) to nanoseconds (u64), saturating at the bounds.
///
/// Negative inputs clamp to zero — callers pass durations, not instants.
pub fn secs_to_nanos(secs: f64) -> u64 {
    if secs.is_nan() || secs <= 0.0 {
        return 0;
    }
    let nanos = secs * NANOS_PER_SEC as f64;
    if nanos >= u64::MAX as f64 {
        u64::MAX
    } else {
        nanos as u64
    }
}

/// Convert nanoseconds to seconds as `f64`.
pub fn nanos_to_secs(nanos: u64) -> f64 {
    nanos as f64 / NANOS_PER_SEC as f64
}

/// Connect once to a listener at `addr` (an unspecified IP means
/// loopback) so that a thread blocked in its `accept` wakes to see a stop
/// flag. Returns whether the connect succeeded within 1 s: only then will
/// that thread return, so only then may the caller join it.
pub fn wake_listener(mut addr: SocketAddr) -> bool {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    TcpStream::connect_timeout(&addr, Duration::from_secs(1)).is_ok()
}

/// FNV-1a over a byte string: fault-site names, the peer ring's points and
/// the delivery fingerprint's payload digest all hash with this.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secs_nanos_roundtrip() {
        assert_eq!(secs_to_nanos(1.0), NANOS_PER_SEC);
        assert_eq!(secs_to_nanos(0.5), NANOS_PER_SEC / 2);
        assert_eq!(secs_to_nanos(0.0), 0);
        assert_eq!(secs_to_nanos(-3.0), 0);
        assert_eq!(secs_to_nanos(f64::NAN), 0);
        assert_eq!(secs_to_nanos(f64::INFINITY), u64::MAX);
        let x = 123.456;
        assert!((nanos_to_secs(secs_to_nanos(x)) - x).abs() < 1e-6);
    }

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn wake_listener_reaches_a_wildcard_listener_and_not_a_closed_port() {
        let listener = std::net::TcpListener::bind("0.0.0.0:0").unwrap();
        let addr = listener.local_addr().unwrap();
        assert!(addr.ip().is_unspecified());
        assert!(wake_listener(addr));
        listener.accept().unwrap();
        drop(listener);
        assert!(!wake_listener(addr));
    }
}
