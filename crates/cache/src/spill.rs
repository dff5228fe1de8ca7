//! The bounded spill-order queue behind the background spill writer.
//!
//! A cache with a disk tier never writes a spill file on the thread that
//! evicts: evictors enqueue a `(BlockKey, Bytes)` order and return, and the
//! dedicated `emlio-cache-spill` thread pops orders, writes the file, and
//! lands the slot transition (`Spilling → Disk` for an evicted block,
//! `Ram → Ram+file` for a resident a checkpoint backs). The queue is bounded
//! ([`crate::CacheConfig::with_spill_queue`]): when it fills, the evictor
//! waits for the writer to free a slot, so no block is ever lost and the
//! eviction rate is bounded by the disk's spill bandwidth.
//!
//! Shutdown drains: the writer processes every queued order before
//! exiting, so `persist_now()` and drop always checkpoint a complete spill
//! index. By then only the writer holds the cache core, so an order pushed
//! after shutdown cannot occur; the queue refuses such an order and the
//! caller drops the block to absent.

use bytes::Bytes;
use emlio_tfrecord::BlockKey;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// One queued write: the block an eviction or a checkpoint hands over.
pub(crate) struct SpillOrder {
    pub key: BlockKey,
    pub data: Bytes,
}

struct Inner {
    orders: VecDeque<SpillOrder>,
    /// The writer popped an order and has not finished it yet — the queue
    /// is not idle even though `orders` may be empty.
    in_flight: bool,
    shutdown: bool,
}

/// Bounded MPSC queue between evictors and the spill writer thread.
pub(crate) struct SpillQueue {
    inner: Mutex<Inner>,
    /// Signalled when an order is pushed (wakes the writer).
    not_empty: Condvar,
    /// Signalled when an order is popped (wakes blocked evictors).
    not_full: Condvar,
    /// Signalled when the queue drains to empty with nothing in flight
    /// (wakes `flush` waiters).
    idle: Condvar,
    /// Evictors currently parked in [`SpillQueue::push`] on a full queue
    /// (gauge — lets tests observe "a pusher is blocked"
    /// without guessing at timing).
    blocked: AtomicU64,
    capacity: usize,
}

impl SpillQueue {
    pub fn new(capacity: usize) -> SpillQueue {
        SpillQueue {
            inner: Mutex::new(Inner {
                orders: VecDeque::new(),
                in_flight: false,
                shutdown: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            idle: Condvar::new(),
            blocked: AtomicU64::new(0),
            capacity: capacity.max(1),
        }
    }

    /// Enqueue an order, waiting for the writer while the queue is full.
    /// Returns telemetry — how many times the caller blocked on a full
    /// queue, and the queue depth right after the push — or `None` when
    /// the queue is shut down and the order was refused (the caller drops
    /// the `Spilling` slot to absent).
    pub fn push(&self, order: SpillOrder) -> Option<(u64, u64)> {
        let mut inner = self.inner.lock();
        let mut waits = 0u64;
        loop {
            if inner.shutdown {
                return None;
            }
            if inner.orders.len() < self.capacity {
                break;
            }
            waits += 1;
            self.blocked.fetch_add(1, Ordering::SeqCst);
            self.not_full.wait(&mut inner);
            self.blocked.fetch_sub(1, Ordering::SeqCst);
        }
        inner.orders.push_back(order);
        let depth = inner.orders.len() as u64 + u64::from(inner.in_flight);
        self.not_empty.notify_one();
        Some((waits, depth))
    }

    /// Pop the next order, blocking until one arrives or the queue is shut
    /// down *and* drained (`None` ends the writer thread).
    pub fn pop(&self) -> Option<SpillOrder> {
        let mut inner = self.inner.lock();
        loop {
            if let Some(order) = inner.orders.pop_front() {
                inner.in_flight = true;
                self.not_full.notify_one();
                return Some(order);
            }
            if inner.shutdown {
                return None;
            }
            self.not_empty.wait(&mut inner);
        }
    }

    /// The writer finished (or aborted) the order it last popped.
    pub fn done(&self) {
        let mut inner = self.inner.lock();
        inner.in_flight = false;
        if inner.orders.is_empty() {
            self.idle.notify_all();
        }
    }

    /// Orders queued or in flight right now (gauge).
    pub fn depth(&self) -> u64 {
        let inner = self.inner.lock();
        inner.orders.len() as u64 + u64::from(inner.in_flight)
    }

    /// Block until every queued order has been fully written (queue empty
    /// and nothing in flight). Returns immediately after shutdown-drain.
    pub fn flush(&self) {
        let mut inner = self.inner.lock();
        while !inner.orders.is_empty() || inner.in_flight {
            self.idle.wait(&mut inner);
        }
    }

    /// Stop accepting orders; the writer drains what is queued, then its
    /// `pop` returns `None`.
    pub fn shutdown(&self) {
        let mut inner = self.inner.lock();
        inner.shutdown = true;
        drop(inner);
        self.not_empty.notify_all();
        self.not_full.notify_all();
        self.idle.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn order(i: usize) -> SpillOrder {
        SpillOrder {
            key: BlockKey {
                shard_id: 0,
                start: i,
                end: i + 1,
            },
            data: Bytes::from(vec![i as u8; 8]),
        }
    }

    #[test]
    fn shutdown_drains_then_ends_pop() {
        let q = SpillQueue::new(4);
        q.push(order(0));
        q.push(order(1));
        q.shutdown();
        assert!(q.push(order(2)).is_none(), "a closed queue refuses");
        assert!(q.pop().is_some());
        q.done();
        assert!(q.pop().is_some());
        q.done();
        assert!(q.pop().is_none(), "drained queue ends the writer");
        q.flush();
    }

    #[test]
    fn block_policy_waits_for_writer() {
        let q = std::sync::Arc::new(SpillQueue::new(1));
        q.push(order(0));
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.push(order(1)).expect("queue open").0);
        // Deadline-poll the gauge instead of sleeping a magic duration:
        // the pusher is provably parked before we free the slot.
        assert!(
            emlio_util::testutil::poll_until(std::time::Duration::from_secs(5), || {
                q.blocked.load(Ordering::SeqCst) > 0
            }),
            "pusher parked on the full queue"
        );
        assert!(q.pop().is_some(), "free a slot");
        q.done();
        let waits = h.join().unwrap();
        assert!(waits > 0, "pusher blocked at least once");
        assert!(q.pop().is_some());
        q.done();
        q.flush();
    }
}
