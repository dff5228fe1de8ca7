//! [`BufferPool`] — slab-style reuse of block-sized read buffers.
//!
//! Every read into a buffer — a block off a mount that delivers into one,
//! a frame off a socket, a wire header — used to allocate a fresh `Vec<u8>`
//! (tens of MiB, for a block under the paper's `B`-record batching),
//! memcpy it around, and free it after send. Steady-state serving is a
//! loop over identically sized buffers, which is exactly what a size-classed free list is for —
//! the same over-allocate-and-reuse scheme GPU allocators (e.g. kubecl's
//! `ExclusiveMemoryPool`) use for device memory, applied to host I/O
//! buffers.
//!
//! # Design
//!
//! * Power-of-two **size classes** from 4 KiB to 64 MiB. [`BufferPool::take`]
//!   rounds the request up to its class and hands back a `Vec<u8>` whose
//!   capacity is the full class size (over-allocation is what makes reuse
//!   hit: every same-class request fits every recycled buffer).
//! * Per-class free lists behind their own mutexes, each retaining at most
//!   a bounded number of idle buffers — a runaway burst cannot pin
//!   unbounded memory after it subsides.
//! * [`BufferPool::seal`] converts the filled buffer into a refcounted
//!   [`Bytes`] whose owner returns the allocation to the pool **when the
//!   last view drops**. Cache slots, in-flight frames, and receiver slices
//!   can all alias the buffer; recycling waits for every one of them.
//! * Requests above the largest class fall back to the system allocator
//!   (counted in [`PoolStats::unpooled`]); pooling pathological sizes would
//!   just hoard memory.
//! * A recycled buffer **keeps its length and its bytes**: `take` hands it
//!   back as it was returned, so a caller about to overwrite it (a
//!   positioned read, a socket read) sets the length it needs and
//!   zero-fills only what no earlier use ever initialised — nothing, in a
//!   steady state of same-sized blocks. A caller that appends (the wire
//!   encoder's headers) calls `clear()` first, which for bytes is a length
//!   store, not a pass over the buffer.
//!
//! The pool sits at the bottom of the crate graph because both ends of the
//! data path draw from it. It plugs into the read stack as
//! `emlio-tfrecord`'s `BlockAlloc`: a local shard's blocks are views of
//! its mapping and take no buffer at all, but where a shard cannot be
//! mapped `TfrecordSource` takes its block buffers from the pool and seals
//! them into pooled `Bytes`, so the whole zero-copy chain — cache slot →
//! frame segment → receiver slice — sits on recycled memory without any
//! layer knowing about the pool. The wire encoder's headers come from it,
//! and `emlio-zmq`'s PULL side reads every TCP frame into a buffer taken
//! from one.

use bytes::Bytes;
use emlio_obs::{Stage, StageRecorder};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Instant;

/// Smallest size class: 4 KiB.
pub const MIN_CLASS_BYTES: usize = 4 << 10;
/// Largest size class: 64 MiB. Bigger requests bypass the pool.
pub const MAX_CLASS_BYTES: usize = 64 << 20;
/// Idle buffers retained per class before recycles start freeing.
pub const DEFAULT_RETAIN_PER_CLASS: usize = 8;

const N_CLASSES: usize = (MAX_CLASS_BYTES / MIN_CLASS_BYTES).trailing_zeros() as usize + 1;

/// Counters describing pool behaviour since construction.
///
/// `pool_reuse / (pool_reuse + pool_alloc)` is the hit rate; a warmed-up
/// steady-state serve loop should push it toward 1.0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers handed out by allocating fresh memory.
    pub pool_alloc: u64,
    /// Buffers handed out from a free list (no allocation).
    pub pool_reuse: u64,
    /// Buffers returned to a free list on last-view drop.
    pub recycled: u64,
    /// Requests too large for any class, served unpooled.
    pub unpooled: u64,
}

#[derive(Default)]
struct Counters {
    pool_alloc: AtomicU64,
    pool_reuse: AtomicU64,
    recycled: AtomicU64,
    unpooled: AtomicU64,
}

struct PoolInner {
    /// `classes[i]` holds idle buffers of capacity `MIN_CLASS_BYTES << i`.
    classes: Vec<Mutex<Vec<Vec<u8>>>>,
    retain_per_class: usize,
    counters: Counters,
    /// Set once via [`BufferPool::set_recorder`]; a lock-free load on the
    /// hot take path thereafter.
    recorder: OnceLock<Arc<StageRecorder>>,
}

impl PoolInner {
    /// Index of the smallest class with `size >= len`, if any.
    fn class_of(&self, len: usize) -> Option<usize> {
        if len > MAX_CLASS_BYTES {
            return None;
        }
        let size = len.max(MIN_CLASS_BYTES).next_power_of_two();
        Some((size / MIN_CLASS_BYTES).trailing_zeros() as usize)
    }

    fn class_size(&self, idx: usize) -> usize {
        MIN_CLASS_BYTES << idx
    }

    fn take(&self, min_capacity: usize) -> Vec<u8> {
        let t0 = self.recorder.get().map(|_| Instant::now());
        let buf = self.take_inner(min_capacity);
        if let (Some(rec), Some(t0)) = (self.recorder.get(), t0) {
            rec.record(Stage::PoolAlloc, t0.elapsed().as_nanos() as u64);
        }
        buf
    }

    fn take_inner(&self, min_capacity: usize) -> Vec<u8> {
        let Some(idx) = self.class_of(min_capacity) else {
            self.counters.unpooled.fetch_add(1, Ordering::Relaxed);
            return Vec::with_capacity(min_capacity);
        };
        if let Some(buf) = self.classes[idx].lock().unwrap().pop() {
            self.counters.pool_reuse.fetch_add(1, Ordering::Relaxed);
            return buf;
        }
        self.counters.pool_alloc.fetch_add(1, Ordering::Relaxed);
        Vec::with_capacity(self.class_size(idx))
    }

    /// Return `vec` to its class if it is pool-shaped and there is room.
    fn recycle(&self, vec: Vec<u8>) {
        let cap = vec.capacity();
        if let Some(idx) = self.class_of(cap) {
            if self.class_size(idx) == cap {
                let mut list = self.classes[idx].lock().unwrap();
                if list.len() < self.retain_per_class {
                    list.push(vec);
                    self.counters.recycled.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

/// The shared owner behind a frozen pooled buffer: when the last `Bytes`
/// view drops, the allocation goes back to the pool's free list.
struct Recycled {
    vec: Vec<u8>,
    pool: Weak<PoolInner>,
}

impl AsRef<[u8]> for Recycled {
    fn as_ref(&self) -> &[u8] {
        &self.vec
    }
}

impl Drop for Recycled {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.upgrade() {
            pool.recycle(std::mem::take(&mut self.vec));
        }
    }
}

/// A size-classed free-list pool of block buffers. Cheap to clone (shared
/// handle); see the [module docs](self) for the design.
#[derive(Clone)]
pub struct BufferPool {
    inner: Arc<PoolInner>,
}

impl BufferPool {
    /// Pool retaining [`DEFAULT_RETAIN_PER_CLASS`] idle buffers per class.
    pub fn new() -> BufferPool {
        BufferPool::with_retention(DEFAULT_RETAIN_PER_CLASS)
    }

    /// Pool retaining at most `retain_per_class` idle buffers per class.
    pub fn with_retention(retain_per_class: usize) -> BufferPool {
        BufferPool {
            inner: Arc::new(PoolInner {
                classes: (0..N_CLASSES).map(|_| Mutex::new(Vec::new())).collect(),
                retain_per_class,
                counters: Counters::default(),
                recorder: OnceLock::new(),
            }),
        }
    }

    /// Record per-take latency ([`Stage::PoolAlloc`]) into `recorder`.
    /// Settable once; later calls are ignored.
    pub fn set_recorder(&self, recorder: Arc<StageRecorder>) {
        let _ = self.inner.recorder.set(recorder);
    }

    /// A buffer with capacity ≥ `min_capacity`, reusing a free-listed
    /// allocation when one exists. A recycled buffer comes back with the
    /// **length and bytes of its previous use**, so setting the length
    /// needed (`resize`) zero-fills only the part never initialised before,
    /// and an appending caller `clear()`s it first. The caller must
    /// overwrite every byte it goes on to expose, and hands the buffer back
    /// through [`BufferPool::seal`].
    pub fn take(&self, min_capacity: usize) -> Vec<u8> {
        self.inner.take(min_capacity)
    }

    /// Snapshot of the pool counters.
    pub fn stats(&self) -> PoolStats {
        let c = &self.inner.counters;
        PoolStats {
            pool_alloc: c.pool_alloc.load(Ordering::Relaxed),
            pool_reuse: c.pool_reuse.load(Ordering::Relaxed),
            recycled: c.recycled.load(Ordering::Relaxed),
            unpooled: c.unpooled.load(Ordering::Relaxed),
        }
    }

    /// Idle buffers currently parked across all free lists.
    pub fn idle_buffers(&self) -> usize {
        self.inner
            .classes
            .iter()
            .map(|c| c.lock().unwrap().len())
            .sum()
    }

    /// Seal a `Vec<u8>` (typically one handed out by
    /// [`BufferPool::take`]) into `Bytes` over its whole length, recycling
    /// the allocation when the last view drops (including every
    /// `slice_ref`/clone). An empty buffer seals to [`Bytes::new`] and
    /// recycles at once: no allocation escapes.
    pub fn seal(&self, buf: Vec<u8>) -> Bytes {
        if buf.is_empty() {
            // Nothing to view; recycle the capacity right away.
            self.inner.recycle(buf);
            return Bytes::new();
        }
        Bytes::from_owner(Recycled {
            vec: buf,
            pool: Arc::downgrade(&self.inner),
        })
    }
}

impl Default for BufferPool {
    fn default() -> BufferPool {
        BufferPool::new()
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        write!(
            f,
            "BufferPool(reuse {} / alloc {}, {} idle)",
            s.pool_reuse,
            s.pool_alloc,
            self.idle_buffers()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_reuses() {
        let pool = BufferPool::new();
        let mut buf = pool.take(10_000);
        assert!(buf.capacity() >= 10_000);
        let cap = buf.capacity();
        buf.extend_from_slice(&[42u8; 10_000]);
        let bytes = pool.seal(buf);
        assert_eq!(&bytes[..], &[42u8; 10_000][..]);
        let slice = bytes.slice(10..20);
        drop(bytes);
        assert_eq!(pool.stats().recycled, 0, "slice still pins the buffer");
        drop(slice);
        assert_eq!(pool.stats().recycled, 1);

        // Next same-class request reuses the exact allocation.
        let again = pool.take(cap);
        assert_eq!(again.capacity(), cap);
        let s = pool.stats();
        assert_eq!((s.pool_alloc, s.pool_reuse), (1, 1));
    }

    #[test]
    fn classes_round_up_to_powers_of_two() {
        let pool = BufferPool::new();
        assert_eq!(pool.take(1).capacity(), MIN_CLASS_BYTES);
        assert_eq!(pool.take(MIN_CLASS_BYTES).capacity(), MIN_CLASS_BYTES);
        assert_eq!(
            pool.take(MIN_CLASS_BYTES + 1).capacity(),
            2 * MIN_CLASS_BYTES
        );
        assert_eq!(pool.take(MAX_CLASS_BYTES).capacity(), MAX_CLASS_BYTES);
    }

    #[test]
    fn oversized_requests_bypass_the_pool() {
        let pool = BufferPool::new();
        let buf = pool.take(MAX_CLASS_BYTES + 1);
        assert!(buf.capacity() > MAX_CLASS_BYTES);
        drop(pool.seal(buf));
        let s = pool.stats();
        assert_eq!(s.unpooled, 1);
        assert_eq!(s.pool_alloc, 0);
        assert_eq!(s.recycled, 0, "non-class capacity is not retained");
    }

    #[test]
    fn retention_is_bounded() {
        let pool = BufferPool::with_retention(2);
        let bufs: Vec<_> = (0..5).map(|_| pool.take(100)).collect();
        for buf in bufs {
            drop(pool.seal(buf));
        }
        assert_eq!(pool.idle_buffers(), 2);
        assert_eq!(pool.stats().recycled, 2, "the other three were freed");
    }

    #[test]
    fn empty_freeze_allocates_nothing_and_recycles() {
        let pool = BufferPool::new();
        let bytes = pool.seal(pool.take(4096));
        assert!(bytes.is_empty());
        assert_eq!(pool.idle_buffers(), 1, "capacity went straight back");
    }

    #[test]
    fn block_alloc_seam_matches_direct_use() {
        let pool = BufferPool::new();
        let mut v = pool.take(8192);
        v.extend_from_slice(b"block");
        let sealed = pool.seal(v);
        assert_eq!(&sealed[..], b"block");
        drop(sealed);
        assert_eq!(pool.stats().recycled, 1);
        assert_eq!(pool.idle_buffers(), 1);
    }

    #[test]
    fn raw_take_keeps_the_initialised_extent() {
        let pool = BufferPool::new();
        let mut v = pool.take(8192);
        v.resize(6000, 7);
        let ptr = v.as_ptr();
        drop(pool.seal(v));
        // Same allocation, same length, same bytes: a `resize` to anything
        // up to 6000 writes nothing.
        let v = pool.take(8192);
        assert_eq!((v.as_ptr(), v.len()), (ptr, 6000));
        assert!(v.iter().all(|&b| b == 7));
        drop(pool.seal(v));
    }

    #[test]
    fn pool_death_orphans_outstanding_buffers_gracefully() {
        let pool = BufferPool::new();
        let mut buf = pool.take(4096);
        buf.push(1);
        let bytes = pool.seal(buf);
        drop(pool);
        // The view stays valid; the recycle on last drop is a no-op.
        assert_eq!(&bytes[..], &[1]);
        drop(bytes);
    }

    #[test]
    fn concurrent_take_and_recycle() {
        let pool = BufferPool::new();
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let pool = pool.clone();
                std::thread::spawn(move || {
                    for i in 0..200usize {
                        let mut b = pool.take(1 << (12 + (i % 4)));
                        b.clear();
                        b.push(t as u8);
                        let frozen = pool.seal(b);
                        assert_eq!(frozen[0], t as u8);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.pool_alloc + s.pool_reuse, 8 * 200);
        assert!(s.pool_reuse > 0, "steady state must reuse");
    }
}
