//! The demand path: lookups, single-flight fetches, promotes from the disk
//! tier, and `settle`, the one way out of a `Busy` slot.

use super::*;

impl CacheCore {
    fn count_hit(&self, data: &Bytes) {
        self.stats.hits.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_saved
            .fetch_add(data.len() as u64, Ordering::Relaxed);
    }

    /// Demand lookup: serve `key` from RAM or disk, updating recency and
    /// the plan cursor. Returns `None` on a miss (which is also counted).
    /// A fetch already in flight on another thread counts as a miss here
    /// (this entry point never blocks on other threads' fetches).
    ///
    /// A RAM hit returns the cached allocation itself (refcounted, no
    /// copy); the view stays valid even if the block is evicted while the
    /// caller holds it.
    pub fn get(&self, key: &BlockKey) -> Option<Bytes> {
        let served = {
            let mut st = self.state.lock();
            st.demand_access(key);
            let served = st.serve(key);
            st.check(&self.config);
            served
        };
        self.room.notify_all();
        let data = match served {
            Some(Served::Ram(data)) => {
                self.count_hit(&data);
                Some(data)
            }
            Some(Served::Disk(meta)) => self.promote(key, &meta),
            None => None,
        };
        if data.is_none() {
            self.stats.misses.fetch_add(1, Ordering::Relaxed);
        }
        data
    }

    /// Serve `key`'s bytes without perturbing the cache: no demand-cursor
    /// advance, no hit/miss counters, no recency touch, no promotion. A
    /// RAM/spilling resident clones the shared bytes; a disk resident is
    /// read (and CRC-validated) from its spill file *in place* — the block
    /// stays on disk. `Busy` (fetch in flight) and absent report `None`.
    /// This is the peer-serving entry point: a remote daemon's fetch must
    /// not distort this cache's plan accounting or tier placement.
    pub fn peek(&self, key: &BlockKey) -> Option<Bytes> {
        let meta = match self.state.lock().slots.get(key) {
            Some(Slot::Ram(data, _)) | Some(Slot::Spilling(data)) => return Some(data.clone()),
            Some(Slot::Disk(meta)) => meta.clone(),
            _ => return None,
        };
        // Spill-file read with the lock released. A concurrent evictor may
        // delete the file under us; validation degrades that to a miss.
        persist::read_validated(&meta.path, meta.len, meta.crc)
    }

    /// Insert a block without demand-access accounting. A no-op when the
    /// key is already resident (either tier) or in flight: it can neither
    /// clobber another thread's single-flight slot nor land beside a
    /// resident.
    pub fn insert(&self, key: BlockKey, data: impl Into<Bytes>) {
        let queued = {
            let mut st = self.state.lock();
            if st.slots.contains_key(&key) {
                return;
            }
            let orders = st.spill_orders.len();
            self.admit(&mut st, key, data.into(), None, false);
            st.check(&self.config);
            st.spill_orders.len() > orders
        };
        self.hand_off_spills(queued);
    }

    /// Demand lookup with single-flight fetch: on a miss, run `fetch` (at
    /// most once per missing key across all threads — concurrent callers
    /// block until the winner's fetch completes and then hit RAM).
    ///
    /// Hits hand out the cached allocation itself as refcounted [`Bytes`];
    /// the fetched value is admitted without copying (`Vec<u8>` converts
    /// by taking ownership).
    pub fn get_or_fetch<E, T, F>(&self, key: BlockKey, fetch: F) -> Result<(Bytes, Fetched), E>
    where
        T: Into<Bytes>,
        F: FnOnce() -> Result<T, E>,
    {
        // One access, accounted once — after any wait for a fetch in
        // flight, in the critical section that takes the landed bytes: the
        // prefetcher refills a slot the moment the cursor releases it, and
        // cannot get between the two.
        let mut accounted = false;
        loop {
            let served = {
                let mut st = self.state.lock();
                while matches!(st.slots.get(&key), Some(Slot::Busy(_))) {
                    self.landed.wait(&mut st);
                }
                if !accounted {
                    st.demand_access(&key);
                }
                let served = st.serve(&key);
                if served.is_none() {
                    st.slots.insert(key, Slot::Busy(None));
                }
                st.check(&self.config);
                served
            };
            if !accounted {
                self.room.notify_all();
                accounted = true;
            }
            match served {
                Some(Served::Ram(data)) => {
                    self.count_hit(&data);
                    return Ok((data, Fetched::Ram));
                }
                Some(Served::Disk(meta)) => {
                    if let Some(data) = self.promote(&key, &meta) {
                        return Ok((data, Fetched::Disk));
                    }
                    // A failed promote degraded to a miss; go round to
                    // claim it.
                }
                None => break,
            }
        }
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        let fetched: Result<Bytes, E> = fetch().map(Into::into);
        self.settle(key, fetched.as_ref().ok().cloned(), None);
        fetched.map(|data| (data, Fetched::Storage))
    }

    /// Promote a disk-resident block back to RAM. Called holding the
    /// block's `Busy` slot; the spill-file read happens with the lock
    /// released. A vanished or corrupt spill file degrades to a miss.
    fn promote(&self, key: &BlockKey, meta: &DiskMeta) -> Option<Bytes> {
        let data = self.read_spill_file(key, meta);
        if let Some(data) = &data {
            self.count_hit(data);
            self.stats.disk_hits.fetch_add(1, Ordering::Relaxed);
        }
        // A file read back stays where it is whatever RAM decides:
        // admitted, it backs the resident; declined (Belady bypass), the
        // slot goes straight back to `Disk`.
        self.settle(*key, data.clone(), None);
        data
    }

    /// Read `key`'s spill file back for the owner of its `Busy` slot,
    /// validated by [`persist::read_validated`]. On failure the file is
    /// retired — deleted, then out of the slot and the disk order (the one
    /// way a promote leaves it) — and the owner releases the slot to
    /// absent: a miss. Deleted while the slot is still `Busy`: no newer
    /// file of the same key can be written until it is released.
    pub(super) fn read_spill_file(&self, key: &BlockKey, meta: &DiskMeta) -> Option<Bytes> {
        let data = persist::read_validated(&meta.path, meta.len, meta.crc);
        if data.is_none() {
            let _ = std::fs::remove_file(&meta.path);
            let mut st = self.state.lock();
            if let Some(Slot::Busy(file @ Some(_))) = st.slots.get_mut(key) {
                *file = None;
                st.untrack_file(key);
            }
            st.check(&self.config);
        }
        data
    }

    /// Take the `Busy` slot the caller owns out of `Busy` — and, with
    /// `reserved`, give back the prefetch reservation held for it — in one
    /// critical section; this is the one way out of `Busy`. The slot comes
    /// out with whatever spill file the disk tier has left it. `Some`
    /// bytes land: RAM admits or declines ([`CacheCore::admit`]), and the
    /// victims' slots are flipped, and their spill orders queued, where
    /// they are popped. `None` releases the claim of a read that failed or
    /// never ran: back to disk-only over that file, or to absent. Only the
    /// wake-ups and the hand-off to the spill writer happen after it.
    /// Returns whether RAM admitted.
    pub(super) fn settle(&self, key: BlockKey, data: Option<Bytes>, reserved: Option<u64>) -> bool {
        let (admitted, queued) = {
            let mut st = self.state.lock();
            if let Some(len) = reserved {
                st.unreserve(len);
            }
            let Some(Slot::Busy(file)) = st.slots.remove(&key) else {
                unreachable!("settling owns the Busy slot");
            };
            let orders = st.spill_orders.len();
            let admitted = match (data, file) {
                (Some(data), file) => self.admit(&mut st, key, data, file, reserved.is_some()),
                // A released claim read nothing, so its file keeps its place
                // in the disk order; a declined landing takes the newest.
                (None, Some(meta)) => {
                    st.slots.insert(key, Slot::Disk(meta));
                    false
                }
                (None, None) => false,
            };
            st.check(&self.config);
            (admitted, st.spill_orders.len() > orders)
        };
        self.landed.notify_all();
        if reserved.is_some() {
            // An in-flight slot and possibly RAM came free.
            self.room.notify_all();
        }
        self.hand_off_spills(queued);
        admitted
    }
}
