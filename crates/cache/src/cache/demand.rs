//! The demand path: single-flight fetches, promotes from the disk tier, a
//! peer's reads and offers, and the I/O side of `settle`, the one way out
//! of a `Busy` slot.

use super::*;

impl CacheCore {
    fn count_hit(&self, data: &Bytes) {
        self.stats.hits.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_saved
            .fetch_add(data.len() as u64, Ordering::Relaxed);
    }

    /// Serve `key`'s bytes without perturbing the cache: no demand-cursor
    /// advance, no hit/miss counters, no recency touch, no promotion. A
    /// RAM/spilling resident clones the shared bytes; a disk resident is
    /// read (and CRC-validated) from its spill file *in place* — the block
    /// stays on disk. `Busy` (fetch in flight) and absent report `None`.
    /// This is the peer-serving entry point: a remote daemon's fetch must
    /// not distort this cache's plan accounting or tier placement.
    pub fn peek(&self, key: &BlockKey) -> Option<Bytes> {
        let peeked = self.state.lock().peek(key)?;
        match peeked {
            Peeked::Ram(data) => Some(data),
            // Read with the lock released. A concurrent evictor may delete
            // the file under us; validation degrades that to a miss.
            Peeked::File(meta) => persist::read_validated(key, &meta.path, meta.len, meta.crc),
        }
    }

    /// Insert a block without demand-access accounting. A no-op when the
    /// key is already resident (either tier) or in flight: it can neither
    /// clobber another thread's single-flight slot nor land beside a
    /// resident.
    pub fn insert(&self, key: BlockKey, data: impl Into<Bytes>) {
        let data = data.into();
        self.perform(self.locked(|st| st.insert(key, data)));
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
                let served = st.claim(key, !accounted);
                st.check();
                served
            };
            if !accounted {
                self.room.notify_all();
                accounted = true;
            }
            let claim = match served {
                Served::Ram(data) => {
                    self.count_hit(&data);
                    return Ok((data, Fetched::Ram));
                }
                Served::Claimed(claim) if claim.file.is_none() => claim,
                Served::Claimed(claim) => match self.promote(claim) {
                    Some(data) => return Ok((data, Fetched::Disk)),
                    // A failed promote degraded to a miss; go round to
                    // claim it.
                    None => continue,
                },
            };
            self.stats.misses.fetch_add(1, Ordering::Relaxed);
            let fetched: Result<Bytes, E> = fetch().map(Into::into);
            self.settle(claim, fetched.as_ref().ok().cloned());
            return fetched.map(|data| (data, Fetched::Storage));
        }
    }

    /// Promote a disk-resident block back to RAM, owning its claim; the
    /// spill-file read happens with the lock released. A vanished or
    /// corrupt spill file degrades to a miss.
    fn promote(&self, claim: Claim) -> Option<Bytes> {
        let data = (claim.file.as_ref()).and_then(|meta| self.read_spill_file(&claim.key, meta));
        if let Some(data) = &data {
            self.count_hit(data);
            self.stats.disk_hits.fetch_add(1, Ordering::Relaxed);
        }
        // A file read back stays where it is whatever RAM decides:
        // admitted, it backs the resident; declined (Belady bypass), the
        // slot goes straight back to `Disk`.
        self.settle(claim, data.clone());
        data
    }

    /// Read `key`'s spill file back for the owner of its `Busy` slot,
    /// validated by [`persist::read_validated`]; on failure retire
    /// ([`State::retire`]) and delete it, and the owner settles to absent.
    pub(super) fn read_spill_file(&self, key: &BlockKey, meta: &DiskMeta) -> Option<Bytes> {
        let data = persist::read_validated(key, &meta.path, meta.len, meta.crc);
        if data.is_none() {
            if let Some(meta) = self.locked(|st| st.retire(key)) {
                let _ = std::fs::remove_file(&meta.path);
            }
        }
        data
    }

    /// Settle `claim` with `data` ([`State::settle`]) and perform the
    /// effect. Returns whether RAM admitted.
    pub(super) fn settle(&self, claim: Claim, data: Option<Bytes>) -> bool {
        let reserved = claim.room.is_some();
        let (admitted, effect) = self.locked(|st| st.settle(claim, data));
        self.landed.notify_all();
        if reserved {
            // An in-flight slot and possibly RAM came free.
            self.room.notify_all();
        }
        self.perform(effect);
        admitted
    }
}
