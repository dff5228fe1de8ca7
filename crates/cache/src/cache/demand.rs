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
        // flight, and in a fleet for the floor, in the critical section
        // that takes the landed bytes: the prefetcher refills a slot the
        // moment the cursor releases it, and cannot get between the two.
        let mut accounted = false;
        let mut lockstep = None;
        loop {
            let (served, effect) = {
                let mut st = self.state.lock();
                let mut stalled = 0;
                loop {
                    while st.busy(&key) {
                        self.landed.wait(&mut st);
                    }
                    if accounted || !st.ahead_of_floor(&key) {
                        break;
                    }
                    stalled |= self.wait_for_floor(&mut st, &mut lockstep);
                }
                let (served, mut effect) = st.claim(key, !accounted);
                effect.wake |= stalled;
                st.check();
                (served, effect)
            };
            if let (Some(wait), Some(rec)) = (lockstep.take(), self.recorder.get()) {
                let waited = wait.began.elapsed().as_nanos() as u64;
                rec.record(Stage::FleetFloorWait, waited);
            }
            self.perform(effect);
            accounted = true;
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

    /// One wait of a fleet member's claim that is ahead of the floor
    /// (the lockstep rule), on `room`, which the floor's rise wakes. A
    /// floor that has not moved for the member's patience while the claim
    /// waited is stalled ([`State::stall_floor`]): the claim gives up on
    /// it, counted, and goes on. Returns the stall's wake set.
    fn wait_for_floor(&self, st: &mut MutexGuard<'_, State>, wait: &mut Option<FloorWait>) -> Wake {
        let now = Instant::now();
        let floor = st.floor;
        let wait = wait.get_or_insert(FloorWait {
            began: now,
            since: now,
            floor,
        });
        if wait.floor != floor {
            (wait.since, wait.floor) = (now, floor);
        }
        let deadline = wait.since + st.patience;
        if now < deadline {
            self.room.wait_until(st, deadline);
            return 0;
        }
        self.stats.floor_stalls.fetch_add(1, Ordering::Relaxed);
        st.stall_floor().wake
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
        let (admitted, effect) = self.locked(|st| st.settle(claim, data));
        self.perform(effect);
        admitted
    }
}

/// A claim's wait on the fleet's floor: when it began, and the floor it has
/// seen not move since `since`.
struct FloorWait {
    began: Instant,
    since: Instant,
    floor: u64,
}
