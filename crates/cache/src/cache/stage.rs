//! Staging: the prefetch executor's issue step and the reservation each
//! read in flight holds.

use super::*;

impl CacheCore {
    /// The prefetch executor's issue step for plan position `pos`
    /// (`key`, expected to be `len` bytes long; 0 = not known yet — the
    /// disk tier knows the length of a block it holds). Waits until the
    /// block may be staged, then — in the critical section that found it
    /// so — reserves its RAM, evicting what the plan needs later than
    /// `pos`, and claims its slot, absent (to be read from storage) or
    /// disk-only (from its spill file) alike:
    ///
    /// ```text
    /// ram_reserved + bytes of residents needed before pos + len <= ram_bytes
    /// ```
    ///
    /// with at most [`MAX_IN_FLIGHT`] reservations out. A disk-only block
    /// is staged into free room only, and skipped — left to a demand
    /// promote — when there is none: a spill-file read is cheap enough to
    /// take on demand, and every resident evicted to stage one ahead is a
    /// block the plan-driven order would have kept for its next use
    /// (docs/ARCHITECTURE.md has the measurement). Woken by every demand
    /// access, every landed or failed prefetch read, and
    /// [`CacheCore::wake_prefetcher`]; the slot is looked at again on
    /// every wake.
    pub(crate) fn reserve_prefetch(
        &self,
        pos: u64,
        key: &BlockKey,
        len: u64,
        stop: &AtomicBool,
    ) -> Issue<'_> {
        let mut st = self.state.lock();
        let (len, file) = loop {
            if stop.load(Ordering::SeqCst) {
                return Issue::Stop;
            }
            let (len, file) = match st.slots.get(key) {
                None => (len, None),
                Some(Slot::Disk(meta)) => (meta.len, Some(meta)),
                // In RAM, or someone's fetch or promote in flight.
                Some(_) => return Issue::Skip,
            };
            // Demand got here first, or the block can never fit — or, on
            // disk, not without evicting.
            let free = self.config.ram_bytes - st.ram_used - st.ram_reserved;
            if pos < st.cursor || len > self.config.ram_bytes || (file.is_some() && len > free) {
                return Issue::Skip;
            }
            // A block of unknown length goes out alone: once it lands, the
            // largest length seen stands in for the rest.
            let max_out = if len == 0 { 1 } else { MAX_IN_FLIGHT };
            if st.reservations < max_out && st.may_stage(pos, len, self.config.ram_bytes) {
                break (len, file.cloned());
            }
            self.room.wait(&mut st);
        };
        let orders = st.spill_orders.len();
        self.make_room(&mut st, len, Some(pos));
        st.ram_reserved += len;
        st.reservations += 1;
        st.slots.insert(*key, Slot::Busy(file.clone()));
        st.check(&self.config);
        let queued = st.spill_orders.len() > orders;
        drop(st);
        self.hand_off_spills(queued);
        Issue::Read(Reservation {
            cache: self,
            key: *key,
            len,
            file,
        })
    }

    /// Make a parked [`CacheCore::reserve_prefetch`] look at its stop flag
    /// again. Passing through the lock orders this after the waiter's
    /// last check, so a flag set before the call is never missed.
    pub(crate) fn wake_prefetcher(&self) {
        drop(self.state.lock());
        self.room.notify_all();
    }
}

/// What [`CacheCore::reserve_prefetch`] decided for one plan position.
pub(crate) enum Issue<'a> {
    /// Room reserved and slot claimed: [`fill`](Reservation::fill) it.
    Read(Reservation<'a>),
    /// Nothing to stage: the block is in RAM or being fetched, demand
    /// reached the position first, the block can never fit, or it is on
    /// disk and would not fit without evicting.
    Skip,
    /// The stop flag is set.
    Stop,
}

/// RAM reserved, and a `Busy` slot claimed, for one prefetch read in
/// flight. [`fill`](Reservation::fill) does the read and lands the block
/// in it; dropping it any other way (the read failed or panicked, or never
/// ran) gives the room back and releases the slot — to disk-only when that
/// is where the claim found it — so demand readers parked on it fetch or
/// promote for themselves.
pub(crate) struct Reservation<'a> {
    cache: &'a CacheCore,
    key: BlockKey,
    len: u64,
    /// The spill file to stage from; `None` stages from storage.
    file: Option<DiskMeta>,
}

impl Reservation<'_> {
    /// Read the block — back from its spill file when the disk tier holds
    /// it, through `storage` otherwise — and admit it into the reserved
    /// room, counting it as prefetched (never a demand hit or miss), as
    /// warm-promoted when it came from disk (timed as
    /// [`Stage::WarmPromote`]), and as wasted when RAM does not take it. A
    /// spill file that fails validation is retired, as on a demand promote.
    pub(crate) fn fill(mut self, storage: impl FnOnce() -> Option<Bytes>) {
        let t0 = Instant::now();
        // Taken out, so the `forget` below does not leak its path.
        let file = self.file.take();
        let data = match &file {
            Some(meta) => self.cache.read_spill_file(&self.key, meta),
            None => storage(),
        };
        let Some(data) = data else { return };
        let (cache, key, len) = (self.cache, self.key, self.len);
        std::mem::forget(self);
        cache.stats.prefetched.fetch_add(1, Ordering::Relaxed);
        if !cache.settle(key, Some(data), Some(len)) {
            cache.stats.prefetch_wasted.fetch_add(1, Ordering::Relaxed);
        } else if file.is_some() {
            cache.stats.warm_promoted.fetch_add(1, Ordering::Relaxed);
            if let Some(rec) = cache.recorder.get() {
                rec.record(Stage::WarmPromote, t0.elapsed().as_nanos() as u64);
            }
        }
    }
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        self.cache.settle(self.key, None, Some(self.len));
    }
}
