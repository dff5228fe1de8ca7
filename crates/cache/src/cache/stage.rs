//! Staging: the prefetch executor's issue step and the reservation each
//! read in flight holds.

use super::*;

impl CacheCore {
    /// The prefetch executor's issue step for plan position `pos` (`key`,
    /// expected to be `len` bytes long; 0 = not known yet — the disk tier
    /// knows the length of a block it holds). Waits until the block may be
    /// staged, then — in the transition that found it so ([`State::issue`])
    /// — reserves its RAM, evicting what the plan needs later than `pos`,
    /// and claims its slot, absent (read from storage) or disk-only (from
    /// its spill file) alike, once
    /// `ram_reserved + bytes of residents needed before pos + len <= ram_bytes`
    /// with at most [`MAX_IN_FLIGHT`] reservations out. A disk-only block is
    /// staged into free room only, else left to a demand promote: a spill
    /// file is cheap to read on demand, and a resident evicted to stage one
    /// is a block the plan-driven order would have kept (docs/ARCHITECTURE.md
    /// has the measurement). Parked, it waits on `room` for a transition
    /// that names it (`state.rs`'s module docs list them).
    pub(crate) fn reserve_prefetch(&self, pos: u64, key: &BlockKey, len: u64) -> Issue<'_> {
        let mut st = self.state.lock();
        let (claim, effect) = loop {
            match st.issue(pos, key, len) {
                Step::Skip => return Issue::Skip,
                Step::Stop => return Issue::Stop,
                Step::Wait => self.room.wait(&mut st),
                Step::Read(claim, effect) => break (claim, effect),
            }
        };
        st.check();
        drop(st);
        self.perform(effect);
        Issue::Read(Reservation {
            cache: self,
            claim: Some(claim),
        })
    }

    /// Stop the prefetch executor ([`State::stop_prefetch`]): from now
    /// until the next plan, [`CacheCore::reserve_prefetch`] returns
    /// [`Issue::Stop`], parked or not.
    pub(crate) fn stop_prefetcher(&self) {
        self.perform(self.locked(State::stop_prefetch));
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
    /// The executor was stopped ([`CacheCore::stop_prefetcher`]).
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
    /// Settled exactly once: by `fill`, or by the drop.
    claim: Option<Claim>,
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
        let cache = self.cache;
        let claim = self.claim.as_ref().expect("claimed until settled");
        let data = match &claim.file {
            Some(meta) => cache.read_spill_file(&claim.key, meta),
            None => storage(),
        };
        // A read that failed leaves the claim to the drop.
        let Some(data) = data else { return };
        let claim = self.claim.take().expect("claimed until settled");
        let from_disk = claim.file.is_some();
        cache.stats.prefetched.fetch_add(1, Ordering::Relaxed);
        if !cache.settle(claim, Some(data)) {
            cache.stats.prefetch_wasted.fetch_add(1, Ordering::Relaxed);
        } else if from_disk {
            cache.stats.warm_promoted.fetch_add(1, Ordering::Relaxed);
            if let Some(rec) = cache.recorder.get() {
                rec.record(Stage::WarmPromote, t0.elapsed().as_nanos() as u64);
            }
        }
    }
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        if let Some(claim) = self.claim.take() {
            self.cache.settle(claim, None);
        }
    }
}
