//! Admission: whether RAM takes a block, and the room each tier makes.

use super::*;

impl CacheCore {
    /// Admit `data` into the RAM tier under the lock, into the empty slot
    /// of `key`: pop victims (applying the Belady bypass), flip their
    /// slots, insert the resident. `file` is the spill file `data` was
    /// just read from (the promote paths): admitted, the resident keeps
    /// it as its backing; declined, the block stays disk-resident instead
    /// of being dropped. `staged` says the block lands in the room a
    /// prefetch reservation held — no bypass, the issue rule placed it
    /// ahead of everything it could displace. Every other admission fits
    /// into what the reservations leave. Returns whether RAM admitted.
    pub(super) fn admit(
        &self,
        st: &mut State,
        key: BlockKey,
        data: Bytes,
        file: Option<DiskMeta>,
        staged: bool,
    ) -> bool {
        let size = data.len() as u64;
        let room = self.config.ram_bytes - st.ram_reserved;
        // Belady admission bypass: if this block would be the eviction
        // victim the moment it lands, don't admit it. Only while the
        // cursor is inside the plan: with no plan, or past its end, every
        // next use is "never", the order is recency, and every admission
        // is taken.
        let bypass = !staged && st.cursor < st.seq.len() as u64 && st.ram_used + size > room && {
            let next = st.next_use_rank(&key);
            matches!(st.ram_order.victim_next_use(), Some(v) if next >= v)
        };
        if size > room || bypass {
            // A declined promote goes back to disk-only; anything else
            // passes through uncached.
            if let Some(meta) = file {
                st.rerank_file(&key);
                st.slots.insert(key, Slot::Disk(meta));
            }
            return false;
        }
        self.make_room(st, size, None);
        st.track_ram(key, size);
        if file.is_some() {
            st.backed.insert(key);
        }
        st.slots.insert(key, Slot::Ram(data, file));
        true
    }

    /// Evict RAM victims until `size` more bytes fit beside the residents
    /// and the reservations, each where it is popped: a backed resident
    /// flips to `Disk` over the write-once file it already has; anything
    /// else flips to `Spilling` — readable until its write lands — with
    /// its key queued for the spill writer (the caller hands the orders
    /// off once the lock is released), or drops when no disk tier can take
    /// it. A prefetch reservation for plan position `keep_before` leaves
    /// alone what the plan needs sooner: such a victim goes back into the
    /// order as its newest arrival (the order offers one only when its
    /// rank is out of date). The caller has checked that the room can be
    /// made.
    pub(super) fn make_room(&self, st: &mut State, size: u64, keep_before: Option<u64>) {
        let mut kept = Vec::new();
        while st.ram_used + st.ram_reserved + size > self.config.ram_bytes {
            let Some((vk, vs)) = st.ram_order.pop_victim() else {
                break;
            };
            let sooner = keep_before.and_then(|pos| {
                State::pending(&st.future, st.cursor, &vk).filter(|&next| next < pos)
            });
            if let Some(next) = sooner {
                kept.push((vk, vs, next));
                continue;
            }
            st.ram_used -= vs;
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            match st.slots.remove(&vk) {
                Some(Slot::Ram(_, Some(meta))) => {
                    st.backed.remove(&vk);
                    st.rerank_file(&vk);
                    st.slots.insert(vk, Slot::Disk(meta));
                    self.stats.clean_evictions.fetch_add(1, Ordering::Relaxed);
                }
                Some(Slot::Ram(data, None)) => {
                    if self.spill_dir.is_some() && vs <= self.config.disk_bytes {
                        st.slots.insert(vk, Slot::Spilling(data));
                        st.spilling += vs;
                        self.queue_spill(st, vk);
                    }
                }
                _ => unreachable!("the RAM order ranks Ram slots only"),
            }
        }
        for (key, size, next) in kept {
            st.tick += 1;
            st.ram_order.insert(key, size, next, st.tick);
        }
    }

    /// Make `size` bytes of disk-tier room under the lock, returning the
    /// files that lost their place for the caller to delete once it is
    /// released. Files that duplicate a RAM resident go first — giving one
    /// up loses no block, only the write its resident's eviction would
    /// have skipped — so under pressure the tier holds as many distinct
    /// disk-only blocks as it would without the duplicates. Each victim's
    /// slot changes where it is popped: a backed resident stays in RAM
    /// unbacked, a disk-only block goes absent, and a promote in flight
    /// finds its slot fileless when it lands.
    pub(super) fn make_disk_room(&self, st: &mut State, size: u64) -> Vec<DiskMeta> {
        let mut files = Vec::new();
        while st.disk_used + size > self.config.disk_bytes {
            let victim = if let Some(&dup) = st.backed.first() {
                st.untrack_file(&dup);
                dup
            } else if let Some((vk, vs)) = st.disk_order.pop_victim() {
                st.disk_used -= vs;
                vk
            } else {
                break;
            };
            match st.slots.remove(&victim) {
                Some(Slot::Ram(data, Some(meta))) => {
                    st.slots.insert(victim, Slot::Ram(data, None));
                    files.push(meta);
                }
                Some(Slot::Busy(Some(meta))) => {
                    st.slots.insert(victim, Slot::Busy(None));
                    files.push(meta);
                }
                Some(Slot::Disk(meta)) => files.push(meta),
                _ => unreachable!("the disk order ranks file owners only"),
            }
        }
        files
    }
}
