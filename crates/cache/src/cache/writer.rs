//! The spill writer and persistence: the queue of spill orders, the one
//! thread that writes them, and the index a restart re-admits from.

use super::*;

impl CacheCore {
    /// Queue `key` for the spill writer, under the lock.
    pub(super) fn queue_spill(&self, st: &mut State, key: BlockKey) {
        st.spill_orders.push_back(key);
        let depth = st.spill_orders.len() as u64 + u64::from(st.writing);
        self.stats
            .spill_queue_peak
            .fetch_max(depth, Ordering::Relaxed);
    }

    /// Hand the orders a critical section `queued` to the spill writer,
    /// lock released: wake it, then wait while the `Spilling` backlog is
    /// more than the RAM tier. So at most `ram_bytes` of evicted blocks,
    /// plus the victims of the evictors parked here, wait for the disk —
    /// whatever their number or size.
    pub(super) fn hand_off_spills(&self, queued: bool) {
        if !queued {
            return;
        }
        self.spill.notify_all();
        let mut st = self.state.lock();
        if st.spilling > self.config.ram_bytes {
            self.stats
                .spill_backpressure_waits
                .fetch_add(1, Ordering::Relaxed);
            while st.spilling > self.config.ram_bytes {
                self.spill.wait(&mut st);
            }
        }
    }

    /// The spill writer's next order, waiting for one; `None` once the
    /// handle is dropping and the queue is drained, which ends the writer.
    /// A writer that finds the queue empty is idle, and wakes
    /// `flush_spills`.
    pub(super) fn next_spill(&self) -> Option<BlockKey> {
        let mut st = self.state.lock();
        while st.spill_orders.is_empty() && !st.shutdown {
            self.spill.notify_all();
            self.spill.wait(&mut st);
        }
        let key = st.spill_orders.pop_front()?;
        st.writing = true;
        Some(key)
    }

    /// Perform the spill order for `key`: make the disk room, write the
    /// slot's bytes, and land the transition — `Spilling → Disk` for an
    /// evicted block, `Ram → Ram+file` for a resident a checkpoint backs.
    /// Runs on the one writer thread, the only place the disk tier grows,
    /// so the room made before the write is still there when it lands; the
    /// lock is never held across the file I/O. The writer never spills
    /// recursively — disk-tier overflow only *drops* disk victims. The
    /// order is finished (`writing` cleared) in the critical section that
    /// lands it, or in the one that finds nothing to write.
    pub(super) fn finish_spill(&self, key: BlockKey) {
        let (data, reclaimed) = {
            let mut st = self.state.lock();
            // Which of the two it is, the slot says: an eviction makes its
            // room out of disk victims, a checkpoint takes spare room or
            // leaves it. Anything else has its file already or is gone —
            // an eviction and a checkpoint of the same block crossed in
            // the queue.
            let data = match st.slots.get(&key) {
                Some(Slot::Spilling(data)) => data.clone(),
                Some(Slot::Ram(data, None))
                    if st.disk_used + data.len() as u64 <= self.config.disk_bytes =>
                {
                    data.clone()
                }
                _ => {
                    st.writing = false;
                    return;
                }
            };
            let reclaimed = self.make_disk_room(&mut st, data.len() as u64);
            st.check(&self.config);
            (data, reclaimed)
        };
        let size = data.len() as u64;
        for meta in reclaimed {
            let _ = std::fs::remove_file(&meta.path);
        }

        let dir = self.spill_dir.as_ref().expect("spillable implies dir");
        let path: Arc<Path> = dir.join(persist::spill_file_name(&key)).into();
        let crc = persist::block_crc(&data);
        let t0 = Instant::now();
        // Chaos failpoint: an injected error takes the real failed-write
        // branch below (block drops to absent, counted, never silent); an
        // injected latency spike stalls the writer thread like a congested
        // disk. Short reads don't apply to a write site.
        let injected = match self.injector.get().map(|inj| {
            (
                inj.decide(emlio_util::fault::site::SPILL_WRITE),
                inj.plan().seed(),
            )
        }) {
            Some((emlio_util::fault::FaultDecision::Error, seed)) => Some(io::Error::other(
                format!("injected fault at spill.write (seed {seed})"),
            )),
            Some((emlio_util::fault::FaultDecision::Latency(d), _)) => {
                std::thread::sleep(d);
                None
            }
            _ => None,
        };
        // Written beside the path and renamed onto it, never truncated in
        // place: a promoted block is a view of its spill file's mapping,
        // and a view may still map the file this path named before (see
        // `persist`'s module docs).
        let result = match injected {
            Some(e) => Err(e),
            None => persist::write_file(&path, &data),
        };
        if let Some(rec) = self.recorder.get() {
            rec.record(Stage::SpillWrite, t0.elapsed().as_nanos() as u64);
        }
        let meta = match result {
            Ok(()) => {
                self.stats.spills.fetch_add(1, Ordering::Relaxed);
                Some(DiskMeta {
                    path,
                    len: size,
                    crc,
                })
            }
            Err(e) => {
                // A failed spill loses the evicted block — demand will
                // re-read it from storage — or leaves a checkpoint's
                // resident unbacked, but never silently: counted and logged.
                self.stats.spill_failures.fetch_add(1, Ordering::Relaxed);
                obs_warn!(
                    "cache",
                    "spill write failed for {}: {e}; block has no spill file",
                    path.display()
                );
                None
            }
        };
        let orphan = {
            let mut st = self.state.lock();
            // A queued block stays `Spilling`; a resident a checkpoint is
            // backing may have been evicted under the write, and then its
            // order is queued behind this one and finds the file there.
            let slot = st.slots.remove(&key);
            if let Some(Slot::Spilling(_)) = slot {
                st.spilling -= size;
            }
            let (landed, orphan) = match (slot, meta) {
                (Some(Slot::Spilling(_)), Some(meta)) => {
                    st.track_file(key, size);
                    (Some(Slot::Disk(meta)), None)
                }
                (Some(Slot::Ram(data, None)), Some(meta)) => {
                    st.track_file(key, size);
                    st.backed.insert(key);
                    (Some(Slot::Ram(data, Some(meta))), None)
                }
                // A failed spill: the block is gone.
                (Some(Slot::Spilling(_)), None) => (None, None),
                // A failed checkpoint leaves the slot as it is; a file
                // nothing was waiting for is not kept.
                (slot, meta) => (slot, meta),
            };
            if let Some(slot) = landed {
                st.slots.insert(key, slot);
            }
            st.writing = false;
            st.check(&self.config);
            orphan
        };
        // The backlog may have shrunk: wake the evictors waiting on it.
        self.spill.notify_all();
        if let Some(meta) = orphan {
            let _ = std::fs::remove_file(&meta.path);
        }
    }

    /// Block until every queued spill order has been fully written (the
    /// `Spilling → Disk` transitions landed); returns at once without a
    /// disk tier. Tests and checkpoints use this to observe a settled
    /// tier.
    pub fn flush_spills(&self) {
        let mut st = self.state.lock();
        while !st.spill_orders.is_empty() || st.writing {
            self.spill.wait(&mut st);
        }
    }

    /// Checkpoint the cache for a restart (persistent caches only): queue
    /// every RAM resident that has no spill file yet for the spill writer,
    /// behind the orders already queued — it backs each if the disk tier
    /// has the spare capacity, never at the cost of another block's file —
    /// wait for the queue to drain, and write the spill index of the live
    /// tier. Returns how many blocks the index covers. A non-persistent
    /// cache returns 0.
    pub fn persist_now(&self) -> io::Result<u64> {
        if !self.config.persist {
            return Ok(0);
        }
        // A resident evicted in between is queued twice; its second order
        // finds the slot moved on.
        let unbacked = self.keys_where(|slot| matches!(slot, Slot::Ram(_, None)));
        let mut st = self.state.lock();
        for key in unbacked {
            self.queue_spill(&mut st, key);
        }
        drop(st);
        self.spill.notify_all();
        self.flush_spills();
        let files = live_files(&self.state.lock());
        self.write_index(&files)?;
        Ok(files.len() as u64)
    }

    /// Write the spill index listing `files` (persistent caches).
    pub(super) fn write_index(&self, files: &[(BlockKey, DiskMeta)]) -> io::Result<()> {
        let dir = self.spill_dir.as_ref().expect("persist implies spill dir");
        let entries: Vec<SpillEntry> = files.iter().map(|(k, meta)| meta.entry(*k)).collect();
        persist::write_index(dir, &entries)
    }
}

/// Re-admit CRC-valid spill files recorded by a previous run's index in
/// `dir` into the disk tier of a cache under construction (up to its
/// capacity). Returns how many were.
pub(super) fn load_persisted(dir: &Path, disk_bytes: u64, st: &mut State) -> u64 {
    let entries = match persist::read_index(dir) {
        Ok(Some(entries)) => entries,
        // No index, or a malformed one: cold start.
        _ => return 0,
    };
    let mut readmitted = 0;
    for e in &entries {
        if st.disk_used + e.len > disk_bytes {
            // Not re-admittable this run — and the index rewritten at
            // shutdown will no longer list it, so delete the file
            // rather than orphan it in the persist dir forever.
            let _ = std::fs::remove_file(dir.join(persist::spill_file_name(&e.key)));
            continue;
        }
        let Some(path) = persist::validate_entry(dir, e) else {
            continue;
        };
        st.track_file(e.key, e.len);
        let meta = DiskMeta {
            path: path.into(),
            len: e.len,
            crc: e.crc,
        };
        st.slots.insert(e.key, Slot::Disk(meta));
        readmitted += 1;
    }
    readmitted
}

/// Every spill file of the live tier, sorted by key: disk-only blocks
/// and the backing of RAM residents alike.
pub(super) fn live_files(st: &State) -> Vec<(BlockKey, DiskMeta)> {
    let mut files: Vec<(BlockKey, DiskMeta)> = st
        .slots
        .iter()
        .filter_map(|(k, slot)| Some((*k, slot.file()?.clone())))
        .collect();
    files.sort_unstable_by_key(|(k, _)| *k);
    files
}
