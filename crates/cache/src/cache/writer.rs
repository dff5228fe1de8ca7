//! The spill writer and persistence: the queue of spill orders, the one
//! thread that writes them, the checkpoint, and a restart's re-admission
//! from the files themselves.

use super::*;

impl CacheCore {
    /// The spill writer's next order ([`State::take_spill`]), waiting for
    /// one; `None` once the handle is dropping and the queue is drained,
    /// which ends the writer.
    pub(super) fn next_spill(&self) -> Option<Spill> {
        loop {
            let mut st = self.state.lock();
            while st.writer_idle() {
                self.spill.wait(&mut st);
            }
            let (spill, effect) = st.take_spill();
            st.check();
            let exit = st.shutdown;
            drop(st);
            self.perform(effect);
            if spill.is_some() || exit {
                return spill;
            }
        }
    }

    /// Perform the spill order the writer took: delete the files that
    /// made its room, write the bytes, and land it ([`State::land_spill`]).
    /// The writer never spills recursively: disk overflow only *drops*.
    pub(super) fn finish_spill(&self, spill: Spill) {
        let Spill { key, data, delete } = spill;
        for meta in delete {
            let _ = std::fs::remove_file(&meta.path);
        }
        let len = data.len() as u64;
        let dir = self.spill_dir.as_ref().expect("spillable implies dir");
        let crc = persist::block_crc(&key, &data);
        let path: Arc<Path> = dir.join(persist::spill_file_name(&key, crc)).into();
        let t0 = Instant::now();
        // Chaos failpoint: an injected error takes the real failed-write
        // branch below (block drops to absent, counted, never silent); an
        // injected latency spike stalls the writer thread like a congested
        // disk. Short reads don't apply to a write site.
        use emlio_util::fault::{site, FaultDecision};
        let decision =
            (self.injector.get()).map(|inj| (inj.decide(site::SPILL_WRITE), inj.plan().seed()));
        let injected = match decision {
            Some((FaultDecision::Error, seed)) => Some(io::Error::other(format!(
                "injected fault at spill.write (seed {seed})"
            ))),
            Some((FaultDecision::Latency(d), _)) => {
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
                Some(DiskMeta { path, len, crc })
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
        let (orphan, effect) = self.locked(|st| st.land_spill(key, meta));
        self.perform(effect);
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
        while !st.flushed() {
            self.spill.wait(&mut st);
        }
    }

    /// Checkpoint the cache for a restart (persistent caches only): queue
    /// every RAM resident that has no spill file yet for the spill writer,
    /// behind the orders already queued — it backs each if the disk tier
    /// has the spare capacity, never at the cost of another block's file —
    /// and wait for the queue to drain. Returns how many spill files the
    /// tier then holds: what a restart re-admits, room permitting. A
    /// non-persistent cache returns 0.
    pub fn persist_now(&self) -> u64 {
        if self.config.persist_dir.is_none() {
            return 0;
        }
        self.perform(self.locked(State::checkpoint));
        self.flush_spills();
        self.state.lock().disk_order.len() as u64
    }
}

/// Re-admit the spill files a previous run left in `dir` into the disk
/// tier of a cache under construction ([`State::readmit`]: valid, one per
/// key, in key order, while there is room), and delete every other one.
/// Returns how many were re-admitted.
pub(super) fn readmit_dir(dir: &Path, st: &mut State) -> u64 {
    let found = persist::scan(dir).into_iter().map(|f| {
        let (path, len, crc) = (f.path.into(), f.len, f.crc);
        (f.key, DiskMeta { path, len, crc })
    });
    let rejected = st.readmit(found.collect(), |key, meta| {
        persist::read_validated(key, &meta.path, meta.len, meta.crc).is_some()
    });
    for meta in rejected {
        let _ = std::fs::remove_file(&meta.path);
    }
    st.slots.len() as u64
}
