//! The cache's slot state machine, explored state by state, crash included.
//!
//! Compiled into the crate's unit tests as `cache::lifecycle` (by path,
//! from `cache/mod.rs`), so it drives the crate-private [`State`] through
//! every method `CacheCore` calls on it — `claim`, `settle`, `retire`,
//! `issue`, `insert`, `peek`, `take_spill`, `land_spill`, `checkpoint`,
//! `set_plan` and `readmit` — each followed by `State::check`, exactly as
//! `CacheCore` calls them. What `CacheCore` does around them — wait, read,
//! write and delete files — is modelled, each I/O step its own event, so
//! every other actor may run between a transition and the I/O it returned:
//!
//! * 3 one-byte blocks, a RAM tier of 2 and a disk tier of 2, and a plan of
//!   two epochs (`PLAN`);
//! * one demand worker walking the plan through `get_or_fetch` (it waits
//!   while the block's slot is `Busy`, then claims it: a hit, a promote from
//!   the spill file, or a storage fetch), the prefetch executor walking the
//!   same plan (an issue step that would wait is not enabled) with its reads
//!   in flight, any of which may also be dropped unread, and the one spill
//!   writer;
//! * a fleet peer, the other daemon that `LocalPeer` lets into this cache,
//!   asking for block 0 (`PEER_BLOCK`) as often as it likes while the cache
//!   serves: it `peek`s — a disk-only block's spill file is then read, lock
//!   released, as its own event, racing the writer and the disk tier — and,
//!   on a miss, reads the block from storage and offers it back through
//!   `insert`, which may evict, and park on the spill backlog. A crash takes
//!   the peer with it (in-process peers share the process);
//! * storage fetches that succeed or fail, spill writes that land, fail, or
//!   land a file whose bytes are corrupt; a spill-file read succeeds exactly
//!   when the file on the model's disk is whole;
//! * an evictor parked on the spill backlog resumes once it is back under;
//! * at the end, the daemon's checkpoint (with `persist`), the handle's drop
//!   (the writer drains the queue) and the core's drop (keeps the files, or
//!   deletes them);
//! * with `persist`, one crash at any point: memory and pending deletes are
//!   lost, the files stay, and the restart scans the model's disk and
//!   re-admits from it through `readmit` — which also names the files to
//!   delete — then walks the plan again.
//!
//! Each file's name carries its block and checksum, so the model's disk
//! holds at most one file per block; `persist`'s unit tests and
//! `tests/forged_index.rs` cover names and bytes a model does not forge.
//!
//! In every reachable state the search asserts:
//!
//! * `State::check`'s books hold (a transition that panics is a failure);
//! * a demand gets its own block's bytes, or a miss;
//! * a `peek` gets its own block's bytes or nothing — nothing for a slot in
//!   flight, which is its owner's — and changes no slot, order or cursor;
//! * an `insert` leaves its key's slot untouched whenever one exists;
//! * at most one fetch, promote or staging read per key is in flight, and
//!   its slot is `Busy`;
//! * every spill file on the disk has exactly one owner — a slot, a delete
//!   not yet performed, or the writer between its write and the landing —
//!   and every spill-path handle is held by one of those, by a claim or by
//!   the peer's read (`Arc::strong_count`, so a handle forgotten rather than
//!   dropped fails), after a crash too;
//! * a restart re-admits only blocks whose file was written whole;
//! * every terminal state has closed the cache, with no `Busy` slot and an
//!   empty spill queue, and leaves no file it does not account for: none
//!   without `persist`; with it, the slots' files, every whole one of which
//!   the next open re-admits.
//!
//! Each search prints and pins its states, transitions and terminal states.
//! A failure prints a shortest event sequence that leads to it (the search
//! is breadth first); docs/TESTING.md explains how to read one.

#[path = "../../../../tests/support/explore.rs"]
mod explore;

use super::*;
use explore::{Explored, Model};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// The plan: two epochs over the three blocks, the second reshuffled.
const PLAN: [usize; 6] = [0, 1, 2, 2, 0, 1];
const BLOCKS: usize = 3;
const RAM: u64 = 2;
const DISK: u64 = 2;
/// The block the fleet peer asks this cache for.
const PEER_BLOCK: usize = 0;

fn key(block: usize) -> BlockKey {
    BlockKey {
        shard_id: 0,
        start: block,
        end: block + 1,
    }
}

/// Block `b`'s bytes: one byte that names it.
fn bytes_of(block: usize) -> Bytes {
    Bytes::from(vec![0xB0 + block as u8])
}

fn crc_of(block: usize) -> u32 {
    spill_names()[block].0
}

/// Each block's checksum and spill path, computed once: every state's
/// fingerprint and checks look them up.
fn spill_names() -> &'static [(u32, PathBuf); BLOCKS] {
    static NAMES: OnceLock<[(u32, PathBuf); BLOCKS]> = OnceLock::new();
    NAMES.get_or_init(|| {
        std::array::from_fn(|b| {
            let crc = persist::block_crc(&key(b), &bytes_of(b));
            (crc, PathBuf::from(persist::spill_file_name(&key(b), crc)))
        })
    })
}

/// The spill path of `block`: only its identity matters here, no file is
/// ever opened.
fn path_of(block: usize) -> &'static Path {
    &spill_names()[block].1
}

fn block_of_path(path: &Path) -> usize {
    // Compared as strings: `Path`'s `==` walks components.
    (0..BLOCKS)
        .find(|&b| path.as_os_str() == path_of(b).as_os_str())
        .expect("a spill path names a block")
}

/// A spill file on the model's disk: whole, or written with bytes that do
/// not match its CRC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Content {
    Whole,
    Corrupt,
}

/// How a spill write ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Lands,
    Fails,
    LandsCorrupt,
}

/// The demand worker, at plan position `pos`.
enum Worker {
    /// About to access `PLAN[pos]`; `accounted` once the access has been
    /// counted against the plan (a failed promote goes round once more).
    Ready {
        pos: usize,
        accounted: bool,
    },
    /// Owns the claim of a storage fetch.
    Fetching {
        pos: usize,
        claim: Claim,
    },
    /// Owns the claim of a promote from the claim's file.
    Promoting {
        pos: usize,
        claim: Claim,
    },
    /// The promote's file failed validation and was retired: delete it (if
    /// the slot still owned it), then settle to absent and go round.
    Retiring {
        pos: usize,
        claim: Claim,
        file: Option<DiskMeta>,
    },
    /// Parked on the spill backlog before going on to `pos`.
    Parked {
        pos: usize,
    },
    Done,
}

/// The fleet peer (see the module docs).
enum Peer {
    /// Between calls: it may `peek` while the cache serves.
    Idle,
    /// Its `peek` found the block on disk only: the file read is next.
    Reading(DiskMeta),
    /// Its `peek` missed: it read the block from storage, and offers it.
    Offering,
    /// Its offer's evictions left more than the RAM tier `Spilling`.
    Parked,
    /// Gone with the process that crashed.
    Gone,
}

/// A prefetch read in flight: its claim and, once its file failed
/// validation, the retired file it still has to delete.
struct Read {
    claim: Claim,
    retired: Option<Option<DiskMeta>>,
}

/// The spill writer, from the order it took to the delete of a file
/// nothing waited for.
enum Writer {
    Idle,
    /// Took `Spill`; its room's files still to delete.
    Deleting(Spill),
    Writing(Spill),
    /// Wrote (`Some`) or failed; the landing is next.
    Written(BlockKey, Option<DiskMeta>),
    /// A written file nothing waited for, still to delete.
    Orphan(DiskMeta),
    Exited,
}

/// The end of the run: the daemon's checkpoint, then the drops.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Phase {
    Serving,
    /// `persist_now`'s orders are queued; the queue drains next.
    Flushing,
    Checkpointed,
    /// The handle dropped: the writer drains, then exits.
    ShuttingDown,
    Closed,
}

struct World {
    st: State,
    disk: BTreeMap<usize, Content>,
    worker: Worker,
    /// The prefetch executor's next plan position (`PLAN.len()`: done),
    /// and whether it is parked on the spill backlog.
    prefetch: (usize, bool),
    reads: Vec<Read>,
    writer: Writer,
    peer: Peer,
    phase: Phase,
    crashed: bool,
}

/// One step of one actor. The blocks it names are for the trace.
#[derive(Debug, Clone)]
#[allow(dead_code)]
enum Event {
    Access {
        pos: usize,
        block: usize,
    },
    Fetched {
        block: usize,
        ok: bool,
    },
    PromoteRead {
        block: usize,
        ok: bool,
    },
    DeleteRetired {
        block: usize,
    },
    Unpark,
    Issue {
        pos: usize,
        block: usize,
    },
    PrefetchUnpark,
    StopPrefetcher,
    StageRead {
        block: usize,
        ok: bool,
    },
    DeleteStageRetired {
        block: usize,
    },
    /// A reservation over a spill file dropped unread (the read never ran).
    DropUnread {
        block: usize,
    },
    TakeSpill {
        block: Option<usize>,
    },
    DeleteReclaimed {
        blocks: Vec<usize>,
    },
    WriteSpill {
        block: usize,
        outcome: Outcome,
    },
    LandSpill {
        block: usize,
    },
    DeleteOrphan {
        block: usize,
    },
    PeerPeek {
        block: usize,
    },
    PeerRead {
        block: usize,
        ok: bool,
    },
    Offer {
        block: usize,
    },
    PeerUnpark,
    Checkpoint,
    Flushed,
    Shutdown,
    WriterExit,
    Close,
    CrashAndRestart,
}

/// A copy of `meta` whose path is `paths`'s copy of its path, so the copy
/// of a world shares no handle with the original and `Arc::strong_count`
/// counts one world's holders.
fn fork_meta(meta: &DiskMeta, paths: &mut HashMap<*const Path, Arc<Path>>) -> DiskMeta {
    let path = paths
        .entry(Arc::as_ptr(&meta.path))
        .or_insert_with(|| Arc::from(&*meta.path))
        .clone();
    DiskMeta {
        path,
        len: meta.len,
        crc: meta.crc,
    }
}

fn fork_claim(claim: &Claim, paths: &mut HashMap<*const Path, Arc<Path>>) -> Claim {
    let file = claim.file.as_ref().map(|m| fork_meta(m, paths));
    let (key, room) = (claim.key, claim.room);
    Claim { key, room, file }
}

fn fork_spill(spill: &Spill, paths: &mut HashMap<*const Path, Arc<Path>>) -> Spill {
    Spill {
        key: spill.key,
        data: spill.data.clone(),
        delete: spill.delete.iter().map(|m| fork_meta(m, paths)).collect(),
    }
}

fn fork_state(st: &State, paths: &mut HashMap<*const Path, Arc<Path>>) -> State {
    let mut file = |f: &Option<DiskMeta>| f.as_ref().map(|m| fork_meta(m, paths));
    let slots = (st.slots.iter())
        .map(|(k, slot)| {
            let slot = match slot {
                Slot::Ram(data, f) => Slot::Ram(data.clone(), file(f)),
                Slot::Spilling(data) => Slot::Spilling(data.clone()),
                Slot::Disk(m) => Slot::Disk(file(&Some(m.clone())).unwrap()),
                Slot::Busy(f) => Slot::Busy(file(f)),
            };
            (*k, slot)
        })
        .collect();
    State {
        slots,
        ram_used: st.ram_used,
        spilling: st.spilling,
        spill_orders: st.spill_orders.clone(),
        writing: st.writing,
        shutdown: st.shutdown,
        ram_reserved: st.ram_reserved,
        reservations: st.reservations,
        disk_used: st.disk_used,
        ram_bytes: st.ram_bytes,
        disk_bytes: st.disk_bytes,
        tick: st.tick,
        ram_order: st.ram_order.clone(),
        disk_order: st.disk_order.clone(),
        backed: st.backed.clone(),
        seq: st.seq.clone(),
        future: st.future.clone(),
        cursor: st.cursor,
    }
}

impl World {
    fn fork(&self) -> World {
        let mut paths = HashMap::new();
        let p = &mut paths;
        let worker = match &self.worker {
            Worker::Ready { pos, accounted } => Worker::Ready {
                pos: *pos,
                accounted: *accounted,
            },
            Worker::Fetching { pos, claim } => Worker::Fetching {
                pos: *pos,
                claim: fork_claim(claim, p),
            },
            Worker::Promoting { pos, claim } => Worker::Promoting {
                pos: *pos,
                claim: fork_claim(claim, p),
            },
            Worker::Retiring { pos, claim, file } => Worker::Retiring {
                pos: *pos,
                claim: fork_claim(claim, p),
                file: file.as_ref().map(|m| fork_meta(m, p)),
            },
            Worker::Parked { pos } => Worker::Parked { pos: *pos },
            Worker::Done => Worker::Done,
        };
        let reads = (self.reads.iter())
            .map(|r| Read {
                claim: fork_claim(&r.claim, p),
                retired: (r.retired.as_ref()).map(|f| f.as_ref().map(|m| fork_meta(m, p))),
            })
            .collect();
        let writer = match &self.writer {
            Writer::Idle => Writer::Idle,
            Writer::Deleting(spill) => Writer::Deleting(fork_spill(spill, p)),
            Writer::Writing(spill) => Writer::Writing(fork_spill(spill, p)),
            Writer::Written(key, meta) => {
                Writer::Written(*key, meta.as_ref().map(|m| fork_meta(m, p)))
            }
            Writer::Orphan(meta) => Writer::Orphan(fork_meta(meta, p)),
            Writer::Exited => Writer::Exited,
        };
        let peer = match &self.peer {
            Peer::Idle => Peer::Idle,
            Peer::Reading(meta) => Peer::Reading(fork_meta(meta, p)),
            Peer::Offering => Peer::Offering,
            Peer::Parked => Peer::Parked,
            Peer::Gone => Peer::Gone,
        };
        World {
            st: fork_state(&self.st, p),
            disk: self.disk.clone(),
            worker,
            prefetch: self.prefetch,
            reads,
            writer,
            peer,
            phase: self.phase.clone(),
            crashed: self.crashed,
        }
    }

    /// A cache opened over the model's disk, with the plan installed: what
    /// `CacheCore::new` and `set_plan` do. `readmit_dir`'s scan lists the
    /// files in key order, `State::readmit` re-admits them — a file reads
    /// back valid exactly when it is whole — and the files it returns are
    /// deleted before the cache serves.
    fn open(mut disk: BTreeMap<usize, Content>) -> World {
        let config = CacheConfig::default()
            .with_ram_bytes(RAM)
            .with_disk_bytes(DISK);
        let mut st = State::new(&config);
        let found = (disk.keys())
            .map(|&b| {
                let (path, len, crc) = (path_of(b).into(), 1, crc_of(b));
                (key(b), DiskMeta { path, len, crc })
            })
            .collect();
        let rejected = st.readmit(found, |key, _| {
            disk.get(&key.start) == Some(&Content::Whole)
        });
        for meta in rejected {
            disk.remove(&block_of_path(&meta.path));
        }
        st.set_plan(PLAN.iter().map(|&b| key(b)).collect());
        st.check();
        World {
            st,
            disk,
            worker: Worker::Ready {
                pos: 0,
                accounted: false,
            },
            prefetch: (0, false),
            reads: Vec::new(),
            writer: Writer::Idle,
            peer: Peer::Idle,
            phase: Phase::Serving,
            crashed: false,
        }
    }

    /// After a transition that may have queued spill orders: an evictor
    /// whose orders left more than the RAM tier `Spilling` parks.
    fn parks(&self, effect: &Effect) -> bool {
        effect.queued > 0 && self.st.spilling > RAM
    }

    fn settle(&mut self, claim: Claim, data: Option<Bytes>) -> Effect {
        let (_, effect) = self.st.settle(claim, data);
        self.st.check();
        effect
    }

    /// The worker is done with position `pos`; it goes on, or parks.
    fn next_access(&mut self, pos: usize, effect: Effect) {
        self.worker = match self.parks(&effect) {
            true => Worker::Parked { pos: pos + 1 },
            false => Worker::Ready {
                pos: pos + 1,
                accounted: false,
            },
        };
        if pos + 1 == PLAN.len() && !self.parks(&effect) {
            self.worker = Worker::Done;
        }
    }

    fn read_ok(&self, meta: &DiskMeta) -> bool {
        let b = block_of_path(&meta.path);
        self.disk.get(&b) == Some(&Content::Whole) && (meta.len, meta.crc) == (1, crc_of(b))
    }

    fn delete(&mut self, meta: &DiskMeta) -> Result<(), String> {
        let b = block_of_path(&meta.path);
        match self.disk.remove(&b) {
            Some(_) => Ok(()),
            None => Err(format!("deleted block {b}'s spill file, which is gone")),
        }
    }

    /// The actors are done, and the peer is not inside a call: its next one
    /// finds the cache gone once the handle drops.
    fn serving_done(&self) -> bool {
        matches!(self.worker, Worker::Done)
            && self.prefetch.0 == PLAN.len()
            && self.reads.is_empty()
            && matches!(self.peer, Peer::Idle | Peer::Gone)
    }

    /// Every event enabled here.
    fn events(&self, persist: bool) -> Vec<Event> {
        let mut out = Vec::new();
        if self.phase == Phase::Closed {
            return out;
        }
        match &self.worker {
            Worker::Ready { pos, .. } => {
                let block = PLAN[*pos];
                if !matches!(self.st.slots.get(&key(block)), Some(Slot::Busy(_))) {
                    out.push(Event::Access { pos: *pos, block });
                }
            }
            Worker::Fetching { claim, .. } => {
                let block = claim.key.start;
                out.push(Event::Fetched { block, ok: true });
                out.push(Event::Fetched { block, ok: false });
            }
            Worker::Promoting { claim, .. } => {
                let ok = self.read_ok(claim.file.as_ref().expect("a promote has a file"));
                let block = claim.key.start;
                out.push(Event::PromoteRead { block, ok });
            }
            Worker::Retiring { claim, .. } => out.push(Event::DeleteRetired {
                block: claim.key.start,
            }),
            Worker::Parked { .. } if self.st.spilling <= RAM => out.push(Event::Unpark),
            Worker::Parked { .. } | Worker::Done => {}
        }
        let (pos, parked) = self.prefetch;
        if parked {
            if self.st.spilling <= RAM {
                out.push(Event::PrefetchUnpark);
            }
        } else if pos < PLAN.len() {
            let mut probe = fork_state(&self.st, &mut HashMap::new());
            if !matches!(probe.issue(pos as u64, &key(PLAN[pos]), 1), Step::Wait) {
                out.push(Event::Issue {
                    pos,
                    block: PLAN[pos],
                });
            }
            if matches!(self.worker, Worker::Done) {
                out.push(Event::StopPrefetcher);
            }
        }
        for read in &self.reads {
            let block = read.claim.key.start;
            match (&read.retired, &read.claim.file) {
                (Some(_), _) => out.push(Event::DeleteStageRetired { block }),
                (None, Some(meta)) => {
                    let ok = self.read_ok(meta);
                    out.push(Event::StageRead { block, ok });
                    out.push(Event::DropUnread { block });
                }
                (None, None) => {
                    out.push(Event::StageRead { block, ok: true });
                    out.push(Event::StageRead { block, ok: false });
                }
            }
        }
        match &self.writer {
            // A writer with orders queued takes them, skipping those with
            // nothing to write.
            Writer::Idle if !self.st.spill_orders.is_empty() => {
                let spill = fork_state(&self.st, &mut HashMap::new()).take_spill();
                let block = spill.map(|spill| spill.key.start);
                out.push(Event::TakeSpill { block });
            }
            Writer::Idle if self.st.shutdown => out.push(Event::WriterExit),
            Writer::Idle => {}
            Writer::Deleting(spill) => out.push(Event::DeleteReclaimed {
                blocks: spill
                    .delete
                    .iter()
                    .map(|m| block_of_path(&m.path))
                    .collect(),
            }),
            Writer::Writing(spill) => {
                for outcome in [Outcome::Lands, Outcome::Fails, Outcome::LandsCorrupt] {
                    let block = spill.key.start;
                    out.push(Event::WriteSpill { block, outcome });
                }
            }
            Writer::Written(key, _) => out.push(Event::LandSpill { block: key.start }),
            Writer::Orphan(meta) => out.push(Event::DeleteOrphan {
                block: block_of_path(&meta.path),
            }),
            Writer::Exited => {}
        }
        let serving = matches!(
            self.phase,
            Phase::Serving | Phase::Flushing | Phase::Checkpointed
        );
        let block = PEER_BLOCK;
        match &self.peer {
            Peer::Idle if serving => out.push(Event::PeerPeek { block }),
            Peer::Reading(meta) => out.push(Event::PeerRead {
                block,
                ok: self.read_ok(meta),
            }),
            Peer::Offering => out.push(Event::Offer { block }),
            Peer::Parked if self.st.spilling <= RAM => out.push(Event::PeerUnpark),
            Peer::Idle | Peer::Parked | Peer::Gone => {}
        }
        let drained = self.st.spill_orders.is_empty() && !self.st.writing;
        match &self.phase {
            // The daemon checkpoints once its workers are done.
            Phase::Serving if persist && matches!(self.worker, Worker::Done) => {
                out.push(Event::Checkpoint)
            }
            Phase::Serving if !persist && self.serving_done() => out.push(Event::Shutdown),
            Phase::Flushing if drained => out.push(Event::Flushed),
            Phase::Checkpointed if self.serving_done() => out.push(Event::Shutdown),
            Phase::ShuttingDown if matches!(self.writer, Writer::Exited) => out.push(Event::Close),
            _ => {}
        }
        if persist && !self.crashed {
            out.push(Event::CrashAndRestart);
        }
        out
    }

    /// Take `ev`: the transitions it makes, and the I/O it models.
    fn apply(&mut self, ev: &Event, persist: bool) -> Result<(), String> {
        match ev {
            Event::Access { pos, block } => {
                let Worker::Ready { accounted, .. } = self.worker else {
                    unreachable!()
                };
                let served = self.st.claim(key(*block), !accounted);
                self.st.check();
                self.worker = match served {
                    Served::Ram(data) => {
                        if data != bytes_of(*block) {
                            return Err(format!("block {block} served {data:?}"));
                        }
                        self.next_access(*pos, Effect::default());
                        return Ok(());
                    }
                    Served::Claimed(claim) if claim.file.is_none() => {
                        Worker::Fetching { pos: *pos, claim }
                    }
                    Served::Claimed(claim) => Worker::Promoting { pos: *pos, claim },
                };
            }
            Event::Fetched { block, ok } => {
                let Worker::Fetching { pos, claim } =
                    std::mem::replace(&mut self.worker, Worker::Done)
                else {
                    unreachable!()
                };
                let effect = self.settle(claim, ok.then(|| bytes_of(*block)));
                self.next_access(pos, effect);
            }
            Event::PromoteRead { block, ok } => {
                let Worker::Promoting { pos, claim } =
                    std::mem::replace(&mut self.worker, Worker::Done)
                else {
                    unreachable!()
                };
                if *ok {
                    let effect = self.settle(claim, Some(bytes_of(*block)));
                    self.next_access(pos, effect);
                } else {
                    let file = self.st.retire(&key(*block));
                    self.st.check();
                    self.worker = Worker::Retiring { pos, claim, file };
                }
            }
            Event::DeleteRetired { .. } => {
                let Worker::Retiring { pos, claim, file } =
                    std::mem::replace(&mut self.worker, Worker::Done)
                else {
                    unreachable!()
                };
                if let Some(meta) = &file {
                    self.delete(meta)?;
                }
                drop(file);
                self.settle(claim, None);
                self.worker = Worker::Ready {
                    pos,
                    accounted: true,
                };
            }
            Event::Unpark => {
                let Worker::Parked { pos } = self.worker else {
                    unreachable!()
                };
                self.worker = match pos == PLAN.len() {
                    true => Worker::Done,
                    false => Worker::Ready {
                        pos,
                        accounted: false,
                    },
                };
            }
            Event::Issue { pos, block } => {
                let step = self.st.issue(*pos as u64, &key(*block), 1);
                self.st.check();
                self.prefetch.0 += 1;
                if let Step::Read(claim, effect) = step {
                    self.prefetch.1 = self.parks(&effect);
                    self.reads.push(Read {
                        claim,
                        retired: None,
                    });
                }
            }
            Event::PrefetchUnpark => self.prefetch.1 = false,
            Event::StopPrefetcher => self.prefetch.0 = PLAN.len(),
            Event::StageRead { block, ok } => {
                let i = self.read_of(*block);
                if *ok {
                    let read = self.reads.remove(i);
                    self.settle(read.claim, Some(bytes_of(*block)));
                } else if self.reads[i].claim.file.is_some() {
                    let file = self.st.retire(&key(*block));
                    self.st.check();
                    self.reads[i].retired = Some(file);
                } else {
                    let read = self.reads.remove(i);
                    self.settle(read.claim, None);
                }
            }
            Event::DropUnread { block } => {
                // A released claim read nothing: its file keeps its place.
                let read = self.reads.remove(self.read_of(*block));
                let rank = |st: &State| {
                    st.disk_order
                        .ranks()
                        .into_iter()
                        .find(|r| r.0 == key(*block))
                };
                let before = rank(&self.st);
                self.settle(read.claim, None);
                if before.is_some() && rank(&self.st) != before {
                    return Err(format!(
                        "block {block}'s released claim moved its file in the disk order"
                    ));
                }
            }
            Event::DeleteStageRetired { block } => {
                let read = self.reads.remove(self.read_of(*block));
                if let Some(Some(meta)) = &read.retired {
                    self.delete(meta)?;
                }
                let Read { claim, retired } = read;
                drop(retired);
                self.settle(claim, None);
            }
            Event::TakeSpill { .. } => {
                let disk_only: Vec<BlockKey> = (self.st.slots.iter())
                    .filter(|(_, slot)| matches!(slot, Slot::Disk(_)))
                    .map(|(key, _)| *key)
                    .collect();
                let spill = self.st.take_spill();
                self.st.check();
                // Files that duplicate a RAM resident are reclaimed first.
                let evicted = disk_only.iter().any(|k| !self.st.slots.contains_key(k));
                if evicted && !self.st.backed.is_empty() {
                    return Err("the disk tier evicted a disk-only block before a duplicate".into());
                }
                self.writer = match spill {
                    None => Writer::Idle,
                    Some(spill) if spill.delete.is_empty() => Writer::Writing(spill),
                    Some(spill) => Writer::Deleting(spill),
                };
            }
            Event::DeleteReclaimed { .. } => {
                let Writer::Deleting(mut spill) = std::mem::replace(&mut self.writer, Writer::Idle)
                else {
                    unreachable!()
                };
                for meta in std::mem::take(&mut spill.delete) {
                    self.delete(&meta)?;
                }
                self.writer = Writer::Writing(spill);
            }
            Event::WriteSpill { block, outcome } => {
                let Writer::Writing(spill) = std::mem::replace(&mut self.writer, Writer::Idle)
                else {
                    unreachable!()
                };
                let len = spill.data.len() as u64;
                let meta = match outcome {
                    Outcome::Fails => None,
                    Outcome::Lands | Outcome::LandsCorrupt => {
                        let content = match outcome {
                            Outcome::Lands => Content::Whole,
                            _ => Content::Corrupt,
                        };
                        self.disk.insert(*block, content);
                        let crc = persist::block_crc(&spill.key, &spill.data);
                        Some(DiskMeta {
                            path: path_of(*block).into(),
                            len,
                            crc,
                        })
                    }
                };
                self.writer = Writer::Written(spill.key, meta);
            }
            Event::LandSpill { .. } => {
                let Writer::Written(key, meta) = std::mem::replace(&mut self.writer, Writer::Idle)
                else {
                    unreachable!()
                };
                let orphan = self.st.land_spill(key, meta);
                self.st.check();
                if let Some(meta) = orphan {
                    self.writer = Writer::Orphan(meta);
                }
            }
            Event::DeleteOrphan { .. } => {
                let Writer::Orphan(meta) = std::mem::replace(&mut self.writer, Writer::Idle) else {
                    unreachable!()
                };
                self.delete(&meta)?;
            }
            Event::PeerPeek { block } => {
                let before = state_print(&self.st);
                let busy = matches!(self.st.slots.get(&key(*block)), Some(Slot::Busy(_)));
                let peeked = self.st.peek(&key(*block));
                if state_print(&self.st) != before {
                    return Err(format!("a peek of block {block} changed the cache"));
                }
                self.peer = match peeked {
                    Some(_) if busy => {
                        return Err(format!("a peek of block {block} served a slot in flight"))
                    }
                    Some(Peeked::Ram(data)) if data != bytes_of(*block) => {
                        return Err(format!("a peek of block {block} served {data:?}"))
                    }
                    Some(Peeked::Ram(_)) => Peer::Idle,
                    Some(Peeked::File(meta)) => Peer::Reading(meta),
                    None => Peer::Offering,
                };
            }
            Event::PeerRead { block, ok } => {
                let Peer::Reading(meta) = std::mem::replace(&mut self.peer, Peer::Idle) else {
                    unreachable!()
                };
                // A valid read returns the bytes the file was written with.
                let served = block_of_path(&meta.path);
                if *ok && served != *block {
                    return Err(format!(
                        "a peek of block {block} served block {served}'s file"
                    ));
                }
                if !*ok {
                    self.peer = Peer::Offering;
                }
            }
            Event::Offer { block } => {
                let k = key(*block);
                let before = self.st.slots.get(&k).map(slot_print);
                let effect = self.st.insert(k, bytes_of(*block));
                self.st.check();
                if before.is_some() && self.st.slots.get(&k).map(slot_print) != before {
                    return Err(format!("an insert of block {block} changed its slot"));
                }
                self.peer = match self.parks(&effect) {
                    true => Peer::Parked,
                    false => Peer::Idle,
                };
            }
            Event::PeerUnpark => self.peer = Peer::Idle,
            Event::Checkpoint => {
                self.st.checkpoint();
                self.st.check();
                self.phase = Phase::Flushing;
            }
            Event::Flushed => self.phase = Phase::Checkpointed,
            Event::Shutdown => {
                self.st.shutdown = true;
                self.phase = Phase::ShuttingDown;
            }
            Event::WriterExit => self.writer = Writer::Exited,
            Event::Close => {
                let busy = self.st.slots.values().any(|s| matches!(s, Slot::Busy(_)));
                if busy || !self.st.spill_orders.is_empty() || self.st.writing {
                    return Err("closed with a Busy slot or spill orders queued".into());
                }
                if !persist {
                    for meta in self.files() {
                        self.delete(&meta)?;
                    }
                }
                self.phase = Phase::Closed;
            }
            Event::CrashAndRestart => {
                let disk = std::mem::take(&mut self.disk);
                let whole: BTreeSet<usize> = (disk.iter())
                    .filter(|(_, c)| **c == Content::Whole)
                    .map(|(b, _)| *b)
                    .collect();
                *self = World::open(disk);
                self.crashed = true;
                self.peer = Peer::Gone;
                for (key, slot) in &self.st.slots {
                    let b = key.start;
                    if !matches!(slot, Slot::Disk(_)) || !whole.contains(&b) {
                        return Err(format!("the restart re-admitted block {b} unchecked"));
                    }
                }
            }
        }
        Ok(())
    }

    fn read_of(&self, block: usize) -> usize {
        (self.reads.iter())
            .position(|r| r.claim.key.start == block)
            .expect("a read in flight")
    }

    /// The spill files the slots own.
    fn files(&self) -> Vec<DiskMeta> {
        self.st
            .slots
            .values()
            .filter_map(Slot::file)
            .cloned()
            .collect()
    }

    /// The claims in flight, with the files they hold.
    fn claims(&self) -> Vec<&Claim> {
        let worker = match &self.worker {
            Worker::Fetching { claim, .. }
            | Worker::Promoting { claim, .. }
            | Worker::Retiring { claim, .. } => Some(claim),
            _ => None,
        };
        worker
            .into_iter()
            .chain(self.reads.iter().map(|r| &r.claim))
            .collect()
    }

    /// Every spill file an actor holds to delete, or has written and not
    /// yet landed: the owners beside the slots.
    fn pending_files(&self) -> Vec<&DiskMeta> {
        let mut files: Vec<&DiskMeta> = Vec::new();
        if let Worker::Retiring {
            file: Some(meta), ..
        } = &self.worker
        {
            files.push(meta);
        }
        for read in &self.reads {
            if let Some(Some(meta)) = &read.retired {
                files.push(meta);
            }
        }
        match &self.writer {
            Writer::Deleting(spill) => files.extend(&spill.delete),
            Writer::Written(_, Some(meta)) | Writer::Orphan(meta) => files.push(meta),
            _ => {}
        }
        files
    }

    /// What must hold in every reachable state (once closed, the files
    /// the core's drop leaves: `check_terminal` looks at them).
    fn check(&self) -> Result<(), String> {
        if self.phase == Phase::Closed {
            return Ok(());
        }
        // At most one claim per key, each over a Busy slot.
        let claims = self.claims();
        for (i, claim) in claims.iter().enumerate() {
            let b = claim.key.start;
            if claims[..i].iter().any(|c| c.key == claim.key) {
                return Err(format!("two fetches of block {b} in flight"));
            }
            if !matches!(self.st.slots.get(&claim.key), Some(Slot::Busy(_))) {
                return Err(format!(
                    "block {b}'s claim is in flight over a slot not Busy"
                ));
            }
        }
        // An order the writer took stays readable in its slot until it
        // lands: `Spilling` (an eviction) or an unbacked resident (a
        // checkpoint), with the bytes being written.
        let taken = match &self.writer {
            Writer::Deleting(spill) | Writer::Writing(spill) => Some((spill.key, &spill.data)),
            _ => None,
        };
        if let Some((key, data)) = taken {
            let readable = match self.st.slots.get(&key) {
                Some(Slot::Spilling(d) | Slot::Ram(d, None)) => d == data,
                _ => false,
            };
            if !readable {
                return Err(format!(
                    "block {}'s spill is in flight and its bytes are not",
                    key.start
                ));
            }
        }
        // Every file on the disk has one owner, after a crash too.
        let pending = self.pending_files();
        let slot_files = self.st.slots.values().filter_map(Slot::file);
        let owned: Vec<&DiskMeta> = slot_files.chain(pending.iter().copied()).collect();
        for b in 0..BLOCKS {
            let owners = owned.iter().filter(|m| block_of_path(&m.path) == b).count();
            let on_disk = self.disk.contains_key(&b);
            if owners != usize::from(on_disk) {
                return Err(format!(
                    "block {b}'s spill file (on disk: {on_disk}) has {owners} owners"
                ));
            }
        }
        // Every spill-path handle is held by an owner, a claim or the
        // peer's read.
        let mut held: HashMap<*const Path, (usize, &Arc<Path>)> = HashMap::new();
        let claim_files = claims.iter().filter_map(|c| c.file.as_ref());
        let peer_file = match &self.peer {
            Peer::Reading(meta) => Some(meta),
            _ => None,
        };
        for meta in owned.iter().copied().chain(claim_files).chain(peer_file) {
            held.entry(Arc::as_ptr(&meta.path))
                .or_insert((0, &meta.path))
                .0 += 1;
        }
        for (n, path) in held.values() {
            if Arc::strong_count(path) != *n {
                let b = block_of_path(path);
                let count = Arc::strong_count(path);
                return Err(format!(
                    "block {b}'s spill path has {count} handles, {n} holders"
                ));
            }
        }
        Ok(())
    }

    /// The visited set's key: everything the future depends on, with the
    /// access ticks replaced by their order (only their order is read).
    fn fingerprint(&self) -> Vec<u8> {
        let mut out = state_print(&self.st);
        for b in 0..BLOCKS {
            out.push(match self.disk.get(&b) {
                None => 0,
                Some(Content::Whole) => 1,
                Some(Content::Corrupt) => 2,
            });
        }
        let claim = |c: &Claim| {
            [
                c.key.start as u8,
                c.room.map_or(9, |r| r as u8),
                file_print(c.file.as_ref()),
            ]
        };
        match &self.worker {
            Worker::Ready { pos, accounted } => out.extend([1, *pos as u8, u8::from(*accounted)]),
            Worker::Fetching { pos, claim: c } => {
                out.extend([2, *pos as u8]);
                out.extend(claim(c));
            }
            Worker::Promoting { pos, claim: c } => {
                out.extend([3, *pos as u8]);
                out.extend(claim(c));
            }
            Worker::Retiring {
                pos,
                claim: c,
                file: f,
            } => {
                out.extend([4, *pos as u8, file_print(f.as_ref())]);
                out.extend(claim(c));
            }
            Worker::Parked { pos } => out.extend([5, *pos as u8]),
            Worker::Done => out.push(6),
        }
        out.extend([self.prefetch.0 as u8, u8::from(self.prefetch.1)]);
        let mut reads: Vec<[u8; 4]> = (self.reads.iter())
            .map(|r| {
                let [k, room, f] = claim(&r.claim);
                let retired = (r.retired.as_ref()).map_or(0, |f| 1 + file_print(f.as_ref()));
                [k, room, f, retired]
            })
            .collect();
        reads.sort_unstable();
        out.push(reads.len() as u8);
        out.extend(reads.into_iter().flatten());
        match &self.writer {
            Writer::Idle => out.push(0),
            Writer::Deleting(s) | Writer::Writing(s) => {
                out.extend([
                    1 + u8::from(matches!(self.writer, Writer::Writing(_))),
                    s.key.start as u8,
                ]);
                out.push(s.delete.len() as u8);
                out.extend(s.delete.iter().map(|m| file_print(Some(m))));
            }
            Writer::Written(k, m) => out.extend([3, k.start as u8, file_print(m.as_ref())]),
            Writer::Orphan(m) => out.extend([4, file_print(Some(m))]),
            Writer::Exited => out.push(5),
        }
        match &self.peer {
            Peer::Idle => out.push(0),
            Peer::Reading(m) => out.extend([1, file_print(Some(m))]),
            Peer::Offering => out.push(2),
            Peer::Parked => out.push(3),
            Peer::Gone => out.push(4),
        }
        out.push(match self.phase {
            Phase::Serving => 0,
            Phase::Flushing => 1,
            Phase::Checkpointed => 2,
            Phase::ShuttingDown => 3,
            Phase::Closed => 4,
        });
        out.push(u8::from(self.crashed));
        out
    }
}

/// A spill file's identity in a fingerprint: its block, whether its
/// checksum and length are the block's (0: no file).
fn file_print(f: Option<&DiskMeta>) -> u8 {
    match f {
        None => 0,
        Some(m) => {
            let b = block_of_path(&m.path);
            1 + b as u8 * 4 + u8::from(m.crc == crc_of(b)) * 2 + (m.len as u8 & 1) * 16
        }
    }
}

/// A slot in a fingerprint: its kind, its bytes' first byte and its file.
fn slot_print(slot: &Slot) -> [u8; 3] {
    let (kind, data, f) = match slot {
        Slot::Ram(d, f) => (1, Some(d), f.as_ref()),
        Slot::Spilling(d) => (2, Some(d), None),
        Slot::Disk(m) => (3, None, Some(m)),
        Slot::Busy(f) => (4, None, f.as_ref()),
    };
    let first = data.map_or(0, |d| d.first().copied().unwrap_or(1));
    [kind, first, file_print(f)]
}

/// The cache's part of a fingerprint: the slots, the accounting, the spill
/// queue, both orders with the access ticks replaced by their order, and
/// the plan's remaining positions.
fn state_print(st: &State) -> Vec<u8> {
    let mut out = Vec::with_capacity(96);
    for b in 0..BLOCKS {
        out.extend(st.slots.get(&key(b)).map_or([0; 3], slot_print));
    }
    let scalars = [
        st.ram_used,
        st.spilling,
        st.disk_used,
        st.ram_reserved,
        st.cursor,
    ];
    out.extend(scalars.map(|v| v as u8));
    out.extend([
        st.reservations as u8,
        u8::from(st.writing),
        u8::from(st.shutdown),
    ]);
    out.push(st.spill_orders.len() as u8);
    out.extend(st.spill_orders.iter().map(|k| k.start as u8));
    let (ram, disk) = (st.ram_order.ranks(), st.disk_order.ranks());
    let mut ticks: Vec<u64> = ram.iter().chain(&disk).map(|r| r.2).collect();
    ticks.sort_unstable();
    for ranks in [&ram, &disk] {
        out.push(ranks.len() as u8);
        for &(key, next, tick, size) in ranks {
            let order = ticks.binary_search(&tick).unwrap() as u8;
            out.extend([key.start as u8, next.min(255) as u8, order, size as u8]);
        }
    }
    out.push(st.backed.iter().fold(0, |m, k| m | 1 << k.start));
    for b in 0..BLOCKS {
        let q = st.future.get(&key(b));
        out.push(q.map_or(0, |q| q.len()) as u8);
        out.extend(q.into_iter().flatten().map(|&p| p as u8));
    }
    out
}

/// The search: one cache, with or without a persistent spill tier.
struct Lifecycle {
    persist: bool,
}

impl Model for Lifecycle {
    type State = World;
    type Key = Vec<u8>;
    type Event = Event;

    fn key(&self, world: &World) -> Vec<u8> {
        world.fingerprint()
    }

    fn successors(&self, world: &World) -> Vec<(Event, Result<World, String>)> {
        (world.events(self.persist).into_iter())
            .map(|ev| {
                let mut next = world.fork();
                let step = catch_unwind(AssertUnwindSafe(|| {
                    next.apply(&ev, self.persist)?;
                    next.check()
                }));
                let result = match step {
                    Ok(Ok(())) => Ok(next),
                    Ok(Err(why)) => Err(why),
                    Err(panic) => Err(panic
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_else(|| "a transition panicked".into())),
                };
                (ev, result)
            })
            .collect()
    }

    fn check_terminal(&self, world: &World) -> Result<(), String> {
        if world.phase != Phase::Closed {
            return Err(format!(
                "stuck in {:?} before the cache closed",
                world.phase
            ));
        }
        // `Close` found no `Busy` slot and no order queued. Closed, the
        // disk holds the slots' files (or none), and the next open
        // re-admits every whole one of them and deletes the rest.
        let files: BTreeSet<usize> = (world.files().iter())
            .map(|meta| block_of_path(&meta.path))
            .filter(|_| self.persist)
            .collect();
        let on_disk: BTreeSet<usize> = world.disk.keys().copied().collect();
        if on_disk != files {
            return Err(format!(
                "closed with files of blocks {on_disk:?} on disk, the slots' are {files:?}"
            ));
        }
        let reopened = World::open(world.disk.clone());
        let whole = (world.disk.iter()).filter(|(_, c)| **c == Content::Whole);
        let whole: Vec<usize> = whole.map(|(b, _)| *b).collect();
        let readmitted: Vec<usize> = reopened.disk.keys().copied().collect();
        match readmitted == whole && reopened.st.slots.len() == whole.len() {
            true => Ok(()),
            false => Err(format!(
                "reopened, blocks {readmitted:?} of the whole files {whole:?} were re-admitted"
            )),
        }
    }
}

fn explore(persist: bool) -> Explored {
    let explored = explore::explore(&Lifecycle { persist }, World::open(BTreeMap::new()));
    println!("persist: {persist}: {explored:?}");
    explored
}

/// Without `persist`: the drop deletes every file.
#[test]
fn every_state_of_a_two_tier_cache_keeps_its_books_and_its_files() {
    let explored = explore(false);
    let expected = Explored {
        states: 16_225,
        transitions: 58_025,
        terminal: 67,
    };
    assert_eq!(explored, expected);
}

/// With `persist`: a checkpoint once the worker is done, the files kept at
/// the drop, and one crash anywhere.
#[test]
fn every_state_of_a_persistent_cache_survives_a_crash_anywhere() {
    let explored = explore(true);
    let expected = Explored {
        states: 46_586,
        transitions: 176_241,
        terminal: 609,
    };
    assert_eq!(explored, expected);
}
