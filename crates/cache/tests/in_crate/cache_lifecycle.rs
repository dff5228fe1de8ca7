//! The cache's slot state machine, explored state by state, crash included.
//!
//! Compiled into the crate's unit tests as `cache::lifecycle` (by path,
//! from `cache/mod.rs`), so it drives the crate-private [`State`] through
//! every method `CacheCore` calls on it — `claim`, `settle`, `retire`,
//! `issue`, `insert`, `peek`, `take_spill`, `land_spill`, `checkpoint`,
//! `stop_prefetch`, `shut_down`, `set_plan`, `set_floor`, `stall_floor`
//! and `readmit` — each followed
//! by `State::check`, exactly as `CacheCore` calls them. What `CacheCore` does around them — wait, read,
//! write and delete files — is modelled, each I/O step its own event, so
//! every other actor may run between a transition and the I/O it returned:
//!
//! * 3 one-byte blocks, a RAM tier of 2 and a disk tier of 2, and a plan of
//!   two epochs (`PLAN`);
//! * one demand worker walking the plan through `get_or_fetch` (it waits
//!   while the block's slot is `Busy`, and on `room` while its position is
//!   ahead of the fleet's floor — the lockstep rule — then claims it: a
//!   hit, a promote from the spill file, or a storage fetch); while it
//!   waits on a floor that has not moved, its patience may run out
//!   (`Patience`), which stalls the floor (`stall_floor`) and lets it go on.
//!   The prefetch executor walks the
//!   same plan with its reads in flight, any of which may also be dropped
//!   unread, and the one spill writer;
//! * a fleet peer, the other member that `LocalPeer` lets into this cache,
//!   walking the same plan with its own cursor. At each position of block 0
//!   (`PEER_BLOCK`) it `peek`s — a disk-only block's spill file is then
//!   read, lock released, as its own event, racing the writer and the disk
//!   tier — and, on a miss, reads the block from storage and offers it back
//!   through `insert`, which may evict; the other blocks it reads elsewhere.
//!   Each step past a position (`PeerAdvance`) moves its cursor, and the
//!   fleet's floor, the lesser of the two cursors, reaches this cache
//!   through `set_floor` — as every move of this cache's own cursor does —
//!   in the step that moved it. The peer is done at the plan's end; without
//!   `persist` it may also stop at the plan's head without finishing (a live
//!   member that never reads: it holds the floor there for good). A crash
//!   takes the peer with it (in-process peers share the process);
//! * storage fetches that succeed or fail, spill writes that land, fail, or
//!   land a file whose bytes are corrupt; a spill-file read succeeds exactly
//!   when the file on the model's disk is whole;
//! * the daemon's stop of the prefetcher once the worker is done, or sooner
//!   while it is parked (a serve that fails); at the end its checkpoint
//!   (with `persist`), the handle's drop (the writer drains the queue) and
//!   the core's drop (keeps the files, or deletes them);
//! * with `persist`, one crash at any point: memory and pending deletes are
//!   lost, the files stay, and the restart scans the model's disk and
//!   re-admits from it through `readmit` — which also names the files to
//!   delete — then walks the plan again.
//!
//! Each file's name carries its block and checksum, so the model's disk
//! holds at most one file per block; `persist`'s unit tests and
//! `tests/forged_index.rs` cover names and bytes a model does not forge.
//!
//! Every wait is modelled as the cache waits: an actor that finds its
//! condition false under the lock *parks* on its condvar, and may take its
//! next step only once a transition's wake set has notified that condvar
//! (a model condvar never wakes spuriously), when it checks the condition
//! again. The parked actors are the demand worker on `landed` (its block
//! `Busy`) or on `room` (ahead of the floor), the prefetcher on `room` (its
//! issue step says wait), the writer
//! on `spill` (no order) and the daemon's flush on `spill` (orders not yet
//! written). An evictor's wait on `spill` while the backlog is over the RAM
//! tier is not modelled: three one-byte blocks never leave more than two
//! `Spilling`, and a transition that would park one fails the search. The
//! unit test `a_stalled_writer_holds_at_most_one_ram_tier_of_evicted_bytes`
//! parks there.
//!
//! In every reachable state the search asserts:
//!
//! * `State::check`'s books hold (a transition that panics is a failure);
//! * a demand gets its own block's bytes, or a miss;
//! * a `peek` gets its own block's bytes or nothing — nothing for a slot in
//!   flight, which is its owner's — and changes no slot, order or cursor;
//! * the keep rule: no step takes a resident at a plan position in
//!   `[floor, cursor)` — read here, not yet by the peer — out of RAM;
//! * the lockstep rule: the worker never claims a plan position past the
//!   floor unless the floor is stalled;
//! * the floor can always move without this cache: while the cache serves,
//!   the peer, unless it stopped, reaches its next `PeerAdvance` on its own
//!   steps alone;
//! * an `insert` leaves its key's slot untouched whenever one exists;
//! * at most one fetch, promote or staging read per key is in flight, and
//!   its slot is `Busy`;
//! * every spill file on the disk has exactly one owner — a slot, a delete
//!   not yet performed, or the writer between its write and the landing —
//!   and every spill-path handle is held by one of those, by a claim or by
//!   the peer's read (`Arc::strong_count`, so a handle forgotten rather than
//!   dropped fails), after a crash too;
//! * a restart re-admits only blocks whose file was written whole;
//! * no wake-up is lost: no actor is parked with its condition true and no
//!   notify of its condvar pending;
//! * no deadlock: every state with no enabled event has every actor done —
//!   it has closed the cache, with no `Busy` slot and an empty spill queue,
//!   and leaves no file it does not account for: none without `persist`;
//!   with it, the slots' files, every whole one of which the next open
//!   re-admits.
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

/// A condvar an actor parks on: its bit in a wake set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Cv {
    Landed = LANDED,
    Room = ROOM,
    Spill = SPILL,
}

/// The threads that park; each indexes `World::notified`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Actor {
    Worker,
    Prefetcher,
    Writer,
    Daemon,
}

/// The demand worker, at plan position `pos`.
enum Worker {
    /// About to access `PLAN[pos]`; `accounted` once the access has been
    /// counted against the plan (a failed promote goes round once more).
    Ready {
        pos: usize,
        accounted: bool,
    },
    /// Found `PLAN[pos]` in flight: parked on `landed`.
    Waiting {
        pos: usize,
        accounted: bool,
    },
    /// Found `pos` ahead of the fleet's floor, which was `floor`: parked on
    /// `room` (the access is not yet accounted).
    Lockstep {
        pos: usize,
        floor: u64,
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
    Done,
}

/// The prefetch executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Prefetch {
    /// About to issue plan position `pos`.
    Walking(usize),
    /// Its issue step for `pos` said wait: parked on `room`.
    Waiting(usize),
    /// Walked the plan, or stopped.
    Done,
}

/// The fleet peer (see the module docs), at plan position `pos`.
enum Peer {
    /// Between calls; `got` once it has `PLAN[pos]`'s bytes (a block other
    /// than `PEER_BLOCK` it has from elsewhere). Without them it `peek`s,
    /// with them it moves on.
    Idle { pos: usize, got: bool },
    /// Its `peek` found the block on disk only: the file read is next.
    Reading { pos: usize, meta: DiskMeta },
    /// Its `peek` missed: it read the block from storage, and offers it.
    Offering { pos: usize },
    /// Walked the plan.
    Done,
    /// Stopped reading at `pos`, alive: it holds the floor there.
    Stopped { pos: usize },
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
    /// About to look for an order.
    Idle,
    /// Found none: parked on `spill`.
    Waiting,
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
    /// `persist_now`'s orders are queued: parked on `spill` till the
    /// queue is written.
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
    prefetch: Prefetch,
    reads: Vec<Read>,
    writer: Writer,
    peer: Peer,
    phase: Phase,
    /// Per parked actor: a notify of its condvar came since it parked.
    notified: [bool; 4],
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
    /// A parked actor, notified, checks its condition again.
    Wakes(Actor),
    Issue {
        pos: usize,
        block: usize,
    },
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
    /// The writer takes an order (`None`: none to write — it exits when
    /// the handle is dropping).
    TakeSpill {
        block: Option<usize>,
    },
    WriterParks,
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
        pos: usize,
        block: usize,
    },
    PeerRead {
        block: usize,
        ok: bool,
    },
    Offer {
        block: usize,
    },
    /// The peer moves past `pos`: its cursor, and with it the floor.
    PeerAdvance {
        pos: usize,
    },
    /// The peer stops reading at `pos` without finishing.
    PeerStops {
        pos: usize,
    },
    /// The worker's wait on the floor outlasts its patience, the floor not
    /// having moved: it stalls the floor and goes on.
    Patience {
        pos: usize,
    },
    Checkpoint,
    Shutdown,
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
        prefetch_stopped: st.prefetch_stopped,
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
        foreign: st.foreign.clone(),
        floor: st.floor,
        floor_stalled: st.floor_stalled,
        patience: st.patience,
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
            Worker::Waiting { pos, accounted } => Worker::Waiting {
                pos: *pos,
                accounted: *accounted,
            },
            &Worker::Lockstep { pos, floor } => Worker::Lockstep { pos, floor },
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
            Writer::Waiting => Writer::Waiting,
            Writer::Deleting(spill) => Writer::Deleting(fork_spill(spill, p)),
            Writer::Writing(spill) => Writer::Writing(fork_spill(spill, p)),
            Writer::Written(key, meta) => {
                Writer::Written(*key, meta.as_ref().map(|m| fork_meta(m, p)))
            }
            Writer::Orphan(meta) => Writer::Orphan(fork_meta(meta, p)),
            Writer::Exited => Writer::Exited,
        };
        let peer = match &self.peer {
            &Peer::Idle { pos, got } => Peer::Idle { pos, got },
            Peer::Reading { pos, meta } => Peer::Reading {
                pos: *pos,
                meta: fork_meta(meta, p),
            },
            &Peer::Offering { pos } => Peer::Offering { pos },
            Peer::Done => Peer::Done,
            &Peer::Stopped { pos } => Peer::Stopped { pos },
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
            notified: self.notified,
            crashed: self.crashed,
        }
    }

    /// A cache opened over the model's disk, with the plan installed as a
    /// fleet member's — it owns every block, and its floor starts at the
    /// plan's head: what `CacheCore::new` and `try_set_plan` do. `readmit_dir`'s scan lists the
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
        let enrolled = Enrollment {
            foreign: HashSet::new(),
            patience: Duration::ZERO,
        };
        st.set_plan(PLAN.iter().map(|&b| key(b)).collect(), Some(enrolled));
        st.check();
        World {
            st,
            disk,
            worker: Worker::Ready {
                pos: 0,
                accounted: false,
            },
            prefetch: Prefetch::Walking(0),
            reads: Vec::new(),
            writer: Writer::Idle,
            peer: Peer::Idle { pos: 0, got: false },
            phase: Phase::Serving,
            notified: [false; 4],
            crashed: false,
        }
    }

    /// What `CacheCore::perform` does with a transition's effect: hand a
    /// cursor it moved to the registry ([`World::refloor`]), and notify
    /// every parked actor whose condvar is in its wake set. An evictor
    /// would then park on the backlog, which the model leaves out (see the
    /// module docs): reaching it fails the search.
    fn perform(&mut self, effect: Effect) -> Result<(), String> {
        if effect.cursor.is_some() {
            self.refloor()?;
        }
        for (actor, cv) in self.parks() {
            self.notified[actor as usize] |= effect.wake & cv as u8 != 0;
        }
        match effect.queued > 0 && self.st.backlogged() {
            true => Err("an evictor parks on the spill backlog, which the model leaves out".into()),
            false => Ok(()),
        }
    }

    /// The registry's part: the floor is the least cursor of the members
    /// still walking the plan — this cache and the peer, stopped or not —
    /// and a floor that moved reaches the cache through `set_floor`.
    fn refloor(&mut self) -> Result<(), String> {
        let len = PLAN.len() as u64;
        let own = Some(self.st.cursor).filter(|&c| c < len);
        let peer = match self.peer {
            Peer::Idle { pos, .. }
            | Peer::Reading { pos, .. }
            | Peer::Offering { pos }
            | Peer::Stopped { pos } => Some(pos as u64),
            Peer::Done | Peer::Gone => None,
        };
        match own.into_iter().chain(peer).min() {
            Some(floor) if floor != self.st.floor => {
                let effect = self.st.set_floor(floor);
                self.st.check();
                self.perform(effect)
            }
            _ => Ok(()),
        }
    }

    /// Every parked actor and the condvar it waits on.
    fn parks(&self) -> Vec<(Actor, Cv)> {
        let mut out = Vec::new();
        match self.worker {
            Worker::Waiting { .. } => out.push((Actor::Worker, Cv::Landed)),
            Worker::Lockstep { .. } => out.push((Actor::Worker, Cv::Room)),
            _ => {}
        }
        if matches!(self.prefetch, Prefetch::Waiting(_)) {
            out.push((Actor::Prefetcher, Cv::Room));
        }
        if matches!(self.writer, Writer::Waiting) {
            out.push((Actor::Writer, Cv::Spill));
        }
        if self.phase == Phase::Flushing {
            out.push((Actor::Daemon, Cv::Spill));
        }
        out
    }

    /// Whether the condition parked `actor`'s wait loops on holds: the
    /// `State` query the cache's loop asks.
    fn ready(&self, actor: Actor) -> bool {
        match (actor, &self.worker, self.prefetch) {
            (Actor::Worker, Worker::Waiting { pos, .. }, _) => !self.st.busy(&key(PLAN[*pos])),
            (Actor::Worker, Worker::Lockstep { pos, .. }, _) => {
                !self.st.ahead_of_floor(&key(PLAN[*pos]))
            }
            (Actor::Prefetcher, _, Prefetch::Waiting(pos)) => {
                let mut probe = fork_state(&self.st, &mut HashMap::new());
                !matches!(probe.issue(pos as u64, &key(PLAN[pos]), 1), Step::Wait)
            }
            (Actor::Writer, ..) => !self.st.writer_idle(),
            (Actor::Daemon, ..) => self.st.flushed(),
            _ => unreachable!("{actor:?} is not parked"),
        }
    }

    fn settle(&mut self, claim: Claim, data: Option<Bytes>) -> Result<(), String> {
        let (_, effect) = self.st.settle(claim, data);
        self.st.check();
        self.perform(effect)
    }

    /// The worker is done with position `pos`; it goes on.
    fn next_access(&mut self, pos: usize) {
        self.worker = match pos + 1 == PLAN.len() {
            true => Worker::Done,
            false => Worker::Ready {
                pos: pos + 1,
                accounted: false,
            },
        };
    }

    /// `get_or_fetch`'s critical section for `pos`: wait while the block
    /// is in flight, or, not yet accounted, while it is ahead of the floor;
    /// else claim it.
    fn access(&mut self, pos: usize, accounted: bool) -> Result<(), String> {
        let block = PLAN[pos];
        if self.st.busy(&key(block)) {
            self.worker = Worker::Waiting { pos, accounted };
            return Ok(());
        }
        if !accounted && self.st.ahead_of_floor(&key(block)) {
            let floor = self.st.floor;
            self.worker = Worker::Lockstep { pos, floor };
            return Ok(());
        }
        if !accounted && pos as u64 > self.st.floor && !self.st.floor_stalled {
            let floor = self.st.floor;
            return Err(format!(
                "the worker claimed position {pos}, past the floor {floor}, which is not stalled"
            ));
        }
        let (served, effect) = self.st.claim(key(block), !accounted);
        self.st.check();
        self.perform(effect)?;
        self.worker = match served {
            Served::Ram(data) if data != bytes_of(block) => {
                return Err(format!("block {block} served {data:?}"))
            }
            Served::Ram(_) => {
                self.next_access(pos);
                return Ok(());
            }
            Served::Claimed(claim) if claim.file.is_none() => Worker::Fetching { pos, claim },
            Served::Claimed(claim) => Worker::Promoting { pos, claim },
        };
        Ok(())
    }

    /// `reserve_prefetch`'s critical section for `pos`.
    fn issue(&mut self, pos: usize) -> Result<(), String> {
        let step = self.st.issue(pos as u64, &key(PLAN[pos]), 1);
        self.st.check();
        let next = match pos + 1 == PLAN.len() {
            true => Prefetch::Done,
            false => Prefetch::Walking(pos + 1),
        };
        self.prefetch = match step {
            Step::Wait => Prefetch::Waiting(pos),
            Step::Stop => Prefetch::Done,
            Step::Skip => next,
            Step::Read(claim, effect) => {
                self.reads.push(Read {
                    claim,
                    retired: None,
                });
                self.perform(effect)?;
                next
            }
        };
        Ok(())
    }

    /// The peer's offer of its block: an `insert`, which leaves a slot
    /// that exists as it is.
    fn offer(&mut self, pos: usize) -> Result<(), String> {
        let (block, k) = (PEER_BLOCK, key(PEER_BLOCK));
        let before = self.st.slots.get(&k).map(slot_print);
        let effect = self.st.insert(k, bytes_of(block));
        self.st.check();
        if before.is_some() && self.st.slots.get(&k).map(slot_print) != before {
            return Err(format!("an insert of block {block} changed its slot"));
        }
        self.perform(effect)?;
        self.peer = Peer::Idle { pos, got: true };
        Ok(())
    }

    /// The peer moves past `pos`, and the floor with it.
    fn peer_advance(&mut self, pos: usize) -> Result<(), String> {
        self.peer = match pos + 1 == PLAN.len() {
            true => Peer::Done,
            false => Peer::Idle {
                pos: pos + 1,
                got: false,
            },
        };
        self.refloor()
    }

    /// The peer's peek of its block at `pos`, which changes nothing.
    fn peer_peek(&mut self, pos: usize) -> Result<(), String> {
        let (block, k) = (PEER_BLOCK, key(PEER_BLOCK));
        let before = state_print(&self.st);
        let busy = self.st.busy(&k);
        let peeked = self.st.peek(&k);
        if state_print(&self.st) != before {
            return Err(format!("a peek of block {block} changed the cache"));
        }
        self.peer = match peeked {
            Some(_) if busy => {
                return Err(format!("a peek of block {block} served a slot in flight"))
            }
            Some(Peeked::Ram(data)) if data != bytes_of(block) => {
                return Err(format!("a peek of block {block} served {data:?}"))
            }
            Some(Peeked::Ram(_)) => Peer::Idle { pos, got: true },
            Some(Peeked::File(meta)) => Peer::Reading { pos, meta },
            None => Peer::Offering { pos },
        };
        Ok(())
    }

    /// The peer's next step, if it has one: at most one is enabled at a
    /// time, whatever the others do.
    fn peer_event(&self) -> Option<Event> {
        let block = PEER_BLOCK;
        match &self.peer {
            &Peer::Idle { pos, got } if got || PLAN[pos] != block => {
                Some(Event::PeerAdvance { pos })
            }
            &Peer::Idle { pos, .. } => Some(Event::PeerPeek { pos, block }),
            Peer::Reading { meta, .. } => Some(Event::PeerRead {
                block,
                ok: self.read_ok(meta),
            }),
            Peer::Offering { .. } => Some(Event::Offer { block }),
            Peer::Done | Peer::Stopped { .. } | Peer::Gone => None,
        }
    }

    /// `flush_spills`'s critical section: wait while orders are queued or
    /// being written.
    fn flush(&mut self) {
        self.phase = match self.st.flushed() {
            true => Phase::Checkpointed,
            false => Phase::Flushing,
        };
    }

    /// `next_spill`'s critical section: wait while there is no order, else
    /// take one — or, none to write, exit once the handle is dropping.
    fn take_spill(&mut self) -> Result<(), String> {
        if self.st.writer_idle() {
            self.writer = Writer::Waiting;
            return Ok(());
        }
        let disk_only: Vec<BlockKey> = (self.st.slots.iter())
            .filter(|(_, slot)| matches!(slot, Slot::Disk(_)))
            .map(|(key, _)| *key)
            .collect();
        let (spill, effect) = self.st.take_spill();
        self.st.check();
        // Files that duplicate a RAM resident are reclaimed first.
        let evicted = disk_only.iter().any(|k| !self.st.slots.contains_key(k));
        if evicted && !self.st.backed.is_empty() {
            return Err("the disk tier evicted a disk-only block before a duplicate".into());
        }
        let exit = self.st.shutdown;
        self.perform(effect)?;
        self.writer = match spill {
            None if exit => Writer::Exited,
            None => Writer::Idle,
            Some(spill) if spill.delete.is_empty() => Writer::Writing(spill),
            Some(spill) => Writer::Deleting(spill),
        };
        Ok(())
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
            && self.prefetch == Prefetch::Done
            && self.reads.is_empty()
            && matches!(
                self.peer,
                Peer::Idle { .. } | Peer::Done | Peer::Stopped { .. } | Peer::Gone
            )
    }

    /// Whether the cache is up for the peer's calls.
    fn serving(&self) -> bool {
        matches!(
            self.phase,
            Phase::Serving | Phase::Flushing | Phase::Checkpointed
        )
    }

    /// Every event enabled here.
    fn events(&self, persist: bool) -> Vec<Event> {
        let mut out = Vec::new();
        if self.phase == Phase::Closed {
            return out;
        }
        for (actor, _) in self.parks() {
            if self.notified[actor as usize] {
                out.push(Event::Wakes(actor));
            }
        }
        match &self.worker {
            Worker::Ready { pos, .. } => out.push(Event::Access {
                pos: *pos,
                block: PLAN[*pos],
            }),
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
            // The floor has not moved since it parked, and is not stalled.
            &Worker::Lockstep { pos, floor } => {
                if floor == self.st.floor && !self.st.floor_stalled {
                    out.push(Event::Patience { pos });
                }
            }
            Worker::Waiting { .. } | Worker::Done => {}
        }
        if let Prefetch::Walking(pos) = self.prefetch {
            let block = PLAN[pos];
            out.push(Event::Issue { pos, block });
        }
        // The daemon stops the prefetcher once its worker is done — or
        // sooner, when a serve fails: here, while it is parked.
        let parked = matches!(self.prefetch, Prefetch::Waiting(_));
        let ends = parked || matches!(self.worker, Worker::Done);
        if ends && !self.st.prefetch_stopped && self.prefetch != Prefetch::Done {
            out.push(Event::StopPrefetcher);
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
            Writer::Idle if self.st.writer_idle() => out.push(Event::WriterParks),
            Writer::Idle => {
                let (spill, _) = fork_state(&self.st, &mut HashMap::new()).take_spill();
                let block = spill.map(|spill| spill.key.start);
                out.push(Event::TakeSpill { block });
            }
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
            Writer::Waiting | Writer::Exited => {}
        }
        // Between calls the peer needs the cache up; inside one, it ends it.
        let idle = matches!(self.peer, Peer::Idle { .. });
        if self.serving() || !idle {
            out.extend(self.peer_event());
        }
        // Without `persist`, the peer may stop at the plan's head: a live
        // member that never reads, whose floor stalls for good.
        if let (Peer::Idle { pos: 0, .. }, true) = (&self.peer, !persist && self.serving()) {
            out.push(Event::PeerStops { pos: 0 });
        }
        match &self.phase {
            // The daemon checkpoints once its workers are done.
            Phase::Serving if persist && matches!(self.worker, Worker::Done) => {
                out.push(Event::Checkpoint)
            }
            Phase::Serving if !persist && self.serving_done() => out.push(Event::Shutdown),
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
            Event::Access { pos, .. } => {
                let Worker::Ready { accounted, .. } = self.worker else {
                    unreachable!()
                };
                self.access(*pos, accounted)?;
            }
            Event::Wakes(actor) => {
                // The wait loop checks its condition again: it goes on, or
                // parks again.
                self.notified[*actor as usize] = false;
                match (actor, &self.worker, self.prefetch) {
                    (Actor::Worker, &Worker::Waiting { pos, accounted }, _) => {
                        self.access(pos, accounted)?
                    }
                    (Actor::Worker, &Worker::Lockstep { pos, .. }, _) => self.access(pos, false)?,
                    (Actor::Prefetcher, _, Prefetch::Waiting(pos)) => self.issue(pos)?,
                    (Actor::Writer, ..) => self.take_spill()?,
                    (Actor::Daemon, ..) => self.flush(),
                    _ => unreachable!("{actor:?} is not parked"),
                }
            }
            Event::Fetched { block, ok } => {
                let Worker::Fetching { pos, claim } =
                    std::mem::replace(&mut self.worker, Worker::Done)
                else {
                    unreachable!()
                };
                self.settle(claim, ok.then(|| bytes_of(*block)))?;
                self.next_access(pos);
            }
            Event::PromoteRead { block, ok } => {
                let Worker::Promoting { pos, claim } =
                    std::mem::replace(&mut self.worker, Worker::Done)
                else {
                    unreachable!()
                };
                if *ok {
                    self.settle(claim, Some(bytes_of(*block)))?;
                    self.next_access(pos);
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
                self.settle(claim, None)?;
                self.worker = Worker::Ready {
                    pos,
                    accounted: true,
                };
            }
            Event::Issue { pos, .. } => self.issue(*pos)?,
            Event::StopPrefetcher => {
                let effect = self.st.stop_prefetch();
                self.st.check();
                self.perform(effect)?;
            }
            Event::StageRead { block, ok } => {
                let i = self.read_of(*block);
                if *ok {
                    let read = self.reads.remove(i);
                    self.settle(read.claim, Some(bytes_of(*block)))?;
                } else if self.reads[i].claim.file.is_some() {
                    let file = self.st.retire(&key(*block));
                    self.st.check();
                    self.reads[i].retired = Some(file);
                } else {
                    let read = self.reads.remove(i);
                    self.settle(read.claim, None)?;
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
                self.settle(read.claim, None)?;
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
                self.settle(claim, None)?;
            }
            Event::TakeSpill { .. } | Event::WriterParks => self.take_spill()?,
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
                let (orphan, effect) = self.st.land_spill(key, meta);
                self.st.check();
                self.perform(effect)?;
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
            Event::PeerRead { block, ok } => {
                let Peer::Reading { pos, meta } = std::mem::replace(&mut self.peer, Peer::Done)
                else {
                    unreachable!()
                };
                // A valid read returns the bytes the file was written with.
                let served = block_of_path(&meta.path);
                if *ok && served != *block {
                    return Err(format!(
                        "a peek of block {block} served block {served}'s file"
                    ));
                }
                self.peer = match ok {
                    true => Peer::Idle { pos, got: true },
                    false => Peer::Offering { pos },
                };
            }
            Event::PeerPeek { pos, .. } => self.peer_peek(*pos)?,
            Event::Offer { .. } => {
                let Peer::Offering { pos } = self.peer else {
                    unreachable!()
                };
                self.offer(pos)?;
            }
            Event::PeerAdvance { pos } => self.peer_advance(*pos)?,
            Event::PeerStops { pos } => self.peer = Peer::Stopped { pos: *pos },
            Event::Patience { pos } => {
                let effect = self.st.stall_floor();
                self.st.check();
                self.perform(effect)?;
                self.access(*pos, false)?;
            }
            Event::Checkpoint => {
                let effect = self.st.checkpoint();
                self.st.check();
                self.perform(effect)?;
                self.flush();
            }
            Event::Shutdown => {
                let effect = self.st.shut_down();
                self.st.check();
                self.perform(effect)?;
                self.phase = Phase::ShuttingDown;
            }
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

    /// The blocks in RAM that the keep rule holds: read here at a plan
    /// position in `[floor, cursor)`, not yet by the peer.
    fn lagging(&self) -> Vec<usize> {
        let end = (self.st.cursor as usize).min(PLAN.len());
        let start = (self.st.floor as usize).min(end);
        let ram = |b: &usize| matches!(self.st.slots.get(&key(*b)), Some(Slot::Ram(..)));
        PLAN[start..end].iter().copied().filter(ram).collect()
    }

    /// The keep rule held over a step: `blocks`, held before it, are
    /// still in RAM.
    fn kept(&self, blocks: &[usize]) -> Result<(), String> {
        for &b in blocks {
            if !matches!(self.st.slots.get(&key(b)), Some(Slot::Ram(..))) {
                return Err(format!(
                    "block {b} left RAM before the peer read it (floor {}, cursor {})",
                    self.st.floor, self.st.cursor
                ));
            }
        }
        Ok(())
    }

    /// The floor can move without this cache: while it serves, the peer's
    /// own steps alone take it past its position.
    fn peer_moves_alone(&self) -> Result<(), String> {
        if !self.serving() || matches!(self.peer, Peer::Done | Peer::Stopped { .. } | Peer::Gone) {
            return Ok(());
        }
        if matches!(self.peer_event(), Some(Event::PeerAdvance { .. })) {
            return Ok(());
        }
        let mut alone = self.fork();
        // Peek, read the file, offer, move on.
        for _ in 0..4 {
            match alone.peer_event() {
                Some(Event::PeerAdvance { .. }) => return Ok(()),
                Some(ev) => alone.apply(&ev, false)?,
                None => break,
            }
        }
        Err("the peer cannot move on without this cache".into())
    }

    /// What must hold in every reachable state (once closed, the files
    /// the core's drop leaves: `check_terminal` looks at them).
    fn check(&self) -> Result<(), String> {
        if self.phase == Phase::Closed {
            return Ok(());
        }
        self.peer_moves_alone()?;
        // No wake-up is lost.
        for (actor, cv) in self.parks() {
            if !self.notified[actor as usize] && self.ready(actor) {
                return Err(format!(
                    "lost wake-up: the {actor:?} is parked on {cv:?} with its condition true \
                     and no notify pending"
                ));
            }
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
            Peer::Reading { meta, .. } => Some(meta),
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
            Worker::Waiting { pos, accounted } => out.extend([7, *pos as u8, u8::from(*accounted)]),
            Worker::Lockstep { pos, floor } => out.extend([8, *pos as u8, *floor as u8]),
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
            Worker::Done => out.push(6),
        }
        out.extend(match self.prefetch {
            Prefetch::Walking(pos) => [0, pos as u8],
            Prefetch::Waiting(pos) => [1, pos as u8],
            Prefetch::Done => [3, 0],
        });
        out.extend(self.notified.map(u8::from));
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
            Writer::Waiting => out.push(6),
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
            &Peer::Idle { pos, got } => out.extend([0, pos as u8, u8::from(got)]),
            Peer::Reading { pos, meta } => out.extend([1, *pos as u8, file_print(Some(meta))]),
            Peer::Offering { pos } => out.extend([2, *pos as u8]),
            Peer::Done => out.push(3),
            Peer::Gone => out.push(4),
            Peer::Stopped { pos } => out.extend([5, *pos as u8]),
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
        st.floor,
    ];
    out.extend(scalars.map(|v| v as u8));
    out.extend([
        st.reservations as u8,
        u8::from(st.writing),
        u8::from(st.shutdown),
        u8::from(st.prefetch_stopped),
        u8::from(st.floor_stalled),
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
        let lagging = world.lagging();
        (world.events(self.persist).into_iter())
            .map(|ev| {
                let mut next = world.fork();
                let step = catch_unwind(AssertUnwindSafe(|| {
                    next.apply(&ev, self.persist)?;
                    if !matches!(ev, Event::CrashAndRestart) {
                        next.kept(&lagging)?;
                    }
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
        // No deadlock: closing needs every actor done.
        if world.phase != Phase::Closed {
            return Err(format!(
                "deadlock: no event is enabled in {:?}, with {:?} parked",
                world.phase,
                world.parks()
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
        states: 740_556,
        transitions: 2_864_292,
        terminal: 2_680,
    };
    assert_eq!(explored, expected);
}

/// With `persist`: a checkpoint once the worker is done, the files kept at
/// the drop, and one crash anywhere. The peer does not stop here: the
/// search without `persist` covers a floor that stalls for good.
#[test]
fn every_state_of_a_persistent_cache_survives_a_crash_anywhere() {
    let explored = explore(true);
    let expected = Explored {
        states: 1_448_771,
        transitions: 6_635_352,
        terminal: 12_628,
    };
    assert_eq!(explored, expected);
}
