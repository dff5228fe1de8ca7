//! Cooperative daemon fleet: a peer-to-peer cache tier over shared storage.
//!
//! N daemons over one NFS mount each used to read every unique block once —
//! N× the dataset over a link that only needed to carry it once. Following
//! HDMLP's cooperative-cache design ("Clairvoyant Prefetching for
//! Distributed Machine Learning I/O"), this module makes the per-daemon
//! caches one logical tier:
//!
//! * **Owners from the plan.** Every block has exactly one *owning*
//!   daemon. Once a member cache installs its plan, the registry deals the
//!   plan's blocks round-robin over the sorted member ids, in the order each
//!   first appears: an exact split. [`HashRing`] — consistent hashing
//!   (FNV-1a, virtual nodes) — owns only the keys no enrolled plan names,
//!   which is every key of a fleet without member caches. Members join
//!   before serving starts and never leave.
//! * [`FleetRegistry`] — the shared membership + transport directory, plus
//!   fleet-wide single-flight: concurrent misses of the same block anywhere
//!   in the fleet coalesce onto one storage read, and the winner's bytes
//!   are handed to every waiter directly. Up to `flight_retain` completed
//!   flights (256 by default) are retained, outside every cache's budget,
//!   for late arrivals: while they cover the blocks in play a fleet reads
//!   each block once, and otherwise about once per epoch.
//! * **One stager per block.** A cache attached through a [`LocalPeer`] is
//!   a member: it stages only the blocks it owns, passes the others
//!   through, and keeps each block it staged until the fleet's slowest
//!   member has read it — the registry hands every member that *floor*.
//!   The members serve one plan, checked by a digest, and walk it in
//!   lockstep: a member claims a plan position only once the floor has
//!   reached it ([`FleetRegistry`] has the rules).
//! * [`PeerTransport`] — the fetch/offer seam between daemons. The harness
//!   uses in-process [`LocalPeer`] handles over `Weak<ShardCache>`; a
//!   socket transport plugs in here later without touching the protocol.
//! * [`PeerSource`] — the [`RangeSource`] decorator: non-owners fetch a
//!   block from its owner's RAM/disk tier, where the owner staged it, or
//!   follow the owner's read while it is in flight (bounded by
//!   [`PeerConfig::timeout`]), before falling back to the inner source, and
//!   degrade gracefully to direct storage when the owner is down or slow.
//!
//! `emlio-core`'s `ReadStack` places the layer under the daemon's metering
//! (its docs have the whole order): peer-served reads carry
//! [`ReadOrigin::Peer`], which the metering layer above does *not* count
//! as a storage read — so `storage_reads` aggregated across a fleet counts
//! each block about once per epoch (once in all while the retained flights
//! cover the dataset), not once per daemon.

use crate::cache::ShardCache;
use bytes::Bytes;
use emlio_obs::{Stage, StageRecorder};
use emlio_tfrecord::source::{BlockKey, BlockRead, RangeSource, ReadOrigin};
use emlio_tfrecord::RecordError;
use emlio_util::fnv1a;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

/// Virtual nodes per peer on the ring: enough to spread ownership evenly
/// across a handful of daemons.
const VNODES: u32 = 64;

fn hash_block(key: &BlockKey) -> u64 {
    let mut buf = [0u8; 20];
    buf[..4].copy_from_slice(&key.shard_id.to_le_bytes());
    buf[4..12].copy_from_slice(&(key.start as u64).to_le_bytes());
    buf[12..20].copy_from_slice(&(key.end as u64).to_le_bytes());
    fnv1a(&buf)
}

/// Consistent-hash ring mapping [`BlockKey`]s to owning peer ids.
///
/// Each peer contributes `VNODES` (64) virtual points; a key is owned by the first
/// point clockwise of its hash. Ownership is a function of the *member
/// set* alone — insertion order does not matter (point collisions, already
/// vanishing at 64 bits, tie-break to the lexicographically smaller id) —
/// and adding a peer only moves keys to it.
#[derive(Debug, Default, Clone)]
pub struct HashRing {
    points: BTreeMap<u64, String>,
    peers: Vec<String>,
}

impl HashRing {
    /// An empty ring (every key unowned).
    pub fn new() -> HashRing {
        HashRing::default()
    }

    fn point(peer: &str, vnode: u32) -> u64 {
        fnv1a(format!("{peer}#{vnode}").as_bytes())
    }

    /// Add `peer`'s virtual nodes. Idempotent.
    pub fn add(&mut self, peer: &str) {
        if self.peers.iter().any(|p| p == peer) {
            return;
        }
        for v in 0..VNODES {
            let h = Self::point(peer, v);
            match self.points.get(&h) {
                Some(existing) if existing.as_str() <= peer => {}
                _ => {
                    self.points.insert(h, peer.to_string());
                }
            }
        }
        self.peers.push(peer.to_string());
        self.peers.sort_unstable();
    }

    /// The peer owning `key`: first ring point at or after the key's hash,
    /// wrapping. `None` on an empty ring.
    pub fn owner_of(&self, key: &BlockKey) -> Option<&str> {
        if self.points.is_empty() {
            return None;
        }
        let h = hash_block(key);
        self.points
            .range(h..)
            .next()
            .or_else(|| self.points.iter().next())
            .map(|(_, p)| p.as_str())
    }

    /// Member peer ids, sorted.
    pub fn peers(&self) -> &[String] {
        &self.peers
    }

    /// Number of member peers.
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// Whether the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }
}

/// Result of one peer fetch over a [`PeerTransport`].
#[derive(Debug, Clone)]
pub enum PeerFetch {
    /// The owner had the block resident; here are its bytes.
    Hit(Bytes),
    /// The owner is reachable but does not hold the block.
    Miss,
    /// The owner is down, detached, or did not answer within the timeout.
    Unavailable,
}

/// The wire seam between fleet daemons.
///
/// The contention harness and tests use in-process [`LocalPeer`] handles; a
/// real deployment substitutes a socket transport without changing the
/// protocol above it. Implementations must bound `fetch` by `timeout`
/// themselves (returning [`PeerFetch::Unavailable`] on expiry) — the
/// caller cannot preempt a synchronous call.
pub trait PeerTransport: Send + Sync {
    /// Ask the peer for `key`'s bytes from its resident tiers.
    fn fetch(&self, key: &BlockKey, timeout: Duration) -> PeerFetch;

    /// Best-effort push of freshly-read bytes into the *owner*'s tier, so
    /// a non-owner's storage fallback still populates the block where the
    /// fleet will look for it next. Default: drop the offer.
    fn offer(&self, key: &BlockKey, data: &Bytes) {
        let _ = (key, data);
    }

    /// One-line description (for stack descriptions and logs).
    fn describe(&self) -> String {
        "peer".to_string()
    }

    /// The cache this transport serves from, when it lives in this process:
    /// attached, it becomes a fleet member ([`FleetRegistry::attach`]).
    /// Default: none.
    fn member(&self) -> Option<Weak<ShardCache>> {
        None
    }
}

/// In-process [`PeerTransport`]: a weak handle onto another daemon's
/// [`ShardCache`]. Fetches [`peek`](crate::CacheCore::peek) (never perturbing
/// the owner's accounting), offers [`insert`](crate::CacheCore::insert) (a no-op
/// when the owner already has, or is fetching, the block). A dropped
/// daemon's dead handle reports [`PeerFetch::Unavailable`] — exactly the
/// crash-degradation path.
pub struct LocalPeer {
    cache: Weak<ShardCache>,
}

impl LocalPeer {
    /// A transport serving from `cache`'s resident tiers.
    pub fn new(cache: &Arc<ShardCache>) -> Arc<LocalPeer> {
        Arc::new(LocalPeer {
            cache: Arc::downgrade(cache),
        })
    }
}

impl PeerTransport for LocalPeer {
    fn fetch(&self, key: &BlockKey, _timeout: Duration) -> PeerFetch {
        match self.cache.upgrade() {
            None => PeerFetch::Unavailable,
            Some(cache) => match cache.peek(key) {
                Some(data) => PeerFetch::Hit(data),
                None => PeerFetch::Miss,
            },
        }
    }

    fn offer(&self, key: &BlockKey, data: &Bytes) {
        if let Some(cache) = self.cache.upgrade() {
            cache.insert(*key, data.clone());
        }
    }

    fn describe(&self) -> String {
        "local".to_string()
    }

    fn member(&self) -> Option<Weak<ShardCache>> {
        Some(self.cache.clone())
    }
}

/// A chaos decorator over any [`PeerTransport`], replaying a seeded
/// injector at the `peer.fetch` failpoint: injected **errors** model a
/// dropped/crashed peer ([`PeerFetch::Unavailable`]), **short reads**
/// model a peer that answers but no longer holds the block
/// ([`PeerFetch::Miss`]) — both degrade the caller to its inner source,
/// never to wrong bytes — and **latency** models a slow peer (the fetch
/// stalls, then proceeds). Offers pass through untouched.
pub struct ChaosPeer {
    inner: Arc<dyn PeerTransport>,
    injector: Arc<emlio_util::fault::FaultInjector>,
}

impl ChaosPeer {
    /// Wrap `inner`, consulting `injector` once per fetch.
    pub fn new(
        inner: Arc<dyn PeerTransport>,
        injector: Arc<emlio_util::fault::FaultInjector>,
    ) -> Arc<ChaosPeer> {
        Arc::new(ChaosPeer { inner, injector })
    }
}

impl PeerTransport for ChaosPeer {
    fn fetch(&self, key: &BlockKey, timeout: Duration) -> PeerFetch {
        use emlio_util::fault::FaultDecision;
        match self.injector.decide(emlio_util::fault::site::PEER_FETCH) {
            FaultDecision::Error => PeerFetch::Unavailable,
            FaultDecision::ShortRead => PeerFetch::Miss,
            FaultDecision::Latency(d) => {
                std::thread::sleep(d);
                self.inner.fetch(key, timeout)
            }
            FaultDecision::None => self.inner.fetch(key, timeout),
        }
    }

    fn offer(&self, key: &BlockKey, data: &Bytes) {
        self.inner.offer(key, data);
    }

    fn describe(&self) -> String {
        format!(
            "chaos(seed {}) -> {}",
            self.injector.plan().seed(),
            self.inner.describe()
        )
    }

    fn member(&self) -> Option<Weak<ShardCache>> {
        self.inner.member()
    }
}

/// One fleet-wide single-flight slot: the leader publishes the block's
/// bytes (or failure) and every follower takes them directly — a payload
/// handoff, not just dedup.
struct FlightSlot {
    state: Mutex<FlightState>,
    cv: Condvar,
}

enum FlightState {
    Pending,
    Done(Bytes),
    Failed,
}

impl FlightSlot {
    fn new() -> FlightSlot {
        FlightSlot {
            state: Mutex::new(FlightState::Pending),
            cv: Condvar::new(),
        }
    }

    /// Wait for the leader's outcome until `deadline`. `None` on failure
    /// or expiry (the caller falls back to its inner source).
    fn wait(&self, deadline: Instant) -> Option<Bytes> {
        let mut state = self.state.lock();
        loop {
            match &*state {
                FlightState::Done(data) => return Some(data.clone()),
                FlightState::Failed => return None,
                FlightState::Pending => {
                    if Instant::now() >= deadline {
                        return None;
                    }
                    self.cv.wait_until(&mut state, deadline);
                }
            }
        }
    }
}

struct FlightTable {
    slots: HashMap<BlockKey, Arc<FlightSlot>>,
    /// Completed flights in completion order; bounded by `flight_retain`.
    done: VecDeque<BlockKey>,
}

struct Membership {
    ring: HashRing,
    transports: HashMap<String, Arc<dyn PeerTransport>>,
    /// The owners the enrolled plan's blocks were dealt.
    assigned: Option<Assignment>,
    /// Each member's peer timeout, as its [`PeerSource`] was configured.
    timeouts: HashMap<String, Duration>,
}

impl Membership {
    /// `key`'s owner: the enrolled plan's, else the ring's.
    fn owner_of(&self, key: &BlockKey) -> Option<&str> {
        let dealt = (self.assigned.as_ref()).and_then(|a| Some(a.ids[*a.owner.get(key)?].as_str()));
        dealt.or_else(|| self.ring.owner_of(key))
    }
}

/// A plan's blocks dealt to the members: round-robin over the sorted
/// member ids, in the order each block first appears in the plan, so each
/// member owns ⌊n/m⌋ or ⌈n/m⌉ of its n blocks.
struct Assignment {
    /// The digest of the plan dealt.
    digest: u64,
    ids: Vec<String>,
    /// Each block's owner, an index into `ids`.
    owner: HashMap<BlockKey, usize>,
}

impl Assignment {
    fn deal(digest: u64, ids: &[String], seq: &[BlockKey]) -> Assignment {
        let mut owner = HashMap::new();
        if !ids.is_empty() {
            for key in seq {
                let next = owner.len() % ids.len();
                owner.entry(*key).or_insert(next);
            }
        }
        let ids = ids.to_vec();
        Assignment { digest, ids, owner }
    }
}

/// What a member cache takes from the registry with its plan: the plan's
/// keys another member owns, and how long it waits on a floor that does
/// not move before it gives up on it (its peer timeout).
#[derive(Default)]
pub(crate) struct Enrollment {
    pub(crate) foreign: HashSet<BlockKey>,
    pub(crate) patience: Duration,
}

/// A member cache's place in the plan the fleet serves.
struct Enrolled {
    digest: u64,
    len: u64,
    cursor: u64,
}

impl Enrolled {
    /// Still serving: it has positions left to read.
    fn serving(&self) -> bool {
        self.cursor < self.len
    }
}

/// The member caches, for the floor: each one's plan once installed, the
/// floor last handed out, and the most positions a member's cursor has been
/// ahead of the floor.
#[derive(Default)]
struct Members {
    caches: HashMap<String, (Weak<ShardCache>, Option<Enrolled>)>,
    floor: Option<u64>,
    lead_peak: u64,
}

/// The fleet's shared state: membership, per-peer transports, block
/// ownership, the member caches' cursors and the fleet-wide single-flight
/// table. One registry per fleet, shared by every [`PeerSource`] via `Arc`.
///
/// **One stager per block.** A cache attached through a transport that
/// lives in this process ([`LocalPeer`]) is a *member*: once it installs
/// its plan ([`CacheCore::try_set_plan`](crate::CacheCore::try_set_plan)),
/// its prefetch executor stages only the blocks it owns, its RAM passes
/// other members' blocks through (their owner serves them), and it keeps
/// each block it staged until the fleet's slowest member has read it. The
/// members serve one plan, which a digest checks: a member's cursor is a
/// position in it, and each cursor it moves comes here
/// ([`CacheCore`](crate::CacheCore)'s `perform`), which hands every member
/// the least of the live members' cursors — the *floor*. A member whose
/// cache is gone, or that has read its whole plan, leaves the floor.
///
/// **Owners come from the plan.** The first member to enroll a plan deals
/// its blocks round-robin over the sorted ids of the members that
/// [`join`](FleetRegistry::join)ed, in the order each block first appears
/// in the plan, so the members' RAM tiers split the plan exactly;
/// [`owner_of`](FleetRegistry::owner_of) answers from that deal, and the
/// ring only for keys the plan does not name. A different plan, which a
/// member's install accepts once no other live member still serves the
/// old one, is dealt afresh.
///
/// **Lockstep.** A member claims plan position `p` only once the floor has
/// reached `p` — every live member still serving has claimed every
/// position before it, and a member attached but not yet enrolled is at
/// the plan's head — so no member runs ahead of the others and the blocks
/// each keeps for a slower one are few. At least one member is at the
/// floor, so someone can always move. A floor that has not moved for a
/// member's peer timeout ([`PeerConfig::timeout`], which the registry
/// learns from the member's [`PeerSource`]) is *stalled*: that member
/// stops waiting on it until it next moves, so a member that stops
/// reading costs the others one timeout, not the rest of the run.
pub struct FleetRegistry {
    members: Mutex<Membership>,
    caches: Mutex<Members>,
    flights: Mutex<FlightTable>,
    flight_retain: usize,
}

impl FleetRegistry {
    /// A fresh registry retaining the default window of completed flights
    /// (enough for a whole smoke-scale epoch of handoffs).
    pub fn new() -> Arc<FleetRegistry> {
        Self::with_flight_retain(256)
    }

    /// A registry retaining up to `retain` completed flights. Retained
    /// flights let late arrivals take a cold-start block's bytes without
    /// re-reading storage (bounded FIFO, so memory stays capped); 0
    /// disables retention (pure dedup of concurrent misses).
    pub fn with_flight_retain(retain: usize) -> Arc<FleetRegistry> {
        Arc::new(FleetRegistry {
            members: Mutex::new(Membership {
                ring: HashRing::new(),
                transports: HashMap::new(),
                assigned: None,
                timeouts: HashMap::new(),
            }),
            caches: Mutex::new(Members::default()),
            flights: Mutex::new(FlightTable {
                slots: HashMap::new(),
                done: VecDeque::new(),
            }),
            flight_retain: retain,
        })
    }

    /// Add `id` to the fleet's members (and its ownership ring). Join every
    /// member *before* serving starts so all daemons compute identical
    /// ownership; attach the transport separately once the daemon's cache
    /// exists ([`FleetRegistry::attach`]).
    pub fn join(&self, id: &str) {
        self.members.lock().ring.add(id);
    }

    /// Publish `id`'s transport (how other daemons reach its tiers). A
    /// transport over a cache in this process makes that cache a member:
    /// attach it after every member has [`join`](FleetRegistry::join)ed
    /// and before it installs its plan.
    pub fn attach(self: &Arc<Self>, id: &str, transport: Arc<dyn PeerTransport>) {
        if let Some(cache) = transport.member() {
            if let Some(live) = cache.upgrade() {
                live.join_fleet(self.clone(), id);
            }
            let mut table = self.caches.lock();
            table.caches.insert(id.to_string(), (cache, None));
            self.refloor_locked(table);
        }
        self.members
            .lock()
            .transports
            .insert(id.to_string(), transport);
    }

    /// Member `id` installs `seq` as its plan, at its head: the keys of
    /// `seq` another member owns, dealt from the plan when it is a new one
    /// (see the type's docs), and the member's patience with a floor that
    /// does not move. Fails when another live member still serves a
    /// different plan.
    pub(crate) fn enroll(&self, id: &str, seq: &[BlockKey]) -> Result<Enrollment, String> {
        let bytes: Vec<u8> = (seq.iter())
            .flat_map(|k| [u64::from(k.shard_id), k.start as u64, k.end as u64])
            .flat_map(u64::to_le_bytes)
            .collect();
        let digest = fnv1a(&bytes);
        let mut table = self.caches.lock();
        for (other, (cache, plan)) in &table.caches {
            let serving = plan
                .as_ref()
                .filter(|p| p.serving() && cache.strong_count() > 0);
            if other != id && serving.is_some_and(|p| p.digest != digest) {
                return Err(format!(
                    "fleet member {id}'s plan is not member {other}'s: \
                     the members of one fleet serve the same plan"
                ));
            }
        }
        if let Some((_, plan)) = table.caches.get_mut(id) {
            let len = seq.len() as u64;
            *plan = Some(Enrolled {
                digest,
                len,
                cursor: 0,
            });
        }
        let enrollment = {
            let mut members = self.members.lock();
            if members.assigned.as_ref().map(|a| a.digest) != Some(digest) {
                let dealt = Assignment::deal(digest, members.ring.peers(), seq);
                members.assigned = Some(dealt);
            }
            let foreign = |key: &&BlockKey| members.owner_of(key).is_some_and(|o| o != id);
            Enrollment {
                foreign: seq.iter().filter(foreign).copied().collect(),
                patience: (members.timeouts.get(id).copied())
                    .unwrap_or_else(|| PeerConfig::default().timeout),
            }
        };
        self.refloor_locked(table);
        Ok(enrollment)
    }

    /// Member `id`'s demand cursor moved to `cursor`.
    pub(crate) fn advance(&self, id: &str, cursor: u64) {
        let mut table = self.caches.lock();
        if let Some((_, Some(plan))) = table.caches.get_mut(id) {
            plan.cursor = cursor;
        }
        self.refloor_locked(table);
    }

    /// Recompute the floor — a member cache went away.
    pub(crate) fn refloor(&self) {
        self.refloor_locked(self.caches.lock());
    }

    /// The most positions a member's cursor has been ahead of the floor,
    /// over every move of a cursor or the floor (a gauge of how far the
    /// members drift apart: at most 1 while the floor is not stalled).
    pub fn lead_peak(&self) -> u64 {
        self.caches.lock().lead_peak
    }

    /// The floor is the least cursor of the live members still serving —
    /// a member that has not installed its plan yet is at its head; when it
    /// moves, every live member gets it, in order, under the lock.
    fn refloor_locked(&self, mut table: MutexGuard<'_, Members>) {
        let serving = (table.caches.values())
            .filter(|(cache, _)| cache.strong_count() > 0)
            .filter_map(|(_, plan)| match plan {
                None => Some(0),
                Some(plan) => plan.serving().then_some(plan.cursor),
            });
        let (floor, lead) = serving.fold((u64::MAX, 0), |(min, max), c| (min.min(c), max.max(c)));
        if floor == u64::MAX {
            return;
        }
        table.lead_peak = table.lead_peak.max(lead - floor);
        if table.floor == Some(floor) {
            return;
        }
        table.floor = Some(floor);
        let live: Vec<Arc<ShardCache>> = (table.caches.values())
            .filter(|(_, plan)| plan.is_some())
            .filter_map(|(cache, _)| cache.upgrade())
            .collect();
        for cache in &live {
            cache.set_floor(floor);
        }
        // The lock goes first: dropping the last handle to a cache leaves
        // the floor, which takes it again.
        drop(table);
        drop(live);
    }

    /// The member owning `key`: the enrolled plan's owner, else the ring's
    /// (`None` on an empty ring).
    pub fn owner_of(&self, key: &BlockKey) -> Option<String> {
        self.members.lock().owner_of(key).map(str::to_string)
    }

    /// Member ids, sorted.
    pub fn peers(&self) -> Vec<String> {
        self.members.lock().ring.peers().to_vec()
    }

    fn transport_of(&self, id: &str) -> Option<Arc<dyn PeerTransport>> {
        self.members.lock().transports.get(id).cloned()
    }

    /// Join `key`'s flight: `(slot, true)` makes the caller the leader
    /// (it must publish or fail the slot); `(slot, false)` is a follower
    /// (a retained completed flight resolves its wait instantly).
    fn join_flight(&self, key: &BlockKey) -> (Arc<FlightSlot>, bool) {
        let mut table = self.flights.lock();
        if let Some(slot) = table.slots.get(key) {
            return (slot.clone(), false);
        }
        let slot = Arc::new(FlightSlot::new());
        table.slots.insert(*key, slot.clone());
        (slot, true)
    }

    /// Leader success: publish the bytes to every follower and retain the
    /// completed slot (FIFO-capped) for late arrivals.
    fn publish_flight(&self, key: &BlockKey, slot: &Arc<FlightSlot>, data: Bytes) {
        *slot.state.lock() = FlightState::Done(data);
        slot.cv.notify_all();
        let mut table = self.flights.lock();
        table.done.push_back(*key);
        while table.done.len() > self.flight_retain {
            let Some(old) = table.done.pop_front() else {
                break;
            };
            let completed = table
                .slots
                .get(&old)
                .is_some_and(|s| matches!(&*s.state.lock(), FlightState::Done(_)));
            if completed {
                table.slots.remove(&old);
            }
        }
    }

    /// Leader failure: wake followers empty-handed and clear the slot so
    /// the next miss can lead a fresh flight.
    fn fail_flight(&self, key: &BlockKey, slot: &Arc<FlightSlot>) {
        *slot.state.lock() = FlightState::Failed;
        slot.cv.notify_all();
        let mut table = self.flights.lock();
        if table.slots.get(key).is_some_and(|s| Arc::ptr_eq(s, slot)) {
            table.slots.remove(key);
        }
    }
}

/// Peer-tier knobs.
#[derive(Debug, Clone)]
pub struct PeerConfig {
    /// Bound on one peer fetch *and* on waiting for a fleet flight; past
    /// it the read degrades to the inner (storage) source.
    pub timeout: Duration,
}

impl Default for PeerConfig {
    fn default() -> Self {
        PeerConfig {
            timeout: Duration::from_millis(500),
        }
    }
}

impl PeerConfig {
    /// Override the peer fetch / flight-wait timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }
}

/// Peer-tier counters (per [`PeerSource`]; `emlio-core`'s metrics snapshot
/// reads them from here).
#[derive(Debug, Default)]
pub struct PeerStats {
    /// Blocks served by a peer's tier or a fleet flight handoff.
    pub hits: AtomicU64,
    /// Fetches the owner answered but did not hold (the fleet then reads
    /// storage once, single-flight).
    pub misses: AtomicU64,
    /// Reads that degraded to the inner source: owner down/detached, fetch
    /// or flight wait timed out, or a flight failed.
    pub fallbacks: AtomicU64,
    /// Payload bytes that arrived from peers instead of storage.
    pub bytes_from_peers: AtomicU64,
}

impl PeerStats {
    /// Plain-value copy of every counter.
    pub fn snapshot(&self) -> PeerStatsSnapshot {
        PeerStatsSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            bytes_from_peers: self.bytes_from_peers.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time values of [`PeerStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerStatsSnapshot {
    /// Blocks served by a peer or a flight handoff.
    pub hits: u64,
    /// Owner-reachable fetches that found nothing resident.
    pub misses: u64,
    /// Reads degraded to the inner source.
    pub fallbacks: u64,
    /// Payload bytes that arrived from peers instead of storage.
    pub bytes_from_peers: u64,
}

/// A fleet flight this daemon leads. Dropping it unpublished fails the
/// flight — on every error path, and if the inner read panics — so no
/// `Pending` slot outlives its leader: followers wake empty-handed and the
/// next miss leads a fresh flight.
struct LedFlight<'a> {
    registry: &'a FleetRegistry,
    key: BlockKey,
    slot: Arc<FlightSlot>,
    /// The block's home tier when another daemon owns it: gets the bytes
    /// offered. `None` for our own keys — the cache layer above this very
    /// daemon admits them.
    owner: Option<Arc<dyn PeerTransport>>,
    published: bool,
}

impl LedFlight<'_> {
    /// Leader success: offer the bytes to the owner and hand them to every
    /// follower, present and (while the flight is retained) late.
    fn publish(mut self, data: &Bytes) {
        if let Some(owner) = &self.owner {
            owner.offer(&self.key, data);
        }
        self.registry
            .publish_flight(&self.key, &self.slot, data.clone());
        self.published = true;
    }
}

impl Drop for LedFlight<'_> {
    fn drop(&mut self) {
        if !self.published {
            self.registry.fail_flight(&self.key, &self.slot);
        }
    }
}

/// The cooperative-fleet layer of the read stack.
///
/// Every key resolves against its owner first
/// ([`FleetRegistry::owner_of`]):
///
/// 1. **Self-owned**: join the fleet flight — lead it (read the inner
///    source, publish) or follow a read already under way, so concurrent
///    non-owner misses coalesce onto one storage read.
/// 2. **Peer-owned**: fetch from the owner's tiers. A hit returns with
///    [`ReadOrigin::Peer`] (not a storage read). A miss joins the fleet
///    flight as above, the leader also offering the bytes to the owner.
///    Unavailable/slow owners and expired flight waits fall back to the
///    inner source directly — the fleet degrades to N independent
///    daemons, never to a stall.
/// 3. **No owner** (no member joined): transparent pass-through.
///
/// A read leads or follows, never both: the leader reads the inner source
/// and publishes before it returns, and a follower holds no unpublished
/// flight while it waits — so daemons whose windows cross (each leading
/// what the other follows) cannot deadlock, whatever order their
/// executors issue the reads in.
pub struct PeerSource {
    registry: Arc<FleetRegistry>,
    self_id: String,
    inner: Arc<dyn RangeSource>,
    config: PeerConfig,
    stats: Arc<PeerStats>,
    recorder: OnceLock<Arc<StageRecorder>>,
}

impl PeerSource {
    /// A fleet layer for daemon `self_id` over `inner` (typically an
    /// `NfsSource`), coordinating through `registry`.
    pub fn new(
        registry: Arc<FleetRegistry>,
        self_id: &str,
        inner: Arc<dyn RangeSource>,
        config: PeerConfig,
    ) -> Arc<PeerSource> {
        // The member's patience with a floor that does not move.
        (registry.members.lock().timeouts).insert(self_id.to_string(), config.timeout);
        Arc::new(PeerSource {
            registry,
            self_id: self_id.to_string(),
            inner,
            config,
            stats: Arc::new(PeerStats::default()),
            recorder: OnceLock::new(),
        })
    }

    /// Peer-tier counters.
    pub fn stats(&self) -> Arc<PeerStats> {
        self.stats.clone()
    }

    /// The fleet registry this source coordinates through.
    pub fn registry(&self) -> &Arc<FleetRegistry> {
        &self.registry
    }

    /// Record successful peer fetches as [`Stage::PeerFetch`] latency.
    /// First call wins.
    pub fn set_recorder(&self, recorder: Arc<StageRecorder>) {
        let _ = self.recorder.set(recorder);
    }

    /// Account and wrap a peer-served block.
    fn peer_read(&self, data: Bytes, since: Instant) -> BlockRead {
        let read_nanos = since.elapsed().as_nanos() as u64;
        self.stats.hits.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_from_peers
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        if let Some(rec) = self.recorder.get() {
            rec.record(Stage::PeerFetch, read_nanos);
        }
        BlockRead {
            data,
            origin: ReadOrigin::Peer,
            read_nanos,
        }
    }
}

impl RangeSource for PeerSource {
    fn read_block(&self, key: &BlockKey) -> Result<BlockRead, RecordError> {
        let Some(owner) = self.registry.owner_of(key) else {
            return self.inner.read_block(key);
        };
        let since = Instant::now();
        // The block's home tier when another daemon owns it.
        let owner = if owner == self.self_id {
            None
        } else {
            let fetched = self
                .registry
                .transport_of(&owner)
                .map(|t| (t.fetch(key, self.config.timeout), t));
            match fetched {
                Some((PeerFetch::Hit(data), _)) => return Ok(self.peer_read(data, since)),
                Some((PeerFetch::Miss, transport)) => {
                    self.stats.misses.fetch_add(1, Ordering::Relaxed);
                    Some(transport)
                }
                // Down, slow, or on the ring but never attached.
                Some((PeerFetch::Unavailable, _)) | None => {
                    self.stats.fallbacks.fetch_add(1, Ordering::Relaxed);
                    return self.inner.read_block(key);
                }
            }
        };
        let (slot, leader) = self.registry.join_flight(key);
        if leader {
            // Nobody in the fleet is reading it yet: read and publish. An
            // error drops `flight` unpublished, which fails it.
            let flight = LedFlight {
                registry: &self.registry,
                key: *key,
                slot,
                owner,
                published: false,
            };
            let read = self.inner.read_block(key)?;
            flight.publish(&read.data);
            return Ok(read);
        }
        // Another reader leads (or led, and the flight is retained): take
        // its bytes, or degrade to the inner source when it failed or is
        // not done within the timeout.
        match slot.wait(Instant::now() + self.config.timeout) {
            Some(data) => Ok(self.peer_read(data, since)),
            None => {
                self.stats.fallbacks.fetch_add(1, Ordering::Relaxed);
                self.inner.read_block(key)
            }
        }
    }

    fn block_len(&self, key: &BlockKey) -> Option<u64> {
        self.inner.block_len(key)
    }

    fn describe(&self) -> String {
        format!(
            "peer({}, fleet={}) -> {}",
            self.self_id,
            self.registry.peers().len(),
            self.inner.describe()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use emlio_tfrecord::FnSource;

    fn key(i: usize) -> BlockKey {
        BlockKey {
            shard_id: 0,
            start: i * 8,
            end: (i + 1) * 8,
        }
    }

    fn counted_source(reads: &Arc<AtomicU64>) -> Arc<dyn RangeSource> {
        let reads = reads.clone();
        Arc::new(FnSource::new(move |k: &BlockKey| {
            reads.fetch_add(1, Ordering::Relaxed);
            Ok(vec![k.start as u8; 64])
        }))
    }

    /// An owner whose tier never has the block resident — the shape of
    /// the insert-while-Busy race, where the owner's own demand fetch
    /// holds the slot and a peer's offer no-ops.
    struct ColdPeer;
    impl PeerTransport for ColdPeer {
        fn fetch(&self, _key: &BlockKey, _timeout: Duration) -> PeerFetch {
            PeerFetch::Miss
        }
    }

    #[test]
    fn ring_partitions_and_moves_minimally() {
        let mut ring = HashRing::new();
        assert!(ring.is_empty());
        assert_eq!(ring.owner_of(&key(0)), None);
        ring.add("a");
        ring.add("b");
        ring.add("c");
        assert_eq!(ring.len(), 3);
        let before: Vec<String> = (0..200)
            .map(|i| ring.owner_of(&key(i)).unwrap().to_string())
            .collect();
        // Every peer owns a share of a 200-key space.
        for p in ["a", "b", "c"] {
            assert!(before.iter().any(|o| o == p), "{p} owns nothing");
        }
        // Adding a peer only moves keys *to* the newcomer.
        ring.add("d");
        for (i, old) in before.iter().enumerate() {
            let now = ring.owner_of(&key(i)).unwrap();
            assert!(now == old || now == "d", "key {i}: {old} -> {now}");
        }
    }

    #[test]
    fn owner_hit_serves_from_peer_cache_without_storage() {
        let registry = FleetRegistry::new();
        registry.join("owner");
        registry.join("other");
        let owner_cache = Arc::new(ShardCache::new(CacheConfig::default()).unwrap());
        registry.attach("owner", LocalPeer::new(&owner_cache));

        let reads = Arc::new(AtomicU64::new(0));
        let src = PeerSource::new(
            registry.clone(),
            "other",
            counted_source(&reads),
            PeerConfig::default(),
        );
        // Find a key owned by "owner" and warm it there.
        let k = (0..100)
            .map(key)
            .find(|k| registry.owner_of(k).as_deref() == Some("owner"))
            .expect("owner owns something");
        owner_cache.insert(k, vec![7u8; 64]);

        let read = src.read_block(&k).unwrap();
        assert_eq!(read.origin, ReadOrigin::Peer);
        assert_eq!(&read.data[..], &[7u8; 64]);
        assert_eq!(reads.load(Ordering::Relaxed), 0, "no storage read");
        let s = src.stats().snapshot();
        assert_eq!((s.hits, s.misses, s.fallbacks), (1, 0, 0));
        assert_eq!(s.bytes_from_peers, 64);
        assert!(src.describe().starts_with("peer(other, fleet=2)"));
    }

    #[test]
    fn owner_miss_reads_storage_once_and_offers_to_owner() {
        let registry = FleetRegistry::new();
        registry.join("owner");
        registry.join("other");
        let owner_cache = Arc::new(ShardCache::new(CacheConfig::default()).unwrap());
        registry.attach("owner", LocalPeer::new(&owner_cache));

        let reads = Arc::new(AtomicU64::new(0));
        let src = PeerSource::new(
            registry.clone(),
            "other",
            counted_source(&reads),
            PeerConfig::default(),
        );
        let k = (0..100)
            .map(key)
            .find(|k| registry.owner_of(k).as_deref() == Some("owner"))
            .unwrap();
        let read = src.read_block(&k).unwrap();
        assert_eq!(read.origin, ReadOrigin::Direct, "leader read storage");
        assert_eq!(reads.load(Ordering::Relaxed), 1);
        // The bytes were offered to the owner's tier…
        assert!(owner_cache.contains(&k), "offer landed");
        // …and the completed flight is retained: a repeat miss takes the
        // handoff instead of re-reading storage.
        owner_cache.peek(&k).unwrap();
        let s = src.stats().snapshot();
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn retained_flight_hands_bytes_to_late_arrivals() {
        let registry = FleetRegistry::new();
        registry.join("a");
        registry.join("b");
        registry.attach("a", Arc::new(ColdPeer));
        let reads_a = Arc::new(AtomicU64::new(0));
        let reads_b = Arc::new(AtomicU64::new(0));
        let a = PeerSource::new(
            registry.clone(),
            "a",
            counted_source(&reads_a),
            PeerConfig::default(),
        );
        let b = PeerSource::new(
            registry.clone(),
            "b",
            counted_source(&reads_b),
            PeerConfig::default(),
        );
        // A key owned by "a", read first by "a" itself (leader), then by
        // "b": the owner's tier reports a miss, so the retained flight
        // must supply the bytes instead of a second storage read.
        let k = (0..100)
            .map(key)
            .find(|k| registry.owner_of(k).as_deref() == Some("a"))
            .unwrap();
        let first = a.read_block(&k).unwrap();
        assert_eq!(first.origin, ReadOrigin::Direct);
        let second = b.read_block(&k).unwrap();
        assert_eq!(second.origin, ReadOrigin::Peer, "flight handoff");
        assert_eq!(first.data, second.data);
        assert_eq!(
            reads_a.load(Ordering::Relaxed) + reads_b.load(Ordering::Relaxed),
            1
        );
        assert!(!registry.flights.lock().done.is_empty(), "flight retained");
    }

    #[test]
    fn dead_owner_degrades_to_inner_with_fallback_counted() {
        let registry = FleetRegistry::new();
        registry.join("owner");
        registry.join("other");
        {
            let dying = Arc::new(ShardCache::new(CacheConfig::default()).unwrap());
            registry.attach("owner", LocalPeer::new(&dying));
            // `dying` drops here: the weak transport handle goes dead.
        }
        let reads = Arc::new(AtomicU64::new(0));
        let src = PeerSource::new(
            registry.clone(),
            "other",
            counted_source(&reads),
            PeerConfig::default(),
        );
        let k = (0..100)
            .map(key)
            .find(|k| registry.owner_of(k).as_deref() == Some("owner"))
            .unwrap();
        let read = src.read_block(&k).unwrap();
        assert_eq!(read.origin, ReadOrigin::Direct);
        assert_eq!(reads.load(Ordering::Relaxed), 1);
        assert_eq!(src.stats().snapshot().fallbacks, 1);
    }

    #[test]
    fn chaos_peer_degrades_never_corrupts() {
        use emlio_util::fault::{site, FaultInjector, FaultPlan, FaultSpec};

        struct WarmPeer;
        impl PeerTransport for WarmPeer {
            fn fetch(&self, _key: &BlockKey, _timeout: Duration) -> PeerFetch {
                PeerFetch::Hit(Bytes::from_static(b"block"))
            }
        }

        // Always-error: every fetch degrades to Unavailable.
        let dropped = ChaosPeer::new(
            Arc::new(WarmPeer),
            FaultInjector::new(
                FaultPlan::new(2).with_site(site::PEER_FETCH, FaultSpec::errors(1.0)),
            ),
        );
        assert!(matches!(
            dropped.fetch(&key(0), Duration::from_millis(10)),
            PeerFetch::Unavailable
        ));
        assert!(dropped.describe().starts_with("chaos(seed 2)"));

        // Always-short: the peer answers Miss, never truncated bytes.
        let forgetful = ChaosPeer::new(
            Arc::new(WarmPeer),
            FaultInjector::new(
                FaultPlan::new(2).with_site(site::PEER_FETCH, FaultSpec::short_reads(1.0)),
            ),
        );
        assert!(matches!(
            forgetful.fetch(&key(0), Duration::from_millis(10)),
            PeerFetch::Miss
        ));

        // Latency: delayed but intact.
        let slow = ChaosPeer::new(
            Arc::new(WarmPeer),
            FaultInjector::new(FaultPlan::new(2).with_site(
                site::PEER_FETCH,
                FaultSpec::latency(1.0, Duration::from_millis(2)),
            )),
        );
        let t0 = Instant::now();
        match slow.fetch(&key(0), Duration::from_millis(50)) {
            PeerFetch::Hit(data) => assert_eq!(&data[..], b"block"),
            other => panic!("expected delayed hit, got {other:?}"),
        }
        assert!(t0.elapsed() >= Duration::from_millis(2));

        // Clear plan: transparent.
        let clear = ChaosPeer::new(Arc::new(WarmPeer), FaultInjector::new(FaultPlan::new(2)));
        assert!(matches!(
            clear.fetch(&key(0), Duration::from_millis(10)),
            PeerFetch::Hit(_)
        ));
    }

    #[test]
    fn empty_ring_is_transparent() {
        let registry = FleetRegistry::new();
        let reads = Arc::new(AtomicU64::new(0));
        let src = PeerSource::new(
            registry,
            "solo",
            counted_source(&reads),
            PeerConfig::default(),
        );
        let read = src.read_block(&key(1)).unwrap();
        assert_eq!(read.origin, ReadOrigin::Direct);
        let s = src.stats().snapshot();
        assert_eq!((s.hits, s.misses, s.fallbacks), (0, 0, 0));
    }

    #[test]
    fn concurrent_misses_coalesce_onto_one_storage_read() {
        let registry = FleetRegistry::new();
        registry.join("a");
        registry.join("b");
        registry.join("c");
        // No transports attached: every remote fetch is a fallback…
        // unless it came through the flight. Use self-owned contention
        // instead: many threads on the owner race one key.
        let reads = Arc::new(AtomicU64::new(0));
        let slow_reads = reads.clone();
        let inner: Arc<dyn RangeSource> = Arc::new(FnSource::new(move |k: &BlockKey| {
            slow_reads.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(20));
            Ok(vec![k.start as u8; 32])
        }));
        let src = PeerSource::new(
            registry.clone(),
            "a",
            inner,
            PeerConfig::default().with_timeout(Duration::from_secs(5)),
        );
        let k = (0..100)
            .map(key)
            .find(|k| registry.owner_of(k).as_deref() == Some("a"))
            .unwrap();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let src = &src;
                s.spawn(move || {
                    let read = src.read_block(&k).unwrap();
                    assert_eq!(&read.data[..], &[k.start as u8; 32]);
                });
            }
        });
        assert_eq!(reads.load(Ordering::Relaxed), 1, "single-flight");
    }

    #[test]
    fn failed_led_flight_leaves_no_pending_slot() {
        let registry = FleetRegistry::new();
        registry.join("a");
        registry.join("b");
        registry.attach("a", Arc::new(ColdPeer));
        registry.attach("b", Arc::new(ColdPeer));
        // Keys of either owner: "a" leads each flight whoever owns it.
        let keys: Vec<BlockKey> = (0..6).map(key).collect();
        // "a"'s storage is down: every read it leads fails.
        let broken: Arc<dyn RangeSource> = Arc::new(FnSource::new(|_k: &BlockKey| {
            Err(std::io::Error::other("mount went away"))
        }));
        let a = PeerSource::new(registry.clone(), "a", broken, PeerConfig::default());
        for k in &keys {
            let err = a.read_block(k).unwrap_err();
            assert!(err.is_transient(), "the inner error surfaces as it was");
        }

        // No flight was left `Pending`: "b" leads fresh flights at once
        // instead of waiting out the timeout on a's abandoned ones.
        let reads = Arc::new(AtomicU64::new(0));
        let b = PeerSource::new(
            registry.clone(),
            "b",
            counted_source(&reads),
            PeerConfig::default().with_timeout(Duration::from_secs(30)),
        );
        let t0 = Instant::now();
        for k in &keys {
            assert_eq!(b.read_block(k).unwrap().origin, ReadOrigin::Direct);
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "nothing to wait for"
        );
        assert_eq!(reads.load(Ordering::Relaxed), keys.len() as u64);
        assert_eq!(b.stats().snapshot().fallbacks, 0);
    }
}
