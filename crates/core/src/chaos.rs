//! Crash/recovery choreography for the chaos harness.
//!
//! A [`ChaosController`] arms a deterministic kill point — "die after the
//! daemon has pushed N batch frames" — and carries the exactly-once send
//! ledger across daemon incarnations. It rides the spec a daemon is opened
//! with ([`StackSpec::with_chaos`](crate::stack::StackSpec::with_chaos),
//! one controller per daemon), and the daemon's one `serve` consults it
//! from every send worker:
//!
//! * [`ChaosController::record_sent`] is called right after a batch frame
//!   is accepted by the transport; crossing the armed threshold trips the
//!   kill, and every worker notices via [`ChaosController::is_killed`] and
//!   abandons its stream mid-epoch (no end-of-stream marker — exactly what
//!   a crashed process looks like to the receiver).
//! * [`ChaosController::should_skip`] is checked before assembling a
//!   batch: batches the previous incarnation already pushed are skipped on
//!   replay, so a kill/restart cycle delivers every planned batch exactly
//!   once.
//! * [`ChaosController::end_stream`] lets one incarnation per worker end
//!   its stream, with one end-of-stream marker on each of its socket's
//!   connections: the receiver reads no connection opened after the last
//!   marker it expects.
//!
//! The ledger is keyed by `(epoch, batch_id)` — globally unique within a
//! plan — so it is indifferent to which worker or incarnation sends a
//! batch. The daemon thread [`EmlioService::launch`] spawns drives the
//! loop: serve until killed, drop the daemon (releasing sockets and cache),
//! reopen it from the same spec, re-serve against the same ledger.
//!
//! [`EmlioService::launch`]: crate::service::EmlioService::launch

use parking_lot::Mutex;
use std::collections::{BTreeSet, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Whether send worker `worker` ends its stream with a marker now: not when
/// its incarnation was `killed` (a crash sends none), nor when an earlier
/// one `ended` it before a sibling's kill.
pub fn ends_stream(killed: bool, ended: &mut BTreeSet<usize>, worker: usize) -> bool {
    !killed && ended.insert(worker)
}

/// Deterministic daemon-kill switch plus the cross-incarnation send ledger.
#[derive(Debug)]
pub struct ChaosController {
    /// Trip the kill when the cumulative sent count of the current
    /// incarnation reaches this value (`u64::MAX` = disarmed).
    kill_at: AtomicU64,
    /// Batch frames pushed by the current incarnation.
    sent_count: AtomicU64,
    /// Whether the current incarnation has been killed.
    killed: AtomicBool,
    /// Kills tripped over the controller's lifetime.
    kills: AtomicU64,
    /// Kill points for later incarnations, consumed one per restart.
    schedule: Mutex<VecDeque<u64>>,
    /// Every `(epoch, batch_id)` any incarnation has pushed.
    sent: Mutex<HashSet<(u32, u64)>>,
    /// Send workers whose stream some incarnation ended with a marker.
    ended: Mutex<BTreeSet<usize>>,
}

impl Default for ChaosController {
    fn default() -> Self {
        ChaosController {
            kill_at: AtomicU64::new(u64::MAX),
            sent_count: AtomicU64::new(0),
            killed: AtomicBool::new(false),
            kills: AtomicU64::new(0),
            schedule: Mutex::new(VecDeque::new()),
            sent: Mutex::new(HashSet::new()),
            ended: Mutex::new(BTreeSet::new()),
        }
    }
}

impl ChaosController {
    /// A disarmed controller (pure exactly-once ledger, no kill).
    pub fn new() -> Arc<ChaosController> {
        Arc::new(ChaosController::default())
    }

    /// Arm a kill: the incarnation dies once it has pushed `kill_after`
    /// batch frames (`0` kills before the first send). Calling `arm`
    /// again queues further kill points, consumed one per restart — a
    /// schedule of three arms kills three consecutive incarnations before
    /// the fourth runs to completion.
    pub fn arm(&self, kill_after: u64) {
        let mut sched = self.schedule.lock();
        sched.push_back(kill_after);
        // Nothing armed yet for this incarnation: activate immediately.
        if self.kill_at.load(Ordering::SeqCst) == u64::MAX {
            let next = sched.pop_front().unwrap_or(u64::MAX);
            self.kill_at.store(next, Ordering::SeqCst);
        }
    }

    /// Reset per-incarnation state for a restart. The send ledger is
    /// retained — that is the whole point — and the next queued kill
    /// point (if any) becomes the new incarnation's; otherwise it runs
    /// disarmed, so every `arm` call kills at most once.
    pub fn reset_for_restart(&self) {
        self.killed.store(false, Ordering::SeqCst);
        self.sent_count.store(0, Ordering::SeqCst);
        let next = self.schedule.lock().pop_front().unwrap_or(u64::MAX);
        self.kill_at.store(next, Ordering::SeqCst);
    }

    /// Whether the current incarnation has tripped its kill point.
    pub fn is_killed(&self) -> bool {
        self.killed.load(Ordering::SeqCst)
    }

    /// Kills tripped so far.
    pub fn kills(&self) -> u64 {
        self.kills.load(Ordering::SeqCst)
    }

    /// Was this batch already pushed by an earlier incarnation? Checked
    /// before the (expensive) read + encode, so replayed epochs skip
    /// straight past delivered work.
    pub fn should_skip(&self, epoch: u32, batch_id: u64) -> bool {
        self.ledger().contains(&(epoch, batch_id))
    }

    /// Record a pushed batch; returns `true` when this push tripped (or
    /// raced past) the armed kill point — the caller must then abandon its
    /// stream without an end-of-stream marker.
    pub fn record_sent(&self, epoch: u32, batch_id: u64) -> bool {
        self.ledger().insert((epoch, batch_id));
        let n = self.sent_count.fetch_add(1, Ordering::SeqCst) + 1;
        if n >= self.kill_at.load(Ordering::SeqCst) && !self.killed.swap(true, Ordering::SeqCst) {
            self.kills.fetch_add(1, Ordering::SeqCst);
        }
        self.is_killed()
    }

    /// [`ends_stream`] for send worker `worker`, over this controller's state.
    pub fn end_stream(&self, worker: usize) -> bool {
        ends_stream(self.is_killed(), &mut self.ended.lock(), worker)
    }

    fn ledger(&self) -> parking_lot::MutexGuard<'_, HashSet<(u32, u64)>> {
        self.sent.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_controller_never_kills() {
        let c = ChaosController::new();
        for b in 0..1000 {
            assert!(!c.record_sent(0, b));
        }
        assert!(!c.is_killed());
        assert_eq!(c.kills(), 0);
        assert_eq!(c.ledger().len(), 1000);
    }

    #[test]
    fn kill_trips_at_threshold_once() {
        let c = ChaosController::new();
        c.arm(3);
        assert!(!c.record_sent(0, 0));
        assert!(!c.record_sent(0, 1));
        assert!(c.record_sent(0, 2), "third send trips the kill");
        assert!(c.record_sent(0, 3), "stays killed for stragglers");
        assert_eq!(c.kills(), 1, "one kill per arm");
    }

    #[test]
    fn restart_retains_ledger_and_disarms() {
        let c = ChaosController::new();
        c.arm(2);
        c.record_sent(0, 0);
        c.record_sent(0, 1);
        assert!(c.is_killed());
        c.reset_for_restart();
        assert!(!c.is_killed());
        assert!(c.should_skip(0, 0), "ledger survives the restart");
        assert!(c.should_skip(0, 1));
        assert!(!c.should_skip(0, 2));
        // Disarmed after reset: the next incarnation runs to completion.
        for b in 2..100 {
            assert!(!c.record_sent(0, b));
        }
    }

    #[test]
    fn ledger_is_keyed_by_epoch_and_batch() {
        let c = ChaosController::new();
        c.record_sent(0, 7);
        assert!(c.should_skip(0, 7));
        assert!(!c.should_skip(1, 7), "same batch id, later epoch");
    }

    #[test]
    fn queued_kill_points_consume_one_per_restart() {
        let c = ChaosController::new();
        c.arm(1);
        c.arm(2);
        assert!(c.record_sent(0, 0), "first incarnation dies after 1 send");
        c.reset_for_restart();
        assert!(!c.record_sent(0, 1));
        assert!(c.record_sent(0, 2), "second incarnation dies after 2 sends");
        c.reset_for_restart();
        for b in 3..50 {
            assert!(!c.record_sent(0, b), "third incarnation is disarmed");
        }
        assert_eq!(c.kills(), 2);
    }

    #[test]
    fn a_stream_ends_once_across_incarnations_and_never_when_killed() {
        let c = ChaosController::new();
        c.arm(1);
        assert!(c.end_stream(0), "worker 0 finished before the kill");
        assert!(c.record_sent(0, 0), "worker 1 trips it");
        assert!(!c.end_stream(1), "a killed worker sends no marker");
        c.reset_for_restart();
        assert!(!c.end_stream(0), "worker 0's stream has already ended");
        assert!(c.end_stream(1));
    }

    #[test]
    fn concurrent_senders_trip_exactly_one_kill() {
        let c = ChaosController::new();
        c.arm(50);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let c = &c;
                s.spawn(move || {
                    for b in 0..100 {
                        c.record_sent(0, t * 1000 + b);
                    }
                });
            }
        });
        assert!(c.is_killed());
        assert_eq!(c.kills(), 1);
    }
}
