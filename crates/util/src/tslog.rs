//! `TimestampLogger` — the shared event logger from §4.5 of the paper.
//!
//! Both the EMLIO sender and receiver log events (batch send, batch receipt,
//! epoch start/end) against a common clock so that post-hoc analysis can
//! align data-path events with the energy-monitor traces in the TSDB.

use crate::clock::SharedClock;
use parking_lot::Mutex;
use std::sync::Arc;

/// One logged event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Timestamp in clock nanoseconds.
    pub t_nanos: u64,
    /// Event name, e.g. `"batch_send"`, `"epoch_start"`.
    pub name: String,
    /// Free-form key for correlation (batch id, epoch number, node id…).
    pub key: String,
}

/// Thread-safe append-only event log. Cheap to clone (shared storage).
#[derive(Clone)]
pub struct TimestampLogger {
    clock: SharedClock,
    events: Arc<Mutex<Vec<Event>>>,
}

impl TimestampLogger {
    /// Logger over the given clock.
    pub fn new(clock: SharedClock) -> Self {
        TimestampLogger {
            clock,
            events: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Record an event now.
    pub fn log(&self, name: &str, key: impl Into<String>) {
        let ev = Event {
            t_nanos: self.clock.now_nanos(),
            name: name.to_string(),
            key: key.into(),
        };
        self.events.lock().push(ev);
    }

    /// Snapshot all events (sorted by time; concurrent appends may interleave
    /// near-simultaneous timestamps, so we sort defensively).
    pub fn snapshot(&self) -> Vec<Event> {
        let mut evs = self.events.lock().clone();
        evs.sort_by_key(|e| e.t_nanos);
        evs
    }

    /// Interval between the first `start` event and the last `end` event, in
    /// nanoseconds; `None` if either is missing or reversed.
    pub fn interval_nanos(&self, start: &str, end: &str) -> Option<u64> {
        let evs = self.snapshot();
        let s = evs.iter().find(|e| e.name == start)?.t_nanos;
        let e = evs.iter().rev().find(|e| e.name == end)?.t_nanos;
        e.checked_sub(s)
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The clock this logger stamps with.
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    #[test]
    fn logs_and_queries() {
        let clock = ManualClock::new();
        let log = TimestampLogger::new(clock.shared());
        log.log("epoch_start", "0");
        clock.advance(1_000);
        log.log("batch_send", "b0");
        clock.advance(500);
        log.log("batch_send", "b1");
        clock.advance(2_000);
        log.log("epoch_end", "0");

        assert_eq!(log.len(), 4);
        let sends = log
            .snapshot()
            .iter()
            .filter(|e| e.name == "batch_send")
            .count();
        assert_eq!(sends, 2);
        assert_eq!(log.interval_nanos("epoch_start", "epoch_end"), Some(3_500));
        assert_eq!(log.interval_nanos("epoch_end", "epoch_start"), None);
        assert_eq!(log.interval_nanos("missing", "epoch_end"), None);
    }

    #[test]
    fn clone_shares_storage() {
        let clock = ManualClock::new();
        let log = TimestampLogger::new(clock.shared());
        let log2 = log.clone();
        log.log("a", "");
        log2.log("b", "");
        assert_eq!(log.len(), 2);
        assert_eq!(log2.len(), 2);
    }

    #[test]
    fn concurrent_appends() {
        let clock = ManualClock::new();
        let log = TimestampLogger::new(clock.shared());
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let l = log.clone();
                std::thread::spawn(move || {
                    for j in 0..100 {
                        l.log("tick", format!("{i}:{j}"));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(log.len(), 800);
    }
}
