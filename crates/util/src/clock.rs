//! The process clock as a handle.
//!
//! Every timestamp in the workspace — trace stamps, stage histograms,
//! flight events and the energy monitor's tuples (§3, Algorithm 1) — is
//! read from [`emlio_obs::clock`], so data-path events and energy share one
//! time base. [`RealClock`] is a handle on that clock for the components
//! that take one as a parameter (the NFS mount, the link shaper, the energy
//! monitor and the trainer), plus the sleep they pace themselves with.

use std::sync::Arc;
use std::time::Duration;

/// Shared clock handle, as the components that take one hold it.
pub type SharedClock = Arc<RealClock>;

/// The process clock: nanoseconds since the Unix epoch, monotonic within
/// the process ([`emlio_obs::clock::now_nanos`]).
pub struct RealClock;

impl RealClock {
    /// A shared handle on the process clock.
    pub fn shared() -> SharedClock {
        Arc::new(RealClock)
    }

    /// Current time in nanoseconds since the Unix epoch.
    pub fn now_nanos(&self) -> u64 {
        emlio_obs::clock::now_nanos()
    }

    /// Block the calling thread for `nanos`.
    pub fn sleep_nanos(&self, nanos: u64) {
        std::thread::sleep(Duration::from_nanos(nanos));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_clock_monotonic() {
        let c = RealClock;
        let a = c.now_nanos();
        let b = c.now_nanos();
        assert!(b >= a);
        assert!(a > 1_600_000_000 * 1_000_000_000, "anchored at unix epoch");
    }

    #[test]
    fn real_clock_sleep_advances() {
        let c = RealClock;
        let a = c.now_nanos();
        c.sleep_nanos(2_000_000); // 2 ms
        assert!(c.now_nanos() - a >= 2_000_000);
    }

    #[test]
    fn shared_clock_is_the_process_clock() {
        let shared: SharedClock = RealClock::shared();
        let before = emlio_obs::clock::now_nanos();
        let t = shared.now_nanos();
        let after = emlio_obs::clock::now_nanos();
        assert!((before..=after).contains(&t), "{before} <= {t} <= {after}");
    }
}
