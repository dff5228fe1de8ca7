//! Test support shared across the workspace (temp directories, deadline
//! polling, latches — without external crates). Compiled unconditionally so
//! downstream crates can use it from their own `#[cfg(test)]` modules and
//! integration tests.

use parking_lot::{Condvar, Mutex};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

static COUNTER: AtomicU64 = AtomicU64::new(0);

/// A uniquely named directory under the system temp dir, removed on drop.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create `TMPDIR/<prefix>-<pid>-<n>`.
    pub fn new(prefix: &str) -> TempDir {
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("{prefix}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir { path }
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Join a file name onto the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Poll `cond` every millisecond until it returns true or `timeout`
/// expires. Returns whether the condition became true — the de-flake
/// replacement for bare `sleep`-and-check waits: tests wait exactly as
/// long as the condition needs, bounded by a generous deadline, instead
/// of guessing a magic sleep that loaded CI machines outgrow.
pub fn poll_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if cond() {
            return true;
        }
        if Instant::now() >= deadline {
            return cond();
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A one-shot condvar latch: threads [`wait`](Latch::wait) until some
/// other thread [`open`](Latch::open)s it. Replaces "sleep long enough
/// for the other thread to have started" handshakes.
#[derive(Default)]
pub struct Latch {
    opened: Mutex<bool>,
    cv: Condvar,
}

impl Latch {
    /// A closed latch.
    pub fn new() -> Latch {
        Latch::default()
    }

    /// Open the latch, waking every current and future waiter.
    pub fn open(&self) {
        let mut opened = self.opened.lock();
        *opened = true;
        self.cv.notify_all();
    }

    /// Wait until the latch opens, bounded by `timeout`. Returns whether
    /// it opened in time.
    pub fn wait(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut opened = self.opened.lock();
        while !*opened {
            if self.cv.wait_until(&mut opened, deadline).timed_out() {
                return *opened;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn creates_and_cleans_up() {
        let kept;
        {
            let d = TempDir::new("emlio-testutil");
            kept = d.path().to_path_buf();
            std::fs::write(d.file("x.txt"), b"hi").unwrap();
            assert!(kept.exists());
        }
        assert!(!kept.exists(), "dir removed on drop");
    }

    #[test]
    fn unique_names() {
        let a = TempDir::new("emlio-uniq");
        let b = TempDir::new("emlio-uniq");
        assert_ne!(a.path(), b.path());
    }

    #[test]
    fn poll_until_sees_condition_and_times_out() {
        let flag = AtomicU64::new(0);
        let ok = std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(5));
                flag.store(1, Ordering::SeqCst);
            });
            poll_until(Duration::from_secs(2), || flag.load(Ordering::SeqCst) == 1)
        });
        assert!(ok);
        assert!(!poll_until(Duration::from_millis(5), || false));
    }

    #[test]
    fn latch_opens_waiters() {
        let latch = Latch::new();
        assert!(
            !latch.wait(Duration::from_millis(5)),
            "closed latch times out"
        );
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(5));
                latch.open();
            });
            assert!(latch.wait(Duration::from_secs(2)));
        });
        assert!(latch.wait(Duration::from_millis(1)), "stays open");
    }
}
