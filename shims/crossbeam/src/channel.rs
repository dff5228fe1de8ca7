//! Bounded MPMC channel with crossbeam-channel semantics.
//!
//! Senders and receivers are cloneable handles over one shared queue of
//! fixed capacity; `send` blocks while it is full. The
//! channel disconnects when either side's handle count reaches zero:
//! * all senders gone → `recv` drains the buffer then errors;
//! * all receivers gone → `send` errors immediately.
//!
//! [`never()`] returns a receiver that never yields and never disconnects.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

struct State<T> {
    buf: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

struct Inner<T> {
    state: Mutex<State<T>>,
    cap: usize,
    /// Signalled when the buffer gains an item or the channel disconnects.
    recv_cv: Condvar,
    /// Signalled when the buffer frees a slot or the channel disconnects.
    send_cv: Condvar,
}

impl<T> Inner<T> {
    fn new(cap: usize) -> Arc<Self> {
        Arc::new(Inner {
            state: Mutex::new(State {
                buf: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            cap,
            recv_cv: Condvar::new(),
            send_cv: Condvar::new(),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Error returned by [`Sender::send`] when all receivers are gone.
pub struct SendError<T>(pub T);

/// Error returned by [`Receiver::recv`]: channel empty and all senders gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// No message available right now.
    Empty,
    /// All senders are gone and the buffer is drained.
    Disconnected,
}

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// No message arrived within the timeout.
    Timeout,
    /// All senders are gone and the buffer is drained.
    Disconnected,
}

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sending on a disconnected channel")
    }
}

impl<T> std::error::Error for SendError<T> {}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("receiving on an empty and disconnected channel")
    }
}

impl std::error::Error for RecvError {}

impl fmt::Display for TryRecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TryRecvError::Empty => f.write_str("receiving on an empty channel"),
            TryRecvError::Disconnected => {
                f.write_str("receiving on an empty and disconnected channel")
            }
        }
    }
}

impl std::error::Error for TryRecvError {}

impl fmt::Display for RecvTimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvTimeoutError::Timeout => f.write_str("timed out waiting on channel"),
            RecvTimeoutError::Disconnected => {
                f.write_str("receiving on an empty and disconnected channel")
            }
        }
    }
}

impl std::error::Error for RecvTimeoutError {}

/// The sending half of a channel. Cloneable.
pub struct Sender<T> {
    inner: Arc<Inner<T>>,
}

/// The receiving half of a channel. Cloneable (MPMC).
pub struct Receiver<T> {
    flavor: Flavor<T>,
}

enum Flavor<T> {
    Normal(Arc<Inner<T>>),
    /// Never yields a message, never disconnects.
    Never,
}

/// Create a bounded channel with capacity `cap`.
///
/// A zero-capacity channel is modelled as capacity 1 (rendezvous semantics
/// are not reproduced; no caller in this workspace relies on them).
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    let inner = Inner::new(cap.max(1));
    (
        Sender {
            inner: inner.clone(),
        },
        Receiver {
            flavor: Flavor::Normal(inner),
        },
    )
}

/// A receiver on which every receive operation blocks forever (or reports
/// `Empty`/`Timeout`), and which never disconnects.
pub fn never<T>() -> Receiver<T> {
    Receiver {
        flavor: Flavor::Never,
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.inner.lock().senders += 1;
        Sender {
            inner: self.inner.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.inner.lock();
        st.senders -= 1;
        if st.senders == 0 {
            drop(st);
            self.inner.recv_cv.notify_all();
        }
    }
}

impl<T> Sender<T> {
    /// Send a message, blocking while the channel is full.
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let mut st = self.inner.lock();
        while st.receivers > 0 && st.buf.len() >= self.inner.cap {
            st = self
                .inner
                .send_cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if st.receivers == 0 {
            return Err(SendError(msg));
        }
        st.buf.push_back(msg);
        drop(st);
        self.inner.recv_cv.notify_one();
        Ok(())
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        match &self.flavor {
            Flavor::Normal(inner) => {
                inner.lock().receivers += 1;
                Receiver {
                    flavor: Flavor::Normal(inner.clone()),
                }
            }
            Flavor::Never => Receiver {
                flavor: Flavor::Never,
            },
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        if let Flavor::Normal(inner) = &self.flavor {
            let mut st = inner.lock();
            st.receivers -= 1;
            if st.receivers == 0 {
                // Unblock producers so they observe the disconnect.
                st.buf.clear();
                drop(st);
                inner.send_cv.notify_all();
            }
        }
    }
}

impl<T> Receiver<T> {
    /// Receive a message, blocking until one arrives or all senders are gone.
    pub fn recv(&self) -> Result<T, RecvError> {
        match &self.flavor {
            Flavor::Never => loop {
                std::thread::park();
            },
            Flavor::Normal(inner) => {
                let mut st = inner.lock();
                loop {
                    if let Some(msg) = st.buf.pop_front() {
                        drop(st);
                        inner.send_cv.notify_one();
                        return Ok(msg);
                    }
                    if st.senders == 0 {
                        return Err(RecvError);
                    }
                    st = inner
                        .recv_cv
                        .wait(st)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    /// Receive without blocking.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        match &self.flavor {
            Flavor::Never => Err(TryRecvError::Empty),
            Flavor::Normal(inner) => {
                let mut st = inner.lock();
                if let Some(msg) = st.buf.pop_front() {
                    drop(st);
                    inner.send_cv.notify_one();
                    return Ok(msg);
                }
                if st.senders == 0 {
                    Err(TryRecvError::Disconnected)
                } else {
                    Err(TryRecvError::Empty)
                }
            }
        }
    }

    /// Receive with a timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        match &self.flavor {
            Flavor::Never => {
                std::thread::sleep(timeout);
                Err(RecvTimeoutError::Timeout)
            }
            Flavor::Normal(inner) => {
                let deadline = Instant::now() + timeout;
                let mut st = inner.lock();
                loop {
                    if let Some(msg) = st.buf.pop_front() {
                        drop(st);
                        inner.send_cv.notify_one();
                        return Ok(msg);
                    }
                    if st.senders == 0 {
                        return Err(RecvTimeoutError::Disconnected);
                    }
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(RecvTimeoutError::Timeout);
                    }
                    let (g, _) = inner
                        .recv_cv
                        .wait_timeout(st, deadline - now)
                        .unwrap_or_else(PoisonError::into_inner);
                    st = g;
                }
            }
        }
    }

    /// Number of messages currently buffered.
    pub fn len(&self) -> usize {
        match &self.flavor {
            Flavor::Never => 0,
            Flavor::Normal(inner) => inner.lock().buf.len(),
        }
    }

    /// True when no messages are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_blocks_and_drains() {
        let (tx, rx) = bounded(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        // A third send blocks until a slot frees.
        let sender = std::thread::spawn(move || tx.send(3).unwrap());
        std::thread::sleep(Duration::from_millis(20));
        assert!(!sender.is_finished(), "the third send waits for a slot");
        assert_eq!(rx.len(), 2);
        assert_eq!(rx.recv().unwrap(), 1);
        sender.join().unwrap();
        assert_eq!(rx.recv().unwrap(), 2);
        assert_eq!(rx.recv().unwrap(), 3);
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn mpmc_fan_in_fan_out() {
        let (tx, rx) = bounded(8);
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        tx.send(p * 100 + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(v) = rx.recv() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        drop(rx);
        for p in producers {
            p.join().unwrap();
        }
        let mut all: Vec<i32> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all.len(), 400, "exactly-once delivery");
        all.dedup();
        assert_eq!(all.len(), 400);
    }

    #[test]
    fn send_fails_after_receiver_drop() {
        let (tx, rx) = bounded(1);
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn recv_timeout_semantics() {
        let (tx, rx) = bounded::<u8>(1);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(20)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(9).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(20)), Ok(9));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(20)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn never_channel() {
        let rx = never::<u8>();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        assert_eq!(rx.len(), 0);
        let _rx2 = rx.clone();
    }
}
