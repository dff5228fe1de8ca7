//! A PULL reader on an open, silent connection sleeps: it wakes for its
//! bytes, its connection's end or its socket's wake, never on a clock. This
//! has its own test binary, so every `zmq-pull-read:` thread in the process
//! is this test's.
#![cfg(target_os = "linux")]

use bytes::Bytes;
use emlio_zmq::{Endpoint, PullSocket, PushSocket, SocketOptions};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// `/proc/self/task/<tid>` of every PULL reader thread, once there are `n`
/// (`comm` holds the first 15 bytes of the name).
fn readers(n: usize) -> Vec<PathBuf> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let found: Vec<_> = std::fs::read_dir("/proc/self/task")
            .unwrap()
            .map(|task| task.unwrap().path())
            .filter(|task| {
                std::fs::read_to_string(task.join("comm"))
                    .is_ok_and(|comm| comm.starts_with("zmq-pull-read:"))
            })
            .collect();
        if found.len() == n {
            return found;
        }
        assert!(
            Instant::now() < deadline,
            "{} reader threads, expected {n}",
            found.len()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn voluntary_switches(task: &Path) -> u64 {
    std::fs::read_to_string(task.join("status"))
        .unwrap()
        .lines()
        .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
        .expect("a voluntary_ctxt_switches line")
        .trim()
        .parse()
        .unwrap()
}

#[test]
fn readers_of_silent_connections_do_not_wake() {
    let pull = PullSocket::bind(&Endpoint::tcp("127.0.0.1", 0), SocketOptions::default()).unwrap();
    let ep = pull.local_endpoint().unwrap();
    let pushes: Vec<_> = (0..2)
        .map(|_| PushSocket::connect(&ep, SocketOptions::default()).unwrap())
        .collect();
    for (i, push) in pushes.iter().enumerate() {
        push.send(Bytes::from(vec![i as u8; 100])).unwrap();
    }
    for _ in 0..2 {
        pull.recv().unwrap();
    }

    // Both connections stay open and say nothing.
    let tasks = readers(2);
    std::thread::sleep(Duration::from_millis(20));
    let before: Vec<u64> = tasks.iter().map(|t| voluntary_switches(t)).collect();
    std::thread::sleep(Duration::from_millis(500));
    for (task, before) in tasks.iter().zip(before) {
        let woke = voluntary_switches(task) - before;
        assert!(
            woke <= 3,
            "a silent connection's reader woke {woke} times in 500 ms"
        );
    }

    // Asleep is not deaf: the next frame still arrives.
    pushes[1].send(Bytes::from_static(b"after")).unwrap();
    let got = pull.queue().recv_timeout(Duration::from_secs(5));
    assert_eq!(got.unwrap(), b"after".as_slice());
}
