//! An idle proxy's accept thread sleeps in `accept` instead of polling, and
//! the proxy's drop still returns promptly. This has its own test binary,
//! so the one `netem-proxy` thread in the process is this test's.
#![cfg(target_os = "linux")]

use emlio_netem::{NetProfile, Proxy};
use emlio_util::clock::RealClock;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// `/proc/self/task/<tid>` of the proxy's accept thread, once it has named
/// itself.
fn accept_thread() -> PathBuf {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let found = std::fs::read_dir("/proc/self/task")
            .unwrap()
            .map(|task| task.unwrap().path())
            .find(|task| {
                std::fs::read_to_string(task.join("comm"))
                    .is_ok_and(|comm| comm.starts_with("netem-proxy"))
            });
        if let Some(task) = found {
            return task;
        }
        assert!(Instant::now() < deadline, "no netem-proxy thread");
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
fn an_idle_proxy_sleeps_in_accept_and_drops_promptly() {
    // Nothing connects through the proxy, so it never dials this.
    let target = TcpListener::bind("127.0.0.1:0").unwrap();
    let proxy = Proxy::spawn(
        "127.0.0.1:0",
        &target.local_addr().unwrap().to_string(),
        NetProfile::local(),
        RealClock::shared(),
    )
    .unwrap();
    let task = accept_thread();
    std::thread::sleep(Duration::from_millis(20));
    let before = voluntary_switches(&task);
    std::thread::sleep(Duration::from_millis(300));
    let woke = voluntary_switches(&task) - before;
    assert!(
        woke <= 5,
        "an idle accept thread woke {woke} times in 300 ms"
    );
    let t0 = Instant::now();
    drop(proxy);
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(1), "drop took {took:?}");
}
