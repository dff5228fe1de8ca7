//! An idle metrics sampler waits out its interval instead of polling a stop
//! flag, and `finish()` still wakes it at once and takes the final sample.
//! This has its own test binary, so the one `emlio-metrics-sampler` thread
//! in the process is this test's.
#![cfg(target_os = "linux")]

use emlio_core::{DataPathMetrics, MetricsSampler, SampleSource};
use emlio_obs::StageRecorder;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// `/proc/self/task/<tid>` of the sampler thread, once it has named itself
/// (`comm` holds the first 15 bytes of the name).
fn sampler_thread() -> PathBuf {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let found = std::fs::read_dir("/proc/self/task")
            .unwrap()
            .map(|task| task.unwrap().path())
            .find(|task| {
                std::fs::read_to_string(task.join("comm"))
                    .is_ok_and(|comm| comm.starts_with("emlio-metrics"))
            });
        if let Some(task) = found {
            return task;
        }
        assert!(Instant::now() < deadline, "no emlio-metrics-sampler thread");
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
fn an_idle_sampler_waits_out_its_interval_and_finishes_promptly() {
    let metrics = DataPathMetrics::shared();
    let sources = vec![SampleSource::new(
        "daemon-0",
        metrics.clone(),
        StageRecorder::shared(),
    )];
    let sampler = MetricsSampler::spawn(sources, Duration::from_secs(1));
    let task = sampler_thread();
    std::thread::sleep(Duration::from_millis(20));
    let before = voluntary_switches(&task);
    std::thread::sleep(Duration::from_millis(500));
    let woke = voluntary_switches(&task) - before;
    assert!(woke <= 3, "an idle sampler woke {woke} times in 500 ms");

    // Landed after the first sample: only the final one can see it.
    metrics.record_batch(32, 4096);
    let t0 = Instant::now();
    let db = sampler.finish();
    let took = t0.elapsed();
    assert!(took < Duration::from_millis(100), "finish took {took:?}");
    // One sample at spawn, saw no batch; the final one saw it.
    let path = db.matching("emlio_path", &[("proc".into(), "daemon-0".into())]);
    assert_eq!(path[0].fields["batches"], [0.0, 1.0]);
}
