//! Metrics export: periodic sampling of the data path into `emlio-tsdb`,
//! Influx line-protocol files, and the `emlio report` renderer.
//!
//! Three measurements, all tagged with `proc` (the sampled process or
//! component — `daemon-0`, `receiver`):
//!
//! * `emlio_stage` (tags `proc`, `stage`) — per-stage latency histogram
//!   quantiles: `count`, `sum_nanos`, `p50_nanos`, `p95_nanos`,
//!   `p99_nanos`, `max_nanos`. Empty stages are skipped.
//! * `emlio_path` (tag `proc`) — the [`MetricsSnapshot`] counters
//!   (batches, bytes, cache traffic, pool traffic, blocked-send time).
//!   `cache_hit_rate` is only emitted when a cache is configured and saw
//!   traffic, preserving the disabled-vs-0% distinction.
//! * `emlio_run` (tag `proc`) — `wall_nanos` and `workers` of the most
//!   recent serve, emitted once it is known.
//!
//! Counters are cumulative, so the *last* point of each series is the
//! final state; [`render_report`] reads only that point and the sampler
//! exists to capture the trajectory (for plotting rates over a run).

use crate::metrics::{DataPathMetrics, MetricsSnapshot};
use emlio_obs::{clock, RecorderSnapshot, Stage, StageRecorder};
use emlio_tsdb::line;
use emlio_tsdb::storage::Series;
use emlio_tsdb::{Db, Point};
use std::path::Path;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// One sampled process/component: a `proc` tag plus whichever of the two
/// telemetry surfaces it has.
#[derive(Clone)]
pub struct SampleSource {
    /// Value of the `proc` tag on every point this source emits.
    pub process: String,
    /// Data-path counters, if this component keeps them.
    pub metrics: Option<Arc<DataPathMetrics>>,
    /// Per-stage latency histograms, if this component records them.
    pub recorder: Option<Arc<StageRecorder>>,
}

impl SampleSource {
    /// A source with both counters and stage histograms (a daemon).
    pub fn new(
        process: &str,
        metrics: Arc<DataPathMetrics>,
        recorder: Arc<StageRecorder>,
    ) -> SampleSource {
        SampleSource {
            process: process.to_string(),
            metrics: Some(metrics),
            recorder: Some(recorder),
        }
    }

    /// A source with only stage histograms (the receiver/pipeline side).
    pub fn recorder_only(process: &str, recorder: Arc<StageRecorder>) -> SampleSource {
        SampleSource {
            process: process.to_string(),
            metrics: None,
            recorder: Some(recorder),
        }
    }
}

/// Write one sample of every source into `db` at timestamp `ts` (nanos).
pub fn sample_into(db: &mut Db, sources: &[SampleSource], ts: u64) {
    for src in sources {
        if let Some(metrics) = &src.metrics {
            let snap = metrics.snapshot();
            insert_path_points(db, &src.process, &snap, ts);
        }
        if let Some(recorder) = &src.recorder {
            let snap = recorder.snapshot();
            insert_stage_points(db, &src.process, &snap, ts);
        }
    }
}

fn insert_stage_points(db: &mut Db, process: &str, snap: &RecorderSnapshot, ts: u64) {
    for (stage, h) in snap.non_empty() {
        let p = Point::new("emlio_stage")
            .tag("proc", process)
            .tag("stage", stage.name())
            .field("count", h.count as f64)
            .field("sum_nanos", h.sum as f64)
            .field("p50_nanos", h.quantile(0.50) as f64)
            .field("p95_nanos", h.quantile(0.95) as f64)
            .field("p99_nanos", h.quantile(0.99) as f64)
            .field("max_nanos", h.max as f64)
            .at(ts);
        db.insert(&p);
    }
}

fn insert_path_points(db: &mut Db, process: &str, snap: &MetricsSnapshot, ts: u64) {
    let mut p = Point::new("emlio_path").tag("proc", process).at(ts);
    for (name, value) in snap.path_fields() {
        p = p.field(name, value as f64);
    }
    // Only meaningful when a cache is configured and saw traffic — the
    // field's absence IS the "disabled / no traffic" signal downstream.
    if let Some(rate) = snap.cache_hit_rate() {
        p = p.field("cache_hit_rate", rate);
    }
    db.insert(&p);
    if snap.serve_wall_nanos > 0 {
        db.insert(
            &Point::new("emlio_run")
                .tag("proc", process)
                .field("wall_nanos", snap.serve_wall_nanos as f64)
                .field("workers", snap.serve_workers as f64)
                .at(ts),
        );
    }
}

/// A background thread flushing [`SampleSource`]s into a [`Db`] every
/// `interval`. [`finish`](MetricsSampler::finish) stops it, takes one
/// last sample (so the final counter state is always captured, however
/// short the run), and hands the database back.
///
/// Between samples the thread waits on a channel for one interval, so an
/// idle sampler wakes once per interval; dropping the sending half is the
/// stop signal, and it wakes the thread at once.
pub struct MetricsSampler {
    stop: Option<mpsc::Sender<()>>,
    handle: Option<JoinHandle<()>>,
    db: Arc<Mutex<Db>>,
}

/// Lock the sampler's database even when poisoned: a sampler thread that
/// died mid-sample never leaves the `Db` itself mid-mutation, so
/// `finish()` hands back what was collected instead of a second panic.
fn lock_db(db: &Mutex<Db>) -> std::sync::MutexGuard<'_, Db> {
    db.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl MetricsSampler {
    /// Start sampling `sources` every `interval`.
    pub fn spawn(sources: Vec<SampleSource>, interval: Duration) -> MetricsSampler {
        let (stop, stopped) = mpsc::channel::<()>();
        let db = Arc::new(Mutex::new(Db::new()));
        let handle = {
            let db = db.clone();
            std::thread::Builder::new()
                .name("emlio-metrics-sampler".into())
                .spawn(move || {
                    loop {
                        sample_into(&mut lock_db(&db), &sources, clock::now_nanos());
                        // A send or a dropped sender both mean stop.
                        if stopped.recv_timeout(interval) != Err(RecvTimeoutError::Timeout) {
                            break;
                        }
                    }
                    // Final sample: the settled end-of-run state.
                    sample_into(&mut lock_db(&db), &sources, clock::now_nanos());
                })
                .expect("spawn metrics sampler")
        };
        MetricsSampler {
            stop: Some(stop),
            handle: Some(handle),
            db,
        }
    }

    /// Points collected so far — a cheap liveness probe for tests and
    /// progress displays ("has the sampler taken a pass yet?").
    pub fn point_count(&self) -> usize {
        lock_db(&self.db).point_count()
    }

    /// Stop the sampler and return the collected database (including one
    /// final sample taken after the stop signal).
    pub fn finish(mut self) -> Db {
        self.stop_and_join();
        std::mem::take(&mut lock_db(&self.db))
    }

    fn stop_and_join(&mut self) {
        self.stop.take();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MetricsSampler {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Write `db` to `path` as Influx line protocol (see
/// `docs/OBSERVABILITY.md` for the schema).
pub fn write_line_protocol(db: &Db, path: &Path) -> std::io::Result<()> {
    std::fs::write(path, line::dump(db))
}

/// Read a line-protocol file previously written by
/// [`write_line_protocol`] (or any Influx-compatible exporter).
pub fn read_line_protocol(path: &Path) -> std::io::Result<Db> {
    let text = std::fs::read_to_string(path)?;
    line::load(&text).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// How a process's serve wall time divides between doing work and being
/// stalled — the numbers behind the report's attribution block.
///
/// All sums are across that process's worker threads, so the comparison
/// baseline is `wall × workers` (total thread-time), not wall alone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StallReport {
    /// Serve wall time × send workers: total worker thread-time.
    pub wall_workers_nanos: u64,
    /// Time spent assembling batches (read + encode, the productive part).
    pub assemble_nanos: u64,
    /// Time spent in socket sends, *including* HWM backpressure stalls.
    pub send_nanos: u64,
    /// The backpressure subset of `send_nanos`: workers blocked on a full
    /// socket queue (blocked-send).
    pub blocked_send_nanos: u64,
    /// `wall_workers - assemble - send`: loop overhead + plan iteration.
    pub unattributed_nanos: u64,
    /// Spill-file write time on the background `emlio-cache-spill`
    /// thread. *Off-path*: this thread-time overlaps the workers' wall
    /// clock instead of adding to it, so it is reported alongside — never
    /// inside — the `wall × workers` identity above.
    pub spill_write_nanos: u64,
}

impl StallReport {
    /// assemble + send: thread-time the stage histograms explain.
    pub fn accounted_nanos(&self) -> u64 {
        self.assemble_nanos + self.send_nanos
    }

    /// Fraction of total thread-time the stage histograms explain, in
    /// `[0, 1]`-ish (can exceed 1 slightly from timer skew).
    pub fn accounted_fraction(&self) -> f64 {
        if self.wall_workers_nanos == 0 {
            return 0.0;
        }
        self.accounted_nanos() as f64 / self.wall_workers_nanos as f64
    }
}

/// Compute the stall attribution for `process` from the last sample in
/// `db`. `None` until an `emlio_run` point exists for it (i.e. before the
/// first completed serve).
pub fn stall_attribution(db: &Db, process: &str) -> Option<StallReport> {
    let run = last_fields(db, "emlio_run", &[("proc", process)])?;
    let wall = *run.get("wall_nanos")? as u64;
    let workers = (*run.get("workers")? as u64).max(1);
    let wall_workers = wall.saturating_mul(workers);
    let assemble = last_stage_sum(db, process, Stage::BatchAssemble);
    let send = last_stage_sum(db, process, Stage::SocketSend);
    let blocked_send = last_fields(db, "emlio_path", &[("proc", process)])
        .and_then(|f| f.get("send_blocked_nanos").copied())
        .unwrap_or(0.0) as u64;
    Some(StallReport {
        wall_workers_nanos: wall_workers,
        assemble_nanos: assemble,
        send_nanos: send,
        blocked_send_nanos: blocked_send,
        unattributed_nanos: wall_workers.saturating_sub(assemble).saturating_sub(send),
        spill_write_nanos: last_stage_sum(db, process, Stage::SpillWrite),
    })
}

fn last_stage_sum(db: &Db, process: &str, stage: Stage) -> u64 {
    last_fields(
        db,
        "emlio_stage",
        &[("proc", process), ("stage", stage.name())],
    )
    .and_then(|f| f.get("sum_nanos").copied())
    .unwrap_or(0.0) as u64
}

/// The last non-NaN value of every field in the (single) series matching
/// `measurement` + `tags` exactly on those tags.
fn last_fields(
    db: &Db,
    measurement: &str,
    tags: &[(&str, &str)],
) -> Option<std::collections::BTreeMap<String, f64>> {
    let filter: Vec<(String, String)> = tags
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    let series = db.matching(measurement, &filter);
    let s = series.first()?;
    let mut out = std::collections::BTreeMap::new();
    for (name, col) in &s.fields {
        if let Some(v) = col.iter().rev().find(|v| !v.is_nan()) {
            out.insert(name.clone(), *v);
        }
    }
    Some(out)
}

fn processes(db: &Db) -> Vec<String> {
    let mut procs: Vec<String> = db
        .all_series()
        .filter_map(|(_, s)| s.tags.get("proc").cloned())
        .collect();
    procs.sort();
    procs.dedup();
    procs
}

fn stage_series_for<'a>(db: &'a Db, process: &str) -> Vec<(Stage, &'a Series)> {
    let filter = vec![("proc".to_string(), process.to_string())];
    let mut rows: Vec<(Stage, &Series)> = db
        .matching("emlio_stage", &filter)
        .into_iter()
        .filter_map(|s| {
            let stage = Stage::from_name(s.tags.get("stage")?)?;
            Some((stage, s))
        })
        .collect();
    // Data-path order, not tag order.
    rows.sort_by_key(|(stage, _)| stage.index());
    rows
}

/// Render `ns` with an adaptive unit, right-aligned in 10 columns.
fn fmt_nanos(ns: f64) -> String {
    let s = if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    };
    format!("{s:>10}")
}

/// Render the per-process stage-breakdown report: a latency table per
/// sampled process plus, for processes with a completed serve, the stall
/// attribution block (`emlio report`'s output).
pub fn render_report(db: &Db) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let procs = processes(db);
    if procs.is_empty() {
        return "no emlio measurements found\n".to_string();
    }
    for process in &procs {
        let rows = stage_series_for(db, process);
        let path = last_fields(db, "emlio_path", &[("proc", process)]);
        if rows.is_empty() && path.is_none() {
            continue;
        }
        let _ = writeln!(out, "== {process} ==");
        if !rows.is_empty() {
            let _ = writeln!(
                out,
                "{:<16} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
                "stage", "count", "p50", "p95", "p99", "max", "total"
            );
            for (stage, series) in &rows {
                let f = |name: &str| {
                    series
                        .fields
                        .get(name)
                        .and_then(|col| col.iter().rev().find(|v| !v.is_nan()))
                        .copied()
                        .unwrap_or(0.0)
                };
                let _ = writeln!(
                    out,
                    "{:<16} {:>10} {} {} {} {} {}",
                    stage.name(),
                    f("count") as u64,
                    fmt_nanos(f("p50_nanos")),
                    fmt_nanos(f("p95_nanos")),
                    fmt_nanos(f("p99_nanos")),
                    fmt_nanos(f("max_nanos")),
                    fmt_nanos(f("sum_nanos")),
                );
            }
        }
        if let Some(path) = &path {
            let g = |name: &str| path.get(name).copied().unwrap_or(0.0);
            let _ = writeln!(
                out,
                "path: {} batches, {} samples, {:.1} MiB",
                g("batches") as u64,
                g("samples") as u64,
                g("bytes") / (1024.0 * 1024.0),
            );
            let cache_line = match path.get("cache_hit_rate") {
                Some(rate) => format!(
                    "cache: {:.1}% hit rate ({} hits / {} misses), {:.1} MiB saved",
                    rate * 100.0,
                    g("cache_hits") as u64,
                    g("cache_misses") as u64,
                    g("cache_bytes_saved") / (1024.0 * 1024.0),
                ),
                None if g("cache_enabled") == 0.0 => "cache: disabled".to_string(),
                None => "cache: enabled, no traffic".to_string(),
            };
            let _ = writeln!(out, "{cache_line}");
            // Prefetch line only when the executor staged anything.
            if g("cache_prefetched") > 0.0 {
                let _ = writeln!(
                    out,
                    "prefetch: {} blocks read ahead, {} wasted, {:.1} MiB reserved for reads in flight",
                    g("cache_prefetched") as u64,
                    g("cache_prefetch_wasted") as u64,
                    g("cache_ram_reserved") / (1024.0 * 1024.0),
                );
            }
            // Fleet line only when the peer tier saw traffic: solo runs
            // stay byte-identical to pre-fleet reports.
            let peer_events = g("peer_hits") + g("peer_misses") + g("peer_fallbacks");
            if peer_events > 0.0 {
                let _ = writeln!(
                    out,
                    "peers: {} hits / {} misses / {} fallbacks, {:.1} MiB served by peers",
                    g("peer_hits") as u64,
                    g("peer_misses") as u64,
                    g("peer_fallbacks") as u64,
                    g("peer_bytes") / (1024.0 * 1024.0),
                );
            }
            // Retry line only when the storage path actually hiccuped —
            // healthy runs stay byte-identical to pre-retry reports.
            let io_events = g("io_retries") + g("io_giveups");
            if io_events > 0.0 {
                let _ = writeln!(
                    out,
                    "io: {} transient errors retried, {} gave up past the budget",
                    g("io_retries") as u64,
                    g("io_giveups") as u64,
                );
            }
        }
        if let Some(stall) = stall_attribution(db, process) {
            let ww = stall.wall_workers_nanos as f64;
            let pct = |n: u64| {
                if ww > 0.0 {
                    100.0 * n as f64 / ww
                } else {
                    0.0
                }
            };
            let _ = writeln!(
                out,
                "stall attribution (wall × workers = {}):",
                fmt_nanos(ww).trim_start()
            );
            let _ = writeln!(
                out,
                "  batch assemble  {}  ({:>5.1}%)",
                fmt_nanos(stall.assemble_nanos as f64),
                pct(stall.assemble_nanos)
            );
            let _ = writeln!(
                out,
                "  socket send     {}  ({:>5.1}%)  of which blocked-send {}",
                fmt_nanos(stall.send_nanos as f64),
                pct(stall.send_nanos),
                fmt_nanos(stall.blocked_send_nanos as f64).trim_start(),
            );
            let _ = writeln!(
                out,
                "  unattributed    {}  ({:>5.1}%)",
                fmt_nanos(stall.unattributed_nanos as f64),
                pct(stall.unattributed_nanos)
            );
            // Off-path thread-time: overlaps the workers' wall clock, so
            // it sits outside the percentages above.
            if stall.spill_write_nanos > 0 {
                let _ = writeln!(
                    out,
                    "  spill writer    {}  (off-path, background thread)",
                    fmt_nanos(stall.spill_write_nanos as f64),
                );
            }
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use emlio_obs::StageRecorder;

    /// One daemon's fabricated end-of-serve state: a half-hitting cache,
    /// some blocked-send time, three recorded stages.
    fn demo_snapshot() -> MetricsSnapshot {
        MetricsSnapshot {
            batches: 1,
            samples: 32,
            bytes: 4096,
            cache_enabled: true,
            cache_hits: 1,
            cache_misses: 1,
            cache_bytes_saved: 4096,
            send_blocked_nanos: 1_000,
            serve_wall_nanos: 10_000_000,
            serve_workers: 2,
            ..MetricsSnapshot::default()
        }
    }

    fn sample_demo(db: &mut Db, ts: u64) {
        let recorder = StageRecorder::shared();
        recorder.record(Stage::BatchAssemble, 9_000_000);
        recorder.record(Stage::SocketSend, 6_000_000);
        recorder.record(Stage::Encode, 500_000);
        insert_path_points(db, "daemon-0", &demo_snapshot(), ts);
        insert_stage_points(db, "daemon-0", &recorder.snapshot(), ts);
    }

    #[test]
    fn sample_report_roundtrip_through_line_protocol() {
        let mut db = Db::new();
        sample_demo(&mut db, 1_000);
        sample_demo(&mut db, 2_000);

        // The point carries the snapshot's whole table, plus the derived rate.
        let fields = last_fields(&db, "emlio_path", &[("proc", "daemon-0")]).unwrap();
        for (name, value) in demo_snapshot().path_fields() {
            assert_eq!(fields.get(name), Some(&(value as f64)), "{name}");
        }
        assert_eq!(fields.get("cache_hit_rate"), Some(&0.5));
        assert_eq!(fields.len(), 31);

        // Stall attribution reads the last sample's cumulative state.
        let stall = stall_attribution(&db, "daemon-0").unwrap();
        assert_eq!(stall.wall_workers_nanos, 20_000_000);
        assert_eq!(stall.assemble_nanos, 9_000_000);
        assert_eq!(stall.send_nanos, 6_000_000);
        assert_eq!(stall.blocked_send_nanos, 1_000);
        assert_eq!(stall.unattributed_nanos, 5_000_000);
        assert!((stall.accounted_fraction() - 0.75).abs() < 1e-9);

        // The report names every non-empty stage and the attribution block.
        let report = render_report(&db);
        assert!(report.contains("== daemon-0 =="));
        assert!(report.contains("batch_assemble"));
        assert!(report.contains("socket_send"));
        assert!(report.contains("encode"));
        assert!(report.contains("stall attribution"));
        assert!(report.contains("50.0% hit rate") || report.contains("cache: 50.0%"));

        // Line-protocol roundtrip preserves the report verbatim.
        let dir = emlio_util::testutil::TempDir::new("export-roundtrip");
        let path = dir.path().join("metrics.lp");
        write_line_protocol(&db, &path).unwrap();
        let reloaded = read_line_protocol(&path).unwrap();
        assert_eq!(render_report(&reloaded), report);
    }

    #[test]
    fn hit_rate_field_absent_when_cache_disabled() {
        let metrics = DataPathMetrics::shared();
        metrics.record_batch(1, 10);
        let sources = vec![SampleSource {
            process: "d".into(),
            metrics: Some(metrics),
            recorder: None,
        }];
        let mut db = Db::new();
        sample_into(&mut db, &sources, 5);
        let fields = last_fields(&db, "emlio_path", &[("proc", "d")]).unwrap();
        assert!(!fields.contains_key("cache_hit_rate"));
        assert_eq!(fields.get("cache_enabled"), Some(&0.0));
        assert!(render_report(&db).contains("cache: disabled"));
    }

    #[test]
    fn peer_fields_exported_and_reported_only_with_traffic() {
        // Solo: fields exist (zero) but the report stays peer-silent.
        let mut db = Db::new();
        sample_demo(&mut db, 10);
        let fields = last_fields(&db, "emlio_path", &[("proc", "daemon-0")]).unwrap();
        assert_eq!(fields.get("peer_hits"), Some(&0.0));
        let report = render_report(&db);
        assert!(!report.contains("peers:") && !report.contains("prefetch:"));

        // Fleet: counters flow through to the point and the report line.
        let snap = MetricsSnapshot {
            peer_hits: 40,
            peer_misses: 3,
            peer_fallbacks: 2,
            peer_bytes: 5 << 20,
            cache_prefetched: 12,
            cache_prefetch_wasted: 1,
            cache_ram_reserved: 3 << 20,
            ..MetricsSnapshot::default()
        };
        let mut db = Db::new();
        insert_path_points(&mut db, "daemon-1", &snap, 20);
        let fields = last_fields(&db, "emlio_path", &[("proc", "daemon-1")]).unwrap();
        assert_eq!(fields.get("peer_hits"), Some(&40.0));
        assert_eq!(fields.get("peer_fallbacks"), Some(&2.0));
        assert_eq!(fields.get("peer_bytes"), Some(&((5 << 20) as f64)));
        let report = render_report(&db);
        assert!(
            report.contains("peers: 40 hits / 3 misses / 2 fallbacks")
                && report.contains("prefetch: 12 blocks read ahead, 1 wasted, 3.0 MiB reserved"),
            "{report}"
        );
    }

    #[test]
    fn sampler_thread_captures_final_state() {
        let metrics = DataPathMetrics::shared();
        metrics.record_batch(32, 4096);
        let sources = vec![SampleSource::new(
            "daemon-0",
            metrics.clone(),
            StageRecorder::shared(),
        )];
        let sampler = MetricsSampler::spawn(sources, Duration::from_millis(5));
        // Deadline-poll for the first periodic pass instead of sleeping a
        // fixed 15 ms — loaded CI machines made that a coin flip.
        assert!(
            emlio_util::testutil::poll_until(Duration::from_secs(5), || sampler.point_count() >= 2),
            "sampler never took a periodic sample"
        );
        metrics.record_batch(1, 1); // landed after spawn; final sample sees it
        let db = sampler.finish();
        let fields = last_fields(&db, "emlio_path", &[("proc", "daemon-0")]).unwrap();
        assert_eq!(fields.get("batches"), Some(&2.0));
        assert!(db.point_count() >= 2);
    }

    #[test]
    fn io_retry_fields_exported_and_reported_only_when_nonzero() {
        // Healthy run: fields exist (zero) but the report stays silent.
        let mut db = Db::new();
        sample_demo(&mut db, 10);
        let fields = last_fields(&db, "emlio_path", &[("proc", "daemon-0")]).unwrap();
        assert_eq!(fields.get("io_retries"), Some(&0.0));
        assert!(!render_report(&db).contains("transient errors retried"));

        // Hiccuping storage: counters flow to the point and the report.
        let snap = MetricsSnapshot {
            io_retries: 7,
            io_giveups: 1,
            ..MetricsSnapshot::default()
        };
        let mut db = Db::new();
        insert_path_points(&mut db, "daemon-2", &snap, 20);
        let fields = last_fields(&db, "emlio_path", &[("proc", "daemon-2")]).unwrap();
        assert_eq!(fields.get("io_retries"), Some(&7.0));
        assert_eq!(fields.get("io_giveups"), Some(&1.0));
        let report = render_report(&db);
        assert!(
            report.contains("io: 7 transient errors retried, 1 gave up"),
            "{report}"
        );
    }
}
