//! The gated run: set the deployment up, warm it, and measure a window of
//! fixed work as a closed loop with one consumer.

use crate::dataset::Dataset;
use crate::procfs::{self, CpuShare};
use crate::report::Metric;
use crate::stats::{self, Delivery};
use crate::sut::{Counters, Delivered, Deployment, EnergyMeter, RawTap};
use crate::verify::{ContentChecker, Ledger};
use crate::workload::Workload;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The window is cut into this many slices of equal batch count, and its
/// throughput is taken over all but the `TRIM` fastest and `TRIM` slowest
/// of them: a stall (a noisy neighbour, a page-cache hiccup) lands in a
/// slice that is left out, while a stream that delivers in bursts is still
/// averaged over most of the window.
const SLICES: usize = 20;
const TRIM: usize = 2;

pub struct GatedOptions {
    pub seed: u64,
    /// Target length of the measured window.
    pub seconds: f64,
    /// Set-ups made and torn down before the one that is measured on;
    /// `setup_s` is the median over all of them.
    pub rehearsals: u32,
}

/// Everything one gated run measured.
#[derive(Default)]
pub struct GatedOutcome {
    pub end_to_end: Vec<Metric>,
    /// Printed beside the end-to-end metrics, not gated.
    pub detail: Vec<Metric>,
    /// Per-layer rows that come from counters and consumer-side clocks.
    pub per_layer: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub descriptions: Vec<String>,
    pub problems: Vec<String>,
    /// Samples per second over the whole window.
    pub window_rate: f64,
    /// Batches in one plan epoch, all daemons together.
    pub batches_per_epoch: usize,
}

/// What the raw tap of a pipeline workload saw of one batch.
struct TapEntry {
    epoch: u32,
    wait_ns: u64,
    age_ns: u64,
}

/// One deployment from open to close.
struct Drive {
    setup_s: f64,
    first_batch_ms: f64,
    open: crate::sut::OpenTimes,
    window: Vec<Delivery>,
    window_start_ns: u64,
    /// Consumer wait per window batch.
    waits_ns: Vec<u64>,
    /// Wait on the receiver's queue and send-to-dequeue age per window
    /// batch (the consumer's own on a raw drain, the tap's on a pipeline).
    recv_waits_ns: Vec<u64>,
    ages_ns: Vec<u64>,
    counters: Counters,
    cpu_s: f64,
    energy_window: Option<(u64, u64)>,
    planned: u64,
    failed: u64,
    complete: bool,
    crc_checked: u64,
    descriptions: Vec<String>,
    problems: Vec<String>,
    batches_per_epoch: usize,
}

#[allow(clippy::too_many_arguments)]
fn drive(
    w: &Workload,
    data: &Dataset,
    scratch: &Path,
    seed: u64,
    plan_epochs: u32,
    serve_epochs: u32,
    meter: &EnergyMeter,
) -> Result<Drive, String> {
    let t_open = Instant::now();
    let since_open = |t: Instant| t.duration_since(t_open).as_nanos() as u64;
    let checker = Arc::new(ContentChecker::new(
        data.facts.clone(),
        w.dataset.sample_bytes(),
        w.warm_epochs,
    ));
    let tap_log: Arc<Mutex<Vec<TapEntry>>> = Arc::default();
    let tap: Option<RawTap> = w.pipeline.map(|_| {
        let checker = checker.clone();
        let log = tap_log.clone();
        Arc::new(move |d: &Delivered| {
            checker.check_sampled(d);
            if let Ok(mut log) = log.lock() {
                log.push(TapEntry {
                    epoch: d.epoch,
                    wait_ns: d.wait_ns,
                    age_ns: d.age_ns,
                });
            }
        }) as RawTap
    });
    // Four times the time the work should take, and never less than 20 s:
    // a stream that hangs must end the run, not outlast it.
    let expected = w.expected_seconds(serve_epochs.saturating_sub(w.warm_epochs));
    let deadline = Duration::from_secs_f64((4.0 * expected).max(20.0));
    let mut dep = Deployment::open(
        w,
        &data.data_dir,
        scratch,
        seed,
        plan_epochs,
        serve_epochs,
        deadline,
        tap,
    )?;
    let t_serving = Instant::now();
    let mut ledger = Ledger::new(dep.planned.clone(), w.dataset.samples);
    let warm_batches = ledger.planned_before(w.warm_epochs);

    let mut out = Drive {
        setup_s: 0.0,
        first_batch_ms: 0.0,
        open: dep.times,
        window: Vec::new(),
        window_start_ns: 0,
        waits_ns: Vec::new(),
        recv_waits_ns: Vec::new(),
        ages_ns: Vec::new(),
        counters: Counters::default(),
        cpu_s: 0.0,
        energy_window: None,
        planned: ledger.planned_batches(),
        failed: 0,
        complete: false,
        crc_checked: 0,
        descriptions: dep.descriptions(),
        problems: Vec::new(),
        batches_per_epoch: dep.planned.iter().filter_map(|e| e.first()).sum::<u64>() as usize,
    };
    let mut at_window_start = (Counters::default(), 0.0f64, 0u64);
    let mut energy_end = 0u64;
    let mut delivered = 0u64;
    while let Some(d) = dep.next() {
        let content_ok = match &w.pipeline {
            None => checker.check_sampled(&d),
            Some(p) => checker.check_tensors(&d, (3, p.crop as usize, p.crop as usize)),
        };
        ledger.record(&d, content_ok);
        delivered += 1;
        // The batch is finished here: the closed loop's next pull follows.
        let now = Instant::now();
        if delivered == 1 {
            out.first_batch_ms = now.duration_since(t_serving).as_secs_f64() * 1e3;
        }
        if delivered < warm_batches {
            continue;
        }
        if delivered == warm_batches {
            out.setup_s = now.duration_since(t_open).as_secs_f64();
            out.window_start_ns = since_open(now);
            at_window_start = (dep.counters(), procfs::cpu_seconds(), meter.now_ns());
            continue;
        }
        out.window.push(Delivery {
            at_ns: since_open(now),
            samples: d.samples.len() as u64,
        });
        out.waits_ns.push(d.wait_ns);
        if w.pipeline.is_none() {
            out.recv_waits_ns.push(d.wait_ns);
            out.ages_ns.push(d.age_ns);
        }
        energy_end = meter.now_ns();
    }
    if delivered < warm_batches {
        out.setup_s = t_open.elapsed().as_secs_f64();
    }
    out.counters = dep.counters().since(&at_window_start.0);
    out.cpu_s = procfs::cpu_seconds() - at_window_start.1;
    if energy_end > at_window_start.2 && at_window_start.2 > 0 {
        out.energy_window = Some((at_window_start.2, energy_end));
    }
    let closed = dep.close();
    if closed.expired {
        out.problems.push(format!(
            "watchdog: stream not finished after {deadline:.0?}"
        ));
    }
    out.problems.extend(closed.errors);
    if let Ok(log) = tap_log.lock() {
        for e in log.iter().filter(|e| e.epoch >= w.warm_epochs) {
            out.recv_waits_ns.push(e.wait_ns);
            out.ages_ns.push(e.age_ns);
        }
    }
    // A payload the tap found corrupt reached the consumer as a tensor
    // batch that looked fine; count it against the plan all the same.
    let bad_at_tap = if w.pipeline.is_some() {
        checker.bad_batches.load(Ordering::Relaxed)
    } else {
        0
    };
    out.failed = (ledger.failed_batches() + bad_at_tap).min(out.planned);
    out.complete = ledger.complete() && bad_at_tap == 0;
    out.crc_checked = checker.crc_checked.load(Ordering::Relaxed);
    Ok(out)
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn as_f64(v: &[u64]) -> Vec<f64> {
    v.iter().map(|&x| x as f64).collect()
}

/// Run `w` once: `rehearsals` set-ups that serve only the warm-up, then
/// the measured deployment.
pub fn gated(w: &Workload, data: &Dataset, scratch: &Path, opts: &GatedOptions) -> GatedOutcome {
    let mut outcome = GatedOutcome::default();
    let window_epochs = w.window_epochs(opts.seconds);
    let plan_epochs = w.warm_epochs + window_epochs;
    let share = CpuShare::new();
    let meter = EnergyMeter::start(Arc::new(move || share.since_last()));
    // Set-ups of one run share the scratch directory, so a persistent
    // spill tier is re-admitted by every set-up after the first.
    let _ = std::fs::remove_dir_all(scratch);

    let mut setups = Vec::new();
    let mut last = None;
    for i in 0..=opts.rehearsals {
        let serve = if i < opts.rehearsals {
            w.warm_epochs
        } else {
            plan_epochs
        };
        match drive(w, data, scratch, opts.seed, plan_epochs, serve, &meter) {
            Ok(d) => {
                outcome.attempted += d.planned;
                outcome.failed += d.failed;
                outcome.problems.extend(d.problems.iter().cloned());
                setups.push(d.setup_s);
                last = Some(d);
            }
            Err(e) => {
                outcome.problems.push(e);
                outcome.attempted = outcome.attempted.max(1);
                outcome.failed = outcome.attempted;
                meter.finish(0, 0);
                let _ = std::fs::remove_dir_all(scratch);
                return outcome;
            }
        }
    }
    let d = last.expect("the loop runs at least once");
    let energy = match d.energy_window {
        Some((start, end)) => meter.finish(start, end),
        None => meter.finish(0, 0),
    };
    let _ = std::fs::remove_dir_all(scratch);

    let samples: u64 = d.window.iter().map(|x| x.samples).sum();
    let wall_ns = d
        .window
        .last()
        .map_or(0, |l| l.at_ns.saturating_sub(d.window_start_ns));
    let wall_s = wall_ns as f64 / 1e9;
    outcome.window_rate = if wall_s > 0.0 {
        samples as f64 / wall_s
    } else {
        0.0
    };
    let rates = stats::slice_rates(d.window_start_ns, &d.window, SLICES);
    let (q1, slice_median, q3) = if rates.is_empty() {
        (
            outcome.window_rate,
            outcome.window_rate,
            outcome.window_rate,
        )
    } else {
        stats::quartiles(&rates)
    };
    let rate = match stats::trimmed_rate(d.window_start_ns, &d.window, SLICES, TRIM) {
        // Fewer batches than slices: nothing to trim.
        0.0 => outcome.window_rate,
        r => r,
    };
    let waits = stats::sorted(&as_f64(&d.waits_ns));
    let wait_p50 = ms(stats::percentile_sorted(&waits, 50.0));
    let wait_p95 = ms(stats::percentile_sorted(&waits, 95.0));
    let ksamples = samples as f64 / 1e3;
    let per_ksample = |x: f64| if ksamples > 0.0 { x / ksamples } else { 0.0 };

    outcome.end_to_end = vec![
        Metric::new("samples_per_s", rate, "samples/s"),
        Metric::new(
            "joules_per_ksample",
            per_ksample(energy.joules),
            "J/ksample",
        ),
        Metric::new("setup_s", stats::median(&setups), "s"),
    ];
    outcome.detail = vec![
        Metric::new("samples_per_s.slice_q1", q1, "samples/s"),
        Metric::new("samples_per_s.slice_median", slice_median, "samples/s"),
        Metric::new("samples_per_s.slice_q3", q3, "samples/s"),
        Metric::new(
            "samples_per_s.whole_window",
            outcome.window_rate,
            "samples/s",
        ),
        Metric::new("consumer.batch_wait_p50_ms", wait_p50, "ms"),
        Metric::new("consumer.batch_wait_p95_ms", wait_p95, "ms"),
        Metric::new("consumer.batch_wait.batches", waits.len() as f64, "count"),
        Metric::new("window_s", wall_s, "s"),
        Metric::new(
            "window.cpu_ms_per_ksample",
            per_ksample(d.cpu_s * 1e3),
            "ms/ksample",
        ),
        Metric::new(
            "window.cores_busy",
            if wall_s > 0.0 { d.cpu_s / wall_s } else { 0.0 },
            "cores",
        ),
        Metric::new("window.samples", samples as f64, "count"),
        Metric::new("window.epochs", window_epochs as f64, "count"),
        Metric::new(
            "setup_s.min",
            setups.iter().copied().fold(f64::MAX, f64::min),
            "s",
        ),
        Metric::new(
            "setup_s.max",
            setups.iter().copied().fold(0.0, f64::max),
            "s",
        ),
        Metric::new("verify.crc_checked_samples", d.crc_checked as f64, "count"),
        Metric::new(
            "failed_share",
            ratio(outcome.failed, outcome.attempted),
            "ratio",
        ),
    ];

    let c = &d.counters;
    let epochs = window_epochs as f64;
    let block_mib = (w.batch as u64 * (w.dataset.sample_bytes() + 16)) as f64 / (1 << 20) as f64;
    let recv_waits = stats::sorted(&as_f64(&d.recv_waits_ns));
    let ages = stats::sorted(&as_f64(&d.ages_ns));
    let delivered_bytes = samples * w.dataset.sample_bytes();
    outcome.per_layer = vec![
        Metric::new("tfrecord.retry.retries", c.retry_retries as f64, "count"),
        Metric::new("tfrecord.retry.giveups", c.retry_giveups as f64, "count"),
        Metric::new(
            "netem.nfs.link_bytes_per_dataset_byte",
            ratio(c.nfs_bytes, delivered_bytes),
            "ratio",
        ),
        Metric::new("netem.nfs.opens", c.nfs_opens as f64, "count"),
        Metric::new("netem.nfs.reads", c.nfs_reads as f64, "count"),
        Metric::new(
            "cache.hit_ratio",
            ratio(c.cache_hits, c.cache_hits + c.cache_misses),
            "ratio",
        ),
        Metric::new(
            "cache.disk_hit_ratio",
            ratio(c.cache_disk_hits, c.cache_hits + c.cache_misses),
            "ratio",
        ),
        Metric::new(
            "cache.demand_miss_per_epoch",
            c.cache_misses as f64 / epochs,
            "1/epoch",
        ),
        Metric::new(
            "cache.evictions_per_epoch",
            c.cache_evictions as f64 / epochs,
            "1/epoch",
        ),
        Metric::new(
            "cache.spill_mib_per_epoch",
            c.cache_spills as f64 * block_mib / epochs,
            "MiB/epoch",
        ),
        Metric::new(
            "cache.spill_failures",
            c.cache_spill_failures as f64,
            "count",
        ),
        Metric::new(
            "cache.peer.hit_ratio",
            ratio(c.peer_hits, c.peer_hits + c.peer_misses + c.peer_fallbacks),
            "ratio",
        ),
        Metric::new("cache.peer.fallbacks", c.peer_fallbacks as f64, "count"),
        Metric::new("core.plan.build_ms", d.open.plan_build_ms, "ms"),
        Metric::new("core.daemon.open_ms", d.open.daemon_open_ms, "ms"),
        Metric::new("core.daemon.first_batch_ms", d.first_batch_ms, "ms"),
        Metric::new(
            "core.pool.reuse_ratio",
            ratio(c.pool_reuse, c.pool_reuse + c.pool_alloc),
            "ratio",
        ),
        Metric::new(
            "core.receiver.wait_share",
            if wall_ns > 0 {
                recv_waits.iter().sum::<f64>() / wall_ns as f64
            } else {
                0.0
            },
            "ratio",
        ),
        Metric::new(
            "core.receiver.wait_p50_ms",
            ms(stats::percentile_sorted(&recv_waits, 50.0)),
            "ms",
        ),
        Metric::new(
            "core.receiver.batch_age_p50_ms",
            ms(stats::percentile_sorted(&ages, 50.0)),
            "ms",
        ),
        Metric::new("consumer.batch_wait_p50_ms", wait_p50, "ms"),
        Metric::new("consumer.batch_wait_p95_ms", wait_p95, "ms"),
        Metric::new(
            "pipeline.decode_errors",
            c.pipeline_decode_errors as f64,
            "count",
        ),
        Metric::new(
            "proc.cpu_ms_per_ksample",
            per_ksample(d.cpu_s * 1e3),
            "ms/ksample",
        ),
        Metric::new("proc.peak_rss_mib", procfs::peak_rss_mib(), "MiB"),
        Metric::new("energymon.mean_watts", energy.mean_watts, "W"),
        Metric::new("datagen.build_s", data.build_s, "s"),
    ];
    outcome.descriptions = d.descriptions;
    outcome.batches_per_epoch = d.batches_per_epoch;
    let decode_errors_ok = w.pipeline.is_none() || c.pipeline_decode_errors == 0;
    if !decode_errors_ok {
        outcome.problems.push(format!(
            "{} samples failed to decode",
            c.pipeline_decode_errors
        ));
    }
    outcome.correct =
        outcome.failed == 0 && d.complete && decode_errors_ok && outcome.problems.is_empty();
    outcome
}
