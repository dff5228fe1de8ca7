//! Metric rows, the result line, and the environment printed beside them.

use std::fmt::Write as _;
use std::path::Path;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            // JSON has no NaN or infinity; a ratio over nothing reads 0.
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        }
    }
}

/// Every per-layer metric `--trace 1` prints, in print order. A layer a
/// workload does not have reads 0 there (its rows are "empty"), so the
/// set of names is the same for every workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tfrecord.read_block_us", "us"),
    ("tfrecord.read_mib_per_s", "MiB/s"),
    ("tfrecord.retry.retries", "count"),
    ("tfrecord.retry.giveups", "count"),
    ("netem.nfs.read_block_ms", "ms"),
    ("netem.nfs.link_bytes_per_dataset_byte", "ratio"),
    ("netem.nfs.opens", "count"),
    ("netem.nfs.reads", "count"),
    ("cache.self_us_per_batch", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.disk_hit_ratio", "ratio"),
    ("cache.demand_miss_per_epoch", "1/epoch"),
    ("cache.evictions_per_epoch", "1/epoch"),
    ("cache.spill_mib_per_epoch", "MiB/epoch"),
    ("cache.spill_failures", "count"),
    ("cache.peer.fetch_us", "us"),
    ("cache.peer.hit_ratio", "ratio"),
    ("cache.peer.fallbacks", "count"),
    ("core.plan.build_ms", "ms"),
    ("core.daemon.open_ms", "ms"),
    ("core.daemon.first_batch_ms", "ms"),
    ("core.pool.reuse_ratio", "ratio"),
    ("core.wire.encode_us_per_batch", "us"),
    ("core.wire.scan_us_per_batch", "us"),
    ("core.wire.materialize_us_per_batch", "us"),
    ("core.wire.header_bytes_per_sample", "bytes"),
    ("zmq.send_us_per_batch", "us"),
    ("zmq.recv_us_per_batch", "us"),
    ("zmq.loopback_mib_per_s", "MiB/s"),
    ("core.receiver.wait_share", "ratio"),
    ("core.receiver.wait_p50_ms", "ms"),
    ("core.receiver.batch_age_p50_ms", "ms"),
    ("consumer.batch_wait_p50_ms", "ms"),
    ("consumer.batch_wait_p95_ms", "ms"),
    ("pipeline.decode_us_per_sample", "us"),
    ("pipeline.resize_us_per_sample", "us"),
    ("pipeline.crop_us_per_sample", "us"),
    ("pipeline.normalize_us_per_sample", "us"),
    ("pipeline.op_ms_per_batch", "ms"),
    ("pipeline.decode_errors", "count"),
    ("cache.hit_us.32x100k", "us"),
    ("cache.hit_us.64x8k", "us"),
    ("cache.miss_overhead_us.32x100k", "us"),
    ("cache.miss_overhead_us.64x8k", "us"),
    ("core.metered.overhead_ns.32x100k", "ns"),
    ("core.metered.overhead_ns.64x8k", "ns"),
    ("cache.peer.owner_local_overhead_ns.32x100k", "ns"),
    ("cache.peer.owner_local_overhead_ns.64x8k", "ns"),
    ("tfrecord.retry.overhead_ns.32x100k", "ns"),
    ("tfrecord.retry.overhead_ns.64x8k", "ns"),
    ("netem.fault.overhead_ns.32x100k", "ns"),
    ("netem.fault.overhead_ns.64x8k", "ns"),
    ("obs.hist_record_ns", "ns"),
    ("obs.trace_stamp_ns", "ns"),
    ("proc.cpu_ms_per_ksample", "ms/ksample"),
    ("proc.peak_rss_mib", "MiB"),
    ("proc.allocs_per_batch", "count"),
    ("energymon.mean_watts", "W"),
    ("datagen.build_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.self_time_coverage", "ratio"),
    ("trace.replay_batch_us", "us"),
];

/// `PER_LAYER` filled from `measured` name/value pairs; a name nobody
/// measured reads 0. Also returns the measured names `PER_LAYER` does not
/// list, which would otherwise vanish without a trace.
pub fn per_layer_rows(measured: &[(String, f64)]) -> (Vec<Metric>, Vec<String>) {
    let rows = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = measured.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
            Metric::new(name, value, unit)
        })
        .collect();
    let unlisted = measured
        .iter()
        .filter(|m| PER_LAYER.iter().all(|l| l.0 != m.0))
        .map(|m| m.0.clone())
        .collect();
    (rows, unlisted)
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut s = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        let _ = write!(
            s,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.value,
            m.unit
        );
    }
    s.push('}');
    s
}

/// The result object the contract asks for as the last line of stdout.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics_json(metrics)
    )
}

pub fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<44} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

fn first_line_of(cmd: &str, arg: &str) -> Option<String> {
    let out = std::process::Command::new(cmd).arg(arg).output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .map(str::to_string)
    })?
}

/// The commit checked out at `root`, read from `.git` without running git
/// (the driver's checkout is not a repository, and says so).
fn git_commit(root: &Path) -> Option<String> {
    let head = std::fs::read_to_string(root.join(".git/HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(reference) => std::fs::read_to_string(root.join(".git").join(reference))
            .ok()
            .map(|s| s.trim().to_string())
            .or_else(|| {
                let packed = std::fs::read_to_string(root.join(".git/packed-refs")).ok()?;
                packed
                    .lines()
                    .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
            }),
    }
}

/// One line naming what the numbers were measured on.
pub fn environment(root: &Path) -> String {
    let unknown = || "unknown".to_string();
    format!(
        "nproc={} kernel={} rustc=\"{}\" commit={}",
        crate::procfs::nproc(),
        std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| unknown(), |s| s.trim().to_string()),
        first_line_of("rustc", "-V").unwrap_or_else(unknown),
        git_commit(root).unwrap_or_else(unknown),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            true,
            0,
            0,
            &[
                Metric::new("a_ms", 1.25, "ms"),
                Metric::new("nan", f64::NAN, "s"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"nan\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn per_layer_names_are_unique_and_within_the_contract() {
        assert!(PER_LAYER.len() <= 128);
        for (i, (name, unit)) in PER_LAYER.iter().enumerate() {
            assert!(PER_LAYER[i + 1..].iter().all(|(n, _)| n != name), "{name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        let (rows, unlisted) = per_layer_rows(&[
            ("obs.hist_record_ns".to_string(), 7.0),
            ("no.such_row".to_string(), 1.0),
        ]);
        assert_eq!(rows.len(), PER_LAYER.len());
        assert_eq!(rows.iter().filter(|m| m.value != 0.0).count(), 1);
        assert_eq!(unlisted, ["no.such_row"]);
    }
}
