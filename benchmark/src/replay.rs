//! The traced run: a lock-step replay of planned batches through every
//! layer, first with spans off, then with spans on.

use crate::alloc::ALLOCATIONS;
use crate::dataset::Dataset;
use crate::report::Metric;
use crate::span::{self, LayerTime, Span, Tracer};
use crate::sut::{Delivered, PassStats, ReplayRig};
use crate::verify::ContentChecker;
use crate::workload::Workload;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Planned batches in each of the untraced and the traced pass.
pub const REPLAY_BATCHES: usize = 256;

#[derive(Default)]
pub struct ReplayOutcome {
    pub per_layer: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub trace_path: Option<PathBuf>,
}

/// Self-time totals of the spans that belong to replayed batches, against
/// the wall time of those batches. The root span's own self time (the gaps
/// between layer calls) is the part the layers do not explain.
fn self_time_coverage(spans: &[Span]) -> f64 {
    let of_batches: Vec<Span> = spans
        .iter()
        .filter(|s| s.batch.is_some())
        .cloned()
        .collect();
    let layers = span::layer_times(&of_batches);
    let wall = layers.get("replay.batch").map_or(0, |l| l.total_ns);
    let explained: u64 = layers
        .iter()
        .filter(|(name, _)| **name != "replay.batch")
        .map(|(_, l)| l.self_ns)
        .sum();
    if wall == 0 {
        0.0
    } else {
        explained as f64 / wall as f64
    }
}

fn layer_rows(layers: &BTreeMap<&'static str, LayerTime>, traced: &PassStats) -> Vec<Metric> {
    let get = |name: &str| layers.get(name).copied().unwrap_or_default();
    let batches = traced.batches.max(1) as f64;
    let div = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let us_per_batch = |name: &str| get(name).total_ns as f64 / 1e3 / batches;
    let us_per_call = |name: &str| div(get(name).total_ns as f64 / 1e3, get(name).calls as f64);
    let mib = (1u64 << 20) as f64;
    let (tf, nfs, peer) = (get("tfrecord"), get("nfs"), get("peer"));
    let wire_s = (get("zmq.send").total_ns + get("zmq.recv").total_ns) as f64 / 1e9;
    vec![
        Metric::new(
            "tfrecord.read_block_us",
            div(tf.total_ns as f64 / 1e3, tf.items as f64),
            "us",
        ),
        Metric::new(
            "tfrecord.read_mib_per_s",
            div(tf.bytes as f64 / mib, tf.total_ns as f64 / 1e9),
            "MiB/s",
        ),
        Metric::new(
            "netem.nfs.read_block_ms",
            div(nfs.total_ns as f64 / 1e6, nfs.items as f64),
            "ms",
        ),
        Metric::new(
            "cache.self_us_per_batch",
            get("cache").self_ns as f64 / 1e3 / batches,
            "us",
        ),
        Metric::new(
            "cache.peer.fetch_us",
            div(peer.self_ns as f64 / 1e3, peer.items as f64),
            "us",
        ),
        Metric::new(
            "core.wire.encode_us_per_batch",
            us_per_batch("wire.encode"),
            "us",
        ),
        Metric::new(
            "core.wire.scan_us_per_batch",
            us_per_batch("wire.scan"),
            "us",
        ),
        Metric::new(
            "core.wire.materialize_us_per_batch",
            us_per_batch("wire.materialize"),
            "us",
        ),
        Metric::new(
            "core.wire.header_bytes_per_sample",
            div(
                traced.frame_bytes.saturating_sub(traced.payload_bytes) as f64,
                traced.samples as f64,
            ),
            "bytes",
        ),
        Metric::new("zmq.send_us_per_batch", us_per_batch("zmq.send"), "us"),
        Metric::new("zmq.recv_us_per_batch", us_per_batch("zmq.recv"), "us"),
        Metric::new(
            "zmq.loopback_mib_per_s",
            div(traced.frame_bytes as f64 / mib, wire_s),
            "MiB/s",
        ),
        Metric::new(
            "pipeline.decode_us_per_sample",
            us_per_call("pipeline.decode"),
            "us",
        ),
        Metric::new(
            "pipeline.resize_us_per_sample",
            us_per_call("pipeline.resize"),
            "us",
        ),
        Metric::new(
            "pipeline.crop_us_per_sample",
            us_per_call("pipeline.crop"),
            "us",
        ),
        Metric::new(
            "pipeline.normalize_us_per_sample",
            us_per_call("pipeline.normalize"),
            "us",
        ),
        Metric::new(
            "pipeline.op_ms_per_batch",
            us_per_call("pipeline.op") / 1e3,
            "ms",
        ),
    ]
}

/// Replay `w` and write `trace-<workload>.json` into `out_dir`.
/// `daemon_descriptions` is what the gated deployment of the same
/// configuration reported as its read stacks; the replay refuses to
/// measure a stack assembled in another order. `per_epoch` is the number
/// of batches one plan epoch holds, all daemons together.
pub fn traced(
    w: &Workload,
    data: &Dataset,
    scratch: &Path,
    seed: u64,
    daemon_descriptions: &[String],
    per_epoch: usize,
    out_dir: &Path,
) -> ReplayOutcome {
    let mut out = ReplayOutcome::default();
    let tracer = Arc::new(Tracer::new(false));
    let _ = std::fs::remove_dir_all(scratch);

    // A cached stack replays against a warm cache, as the gated window
    // does: one unmeasured pass over epoch 0 first. Uncached stacks only
    // need their sockets, pool and page cache touched.
    let warm = if w.cache.is_some() { per_epoch } else { 8 };
    let total = warm + 2 * REPLAY_BATCHES;
    let epochs = total.div_ceil(per_epoch.max(1)) as u32;
    out.attempted = total as u64;

    let mut rig = match ReplayRig::build(w, &data.data_dir, scratch, seed, epochs, tracer.clone()) {
        Ok(rig) => rig,
        Err(e) => {
            out.problems.push(e);
            out.failed = out.attempted;
            return out;
        }
    };
    let descriptions = rig.descriptions();
    if descriptions != daemon_descriptions {
        out.problems.push(format!(
            "replay stack {descriptions:?} differs from the daemon's {daemon_descriptions:?}"
        ));
        out.failed = out.attempted;
        return out;
    }

    // Every payload of every replayed batch is checked, between batches.
    let checker = ContentChecker::new(data.facts.clone(), w.dataset.sample_bytes(), 0);
    let mut delivered_ok = 0u64;
    let mut check = |d: &Delivered| {
        let tensors_ok = w.pipeline.is_none_or(|p| {
            let side = p.crop as usize;
            checker.check_tensors(d, (3, side, side))
        });
        if checker.check(d, true) && tensors_ok {
            delivered_ok += 1;
        }
    };
    let passes = (|| -> Result<(PassStats, PassStats, u64), String> {
        rig.run(0..warm, &mut check)?;
        let untraced = rig.run(warm..warm + REPLAY_BATCHES, &mut check)?;
        tracer.switch(true);
        ALLOCATIONS.switch(true);
        let allocs_before = ALLOCATIONS.calls();
        let traced = rig.run(warm + REPLAY_BATCHES..total, &mut check);
        let allocs = ALLOCATIONS.calls() - allocs_before;
        ALLOCATIONS.switch(false);
        tracer.switch(false);
        Ok((untraced, traced?, allocs))
    })();
    // Joins the prefetch threads, so no span is still being written.
    drop(rig);
    let _ = std::fs::remove_dir_all(scratch);
    out.failed = out.attempted - delivered_ok.min(out.attempted);
    let (untraced, traced, allocs) = match passes {
        Ok(p) => p,
        Err(e) => {
            out.problems.push(e);
            return out;
        }
    };
    if out.failed > 0 {
        out.problems.push(format!(
            "{} replayed batches failed verification",
            out.failed
        ));
    }

    let spans = tracer.take();
    let layers = span::layer_times(&spans);
    let coverage = self_time_coverage(&spans);
    if (coverage - 1.0).abs() > 0.05 {
        out.problems.push(format!(
            "per-layer self times explain {:.1} % of the replay's per-batch wall time",
            coverage * 100.0
        ));
    }
    let per_batch = |p: &PassStats| p.wall_ns as f64 / p.batches.max(1) as f64;
    out.per_layer = layer_rows(&layers, &traced);
    out.per_layer.extend([
        Metric::new(
            "trace.overhead_pct",
            (per_batch(&traced) / per_batch(&untraced) - 1.0) * 100.0,
            "%",
        ),
        Metric::new("trace.self_time_coverage", coverage, "ratio"),
        Metric::new("trace.replay_batch_us", per_batch(&traced) / 1e3, "us"),
        Metric::new(
            "proc.allocs_per_batch",
            allocs as f64 / traced.batches.max(1) as f64,
            "count",
        ),
    ]);

    let path = out_dir.join(format!("trace-{}.json", w.name));
    let written = std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&path, span::to_json(w.name, &spans, &layers)));
    match written {
        Ok(()) => out.trace_path = Some(path),
        Err(e) => out.problems.push(format!("write {}: {e}", path.display())),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u32,
        parent: Option<u32>,
        name: &'static str,
        batch: Option<u64>,
        t: (u64, u64),
    ) -> Span {
        Span {
            id,
            parent,
            name,
            batch,
            start_ns: t.0,
            end_ns: t.1,
            bytes: 0,
            items: 0,
        }
    }

    #[test]
    fn coverage_ignores_background_spans_and_counts_gaps() {
        let spans = vec![
            span(0, None, "replay.batch", Some(0), (0, 100)),
            span(1, Some(0), "read.batch", Some(0), (5, 55)),
            span(2, Some(1), "cache", Some(0), (10, 50)),
            span(3, Some(0), "wire.encode", Some(0), (55, 95)),
            // A prefetch thread's read: no batch, not part of the identity.
            span(4, None, "nfs", None, (0, 1_000)),
        ];
        // 90 of the 100 ns are inside layer spans; 10 are the root's gaps.
        assert!((self_time_coverage(&spans) - 0.9).abs() < 1e-9);
        assert_eq!(self_time_coverage(&[]), 0.0);
    }
}
