//! Pipeline-stage models of the three loaders.
//!
//! Each loader becomes a line of [`Stage`]s (timed by
//! [`crate::pipeline::exits`]) whose structure mirrors the real
//! implementation (`emlio-baselines`, `emlio-core`) and whose service times
//! come from shared cost models. The key mechanisms:
//!
//! * **PyTorch**: `W` workers each assemble a whole batch with per-sample
//!   NFS reads (RTT-multiplied) and CPU decode — collapse at high RTT;
//! * **DALI**: a deeper reader pool and GPU decode — collapses later;
//! * **EMLIO**: storage-side read+serialize workers (`T` = the Figures 7/8
//!   concurrency), a link whose effective throughput is
//!   `min(NIC, T · min(hwm · batch, tcp_window) / RTT)`, a half-RTT
//!   propagation delay, receiver deserialize, GPU preprocess. That link
//!   bandwidth is the one place HWM enters the model and the one place RTT
//!   can limit EMLIO's throughput (the delay only shifts every exit): RTT
//!   is hidden whenever the window covers the bandwidth-delay product.

use crate::energy::{Comp, Role, StageEnergy};
use crate::nodes::NodeSpec;
use crate::pipeline::{self, Stage};
use crate::regimes::Regime;
use crate::workload::Workload;

/// Loader selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoaderKind {
    /// PyTorch DataLoader over NFS.
    Pytorch,
    /// NVIDIA DALI over NFS.
    Dali,
    /// EMLIO with `concurrency` daemon worker threads (the paper's `T`).
    Emlio {
        /// Daemon read+serialize+send threads.
        concurrency: u32,
    },
}

impl LoaderKind {
    /// Display name.
    pub fn name(&self) -> String {
        match self {
            LoaderKind::Pytorch => "pytorch".into(),
            LoaderKind::Dali => "dali".into(),
            LoaderKind::Emlio { concurrency } => format!("emlio(c={concurrency})"),
        }
    }
}

/// Which pipeline suffix runs (Figure 1's R / R+P / R+P+T breakdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageSet {
    /// Read only.
    ReadOnly,
    /// Read + preprocess.
    ReadPreprocess,
    /// Read + preprocess + train.
    Full,
}

/// Knobs shared by the loader models. Every default is hand-set so the
/// model lands near the paper's figures; fitting them from measured ledger
/// rows is ROADMAP item 8.
#[derive(Debug, Clone)]
pub struct ModelConstants {
    /// PyTorch `num_workers`.
    pub pytorch_workers: u32,
    /// DALI file-reader pool size.
    pub dali_readers: u32,
    /// Storage-daemon serialize bandwidth: ≈220 MB/s, the paper's Python
    /// msgpack implementation, not our Rust codec (whose cost the ledger
    /// measures as `core.wire.encode_us_per_batch`).
    pub serialize_bw: f64,
    /// Receiver deserialize bandwidth.
    pub deserialize_bw: f64,
    /// GPU-side decode/augment throughput (DALI's mixed decode).
    pub gpu_decode_bw: f64,
    /// CPU-side decode throughput per worker (PyTorch path).
    pub cpu_decode_bw: f64,
    /// ZeroMQ HWM, in batches: with `tcp_window` it bounds the link's
    /// in-flight bytes per stream.
    pub hwm: u64,
    /// Max TCP window per stream.
    pub tcp_window: f64,
    /// Per-iteration extra step time from DDP sync (sharded scenario).
    pub ddp_added_step_secs: f64,
}

impl Default for ModelConstants {
    fn default() -> Self {
        ModelConstants {
            pytorch_workers: 4,
            dali_readers: 8,
            serialize_bw: 220e6,
            deserialize_bw: 500e6,
            gpu_decode_bw: 4e9,
            cpu_decode_bw: 80e6,
            hwm: 16,
            tcp_window: 16e6,
            ddp_added_step_secs: 0.0,
        }
    }
}

/// A built model: one loader's line of stages plus the per-stage energy
/// map.
pub struct BuiltModel {
    /// The line, in order.
    pub stages: Vec<Stage>,
    /// Energy assignment per stage (indexed like `stages`).
    pub energy_map: Vec<StageEnergy>,
    /// Batches in one epoch, all ready at t = 0 (the plan backlog).
    pub batches: u64,
}

impl BuiltModel {
    /// When each batch leaves the line, nanoseconds, in batch order.
    pub fn exits(&self) -> Vec<u64> {
        pipeline::exits(&self.stages, self.batches)
    }

    /// The epoch's duration: the last batch's exit, in seconds.
    pub fn makespan_secs(&self) -> f64 {
        emlio_util::nanos_to_secs(self.exits().last().copied().unwrap_or(0))
    }
}

fn stage(name: &'static str, servers: Option<u32>, secs: f64) -> Stage {
    Stage {
        name,
        servers,
        service_nanos: emlio_util::secs_to_nanos(secs),
    }
}

/// Scenario knobs orthogonal to the loader itself (both exercised by the
/// sharded-cluster scenario of Figure 10).
#[derive(Debug, Clone, Copy)]
pub struct ScenarioTuning {
    /// Fraction of each batch that crosses the network (1.0 centralized,
    /// 0.5 in the sharded scenario).
    pub remote_fraction: f64,
    /// Cross-mount contention: overrides the DALI reader pool size.
    pub dali_readers_override: Option<u32>,
}

impl Default for ScenarioTuning {
    fn default() -> Self {
        ScenarioTuning {
            remote_fraction: 1.0,
            dali_readers_override: None,
        }
    }
}

/// Build the model for `(loader, workload, regime)`; `tuning` carries the
/// sharded-scenario knobs (see [`ScenarioTuning`]).
pub fn build(
    kind: LoaderKind,
    w: &Workload,
    regime: &Regime,
    stages: StageSet,
    consts: &ModelConstants,
    storage: &NodeSpec,
    tuning: ScenarioTuning,
) -> BuiltModel {
    let ScenarioTuning {
        remote_fraction,
        dali_readers_override,
    } = tuning;
    let mut line = Vec::new();
    let rtt = regime.rtt_secs();
    let nic = regime.profile.bandwidth_bps;
    let batch_bytes = w.batch_bytes() as f64;
    let b = w.batch_size as f64;
    let disk = storage.storage;

    // Per-sample cost of fetching over NFS vs locally. `readers` concurrent
    // clients share one spindle/SSD, so each sees `disk_bw / readers` — the
    // aggregate never exceeds the device.
    let nfs_sample = |rtts: f64| rtts * rtt + w.sample_bytes as f64 / nic;
    let local_sample =
        |readers: f64| disk.seek_secs + w.sample_bytes as f64 * readers / disk.read_bw;
    let gpu_stage = |name| {
        let energy = [
            (Role::Compute, Comp::Gpu, 110.0),
            (Role::Compute, Comp::Cpu, 15.0),
        ];
        let secs = batch_bytes / consts.gpu_decode_bw;
        (stage(name, Some(1), secs), StageEnergy::new(&energy))
    };

    match kind {
        LoaderKind::Pytorch => {
            // Torch datasets stat() each item before reading: +1 round trip.
            let rtts = w.nfs_rtts_per_sample + 1.0;
            let workers = consts.pytorch_workers as f64;
            let fetch_sample = if regime.remote {
                remote_fraction * nfs_sample(rtts) + (1.0 - remote_fraction) * local_sample(workers)
            } else {
                local_sample(workers)
            };
            let decode_sample = if stages == StageSet::ReadOnly {
                0.0
            } else {
                w.sample_bytes as f64 / consts.cpu_decode_bw
            };
            // Fetch waits dominate; decode burns real CPU. Weighted draw.
            let busy_frac = if fetch_sample + decode_sample > 0.0 {
                decode_sample / (fetch_sample + decode_sample)
            } else {
                0.0
            };
            let secs = b * (fetch_sample + decode_sample);
            line.push((
                stage("fetch+decode", Some(consts.pytorch_workers), secs),
                StageEnergy::new(&[(Role::Compute, Comp::Cpu, 8.0 + 60.0 * busy_frac)]),
            ));
        }
        LoaderKind::Dali => {
            let readers = dali_readers_override
                .or(w.dali_readers)
                .unwrap_or(consts.dali_readers);
            let fetch_sample = if regime.remote {
                remote_fraction * nfs_sample(w.nfs_rtts_per_sample)
                    + (1.0 - remote_fraction) * local_sample(readers as f64)
            } else {
                local_sample(readers as f64)
            };
            line.push((
                stage("fetch", Some(readers), b * fetch_sample),
                StageEnergy::new(&[(Role::Compute, Comp::Cpu, 8.0)]),
            ));
            if stages != StageSet::ReadOnly {
                line.push(gpu_stage("gpu-decode"));
            }
        }
        LoaderKind::Emlio { concurrency } => {
            let t = concurrency.max(1);
            // Stage 0 (storage node): one worker does read + serialize
            // sequentially per batch — exactly the real daemon's
            // `assemble_batch`.
            let read_serialize = disk.seek_secs
                + batch_bytes * t as f64 / disk.read_bw
                + batch_bytes / consts.serialize_bw;
            line.push((
                stage("read+serialize", Some(t), read_serialize),
                StageEnergy::new(&[(Role::Storage, Comp::Cpu, 50.0)]),
            ));

            // Stage 1: the link. Effective throughput is window-limited per
            // stream: min(NIC, T · window / RTT).
            let window = (consts.hwm as f64 * batch_bytes).min(consts.tcp_window);
            let eff_bw = if rtt > 0.0 {
                nic.min(t as f64 * window / rtt)
            } else {
                nic
            };
            line.push((
                stage("link", Some(1), batch_bytes / eff_bw),
                StageEnergy::new(&[(Role::Storage, Comp::Cpu, 6.0)]),
            ));

            // Stage 2: propagation.
            line.push((stage("wire", None, rtt / 2.0), StageEnergy::none()));

            // Stage 3 (compute node): deserialize into the shared queue.
            line.push((
                stage("deserialize", Some(2), batch_bytes / consts.deserialize_bw),
                StageEnergy::new(&[(Role::Compute, Comp::Cpu, 40.0)]),
            ));

            if stages != StageSet::ReadOnly {
                line.push(gpu_stage("gpu-preproc"));
            }
        }
    }

    if stages == StageSet::Full {
        let per_batch = b * w.step_secs_per_sample() + consts.ddp_added_step_secs;
        let gpu_extra = w.model.gpu_util * 235.0; // (peak − idle) of the RTX 6000
        let cpu_extra = w.model.cpu_util * 80.0;
        line.push((
            stage("train", Some(1), per_batch),
            StageEnergy::new(&[
                (Role::Compute, Comp::Gpu, gpu_extra),
                (Role::Compute, Comp::Cpu, cpu_extra),
            ]),
        ));
    }
    let (stages, energy_map) = line.into_iter().unzip();
    BuiltModel {
        stages,
        energy_map,
        batches: w.batches(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(kind: LoaderKind, regime: Regime) -> f64 {
        build(
            kind,
            &Workload::imagenet_resnet50(),
            &regime,
            StageSet::Full,
            &ModelConstants::default(),
            &NodeSpec::uc_storage(),
            ScenarioTuning::default(),
        )
        .makespan_secs()
    }

    #[test]
    fn local_epochs_near_paper() {
        let dali = run(LoaderKind::Dali, Regime::local());
        assert!(
            (140.0..170.0).contains(&dali),
            "DALI local ≈152 s, got {dali}"
        );
        let pytorch = run(LoaderKind::Pytorch, Regime::local());
        assert!(
            (145.0..190.0).contains(&pytorch),
            "PyTorch local ≈172 s, got {pytorch}"
        );
        let emlio = run(LoaderKind::Emlio { concurrency: 2 }, Regime::local());
        assert!(
            (140.0..175.0).contains(&emlio),
            "EMLIO local ≈157 s, got {emlio}"
        );
    }

    #[test]
    fn emlio_flat_across_rtt_baselines_degrade() {
        let e01 = run(LoaderKind::Emlio { concurrency: 2 }, Regime::remote_ms(0.1));
        let e30 = run(
            LoaderKind::Emlio { concurrency: 2 },
            Regime::remote_ms(30.0),
        );
        assert!(
            (e30 - e01).abs() / e01 < 0.08,
            "EMLIO ±5-8% across RTT: {e01} vs {e30}"
        );
        let d01 = run(LoaderKind::Dali, Regime::remote_ms(0.1));
        let d30 = run(LoaderKind::Dali, Regime::remote_ms(30.0));
        assert!(d30 > d01 * 5.0, "DALI collapses: {d01} → {d30}");
        let p30 = run(LoaderKind::Pytorch, Regime::remote_ms(30.0));
        assert!(
            p30 > d30 * 1.5,
            "PyTorch worse than DALI at WAN: {p30} vs {d30}"
        );
    }

    #[test]
    fn wan_ratios_match_paper_shape() {
        // Paper Fig. 5 @30 ms: PyTorch 4232 s, DALI 1699 s, EMLIO 156 s.
        let e = run(
            LoaderKind::Emlio { concurrency: 2 },
            Regime::remote_ms(30.0),
        );
        let d = run(LoaderKind::Dali, Regime::remote_ms(30.0));
        let p = run(LoaderKind::Pytorch, Regime::remote_ms(30.0));
        assert!(
            (5.0..20.0).contains(&(d / e)),
            "DALI/EMLIO ≈ 11×, got {}",
            d / e
        );
        assert!(
            (15.0..40.0).contains(&(p / e)),
            "PyTorch/EMLIO ≈ 27×, got {}",
            p / e
        );
    }

    #[test]
    fn stage_sets_truncate() {
        let w = Workload::imagenet_resnet50();
        let consts = ModelConstants::default();
        let storage = NodeSpec::uc_storage();
        let full = build(
            LoaderKind::Dali,
            &w,
            &Regime::remote_ms(0.1),
            StageSet::Full,
            &consts,
            &storage,
            ScenarioTuning::default(),
        );
        let read = build(
            LoaderKind::Dali,
            &w,
            &Regime::remote_ms(0.1),
            StageSet::ReadOnly,
            &consts,
            &storage,
            ScenarioTuning::default(),
        );
        assert_eq!(full.stages.len(), 3);
        assert_eq!(read.stages.len(), 1);
        assert!(read.makespan_secs() < full.makespan_secs());
        assert_eq!(full.energy_map.len(), 3);
        assert_eq!(read.energy_map.len(), 1);
    }

    #[test]
    fn emlio_concurrency_matters_for_large_records() {
        // Figure 7/8: with 2 MB samples, serialize-bound at c=1, unblocked
        // at c=2.
        let w = Workload::synthetic_2mb();
        let consts = ModelConstants::default();
        let storage = NodeSpec::uc_storage();
        let mk = |c: u32| {
            build(
                LoaderKind::Emlio { concurrency: c },
                &w,
                &Regime::remote_ms(1.0),
                StageSet::Full,
                &consts,
                &storage,
                ScenarioTuning::default(),
            )
            .makespan_secs()
        };
        let c1 = mk(1);
        let c2 = mk(2);
        assert!(c2 < c1 * 0.75, "c=2 should amortize: {c1} vs {c2}");
    }
}
