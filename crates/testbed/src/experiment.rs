//! Per-figure experiment runners.

use crate::energy::{self, Comp, ExtraDraw, Role};
use crate::loaders::{self, LoaderKind, ModelConstants, StageSet};
use crate::nodes::NodeSpec;
use crate::regimes::Regime;
use crate::workload::Workload;
use emlio_energymon::EnergyBreakdown;
use emlio_trainsim::{ddp, LossCurve};
use emlio_util::nanos_to_secs;
use std::time::Duration;

/// Deployment scenario (§5's Scenario 1 vs Scenario 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// All data behind one storage server.
    Centralized,
    /// Data pre-sharded across `nodes` compute nodes; each node reads
    /// `1/nodes` locally and the rest from its peers, trains with DDP.
    Sharded {
        /// Compute-node count.
        nodes: u32,
    },
}

/// One result row (one bar group in a figure).
#[derive(Debug, Clone)]
pub struct ExperimentRow {
    /// Figure id (`"fig5"`, …).
    pub figure: String,
    /// Workload name.
    pub workload: String,
    /// Regime name.
    pub regime: String,
    /// Method name (loader, or stage set for Figure 1).
    pub method: String,
    /// Epoch duration, seconds.
    pub duration_secs: f64,
    /// Compute-node energy.
    pub compute: EnergyBreakdown,
    /// Storage-node energy (zero in sharded scenario — folded into compute).
    pub storage: EnergyBreakdown,
}

impl ExperimentRow {
    /// Compute-node total joules (what the paper's bars show).
    pub fn total_j(&self) -> f64 {
        self.compute.total_j()
    }
}

/// Run one configuration.
#[allow(clippy::too_many_arguments)]
pub fn run_one(
    figure: &str,
    kind: LoaderKind,
    w: &Workload,
    regime: &Regime,
    stages: StageSet,
    scenario: Scenario,
    consts: &ModelConstants,
    method_name: Option<&str>,
) -> ExperimentRow {
    let compute = NodeSpec::uc_compute();
    let storage = NodeSpec::uc_storage();

    let (remote_fraction, fold, dali_readers, mut consts) = match scenario {
        Scenario::Centralized => (1.0, false, None, consts.clone()),
        Scenario::Sharded { nodes } => {
            let local_frac = 1.0 / nodes as f64;
            // Cross-mounted NFS with every node both serving and fetching
            // shrinks the usable reader pool: 2 readers, hand-set (ROADMAP
            // item 8).
            (1.0 - local_frac, true, Some(2), consts.clone())
        }
    };

    // DDP sync: added step time lands in the train stage's service time;
    // busy-poll energy is an extra draw.
    let mut extras: Vec<ExtraDraw> = Vec::new();
    if let Scenario::Sharded { nodes } = scenario {
        let cfg = ddp::DdpConfig::cluster(nodes, Duration::from_secs_f64(regime.rtt_secs()));
        let step = w.model.step_time(w.batch_size as usize);
        let cost = ddp::sync_cost(&w.model, step, &cfg);
        consts.ddp_added_step_secs = cost.added_step_time.as_secs_f64();
        // NCCL busy-polls CPU and GPU for the whole allreduce.
        let ar = ddp::allreduce_time(w.model.grad_bytes(), &cfg).as_secs_f64();
        let iters = w.batches() as f64;
        extras.push(ExtraDraw {
            role: Role::Compute,
            comp: Comp::Cpu,
            watts: 140.0,
            secs: ar * iters,
        });
        extras.push(ExtraDraw {
            role: Role::Compute,
            comp: Comp::Gpu,
            watts: 90.0,
            secs: ar * iters,
        });
        // File-based loaders additionally run an NFS server for their peers:
        // per-file LOOKUP/OPEN/READ/CLOSE server CPU, ≈3 ms per served
        // sample. EMLIO's daemon serving is already in its stage map and is
        // cheaper — pre-batched sequential reads instead of per-file ops,
        // which is §4.1's energy argument.
        if matches!(kind, LoaderKind::Pytorch | LoaderKind::Dali) {
            let served = w.samples as f64 * remote_fraction;
            extras.push(ExtraDraw {
                role: Role::Compute,
                comp: Comp::Cpu,
                watts: 70.0,
                secs: served * 0.003,
            });
        }
    }

    let built = loaders::build(
        kind,
        w,
        regime,
        stages,
        &consts,
        &storage,
        loaders::ScenarioTuning {
            remote_fraction,
            dali_readers_override: dali_readers,
        },
    );
    let makespan = built.makespan_secs();
    let busy: Vec<f64> = built
        .stages
        .iter()
        .map(|s| s.busy_secs(built.batches))
        .collect();
    let cluster = energy::integrate(
        makespan,
        &busy,
        &built.energy_map,
        &compute,
        Some(&storage),
        &extras,
        fold,
    );

    ExperimentRow {
        figure: figure.to_string(),
        workload: w.name.clone(),
        regime: regime.name.clone(),
        method: method_name
            .map(str::to_string)
            .unwrap_or_else(|| kind.name()),
        duration_secs: makespan,
        compute: cluster.compute,
        storage: cluster.storage,
    }
}

/// Figure 1: R / R+P / R+P+T breakdown under the four distance regimes,
/// using the DALI-style default loader stack.
pub fn fig1() -> Vec<ExperimentRow> {
    let w = Workload::imagenet_resnet50();
    let consts = ModelConstants::default();
    let mut rows = Vec::new();
    for regime in Regime::fig5_set() {
        for (set, name) in [
            (StageSet::ReadOnly, "R"),
            (StageSet::ReadPreprocess, "R+P"),
            (StageSet::Full, "R+P+T"),
        ] {
            rows.push(run_one(
                "fig1",
                LoaderKind::Dali,
                &w,
                &regime,
                set,
                Scenario::Centralized,
                &consts,
                Some(name),
            ));
        }
    }
    rows
}

/// Figure 5: ImageNet/ResNet-50 centralized, three loaders × four regimes.
pub fn fig5() -> Vec<ExperimentRow> {
    matrix(
        "fig5",
        &Workload::imagenet_resnet50(),
        &Regime::fig5_set(),
        &[
            LoaderKind::Pytorch,
            LoaderKind::Dali,
            LoaderKind::Emlio { concurrency: 2 },
        ],
        Scenario::Centralized,
    )
}

/// Figure 6: COCO centralized, DALI vs EMLIO × three RTTs.
pub fn fig6() -> Vec<ExperimentRow> {
    matrix(
        "fig6",
        &Workload::coco_resnet50(),
        &Regime::fig6_set(),
        &[LoaderKind::Dali, LoaderKind::Emlio { concurrency: 2 }],
        Scenario::Centralized,
    )
}

/// Figure 7: synthetic 2 MB, EMLIO daemon concurrency 1.
pub fn fig7() -> Vec<ExperimentRow> {
    matrix(
        "fig7",
        &Workload::synthetic_2mb(),
        &Regime::fig7_set(),
        &[LoaderKind::Dali, LoaderKind::Emlio { concurrency: 1 }],
        Scenario::Centralized,
    )
}

/// Figure 8: synthetic 2 MB, EMLIO daemon concurrency 2.
pub fn fig8() -> Vec<ExperimentRow> {
    matrix(
        "fig8",
        &Workload::synthetic_2mb(),
        &Regime::fig8_set(),
        &[LoaderKind::Dali, LoaderKind::Emlio { concurrency: 2 }],
        Scenario::Centralized,
    )
}

/// Figure 9: VGG-19 on ImageNet, DALI vs EMLIO × three RTTs.
pub fn fig9() -> Vec<ExperimentRow> {
    matrix(
        "fig9",
        &Workload::imagenet_vgg19(),
        &Regime::fig6_set(),
        &[LoaderKind::Dali, LoaderKind::Emlio { concurrency: 2 }],
        Scenario::Centralized,
    )
}

/// Figure 10: sharded scenario (50 % local + 50 % remote, 2-node DDP).
pub fn fig10() -> Vec<ExperimentRow> {
    matrix(
        "fig10",
        &Workload::imagenet_resnet50(),
        &Regime::fig6_set(),
        &[LoaderKind::Dali, LoaderKind::Emlio { concurrency: 2 }],
        Scenario::Sharded { nodes: 2 },
    )
}

fn matrix(
    figure: &str,
    w: &Workload,
    regimes: &[Regime],
    loaders: &[LoaderKind],
    scenario: Scenario,
) -> Vec<ExperimentRow> {
    let consts = ModelConstants::default();
    let mut rows = Vec::new();
    for regime in regimes {
        for &kind in loaders {
            rows.push(run_one(
                figure,
                kind,
                w,
                regime,
                StageSet::Full,
                scenario,
                &consts,
                None,
            ));
        }
    }
    rows
}

/// One point of a Figure 11 loss trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossPoint {
    /// Wall-clock seconds.
    pub t_secs: f64,
    /// Mean loss over the seeds.
    pub mean: f64,
    /// ±1 standard deviation over the seeds.
    pub std: f64,
}

/// One loader's Figure 11 trace.
#[derive(Debug, Clone)]
pub struct LossTrace {
    /// Loader name.
    pub method: String,
    /// Downsampled loss-vs-time points.
    pub points: Vec<LossPoint>,
    /// Epoch completion time.
    pub epoch_end_secs: f64,
}

/// Figure 11: training loss vs wall-clock time at 10 ms RTT over COCO.
/// Three seeded runs give the ±1 std band. DALI runs with a reader pool of
/// 2 instead of the default 8, hand-set (ROADMAP item 8).
pub fn fig11() -> Vec<LossTrace> {
    let w = Workload::coco_resnet50();
    let regime = Regime::remote_ms(10.0);
    let consts = ModelConstants::default();
    let storage = NodeSpec::uc_storage();
    let mut traces = Vec::new();
    for (kind, readers) in [
        (LoaderKind::Dali, Some(2)),
        (LoaderKind::Emlio { concurrency: 2 }, None),
    ] {
        let built = loaders::build(
            kind,
            &w,
            &regime,
            StageSet::Full,
            &consts,
            &storage,
            loaders::ScenarioTuning {
                remote_fraction: 1.0,
                dali_readers_override: readers,
            },
        );
        // Iteration completion times, in order.
        let exits: Vec<f64> = built.exits().into_iter().map(nanos_to_secs).collect();
        let epoch_end = exits.last().copied().unwrap_or(0.0);

        // Loss curves with three noise seeds.
        let curves: Vec<LossCurve> = (0..3)
            .map(|s| LossCurve {
                seed: 11 + s,
                ..LossCurve::fig11_coco()
            })
            .collect();
        let stride = (exits.len() / 200).max(1);
        let mut points = Vec::new();
        for (i, &t) in exits.iter().enumerate().step_by(stride) {
            let samples = (i as u64 + 1) * w.batch_size;
            let losses: Vec<f64> = curves
                .iter()
                .map(|c| c.loss_at(samples, i as u64))
                .collect();
            let mean = losses.iter().sum::<f64>() / losses.len() as f64;
            let var = losses.iter().map(|l| (l - mean).powi(2)).sum::<f64>() / losses.len() as f64;
            points.push(LossPoint {
                t_secs: t,
                mean,
                std: var.sqrt(),
            });
        }
        traces.push(LossTrace {
            method: kind.name(),
            points,
            epoch_end_secs: epoch_end,
        });
    }
    traces
}

/// Ablation sweeps over EMLIO's knobs at 30 ms RTT: daemon concurrency,
/// HWM, batch size, TCP window and RTT.
pub fn ablations() -> Vec<ExperimentRow> {
    let w = Workload::imagenet_resnet50();
    let regime = Regime::remote_ms(30.0);
    let mut rows = Vec::new();

    for c in [1u32, 2, 4, 8] {
        let consts = ModelConstants::default();
        rows.push(run_one(
            "abl-concurrency",
            LoaderKind::Emlio { concurrency: c },
            &w,
            &regime,
            StageSet::Full,
            Scenario::Centralized,
            &consts,
            Some(&format!("T={c}")),
        ));
    }
    for hwm in [1u64, 2, 4, 8, 16, 32] {
        let consts = ModelConstants {
            hwm,
            ..ModelConstants::default()
        };
        rows.push(run_one(
            "abl-hwm",
            LoaderKind::Emlio { concurrency: 2 },
            &w,
            &regime,
            StageSet::Full,
            Scenario::Centralized,
            &consts,
            Some(&format!("HWM={hwm}")),
        ));
    }
    for b in [16u64, 32, 64, 128, 256] {
        let mut wb = w.clone();
        wb.batch_size = b;
        let consts = ModelConstants::default();
        rows.push(run_one(
            "abl-batch",
            LoaderKind::Emlio { concurrency: 2 },
            &wb,
            &regime,
            StageSet::Full,
            Scenario::Centralized,
            &consts,
            Some(&format!("B={b}")),
        ));
    }
    // TCP window sweep: the crossover where in-flight bytes drop below the
    // bandwidth-delay product and EMLIO's masking breaks — the mechanism
    // behind §4's RTT-resilience claim, made visible.
    for window_kb in [64u64, 256, 1024, 4096, 16384] {
        let consts = ModelConstants {
            tcp_window: (window_kb << 10) as f64,
            hwm: 1, // window-limited, not HWM-limited
            ..ModelConstants::default()
        };
        rows.push(run_one(
            "abl-window",
            LoaderKind::Emlio { concurrency: 2 },
            &w,
            &regime,
            StageSet::Full,
            Scenario::Centralized,
            &consts,
            Some(&format!("W={window_kb}KiB")),
        ));
    }
    // RTT sweep far past the paper's 30 ms: masking holds until the window
    // runs out.
    for rtt_ms in [30.0f64, 100.0, 300.0, 1000.0] {
        let consts = ModelConstants::default();
        rows.push(run_one(
            "abl-rtt",
            LoaderKind::Emlio { concurrency: 2 },
            &w,
            &Regime::remote_ms(rtt_ms),
            StageSet::Full,
            Scenario::Centralized,
            &consts,
            Some(&format!("RTT={rtt_ms}ms")),
        ));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_shape_holds() {
        let rows = fig5();
        assert_eq!(rows.len(), 12);
        let get = |regime: &str, method: &str| {
            rows.iter()
                .find(|r| r.regime == regime && r.method == method)
                .unwrap()
        };
        // EMLIO flat across regimes (±8 %).
        let e_local = get("local", "emlio(c=2)").duration_secs;
        let e_wan = get("30ms", "emlio(c=2)").duration_secs;
        assert!((e_wan - e_local).abs() / e_local < 0.08);
        // Baselines collapse at WAN; ordering pytorch > dali > emlio.
        let p = get("30ms", "pytorch");
        let d = get("30ms", "dali");
        let e = get("30ms", "emlio(c=2)");
        assert!(p.duration_secs > d.duration_secs);
        assert!(d.duration_secs > 5.0 * e.duration_secs);
        // Energy follows duration: baselines burn much more at WAN.
        assert!(p.total_j() > 5.0 * e.total_j());
        assert!(d.total_j() > 2.0 * e.total_j());
    }

    #[test]
    fn fig1_io_share_grows_with_rtt() {
        let rows = fig1();
        let share = |regime: &str| {
            let r = rows
                .iter()
                .find(|r| r.regime == regime && r.method == "R")
                .unwrap();
            let full = rows
                .iter()
                .find(|r| r.regime == regime && r.method == "R+P+T")
                .unwrap();
            r.duration_secs / full.duration_secs
        };
        // Paper: I/O ≈ 20 % of epoch locally, > 90 % at 30 ms.
        assert!(share("local") < 0.45, "local read share {}", share("local"));
        assert!(share("30ms") > 0.85, "WAN read share {}", share("30ms"));
    }

    #[test]
    fn fig7_fig8_concurrency_story() {
        let f7 = fig7();
        let f8 = fig8();
        let d7 = |rg: &str| {
            f7.iter()
                .find(|r| r.regime == rg && r.method == "dali")
                .unwrap()
                .duration_secs
        };
        let e7 = |rg: &str| {
            f7.iter()
                .find(|r| r.regime == rg && r.method.starts_with("emlio"))
                .unwrap()
                .duration_secs
        };
        // c=1: serialization makes EMLIO slower at 0.1/1 ms…
        assert!(e7("0.1ms") > d7("0.1ms"));
        assert!(e7("1ms") > d7("1ms"));
        // …but it still wins at high RTT.
        assert!(e7("30ms") < d7("30ms") * 0.5);
        // c=2 closes the low-RTT gap.
        let e8 = |rg: &str| {
            f8.iter()
                .find(|r| r.regime == rg && r.method.starts_with("emlio"))
                .unwrap()
                .duration_secs
        };
        assert!(e8("0.1ms") < e7("0.1ms") * 0.8);
    }

    #[test]
    fn fig10_time_flat_energy_grows() {
        let rows = fig10();
        let e = |rg: &str| {
            rows.iter()
                .find(|r| r.regime == rg && r.method.starts_with("emlio"))
                .unwrap()
        };
        let d = |rg: &str| {
            rows.iter()
                .find(|r| r.regime == rg && r.method == "dali")
                .unwrap()
        };
        // EMLIO: duration roughly flat, energy strictly growing with RTT.
        let t01 = e("0.1ms").duration_secs;
        let t30 = e("30ms").duration_secs;
        assert!(
            (t30 - t01) / t01 < 0.35,
            "EMLIO sharded ≈flat: {t01} vs {t30}"
        );
        assert!(e("30ms").total_j() > e("0.1ms").total_j() * 1.1);
        // DALI balloons.
        assert!(d("30ms").duration_secs > 10.0 * t30);
        // EMLIO saves energy vs DALI at every RTT.
        for rg in ["0.1ms", "10ms", "30ms"] {
            assert!(e(rg).total_j() < d(rg).total_j());
        }
    }

    #[test]
    fn fig11_emlio_converges_faster_in_wall_clock() {
        let traces = fig11();
        let dali = traces.iter().find(|t| t.method == "dali").unwrap();
        let emlio = traces
            .iter()
            .find(|t| t.method.starts_with("emlio"))
            .unwrap();
        assert!(
            dali.epoch_end_secs > 5.0 * emlio.epoch_end_secs,
            "paper ≈7.5×: {} vs {}",
            dali.epoch_end_secs,
            emlio.epoch_end_secs
        );
        // At any common wall-clock time EMLIO's loss is lower.
        let loss_at = |tr: &LossTrace, t: f64| {
            tr.points
                .iter()
                .take_while(|p| p.t_secs <= t)
                .last()
                .map(|p| p.mean)
                .unwrap_or(f64::INFINITY)
        };
        let t = emlio.epoch_end_secs * 0.8;
        assert!(loss_at(emlio, t) < loss_at(dali, t));
        // Final losses similar (same samples seen).
        let fe = emlio.points.last().unwrap().mean;
        let fd = dali.points.last().unwrap().mean;
        assert!((fe - fd).abs() < 0.15, "final losses {fe} vs {fd}");
    }

    #[test]
    fn ablations_run() {
        let rows = ablations();
        assert!(rows.len() >= 19);
        // Concurrency 1 must be slower than 2 for ImageNet too? No — 0.1 MB
        // batches serialize fast; just assert everything completed sanely.
        for r in &rows {
            assert!(r.duration_secs > 50.0 && r.duration_secs < 10_000.0);
            assert!(r.total_j() > 0.0);
        }
    }
}
