//! Calibrated model cost profiles.

use std::time::Duration;

/// Compute-cost profile of one backbone on the reference GPU (Quadro
/// RTX 6000, Table 1). Calibration anchors:
///
/// * ResNet-50, local disk, 10 GB ImageNet subset (102 400 samples):
///   paper epoch ≈ 151.7 s → ≈ 1.45 ms/sample; GPU energy ≈ 26–27 kJ over
///   ≈ 155 s → mean GPU power ≈ 170 W → utilization ≈ 0.62 against a
///   25–260 W envelope.
/// * VGG-19, LAN 0.1 ms: epoch ≈ 141 s → ≈ 1.36 ms/sample, GPU ≈ 34.5 kJ →
///   ≈ 245 W → utilization ≈ 0.94 (VGG's dense convolutions saturate).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelProfile {
    /// Backbone name.
    pub name: String,
    /// Trainable parameters.
    pub params: u64,
    /// Forward+backward+optimizer time per *sample* on the reference GPU.
    pub step_secs_per_sample: f64,
    /// GPU utilization while a step runs.
    pub gpu_util: f64,
    /// CPU utilization of the training process while a step runs (host
    /// side of the training loop, optimizer bookkeeping).
    pub cpu_util: f64,
}

impl ModelProfile {
    /// ResNet-50 (25.6 M parameters).
    pub fn resnet50() -> ModelProfile {
        ModelProfile {
            name: "resnet50".into(),
            params: 25_600_000,
            step_secs_per_sample: 0.00145,
            gpu_util: 0.62,
            cpu_util: 0.25,
        }
    }

    /// VGG-19 (143.7 M parameters).
    pub fn vgg19() -> ModelProfile {
        ModelProfile {
            name: "vgg19".into(),
            params: 143_700_000,
            step_secs_per_sample: 0.00136,
            gpu_util: 0.94,
            cpu_util: 0.30,
        }
    }

    /// Gradient size in bytes (fp32).
    pub fn grad_bytes(&self) -> u64 {
        self.params * 4
    }

    /// Time for one training step over `batch` samples.
    pub fn step_time(&self, batch: usize) -> Duration {
        Duration::from_secs_f64(self.step_secs_per_sample * batch as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet50_epoch_matches_paper_anchor() {
        // 10 GB at 0.1 MB/sample = 102 400 samples.
        let profile = ModelProfile::resnet50();
        let epoch = profile.step_time(102_400).as_secs_f64();
        assert!(
            (140.0..165.0).contains(&epoch),
            "local ResNet-50 epoch should be ≈150 s, got {epoch}"
        );
    }

    #[test]
    fn vgg19_heavier_gradients() {
        let r = ModelProfile::resnet50();
        let v = ModelProfile::vgg19();
        assert!(v.grad_bytes() > 5 * r.grad_bytes());
        assert!(v.gpu_util > r.gpu_util);
    }

    #[test]
    fn step_time_scales_with_batch() {
        let p = ModelProfile::resnet50();
        let one = p.step_time(1).as_secs_f64();
        let batch = p.step_time(64).as_secs_f64();
        assert!((batch - 64.0 * one).abs() < 1e-9);
    }
}
