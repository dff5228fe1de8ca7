//! Workloads: dataset × backbone combinations from §5.1.

use emlio_trainsim::ModelProfile;

/// One evaluated workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Display name.
    pub name: String,
    /// Samples in the (10 GB) dataset.
    pub samples: u64,
    /// Bytes per sample.
    pub sample_bytes: u64,
    /// Batch size `B`.
    pub batch_size: u64,
    /// Backbone cost profile.
    pub model: ModelProfile,
    /// Per-sample step time override (seconds); `None` uses the profile.
    /// COCO's larger inputs make ResNet-50 steps slower than on ImageNet.
    pub step_override: Option<f64>,
    /// NFS round trips charged per sample by file-based loaders (images
    /// plus any side-car metadata; COCO reads annotation files too).
    pub nfs_rtts_per_sample: f64,
    /// DALI reader-pool override for this workload. Large records serialize
    /// through DALI's file reader nearly single-threaded (the paper's
    /// synthetic-2MB DALI numbers imply an effective pool of ~1).
    pub dali_readers: Option<u32>,
}

impl Workload {
    /// ImageNet 10 GB subset with ResNet-50 (Figures 1, 5, 10).
    pub fn imagenet_resnet50() -> Workload {
        Workload {
            name: "imagenet/resnet50".into(),
            samples: (10u64 << 30) / (100 << 10), // 104 857
            sample_bytes: 100 << 10,
            batch_size: 64,
            model: ModelProfile::resnet50(),
            step_override: None,
            nfs_rtts_per_sample: 4.0,
            dali_readers: None,
        }
    }

    /// ImageNet 10 GB subset with VGG-19 (Figure 9).
    pub fn imagenet_vgg19() -> Workload {
        Workload {
            name: "imagenet/vgg19".into(),
            model: ModelProfile::vgg19(),
            ..Workload::imagenet_resnet50()
        }
    }

    /// COCO (0.2 MB/sample) with ResNet-50 (Figures 6, 11). Two files per
    /// sample (image + annotation) double the metadata round trips.
    pub fn coco_resnet50() -> Workload {
        Workload {
            name: "coco/resnet50".into(),
            samples: (10u64 << 30) / (200 << 10), // 52 428
            sample_bytes: 200 << 10,
            batch_size: 64,
            model: ModelProfile::resnet50(),
            // 230 s epoch over 52 428 samples (Fig. 6, 0.1 ms anchors).
            step_override: Some(0.0044),
            nfs_rtts_per_sample: 8.0,
            dali_readers: None,
        }
    }

    /// Synthetic 2 MB records (Figures 7, 8). Multi-chunk NFS reads:
    /// open(2) + 2 READ waves + getattr + close ≈ 5–6 round trips.
    pub fn synthetic_2mb() -> Workload {
        Workload {
            name: "synthetic-2mb".into(),
            samples: (10u64 << 30) / (2 << 20), // 5 120
            sample_bytes: 2 << 20,
            batch_size: 64,
            model: ModelProfile::resnet50(),
            // ≈38 s consumer over 5 120 samples.
            step_override: Some(0.0074),
            nfs_rtts_per_sample: 5.0,
            dali_readers: Some(1),
        }
    }

    /// Effective per-sample step time.
    pub fn step_secs_per_sample(&self) -> f64 {
        self.step_override
            .unwrap_or(self.model.step_secs_per_sample)
    }

    /// Batches per epoch.
    pub fn batches(&self) -> u64 {
        self.samples.div_ceil(self.batch_size)
    }

    /// Bytes per (full) batch.
    pub fn batch_bytes(&self) -> u64 {
        self.batch_size * self.sample_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Compute-only epoch time, seconds.
    fn train_secs(w: &Workload) -> f64 {
        w.samples as f64 * w.step_secs_per_sample()
    }

    #[test]
    fn imagenet_anchor() {
        let w = Workload::imagenet_resnet50();
        assert_eq!(w.samples, 104_857);
        assert_eq!(w.batches(), 1639);
        let t = train_secs(&w);
        assert!(
            (145.0..160.0).contains(&t),
            "train-bound epoch ≈152 s, got {t}"
        );
    }

    #[test]
    fn coco_anchor() {
        let w = Workload::coco_resnet50();
        let t = train_secs(&w);
        assert!((215.0..245.0).contains(&t), "COCO epoch ≈230 s, got {t}");
    }

    #[test]
    fn synthetic_anchor() {
        let w = Workload::synthetic_2mb();
        assert_eq!(w.samples, 5_120);
        assert_eq!(w.batch_bytes(), 128 << 20);
        let t = train_secs(&w);
        assert!(
            (34.0..42.0).contains(&t),
            "synthetic consumer ≈38 s, got {t}"
        );
    }
}
