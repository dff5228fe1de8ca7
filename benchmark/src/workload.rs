//! The five workloads. Plain data: `sut.rs` turns it into deployments.
//!
//! Every workload is a closed loop with one consumer: the consumer pulls
//! its next batch only after it has finished the previous one, and the
//! stream behind it is flow-controlled by the socket high-water mark. They
//! are sized for a 2-core sandbox (one consumer thread, one pipeline
//! worker, one or two daemon send workers).

/// Which synthetic dataset a workload streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// 100 KiB samples holding a decodable 176x176x3 image.
    ImagenetLike,
    /// 8 KiB samples holding a decodable 48x48x3 image.
    Tiny,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetShape {
    pub kind: DatasetKind,
    pub samples: u64,
    pub shards: u32,
}

impl DatasetShape {
    pub const IMAGENET_LIKE: DatasetShape = DatasetShape {
        kind: DatasetKind::ImagenetLike,
        samples: 2048,
        shards: 8,
    };
    pub const TINY: DatasetShape = DatasetShape {
        kind: DatasetKind::Tiny,
        samples: 20_000,
        shards: 8,
    };

    pub fn sample_bytes(&self) -> u64 {
        match self.kind {
            DatasetKind::ImagenetLike => 100 << 10,
            DatasetKind::Tiny => 8 << 10,
        }
    }

    /// Directory-name stem of the generated dataset.
    pub fn slug(&self) -> String {
        let kind = match self.kind {
            DatasetKind::ImagenetLike => "imagenet",
            DatasetKind::Tiny => "tiny",
        };
        format!("{kind}-{}x{}s", self.samples, self.shards)
    }
}

/// The daemon-side block cache of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheSpec {
    pub ram_mib: u64,
    /// 0 = no disk tier.
    pub disk_mib: u64,
    /// Keep the disk tier across daemon restarts and promote this much of
    /// it into RAM when the next daemon installs its plan.
    pub warm_start_mib: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Storage {
    /// Shard files read with positioned reads (page-cache resident here).
    Local,
    /// `daemons` daemons share one emulated NFS mount at `rtt_ms` and
    /// 10 Gb/s, and serve each other's cache tiers through `PeerSource`.
    NfsFleet { daemons: usize, rtt_ms: u64 },
}

/// decode -> resize -> centre crop -> normalize, one worker, prefetch 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineSpec {
    pub resize: u16,
    pub crop: u16,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists and what it bypasses.
    pub why: &'static str,
    pub dataset: DatasetShape,
    pub batch: usize,
    /// Send workers per daemon (`T`).
    pub threads: usize,
    pub cache: Option<CacheSpec>,
    pub storage: Storage,
    /// RTT of the shaping proxy between daemon and receiver.
    pub wan_rtt_ms: Option<u64>,
    pub pipeline: Option<PipelineSpec>,
    /// Epochs served before the measured window opens. Sized so that the
    /// warm-up is at least two seconds of work on the 2-core sandbox; it
    /// is part of `setup_s`.
    pub warm_epochs: u32,
    /// Plan epochs the 2-core sandbox serves per second at steady state.
    /// It sizes the window from `--seconds`; the window itself is a fixed
    /// amount of work, so a slower machine measures longer, not less.
    pub epochs_per_second: f64,
}

impl Workload {
    pub fn daemons(&self) -> usize {
        match self.storage {
            Storage::Local => 1,
            Storage::NfsFleet { daemons, .. } => daemons,
        }
    }

    /// Epochs in a measured window meant to last `seconds`.
    pub fn window_epochs(&self, seconds: f64) -> u32 {
        ((self.epochs_per_second * seconds).round() as u32).max(2)
    }

    /// Seconds the warm-up plus a `window_epochs`-long window should take
    /// on the sizing machine; the watchdog allows four times this.
    pub fn expected_seconds(&self, window_epochs: u32) -> f64 {
        (self.warm_epochs + window_epochs) as f64 / self.epochs_per_second
    }
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "cold_local",
        why: "no cache, local shards: every epoch is a storage read, so tfrecord, wire, zmq and receiver do all the work and cache none",
        dataset: DatasetShape::IMAGENET_LIKE,
        batch: 32,
        threads: 1,
        cache: None,
        storage: Storage::Local,
        wan_rtt_ms: None,
        pipeline: None,
        warm_epochs: 10,
        epochs_per_second: 10.5,
    },
    Workload {
        name: "warm_small",
        why: "RAM tier holds the whole 8 KiB-sample dataset: the cache-hit zero-copy path, where per-sample header, scan and refcount costs dominate",
        dataset: DatasetShape::TINY,
        batch: 64,
        threads: 1,
        cache: Some(CacheSpec {
            ram_mib: 256,
            disk_mib: 0,
            warm_start_mib: 0,
        }),
        storage: Storage::Local,
        wan_rtt_ms: None,
        pipeline: None,
        warm_epochs: 12,
        epochs_per_second: 14.5,
    },
    Workload {
        name: "spill_churn",
        why: "50 MiB RAM over a 200 MiB dataset with a disk tier: eviction and spill writes beside promote reads, the cache used the other way round",
        dataset: DatasetShape::IMAGENET_LIKE,
        batch: 32,
        threads: 1,
        cache: Some(CacheSpec {
            ram_mib: 50,
            disk_mib: 256,
            warm_start_mib: 32,
        }),
        storage: Storage::Local,
        wan_rtt_ms: None,
        pipeline: None,
        warm_epochs: 6,
        epochs_per_second: 4.3,
    },
    Workload {
        name: "fleet_nfs_rtt30",
        why: "two daemons share an emulated NFS mount at 30 ms RTT: storage-latency-bound with an idle CPU, so prefetch, peer fetches and retry decide the result",
        dataset: DatasetShape::IMAGENET_LIKE,
        batch: 32,
        threads: 1,
        cache: Some(CacheSpec {
            ram_mib: 50,
            disk_mib: 0,
            warm_start_mib: 0,
        }),
        storage: Storage::NfsFleet {
            daemons: 2,
            rtt_ms: 30,
        },
        wan_rtt_ms: None,
        pipeline: None,
        warm_epochs: 1,
        epochs_per_second: 0.31,
    },
    Workload {
        name: "wan_train_rtt30",
        why: "the paper's deployment, 30 ms RTT to a preprocessing pipeline: pipeline-bound, the control on which an I/O optimisation should change nothing",
        dataset: DatasetShape::IMAGENET_LIKE,
        batch: 16,
        threads: 2,
        cache: None,
        storage: Storage::Local,
        wan_rtt_ms: Some(30),
        pipeline: Some(PipelineSpec {
            resize: 64,
            crop: 56,
        }),
        warm_epochs: 2,
        epochs_per_second: 1.0,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_windows_never_empty() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[i + 1..].iter().all(|o| o.name != w.name));
            assert!(w.window_epochs(0.1) >= 2);
            assert!(w.why.len() <= 200, "{} why is one line", w.name);
            assert_eq!(by_name(w.name), Some(w));
        }
        assert_eq!(by_name("nope"), None);
    }
}
