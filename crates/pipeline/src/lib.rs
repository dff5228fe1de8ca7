//! `emlio-pipeline` — a DALI-style preprocessing pipeline.
//!
//! On the compute side, EMLIO hands raw batches to "a DALI pipeline
//! \[that\] performs GPU-accelerated preprocessing — decoding JPEGs, resizing,
//! cropping, normalizing tensors, and asynchronously prefetching multiple
//! batches" (§4.1, Algorithm 3). This crate rebuilds that pipeline:
//!
//! * [`ops`] — real operator implementations over the SIF codec: decode,
//!   bilinear resize, random/center crop, float normalization to CHW
//!   tensors. These do genuine CPU work;
//! * [`external_source`] — the `external_source` feed: any producer of
//!   [`RawBatch`]es (the EMLIO receiver's queue, a file reader, a vector of
//!   test data);
//! * [`executor`] — the `exec_async`/`exec_pipelined` runtime: a worker pool
//!   processes whole batches concurrently and a bounded prefetch queue of
//!   depth `Q` decouples preprocessing from the training loop, exactly like
//!   DALI's prefetch-queue-depth;
//! * [`gpu`] — the **simulated accelerator**: there is no GPU in this
//!   environment, so operators execute on CPU while the accelerator wrapper
//!   accounts busy time scaled by a calibrated speedup and exposes a
//!   utilization probe for the energy monitor. In the DES testbed the same
//!   calibration constants drive the GPU stage's virtual service times.
//!
//! Batches may complete out of submission order when several workers run —
//! the consumer sees arrival order, which is precisely the out-of-order
//! delivery EMLIO's receiver produces.

pub mod executor;
pub mod external_source;
pub mod gpu;
pub mod ops;

pub use executor::{Device, Pipeline, PipelineBuilder, ProcessedBatch};
pub use external_source::{ExternalSource, VecSource};
pub use gpu::Accelerator;
pub use ops::Tensor;

use bytes::Bytes;

/// One raw (encoded) training sample.
#[derive(Debug, Clone, PartialEq)]
pub struct RawSample {
    /// Encoded payload (SIF stream, possibly padded).
    pub bytes: Bytes,
    /// Class label.
    pub label: u32,
    /// Globally unique sample id.
    pub sample_id: u64,
}

/// One raw batch as delivered by a loader.
#[derive(Debug, Clone, PartialEq)]
pub struct RawBatch {
    /// Epoch this batch belongs to.
    pub epoch: u32,
    /// Batch sequence number within the epoch (unique per epoch).
    pub batch_id: u64,
    /// The samples.
    pub samples: Vec<RawSample>,
}

impl RawBatch {
    /// Total payload bytes in the batch.
    pub fn payload_bytes(&self) -> u64 {
        self.samples.iter().map(|s| s.bytes.len() as u64).sum()
    }
}
