//! `emlio-datagen` — synthetic datasets with real codec work.
//!
//! The paper evaluates on ImageNet (≈0.1 MB/sample), COCO (≈0.2 MB/sample),
//! and synthetic 2 MB records (§5.1). Those datasets are not shippable here,
//! so this crate generates equivalents that exercise the same code paths:
//!
//! * [`sif`] — the **SIF image codec** (quantize → predictive delta → RLE),
//!   implemented from scratch. Decoding does genuine, size-proportional CPU
//!   work, which is what makes "offload decode to the GPU" (DALI's role)
//!   measurable rather than cosmetic;
//! * [`image`] — deterministic synthetic image synthesis (seeded gradients +
//!   structured noise) so datasets are reproducible byte-for-byte;
//! * [`dataset`] — workload specs with the paper's per-sample sizes and
//!   `scaled()` variants for tests;
//! * [`convert`] — materialization: TFRecord shards + index files (EMLIO's
//!   layout) *and* one-file-per-sample directories (what PyTorch/DALI read
//!   over NFS), from the same sample stream, so loader comparisons consume
//!   identical bytes.

pub mod convert;
pub mod dataset;
pub mod image;
pub mod sif;

pub use dataset::DatasetSpec;
pub use image::Image;
pub use sif::{decode, encode, SifError};
