//! `emlio-baselines` — the paper's comparison loaders, runnable for real.
//!
//! §5.1 compares EMLIO against two state-of-the-art pipelines reading
//! per-sample files over an NFSv4 mount, PyTorch's `DataLoader` and DALI.
//! Here both are one mechanism, [`FileLoader`]: a pool of reader threads,
//! each claiming the next batch and reading every sample of it with its
//! own `NfsMount::read_file`, which is exactly the many-small-reads
//! pattern that multiplies RTTs. Its two presets,
//! [`FileLoaderConfig::pytorch`] and [`FileLoaderConfig::dali`], set what
//! differs: the pool size, the queue depth, and whether batches arrive in
//! order (torch's reorder buffer) or as they are read. DALI's
//! preprocessing half is `emlio-pipeline` with GPU placement.
//!
//! [`FileLoader`] implements [`emlio_pipeline::ExternalSource`], so it
//! feeds the same preprocessing pipeline as the EMLIO receiver —
//! comparisons differ only in how bytes reach the compute node.

pub mod file_loader;
pub mod loader;

pub use file_loader::{FileLoader, FileLoaderConfig};
pub use loader::{run_epoch_through, EpochResult};
