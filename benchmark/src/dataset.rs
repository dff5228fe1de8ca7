//! Seeded, cached inputs.
//!
//! `<root>/<shape>-<seed>/data/` holds what the program under test is
//! given (shards and their indexes, nothing else); `manifest.bin` beside
//! it holds what only the benchmark knows: each sample's CRC32C and label,
//! taken at generation time. A directory whose manifest is present is
//! reused as it is, so repeat runs of a seed skip the build.

use crate::sut::{self, SampleFacts};
use crate::workload::DatasetShape;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const MAGIC: &[u8; 8] = b"LEDGERv1";
/// Generated datasets of one shape kept on disk, newest first; 200 MiB
/// each, and the driver uses a new seed for most runs.
const KEEP_PER_SHAPE: usize = 2;

pub struct Dataset {
    /// The directory handed to the program under test.
    pub data_dir: PathBuf,
    /// Indexed by sample id.
    pub facts: Arc<Vec<SampleFacts>>,
    /// Seconds spent generating; 0 when a cached dataset was reused.
    pub build_s: f64,
}

fn encode_manifest(facts: &[SampleFacts]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + facts.len() * 8);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(facts.len() as u64).to_le_bytes());
    for f in facts {
        out.extend_from_slice(&f.crc.to_le_bytes());
        out.extend_from_slice(&f.label.to_le_bytes());
    }
    out
}

fn decode_manifest(bytes: &[u8]) -> Option<Vec<SampleFacts>> {
    let body = bytes.strip_prefix(MAGIC)?;
    let (n, body) = body.split_first_chunk::<8>()?;
    let n = usize::try_from(u64::from_le_bytes(*n)).ok()?;
    if body.len() != n.checked_mul(8)? {
        return None;
    }
    Some(
        body.chunks_exact(8)
            .map(|c| SampleFacts {
                crc: u32::from_le_bytes([c[0], c[1], c[2], c[3]]),
                label: u32::from_le_bytes([c[4], c[5], c[6], c[7]]),
            })
            .collect(),
    )
}

/// The dataset of `shape` for `seed` under `root`, generated if absent.
pub fn ensure(root: &Path, shape: &DatasetShape, seed: u64) -> Result<Dataset, String> {
    let home = root.join(format!("{}-{seed}", shape.slug()));
    let data_dir = home.join("data");
    let manifest = home.join("manifest.bin");
    if let Some(facts) = std::fs::read(&manifest)
        .ok()
        .and_then(|b| decode_manifest(&b))
        .filter(|f| f.len() as u64 == shape.samples)
    {
        return Ok(Dataset {
            data_dir,
            facts: Arc::new(facts),
            build_s: 0.0,
        });
    }

    let t0 = Instant::now();
    // A home without a valid manifest is a build that did not finish.
    if home.exists() {
        std::fs::remove_dir_all(&home).map_err(|e| format!("clear {}: {e}", home.display()))?;
    }
    std::fs::create_dir_all(&data_dir)
        .map_err(|e| format!("create {}: {e}", data_dir.display()))?;
    let facts = sut::write_dataset(&data_dir, shape, seed)?;
    // Written last and renamed into place: its presence means the shards
    // before it are complete.
    let tmp = home.join("manifest.tmp");
    std::fs::write(&tmp, encode_manifest(&facts))
        .and_then(|()| std::fs::rename(&tmp, &manifest))
        .map_err(|e| format!("write {}: {e}", manifest.display()))?;
    evict_older(root, &shape.slug(), &home);
    Ok(Dataset {
        data_dir,
        facts: Arc::new(facts),
        build_s: t0.elapsed().as_secs_f64(),
    })
}

/// Best effort: a dataset that cannot be removed only costs disk.
fn evict_older(root: &Path, slug: &str, keep: &Path) {
    let Ok(entries) = std::fs::read_dir(root) else {
        return;
    };
    let prefix = format!("{slug}-");
    let mut others: Vec<(std::time::SystemTime, PathBuf)> = entries
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with(&prefix) && e.path() != keep)
        .filter_map(|e| Some((e.metadata().ok()?.modified().ok()?, e.path())))
        .collect();
    others.sort();
    let excess = (others.len() + 1).saturating_sub(KEEP_PER_SHAPE);
    for (_, path) in others.into_iter().take(excess) {
        let _ = std::fs::remove_dir_all(path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_roundtrip_and_rejects_damage() {
        let facts = vec![
            SampleFacts { crc: 1, label: 2 },
            SampleFacts {
                crc: u32::MAX,
                label: 0,
            },
        ];
        let bytes = encode_manifest(&facts);
        assert_eq!(decode_manifest(&bytes), Some(facts));
        assert_eq!(decode_manifest(&bytes[..bytes.len() - 1]), None);
        assert_eq!(decode_manifest(b"LEDGERv0"), None);
        let mut huge = bytes.clone();
        huge[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(decode_manifest(&huge), None);
    }
}
