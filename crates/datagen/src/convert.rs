//! Dataset materialization: the same sample stream written in two layouts.
//!
//! * **TFRecord shards + `mapping_shard_*.json`** — what the EMLIO planner
//!   and daemon consume (§4.3's one-time conversion).
//! * **One file per sample** (`sample_XXXXXXXX.sif` + `labels.json`) — what
//!   PyTorch DataLoader and DALI read over the NFS mount in the baselines.
//!
//! Both layouts carry identical payload bytes, so loader comparisons differ
//! only in access pattern, never in content.

use crate::dataset::DatasetSpec;
use emlio_tfrecord::{GlobalIndex, RecordError, ShardSpec, ShardWriter};
use emlio_util::json::Json;
use std::path::{Path, PathBuf};

/// File name for sample `id` in the per-file layout.
pub fn sample_file_name(id: u64) -> String {
    format!("sample_{id:08}.sif")
}

/// Write `spec` as TFRecord shards into `dir`; returns the loaded index.
pub fn build_tfrecord_dataset(
    dir: &Path,
    spec: &DatasetSpec,
    shards: ShardSpec,
) -> Result<GlobalIndex, RecordError> {
    let mut writer = ShardWriter::create(dir, shards)?;
    for id in 0..spec.num_samples {
        let payload = spec.payload_of(id);
        writer.append(&payload, spec.label_of(id))?;
    }
    writer.finish()
}

/// Write `spec` as one file per sample into `dir`, plus `labels.json`.
/// Returns the relative paths in sample-id order.
pub fn build_file_dataset(dir: &Path, spec: &DatasetSpec) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut files = Vec::with_capacity(spec.num_samples as usize);
    let mut labels = Vec::with_capacity(spec.num_samples as usize);
    for id in 0..spec.num_samples {
        let name = sample_file_name(id);
        std::fs::write(dir.join(&name), spec.payload_of(id))?;
        labels.push(Json::obj([
            ("file", Json::str(name.clone())),
            ("label", Json::Uint(spec.label_of(id).into())),
        ]));
        files.push(PathBuf::from(name));
    }
    let doc = Json::obj([
        ("dataset", Json::str(spec.name.clone())),
        ("samples", Json::Arr(labels)),
    ]);
    std::fs::write(dir.join("labels.json"), doc.to_string_pretty())?;
    Ok(files)
}

/// Load the label list of a per-file dataset.
pub fn load_file_dataset(dir: &Path) -> std::io::Result<Vec<(PathBuf, u32)>> {
    let text = std::fs::read_to_string(dir.join("labels.json"))?;
    let doc = Json::parse(&text)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let samples = doc
        .get("samples")
        .and_then(Json::as_arr)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no samples"))?;
    samples
        .iter()
        .map(|s| {
            let file = s
                .get("file")
                .and_then(Json::as_str)
                .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no file"))?;
            let label = s.get("label").and_then(Json::as_u32).ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "missing or out-of-range label",
                )
            })?;
            Ok((PathBuf::from(file), label))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use emlio_tfrecord::record::decode_all;
    use emlio_tfrecord::{RangeReader, RecordMeta};
    use emlio_util::testutil::TempDir;

    /// The one record `meta` indexes, read and decoded with CRC checks.
    fn payload_at(reader: &RangeReader, meta: &RecordMeta) -> Vec<u8> {
        let mut buf = Vec::new();
        reader
            .read_range_into(meta.offset, meta.length, &mut buf)
            .unwrap();
        let recs = decode_all(&buf, true).unwrap();
        assert_eq!(recs.len(), 1, "the index spans exactly one record");
        recs[0].payload.to_vec()
    }

    #[test]
    fn tfrecord_layout_roundtrips_payloads() {
        let dir = TempDir::new("datagen-tfrecord");
        let spec = DatasetSpec::tiny("conv", 12);
        let index = build_tfrecord_dataset(dir.path(), &spec, ShardSpec::Count(3)).unwrap();
        assert_eq!(index.total_records(), 12);
        // Every record's bytes match the generator output for its sample id.
        for shard in &index.shards {
            let reader = RangeReader::open(&index.shard_path(shard.shard_id)).unwrap();
            for meta in &shard.records {
                let payload = payload_at(&reader, meta);
                assert_eq!(payload, spec.payload_of(meta.sample_id));
                assert_eq!(meta.label, spec.label_of(meta.sample_id));
            }
        }
    }

    #[test]
    fn file_layout_matches_tfrecord_bytes() {
        let dir = TempDir::new("datagen-files");
        let spec = DatasetSpec::tiny("files", 6);
        let tf_dir = dir.path().join("tf");
        let file_dir = dir.path().join("files");
        let index = build_tfrecord_dataset(&tf_dir, &spec, ShardSpec::Count(2)).unwrap();
        build_file_dataset(&file_dir, &spec).unwrap();

        for shard in &index.shards {
            let reader = RangeReader::open(&index.shard_path(shard.shard_id)).unwrap();
            for meta in &shard.records {
                let tf_bytes = payload_at(&reader, meta);
                let f_bytes =
                    std::fs::read(file_dir.join(sample_file_name(meta.sample_id))).unwrap();
                assert_eq!(tf_bytes, f_bytes, "layouts carry identical bytes");
            }
        }
    }

    #[test]
    fn labels_json_loads() {
        let dir = TempDir::new("datagen-labels");
        let spec = DatasetSpec::tiny("lbl", 5);
        build_file_dataset(dir.path(), &spec).unwrap();
        let loaded = load_file_dataset(dir.path()).unwrap();
        assert_eq!(loaded.len(), 5);
        for (id, (file, label)) in loaded.iter().enumerate() {
            assert_eq!(file, &PathBuf::from(sample_file_name(id as u64)));
            assert_eq!(*label, spec.label_of(id as u64));
        }
    }

    #[test]
    fn labels_above_u32_are_rejected() {
        // 2^32 + 7 must not load as label 7.
        let dir = TempDir::new("datagen-label-u32");
        build_file_dataset(dir.path(), &DatasetSpec::tiny("big", 2)).unwrap();
        let path = dir.path().join("labels.json");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"label\": 0"));
        std::fs::write(
            &path,
            text.replacen("\"label\": 0", "\"label\": 4294967303", 1),
        )
        .unwrap();
        let err = load_file_dataset(dir.path()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}
