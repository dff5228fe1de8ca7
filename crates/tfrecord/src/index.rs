//! Shard index files — the `mapping_shard_*.json` metadata Algorithm 2
//! parses to build its global `(offset, size, label)` map.

use crate::record::RecordError;
use crate::Result;
use emlio_util::json::Json;
use std::path::{Path, PathBuf};

/// Metadata for one record inside a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordMeta {
    /// Byte offset of the framed record within the shard file.
    pub offset: u64,
    /// Encoded length in bytes (payload + 16 bytes framing).
    pub length: u64,
    /// Class label.
    pub label: u32,
    /// Globally unique sample id (stable across shuffles — used by tests to
    /// prove exactly-once epoch coverage).
    pub sample_id: u64,
}

/// Index of a single shard file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardIndex {
    /// Shard number within the dataset.
    pub shard_id: u32,
    /// Shard file name (relative to the dataset directory).
    pub file_name: String,
    /// Per-record metadata in file order (offsets strictly increasing).
    pub records: Vec<RecordMeta>,
}

impl ShardIndex {
    /// Conventional index file name for a shard id.
    pub fn index_file_name(shard_id: u32) -> String {
        format!("mapping_shard_{shard_id:05}.json")
    }

    /// Conventional shard data file name.
    pub fn shard_file_name(shard_id: u32) -> String {
        format!("shard_{shard_id:05}.tfrecord")
    }

    /// Total encoded bytes covered by this index.
    pub fn total_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.length).sum()
    }

    /// The contiguous byte span covering records `[start, end)`.
    ///
    /// Record ranges produced by the planner are always contiguous in file
    /// order, which is what makes one view (or one positioned read) per
    /// batch possible.
    pub fn span(&self, start: usize, end: usize) -> Result<(u64, u64)> {
        if start >= end || end > self.records.len() {
            return Err(RecordError::BadIndex(format!(
                "span [{start}, {end}) out of bounds for {} records",
                self.records.len()
            )));
        }
        let first = &self.records[start];
        let last = &self.records[end - 1];
        // `from_json` has checked every record's end; an index built in
        // memory has not been through it.
        last.offset
            .checked_add(last.length)
            .and_then(|span_end| span_end.checked_sub(first.offset))
            .map(|size| (first.offset, size))
            .ok_or_else(|| {
                RecordError::BadIndex(format!("span [{start}, {end}) overflows or runs backwards"))
            })
    }

    /// Serialize to the JSON document stored next to the shard.
    pub fn to_json(&self) -> Json {
        let records: Vec<Json> = self
            .records
            .iter()
            .map(|r| {
                Json::obj([
                    ("offset", Json::Uint(r.offset)),
                    ("length", Json::Uint(r.length)),
                    ("label", Json::Uint(r.label.into())),
                    ("sample_id", Json::Uint(r.sample_id)),
                ])
            })
            .collect();
        Json::obj([
            ("shard_id", Json::Uint(self.shard_id.into())),
            ("file_name", Json::str(self.file_name.clone())),
            ("records", Json::Arr(records)),
        ])
    }

    /// Parse from JSON, validating monotone offsets.
    pub fn from_json(doc: &Json) -> Result<ShardIndex> {
        let shard_id = doc
            .get("shard_id")
            .and_then(Json::as_u32)
            .ok_or_else(|| RecordError::BadIndex("missing or out-of-range shard_id".into()))?;
        let file_name = doc
            .get("file_name")
            .and_then(Json::as_str)
            .ok_or_else(|| RecordError::BadIndex("missing file_name".into()))?
            .to_string();
        let recs = doc
            .get("records")
            .and_then(Json::as_arr)
            .ok_or_else(|| RecordError::BadIndex("missing records".into()))?;
        let mut records = Vec::with_capacity(recs.len());
        let mut expected_offset = 0u64;
        for (i, r) in recs.iter().enumerate() {
            let get = |k: &str| {
                r.get(k)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| RecordError::BadIndex(format!("record {i}: missing {k}")))
            };
            let label = r.get("label").and_then(Json::as_u32).ok_or_else(|| {
                RecordError::BadIndex(format!("record {i}: missing or out-of-range label"))
            })?;
            let meta = RecordMeta {
                offset: get("offset")?,
                length: get("length")?,
                label,
                sample_id: get("sample_id")?,
            };
            if meta.offset != expected_offset {
                return Err(RecordError::BadIndex(format!(
                    "record {i}: offset {} != expected {expected_offset} (non-contiguous index)",
                    meta.offset
                )));
            }
            expected_offset = meta.offset.checked_add(meta.length).ok_or_else(|| {
                RecordError::BadIndex(format!(
                    "record {i}: offset {} + length {} overflows",
                    meta.offset, meta.length
                ))
            })?;
            records.push(meta);
        }
        Ok(ShardIndex {
            shard_id,
            file_name,
            records,
        })
    }

    /// Write the index file into `dir` using the conventional name.
    pub fn save(&self, dir: &Path) -> Result<PathBuf> {
        let path = dir.join(Self::index_file_name(self.shard_id));
        std::fs::write(&path, self.to_json().to_string_pretty())?;
        Ok(path)
    }

    /// Load an index file.
    pub fn load(path: &Path) -> Result<ShardIndex> {
        let text = std::fs::read_to_string(path)?;
        let doc = Json::parse(&text)
            .map_err(|e| RecordError::BadIndex(format!("{}: {e}", path.display())))?;
        Self::from_json(&doc)
    }
}

/// All shards of a dataset, loaded from `mapping_shard_*.json` files.
#[derive(Debug, Clone, Default)]
pub struct GlobalIndex {
    /// Dataset directory (shard file names are relative to it).
    pub dir: PathBuf,
    /// Shard indexes sorted by `shard_id`.
    pub shards: Vec<ShardIndex>,
}

impl GlobalIndex {
    /// Scan `dir` for `mapping_shard_*.json` files and load them all
    /// (Algorithm 2, line 1).
    pub fn load_dir(dir: &Path) -> Result<GlobalIndex> {
        let mut shards = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("mapping_shard_") && name.ends_with(".json") {
                shards.push(ShardIndex::load(&entry.path())?);
            }
        }
        if shards.is_empty() {
            return Err(RecordError::BadIndex(format!(
                "no mapping_shard_*.json files in {}",
                dir.display()
            )));
        }
        shards.sort_by_key(|s| s.shard_id);
        for (i, s) in shards.iter().enumerate() {
            if s.shard_id != i as u32 {
                return Err(RecordError::BadIndex(format!(
                    "shard ids not dense: expected {i}, found {}",
                    s.shard_id
                )));
            }
        }
        Ok(GlobalIndex {
            dir: dir.to_path_buf(),
            shards,
        })
    }

    /// Total number of records across shards.
    pub fn total_records(&self) -> usize {
        self.shards.iter().map(|s| s.records.len()).sum()
    }

    /// Total dataset bytes (encoded).
    pub fn total_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.total_bytes()).sum()
    }

    /// Absolute path of a shard's data file.
    pub fn shard_path(&self, shard_id: u32) -> PathBuf {
        self.dir.join(&self.shards[shard_id as usize].file_name)
    }

    /// Byte length of block `key`'s span; `None` for an unknown shard or
    /// a record range the shard does not have.
    pub fn block_len(&self, key: &crate::BlockKey) -> Option<u64> {
        let shard = self.shards.get(key.shard_id as usize)?;
        shard.span(key.start, key.end).ok().map(|(_, size)| size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emlio_util::testutil::TempDir;

    fn sample_index() -> ShardIndex {
        let mut records = Vec::new();
        let mut offset = 0;
        for i in 0..10u64 {
            let length = 16 + (i + 1) * 10;
            records.push(RecordMeta {
                offset,
                length,
                label: (i % 3) as u32,
                sample_id: 1000 + i,
            });
            offset += length;
        }
        ShardIndex {
            shard_id: 2,
            file_name: ShardIndex::shard_file_name(2),
            records,
        }
    }

    #[test]
    fn json_roundtrip() {
        let idx = sample_index();
        let back = ShardIndex::from_json(&idx.to_json()).unwrap();
        assert_eq!(back, idx);
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = TempDir::new("tfrecord-index");
        let idx = sample_index();
        let path = idx.save(dir.path()).unwrap();
        assert!(path.ends_with("mapping_shard_00002.json"));
        let back = ShardIndex::load(&path).unwrap();
        assert_eq!(back, idx);
    }

    #[test]
    fn span_math() {
        let idx = sample_index();
        let (o, s) = idx.span(0, 1).unwrap();
        assert_eq!((o, s), (0, 26));
        let (o, s) = idx.span(3, 6).unwrap();
        assert_eq!(o, idx.records[3].offset);
        assert_eq!(
            o + s,
            idx.records[5].offset + idx.records[5].length,
            "span covers through record 5"
        );
        assert!(idx.span(5, 5).is_err());
        assert!(idx.span(8, 11).is_err());
    }

    #[test]
    fn non_contiguous_index_rejected() {
        let mut idx = sample_index();
        idx.records[4].offset += 1;
        let doc = idx.to_json();
        assert!(ShardIndex::from_json(&doc).is_err());
    }

    #[test]
    fn forged_lengths_that_overflow_are_rejected() {
        // Added to the last record's offset, this length would wrap to a
        // small, plausible end.
        let mut idx = sample_index();
        idx.records[9].length = u64::MAX;
        assert!(matches!(
            ShardIndex::from_json(&idx.to_json()),
            Err(RecordError::BadIndex(_))
        ));
        // An index built in memory has not been through `from_json`: the
        // span arithmetic checks for itself.
        assert!(matches!(idx.span(8, 10), Err(RecordError::BadIndex(_))));
        assert!(idx.span(0, 9).is_ok(), "spans short of the forged record");
    }

    #[test]
    fn labels_and_shard_ids_above_u32_are_rejected() {
        // Label 2^32 + 7 must not load as label 7, nor shard 2^32 + 2 as 2.
        let text = sample_index().to_json().to_string_pretty();
        for (field, forged) in [
            ("\"label\": 0,", "\"label\": 4294967303,"),
            ("\"shard_id\": 2", "\"shard_id\": 4294967298"),
        ] {
            assert!(text.contains(field), "{field}");
            let doc = Json::parse(&text.replacen(field, forged, 1)).unwrap();
            assert!(
                matches!(ShardIndex::from_json(&doc), Err(RecordError::BadIndex(_))),
                "{forged} must not load"
            );
        }
    }

    #[test]
    fn parent_written_index_loads_and_rewrites_identically() {
        // Written by `emlio convert --dataset tiny --samples 6 --shards 2`
        // before the codec kept only unsigned integers.
        let text = r#"{
  "file_name": "shard_00000.tfrecord",
  "records": [
    {
      "label": 0,
      "length": 8208,
      "offset": 0,
      "sample_id": 0
    },
    {
      "label": 2,
      "length": 8208,
      "offset": 8208,
      "sample_id": 2
    },
    {
      "label": 4,
      "length": 8208,
      "offset": 16416,
      "sample_id": 4
    }
  ],
  "shard_id": 0
}
"#;
        let dir = TempDir::new("tfrecord-parent-index");
        let path = dir.path().join(ShardIndex::index_file_name(0));
        std::fs::write(&path, text).unwrap();
        let idx = ShardIndex::load(&path).unwrap();
        assert_eq!(
            (idx.shard_id, idx.file_name.as_str()),
            (0, "shard_00000.tfrecord")
        );
        let labels: Vec<u32> = idx.records.iter().map(|r| r.label).collect();
        assert_eq!(labels, [0, 2, 4]);
        assert_eq!(idx.records[2].offset, 16416);
        assert_eq!(idx.to_json().to_string_pretty(), text);
    }

    #[test]
    fn global_index_and_label_map() {
        let dir = TempDir::new("tfrecord-global");
        for shard_id in 0..3u32 {
            let mut idx = sample_index();
            idx.shard_id = shard_id;
            idx.file_name = ShardIndex::shard_file_name(shard_id);
            idx.save(dir.path()).unwrap();
        }
        let g = GlobalIndex::load_dir(dir.path()).unwrap();
        assert_eq!(g.shards.len(), 3);
        assert_eq!(g.total_records(), 30);
    }

    #[test]
    fn global_index_requires_dense_ids() {
        let dir = TempDir::new("tfrecord-sparse");
        let mut idx = sample_index();
        idx.shard_id = 1; // no shard 0
        idx.save(dir.path()).unwrap();
        assert!(GlobalIndex::load_dir(dir.path()).is_err());
    }

    #[test]
    fn empty_dir_is_error() {
        let dir = TempDir::new("tfrecord-empty");
        assert!(GlobalIndex::load_dir(dir.path()).is_err());
    }
}
