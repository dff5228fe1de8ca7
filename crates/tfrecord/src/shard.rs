//! Sharded dataset writer: converts a stream of `(payload, label)` samples
//! into `shard_*.tfrecord` files plus `mapping_shard_*.json` indexes.
//!
//! The paper amortizes a one-time conversion of raw data into TFRecord form
//! across all later training jobs (§4.3); this writer is that conversion.

use crate::index::{GlobalIndex, RecordMeta, ShardIndex};
use crate::writer::RecordWriter;
use crate::Result;
use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};

/// How samples are distributed across shard files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardSpec {
    /// Fixed number of shards, samples assigned round-robin.
    Count(u32),
    /// Start a new shard whenever the current one reaches this many bytes.
    TargetBytes(u64),
}

struct OpenShard {
    writer: RecordWriter<BufWriter<File>>,
    index: ShardIndex,
}

/// Streaming sharded-dataset writer.
pub struct ShardWriter {
    dir: PathBuf,
    spec: ShardSpec,
    shards: Vec<OpenShard>,
    next_round_robin: usize,
    next_sample_id: u64,
}

impl ShardWriter {
    /// Create a writer into `dir` (created if missing).
    pub fn create(dir: &Path, spec: ShardSpec) -> Result<ShardWriter> {
        std::fs::create_dir_all(dir)?;
        let mut w = ShardWriter {
            dir: dir.to_path_buf(),
            spec,
            shards: Vec::new(),
            next_round_robin: 0,
            next_sample_id: 0,
        };
        match spec {
            ShardSpec::Count(n) => {
                assert!(n > 0, "shard count must be positive");
                for id in 0..n {
                    w.open_shard(id)?;
                }
            }
            ShardSpec::TargetBytes(b) => {
                assert!(b > 0, "target bytes must be positive");
                w.open_shard(0)?;
            }
        }
        Ok(w)
    }

    fn open_shard(&mut self, shard_id: u32) -> Result<()> {
        let file_name = ShardIndex::shard_file_name(shard_id);
        let file = File::create(self.dir.join(&file_name))?;
        self.shards.push(OpenShard {
            writer: RecordWriter::new(BufWriter::new(file)),
            index: ShardIndex {
                shard_id,
                file_name,
                records: Vec::new(),
            },
        });
        Ok(())
    }

    /// Append one sample; returns its globally unique sample id.
    pub fn append(&mut self, payload: &[u8], label: u32) -> Result<u64> {
        let slot = match self.spec {
            ShardSpec::Count(n) => {
                let s = self.next_round_robin;
                self.next_round_robin = (self.next_round_robin + 1) % n as usize;
                s
            }
            ShardSpec::TargetBytes(target) => {
                let last = self.shards.len() - 1;
                if self.shards[last].writer.bytes_written() >= target {
                    let id = self.shards.len() as u32;
                    self.open_shard(id)?;
                    self.shards.len() - 1
                } else {
                    last
                }
            }
        };
        let shard = &mut self.shards[slot];
        let offset = shard.writer.write_record(payload)?;
        let sample_id = self.next_sample_id;
        self.next_sample_id += 1;
        shard.index.records.push(RecordMeta {
            offset,
            length: crate::record::encoded_len(payload.len()),
            label,
            sample_id,
        });
        Ok(sample_id)
    }

    /// Flush all shard files, write all index files, and return the loaded
    /// [`GlobalIndex`].
    pub fn finish(self) -> Result<GlobalIndex> {
        let dir = self.dir.clone();
        for shard in self.shards {
            shard.writer.finish()?;
            shard.index.save(&dir)?;
        }
        GlobalIndex::load_dir(&dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::RangeReader;
    use crate::record::decode_all;
    use emlio_util::testutil::TempDir;

    fn write_dataset(dir: &Path, spec: ShardSpec, n: usize) -> GlobalIndex {
        let mut w = ShardWriter::create(dir, spec).unwrap();
        for i in 0..n {
            let payload = vec![(i % 251) as u8; 50 + (i % 7) * 10];
            w.append(&payload, (i % 10) as u32).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn round_robin_distribution() {
        let dir = TempDir::new("shard-rr");
        let g = write_dataset(dir.path(), ShardSpec::Count(4), 103);
        assert_eq!(g.shards.len(), 4);
        assert_eq!(g.total_records(), 103);
        // Round-robin: first 3 shards get 26, last gets 25.
        let counts: Vec<usize> = g.shards.iter().map(|s| s.records.len()).collect();
        assert_eq!(counts, vec![26, 26, 26, 25]);
    }

    #[test]
    fn target_bytes_rolls_over() {
        let dir = TempDir::new("shard-bytes");
        let g = write_dataset(dir.path(), ShardSpec::TargetBytes(1000), 60);
        assert!(g.shards.len() > 1, "should split into multiple shards");
        assert_eq!(g.total_records(), 60);
        // Every shard except possibly the last holds ≥ target bytes.
        for s in &g.shards[..g.shards.len() - 1] {
            assert!(s.total_bytes() >= 1000);
        }
    }

    #[test]
    fn sample_ids_unique_and_dense() {
        let dir = TempDir::new("shard-ids");
        let g = write_dataset(dir.path(), ShardSpec::Count(3), 50);
        let mut ids: Vec<u64> = g
            .shards
            .iter()
            .flat_map(|s| s.records.iter().map(|r| r.sample_id))
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn data_matches_index_via_range_reads() {
        let dir = TempDir::new("shard-verify");
        let g = write_dataset(dir.path(), ShardSpec::Count(2), 30);
        for shard in &g.shards {
            let rr = RangeReader::open(&g.shard_path(shard.shard_id)).unwrap();
            let mut buf = Vec::new();
            let mut payloads = |offset, size| {
                rr.read_range_into(offset, size, &mut buf).unwrap();
                let recs = decode_all(&buf, true).unwrap();
                recs.iter().map(|r| r.payload.to_vec()).collect::<Vec<_>>()
            };
            // Whole-shard contiguous read decodes every record.
            let (off, size) = shard.span(0, shard.records.len()).unwrap();
            let whole = payloads(off, size);
            assert_eq!(whole.len(), shard.records.len());
            // Individual reads agree with batch reads.
            for (i, meta) in shard.records.iter().enumerate() {
                let single = payloads(meta.offset, meta.length);
                assert_eq!(single, [whole[i].clone()]);
            }
        }
    }
}
