//! Cross-epoch persistence for the disk spill tier.
//!
//! A cache with a persistent spill directory writes a `spill-index.json`
//! describing every spilled block — key, length, and masked CRC32C of the
//! block bytes. A fresh cache (a restarted daemon) re-reads the index,
//! re-validates each spill file against its recorded CRC, and re-admits the
//! valid ones into the disk tier — so repeated training runs over the same
//! dataset skip the storage reads the previous run already paid for.
//! Invalid entries (missing file, wrong length, CRC mismatch, concurrent
//! writer litter) are deleted and skipped: the index is a hint, the CRC is
//! the authority.
//!
//! # Spill files are write-once
//!
//! A spill file is read back the way a shard is: mapped, and served as a
//! refcounted view of the mapping ([`read_validated`]). A view is only
//! sound while nobody truncates or rewrites the inode under it — the same
//! rule `emlio_tfrecord`'s `mapped.rs` states for shards. [`write_file`]
//! is what keeps it: every file in the directory is written whole under
//! `<name>.tmp` and renamed into place, so a path only ever changes which
//! inode it names, and no inode is opened for writing once it has a
//! name. A file unlinked (retired, reclaimed, replaced) while a view of it
//! lives keeps its bytes — and its disk blocks — until the last view
//! drops.

use bytes::Bytes;
use emlio_tfrecord::crc32c::masked_crc32c;
use emlio_tfrecord::{BlockKey, RangeReader};
use emlio_util::json::Json;
use std::ffi::OsString;
use std::io;
use std::path::{Path, PathBuf};

/// File name of the spill index inside the spill directory.
pub const SPILL_INDEX_FILE: &str = "spill-index.json";

/// One persisted spill block, as recorded in the index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpillEntry {
    /// The block's plan key.
    pub key: BlockKey,
    /// Spill file length in bytes.
    pub len: u64,
    /// Masked CRC32C of the block bytes.
    pub crc: u32,
}

/// Deterministic spill file name for a block key.
pub fn spill_file_name(key: &BlockKey) -> String {
    format!("block-{}-{}-{}.blk", key.shard_id, key.start, key.end)
}

/// Masked CRC32C of a block's bytes (the checksum the index records).
pub fn block_crc(data: &[u8]) -> u32 {
    masked_crc32c(data)
}

/// Serialize `entries` to the spill index in `dir` (atomic rename).
pub fn write_index(dir: &Path, entries: &[SpillEntry]) -> io::Result<()> {
    let blocks: Vec<Json> = entries
        .iter()
        .map(|e| {
            Json::obj([
                ("shard_id", Json::Uint(e.key.shard_id.into())),
                ("start", Json::Uint(e.key.start as u64)),
                ("end", Json::Uint(e.key.end as u64)),
                ("len", Json::Uint(e.len)),
                ("crc", Json::Uint(e.crc.into())),
            ])
        })
        .collect();
    let doc = Json::obj([("version", Json::Uint(1)), ("blocks", Json::Arr(blocks))]);
    write_file(
        &dir.join(SPILL_INDEX_FILE),
        doc.to_string_pretty().as_bytes(),
    )
}

/// Write `data` as the file at `path`: whole, under `<path>.tmp`, then
/// renamed over `path`. Never truncates or rewrites a file that already
/// has a name, so a live view of whatever `path` named before keeps its
/// bytes (see the module docs). A failed write leaves no `.tmp` behind; a
/// process that dies mid-write does, and [`remove_stale_tmp`] clears it.
pub fn write_file(path: &Path, data: &[u8]) -> io::Result<()> {
    let mut tmp = OsString::from(path);
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let written = std::fs::write(&tmp, data).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// Delete the `*.blk.tmp` spill files a writer that died mid-write left
/// in `dir`. Called when a persistent cache opens, before anything is
/// written there.
pub fn remove_stale_tmp(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        if entry.file_name().to_string_lossy().ends_with(".blk.tmp") {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// Parse the spill index in `dir`. `Ok(None)` when no index exists; a
/// malformed index is an error (the caller treats it as a cold start).
pub fn read_index(dir: &Path) -> io::Result<Option<Vec<SpillEntry>>> {
    let path = dir.join(SPILL_INDEX_FILE);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let doc = Json::parse(&text).map_err(|e| invalid(e.to_string()))?;
    let blocks = doc
        .get("blocks")
        .and_then(Json::as_arr)
        .ok_or_else(|| invalid("spill index: missing blocks array".into()))?;
    let mut entries = Vec::with_capacity(blocks.len());
    for (i, b) in blocks.iter().enumerate() {
        let bad = |k: &str| invalid(format!("spill index block {i}: {k} missing or too large"));
        let get = |k: &str| b.get(k).and_then(Json::as_u64).ok_or_else(|| bad(k));
        let get_u32 = |k: &str| b.get(k).and_then(Json::as_u32).ok_or_else(|| bad(k));
        entries.push(SpillEntry {
            key: BlockKey {
                shard_id: get_u32("shard_id")?,
                start: get("start")? as usize,
                end: get("end")? as usize,
            },
            len: get("len")?,
            crc: get_u32("crc")?,
        });
    }
    Ok(Some(entries))
}

/// Read a spill file back and check it: the file must exist, be `len`
/// bytes long and hash to `crc`. Every path that serves or re-admits
/// spilled bytes — demand promote, the prefetch executor's staging read,
/// in-place peek, restart re-admission — goes through this one check. `None` on any
/// failure; the file is left for the caller to retire.
///
/// The bytes are read the way a shard's are, through [`RangeReader`]:
/// the length is checked before any byte is read, so a file that is not
/// the recorded length — writer litter, a forged index entry — costs an
/// `fstat`, not a read of the whole file; the block is then a view of the
/// file's mapping, its pages faulted in on this thread and its length
/// checked once more, and the CRC runs over the view. No buffer is
/// allocated and no byte copied. Where the file cannot be mapped the same
/// range is one positioned read into a fresh buffer.
pub fn read_validated(path: &Path, len: u64, crc: u32) -> Option<Bytes> {
    let reader = RangeReader::open(path).ok()?;
    if reader.len() != len {
        return None;
    }
    let data = match reader.view(0, len).ok()? {
        Some(view) => view,
        None => {
            let mut buf = Vec::new();
            reader.read_range_into(0, len, &mut buf).ok()?;
            Bytes::from(buf)
        }
    };
    (block_crc(&data) == crc).then_some(data)
}

/// Validate one index entry against its spill file (see
/// [`read_validated`]; the view is checked and dropped). Returns the
/// spill file path on success; deletes
/// the file and reports `None` when validation fails (stale index, torn
/// write, bit rot).
pub fn validate_entry(dir: &Path, entry: &SpillEntry) -> Option<PathBuf> {
    let path = dir.join(spill_file_name(&entry.key));
    if read_validated(&path, entry.len, entry.crc).is_some() {
        return Some(path);
    }
    let _ = std::fs::remove_file(&path);
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use emlio_util::testutil::TempDir;

    fn key(i: usize) -> BlockKey {
        BlockKey {
            shard_id: 1,
            start: i * 10,
            end: (i + 1) * 10,
        }
    }

    #[test]
    fn index_roundtrip() {
        let dir = TempDir::new("spill-index");
        assert_eq!(read_index(dir.path()).unwrap(), None);
        let entries = vec![
            SpillEntry {
                key: key(0),
                len: 64,
                crc: 0xDEAD_BEEF,
            },
            SpillEntry {
                key: key(1),
                len: 128,
                crc: 7,
            },
        ];
        write_index(dir.path(), &entries).unwrap();
        assert_eq!(read_index(dir.path()).unwrap(), Some(entries));
    }

    #[test]
    fn validation_accepts_good_rejects_corrupt() {
        let dir = TempDir::new("spill-validate");
        let data = vec![0xABu8; 100];
        let entry = SpillEntry {
            key: key(0),
            len: 100,
            crc: block_crc(&data),
        };
        let path = dir.path().join(spill_file_name(&entry.key));
        std::fs::write(&path, &data).unwrap();
        assert_eq!(validate_entry(dir.path(), &entry), Some(path.clone()));

        // Flip one byte: CRC mismatch ⇒ rejected and deleted.
        let mut bad = data.clone();
        bad[42] ^= 1;
        std::fs::write(&path, &bad).unwrap();
        assert_eq!(validate_entry(dir.path(), &entry), None);
        assert!(!path.exists(), "invalid spill file is removed");

        // Missing file ⇒ rejected quietly.
        assert_eq!(validate_entry(dir.path(), &entry), None);
    }

    #[test]
    fn a_rewrite_replaces_the_file_and_a_view_keeps_its_bytes() {
        let dir = TempDir::new("spill-write-once");
        let path = dir.path().join(spill_file_name(&key(0)));
        let (old, new) = (vec![1u8; 5000], vec![2u8; 5000]);
        write_file(&path, &old).unwrap();
        let view = read_validated(&path, 5000, block_crc(&old)).unwrap();
        write_file(&path, &new).unwrap();
        assert_eq!(&view[..], &old[..], "the view maps the replaced file");
        assert_eq!(read_validated(&path, 5000, block_crc(&new)).unwrap(), new);
        assert_eq!(read_validated(&path, 5000, block_crc(&old)), None);
        let names: Vec<_> = std::fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, [spill_file_name(&key(0)).as_str()]);

        // A write that cannot land leaves nothing behind.
        let blocked = dir.path().join("taken");
        std::fs::create_dir(&blocked).unwrap();
        std::fs::write(blocked.join("inside"), b"x").unwrap();
        assert!(write_file(&blocked, &old).is_err());
        assert!(!dir.path().join("taken.tmp").exists());
    }

    #[test]
    fn a_file_of_another_length_than_recorded_is_rejected() {
        let dir = TempDir::new("spill-length");
        let path = dir.path().join(spill_file_name(&key(0)));
        let data = vec![7u8; 10_000];
        let crc = block_crc(&data);
        for len in [0, 4096, 9_999, 10_001, 20_000] {
            write_file(&path, &vec![7u8; len]).unwrap();
            assert_eq!(read_validated(&path, 10_000, crc), None, "{len} bytes");
        }
        write_file(&path, &data).unwrap();
        assert_eq!(read_validated(&path, 10_000, crc).unwrap(), data);
        // An empty block is an empty file: nothing to map, still checked.
        write_file(&path, &[]).unwrap();
        assert!(read_validated(&path, 0, block_crc(&[])).unwrap().is_empty());
        std::fs::remove_file(&path).unwrap();
        assert_eq!(read_validated(&path, 0, block_crc(&[])), None, "missing");
    }

    #[test]
    fn shard_ids_and_crcs_above_u32_are_rejected() {
        // Shard 2^32 + 1 must not load as shard 1, nor CRC 2^32 + 7 as 7.
        let dir = TempDir::new("spill-above-u32");
        let entry = SpillEntry {
            key: key(0),
            len: 64,
            crc: 7,
        };
        write_index(dir.path(), &[entry]).unwrap();
        let path = dir.path().join(SPILL_INDEX_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        for (field, forged) in [
            ("\"shard_id\": 1", "\"shard_id\": 4294967297"),
            ("\"crc\": 7", "\"crc\": 4294967303"),
        ] {
            assert!(text.contains(field), "{field}");
            std::fs::write(&path, text.replacen(field, forged, 1)).unwrap();
            let err = read_index(dir.path()).expect_err(forged);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }

    #[test]
    fn parent_written_spill_index_loads_and_rewrites_identically() {
        // Left by `emlio bench-io --cache-persist` before the codec kept
        // only unsigned integers; CRCs above 2^31 included.
        let text = r#"{
  "blocks": [
    {
      "crc": 82555645,
      "end": 2,
      "len": 16416,
      "shard_id": 0,
      "start": 0
    },
    {
      "crc": 4189835483,
      "end": 3,
      "len": 8208,
      "shard_id": 0,
      "start": 2
    },
    {
      "crc": 3315873165,
      "end": 2,
      "len": 16416,
      "shard_id": 1,
      "start": 0
    },
    {
      "crc": 310199745,
      "end": 3,
      "len": 8208,
      "shard_id": 1,
      "start": 2
    }
  ],
  "version": 1
}
"#;
        let dir = TempDir::new("spill-parent-index");
        let path = dir.path().join(SPILL_INDEX_FILE);
        std::fs::write(&path, text).unwrap();
        let entries = read_index(dir.path()).unwrap().unwrap();
        let got: Vec<_> = entries
            .iter()
            .map(|e| (e.key.shard_id, e.key.start, e.key.end, e.len, e.crc))
            .collect();
        assert_eq!(
            got,
            [
                (0, 0, 2, 16416, 82555645),
                (0, 2, 3, 8208, 4189835483),
                (1, 0, 2, 16416, 3315873165),
                (1, 2, 3, 8208, 310199745),
            ]
        );
        write_index(dir.path(), &entries).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
    }

    #[test]
    fn malformed_index_is_an_error() {
        let dir = TempDir::new("spill-malformed");
        std::fs::write(dir.path().join(SPILL_INDEX_FILE), "{not json").unwrap();
        assert!(read_index(dir.path()).is_err());
        std::fs::write(dir.path().join(SPILL_INDEX_FILE), "{\"version\": 1}").unwrap();
        assert!(read_index(dir.path()).is_err());
    }
}
