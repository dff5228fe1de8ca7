//! The persistent disk spill tier: a directory that is its own index.
//!
//! Every spill file is named for its block and carries its own checksum:
//! `block-<shard>-<start>-<end>-<crc>.blk` ([`spill_file_name`]), where
//! `<crc>` ([`block_crc`]) covers the block's key as well as its bytes, so
//! a file renamed — or damaged — into another block's name fails the
//! check like damaged bytes do. A cache with a persistent spill directory
//! keeps its files when it drops, and a fresh cache over the same directory
//! (a restarted daemon) scans it and re-admits every whole, valid file
//! into its disk tier, at most one per key, in key order, while the tier
//! has room; every other `block-*.blk` file of this format — invalid, a
//! second file of a key, or over the budget — is deleted. So repeated
//! training runs over the same dataset skip the storage reads the previous
//! run already paid for, and a crash leaves nothing behind that the next
//! run does not account for: no record of the directory can go stale,
//! because there is none beside it. Files whose names this module did not
//! write are left alone.
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
use emlio_tfrecord::crc32c::{crc32c, masked_crc32c};
use emlio_tfrecord::{BlockKey, RangeReader};
use std::ffi::OsString;
use std::io;
use std::path::{Path, PathBuf};

/// Spill file name for `key`'s block with checksum `crc` ([`block_crc`]).
pub fn spill_file_name(key: &BlockKey, crc: u32) -> String {
    let BlockKey {
        shard_id,
        start,
        end,
    } = key;
    format!("block-{shard_id}-{start}-{end}-{crc:08x}.blk")
}

/// The key and checksum a spill file's name gives: the inverse of
/// [`spill_file_name`], and `None` for every name it does not write — any
/// other format, a number out of range, a leading zero or `+`, upper-case
/// hex.
pub fn parse_spill_file_name(name: &str) -> Option<(BlockKey, u32)> {
    let fields = name.strip_prefix("block-")?.strip_suffix(".blk")?;
    let mut fields = fields.split('-');
    let key = BlockKey {
        shard_id: fields.next()?.parse().ok()?,
        start: fields.next()?.parse().ok()?,
        end: fields.next()?.parse().ok()?,
    };
    let crc = u32::from_str_radix(fields.next()?, 16).ok()?;
    (spill_file_name(&key, crc) == name).then_some((key, crc))
}

/// The checksum of `key`'s block `data`: a masked CRC32C over the key and
/// a CRC32C of the bytes. One pass over the bytes, as for a bare CRC.
pub fn block_crc(key: &BlockKey, data: &[u8]) -> u32 {
    let mut summary = [0u8; 24];
    summary[..4].copy_from_slice(&key.shard_id.to_le_bytes());
    summary[4..12].copy_from_slice(&(key.start as u64).to_le_bytes());
    summary[12..20].copy_from_slice(&(key.end as u64).to_le_bytes());
    summary[20..].copy_from_slice(&crc32c(data).to_le_bytes());
    masked_crc32c(&summary)
}

/// Write `data` as the file at `path`: whole, under `<path>.tmp`, then
/// renamed over `path`. Never truncates or rewrites a file that already
/// has a name, so a live view of whatever `path` named before keeps its
/// bytes (see the module docs). A failed write leaves no `.tmp` behind; a
/// process that dies mid-write does, and the next scan clears it.
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

/// A spill file [`scan`] found: the key and checksum its name gives, and
/// its length.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Found {
    pub(crate) key: BlockKey,
    pub(crate) crc: u32,
    pub(crate) path: PathBuf,
    pub(crate) len: u64,
}

/// The spill files in `dir` — regular files whose names
/// [`parse_spill_file_name`] accepts — sorted by key, then name. Nothing
/// is read but the directory and each file's length. The `*.blk.tmp`
/// files a writer that died mid-write left are deleted on the way; every
/// other file is left alone. A directory that cannot be listed holds none.
pub(crate) fn scan(dir: &Path) -> Vec<Found> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut found = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.ends_with(".blk.tmp") {
            let _ = std::fs::remove_file(entry.path());
            continue;
        }
        let Some((key, crc)) = parse_spill_file_name(name) else {
            continue;
        };
        if let Some(meta) = entry.metadata().ok().filter(std::fs::Metadata::is_file) {
            let (path, len) = (entry.path(), meta.len());
            found.push(Found {
                key,
                crc,
                path,
                len,
            });
        }
    }
    found.sort_unstable_by(|a, b| (a.key, &a.path).cmp(&(b.key, &b.path)));
    found
}

/// Read `key`'s spill file back and check it: the file must exist, be
/// `len` bytes long and match `crc` ([`block_crc`] of `key` and its
/// bytes). Every path that serves or re-admits spilled bytes — demand
/// promote, the prefetch executor's staging read, in-place peek, restart
/// re-admission — goes through this one check. `None` on any failure; the
/// file is left for the caller to retire.
///
/// The bytes are read the way a shard's are, through [`RangeReader`]:
/// the length is checked before any byte is read, so a file that is not
/// the expected length — writer litter, a damaged file — costs an
/// `fstat`, not a read of the whole file; the block is then a view of the
/// file's mapping, its pages faulted in on this thread and its length
/// checked once more, and the CRC runs over the view. No buffer is
/// allocated and no byte copied. Where the file cannot be mapped the same
/// range is one positioned read into a fresh buffer.
pub fn read_validated(key: &BlockKey, path: &Path, len: u64, crc: u32) -> Option<Bytes> {
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
    (block_crc(key, &data) == crc).then_some(data)
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

    /// `data` written as `key`'s spill file in `dir`: its path and checksum.
    fn spill(dir: &TempDir, key: &BlockKey, data: &[u8]) -> (PathBuf, u32) {
        let crc = block_crc(key, data);
        let path = dir.path().join(spill_file_name(key, crc));
        write_file(&path, data).unwrap();
        (path, crc)
    }

    #[test]
    fn validation_accepts_good_rejects_corrupt() {
        let dir = TempDir::new("spill-validate");
        let data = vec![0xABu8; 100];
        let (path, crc) = spill(&dir, &key(0), &data);
        assert_eq!(read_validated(&key(0), &path, 100, crc).unwrap(), data);

        // The checksum covers the key: the same bytes are not key 1's.
        assert_eq!(read_validated(&key(1), &path, 100, crc), None);
        assert_ne!(block_crc(&key(1), &data), crc);

        // Flip one byte: CRC mismatch ⇒ rejected, and left for the caller.
        let mut bad = data.clone();
        bad[42] ^= 1;
        std::fs::write(&path, &bad).unwrap();
        assert_eq!(read_validated(&key(0), &path, 100, crc), None);
        assert!(path.exists());

        // Missing file ⇒ rejected quietly.
        std::fs::remove_file(&path).unwrap();
        assert_eq!(read_validated(&key(0), &path, 100, crc), None);
    }

    #[test]
    fn a_rewrite_replaces_the_file_and_a_view_keeps_its_bytes() {
        let dir = TempDir::new("spill-write-once");
        let (old, new) = (vec![1u8; 5000], vec![2u8; 5000]);
        let (old_crc, new_crc) = (block_crc(&key(0), &old), block_crc(&key(0), &new));
        let path = dir.path().join(spill_file_name(&key(0), old_crc));
        write_file(&path, &old).unwrap();
        let view = read_validated(&key(0), &path, 5000, old_crc).unwrap();
        write_file(&path, &new).unwrap();
        assert_eq!(&view[..], &old[..], "the view maps the replaced file");
        assert_eq!(read_validated(&key(0), &path, 5000, new_crc).unwrap(), new);
        assert_eq!(read_validated(&key(0), &path, 5000, old_crc), None);
        let names: Vec<_> = std::fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, [spill_file_name(&key(0), old_crc).as_str()]);

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
        let data = vec![7u8; 10_000];
        let (path, crc) = spill(&dir, &key(0), &data);
        for len in [0, 4096, 9_999, 10_001, 20_000] {
            write_file(&path, &vec![7u8; len]).unwrap();
            assert_eq!(
                read_validated(&key(0), &path, 10_000, crc),
                None,
                "{len} bytes"
            );
        }
        write_file(&path, &data).unwrap();
        assert_eq!(read_validated(&key(0), &path, 10_000, crc).unwrap(), data);
        // An empty block is an empty file: nothing to map, still checked.
        let empty = block_crc(&key(0), &[]);
        write_file(&path, &[]).unwrap();
        assert!(read_validated(&key(0), &path, 0, empty).unwrap().is_empty());
        std::fs::remove_file(&path).unwrap();
        assert_eq!(read_validated(&key(0), &path, 0, empty), None, "missing");
    }

    #[test]
    fn shard_ids_and_crcs_above_u32_are_rejected() {
        // Shard 2^32 + 1 must not parse as shard 1, nor CRC 2^32 + 7 as 7.
        let name = spill_file_name(&key(0), 7);
        assert_eq!(name, "block-1-0-10-00000007.blk");
        assert_eq!(parse_spill_file_name(&name), Some((key(0), 7)));
        for forged in [
            "block-4294967297-0-10-00000007.blk",
            "block-1-0-10-100000007.blk",
        ] {
            assert_eq!(parse_spill_file_name(forged), None, "{forged}");
        }
        // Nor does any name the writer would not have written.
        for other in [
            "block-1-0-10.blk",
            "block-01-0-10-00000007.blk",
            "block-+1-0-10-00000007.blk",
            "block-1-0-10-0000000A.blk",
            "block-1-0-10-00000007-1.blk",
            "block-1-0-10-00000007.blk.tmp",
            "notes.txt",
        ] {
            assert_eq!(parse_spill_file_name(other), None, "{other}");
        }
    }

    #[test]
    fn a_scan_lists_its_own_files_in_key_order_and_clears_stale_tmp() {
        let dir = TempDir::new("spill-scan");
        let files: Vec<(PathBuf, u32)> = [2, 0, 1]
            .iter()
            .map(|&i| spill(&dir, &key(i), &vec![i as u8; 10 * i]))
            .collect();
        let tmp = dir.file(&format!("{}.tmp", spill_file_name(&key(3), 3)));
        std::fs::write(&tmp, b"half a block").unwrap();
        let alien = ["notes.txt", "block-1-0-10.blk"].map(|name| dir.file(name));
        for path in &alien {
            std::fs::write(path, b"not the cache's").unwrap();
        }
        std::fs::create_dir(dir.file(&spill_file_name(&key(4), 4))).unwrap();

        let found = scan(dir.path());
        let want: Vec<Found> = [1, 2, 0]
            .map(|f| {
                let i = [2, 0, 1][f];
                let (path, crc) = files[f].clone();
                let len = 10 * i as u64;
                Found {
                    key: key(i),
                    crc,
                    path,
                    len,
                }
            })
            .into();
        assert_eq!(found, want);
        assert!(!tmp.exists(), "the half-written file is gone");
        assert!(alien.iter().all(|path| path.exists()), "others left alone");
        assert!(scan(&dir.file("missing")).is_empty());
    }
}
