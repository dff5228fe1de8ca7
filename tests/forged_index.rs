//! Forged index files: a real converted shard's `mapping_shard_*.json`,
//! and one of the spill files a persistent cache left — its bytes, and its
//! name, the spill tier's only index — each damaged by every truncation,
//! every byte set to 0x00, 0xff and `b ^ 0x80`, and thousands of seeded
//! multi-byte overwrites. Loading never panics or aborts; every damaged
//! shard index that still loads reads each of its planned blocks through
//! `TfrecordSource` to `Ok` or a `RecordError`; and a cache reopened over
//! each damaged spill directory re-admits only blocks byte-identical to
//! storage's, and deletes or leaves alone the file it does not re-admit.

use emlio::cache::persist::parse_spill_file_name;
use emlio::cache::{BlockKey, CacheConfig, RangeSource, ShardCache};
use emlio::core::{EmlioConfig, Plan};
use emlio::datagen::convert::build_tfrecord_dataset;
use emlio::datagen::DatasetSpec;
use emlio::tfrecord::{GlobalIndex, ShardIndex, ShardSpec, TfrecordSource};
use emlio::util::testutil::TempDir;
use std::ffi::{OsStr, OsString};
use std::os::unix::ffi::OsStrExt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;

/// SplitMix64: the seeded stream the random damage is drawn from.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Every damaged copy of `doc`: each strict prefix, each byte set to 0x00,
/// 0xff and `b ^ 0x80`, and `random` copies with 1–4 bytes overwritten,
/// each a random byte anywhere or, half the time, a random digit over a
/// digit: a forged number rather than a broken document.
fn damaged(doc: &[u8], random: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = (0..doc.len()).map(|cut| doc[..cut].to_vec()).collect();
    for (i, &b) in doc.iter().enumerate() {
        for v in [0x00, 0xff, b ^ 0x80] {
            let mut copy = doc.to_vec();
            copy[i] = v;
            out.push(copy);
        }
    }
    let digits: Vec<usize> = (0..doc.len())
        .filter(|&i| doc[i].is_ascii_digit())
        .collect();
    let mut s = seed;
    for _ in 0..random {
        let mut copy = doc.to_vec();
        for _ in 0..=next(&mut s) % 4 {
            let (r, at) = (next(&mut s), next(&mut s) as usize);
            if r & 1 == 0 && !digits.is_empty() {
                copy[digits[at % digits.len()]] = b'0' + (r >> 1) as u8 % 10;
            } else {
                copy[at % doc.len()] = (r >> 1) as u8;
            }
        }
        out.push(copy);
    }
    out
}

/// Write each damaged copy of the document at `path` over it and run
/// `load`, which must not panic: how many copies loaded (`Some`), and the
/// sum of what `load` returned for them.
fn survey(path: &Path, seed: u64, load: impl Fn() -> Option<usize>) -> (usize, usize) {
    let doc = std::fs::read(path).unwrap();
    let (mut loaded, mut sum) = (0, 0);
    for (n, bytes) in damaged(&doc, 3_000, seed).iter().enumerate() {
        std::fs::write(path, bytes).unwrap();
        let outcome = catch_unwind(AssertUnwindSafe(&load));
        let what = || String::from_utf8_lossy(bytes).into_owned();
        if let Some(k) = outcome.unwrap_or_else(|_| panic!("damaged copy {n}: {:?}", what())) {
            loaded += 1;
            sum += k;
        }
    }
    (loaded, sum)
}

/// Load the dataset's index and read every block epoch 0 plans through a
/// fresh source: how many read `Ok`, or `None` when the index does not
/// load. Panics propagate.
fn load_and_read(dir: &Path) -> Option<usize> {
    let index = GlobalIndex::load_dir(dir).ok()?;
    let config = EmlioConfig::default().with_batch_size(4);
    let plan = Plan::build(&index, &["n".to_string()], &config);
    let source = TfrecordSource::new(Arc::new(index));
    let blocks = plan.epochs[0].nodes["n"].batches_in_plan_order();
    let ok = blocks.iter().filter(|b| {
        let key = BlockKey {
            shard_id: b.shard_id,
            start: b.start,
            end: b.end,
        };
        // The error type is `RecordError`: anything else does not compile.
        source.read_block(&key).is_ok()
    });
    Some(ok.count())
}

#[test]
fn forged_shard_indexes_never_panic_the_load_or_the_read() {
    let dir = TempDir::new("forged-shard-index");
    let spec = DatasetSpec::tiny("forged", 12);
    build_tfrecord_dataset(dir.path(), &spec, ShardSpec::Count(2)).unwrap();
    assert_eq!(load_and_read(dir.path()), Some(4), "the undamaged dataset");

    let path = dir.path().join(ShardIndex::index_file_name(0));
    let (loaded, read_ok) = survey(&path, 0x5eed_1dec, || load_and_read(dir.path()));
    // Forged digits keep many documents well-formed, so the reads behind a
    // loaded index are exercised, not vacuous.
    assert!(loaded > 100, "only {loaded} damaged indexes loaded");
    assert!(read_ok > 100, "only {read_ok} blocks read behind them");
}

/// What a cache reopened over a spill directory did with the one damaged
/// file in it.
#[derive(Debug, Default)]
struct Fates {
    /// Re-admitted: it is byte-identical to storage's block.
    readmitted: usize,
    deleted: usize,
    /// Left alone: its name is not one the cache writes.
    ignored: usize,
}

/// The spill files a persistent cache left in `dir`: `(name, bytes)`,
/// sorted by name.
fn spill_files(dir: &Path) -> Vec<(OsString, Vec<u8>)> {
    let mut files: Vec<(OsString, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .map(|path| {
            (
                path.file_name().unwrap().into(),
                std::fs::read(&path).unwrap(),
            )
        })
        .collect();
    files.sort();
    files
}

/// Restore `dir` to `kept` plus one damaged file, `name` holding `bytes`;
/// reopen a cache over it; and check what it did. Every block it
/// re-admits must read back byte-identical to `source`'s, every spill
/// file it left on disk must be one it re-admitted, `kept` (whole and
/// valid) must all be re-admitted, and a file whose name it cannot parse
/// must be left alone. Counts the damaged file's fate in `fates`.
fn reopen(
    dir: &Path,
    config: &CacheConfig,
    source: &TfrecordSource,
    kept: &[(OsString, Vec<u8>)],
    (name, bytes): (&OsStr, &[u8]),
    fates: &mut Fates,
) -> Result<(), String> {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if !kept
            .iter()
            .any(|(kept, _)| Some(kept.as_os_str()) == path.file_name())
        {
            std::fs::remove_file(path).unwrap();
        }
    }
    let damaged = dir.join(name);
    std::fs::write(&damaged, bytes).unwrap();
    let cache = ShardCache::new(config.clone()).unwrap();
    let readmitted = cache.disk_keys();
    for key in &readmitted {
        let want = source.read_block(key).map(|read| read.data).ok();
        if cache.peek(key) != want {
            return Err(format!("block {key:?} re-admitted with other bytes"));
        }
    }
    let mut own: Vec<BlockKey> = spill_files(dir)
        .iter()
        .filter_map(|(name, _)| parse_spill_file_name(name.to_str()?))
        .map(|(key, _)| key)
        .collect();
    own.sort();
    if own != readmitted {
        return Err(format!("{own:?} on disk, {readmitted:?} re-admitted"));
    }
    for (name, _) in kept {
        let (key, _) = parse_spill_file_name(name.to_str().unwrap()).unwrap();
        if !readmitted.contains(&key) {
            return Err(format!("the whole file {name:?} was not re-admitted"));
        }
    }
    let parsed = name.to_str().and_then(parse_spill_file_name);
    match (damaged.exists(), parsed) {
        (false, _) => fates.deleted += 1,
        (true, None) => fates.ignored += 1,
        (true, Some((key, _))) if readmitted.contains(&key) => fates.readmitted += 1,
        (true, Some(_)) => return Err("a spill file left on disk unowned".into()),
    }
    Ok(())
}

#[test]
fn forged_spill_files_never_panic_the_reopen() {
    let data = TempDir::new("forged-spill-data");
    // Small images keep a block a few hundred bytes: one reopen per
    // damaged copy of it.
    let spec = DatasetSpec {
        dims: (4, 4, 3),
        sample_bytes: 0,
        ..DatasetSpec::tiny("spill", 12)
    };
    let index = build_tfrecord_dataset(data.path(), &spec, ShardSpec::Count(2)).unwrap();
    let source = TfrecordSource::new(Arc::new(index));
    let spill = TempDir::new("forged-spill-files");
    let keys: Vec<BlockKey> = (0..2)
        .flat_map(|shard_id| {
            [(0, 4), (4, 6)].map(|(start, end)| BlockKey {
                shard_id,
                start,
                end,
            })
        })
        .collect();
    let config = CacheConfig::default()
        .with_ram_bytes(1 << 20)
        .with_disk_bytes(1 << 20)
        .with_persist_dir(spill.path().to_path_buf());
    {
        let cache = ShardCache::new(config.clone()).unwrap();
        for key in &keys {
            cache.insert(*key, source.read_block(key).unwrap().data);
        }
        assert_eq!(cache.persist_now(), keys.len() as u64);
    }
    let mut files = spill_files(spill.path());
    assert_eq!(files.len(), keys.len());
    let (name, bytes) = files.remove(0);
    let names = name.as_bytes();
    assert!(bytes.len() < 2048, "a {} byte block", bytes.len());

    let fates_of = |copies: Vec<(Vec<u8>, Vec<u8>)>| {
        let mut fates = Fates::default();
        for (n, (name, bytes)) in copies.iter().enumerate() {
            // A name the file system cannot hold, or that another file
            // has, is not a damaged spill file.
            let other = |(kept, _): &(OsString, Vec<u8>)| kept.as_bytes() == &name[..];
            if [&b""[..], b".", b".."].contains(&&name[..])
                || name.iter().any(|&b| b == b'/' || b == 0)
                || files.iter().any(other)
            {
                continue;
            }
            let damaged = (OsStr::from_bytes(name), &bytes[..]);
            let reopened = catch_unwind(AssertUnwindSafe(|| {
                reopen(spill.path(), &config, &source, &files, damaged, &mut fates)
            }));
            let what = || format!("damaged copy {n}, {:?}", OsStr::from_bytes(name));
            let reopened = reopened.unwrap_or_else(|_| panic!("{}: the reopen panicked", what()));
            if let Err(why) = reopened {
                panic!("{}: {why}", what());
            }
        }
        fates
    };
    let by_bytes = fates_of(
        damaged(&bytes, 3_000, 0x5eed_5b11)
            .into_iter()
            .map(|bytes| (names.to_vec(), bytes))
            .collect(),
    );
    // Under the writer's own name a damaged file is deleted, never left
    // alone (a byte set to the value it had leaves it whole).
    assert_eq!(by_bytes.ignored, 0, "{by_bytes:?}");
    assert!(by_bytes.deleted > 1_000, "{by_bytes:?}");
    let by_name = fates_of(
        damaged(names, 3_000, 0x5eed_f11e)
            .into_iter()
            .map(|name| (name, bytes.clone()))
            .collect(),
    );
    println!("damaged bytes: {by_bytes:?}; damaged name: {by_name:?}");
    // Forged digits keep many names well-formed: the check behind a name
    // that parses is exercised, not vacuous.
    assert!(by_name.deleted > 100, "{by_name:?}");
    assert!(by_name.ignored > 100, "{by_name:?}");
}
