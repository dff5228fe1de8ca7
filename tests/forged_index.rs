//! Forged index files: a real converted shard's `mapping_shard_*.json` and
//! a real `spill-index.json`, each damaged by every truncation, every byte
//! set to 0x00, 0xff and `b ^ 0x80`, and thousands of seeded multi-byte
//! overwrites. Loading never panics or aborts, and every damaged shard
//! index that still loads reads each of its planned blocks through
//! `TfrecordSource` to `Ok` or a `RecordError`.

use emlio::cache::persist::{read_index, read_validated, spill_file_name, SPILL_INDEX_FILE};
use emlio::cache::{BlockKey, CacheConfig, RangeSource, ShardCache};
use emlio::core::{EmlioConfig, Plan};
use emlio::datagen::convert::build_tfrecord_dataset;
use emlio::datagen::DatasetSpec;
use emlio::tfrecord::{GlobalIndex, ShardIndex, ShardSpec, TfrecordSource};
use emlio::util::testutil::TempDir;
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
            if r & 1 == 0 {
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

/// Load the spill index in `dir` and check every entry against its spill
/// file: how many validate, or `None` when the index does not load.
fn load_and_validate(dir: &Path) -> Option<usize> {
    let entries = read_index(dir).ok()??;
    let valid = entries
        .iter()
        .filter(|e| read_validated(&dir.join(spill_file_name(&e.key)), e.len, e.crc).is_some());
    Some(valid.count())
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

#[test]
fn forged_spill_indexes_never_panic_the_load() {
    let data = TempDir::new("forged-spill-data");
    let spec = DatasetSpec::tiny("spill", 12);
    let index = build_tfrecord_dataset(data.path(), &spec, ShardSpec::Count(2)).unwrap();
    let source = TfrecordSource::new(Arc::new(index));
    let spill = TempDir::new("forged-spill-index");
    let keys: Vec<BlockKey> = (0..2)
        .flat_map(|shard_id| {
            [(0, 4), (4, 6)].map(|(start, end)| BlockKey {
                shard_id,
                start,
                end,
            })
        })
        .collect();
    {
        let cache = ShardCache::new(
            CacheConfig::default()
                .with_ram_bytes(1 << 20)
                .with_disk_bytes(1 << 20)
                .with_persist_dir(spill.path().to_path_buf()),
        )
        .unwrap();
        for key in &keys {
            cache.insert(*key, source.read_block(key).unwrap().data);
        }
        assert_eq!(cache.persist_now().unwrap(), keys.len() as u64);
    }
    assert_eq!(
        load_and_validate(spill.path()),
        Some(4),
        "the undamaged index"
    );

    let path = spill.path().join(SPILL_INDEX_FILE);
    let (loaded, valid) = survey(&path, 0x5eed_5b11, || load_and_validate(spill.path()));
    assert!(loaded > 100, "only {loaded} damaged spill indexes loaded");
    assert!(
        valid > 100,
        "only {valid} spill files validated behind them"
    );
}
