//! The SIF decoder's allocation is bounded by its input: a header may claim
//! any size, but an RLE plane is refused before its pixels are reserved
//! unless its pairs could fill them.
//!
//! A binary of its own, so the counting allocator sees no other test.

use emlio_datagen::sif::{decode, SifError};
use emlio_util::CountingAllocator;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

#[test]
fn a_header_claiming_4_gib_allocates_nothing_like_it() {
    // magic | 65535 × 65535 × 1 | quality 0 | RLE plane of one (255, 0) pair
    let mut bytes = b"SIF1".to_vec();
    bytes.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 1, 0]);
    bytes.extend_from_slice(&[0, 2, 0, 0, 0, 255, 0]);
    let before = ALLOC.bytes_allocated();
    let got = decode(&bytes);
    let allocated = ALLOC.bytes_allocated() - before;
    assert_eq!(got, Err(SifError::BadPlane { plane: 0 }));
    assert!(
        allocated < 1 << 10,
        "a 17-byte stream allocated {allocated} bytes"
    );
}
