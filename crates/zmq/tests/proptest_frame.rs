//! Property tests for the framing I/O: the vectored burst writer against a
//! writer that takes as little as it likes, and the recycling
//! [`FrameReader`] against frames held past their successors.

use bytes::Bytes;
use emlio_util::pool::BufferPool;
use emlio_zmq::frame::{write_frame, write_frames, Frame, FrameReader};
use emlio_zmq::ZmqError;
use proptest::prelude::*;
use std::io::{IoSlice, Read, Write};

/// xorshift: the per-call choices of the choppy writer and reader.
struct Dice(u64);

impl Dice {
    /// A value in `1..=max`.
    fn roll(&mut self, max: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        1 + (self.0 % max as u64) as usize
    }
}

/// A writer that accepts, per call, a random `1..=max_bytes` bytes out of
/// the first random `1..=max_iov` slices it is offered.
struct Choppy {
    out: Vec<u8>,
    max_bytes: usize,
    max_iov: usize,
    dice: Dice,
    calls: u64,
}

impl Write for Choppy {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.write_vectored(&[IoSlice::new(buf)])
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        self.calls += 1;
        let mut budget = self.dice.roll(self.max_bytes);
        let iov = self.dice.roll(self.max_iov);
        let mut taken = 0;
        for buf in bufs.iter().take(iov) {
            let n = buf.len().min(budget);
            self.out.extend_from_slice(&buf[..n]);
            taken += n;
            budget -= n;
        }
        Ok(taken)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Segment lengths of one frame: mostly a handful, sometimes more than
/// `IOV_MAX`, with empty segments (and empty frames) throughout.
fn segment_lens() -> impl Strategy<Value = Vec<usize>> {
    prop_oneof![
        proptest::collection::vec(0usize..40, 0..8),
        proptest::collection::vec(0usize..3, 1020..1100),
        Just(vec![0, 0, 0]),
    ]
}

fn frame_of(lens: &[usize], tag: u8) -> Frame {
    let mut next = tag;
    Frame::from_segments(
        lens.iter()
            .map(|&len| {
                Bytes::from(
                    (0..len)
                        .map(|_| {
                            next = next.wrapping_mul(31).wrapping_add(7);
                            next
                        })
                        .collect::<Vec<u8>>(),
                )
            })
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn vectored_burst_equals_gathered_frames(
        shapes in proptest::collection::vec(segment_lens(), 0..6),
        max_bytes in 1usize..200,
        max_iov in 1usize..40,
        seed in 1u64..u64::MAX,
    ) {
        let frames: Vec<Frame> = shapes
            .iter()
            .enumerate()
            .map(|(i, lens)| frame_of(lens, i as u8))
            .collect();
        let mut reference = Vec::new();
        for f in &frames {
            write_frame(&mut reference, &f.clone().into_bytes()).unwrap();
        }

        let mut choppy = Choppy { out: Vec::new(), max_bytes, max_iov, dice: Dice(seed), calls: 0 };
        let writes = write_frames(&mut choppy, &frames).unwrap();
        prop_assert!(choppy.out == reference, "choppy writer: wire bytes differ");
        prop_assert_eq!(writes, choppy.calls);

        // A writer that takes everything is called once per IOV_MAX slices.
        let mut whole = Vec::new();
        let writes = write_frames(&mut whole, &frames).unwrap();
        prop_assert!(whole == reference, "whole writer: wire bytes differ");
        let slices: usize = shapes
            .iter()
            .map(|lens| 1 + lens.iter().filter(|&&l| l > 0).count())
            .sum();
        prop_assert_eq!(writes as usize, slices.div_ceil(1024));
    }
}

/// A stream that hands out at most `chunk` bytes per read and, when
/// `stalls`, times out before every second one.
struct Stalling<'a> {
    data: &'a [u8],
    chunk: usize,
    stalls: bool,
    stall_next: bool,
}

impl Read for Stalling<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.stall_next = !self.stall_next;
        if self.stalls && !self.stall_next && !self.data.is_empty() {
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        let n = self.chunk.min(buf.len()).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Frames of every size class through one recycling reader, earlier
    /// frames held or dropped at random: what was handed out never
    /// changes, whatever arrives later and whichever buffer it lands in.
    #[test]
    fn recycling_reader_never_disturbs_a_live_frame(
        lens in proptest::collection::vec(
            prop_oneof![0usize..64, 0usize..6000, 4000usize..20_000], 1..24),
        // Per frame: how many of the frames held so far to drop first.
        drops in proptest::collection::vec(0usize..4, 24),
        // 3-bytes-per-tick with a timeout between ticks, or larger reads.
        chunk in prop_oneof![Just(3usize), 1usize..9000],
        cut in 0usize..400_000,
        seed in 1u64..u64::MAX,
    ) {
        let mut dice = Dice(seed);
        let sent: Vec<Vec<u8>> = lens
            .iter()
            .map(|&len| (0..len).map(|_| dice.roll(256) as u8).collect())
            .collect();
        let mut wire = Vec::new();
        for payload in &sent {
            write_frame(&mut wire, payload).unwrap();
        }
        // Half the cases lose the connection somewhere inside the stream.
        let wire = if cut % 2 == 0 { &wire[..] } else { &wire[..cut % (wire.len() + 1)] };
        let mut stream = Stalling { data: wire, chunk, stalls: chunk == 3, stall_next: false };

        let pool = BufferPool::with_retention(4);
        let mut reader = FrameReader::with_pool(pool.clone());
        let mut held: Vec<(usize, Bytes)> = Vec::new();
        let mut received = 0;
        let ended_clean = loop {
            match reader.read_frame(&mut stream, 1 << 20) {
                Ok(Some(frame)) => {
                    prop_assert!(frame[..] == sent[received][..], "frame {} as delivered", received);
                    for _ in 0..drops[received].min(held.len()) {
                        held.swap_remove(dice.roll(held.len()) - 1);
                    }
                    held.push((received, frame));
                    received += 1;
                    for (i, frame) in &held {
                        prop_assert!(frame[..] == sent[*i][..], "frame {} after {} arrived", i, received);
                    }
                }
                Ok(None) => break true,
                Err(ZmqError::Io(e)) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(ZmqError::Io(e)) => {
                    prop_assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof);
                    break false;
                }
                Err(e) => return Err(TestCaseError::fail(format!("unexpected error: {e}"))),
            }
        };
        // Every whole frame on the wire came out; the stream ended clean
        // exactly when the cut fell on a frame boundary.
        let mut boundary = 0;
        let mut whole = 0;
        while whole < sent.len() && boundary + 4 + sent[whole].len() <= wire.len() {
            boundary += 4 + sent[whole].len();
            whole += 1;
        }
        prop_assert_eq!(received, whole);
        prop_assert_eq!(ended_clean, boundary == wire.len());
        // One buffer per non-empty frame begun, fresh or recycled.
        let begun = sent[..whole].iter().filter(|p| !p.is_empty()).count()
            + usize::from(wire.len() >= boundary + 4 && !sent[whole].is_empty());
        let stats = pool.stats();
        prop_assert_eq!((stats.pool_alloc + stats.pool_reuse) as usize, begun);
    }
}
