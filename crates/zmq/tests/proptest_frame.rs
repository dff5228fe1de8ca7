//! Property tests for the framing I/O: the vectored one-frame writer
//! against a writer that takes as little as it likes, and the recycling
//! [`FrameReader`] against frames held past their successors.

use bytes::Bytes;
use emlio_util::pool::BufferPool;
use emlio_zmq::frame::{write_frame, write_scatter, Frame, FrameReader};
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
/// `IOV_MAX` non-empty ones (or just around it, counting the prefix), with
/// empty segments (and empty frames) throughout.
fn segment_lens() -> impl Strategy<Value = Vec<usize>> {
    prop_oneof![
        proptest::collection::vec(0usize..40, 0..8),
        proptest::collection::vec(0usize..3, 1600..2200),
        proptest::collection::vec(1usize..3, 1020..1030),
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn vectored_frame_equals_gathered_frame(
        lens in segment_lens(),
        tag in any::<u8>(),
        max_bytes in 1usize..200,
        max_iov in 1usize..40,
        seed in 1u64..u64::MAX,
    ) {
        let frame = frame_of(&lens, tag);
        let mut reference = Vec::new();
        write_frame(&mut reference, &frame.clone().into_bytes()).unwrap();

        let mut choppy = Choppy { out: Vec::new(), max_bytes, max_iov, dice: Dice(seed), calls: 0 };
        let writes = write_scatter(&mut choppy, &frame).unwrap();
        prop_assert!(choppy.out == reference, "choppy writer: wire bytes differ");
        prop_assert_eq!(writes, choppy.calls);

        // A writer that takes everything is called once per IOV_MAX slices.
        let mut whole = Vec::new();
        let writes = write_scatter(&mut whole, &frame).unwrap();
        prop_assert!(whole == reference, "whole writer: wire bytes differ");
        let slices = 1 + lens.iter().filter(|&&l| l > 0).count();
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

/// How a stream of frames ends.
#[derive(Debug, PartialEq)]
enum End {
    /// At a frame boundary.
    Clean,
    /// Inside a length prefix or a payload.
    EofInFrame,
    /// At a length prefix above the limit, which it names.
    TooLarge(usize),
}

/// The framing read the plain way, over the whole stream at once: the
/// frames it holds up to the first fault, how it ends, and how many
/// payload buffers a reader begins (one per non-empty frame whose prefix
/// is complete and within `limit`).
fn reference_parse(wire: &[u8], limit: usize) -> (Vec<&[u8]>, End, usize) {
    let (mut frames, mut begun, mut at) = (Vec::new(), 0, 0);
    loop {
        let rest = &wire[at..];
        if rest.is_empty() {
            return (frames, End::Clean, begun);
        }
        if rest.len() < 4 {
            return (frames, End::EofInFrame, begun);
        }
        let len = u32::from_be_bytes(rest[..4].try_into().unwrap()) as usize;
        if len > limit {
            return (frames, End::TooLarge(len), begun);
        }
        begun += usize::from(len > 0);
        if rest.len() - 4 < len {
            return (frames, End::EofInFrame, begun);
        }
        frames.push(&rest[4..4 + len]);
        at += 4 + len;
    }
}

/// A stream that hands out a random `1..=chunk` bytes per read and times
/// out at random in between.
struct Jittery<'a> {
    data: &'a [u8],
    chunk: usize,
    dice: Dice,
}

impl Read for Jittery<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.dice.roll(3) == 1 {
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        let n = self
            .dice
            .roll(self.chunk)
            .min(buf.len())
            .min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// Read `wire` through one `FrameReader` on a jittery stream: it must
/// yield exactly the reference's frames, end the same way, and size a
/// buffer only for a prefix within `limit`.
fn check_reader(what: &str, wire: &[u8], limit: usize, dice: &mut Dice) {
    let (expect, expect_end, begun) = reference_parse(wire, limit);
    let mut stream = Jittery {
        data: wire,
        chunk: dice.roll(64),
        dice: Dice(dice.roll(usize::MAX) as u64),
    };
    let pool = BufferPool::with_retention(2);
    let mut reader = FrameReader::with_pool(pool.clone());
    let mut got = Vec::new();
    let end = loop {
        match reader.read_frame(&mut stream, limit) {
            Ok(Some(frame)) => {
                assert!(
                    got.len() < expect.len(),
                    "{what}: a frame past the reference's"
                );
                assert_eq!(&frame[..], expect[got.len()], "{what}: frame {}", got.len());
                got.push(frame);
            }
            Ok(None) => break End::Clean,
            Err(ZmqError::Io(e)) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(ZmqError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                break End::EofInFrame
            }
            Err(ZmqError::FrameTooLarge { size, limit: l }) => {
                assert_eq!(l, limit, "{what}");
                break End::TooLarge(size);
            }
            Err(e) => panic!("{what}: unexpected error {e}"),
        }
    };
    assert_eq!(got.len(), expect.len(), "{what}: frames yielded");
    assert_eq!(end, expect_end, "{what}: how the stream ended");
    let stats = pool.stats();
    assert_eq!(
        (stats.pool_alloc + stats.pool_reuse) as usize,
        begun,
        "{what}: payload buffers begun"
    );
}

/// Byte-level fuzz of the one parser on the receive path: a few frames
/// (empty, small, exactly the limit; one byte over it in a stream of its
/// own) cut at every strict prefix, every
/// byte set in turn to three values, and seeded multi-byte damage, each
/// read through a stream that times out at random so every frame is
/// resumed across timeouts.
#[test]
fn frame_reader_matches_a_reference_parser_under_byte_level_fuzz() {
    const LIMIT: usize = 2000;
    let mut dice = Dice(0x5eed_f4a3);
    let payloads: Vec<Vec<u8>> = [0usize, 3, LIMIT, 300, 17]
        .iter()
        .map(|&len| (0..len).map(|_| dice.roll(256) as u8).collect())
        .collect();
    let mut wire = Vec::new();
    for p in &payloads {
        write_frame(&mut wire, p).unwrap();
    }
    check_reader("whole stream", &wire, LIMIT, &mut dice);
    // One byte over the limit is refused, whole or cut short.
    let mut over = Vec::new();
    write_frame(&mut over, b"abc").unwrap();
    write_frame(&mut over, &[1; LIMIT + 1]).unwrap();
    check_reader("a frame one byte over", &over, LIMIT, &mut dice);
    check_reader(
        "its prefix alone",
        &over[..over.len() - LIMIT],
        LIMIT,
        &mut dice,
    );
    for cut in 0..wire.len() {
        check_reader(&format!("cut at {cut}"), &wire[..cut], LIMIT, &mut dice);
    }
    let mut ends = [0usize; 3];
    for i in 0..wire.len() {
        for v in [0x00, 0xff, wire[i] ^ 0x80] {
            let mut buf = wire.clone();
            buf[i] = v;
            let what = format!("byte {i} = {v:#04x}");
            check_reader(&what, &buf, LIMIT, &mut dice);
            ends[match reference_parse(&buf, LIMIT).1 {
                End::Clean => 0,
                End::EofInFrame => 1,
                End::TooLarge(_) => 2,
            }] += 1;
        }
    }
    for n in 0..2_000 {
        let mut buf = wire.clone();
        for _ in 0..dice.roll(4) {
            let i = dice.roll(buf.len()) - 1;
            buf[i] = dice.roll(256) as u8;
        }
        check_reader(&format!("random damage {n}"), &buf, LIMIT, &mut dice);
    }
    // Damaged prefixes reach every outcome: the oracle is not vacuous.
    assert!(
        ends.iter().all(|&n| n > 0),
        "outcomes of single-byte damage: {ends:?}"
    );
}
