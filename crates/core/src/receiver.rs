//! The EMLIO Receiver — Algorithm 3's compute-side intake.
//!
//! Binds a PULL socket whose reader threads, one per connected stream,
//! *scan* each incoming msgpack frame into a [`LazyBatch`] and push it
//! straight into the socket's bounded queue, and exposes that queue as a
//! DALI `external_source`. The queue holds [`ReceiverConfig::hwm`]
//! batches: it is the compute side's one bound, as the paper's PULL socket
//! with HWM 16 is (§4.5). Batches from any stream are accepted in whatever
//! order they arrive — out-of-order prefetching is what keeps tail latency
//! bounded under RTT.
//!
//! The readers validate every frame but never materialize sample
//! payloads: [`wire::decode_lazy`] walks the structure in place, the
//! `LazyBatch` crosses the queue owning the frame, and
//! [`LazyQueueSource::next_batch`] materializes the [`RawBatch`] on the
//! *consumer* thread (refcount bumps into the frame, still no copies).
//! Repeated origin strings are deduplicated through one shared
//! [`StrInterner`].
//!
//! Each daemon send worker's stream may stripe over several connections,
//! and it ends each of them with a marker saying how many there are. A
//! stream has ended once its origin has sent that many markers, and the
//! queue ends with the last expected stream ([`StreamEnds`] is the rule),
//! once every connection still open has closed or gone quiet for 500 ms.
//! Markers are counted per origin, never as one total: the first marker of
//! a two-connection stream says nothing about its other connection, whose
//! frames may still be on their way. A refused marker (one too many for
//! its origin, or disagreeing on the count) is dropped with a flight event
//! and a warning, and ends nothing. A stop
//! (the receiver's drop, or a failed daemon in the launch harness) ends it
//! within one 100 ms read tick, after what is already queued.

use crate::metrics::DataPathMetrics;
use crate::stream_end::{Marker, StreamEnds};
use crate::wire::{self, LazyBatch, LazyMsg};
use bytes::Bytes;
use crossbeam::channel::Receiver;
use emlio_msgpack::StrInterner;
use emlio_obs::{clock, obs_warn, FlightRecorder, Stage, StageRecorder};
use emlio_pipeline::{ExternalSource, RawBatch};
use emlio_zmq::{Endpoint, Intake, PullSocket, SocketOptions, StopHandle, ZmqError};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Receiver configuration.
#[derive(Debug, Clone)]
pub struct ReceiverConfig {
    /// Address to bind (`tcp://127.0.0.1:0` for an ephemeral port).
    pub bind: Endpoint,
    /// Batches scanned and queued for the consumer at most: the PULL
    /// socket's HWM.
    pub hwm: usize,
    /// Read nowhere: the one queue holds `hwm` batches.
    #[doc(hidden)]
    pub queue_capacity: usize,
    /// Stop once this many streams (daemons × workers) have sent their
    /// end-of-stream markers, one per connection each.
    pub expected_streams: u32,
}

impl ReceiverConfig {
    /// Loopback config with sensible defaults.
    pub fn loopback(expected_streams: u32) -> ReceiverConfig {
        ReceiverConfig {
            bind: Endpoint::Tcp("127.0.0.1:0".into()),
            hwm: emlio_zmq::DEFAULT_HWM,
            queue_capacity: emlio_zmq::DEFAULT_HWM,
            expected_streams,
        }
    }
}

/// A bound, running receiver. Dropping it stops its socket.
pub struct EmlioReceiver {
    pull: PullSocket<LazyBatch>,
    endpoint: Endpoint,
    metrics: Arc<DataPathMetrics>,
    recorder: Arc<StageRecorder>,
    ends: Arc<Mutex<StreamEnds>>,
}

impl EmlioReceiver {
    /// Bind and start receiving.
    pub fn bind(config: ReceiverConfig) -> Result<EmlioReceiver, ZmqError> {
        let metrics = DataPathMetrics::shared();
        let recorder = StageRecorder::shared();
        let ends = Arc::new(Mutex::new(StreamEnds::new(config.expected_streams)));
        let (metrics2, recorder2, ends2) = (metrics.clone(), recorder.clone(), ends.clone());
        let interner = StrInterner::new();
        let intake = move |frame: Bytes| {
            let t_scan = Instant::now();
            let decoded = wire::decode_lazy(&frame, Some(&interner));
            recorder2.record(Stage::RecvScan, t_scan.elapsed().as_nanos() as u64);
            match decoded {
                Ok(LazyMsg::Batch(mut batch)) => {
                    batch.stamp_received(clock::now_nanos());
                    metrics2.record_batch(batch.len() as u64, batch.payload_bytes());
                    Intake::Deliver(batch)
                }
                Ok(LazyMsg::EndStream {
                    origin,
                    connections,
                    ..
                }) => {
                    let marker = lock(&ends2).marker(&origin, connections);
                    match marker {
                        Marker::QueueEnded => Intake::EndOfStream,
                        Marker::Counted | Marker::StreamEnded => Intake::Skip,
                        Marker::Refused(why) => {
                            FlightRecorder::global().record(
                                "recv_refused_marker",
                                u64::from(connections),
                                0,
                            );
                            obs_warn!(
                                "receiver",
                                "dropping end-of-stream marker from {origin}: {why:?}"
                            );
                            Intake::Skip
                        }
                    }
                }
                Err(e) => {
                    // A frame whose structure does not scan: drop it, and
                    // count it as a lost batch — the safe failure mode, but
                    // never a *silent* one. Only structure is checked here
                    // (`decode_lazy` checks the msgpack layout and every
                    // length against the frame). Nothing on the default
                    // stack checks payload bytes: the daemon reads with
                    // `verify_crc: false` and the frame carries no
                    // checksum, so damage inside a sample's payload
                    // arrives as data.
                    FlightRecorder::global().record("recv_corrupt_frame", frame.len() as u64, 0);
                    obs_warn!(
                        "receiver",
                        "dropping corrupt {}-byte frame: {e}",
                        frame.len()
                    );
                    Intake::Skip
                }
            }
        };
        let options = SocketOptions::default()
            .with_hwm(config.hwm)
            .with_recorder(recorder.clone());
        let pull = PullSocket::bind_with(&config.bind, options, intake)?;
        if config.expected_streams == 0 {
            pull.stop_handle().stop();
        }
        let endpoint = pull
            .local_endpoint()
            .ok_or_else(|| ZmqError::BadEndpoint("unresolvable local endpoint".into()))?;
        Ok(EmlioReceiver {
            pull,
            endpoint,
            metrics,
            recorder,
            ends,
        })
    }

    /// The endpoint daemons should connect to.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// A DALI `external_source` over the shared queue. The stream ends once
    /// every expected sender has sent its end-of-stream marker and the queue
    /// has drained. Samples materialize on the calling (consumer) thread,
    /// not on the socket's readers.
    pub fn source(&self) -> LazyQueueSource {
        LazyQueueSource::new(self.queue()).with_recorder(self.recorder.clone())
    }

    /// Raw access to the shared queue of validated-but-unmaterialized
    /// batches (for non-pipeline consumers): the PULL socket's own.
    pub fn queue(&self) -> Receiver<LazyBatch> {
        self.pull.queue()
    }

    /// Data-path counters.
    pub fn metrics(&self) -> Arc<DataPathMetrics> {
        self.metrics.clone()
    }

    /// Per-stage latency histograms (recv wait, scan, queue push on each
    /// connection's reader; queue dwell, lazy decode, wire transit,
    /// end-to-end on the consumer side).
    pub fn recorder(&self) -> Arc<StageRecorder> {
        self.recorder.clone()
    }

    /// Streams that have ended so far: origins whose every connection has
    /// sent its end-of-stream marker.
    pub fn streams_seen(&self) -> u32 {
        lock(&self.ends).streams_ended()
    }

    /// Stops the receiver's socket from any thread: consumers see
    /// end-of-queue after the batches already queued — how a failed daemon
    /// ends the stream.
    pub(crate) fn stop_handle(&self) -> StopHandle<LazyBatch> {
        self.pull.stop_handle()
    }
}

/// The rule is only ever held for one pure call, so a poisoned lock still
/// holds consistent counts.
fn lock(ends: &Mutex<StreamEnds>) -> std::sync::MutexGuard<'_, StreamEnds> {
    ends.lock().unwrap_or_else(PoisonError::into_inner)
}

/// An `external_source` that receives [`LazyBatch`]es and materializes
/// them on the consuming thread — the decode cost lands where the trainer
/// already is, not on the socket's readers.
pub struct LazyQueueSource {
    rx: Receiver<LazyBatch>,
    recorder: Option<Arc<StageRecorder>>,
}

impl LazyQueueSource {
    /// Wrap a channel of scanned batches.
    pub fn new(rx: Receiver<LazyBatch>) -> LazyQueueSource {
        LazyQueueSource { rx, recorder: None }
    }

    /// Record consumer-side stages (queue dwell, lazy decode, and the
    /// trace-derived wire-transit / end-to-end latencies) into `recorder`.
    pub fn with_recorder(mut self, recorder: Arc<StageRecorder>) -> LazyQueueSource {
        self.recorder = Some(recorder);
        self
    }
}

impl ExternalSource for LazyQueueSource {
    fn next_batch(&mut self) -> Option<RawBatch> {
        let lb = self.rx.recv().ok()?;
        let Some(rec) = &self.recorder else {
            return Some(lb.materialize());
        };
        let dequeued_at = clock::now_nanos();
        let received_at = lb.received_at_nanos();
        if received_at > 0 {
            // How long the scanned batch sat in the bounded queue before
            // the consumer asked for it.
            rec.record(Stage::QueueDwell, dequeued_at.saturating_sub(received_at));
        }
        if let Some(trace) = lb.trace() {
            // Daemon clock → receiver clock: both are Unix-anchored by
            // `obs::clock`, so cross-process skew is bounded by the two
            // anchors' SystemTime error (sub-ms on one host). Saturating
            // guards against that skew going slightly negative.
            if received_at > 0 {
                rec.record(
                    Stage::WireTransit,
                    received_at.saturating_sub(trace.sent_at_nanos),
                );
            }
            rec.record(
                Stage::EndToEnd,
                dequeued_at.saturating_sub(trace.sent_at_nanos),
            );
        }
        let t0 = Instant::now();
        let batch = lb.materialize();
        rec.record(Stage::LazyDecode, t0.elapsed().as_nanos() as u64);
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::BufferPool;
    use emlio_pipeline::ExternalSource;
    use emlio_util::testutil::poll_until;
    use emlio_zmq::PushSocket;
    use std::time::Duration;

    /// One single-sample batch frame, as a daemon worker would send it.
    fn batch_frame(id: u64, origin: &str, label: u32, payload: Vec<u8>) -> emlio_zmq::Frame {
        let samples = [(id, label, Bytes::from(payload))];
        wire::encode_batch_frame_traced(0, id, origin, None, &samples, &BufferPool::new())
    }

    fn push_batches(ep: &Endpoint, origin: &str, ids: Vec<u64>) {
        push_striped(ep, origin, ids, 1);
    }

    /// One daemon worker's stream over `connections` connections.
    fn push_striped(ep: &Endpoint, origin: &str, ids: Vec<u64>, connections: usize) {
        let options = SocketOptions::default().with_connections(connections);
        let sock = PushSocket::connect(ep, options).unwrap();
        for id in &ids {
            sock.send(batch_frame(*id, origin, 0, vec![*id as u8; 16]))
                .unwrap();
        }
        sock.close_with(Bytes::from(wire::encode_end_stream(
            origin,
            ids.len() as u64,
            connections as u32,
        )))
        .unwrap();
    }

    /// Write raw frames to the receiver on a connection of their own.
    fn write_connection(ep: &Endpoint, frames: &[Bytes]) {
        let Endpoint::Tcp(addr) = ep else {
            unreachable!("the receiver binds tcp")
        };
        let mut conn = std::net::TcpStream::connect(addr).unwrap();
        for f in frames {
            emlio_zmq::frame::write_frame(&mut conn, f).unwrap();
        }
    }

    fn batch_bytes(id: u64, origin: &str) -> Bytes {
        batch_frame(id, origin, 0, vec![id as u8; 16]).into_bytes()
    }

    fn marker(origin: &str, connections: u32) -> Bytes {
        Bytes::from(wire::encode_end_stream(origin, 0, connections))
    }

    #[test]
    fn multi_stream_out_of_order_intake() {
        let receiver = EmlioReceiver::bind(ReceiverConfig::loopback(3)).unwrap();
        let ep = receiver.endpoint().clone();
        let senders: Vec<_> = (0..3u64)
            .map(|s| {
                let ep = ep.clone();
                std::thread::spawn(move || {
                    push_batches(&ep, &format!("d/{s}"), (s * 100..s * 100 + 20).collect())
                })
            })
            .collect();
        let mut src = receiver.source();
        let mut seen = std::collections::HashSet::new();
        while let Some(b) = src.next_batch() {
            assert!(seen.insert(b.batch_id), "dup {}", b.batch_id);
            if seen.len() == 60 {
                break;
            }
        }
        assert_eq!(seen.len(), 60);
        for s in senders {
            s.join().unwrap();
        }
    }

    #[test]
    fn striped_streams_deliver_every_batch_once_then_end() {
        let receiver = EmlioReceiver::bind(ReceiverConfig::loopback(2)).unwrap();
        let ep = receiver.endpoint().clone();
        let senders: Vec<_> = (0..2u64)
            .map(|s| {
                let ep = ep.clone();
                std::thread::spawn(move || {
                    push_striped(&ep, &format!("d/{s}"), (s * 100..s * 100 + 40).collect(), 2)
                })
            })
            .collect();
        let mut src = receiver.source();
        let mut ids: Vec<u64> = std::iter::from_fn(|| src.next_batch())
            .map(|b| b.batch_id)
            .collect();
        for s in senders {
            s.join().unwrap();
        }
        ids.sort_unstable();
        let want: Vec<u64> = (0..40).chain(100..140).collect();
        assert_eq!(ids, want, "every batch exactly once");
        assert_eq!(receiver.streams_seen(), 2);
    }

    #[test]
    fn a_striped_stream_ends_only_after_its_last_connections_marker() {
        // One stream over connections A and B. A's frames and marker are
        // read while B's writer is stalled with frames still to send, and B
        // connects only after the stall: the accept thread may take a
        // connection that late. Counting A's marker as the whole stream
        // would end the queue then, and B would be closed unread.
        let receiver = EmlioReceiver::bind(ReceiverConfig::loopback(1)).unwrap();
        let ep = receiver.endpoint().clone();
        let queue = receiver.queue();
        let end = marker("striped", 2);
        write_connection(
            &ep,
            &[
                batch_bytes(0, "striped"),
                batch_bytes(1, "striped"),
                end.clone(),
            ],
        );
        let timeout = Duration::from_secs(10);
        let mut ids: Vec<u64> = (0..2)
            .map(|_| queue.recv_timeout(timeout).unwrap().materialize().batch_id)
            .collect();
        std::thread::sleep(Duration::from_millis(200));
        assert!(
            matches!(
                queue.try_recv(),
                Err(crossbeam::channel::TryRecvError::Empty)
            ),
            "the queue ended at connection A's marker"
        );
        assert_eq!(receiver.streams_seen(), 0);
        write_connection(
            &ep,
            &[batch_bytes(2, "striped"), batch_bytes(3, "striped"), end],
        );
        ids.extend(std::iter::from_fn(|| queue.recv().ok()).map(|b| b.materialize().batch_id));
        ids.sort_unstable();
        assert_eq!(
            ids,
            vec![0, 1, 2, 3],
            "every frame of both connections once"
        );
        assert_eq!(receiver.streams_seen(), 1);
    }

    #[test]
    fn refused_markers_end_nothing_and_are_logged() {
        // This test's own keys in the shared flight ring: the connection
        // count each refused marker carried.
        const EXTRA: u32 = 2;
        const DISAGREEING: u32 = 9;
        let refused = |key: u32| {
            FlightRecorder::global()
                .dump()
                .iter()
                .filter(|ev| ev.name == "recv_refused_marker" && ev.key == u64::from(key))
                .count()
        };
        let receiver = EmlioReceiver::bind(ReceiverConfig::loopback(2)).unwrap();
        let ep = receiver.endpoint().clone();
        let queue = receiver.queue();
        // Stream "a" over two connections ends; a third marker follows.
        write_connection(&ep, &[marker("a", EXTRA)]);
        write_connection(&ep, &[marker("a", EXTRA)]);
        let timeout = Duration::from_secs(10);
        assert!(poll_until(timeout, || receiver.streams_seen() == 1));
        // One connection, so read in this order: the extra marker, then
        // stream "c"'s first marker, then one disagreeing with it.
        write_connection(
            &ep,
            &[marker("a", EXTRA), marker("c", 2), marker("c", DISAGREEING)],
        );
        assert!(poll_until(timeout, || refused(EXTRA) == 1 && refused(DISAGREEING) == 1));
        assert!(
            matches!(
                queue.try_recv(),
                Err(crossbeam::channel::TryRecvError::Empty)
            ),
            "a refused marker ended the queue"
        );
        assert_eq!(receiver.streams_seen(), 1);
        write_connection(&ep, &[marker("c", 2)]);
        assert!(
            matches!(
                queue.recv_timeout(timeout),
                Err(crossbeam::channel::RecvTimeoutError::Disconnected)
            ),
            "the queue ends at the last stream's last marker"
        );
        assert_eq!(receiver.streams_seen(), 2);
    }

    #[test]
    fn stream_ends_after_expected_markers() {
        let receiver = EmlioReceiver::bind(ReceiverConfig::loopback(1)).unwrap();
        let ep = receiver.endpoint().clone();
        push_batches(&ep, "solo", vec![1, 2, 3]);
        let mut src = receiver.source();
        let mut n = 0;
        while src.next_batch().is_some() {
            n += 1;
        }
        assert_eq!(n, 3, "source ends after end_stream + drain");
        assert_eq!(receiver.streams_seen(), 1);
        let snap = receiver.metrics().snapshot();
        assert_eq!((snap.batches, snap.samples), (3, 3));
    }

    #[test]
    fn queue_carries_lazy_batches_with_interned_origins() {
        let receiver = EmlioReceiver::bind(ReceiverConfig::loopback(1)).unwrap();
        let ep = receiver.endpoint().clone();
        let queue = receiver.queue();
        push_batches(&ep, "same-origin", vec![4, 5, 6]);

        let mut origins = Vec::new();
        let mut ids = Vec::new();
        while let Ok(lb) = queue.recv() {
            origins.push(lb.origin().clone());
            assert_eq!(lb.len(), 1);
            assert_eq!(lb.payload_bytes(), 16);
            ids.push(lb.materialize().batch_id);
        }
        ids.sort_unstable();
        assert_eq!(ids, vec![4, 5, 6]);
        // One shared Arc<str> across all frames of the stream.
        assert!(Arc::ptr_eq(&origins[0], &origins[1]));
        assert!(Arc::ptr_eq(&origins[1], &origins[2]));
    }

    #[test]
    fn corrupt_frame_after_the_last_marker_is_logged_not_silent() {
        // One expected stream. A second connection never sends a marker
        // (a killed daemon's stream), so what it sends after the first
        // one's marker is read while its open connection is read out —
        // and a frame is treated then as at any other time: an
        // undecodable one leaves a flight event and a warning, a valid one
        // is delivered.
        const CORRUPT_LEN: usize = 4_321; // this test's own key in the shared ring
        let receiver = EmlioReceiver::bind(ReceiverConfig::loopback(1)).unwrap();
        let ep = receiver.endpoint().clone();
        let markerless = PushSocket::connect(&ep, SocketOptions::default()).unwrap();
        markerless
            .send(batch_frame(1, "dying", 0, vec![1]))
            .unwrap();
        push_batches(&ep, "whole", vec![2]);
        assert!(poll_until(Duration::from_secs(10), || receiver
            .streams_seen()
            == 1));
        markerless
            .send(Bytes::from(vec![0xEE; CORRUPT_LEN]))
            .unwrap();
        markerless
            .send(batch_frame(3, "dying", 0, vec![3]))
            .unwrap();
        markerless.close().unwrap();

        let mut src = receiver.source();
        let mut ids: Vec<u64> = std::iter::from_fn(|| src.next_batch())
            .map(|b| b.batch_id)
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3], "the drain delivered what followed");
        let logged = FlightRecorder::global()
            .dump()
            .iter()
            .filter(|ev| ev.name == "recv_corrupt_frame" && ev.key == CORRUPT_LEN as u64)
            .count();
        assert_eq!(logged, 1, "the drain dropped a corrupt frame silently");
    }

    #[test]
    fn corrupt_frames_skipped() {
        let receiver = EmlioReceiver::bind(ReceiverConfig::loopback(1)).unwrap();
        let ep = receiver.endpoint().clone();
        let sock = PushSocket::connect(&ep, SocketOptions::default()).unwrap();
        sock.send(Bytes::from_static(b"\xde\xad\xbe\xef")).unwrap();
        sock.send(batch_frame(9, "x", 1, vec![1, 2])).unwrap();
        sock.send(Bytes::from(wire::encode_end_stream("x", 1, 1)))
            .unwrap();
        sock.close().unwrap();
        let mut src = receiver.source();
        let b = src.next_batch().unwrap();
        assert_eq!(b.batch_id, 9);
        assert!(src.next_batch().is_none());
    }

    #[test]
    fn hwm_bounds_the_batches_scanned_ahead_of_the_consumer() {
        // One connection and a consumer that takes nothing: `hwm` batches
        // wait in the queue and the reader holds one more, blocked on it;
        // the rest stay unread in the socket.
        const HWM: usize = 2;
        let receiver = EmlioReceiver::bind(ReceiverConfig {
            hwm: HWM,
            ..ReceiverConfig::loopback(1)
        })
        .unwrap();
        let sock = PushSocket::connect(receiver.endpoint(), SocketOptions::default()).unwrap();
        for id in 0..16 {
            sock.send(batch_frame(id, "ahead", 0, vec![0; 64])).unwrap();
        }
        let scanned = || receiver.metrics().snapshot().batches;
        let bound = HWM as u64 + 1;
        assert!(poll_until(Duration::from_secs(10), || scanned() == bound));
        std::thread::sleep(Duration::from_millis(300));
        assert_eq!(scanned(), bound, "scanned past the HWM");
        assert_eq!(receiver.queue().len(), HWM);
    }

    #[test]
    fn dropping_the_receiver_while_a_consumer_holds_its_queue_returns() {
        let receiver = EmlioReceiver::bind(ReceiverConfig {
            hwm: 1,
            queue_capacity: 1,
            ..ReceiverConfig::loopback(1)
        })
        .unwrap();
        let queue = receiver.queue();
        let sock = PushSocket::connect(receiver.endpoint(), SocketOptions::default()).unwrap();
        for id in 0..8 {
            sock.send(batch_frame(id, "held", 0, vec![1])).unwrap();
        }
        // One batch waits in the full queue, the next in a blocked push.
        assert!(poll_until(Duration::from_secs(10), || {
            receiver.metrics().snapshot().batches == 2
        }));
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            drop(receiver);
            tx.send(()).unwrap();
        });
        let returned = rx.recv_timeout(Duration::from_secs(3)).is_ok();
        // Only now does the consumer let go (and free a drop that waits).
        drop(queue);
        assert!(returned, "the drop waited for the consumer's queue");
        drop(sock);
    }

    #[test]
    fn a_connection_left_open_and_quiet_after_the_last_marker_ends_within_a_second() {
        let receiver = EmlioReceiver::bind(ReceiverConfig::loopback(1)).unwrap();
        let ep = receiver.endpoint().clone();
        // A markerless stream that stays connected and says nothing more.
        let quiet = PushSocket::connect(&ep, SocketOptions::default()).unwrap();
        quiet.send(batch_frame(1, "quiet", 0, vec![1])).unwrap();
        assert!(poll_until(Duration::from_secs(10), || {
            receiver.metrics().snapshot().batches == 1
        }));
        push_batches(&ep, "whole", vec![2]);
        let t0 = Instant::now();
        let mut src = receiver.source();
        let mut ids: Vec<u64> = std::iter::from_fn(|| src.next_batch())
            .map(|b| b.batch_id)
            .collect();
        assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2]);
        drop(quiet);
    }
}
