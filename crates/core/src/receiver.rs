//! The EMLIO Receiver — Algorithm 3's compute-side intake.
//!
//! Binds a PULL socket, spawns the `zmq_receiver` thread that *scans*
//! incoming msgpack frames into [`LazyBatch`]es and pushes them into a
//! shared bounded queue, and exposes that queue as a DALI
//! `external_source`. Batches from any stream are accepted in whatever
//! order they arrive — out-of-order prefetching is what keeps tail latency
//! bounded under RTT.
//!
//! The intake thread validates every frame but never materializes sample
//! payloads: [`wire::decode_lazy`] walks the structure in place, the
//! `LazyBatch` crosses the queue owning the frame, and
//! [`LazyQueueSource::next_batch`] materializes the [`RawBatch`] on the
//! *consumer* thread (refcount bumps into the frame, still no copies).
//! Repeated origin strings are deduplicated through a shared
//! [`StrInterner`].

use crate::metrics::DataPathMetrics;
use crate::wire::{self, LazyBatch, LazyMsg};
use crossbeam::channel::{bounded, Receiver, Sender};
use emlio_msgpack::StrInterner;
use emlio_obs::{clock, obs_warn, FlightRecorder, Stage, StageRecorder};
use emlio_pipeline::{ExternalSource, RawBatch};
use emlio_zmq::{Endpoint, PullSocket, SocketOptions, ZmqError};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Receiver configuration.
#[derive(Debug, Clone)]
pub struct ReceiverConfig {
    /// Address to bind (`tcp://127.0.0.1:0` for an ephemeral port).
    pub bind: Endpoint,
    /// PULL-socket HWM (transport-side buffering).
    pub hwm: usize,
    /// Shared in-memory queue capacity (batches buffered for the pipeline).
    pub queue_capacity: usize,
    /// Stop after this many `end_stream` markers (daemons × workers).
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

/// A bound, running receiver.
pub struct EmlioReceiver {
    rx: Receiver<LazyBatch>,
    endpoint: Endpoint,
    metrics: Arc<DataPathMetrics>,
    recorder: Arc<StageRecorder>,
    streams_seen: Arc<AtomicU32>,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<Result<(), ZmqError>>>,
}

impl EmlioReceiver {
    /// Bind and start receiving.
    pub fn bind(config: ReceiverConfig) -> Result<EmlioReceiver, ZmqError> {
        let pull = PullSocket::bind(&config.bind, SocketOptions::default().with_hwm(config.hwm))?;
        let endpoint = pull
            .local_endpoint()
            .ok_or_else(|| ZmqError::BadEndpoint("unresolvable local endpoint".into()))?;
        let (tx, rx) = bounded(config.queue_capacity.max(1));
        let metrics = DataPathMetrics::shared();
        let recorder = StageRecorder::shared();
        let streams_seen = Arc::new(AtomicU32::new(0));
        let shutdown = Arc::new(AtomicBool::new(false));
        let thread = {
            let metrics = metrics.clone();
            let recorder = recorder.clone();
            let streams_seen = streams_seen.clone();
            let shutdown = shutdown.clone();
            let expected = config.expected_streams;
            std::thread::Builder::new()
                .name("emlio-receiver".into())
                .spawn(move || {
                    receive_loop(
                        pull,
                        tx,
                        metrics,
                        recorder,
                        streams_seen,
                        shutdown,
                        expected,
                    )
                })
                .expect("spawn receiver thread")
        };
        Ok(EmlioReceiver {
            rx,
            endpoint,
            metrics,
            recorder,
            streams_seen,
            shutdown,
            thread: Some(thread),
        })
    }

    /// The endpoint daemons should connect to.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// A DALI `external_source` over the shared queue. The stream ends once
    /// every expected sender has sent its end-of-stream marker and the queue
    /// has drained. Samples materialize on the calling (consumer) thread,
    /// not on the intake thread.
    pub fn source(&self) -> LazyQueueSource {
        LazyQueueSource::new(self.rx.clone()).with_recorder(self.recorder.clone())
    }

    /// Raw access to the shared queue of validated-but-unmaterialized
    /// batches (for non-pipeline consumers).
    pub fn queue(&self) -> Receiver<LazyBatch> {
        self.rx.clone()
    }

    /// Data-path counters.
    pub fn metrics(&self) -> Arc<DataPathMetrics> {
        self.metrics.clone()
    }

    /// Per-stage latency histograms (recv wait, scan, queue push on the
    /// intake thread; queue dwell, lazy decode, wire transit, end-to-end
    /// on the consumer side).
    pub fn recorder(&self) -> Arc<StageRecorder> {
        self.recorder.clone()
    }

    /// End-of-stream markers seen so far.
    pub fn streams_seen(&self) -> u32 {
        self.streams_seen.load(Ordering::SeqCst)
    }

    /// The intake's stop flag: once set, the intake thread returns at its
    /// next poll tick and consumers see end-of-queue after the batches
    /// already queued — how a failed daemon ends the stream.
    pub(crate) fn shutdown_flag(&self) -> Arc<AtomicBool> {
        self.shutdown.clone()
    }

    /// Wait for the intake thread to finish (all streams ended).
    pub fn join(mut self) -> Result<(), ZmqError> {
        match self.thread.take() {
            Some(h) => h.join().map_err(|_| ZmqError::Closed)?,
            None => Ok(()),
        }
    }
}

impl Drop for EmlioReceiver {
    fn drop(&mut self) {
        // Stop the intake thread even if the expected end-of-stream markers
        // never arrived (e.g. a daemon died mid-stream): it re-checks this
        // flag on every poll tick.
        self.shutdown.store(true, Ordering::SeqCst);
        // Disconnect the shared queue too: an intake thread blocked on a
        // full queue must observe the disconnect, or the join would deadlock
        // (its `tx.send` only errors once every receiver clone is gone).
        let rx = std::mem::replace(&mut self.rx, crossbeam::channel::never());
        drop(rx);
        if let Some(h) = self.thread.take() {
            let _ = h.join();
        }
    }
}

/// An `external_source` that receives [`LazyBatch`]es and materializes
/// them on the consuming thread — the decode cost lands where the trainer
/// already is, not on the shared intake thread.
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

fn receive_loop(
    pull: PullSocket,
    tx: Sender<LazyBatch>,
    metrics: Arc<DataPathMetrics>,
    recorder: Arc<StageRecorder>,
    streams_seen: Arc<AtomicU32>,
    shutdown: Arc<AtomicBool>,
    expected_streams: u32,
) -> Result<(), ZmqError> {
    let interner = StrInterner::new();
    // Decode one frame and queue its batch for the consumer. `None` once
    // the consumer is gone; otherwise whether the frame was an
    // end-of-stream marker.
    let intake = |frame: bytes::Bytes| -> Option<bool> {
        let t_scan = Instant::now();
        let decoded = wire::decode_lazy(&frame, Some(&interner));
        recorder.record(Stage::RecvScan, t_scan.elapsed().as_nanos() as u64);
        match decoded {
            Ok(LazyMsg::Batch(mut batch)) => {
                batch.stamp_received(clock::now_nanos());
                metrics.record_batch(batch.len() as u64, batch.payload_bytes());
                let t_push = Instant::now();
                tx.send(batch).ok()?;
                // Time blocked handing the batch to a full queue — the
                // stall report's queue-full attribution.
                recorder.record(Stage::QueuePush, t_push.elapsed().as_nanos() as u64);
                Some(false)
            }
            Ok(LazyMsg::EndStream { .. }) => Some(true),
            Err(e) => {
                // Corrupt frame: drop it. The CRC layers below make this
                // effectively unreachable; counting it as a lost batch is
                // the safe failure mode — but never a *silent* one.
                FlightRecorder::global().record("recv_corrupt_frame", frame.len() as u64, 0);
                obs_warn!(
                    "receiver",
                    "dropping corrupt {}-byte frame: {e}",
                    frame.len()
                );
                Some(false)
            }
        }
    };
    let mut ended = 0u32;
    while ended < expected_streams {
        if shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        let t_wait = Instant::now();
        let polled = pull.recv_timeout(Duration::from_millis(200))?;
        // Empty poll ticks count too: RecvWait's sum is the intake
        // thread's total time blocked on the transport, which the stall
        // report attributes as blocked-recv.
        recorder.record(Stage::RecvWait, t_wait.elapsed().as_nanos() as u64);
        let Some(frame) = polled else { continue };
        match intake(frame) {
            // Consumer went away; stop politely.
            None => return Ok(()),
            Some(true) => {
                ended += 1;
                streams_seen.store(ended, Ordering::SeqCst);
            }
            Some(false) => {}
        }
    }
    // Every expected stream has ended, but frames from streams that died
    // *without* a marker may still be in flight on their own connections.
    // Drain until the socket is quiet, so nothing that reached this node is
    // silently dropped. The quiet window is short while pushers are still
    // connected and immediate once they are all gone — bounded either way,
    // so a live-but-idle peer cannot hang `join()` forever.
    let mut quiet_ticks = 0u32;
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        let all_disconnected = pull.active_connections() == 0;
        match pull.recv_timeout(Duration::from_millis(20))? {
            Some(frame) => {
                quiet_ticks = 0;
                if intake(frame).is_none() {
                    return Ok(());
                }
            }
            None if all_disconnected => return Ok(()),
            None => {
                quiet_ticks += 1;
                if quiet_ticks >= 25 {
                    // ~500 ms of silence with a connection still open.
                    return Ok(());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::BufferPool;
    use bytes::Bytes;
    use emlio_pipeline::ExternalSource;
    use emlio_zmq::PushSocket;

    /// One single-sample batch frame, as a daemon worker would send it.
    fn batch_frame(id: u64, origin: &str, label: u32, payload: Vec<u8>) -> emlio_zmq::Frame {
        let samples = [(id, label, Bytes::from(payload))];
        wire::encode_batch_frame_traced(0, id, origin, None, &samples, &BufferPool::new())
    }

    fn push_batches(ep: &Endpoint, origin: &str, ids: Vec<u64>) {
        let sock = PushSocket::connect(ep, SocketOptions::default()).unwrap();
        for id in &ids {
            sock.send(batch_frame(*id, origin, 0, vec![*id as u8; 16]))
                .unwrap();
        }
        sock.send(Bytes::from(wire::encode_end_stream(
            origin,
            ids.len() as u64,
        )))
        .unwrap();
        sock.close().unwrap();
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
        receiver.join().unwrap();
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
        receiver.join().unwrap();
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
        receiver.join().unwrap();
    }

    #[test]
    fn corrupt_frame_after_the_last_marker_is_logged_not_silent() {
        // One expected stream. A second connection never sends a marker
        // (a killed daemon's stream), so what it sends after the first
        // one's marker arrives in the post-marker drain — which must treat
        // a frame as the main loop does: an undecodable one leaves a
        // flight event and a warning, a valid one is delivered.
        const CORRUPT_LEN: usize = 4_321; // this test's own key in the shared ring
        let receiver = EmlioReceiver::bind(ReceiverConfig::loopback(1)).unwrap();
        let ep = receiver.endpoint().clone();
        let markerless = PushSocket::connect(&ep, SocketOptions::default()).unwrap();
        markerless
            .send(batch_frame(1, "dying", 0, vec![1]))
            .unwrap();
        push_batches(&ep, "whole", vec![2]);
        assert!(emlio_util::testutil::poll_until(
            Duration::from_secs(10),
            || receiver.streams_seen() == 1
        ));
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
        receiver.join().unwrap();
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
        sock.send(Bytes::from(wire::encode_end_stream("x", 1)))
            .unwrap();
        sock.close().unwrap();
        let mut src = receiver.source();
        let b = src.next_batch().unwrap();
        assert_eq!(b.batch_id, 9);
        assert!(src.next_batch().is_none());
        receiver.join().unwrap();
    }
}
