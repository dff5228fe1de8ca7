//! The named stages of the EMLIO data path.

use std::fmt;

/// One timed stage of the serve path, daemon → wire → receiver → pipeline.
///
/// Stages come in two kinds, which matters for wall-time accounting:
///
/// * **exclusive** stages tile a thread's loop — on a daemon send worker,
///   [`BatchAssemble`](Stage::BatchAssemble) and
///   [`SocketSend`](Stage::SocketSend) alternate and together account for
///   (nearly all of) the worker's wall time; on each PULL reader thread,
///   one per connection, the same holds for [`RecvWait`](Stage::RecvWait),
///   [`RecvScan`](Stage::RecvScan), and [`QueuePush`](Stage::QueuePush)
///   (summed over connections they can exceed wall time);
/// * **nested** stages break an exclusive span down —
///   [`StorageRead`](Stage::StorageRead),
///   [`CacheLookup`](Stage::CacheLookup),
///   [`FleetFloorWait`](Stage::FleetFloorWait),
///   [`PoolAlloc`](Stage::PoolAlloc), and [`Encode`](Stage::Encode) all
///   happen *inside* a `BatchAssemble` span and must not be added to it.
///
/// [`QueueDwell`](Stage::QueueDwell), [`WireTransit`](Stage::WireTransit),
/// and [`EndToEnd`](Stage::EndToEnd) are per-batch latencies derived from
/// [`BatchTrace`](crate::BatchTrace) timestamps rather than measured
/// around a code span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Stage {
    /// Backing-store read: faulting a block of a mapped local shard in (a
    /// positioned read where shards are not mapped), or an emulated NFS
    /// read.
    StorageRead,
    /// Shard-cache hit service time (miss time is the storage read).
    CacheLookup,
    /// Cooperative-fleet block service: fetch from the owning peer's
    /// RAM/disk tier or a fleet flight handoff (nested inside
    /// `BatchAssemble` like the storage read it replaces).
    PeerFetch,
    /// A fleet member's demand access waiting for the fleet's floor to
    /// reach its plan position (the cache's lockstep rule), recorded only
    /// when it waited (nested inside `BatchAssemble`, before the read).
    FleetFloorWait,
    /// Buffer-pool handout (free-list pop or fresh allocation).
    PoolAlloc,
    /// Whole daemon-side batch build: read + slice + encode (inclusive).
    BatchAssemble,
    /// msgpack scatter-frame encode.
    Encode,
    /// PUSH-socket send, including time blocked on a full HWM queue.
    SocketSend,
    /// A PULL reader waiting for its connection's next frame off the wire,
    /// from its previous hand-off to the frame's last byte.
    RecvWait,
    /// Lazy structural scan/validation of one received frame.
    RecvScan,
    /// A PULL reader's push into the receiver's bounded queue, including
    /// queue-full time.
    QueuePush,
    /// Time a scanned batch sat in the bounded queue before the consumer
    /// dequeued it.
    QueueDwell,
    /// Materializing a `LazyBatch` on the consumer thread.
    LazyDecode,
    /// One pipeline `process_batch` (decode/resize/crop/normalize).
    PipelineOp,
    /// Daemon `send` stamp → receiver arrival stamp (trace-derived).
    WireTransit,
    /// Daemon `send` stamp → consumer dequeue (trace-derived).
    EndToEnd,
    /// Spill-file write of an evicted block, or a checkpoint's. Runs on the
    /// dedicated `emlio-cache-spill` thread, *off* the send workers' serve path (so
    /// it is neither exclusive nor nested within `BatchAssemble`).
    SpillWrite,
    /// The prefetch executor staging a disk-tier block into RAM ahead of
    /// demand: validated spill-file read plus admission, on a helper
    /// thread beside the send workers.
    WarmPromote,
    /// Time the data path spent absorbing injected or transient faults:
    /// retry backoff sleeps on the storage path plus injected latency
    /// spikes from a chaos fault plan (nested inside whatever span the
    /// faulted operation ran under — never added to exclusive stages).
    FaultInject,
}

impl Stage {
    /// Number of stages (histogram array size).
    pub const COUNT: usize = 19;

    /// Every stage, in data-path order (off-path stages trail).
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::StorageRead,
        Stage::CacheLookup,
        Stage::PeerFetch,
        Stage::FleetFloorWait,
        Stage::PoolAlloc,
        Stage::BatchAssemble,
        Stage::Encode,
        Stage::SocketSend,
        Stage::RecvWait,
        Stage::RecvScan,
        Stage::QueuePush,
        Stage::QueueDwell,
        Stage::LazyDecode,
        Stage::PipelineOp,
        Stage::WireTransit,
        Stage::EndToEnd,
        Stage::SpillWrite,
        Stage::WarmPromote,
        Stage::FaultInject,
    ];

    /// Stable snake_case name (tsdb tag value, report row label).
    pub fn name(&self) -> &'static str {
        match self {
            Stage::StorageRead => "storage_read",
            Stage::CacheLookup => "cache_lookup",
            Stage::PeerFetch => "peer_fetch",
            Stage::FleetFloorWait => "fleet_floor_wait",
            Stage::PoolAlloc => "pool_alloc",
            Stage::BatchAssemble => "batch_assemble",
            Stage::Encode => "encode",
            Stage::SocketSend => "socket_send",
            Stage::RecvWait => "recv_wait",
            Stage::RecvScan => "recv_scan",
            Stage::QueuePush => "queue_push",
            Stage::QueueDwell => "queue_dwell",
            Stage::LazyDecode => "lazy_decode",
            Stage::PipelineOp => "pipeline_op",
            Stage::WireTransit => "wire_transit",
            Stage::EndToEnd => "end_to_end",
            Stage::SpillWrite => "spill_write",
            Stage::WarmPromote => "warm_promote",
            Stage::FaultInject => "fault_inject",
        }
    }

    /// Parse a [`Stage::name`] back (report loads from line protocol).
    pub fn from_name(name: &str) -> Option<Stage> {
        Stage::ALL.iter().copied().find(|s| s.name() == name)
    }

    /// Position in [`Stage::ALL`] (histogram index).
    pub fn index(&self) -> usize {
        *self as usize
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_complete_and_ordered() {
        assert_eq!(Stage::ALL.len(), Stage::COUNT);
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i, "{s}");
            assert_eq!(Stage::from_name(s.name()), Some(*s));
        }
        assert_eq!(Stage::from_name("bogus"), None);
    }
}
