//! `emlio-sim` — a discrete-event simulation kernel for I/O pipelines.
//!
//! The paper's evaluation spans epochs of 150–4200 wall-clock seconds on a
//! three-node GPU testbed. Reproducing those figures in real time is not
//! possible here, so the `emlio-testbed` crate replays every experiment in
//! *virtual time* on this kernel (the data-plane code — TFRecord, msgpack,
//! zmq framing — additionally runs for real in the examples and integration
//! tests; `tests/des_vs_real.rs` cross-checks the two).
//!
//! Pieces:
//!
//! * [`time::SimTime`] — nanosecond virtual timestamps;
//! * [`pipeline`] — the workhorse: bounded-buffer, multi-server token
//!   pipelines with **blocking-after-service** semantics. A stage whose
//!   downstream queue is full holds its server — exactly how a ZeroMQ PUSH
//!   with a reached HWM holds its worker thread. Throughput, queueing, tail
//!   latency, and backpressure all emerge from the same mechanism as in the
//!   real transport;
//! * [`trace::BucketTrace`] — per-stage busy-time recording in fixed-width
//!   buckets, which the energy monitor integrates into power/energy series.

pub mod pipeline;
pub mod time;
pub mod trace;

pub use pipeline::{PipelineSim, StageKind, StageSpec, Token, TokenResult};
pub use time::SimTime;
pub use trace::BucketTrace;
