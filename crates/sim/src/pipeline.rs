//! Bounded-buffer token pipelines with blocking-after-service semantics.
//!
//! Every loader in the testbed — PyTorch DataLoader, DALI-over-NFS, and the
//! EMLIO daemon/receiver chain — is expressed as a linear pipeline of stages:
//!
//! ```text
//!   [source] → stage₀ (k₀ servers) → queue(c₁) → stage₁ (k₁) → … → sink
//! ```
//!
//! * A stage has `k` parallel servers (or infinitely many, for pure-delay
//!   "wire" stages) and a per-token service-time closure.
//! * The queue *in front of* each stage has finite capacity. A server that
//!   finishes service while the downstream queue is full **holds its token
//!   and cannot take new work** — precisely the behaviour of a ZeroMQ PUSH
//!   worker at its HWM, an NFS client out of readahead slots, or a DALI
//!   prefetch queue at depth `Q`.
//! * Backpressure ripples upstream through slot hand-offs, so steady-state
//!   throughput is set by the bottleneck stage and in-flight work is bounded
//!   by the queue capacities — the two facts EMLIO's §4 design exploits.
//!
//! Busy and blocked intervals are recorded per stage into [`BucketTrace`]s
//! for the energy model.

use crate::time::SimTime;
use crate::trace::BucketTrace;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A unit of work flowing through the pipeline (one batch, usually).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Caller-assigned identifier.
    pub id: u64,
    /// Payload size in bytes (service closures often use it).
    pub bytes: u64,
    /// Free tag (epoch number, shard id, …).
    pub tag: u32,
}

impl Token {
    /// Convenience constructor.
    pub fn new(id: u64, bytes: u64) -> Token {
        Token { id, bytes, tag: 0 }
    }
}

/// Parallelism of a stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// `k` parallel servers.
    Servers(u32),
    /// Unlimited servers — a pure-delay stage (network propagation).
    Infinite,
}

/// Service-time model: nanoseconds to process a token.
pub type ServiceFn = Box<dyn FnMut(&Token) -> u64>;

/// Static description of one stage.
pub struct StageSpec {
    /// Stage name (appears in reports and energy mapping).
    pub name: String,
    /// Server parallelism.
    pub kind: StageKind,
    /// Per-token service time.
    pub service: ServiceFn,
    /// Capacity of the queue in front of this stage. Ignored for stage 0
    /// (the source feeds it directly).
    pub in_capacity: usize,
}

impl StageSpec {
    /// A `k`-server stage.
    pub fn servers(
        name: &str,
        k: u32,
        in_capacity: usize,
        service: impl FnMut(&Token) -> u64 + 'static,
    ) -> StageSpec {
        assert!(k > 0, "stage needs at least one server");
        StageSpec {
            name: name.to_string(),
            kind: StageKind::Servers(k),
            service: Box::new(service),
            in_capacity,
        }
    }

    /// A pure-delay stage with unlimited parallelism.
    pub fn delay(
        name: &str,
        in_capacity: usize,
        service: impl FnMut(&Token) -> u64 + 'static,
    ) -> StageSpec {
        StageSpec {
            name: name.to_string(),
            kind: StageKind::Infinite,
            service: Box::new(service),
            in_capacity,
        }
    }
}

/// One completed token with its pipeline entry/exit times.
#[derive(Debug, Clone)]
pub struct TokenResult {
    /// The token.
    pub token: Token,
    /// When it entered stage 0's queue.
    pub entered: SimTime,
    /// When it left the last stage.
    pub exited: SimTime,
}

/// Post-run per-stage report.
#[derive(Debug)]
pub struct StageReport {
    /// Stage name.
    pub name: String,
    /// Tokens that completed service at this stage.
    pub completed: u64,
    /// Busy server-time trace.
    pub busy: BucketTrace,
    /// Blocked-holding-token time trace (server done but downstream full).
    pub blocked: BucketTrace,
    /// Total busy server-seconds.
    pub busy_secs: f64,
    /// Total blocked server-seconds.
    pub blocked_secs: f64,
}

/// Result of a pipeline run.
#[derive(Debug)]
pub struct PipelineResult {
    /// Completions in exit order.
    pub completions: Vec<TokenResult>,
    /// Per-stage reports.
    pub stages: Vec<StageReport>,
    /// Time the last token exited (or last event fired).
    pub makespan: SimTime,
}

impl PipelineResult {
    /// Makespan in seconds.
    pub fn makespan_secs(&self) -> f64 {
        self.makespan.as_secs_f64()
    }

    /// Mean tokens/second over the makespan.
    pub fn throughput(&self) -> f64 {
        if self.makespan.nanos() == 0 {
            0.0
        } else {
            self.completions.len() as f64 / self.makespan.as_secs_f64()
        }
    }
}

struct StageState {
    spec: StageSpec,
    input: VecDeque<(Token, SimTime)>, // (token, queued_at)
    busy: u32,
    blocked: VecDeque<(Token, SimTime)>, // (token, blocked_since)
    busy_trace: BucketTrace,
    blocked_trace: BucketTrace,
    completed: u64,
    busy_nanos: f64,
    blocked_nanos: f64,
}

impl StageState {
    fn available(&self) -> bool {
        match self.spec.kind {
            StageKind::Servers(k) => (self.busy + self.blocked.len() as u32) < k,
            StageKind::Infinite => true,
        }
    }

    fn has_input_space(&self) -> bool {
        self.input.len() < self.spec.in_capacity
    }
}

enum Ev {
    /// Service completion: (stage, token, service_started).
    Complete(usize, Token, SimTime),
    /// External arrival into stage 0.
    Arrive(Token),
}

struct Scheduled {
    at: SimTime,
    seq: u64,
    ev: Ev,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The pipeline simulator. Build with [`PipelineSim::new`], add stages in
/// order, feed tokens, then [`run`](PipelineSim::run).
pub struct PipelineSim {
    stages: Vec<StageState>,
    heap: BinaryHeap<Reverse<Scheduled>>,
    seq: u64,
    now: SimTime,
    completions: Vec<TokenResult>,
    entry_times: std::collections::HashMap<u64, SimTime>,
    bucket_nanos: u64,
}

impl PipelineSim {
    /// New simulator recording traces at `bucket_nanos` resolution.
    pub fn new(bucket_nanos: u64) -> PipelineSim {
        PipelineSim {
            stages: Vec::new(),
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            completions: Vec::new(),
            entry_times: std::collections::HashMap::new(),
            bucket_nanos,
        }
    }

    /// Append a stage. Stages execute in insertion order.
    pub fn add_stage(&mut self, spec: StageSpec) -> &mut Self {
        self.stages.push(StageState {
            input: VecDeque::new(),
            busy: 0,
            blocked: VecDeque::new(),
            busy_trace: BucketTrace::new(self.bucket_nanos),
            blocked_trace: BucketTrace::new(self.bucket_nanos),
            completed: 0,
            busy_nanos: 0.0,
            blocked_nanos: 0.0,
            spec,
        });
        self
    }

    /// Feed a token available at time zero.
    pub fn push_initial(&mut self, token: Token) {
        self.schedule(SimTime::ZERO, Ev::Arrive(token));
    }

    fn schedule(&mut self, at: SimTime, ev: Ev) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Scheduled { at, seq, ev }));
    }

    /// Run to completion and consume the simulator.
    ///
    /// # Panics
    /// Panics if no stages were added.
    pub fn run(mut self) -> PipelineResult {
        assert!(!self.stages.is_empty(), "pipeline needs at least one stage");
        while let Some(Reverse(sch)) = self.heap.pop() {
            debug_assert!(sch.at >= self.now);
            self.now = sch.at;
            match sch.ev {
                Ev::Arrive(token) => {
                    self.entry_times.insert(token.id, self.now);
                    self.stages[0].input.push_back((token, self.now));
                    self.try_start(0);
                }
                Ev::Complete(s, token, started) => {
                    let now = self.now;
                    {
                        let st = &mut self.stages[s];
                        st.busy -= 1;
                        st.completed += 1;
                        st.busy_trace.add_interval(started, now);
                        st.busy_nanos += (now - started).as_nanos() as f64;
                    }
                    self.deliver(s, token);
                    self.try_start(s);
                }
            }
        }
        let makespan = self.now;
        let stages = self
            .stages
            .into_iter()
            .map(|st| StageReport {
                name: st.spec.name,
                completed: st.completed,
                busy: st.busy_trace,
                blocked: st.blocked_trace,
                busy_secs: st.busy_nanos / 1e9,
                blocked_secs: st.blocked_nanos / 1e9,
            })
            .collect();
        PipelineResult {
            completions: self.completions,
            stages,
            makespan,
        }
    }

    /// Move a token that finished service at stage `s` onward.
    fn deliver(&mut self, s: usize, token: Token) {
        if s + 1 == self.stages.len() {
            let entered = self.entry_times.remove(&token.id).unwrap_or(SimTime::ZERO);
            self.completions.push(TokenResult {
                token,
                entered,
                exited: self.now,
            });
            return;
        }
        if self.stages[s + 1].has_input_space() {
            let now = self.now;
            self.stages[s + 1].input.push_back((token, now));
            self.try_start(s + 1);
        } else {
            let now = self.now;
            self.stages[s].blocked.push_back((token, now));
        }
    }

    /// Start as many services as possible at stage `s`.
    fn try_start(&mut self, s: usize) {
        loop {
            if !self.stages[s].available() || self.stages[s].input.is_empty() {
                return;
            }
            let (token, _queued_at) = self.stages[s].input.pop_front().unwrap();
            // The dequeue freed a slot in this stage's input queue — hand it
            // to a blocked upstream server if one is waiting.
            if s > 0 {
                self.unblock_upstream(s);
            }
            let dur = (self.stages[s].spec.service)(&token);
            self.stages[s].busy += 1;
            let started = self.now;
            self.schedule(self.now + dur, Ev::Complete(s, token, started));
        }
    }

    /// A slot opened in stage `s`'s input queue: release one blocked server
    /// of stage `s-1` (FIFO), cascading further upstream.
    fn unblock_upstream(&mut self, s: usize) {
        let up = s - 1;
        if let Some((token, since)) = self.stages[up].blocked.pop_front() {
            let now = self.now;
            {
                let st = &mut self.stages[up];
                st.blocked_trace.add_interval(since, now);
                st.blocked_nanos += (now - since).as_nanos() as f64;
            }
            self.stages[s].input.push_back((token, now));
            // The blocked server at `up` is free again.
            self.try_start(up);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokens(n: u64) -> Vec<Token> {
        (0..n).map(|i| Token::new(i, 1000)).collect()
    }

    /// One stage, one server, fixed 10 ns service: makespan = n * 10.
    #[test]
    fn single_server_serializes() {
        let mut sim = PipelineSim::new(1_000);
        sim.add_stage(StageSpec::servers("s0", 1, usize::MAX, |_| 10));
        for t in tokens(100) {
            sim.push_initial(t);
        }
        let r = sim.run();
        assert_eq!(r.completions.len(), 100);
        assert_eq!(r.makespan, SimTime(1000));
        assert_eq!(r.stages[0].completed, 100);
        assert!((r.stages[0].busy_secs - 1e-6).abs() < 1e-12);
    }

    /// k servers divide the work: makespan = ceil(n/k) * service.
    #[test]
    fn parallel_servers_scale() {
        let mut sim = PipelineSim::new(1_000);
        sim.add_stage(StageSpec::servers("s0", 4, usize::MAX, |_| 100));
        for t in tokens(10) {
            sim.push_initial(t);
        }
        let r = sim.run();
        assert_eq!(r.makespan, SimTime(300), "ceil(10/4)=3 waves of 100ns");
    }

    /// Two stages: throughput set by the bottleneck, pipeline overlaps.
    #[test]
    fn bottleneck_dominates() {
        let mut sim = PipelineSim::new(1_000);
        sim.add_stage(StageSpec::servers("fast", 1, usize::MAX, |_| 10));
        sim.add_stage(StageSpec::servers("slow", 1, 4, |_| 50));
        for t in tokens(100) {
            sim.push_initial(t);
        }
        let r = sim.run();
        // Steady state: slow stage processes one token per 50ns.
        // makespan ≈ 10 (first fill) + 100*50 = 5010.
        assert_eq!(r.makespan, SimTime(10 + 100 * 50));
    }

    /// Bounded queue + blocking-after-service limits in-flight work: with
    /// a downstream queue of 2 and a much slower consumer, the fast producer
    /// spends most of its time blocked, and blocked time is recorded.
    #[test]
    fn backpressure_blocks_producer() {
        let mut sim = PipelineSim::new(1_000);
        sim.add_stage(StageSpec::servers("producer", 1, usize::MAX, |_| 1));
        sim.add_stage(StageSpec::servers("consumer", 1, 2, |_| 100));
        for t in tokens(50) {
            sim.push_initial(t);
        }
        let r = sim.run();
        assert_eq!(r.completions.len(), 50);
        let producer = &r.stages[0];
        assert!(
            producer.blocked_secs > producer.busy_secs * 10.0,
            "producer mostly blocked: busy={} blocked={}",
            producer.busy_secs,
            producer.blocked_secs
        );
        // In-flight bound: completion spacing equals consumer service time.
        let exits: Vec<u64> = r.completions.iter().map(|c| c.exited.nanos()).collect();
        for w in exits.windows(2) {
            assert_eq!(w[1] - w[0], 100);
        }
    }

    /// A pure-delay stage shifts times without limiting throughput.
    #[test]
    fn infinite_delay_stage_pipelines() {
        let mut sim = PipelineSim::new(1_000);
        sim.add_stage(StageSpec::servers("emit", 1, usize::MAX, |_| 10));
        sim.add_stage(StageSpec::delay("wire", usize::MAX, |_| 1_000));
        for t in tokens(20) {
            sim.push_initial(t);
        }
        let r = sim.run();
        // Last token emitted at 200, arrives at 1200. If the wire were a
        // single server, makespan would be ≥ 20 * 1000.
        assert_eq!(r.makespan, SimTime(20 * 10 + 1_000));
    }

    /// FIFO order is preserved through a single-server chain.
    #[test]
    fn fifo_order_preserved() {
        let mut sim = PipelineSim::new(1_000);
        sim.add_stage(StageSpec::servers("a", 1, usize::MAX, |_| 7));
        sim.add_stage(StageSpec::servers("b", 1, 3, |_| 11));
        sim.add_stage(StageSpec::servers("c", 1, 3, |_| 5));
        for t in tokens(30) {
            sim.push_initial(t);
        }
        let r = sim.run();
        let ids: Vec<u64> = r.completions.iter().map(|c| c.token.id).collect();
        assert_eq!(ids, (0..30).collect::<Vec<_>>());
    }

    /// Service time can depend on token bytes.
    #[test]
    fn byte_dependent_service() {
        let mut sim = PipelineSim::new(1_000);
        sim.add_stage(StageSpec::servers("xfer", 1, usize::MAX, |t: &Token| {
            t.bytes
        }));
        sim.push_initial(Token::new(0, 30));
        sim.push_initial(Token::new(1, 70));
        let r = sim.run();
        assert_eq!(r.makespan, SimTime(100));
    }

    /// Deep chain with tiny buffers must neither deadlock nor lose tokens.
    #[test]
    fn deep_chain_tiny_buffers_no_deadlock() {
        let mut sim = PipelineSim::new(1_000_000);
        for i in 0..8 {
            let svc = 10 + (i as u64 * 13) % 40;
            sim.add_stage(StageSpec::servers(
                &format!("st{i}"),
                1 + (i as u32 % 3),
                1,
                move |_| svc,
            ));
        }
        for t in tokens(200) {
            sim.push_initial(t);
        }
        let r = sim.run();
        assert_eq!(r.completions.len(), 200);
        for st in &r.stages {
            assert_eq!(st.completed, 200);
        }
    }

    #[test]
    #[should_panic]
    fn empty_pipeline_panics() {
        let sim = PipelineSim::new(1_000);
        let _ = sim.run();
    }
}
