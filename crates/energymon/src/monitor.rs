//! Thread orchestration for Algorithm 1: barrier-aligned samplers, the
//! accumulator, and the batch writer.

use crate::accumulator::{MergedRow, StreamMerger};
use crate::power::PowerSource;
use crate::{FIELD_CPU, FIELD_GPU, FIELD_MEM, MEASUREMENT};
use crossbeam::channel::{unbounded, Receiver, Sender};
use emlio_tsdb::{Point, TsdbClient};
use emlio_util::clock::SharedClock;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Configuration for one node's monitor.
pub struct MonitorConfig {
    /// Node id tag written with every tuple.
    pub node_id: String,
    /// Sampling interval δ (the paper uses 100 ms).
    pub interval_nanos: u64,
    /// Batch writer flush threshold `N`.
    pub batch_size: usize,
    /// The process clock the tuples are stamped with (NTP stand-in).
    pub clock: SharedClock,
    /// The counter source.
    pub source: Arc<dyn PowerSource>,
    /// Whether to launch the GPU sampler thread.
    pub has_gpu: bool,
    /// Destination TSDB.
    pub client: TsdbClient,
}

/// A barrier that can be poisoned so waiting samplers unblock at shutdown
/// (a plain `std::sync::Barrier` would deadlock the last thread out).
struct PoisonableBarrier {
    state: Mutex<BarrierState>,
    cvar: Condvar,
    parties: usize,
}

struct BarrierState {
    waiting: usize,
    generation: u64,
    poisoned: bool,
}

impl PoisonableBarrier {
    fn new(parties: usize) -> Self {
        PoisonableBarrier {
            state: Mutex::new(BarrierState {
                waiting: 0,
                generation: 0,
                poisoned: false,
            }),
            cvar: Condvar::new(),
            parties,
        }
    }

    /// Wait for all parties. Returns `false` if the barrier was poisoned.
    fn wait(&self) -> bool {
        let mut st = self.state.lock();
        if st.poisoned {
            return false;
        }
        st.waiting += 1;
        if st.waiting == self.parties {
            st.waiting = 0;
            st.generation += 1;
            self.cvar.notify_all();
            return true;
        }
        let gen = st.generation;
        while st.generation == gen && !st.poisoned {
            self.cvar.wait(&mut st);
        }
        !st.poisoned
    }

    fn poison(&self) {
        let mut st = self.state.lock();
        st.poisoned = true;
        self.cvar.notify_all();
    }
}

/// One sampler reading on the way to the accumulator:
/// `(component index, timestamp nanos, named field values)`.
type SamplerReading = (usize, u64, Vec<(String, f64)>);

/// A running per-node energy monitor. Create with [`EnergyMonitor::start`],
/// terminate with [`EnergyMonitor::stop`] (which flushes all pending rows).
pub struct EnergyMonitor {
    stop_flag: Arc<AtomicBool>,
    barrier: Arc<PoisonableBarrier>,
    sampler_threads: Vec<JoinHandle<()>>,
    accumulator_thread: Option<JoinHandle<()>>,
    writer_thread: Option<JoinHandle<u64>>,
    sample_tx: Option<Sender<SamplerReading>>,
}

impl EnergyMonitor {
    /// Launch the sampler/accumulator/writer threads (Algorithm 1 lines 1–2).
    pub fn start(config: MonitorConfig) -> EnergyMonitor {
        let parties = 1 + config.has_gpu as usize;
        let barrier = Arc::new(PoisonableBarrier::new(parties));
        let stop_flag = Arc::new(AtomicBool::new(false));
        let (sample_tx, sample_rx) = unbounded::<SamplerReading>();
        let (row_tx, row_rx) = unbounded::<MergedRow>();

        let dt_secs = config.interval_nanos as f64 / 1e9;
        let mut sampler_threads = Vec::new();

        // CPU/DRAM sampler (Algorithm 1 lines 5–9).
        {
            let barrier = barrier.clone();
            let stop = stop_flag.clone();
            let clock = config.clock.clone();
            let source = config.source.clone();
            let tx = sample_tx.clone();
            let interval = config.interval_nanos;
            sampler_threads.push(
                std::thread::Builder::new()
                    .name("energymon-cpu".into())
                    .spawn(move || {
                        while !stop.load(Ordering::SeqCst) {
                            if !barrier.wait() {
                                break;
                            }
                            let t_k = clock.now_nanos();
                            // `perf stat … sleep δ` measures across the interval.
                            clock.sleep_nanos(interval);
                            let (cpu_j, mem_j) = source.sample_cpu_dram(dt_secs);
                            let fields = vec![
                                (FIELD_CPU.to_string(), cpu_j),
                                (FIELD_MEM.to_string(), mem_j),
                            ];
                            if tx.send((0, t_k, fields)).is_err() {
                                break;
                            }
                        }
                    })
                    .expect("spawn cpu sampler"),
            );
        }

        // GPU sampler (Algorithm 1 lines 10–13).
        if config.has_gpu {
            let barrier = barrier.clone();
            let stop = stop_flag.clone();
            let clock = config.clock.clone();
            let source = config.source.clone();
            let tx = sample_tx.clone();
            let interval = config.interval_nanos;
            sampler_threads.push(
                std::thread::Builder::new()
                    .name("energymon-gpu".into())
                    .spawn(move || {
                        while !stop.load(Ordering::SeqCst) {
                            if !barrier.wait() {
                                break;
                            }
                            let t_k = clock.now_nanos();
                            clock.sleep_nanos(interval);
                            let gpu_j = source.sample_gpu(dt_secs).unwrap_or(0.0);
                            let fields = vec![(FIELD_GPU.to_string(), gpu_j)];
                            if tx.send((1, t_k, fields)).is_err() {
                                break;
                            }
                        }
                    })
                    .expect("spawn gpu sampler"),
            );
        }

        // Accumulator (Algorithm 1 line 14).
        let accumulator_thread = {
            let interval = config.interval_nanos;
            std::thread::Builder::new()
                .name("energymon-accumulator".into())
                .spawn(move || accumulator_loop(sample_rx, row_tx, parties, interval))
                .expect("spawn accumulator")
        };

        // Batch writer (Algorithm 1 line 15).
        let writer_thread = {
            let client = config.client.clone();
            let node_id = config.node_id.clone();
            let batch = config.batch_size.max(1);
            std::thread::Builder::new()
                .name("energymon-writer".into())
                .spawn(move || writer_loop(row_rx, client, node_id, batch))
                .expect("spawn writer")
        };

        EnergyMonitor {
            stop_flag,
            barrier,
            sampler_threads,
            accumulator_thread: Some(accumulator_thread),
            writer_thread: Some(writer_thread),
            sample_tx: Some(sample_tx),
        }
    }

    /// Stop sampling, flush every pending tuple to the TSDB, join all
    /// threads (Algorithm 1 line 17). Returns the number of points written.
    pub fn stop(mut self) -> u64 {
        self.stop_flag.store(true, Ordering::SeqCst);
        self.barrier.poison();
        for h in self.sampler_threads.drain(..) {
            let _ = h.join();
        }
        // Dropping the last sender disconnects the accumulator.
        self.sample_tx.take();
        if let Some(h) = self.accumulator_thread.take() {
            let _ = h.join();
        }
        self.writer_thread
            .take()
            .map(|h| h.join().unwrap_or(0))
            .unwrap_or(0)
    }
}

fn accumulator_loop(
    rx: Receiver<SamplerReading>,
    row_tx: Sender<MergedRow>,
    parties: usize,
    interval_nanos: u64,
) {
    let mut merger = StreamMerger::new(parties, interval_nanos);
    while let Ok((component, t, fields)) = rx.recv() {
        merger.push(component, t, fields);
        for row in merger.drain_ready() {
            if row_tx.send(row).is_err() {
                return;
            }
        }
    }
    for row in merger.finish() {
        if row_tx.send(row).is_err() {
            return;
        }
    }
}

fn writer_loop(
    rx: Receiver<MergedRow>,
    client: TsdbClient,
    node_id: String,
    batch_size: usize,
) -> u64 {
    let mut pending: Vec<Point> = Vec::with_capacity(batch_size);
    let mut written = 0u64;
    let flush = |pending: &mut Vec<Point>, written: &mut u64| {
        if !pending.is_empty() {
            client.write_points(pending);
            *written += pending.len() as u64;
            pending.clear();
        }
    };
    while let Ok(row) = rx.recv() {
        let mut p = Point::new(MEASUREMENT)
            .tag("node_id", &node_id)
            .at(row.t_nanos);
        for (name, value) in row.fields {
            p = p.field(&name, value);
        }
        pending.push(p);
        if pending.len() >= batch_size {
            flush(&mut pending, &mut written);
        }
    }
    flush(&mut pending, &mut written);
    written
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::{ComponentPower, ConstProbe, ModelPower, NodePower, Utilization};
    use emlio_tsdb::{Agg, Query};
    use emlio_util::clock::RealClock;

    fn test_source(gpu: bool) -> Arc<dyn PowerSource> {
        Arc::new(ModelPower::new(
            NodePower {
                cpu: ComponentPower::new(100.0, 200.0),
                dram: ComponentPower::new(10.0, 20.0),
                gpu: gpu.then(|| ComponentPower::new(50.0, 250.0)),
            },
            Arc::new(ConstProbe(Utilization {
                cpu: 0.5,
                dram: 0.5,
                gpu: 0.5,
            })),
        ))
    }

    #[test]
    fn end_to_end_monitor_with_gpu() {
        let client = TsdbClient::new();
        let monitor = EnergyMonitor::start(MonitorConfig {
            node_id: "compute-0".into(),
            interval_nanos: 5_000_000, // 5 ms for a fast test
            batch_size: 8,
            clock: RealClock::shared(),
            source: test_source(true),
            has_gpu: true,
            client: client.clone(),
        });
        std::thread::sleep(std::time::Duration::from_millis(120));
        let written = monitor.stop();
        assert!(written >= 10, "expected ≥10 samples, wrote {written}");
        assert_eq!(client.point_count() as u64, written);

        // Energies match the model: 150 W CPU × dt, 15 W DRAM, 150 W GPU.
        let q = Query::new(MEASUREMENT, FIELD_CPU).tag("node_id", "compute-0");
        let mean_cpu = client.aggregate(&q, Agg::Mean).unwrap();
        let expect = 150.0 * 0.005;
        assert!(
            (mean_cpu - expect).abs() < expect * 0.1,
            "mean cpu tuple {mean_cpu} vs expected {expect}"
        );
        let q_gpu = Query::new(MEASUREMENT, FIELD_GPU).tag("node_id", "compute-0");
        assert!(client.aggregate(&q_gpu, Agg::Count).unwrap() >= 10.0);
    }

    #[test]
    fn monitor_without_gpu_writes_no_gpu_field() {
        let client = TsdbClient::new();
        let monitor = EnergyMonitor::start(MonitorConfig {
            node_id: "storage-0".into(),
            interval_nanos: 5_000_000,
            batch_size: 4,
            clock: RealClock::shared(),
            source: test_source(false),
            has_gpu: false,
            client: client.clone(),
        });
        std::thread::sleep(std::time::Duration::from_millis(60));
        let written = monitor.stop();
        assert!(written >= 5);
        let q_gpu = Query::new(MEASUREMENT, FIELD_GPU).tag("node_id", "storage-0");
        assert_eq!(client.aggregate(&q_gpu, Agg::Count), None);
        let q_cpu = Query::new(MEASUREMENT, FIELD_CPU).tag("node_id", "storage-0");
        assert!(client.aggregate(&q_cpu, Agg::Count).unwrap() >= 5.0);
    }

    #[test]
    fn stop_is_prompt_and_flushes() {
        let client = TsdbClient::new();
        let monitor = EnergyMonitor::start(MonitorConfig {
            node_id: "n".into(),
            interval_nanos: 50_000_000, // long interval
            batch_size: 1000,           // batch never fills on its own
            clock: RealClock::shared(),
            source: test_source(true),
            has_gpu: true,
            client: client.clone(),
        });
        std::thread::sleep(std::time::Duration::from_millis(120));
        let t0 = std::time::Instant::now();
        let written = monitor.stop();
        assert!(
            t0.elapsed() < std::time::Duration::from_millis(500),
            "stop must not hang on the barrier"
        );
        assert!(written >= 1, "flush-on-stop must write pending rows");
        assert_eq!(client.point_count() as u64, written);
    }

    #[test]
    fn two_nodes_share_central_tsdb() {
        let central = TsdbClient::new();
        let monitors: Vec<_> = ["uc-compute", "tacc-storage"]
            .iter()
            .map(|node| {
                EnergyMonitor::start(MonitorConfig {
                    node_id: node.to_string(),
                    interval_nanos: 5_000_000,
                    batch_size: 4,
                    clock: RealClock::shared(),
                    source: test_source(false),
                    has_gpu: false,
                    client: central.clone(),
                })
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(60));
        for m in monitors {
            m.stop();
        }
        for node in ["uc-compute", "tacc-storage"] {
            let q = Query::new(MEASUREMENT, FIELD_CPU).tag("node_id", node);
            assert!(
                central.aggregate(&q, Agg::Count).unwrap() >= 3.0,
                "node {node} missing from central TSDB"
            );
        }
    }
}
