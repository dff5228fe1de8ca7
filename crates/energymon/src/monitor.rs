//! Algorithm 1 as one thread: each tick reads every component's counters
//! once and writes one tuple charged with the interval it measured.

use crate::power::ModelPower;
use crate::{FIELD_CPU, FIELD_GPU, FIELD_MEM, MEASUREMENT};
use emlio_tsdb::{Point, TsdbClient};
use emlio_util::clock::SharedClock;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Configuration for one node's monitor.
pub struct MonitorConfig {
    /// Node id tag written with every tuple.
    pub node_id: String,
    /// Sampling interval δ (the paper uses 100 ms).
    pub interval_nanos: u64,
    /// Flush threshold `N`: tuples are written in batches of this many.
    pub batch_size: usize,
    /// The process clock the tuples are stamped with (NTP stand-in).
    pub clock: SharedClock,
    /// The node's energy counters.
    pub source: Arc<ModelPower>,
    /// Whether tuples carry the GPU field.
    pub has_gpu: bool,
    /// Destination TSDB.
    pub client: TsdbClient,
}

/// A running per-node energy monitor. Create with [`EnergyMonitor::start`],
/// terminate with [`EnergyMonitor::stop`] (which flushes all pending tuples).
pub struct EnergyMonitor {
    stop_flag: Arc<AtomicBool>,
    thread: JoinHandle<u64>,
}

impl EnergyMonitor {
    /// Launch the monitor thread (Algorithm 1 lines 1–2).
    pub fn start(config: MonitorConfig) -> EnergyMonitor {
        let stop_flag = Arc::new(AtomicBool::new(false));
        let stop = stop_flag.clone();
        let thread = std::thread::Builder::new()
            .name("energymon".into())
            .spawn(move || run(config, &stop))
            .expect("spawn energy monitor");
        EnergyMonitor { stop_flag, thread }
    }

    /// Stop sampling after the current tick, flush every pending tuple to
    /// the TSDB and join the thread (Algorithm 1 line 17). Waits at most
    /// one δ. Returns the number of points written.
    pub fn stop(self) -> u64 {
        self.stop_flag.store(true, Ordering::SeqCst);
        self.thread.join().unwrap_or(0)
    }
}

/// The sampling loop (Algorithm 1 lines 3–16). The tuple stamped `t_k`
/// carries the joules of `[t_k, t_next)`, so consecutive tuples tile the
/// timeline with no hole to interpolate.
fn run(config: MonitorConfig, stop: &AtomicBool) -> u64 {
    let MonitorConfig {
        node_id,
        interval_nanos,
        batch_size,
        clock,
        source,
        has_gpu,
        client,
    } = config;
    let batch_size = batch_size.max(1);
    let mut pending: Vec<Point> = Vec::with_capacity(batch_size);
    let mut written = 0u64;
    let mut flush = |pending: &mut Vec<Point>| {
        client.write_points(pending);
        written += pending.len() as u64;
        pending.clear();
    };
    let mut t_k = clock.now_nanos();
    while !stop.load(Ordering::SeqCst) {
        clock.sleep_nanos((t_k + interval_nanos).saturating_sub(clock.now_nanos()));
        let t_next = clock.now_nanos();
        let j = source.sample(t_next.saturating_sub(t_k) as f64 / 1e9);
        let mut p = Point::new(MEASUREMENT)
            .tag("node_id", &node_id)
            .field(FIELD_CPU, j.cpu)
            .field(FIELD_MEM, j.dram)
            .at(t_k);
        if has_gpu {
            p = p.field(FIELD_GPU, j.gpu.unwrap_or(0.0));
        }
        pending.push(p);
        if pending.len() >= batch_size {
            flush(&mut pending);
        }
        t_k = t_next;
    }
    flush(&mut pending);
    written
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::{ComponentPower, ConstProbe, NodePower, UtilProbe, Utilization};
    use emlio_tsdb::Query;
    use emlio_util::clock::RealClock;
    use std::sync::atomic::AtomicU64;

    const HALF: Utilization = Utilization {
        cpu: 0.5,
        dram: 0.5,
        gpu: 0.5,
    };

    fn source(gpu: bool, probe: Arc<dyn UtilProbe>) -> Arc<ModelPower> {
        Arc::new(ModelPower::new(
            NodePower {
                cpu: ComponentPower::new(100.0, 200.0),
                dram: ComponentPower::new(10.0, 20.0),
                gpu: gpu.then(|| ComponentPower::new(50.0, 250.0)),
            },
            probe,
        ))
    }

    fn start_with(
        node: &str,
        interval_nanos: u64,
        batch_size: usize,
        has_gpu: bool,
        probe: Arc<dyn UtilProbe>,
    ) -> (EnergyMonitor, TsdbClient) {
        let client = TsdbClient::new();
        let monitor = EnergyMonitor::start(MonitorConfig {
            node_id: node.into(),
            interval_nanos,
            batch_size,
            clock: RealClock::shared(),
            source: source(has_gpu, probe),
            has_gpu,
            client: client.clone(),
        });
        (monitor, client)
    }

    fn points(client: &TsdbClient, node: &str, field: &str) -> Vec<(u64, f64)> {
        client.points(&Query::new(MEASUREMENT, field).tag("node_id", node))
    }

    /// Watts each tuple but the last implies: its joules over the gap to
    /// the next stamp.
    fn watts(pts: &[(u64, f64)]) -> Vec<f64> {
        pts.windows(2)
            .map(|w| w[0].1 / ((w[1].0 - w[0].0) as f64 / 1e9))
            .collect()
    }

    #[test]
    fn end_to_end_monitor_with_gpu() {
        // 5 ms for a fast test.
        let (monitor, client) =
            start_with("compute-0", 5_000_000, 8, true, Arc::new(ConstProbe(HALF)));
        std::thread::sleep(std::time::Duration::from_millis(120));
        let written = monitor.stop();
        assert!(written >= 10, "expected ≥10 samples, wrote {written}");
        assert_eq!(client.point_count() as u64, written);

        // Energies match the model over the interval each tuple covers:
        // 150 W CPU, 15 W DRAM, 150 W GPU.
        for (field, expect) in [(FIELD_CPU, 150.0), (FIELD_MEM, 15.0), (FIELD_GPU, 150.0)] {
            let pts = points(&client, "compute-0", field);
            assert_eq!(pts.len() as u64, written, "{field} in every tuple");
            for w in watts(&pts) {
                assert!((w - expect).abs() < 1e-6, "{field}: {w} W vs {expect} W");
            }
        }
    }

    #[test]
    fn monitor_without_gpu_writes_no_gpu_field() {
        let (monitor, client) =
            start_with("storage-0", 5_000_000, 4, false, Arc::new(ConstProbe(HALF)));
        std::thread::sleep(std::time::Duration::from_millis(60));
        let written = monitor.stop();
        assert!(written >= 5);
        assert!(points(&client, "storage-0", FIELD_GPU).is_empty());
        assert_eq!(
            points(&client, "storage-0", FIELD_CPU).len() as u64,
            written
        );
    }

    #[test]
    fn stop_is_prompt_and_flushes() {
        let (monitor, client) = start_with(
            "n",
            50_000_000, // long interval
            1000,       // batch never fills on its own
            true,
            Arc::new(ConstProbe(HALF)),
        );
        std::thread::sleep(std::time::Duration::from_millis(120));
        let t0 = std::time::Instant::now();
        let written = monitor.stop();
        assert!(
            t0.elapsed() < std::time::Duration::from_millis(500),
            "stop must wait at most one interval"
        );
        assert!(written >= 1, "flush-on-stop must write pending tuples");
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
                    source: source(false, Arc::new(ConstProbe(HALF))),
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
            assert!(
                points(&central, node, FIELD_CPU).len() >= 3,
                "node {node} missing from central TSDB"
            );
        }
    }

    /// Counts its reads; a since-last-read probe (`AcceleratorProbe`,
    /// `ProcStatProbe`) would see an empty interval on any second read.
    struct CountingProbe(AtomicU64);

    impl UtilProbe for CountingProbe {
        fn utilization(&self) -> Utilization {
            self.0.fetch_add(1, Ordering::SeqCst);
            HALF
        }
    }

    #[test]
    fn each_tick_reads_the_probe_once() {
        let probe = Arc::new(CountingProbe(AtomicU64::new(0)));
        let (monitor, client) = start_with("gpu-node", 2_000_000, 8, true, probe.clone());
        std::thread::sleep(std::time::Duration::from_millis(60));
        let written = monitor.stop();
        assert!(written >= 5, "wrote {written}");
        assert_eq!(client.point_count() as u64, written);
        assert_eq!(
            probe.0.load(Ordering::SeqCst),
            written,
            "one read per tuple"
        );
    }

    /// A counter read that blocks for 2 ms, as `perf stat` and NVML reads do.
    struct SlowIdleProbe;

    impl UtilProbe for SlowIdleProbe {
        fn utilization(&self) -> Utilization {
            std::thread::sleep(std::time::Duration::from_millis(2));
            Utilization::default()
        }
    }

    #[test]
    fn tuples_tile_the_interval_they_measure() {
        let (monitor, client) = start_with("n", 4_000_000, 4, false, Arc::new(SlowIdleProbe));
        std::thread::sleep(std::time::Duration::from_millis(80));
        monitor.stop();
        let cpu = points(&client, "n", FIELD_CPU);
        let mem = points(&client, "n", FIELD_MEM);
        assert!(cpu.len() >= 5, "wrote {}", cpu.len());
        assert!(cpu.windows(2).all(|w| w[0].0 < w[1].0), "stamps increase");
        // Every tuple but the last covers the gap to the next stamp: idle
        // 100 W CPU + 10 W DRAM over the span, with nothing lost to the
        // counter read.
        let joules: f64 = cpu
            .iter()
            .zip(&mem)
            .rev()
            .skip(1)
            .map(|(c, m)| c.1 + m.1)
            .sum();
        let span = (cpu.last().unwrap().0 - cpu[0].0) as f64 / 1e9;
        assert!(
            (joules - 110.0 * span).abs() < 1e-6,
            "{joules} J over {span} s"
        );
    }
}
