//! Scenario 2 (§5.2): fully sharded data, no central storage.
//!
//! Two "compute nodes" each hold half the dataset locally. Each node runs an
//! EMLIO daemon over its own shard *and* a receiver; both daemons stream to
//! both receivers with `Coverage::FullPerNode`, so every node processes the
//! complete dataset each epoch — half arriving from local disk via loopback,
//! half from its peer — while SGD coverage is preserved.
//!
//! Run with: `cargo run --release --example sharded_cluster`

use emlio::core::plan::Plan;
use emlio::core::receiver::{EmlioReceiver, ReceiverConfig};
use emlio::core::{Coverage, EmlioConfig, EmlioDaemon};
use emlio::datagen::convert::build_tfrecord_dataset;
use emlio::datagen::DatasetSpec;
use emlio::pipeline::{ExternalSource, PipelineBuilder};
use emlio::tfrecord::ShardSpec;
use std::collections::HashSet;

const NODES: usize = 2;
const SAMPLES_PER_NODE: u64 = 64;

fn main() {
    let root = std::env::temp_dir().join(format!("emlio-sharded-{}", std::process::id()));
    let config = EmlioConfig::default()
        .with_batch_size(16)
        .with_threads(2)
        .with_epochs(1)
        .with_coverage(Coverage::FullPerNode);

    // Each node holds its own distinct half of the data.
    let mut dirs = Vec::new();
    for node in 0..NODES {
        let spec = DatasetSpec::tiny(&format!("shard{node}"), SAMPLES_PER_NODE);
        let dir = root.join(format!("node{node}"));
        build_tfrecord_dataset(&dir, &spec, ShardSpec::Count(2)).unwrap();
        dirs.push(dir);
    }

    // One receiver per node; every daemon streams to every receiver.
    let node_ids: Vec<String> = (0..NODES).map(|i| format!("node{i}")).collect();
    let expected_streams = (NODES * config.threads_per_node) as u32;
    let receivers: Vec<EmlioReceiver> = (0..NODES)
        .map(|_| EmlioReceiver::bind(ReceiverConfig::loopback(expected_streams)).unwrap())
        .collect();
    let endpoints: Vec<_> = receivers.iter().map(|r| r.endpoint().clone()).collect();

    let mut daemon_threads = Vec::new();
    for (node, dir) in dirs.iter().enumerate() {
        let daemon = EmlioDaemon::open(&format!("daemon{node}"), dir, config.clone()).unwrap();
        let plan = Plan::build(daemon.index(), &node_ids, &config);
        for (dest, ep) in node_ids.iter().zip(&endpoints) {
            let daemon_dir = dir.clone();
            let cfg = config.clone();
            let plan = plan.clone();
            let dest = dest.clone();
            let ep = ep.clone();
            let id = format!("daemon{node}");
            daemon_threads.push(std::thread::spawn(move || {
                // Each (daemon, destination) pair gets its own streams.
                let d = EmlioDaemon::open(&id, &daemon_dir, cfg).unwrap();
                d.serve(&plan, &dest, &ep).unwrap();
            }));
        }
    }

    // Every node consumes: must see the full dataset (both halves).
    let consumers: Vec<_> = receivers
        .into_iter()
        .enumerate()
        .map(|(node, receiver)| {
            std::thread::spawn(move || {
                let mut src = receiver.source();
                let mut seen = HashSet::new();
                let mut origins = HashSet::new();
                while let Some(batch) = src.next_batch() {
                    for s in &batch.samples {
                        // Sample ids collide across the two generated halves
                        // (each half numbers its own records), so distinct
                        // samples are identified by their full payload.
                        seen.insert(s.bytes.to_vec());
                    }
                    origins.insert(batch.batch_id % 2);
                }
                drop(receiver);
                (node, seen.len())
            })
        })
        .collect();

    for h in daemon_threads {
        h.join().unwrap();
    }
    for c in consumers {
        let (node, distinct) = c.join().unwrap();
        println!(
            "node{node}: consumed {} distinct samples (expected {})",
            distinct,
            SAMPLES_PER_NODE * NODES as u64,
        );
        assert_eq!(distinct as u64, SAMPLES_PER_NODE * NODES as u64);
    }
    println!("sharded scenario complete: every node processed the full dataset");

    // Also demonstrate the preprocessing path on one more pass.
    let spec = DatasetSpec::tiny("shard0", SAMPLES_PER_NODE);
    let receiver =
        EmlioReceiver::bind(ReceiverConfig::loopback(config.threads_per_node as u32)).unwrap();
    let ep = receiver.endpoint().clone();
    let dir0 = dirs[0].clone();
    let cfg = config.clone();
    let serve = std::thread::spawn(move || {
        let d = EmlioDaemon::open("daemon0", &dir0, cfg.clone()).unwrap();
        let plan = Plan::build(d.index(), &["solo".to_string()], &cfg);
        d.serve(&plan, "solo", &ep).unwrap();
    });
    let pipe = PipelineBuilder::new()
        .threads(2)
        .resize(32, 32)
        .build(Box::new(receiver.source()));
    let mut samples = 0;
    while let Some(b) = pipe.next_batch() {
        samples += b.tensors.len() as u64;
    }
    serve.join().unwrap();
    assert_eq!(samples, spec.num_samples);
    println!("preprocessing pass decoded {samples} tensors");
    let _ = std::fs::remove_dir_all(&root);
}
