//! The Planner — Algorithm 2's "batch-aligned data-parallel planning".
//!
//! For every epoch the planner shuffles the shard list, assigns shards to
//! compute nodes (round-robin partition, or full coverage per node for the
//! sharded scenario), slices each shard into contiguous `B`-record batch
//! ranges, shuffles the *chunk order* for stochasticity (randomness without
//! giving up one-`pread`-per-batch contiguity — §2 technique (i)), and
//! splits each node's batch list across `T` sender threads.

use crate::config::{Coverage, EmlioConfig};
use emlio_tfrecord::GlobalIndex;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// One planned batch: a contiguous record range inside one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchRange {
    /// Unique within (epoch, node).
    pub batch_id: u64,
    /// Source shard.
    pub shard_id: u32,
    /// First record index (inclusive).
    pub start: usize,
    /// Last record index (exclusive).
    pub end: usize,
}

impl BatchRange {
    /// Number of records in the batch. Inverted ranges (`start > end`)
    /// never come out of the planner, but hand-built ones must degrade to
    /// an empty count rather than panic — matching [`Self::is_empty`].
    pub fn len(&self) -> usize {
        debug_assert!(
            self.start <= self.end,
            "inverted batch range [{}, {})",
            self.start,
            self.end
        );
        self.end.saturating_sub(self.start)
    }

    /// Whether the range is empty (never true for planner output).
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// One compute node's work for one epoch, pre-split across sender threads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodePlan {
    /// Destination node id.
    pub node_id: String,
    /// `T` disjoint batch lists, one per sender thread.
    pub thread_splits: Vec<Vec<BatchRange>>,
}

impl NodePlan {
    /// Total batches for this node this epoch.
    pub fn num_batches(&self) -> u64 {
        self.thread_splits.iter().map(|s| s.len() as u64).sum()
    }

    /// Iterate every batch across threads.
    pub fn all_batches(&self) -> impl Iterator<Item = &BatchRange> {
        self.thread_splits.iter().flatten()
    }

    /// Every batch ordered by `batch_id` — the planner's emission order,
    /// which the round-robin thread split means interleaved send workers
    /// approximately follow. This is the access sequence the shard cache's
    /// eviction order and prefetcher walk.
    pub fn batches_in_plan_order(&self) -> Vec<BatchRange> {
        let mut batches: Vec<BatchRange> = self.all_batches().copied().collect();
        batches.sort_unstable_by_key(|b| b.batch_id);
        batches
    }
}

/// One epoch of the plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochPlan {
    /// Epoch number.
    pub epoch: u32,
    /// Per-node assignments, keyed by node id.
    pub nodes: BTreeMap<String, NodePlan>,
}

/// The complete multi-epoch plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// One entry per epoch.
    pub epochs: Vec<EpochPlan>,
    /// Batch size the plan was built with.
    pub batch_size: usize,
}

impl Plan {
    /// Build a plan from shard metadata (Algorithm 2).
    ///
    /// # Panics
    /// Panics if `nodes` is empty or the index has no records.
    pub fn build(index: &GlobalIndex, nodes: &[String], config: &EmlioConfig) -> Plan {
        assert!(!nodes.is_empty(), "need at least one compute node");
        assert!(index.total_records() > 0, "dataset is empty");
        let mut epochs = Vec::with_capacity(config.epochs as usize);
        for epoch in 0..config.epochs {
            epochs.push(Self::build_epoch(index, nodes, config, epoch));
        }
        Plan {
            epochs,
            batch_size: config.batch_size,
        }
    }

    fn build_epoch(
        index: &GlobalIndex,
        nodes: &[String],
        config: &EmlioConfig,
        epoch: u32,
    ) -> EpochPlan {
        let mut rng = StdRng::seed_from_u64(config.seed ^ ((epoch as u64 + 1) * 0x9E37_79B9));

        // Line 4: shuffle shard list for the epoch.
        let mut shard_ids: Vec<u32> = (0..index.shards.len() as u32).collect();
        shard_ids.shuffle(&mut rng);

        // Line 5: assign shards to nodes.
        let mut per_node_shards: BTreeMap<&str, Vec<u32>> =
            nodes.iter().map(|n| (n.as_str(), Vec::new())).collect();
        match config.coverage {
            Coverage::Partition => {
                for (i, &sid) in shard_ids.iter().enumerate() {
                    per_node_shards
                        .get_mut(nodes[i % nodes.len()].as_str())
                        .unwrap()
                        .push(sid);
                }
            }
            Coverage::FullPerNode => {
                for n in nodes {
                    per_node_shards.insert(n.as_str(), shard_ids.clone());
                }
            }
        }

        // Slice shards into contiguous B-record chunks, shuffle chunk order,
        // number batches, split across T threads (lines 6–8).
        let mut node_plans = BTreeMap::new();
        for (node_id, shards) in per_node_shards {
            let mut batches: Vec<(u32, usize, usize)> = Vec::new();
            for &sid in &shards {
                let n = index.shards[sid as usize].records.len();
                let mut start = 0;
                while start < n {
                    let end = (start + config.batch_size).min(n);
                    batches.push((sid, start, end));
                    start = end;
                }
            }
            // Chunk-order shuffle: stochasticity with contiguous reads.
            batches.shuffle(&mut rng);
            let mut thread_splits = vec![Vec::new(); config.threads_per_node];
            for (i, (shard_id, start, end)) in batches.into_iter().enumerate() {
                thread_splits[i % config.threads_per_node].push(BatchRange {
                    batch_id: i as u64,
                    shard_id,
                    start,
                    end,
                });
            }
            node_plans.insert(
                node_id.to_string(),
                NodePlan {
                    node_id: node_id.to_string(),
                    thread_splits,
                },
            );
        }
        EpochPlan {
            epoch,
            nodes: node_plans,
        }
    }

    /// Batches a given node receives in a given epoch.
    pub fn batches_for(&self, epoch: u32, node_id: &str) -> u64 {
        self.epochs[epoch as usize]
            .nodes
            .get(node_id)
            .map_or(0, NodePlan::num_batches)
    }

    /// Collect the multiset of `(shard, record)` pairs a node covers in an
    /// epoch — used by correctness tests.
    pub fn coverage(&self, epoch: u32, node_id: &str) -> Vec<(u32, usize)> {
        let mut out = Vec::new();
        if let Some(np) = self.epochs[epoch as usize].nodes.get(node_id) {
            for b in np.all_batches() {
                for r in b.start..b.end {
                    out.push((b.shard_id, r));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emlio_tfrecord::{ShardSpec, ShardWriter};
    use emlio_util::testutil::TempDir;

    fn index_with(shards: u32, samples: usize) -> (TempDir, GlobalIndex) {
        let dir = TempDir::new("plan-test");
        let mut w = ShardWriter::create(dir.path(), ShardSpec::Count(shards)).unwrap();
        for i in 0..samples {
            w.append(&[0u8; 64], (i % 5) as u32).unwrap();
        }
        let idx = w.finish().unwrap();
        (dir, idx)
    }

    fn cfg(b: usize, t: usize) -> EmlioConfig {
        EmlioConfig::default()
            .with_batch_size(b)
            .with_threads(t)
            .with_epochs(3)
    }

    #[test]
    fn partition_coverage_is_exact_and_disjoint() {
        let (_d, idx) = index_with(6, 200);
        let nodes = vec!["n0".to_string(), "n1".to_string()];
        let plan = Plan::build(&idx, &nodes, &cfg(16, 2));
        for epoch in 0..3 {
            let mut all: Vec<(u32, usize)> = Vec::new();
            for n in &nodes {
                all.extend(plan.coverage(epoch, n));
            }
            all.sort_unstable();
            // Every record of every shard exactly once across nodes.
            let mut expected: Vec<(u32, usize)> = Vec::new();
            for (sid, s) in idx.shards.iter().enumerate() {
                for r in 0..s.records.len() {
                    expected.push((sid as u32, r));
                }
            }
            assert_eq!(all, expected, "epoch {epoch} partition coverage");
        }
    }

    #[test]
    fn full_per_node_coverage() {
        let (_d, idx) = index_with(4, 100);
        let nodes = vec!["a".to_string(), "b".to_string()];
        let plan = Plan::build(
            &idx,
            &nodes,
            &cfg(16, 2).with_coverage(Coverage::FullPerNode),
        );
        for n in &nodes {
            let mut cov = plan.coverage(0, n);
            cov.sort_unstable();
            assert_eq!(cov.len(), 100, "each node sees the full dataset");
        }
    }

    #[test]
    fn batch_sizes_respect_b() {
        let (_d, idx) = index_with(3, 100);
        let plan = Plan::build(&idx, &["n".to_string()], &cfg(16, 2));
        for b in plan.epochs[0].nodes["n"].all_batches() {
            assert!(b.len() <= 16 && !b.is_empty());
        }
        // ceil per shard: shards hold 34/33/33 records → 3+3+3 batches.
        assert_eq!(plan.batches_for(0, "n"), 9);
    }

    #[test]
    fn epochs_shuffle_differently() {
        let (_d, idx) = index_with(8, 400);
        let plan = Plan::build(&idx, &["n".to_string()], &cfg(16, 1));
        let order = |e: usize| -> Vec<(u32, usize)> {
            plan.epochs[e].nodes["n"].thread_splits[0]
                .iter()
                .map(|b| (b.shard_id, b.start))
                .collect()
        };
        assert_ne!(order(0), order(1), "epoch shuffles must differ");
        assert_ne!(order(1), order(2));
    }

    #[test]
    fn deterministic_given_seed() {
        let (_d, idx) = index_with(4, 120);
        let nodes = vec!["n".to_string()];
        let a = Plan::build(&idx, &nodes, &cfg(8, 3));
        let b = Plan::build(&idx, &nodes, &cfg(8, 3));
        assert_eq!(a, b);
        let c = Plan::build(&idx, &nodes, &cfg(8, 3).with_seed(99));
        assert_ne!(a, c);
    }

    #[test]
    fn thread_splits_are_balanced_and_disjoint() {
        let (_d, idx) = index_with(5, 333);
        let plan = Plan::build(&idx, &["n".to_string()], &cfg(10, 4));
        let np = &plan.epochs[0].nodes["n"];
        let sizes: Vec<usize> = np.thread_splits.iter().map(Vec::len).collect();
        let (min, max) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
        assert!(max - min <= 1, "round-robin balance: {sizes:?}");
        let mut ids: Vec<u64> = np.all_batches().map(|b| b.batch_id).collect();
        ids.sort_unstable();
        let n = ids.len() as u64;
        assert_eq!(ids, (0..n).collect::<Vec<_>>(), "batch ids dense");
    }

    #[test]
    fn plan_order_is_dense_by_batch_id() {
        let (_d, idx) = index_with(4, 120);
        let plan = Plan::build(&idx, &["n".to_string()], &cfg(10, 3));
        let ordered = plan.epochs[0].nodes["n"].batches_in_plan_order();
        let ids: Vec<u64> = ordered.iter().map(|b| b.batch_id).collect();
        assert_eq!(ids, (0..ids.len() as u64).collect::<Vec<_>>());
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn inverted_range_len_saturates_in_release() {
        let b = BatchRange {
            batch_id: 0,
            shard_id: 0,
            start: 5,
            end: 3,
        };
        assert_eq!(b.len(), 0);
        assert!(b.is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "inverted batch range")]
    fn inverted_range_len_asserts_in_debug() {
        let b = BatchRange {
            batch_id: 0,
            shard_id: 0,
            start: 5,
            end: 3,
        };
        let _ = b.len();
    }

    #[test]
    fn single_record_dataset() {
        let (_d, idx) = index_with(1, 1);
        let plan = Plan::build(&idx, &["n".to_string()], &cfg(64, 2));
        assert_eq!(plan.batches_for(0, "n"), 1);
        let records: usize = plan.epochs[0].nodes["n"]
            .all_batches()
            .map(|b| b.len())
            .sum();
        assert_eq!(records, 1);
    }

    #[test]
    fn more_nodes_than_shards_leaves_some_idle() {
        let (_d, idx) = index_with(2, 50);
        let nodes: Vec<String> = (0..4).map(|i| format!("n{i}")).collect();
        let plan = Plan::build(&idx, &nodes, &cfg(16, 1));
        let busy = nodes.iter().filter(|n| plan.batches_for(0, n) > 0).count();
        assert_eq!(busy, 2, "only as many nodes as shards get work");
        let total: u64 = nodes.iter().map(|n| plan.batches_for(0, n)).sum();
        assert_eq!(total, 4, "2 shards × 25 records / 16 → 2 batches each");
    }
}
