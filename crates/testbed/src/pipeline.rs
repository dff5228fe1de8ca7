//! A loader model's line of stages, timed by recurrence.
//!
//! Every loader model is a line of stages. A stage has `k` parallel
//! servers, or unlimited ones for a pure delay, and one constant service
//! time `S`; every batch of the epoch is ready at t = 0. Batches then
//! leave each stage in batch order, and batch `i` leaves stage `j` at
//!
//! ```text
//! exit_j(i) = max(exit_{j−1}(i), exit_j(i − k_j)) + S_j
//! ```
//!
//! once it has left the previous stage and the server it needs has
//! finished the batch `k_j` places ahead of it (a delay stage adds `S_j`).
//! There are no queues between stages and nothing blocks a server, so a
//! loader's HWM and the RTT act on its line only through the service times
//! [`crate::loaders`] derives from them.

/// One stage of a line.
#[derive(Debug, Clone, Copy)]
pub struct Stage {
    /// Stage name.
    pub name: &'static str,
    /// Parallel servers; `None` is a pure delay (unlimited servers).
    pub servers: Option<u32>,
    /// Service time per batch, nanoseconds.
    pub service_nanos: u64,
}

impl Stage {
    /// Server-seconds the stage is busy serving `batches` batches.
    pub fn busy_secs(&self, batches: u64) -> f64 {
        emlio_util::nanos_to_secs(batches * self.service_nanos)
    }
}

/// When each of `batches` batches, all ready at t = 0, leaves the last of
/// `stages`, in nanoseconds and batch order: the last exit is the makespan.
///
/// # Panics
/// Panics on an empty line: no loader model has one.
pub fn exits(stages: &[Stage], batches: u64) -> Vec<u64> {
    assert!(!stages.is_empty(), "a line needs at least one stage");
    let mut exit = vec![0; batches as usize];
    for stage in stages {
        let k = stage.servers.map_or(usize::MAX, |k| k as usize);
        for i in 0..exit.len() {
            let server_free = i.checked_sub(k).map_or(0, |ahead| exit[ahead]);
            exit[i] = exit[i].max(server_free) + stage.service_nanos;
        }
    }
    exit
}

#[cfg(test)]
mod tests {
    use super::*;

    fn servers(k: u32, service_nanos: u64) -> Stage {
        Stage {
            name: "s",
            servers: Some(k),
            service_nanos,
        }
    }

    /// One stage, one server, fixed 10 ns service: makespan = n * 10.
    #[test]
    fn single_server_serializes() {
        let line = [servers(1, 10)];
        assert_eq!(exits(&line, 100).last(), Some(&1000));
        assert!((line[0].busy_secs(100) - 1e-6).abs() < 1e-12);
    }

    /// k servers divide the work: makespan = ceil(n/k) * service.
    #[test]
    fn parallel_servers_scale() {
        let e = exits(&[servers(4, 100)], 10);
        assert_eq!(e.last(), Some(&300), "ceil(10/4)=3 waves of 100ns");
    }

    /// Two stages: throughput set by the bottleneck, pipeline overlaps.
    #[test]
    fn bottleneck_dominates() {
        let e = exits(&[servers(1, 10), servers(1, 50)], 100);
        // The first batch fills the line in 10 ns; then one exit per 50 ns.
        assert_eq!(e.last(), Some(&(10 + 100 * 50)));
    }

    /// Behind a fast producer, exits are spaced by the consumer's service.
    #[test]
    fn exit_spacing_is_the_consumer_service_time() {
        let e = exits(&[servers(1, 1), servers(1, 100)], 50);
        for w in e.windows(2) {
            assert_eq!(w[1] - w[0], 100);
        }
    }

    /// A pure-delay stage shifts times without limiting throughput.
    #[test]
    fn infinite_delay_stage_pipelines() {
        let wire = Stage {
            name: "wire",
            servers: None,
            service_nanos: 1_000,
        };
        let e = exits(&[servers(1, 10), wire], 20);
        // Last batch emitted at 200, arrives at 1200. If the wire were a
        // single server, makespan would be ≥ 20 * 1000.
        assert_eq!(e.last(), Some(&(20 * 10 + 1_000)));
    }

    /// FIFO order is preserved through a single-server chain: exits rise
    /// with the batch index.
    #[test]
    fn fifo_order_preserved() {
        let e = exits(&[servers(1, 7), servers(1, 11), servers(1, 5)], 30);
        assert!(e.windows(2).all(|w| w[0] < w[1]), "{e:?}");
    }

    #[test]
    #[should_panic]
    fn empty_pipeline_panics() {
        exits(&[], 1);
    }
}
