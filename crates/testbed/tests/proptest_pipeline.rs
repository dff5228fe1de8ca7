//! Property tests for the line recurrence: conservation, bottleneck bounds,
//! busy accounting and monotone exits under arbitrary stage configurations.

use emlio_testbed::pipeline::{exits, Stage};
use proptest::prelude::*;

fn servers(k: u32, service_nanos: u64) -> Stage {
    Stage {
        name: "s",
        servers: Some(k),
        service_nanos,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn conservation_and_bounds(
        stages in proptest::collection::vec((1u32..5, 1u64..200), 1..6),
        n in 1u64..120,
    ) {
        let line: Vec<Stage> = stages.iter().map(|&(k, s)| servers(k, s)).collect();
        let exits = exits(&line, n);

        // Conservation: every batch exits.
        prop_assert_eq!(exits.len() as u64, n);

        // Bottleneck lower bound: makespan ≥ max over stages of
        // (n · service / servers); upper bound: serial sum of everything.
        let makespan = *exits.last().unwrap();
        let lower = stages
            .iter()
            .map(|&(k, s)| (n * s).div_ceil(k as u64))
            .max()
            .unwrap();
        prop_assert!(makespan >= lower, "makespan {makespan} < bottleneck bound {lower}");
        let serial: u64 = stages.iter().map(|&(_, s)| s * n).sum();
        prop_assert!(makespan <= serial);

        // Busy accounting: each stage's busy time is exactly n · service.
        for stage in &line {
            let expect = (n * stage.service_nanos) as f64 / 1e9;
            prop_assert!((stage.busy_secs(n) - expect).abs() < 1e-9,
                "stage busy {} != {}", stage.busy_secs(n), expect);
        }
    }

    #[test]
    fn delay_stages_preserve_conservation(
        service in 1u64..100,
        delay in 1u64..10_000,
        n in 1u64..100,
    ) {
        let wire = Stage { name: "wire", servers: None, service_nanos: delay };
        let exits = exits(&[servers(1, service), wire, servers(1, service)], n);
        prop_assert_eq!(exits.len() as u64, n);
        // Everything exits no earlier than service + delay + service.
        for &exit in &exits {
            prop_assert!(exit >= 2 * service + delay);
        }
    }

    #[test]
    fn exit_times_monotone_for_single_server_chains(
        services in proptest::collection::vec(1u64..50, 1..4),
        n in 1u64..60,
    ) {
        // With one server per stage, batches leave in order.
        let line: Vec<Stage> = services.iter().map(|&s| servers(1, s)).collect();
        let exits = exits(&line, n);
        for w in exits.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
    }
}
