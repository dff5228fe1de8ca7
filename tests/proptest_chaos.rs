//! Property tests for the deterministic chaos layer: fault plans are pure
//! functions of `(seed, site, invocation)`, injectors replay them in
//! invocation order regardless of threading, retry backoff is a bounded
//! pure function of `(seed, salt, attempt)`, and a faulted-then-retried
//! read stack delivers exactly what the clean stack delivers.

use emlio::netem::FaultSource;
use emlio::tfrecord::{BlockKey, FnSource, RangeSource, RetrySource};
use emlio::util::fault::{site, FaultDecision, FaultInjector, FaultPlan, FaultSpec, RetryPolicy};
use proptest::prelude::*;
use std::io;
use std::sync::Arc;
use std::time::Duration;

/// Class tally of a decision sequence: `(none, errors, short_reads, lat)`.
fn tally(decisions: impl Iterator<Item = FaultDecision>) -> (u64, u64, u64, u64) {
    let mut t = (0, 0, 0, 0);
    for d in decisions {
        match d {
            FaultDecision::None => t.0 += 1,
            FaultDecision::Error => t.1 += 1,
            FaultDecision::ShortRead => t.2 += 1,
            FaultDecision::Latency(_) => t.3 += 1,
        }
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fault_decisions_are_pure_in_seed_site_and_invocation(
        seed in any::<u64>(), n in 0u64..4096, p in 0.0f64..1.0) {
        let a = FaultPlan::new(seed).with_site(site::SOURCE_READ, FaultSpec::errors(p));
        let b = FaultPlan::new(seed).with_site(site::SOURCE_READ, FaultSpec::errors(p));
        // Two identically-built plans agree; asking twice agrees.
        prop_assert_eq!(a.decide_at(site::SOURCE_READ, n), b.decide_at(site::SOURCE_READ, n));
        prop_assert_eq!(a.decide_at(site::SOURCE_READ, n), a.decide_at(site::SOURCE_READ, n));
        // An unregistered site never faults, whatever the seed.
        prop_assert_eq!(a.decide_at(site::PEER_FETCH, n), FaultDecision::None);
    }

    #[test]
    fn injector_replays_the_plan_in_invocation_order(
        seed in any::<u64>(), p in 0.0f64..1.0, calls in 1u64..256) {
        let plan = FaultPlan::new(seed)
            .with_site(site::NFS_READ, FaultSpec::errors(p).with_latency(0.1, Duration::ZERO));
        let inj = FaultInjector::new(plan.clone());
        for n in 0..calls {
            prop_assert_eq!(inj.decide(site::NFS_READ), plan.decide_at(site::NFS_READ, n),
                "invocation {} of seed {:#x}", n, seed);
        }
        prop_assert_eq!(inj.invocations(site::NFS_READ), calls);
    }

    #[test]
    fn threaded_injection_preserves_the_decision_multiset(
        seed in any::<u64>(), p in 0.05f64..0.95, per_thread in 1u64..64) {
        // Invocation numbers are handed out atomically, so however four
        // threads interleave, the multiset of decisions equals the
        // sequential replay of the plan over the same invocation range.
        const THREADS: u64 = 4;
        let plan = FaultPlan::new(seed).with_site(site::SPILL_WRITE, FaultSpec::errors(p));
        let inj = FaultInjector::new(plan.clone());
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let inj = inj.clone();
                std::thread::spawn(move || {
                    (0..per_thread).map(|_| inj.decide(site::SPILL_WRITE)).collect::<Vec<_>>()
                })
            })
            .collect();
        let mut observed = Vec::new();
        for h in handles {
            observed.extend(h.join().expect("injection thread"));
        }
        let expected =
            tally((0..THREADS * per_thread).map(|n| plan.decide_at(site::SPILL_WRITE, n)));
        prop_assert_eq!(tally(observed.into_iter()), expected);
        prop_assert_eq!(inj.invocations(site::SPILL_WRITE), THREADS * per_thread);
        prop_assert_eq!(inj.stats().errors, expected.1);
    }

    #[test]
    fn backoff_is_deterministic_and_bounded(
        seed in any::<u64>(), salt in any::<u64>(), attempt in 0u32..12,
        base_us in 1u64..2000) {
        let base = Duration::from_micros(base_us);
        let a = RetryPolicy::new(8, base).with_seed(seed);
        let b = RetryPolicy::new(8, base).with_seed(seed);
        let backoff = a.backoff(attempt, salt);
        // Pure in (seed, salt, attempt).
        prop_assert_eq!(backoff, b.backoff(attempt, salt));
        // Bounded: within [exp/2, exp] for the capped exponential, never
        // zero for a nonzero base.
        let exp = base.saturating_mul(1u32 << attempt.min(31)).min(a.max);
        prop_assert!(backoff >= exp / 2, "{:?} >= {:?}", backoff, exp / 2);
        prop_assert!(backoff <= exp, "{:?} <= {:?}", backoff, exp);
        prop_assert!(!backoff.is_zero());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn faulted_then_retried_reads_match_clean_reads(
        seed in any::<u64>(), p in 0.0f64..0.5, blocks in 1usize..24) {
        // The seam the daemon stack relies on: retry over fault over a
        // deterministic root must be observationally identical to the
        // clean root for transient-error-only plans within budget. A
        // 64-deep budget against p <= 0.5 cannot plausibly exhaust
        // (p^65 per read), and a zero base keeps the backoffs sleepless.
        let payload = |k: &BlockKey| vec![(k.shard_id as u8) ^ (k.start as u8); k.end - k.start];
        let clean = FnSource::new(move |k: &BlockKey| Ok::<_, io::Error>(payload(k)));
        let faulted: Arc<dyn RangeSource> = Arc::new(FaultSource::new(
            Arc::new(FnSource::new(move |k: &BlockKey| Ok::<_, io::Error>(payload(k)))),
            FaultInjector::new(
                FaultPlan::new(seed).with_site(site::SOURCE_READ, FaultSpec::errors(p)),
            ),
        ));
        let retried = RetrySource::new(faulted, RetryPolicy::new(64, Duration::ZERO));
        for i in 0..blocks {
            let key = BlockKey { shard_id: (i % 3) as u32, start: i * 8, end: i * 8 + 8 };
            let want = clean.read_block(&key).unwrap();
            let got = retried.read_block(&key).unwrap();
            prop_assert_eq!(&got.data[..], &want.data[..],
                "block {:?} diverged under seed {:#x}", key, seed);
        }
        prop_assert_eq!(retried.stats().snapshot().giveups, 0);
    }
}
