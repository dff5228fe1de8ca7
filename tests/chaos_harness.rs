//! The chaos acceptance suite: ≥20 seeded fault schedules across every
//! serve-path configuration, each asserting the delivery guarantee —
//! byte-identical delivery or a detectable error, never silent
//! corruption, and zero lost or duplicated batches across daemon
//! kill/restart mid-epoch.
//!
//! Every schedule is a pure function of its seed; on failure the seed is
//! in the error message, and `emlio chaos --seed <hex> --config <mode>`
//! replays the exact same fault plan and kill points.

use emlio::bench::chaos::{suite_seed, ChaosConfig, ChaosMode, ChaosOutcome, Verdict};

const BASE_SEED: u64 = 0x000C_4A05; // same default as `emlio chaos`
const SEEDS_PER_MODE: u64 = 7; // 7 × 4 modes = 28 schedules

fn run_suite() -> Vec<ChaosOutcome> {
    let mut outcomes = Vec::new();
    for i in 0..SEEDS_PER_MODE {
        let seed = suite_seed(BASE_SEED, i);
        for mode in ChaosMode::ALL {
            let cfg = ChaosConfig::new(seed, mode);
            match emlio::bench::chaos::run_schedule(&cfg) {
                Ok(outcome) => outcomes.push(outcome),
                Err(e) => panic!(
                    "chaos schedule violated the delivery guarantee: {e}\n\
                     replay: emlio chaos --seed {seed:#x} --config {mode}"
                ),
            }
        }
    }
    outcomes
}

#[test]
fn seeded_schedules_over_every_config_uphold_the_delivery_guarantee() {
    let outcomes = run_suite();
    assert_eq!(
        outcomes.len(),
        SEEDS_PER_MODE as usize * ChaosMode::ALL.len()
    );

    // Per-run invariants on top of the oracle inside run_schedule. (A
    // clean run MAY carry retry give-ups: the prefetcher is allowed to
    // exhaust a budget and leave the block to the demand path, which
    // retries afresh — the fingerprint oracle is the delivery guarantee.)
    for o in &outcomes {
        if o.verdict == Verdict::Clean {
            assert!(
                o.batches_delivered > 0,
                "seed {:#x} {}: clean run delivered nothing",
                o.seed,
                o.mode
            );
        }
        println!("{o}");
    }

    // Aggregate: the suite must actually exercise the machinery it claims
    // to test. Faults are injected on every schedule; kills and absorbed
    // retries must appear somewhere across the suite.
    let faults: u64 = outcomes.iter().map(|o| o.injected_total()).sum();
    let kills: u64 = outcomes.iter().map(|o| o.kills).sum();
    let restarts: u64 = outcomes.iter().map(|o| u64::from(o.restarts)).sum();
    let retries: u64 = outcomes.iter().map(|o| o.io_retries).sum();
    let clean = outcomes
        .iter()
        .filter(|o| o.verdict == Verdict::Clean)
        .count();
    assert!(faults > 0, "suite injected no faults at all");
    assert!(kills > 0, "suite never killed a daemon mid-stream");
    assert!(restarts > 0, "suite never exercised a restart");
    assert!(retries > 0, "suite never exercised the retry path");
    assert!(
        clean > 0,
        "every schedule errored — retry budgets absorb nothing"
    );
}
