//! Smoke coverage over the complete experiment matrix: every figure runner
//! produces a full grid of rows, energies are self-consistent, the
//! paper's headline claims hold in the reproduction, and `emlio figures`
//! writes exactly the numbers checked in under `tests/data/figures/`.

use emlio::testbed::experiment;
use emlio::testbed::paper;
use emlio::testbed::report;
use emlio::util::testutil::TempDir;
use std::path::Path;

/// Every CSV `emlio figures` writes is byte-identical to its checked-in
/// copy, and it writes no other: a change to the model's numbers shows up
/// here as a diff, not as a band that still holds.
#[test]
fn every_figure_csv_matches_its_checked_in_copy() {
    let dir = TempDir::new("figures-golden");
    let run = std::process::Command::new(env!("CARGO_BIN_EXE_emlio"))
        .arg("figures")
        .current_dir(dir.path())
        .output()
        .expect("run emlio figures");
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let names = |d: &Path| {
        let mut v: Vec<String> = std::fs::read_dir(d)
            .unwrap_or_else(|e| panic!("{}: {e}", d.display()))
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        v.sort();
        v
    };
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/figures");
    let written = dir.path().join("target/experiments");
    assert_eq!(names(&written), names(&golden));
    for name in names(&golden) {
        let ours = std::fs::read_to_string(written.join(&name)).unwrap();
        let theirs = std::fs::read_to_string(golden.join(&name)).unwrap();
        assert!(
            ours == theirs,
            "{name} differs from tests/data/figures/{name}"
        );
    }
}

#[test]
fn all_figures_produce_full_grids() {
    let checks: [(&str, Vec<experiment::ExperimentRow>, usize); 7] = [
        ("fig1", experiment::fig1(), 12),
        ("fig5", experiment::fig5(), 12),
        ("fig6", experiment::fig6(), 6),
        ("fig7", experiment::fig7(), 8),
        ("fig8", experiment::fig8(), 4),
        ("fig9", experiment::fig9(), 6),
        ("fig10", experiment::fig10(), 6),
    ];
    for (name, rows, expect) in checks {
        assert_eq!(rows.len(), expect, "{name} grid size");
        for r in &rows {
            assert!(
                r.duration_secs.is_finite() && r.duration_secs > 0.0,
                "{name}/{}/{} duration",
                r.regime,
                r.method
            );
            // Energy sanity: total ≥ idle floor of compute node over the run
            // (CPU 40 W + DRAM 6 W + GPU 25 W).
            let idle_floor = 71.0 * r.duration_secs * 0.99;
            assert!(
                r.compute.total_j() >= idle_floor,
                "{name}/{}/{}: energy {} below idle floor {}",
                r.regime,
                r.method,
                r.compute.total_j(),
                idle_floor
            );
        }
    }
}

#[test]
fn reproduction_within_factor_two_of_every_quoted_duration() {
    // For every *quoted* (non-approximate) paper number, the reproduction
    // lands within 2× — the shape-holds criterion, enforced.
    let mut rows = experiment::fig5();
    rows.extend(experiment::fig9());
    rows.extend(experiment::fig10());
    let mut checked = 0;
    for r in &rows {
        if let Some(p) = paper::reference(&r.figure, &r.regime, &r.method) {
            if p.approx {
                continue;
            }
            if let Some(pd) = p.duration_secs {
                let ratio = r.duration_secs / pd;
                assert!(
                    (0.5..=2.0).contains(&ratio),
                    "{}/{}/{}: {:.1}s vs paper {:.1}s (ratio {ratio:.2})",
                    r.figure,
                    r.regime,
                    r.method,
                    r.duration_secs,
                    pd
                );
                checked += 1;
            }
        }
    }
    assert!(
        checked >= 20,
        "expected ≥20 quoted comparisons, got {checked}"
    );
}

#[test]
fn rendering_works_for_every_figure() {
    for rows in [experiment::fig5(), experiment::fig10()] {
        let table = report::render_table("t", &rows);
        assert!(table.lines().count() >= rows.len() + 2);
        let csv = report::to_csv(&rows);
        assert_eq!(csv.lines().count(), rows.len() + 1);
    }
}

#[test]
fn headline_claims_hold() {
    let rows = experiment::fig5();
    let at = |rg: &str, m: &str| {
        rows.iter()
            .find(|r| r.regime == rg && r.method.starts_with(m))
            .unwrap()
    };
    // "up to 8.6× faster I/O and 10.9× lower energy" / Fig-5 WAN ratios.
    let speedup_dali = at("30ms", "dali").duration_secs / at("30ms", "emlio").duration_secs;
    let speedup_pt = at("30ms", "pytorch").duration_secs / at("30ms", "emlio").duration_secs;
    assert!(speedup_dali > 8.0, "vs DALI: {speedup_dali:.1}x");
    assert!(speedup_pt > 20.0, "vs PyTorch: {speedup_pt:.1}x");
    let energy_ratio = at("30ms", "pytorch").total_j() / at("30ms", "emlio").total_j();
    assert!(energy_ratio > 8.0, "energy ratio {energy_ratio:.1}x");
    // "maintaining constant performance irrespective of network distance".
    let e_span: Vec<f64> = ["local", "0.1ms", "10ms", "30ms"]
        .iter()
        .map(|rg| at(rg, "emlio").duration_secs)
        .collect();
    let (min, max) = (
        e_span.iter().cloned().fold(f64::INFINITY, f64::min),
        e_span.iter().cloned().fold(0.0, f64::max),
    );
    assert!((max - min) / min < 0.05, "EMLIO ±5%: {e_span:?}");
}

/// `emlio figures` runs rows of one table: its names are unique, and every
/// figure the CLI's help offers is a row of it.
#[test]
fn emlio_figures_runs_rows_of_the_one_table() {
    let names: Vec<&str> = emlio::bench::FIGURES
        .iter()
        .map(|(name, _)| *name)
        .collect();
    let unique: std::collections::HashSet<&str> = names.iter().copied().collect();
    assert_eq!(unique.len(), names.len(), "duplicate row in {names:?}");

    let help = std::process::Command::new(env!("CARGO_BIN_EXE_emlio"))
        .arg("help")
        .output()
        .expect("run emlio help");
    assert!(help.status.success());
    let help = String::from_utf8(help.stdout).unwrap();
    let line = help
        .lines()
        .find(|l| l.trim_start().starts_with("emlio figures"))
        .expect("help has a figures line");
    let listed = line
        .split_once('[')
        .and_then(|(_, rest)| rest.split_once(']'))
        .expect("figure names in brackets")
        .0;
    let listed: Vec<&str> = listed.split_whitespace().collect();
    assert!(!listed.is_empty());
    for name in &listed {
        assert!(
            unique.contains(name),
            "help lists {name:?}, not in {names:?}"
        );
    }

    // An unknown name fails before any row runs, naming the table.
    let err = emlio::bench::run_figures(&["fig2".to_string()]).unwrap_err();
    assert!(err.contains("fig2") && err.contains("fig11"), "{err}");
}
