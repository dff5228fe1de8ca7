//! `emlio-bench` — the reproduction harness: the paper-figure table, the
//! seeded [`chaos`] harness and the shared-storage [`contention`] harness.
//! Performance is measured in one place, the perf ledger
//! (`BENCHMARK.json` + `benchmark/`), not here.
//!
//! Every paper artifact the DES testbed regenerates is one row of
//! [`FIGURES`]; `emlio figures [names…]` runs rows of that one table (no
//! names = every row):
//!
//! | name | artifact |
//! |---|---|
//! | `fig1`          | Figure 1 — R / R+P / R+P+T stage breakdown |
//! | `fig5`          | Figure 5 — ImageNet centralized, 3 loaders × 4 regimes |
//! | `fig6`          | Figure 6 — COCO, DALI vs EMLIO |
//! | `fig7`          | Figure 7 — synthetic 2 MB, daemon concurrency 1 |
//! | `fig8`          | Figure 8 — synthetic 2 MB, daemon concurrency 2 |
//! | `fig9`          | Figure 9 — VGG-19 |
//! | `fig10`         | Figure 10 — sharded scenario with DDP |
//! | `fig11`         | Figure 11 — loss vs wall-clock at 10 ms RTT |
//! | `ablations`     | Ablations — concurrency / HWM / batch / TCP window / RTT sweeps |
//!
//! Each row prints a paper-vs-reproduction table (Table 1 header
//! included) and writes `<name>.csv` under `target/experiments/`.

pub mod chaos;
pub mod contention;

use emlio_testbed::experiment::{self, ExperimentRow, LossTrace};
use emlio_testbed::{report, NodeSpec};
use std::path::PathBuf;

/// Where CSV artifacts land.
fn output_dir() -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Print the standard report (Table 1 header + paper-vs-ours table) and
/// write `<name>.csv`.
fn emit(name: &str, title: &str, rows: &[ExperimentRow]) {
    println!("{}", NodeSpec::table1_text());
    println!("{}", report::render_table(title, rows));
    write_csv(name, &report::to_csv(rows));
}

/// Write `<name>.csv` under the output directory. A failed write is a
/// warning: the report has already been printed.
fn write_csv(name: &str, csv: &str) {
    let path = output_dir().join(format!("{name}.csv"));
    if let Err(e) = std::fs::write(&path, csv) {
        emlio_obs::obs_warn!("bench", "could not write {}: {e}", path.display());
    } else {
        println!("wrote {}", path.display());
    }
}

/// Every artifact the DES testbed regenerates, in paper order: the name
/// `emlio figures` selects it by, and the function that runs it and
/// prints its report.
pub const FIGURES: &[(&str, fn())] = &[
    ("fig1", fig1),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", || {
        let title = "Figure 7: synthetic 2 MB samples, EMLIO concurrency T=1";
        emit("fig7", title, &experiment::fig7())
    }),
    ("fig8", || {
        let title = "Figure 8: synthetic 2 MB samples, EMLIO concurrency T=2";
        emit("fig8", title, &experiment::fig8())
    }),
    ("fig9", || {
        let title = "Figure 9: VGG-19, ImageNet 10 GB";
        emit("fig9", title, &experiment::fig9())
    }),
    ("fig10", || {
        let title = "Figure 10: sharded dataset (local half + remote half), 2-node DDP";
        emit("fig10", title, &experiment::fig10())
    }),
    ("fig11", fig11),
    ("ablations", || {
        let title = "Ablations: EMLIO knobs at 30 ms RTT (ImageNet/ResNet-50)";
        emit("ablations", title, &experiment::ablations())
    }),
];

/// Run the named rows of [`FIGURES`] in the order given (every row, in
/// table order, when `names` is empty). An unknown name is an error that
/// lists the table, raised before anything runs.
pub fn run_figures(names: &[String]) -> Result<(), String> {
    let lookup = |name: &String| {
        let row = FIGURES.iter().find(|(n, _)| n == name);
        row.map(|(_, run)| *run).ok_or_else(|| {
            let known: Vec<&str> = FIGURES.iter().map(|(n, _)| *n).collect();
            format!("unknown figure {name:?} (known: {})", known.join(" "))
        })
    };
    let selected: Vec<fn()> = if names.is_empty() {
        FIGURES.iter().map(|(_, run)| *run).collect()
    } else {
        names.iter().map(lookup).collect::<Result<_, _>>()?
    };
    selected.into_iter().for_each(|run| run());
    Ok(())
}

/// Duration of the row for `regime` whose method starts with `method`.
fn secs(rows: &[ExperimentRow], regime: &str, method: &str) -> f64 {
    row(rows, regime, method).duration_secs
}

fn row<'a>(rows: &'a [ExperimentRow], regime: &str, method: &str) -> &'a ExperimentRow {
    rows.iter()
        .find(|r| r.regime == regime && r.method.starts_with(method))
        .unwrap_or_else(|| panic!("no row for {regime}/{method}"))
}

fn fig1() {
    let rows = experiment::fig1();
    let title = "Figure 1: stage breakdown (R / R+P / R+P+T), DALI-style default stack";
    emit("fig1", title, &rows);
    // The paper's headline: I/O share of time grows from ~20% locally to
    // >90% at 30 ms RTT.
    for regime in ["local", "0.1ms", "10ms", "30ms"] {
        let exact = |method: &str| {
            let found = rows
                .iter()
                .find(|r| r.regime == regime && r.method == method);
            found.expect("fig1 grid is complete").duration_secs
        };
        println!(
            "I/O share @{regime:>6}: {:5.1}% of epoch time",
            100.0 * exact("R") / exact("R+P+T")
        );
    }
}

fn fig5() {
    let rows = experiment::fig5();
    let title = "Figure 5: ImageNet 10 GB, ResNet-50, centralized NFS repository";
    emit("fig5", title, &rows);
    println!(
        "WAN 30 ms speedups — EMLIO vs DALI: {:.1}x (paper 10.9x), vs PyTorch: {:.1}x (paper 27.1x)",
        secs(&rows, "30ms", "dali") / secs(&rows, "30ms", "emlio"),
        secs(&rows, "30ms", "pytorch") / secs(&rows, "30ms", "emlio"),
    );
}

fn fig6() {
    let rows = experiment::fig6();
    emit("fig6", "Figure 6: COCO, ResNet-50, centralized", &rows);
    let (d, e) = (row(&rows, "30ms", "dali"), row(&rows, "30ms", "emlio"));
    println!(
        "30 ms: EMLIO {:.1}x faster, {:.1}x less compute-node energy (paper: ~6x faster, ~8x less I/O energy)",
        d.duration_secs / e.duration_secs,
        d.total_j() / e.total_j(),
    );
}

/// Figure 11 yields loss traces, not experiment rows: its own report.
fn fig11() {
    let traces = experiment::fig11();
    println!("{}", NodeSpec::table1_text());
    println!("== Figure 11: loss vs wall-clock @10 ms RTT, COCO ==");
    let mut csv = String::from("method,t_secs,mean_loss,std\n");
    for t in &traces {
        println!(
            "{:<12} epoch completes at {:8.1}s (paper: EMLIO ~1000s vs DALI ~7500s; ratio is the claim)",
            t.method, t.epoch_end_secs
        );
        for p in &t.points {
            csv.push_str(&format!(
                "{},{:.2},{:.4},{:.4}\n",
                t.method, p.t_secs, p.mean, p.std
            ));
        }
    }
    let dali = traces.iter().find(|t| t.method == "dali").unwrap();
    let emlio = traces
        .iter()
        .find(|t| t.method.starts_with("emlio"))
        .unwrap();
    println!(
        "wall-clock speedup: {:.1}x (paper ~7.5x)",
        dali.epoch_end_secs / emlio.epoch_end_secs
    );
    // Loss at a fixed early time: EMLIO should be lower.
    let at = |tr: &LossTrace, t: f64| {
        tr.points
            .iter()
            .take_while(|p| p.t_secs <= t)
            .last()
            .map(|p| p.mean)
            .unwrap_or(f64::NAN)
    };
    let t200 = 200.0_f64.min(emlio.epoch_end_secs);
    println!(
        "loss at t={t200:.0}s: EMLIO {:.2} vs DALI {:.2} (paper: 3.8 vs 4.0 at 200s)",
        at(emlio, t200),
        at(dali, t200)
    );
    write_csv("fig11", &csv);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_dir_exists() {
        assert!(output_dir().is_dir());
    }
}
