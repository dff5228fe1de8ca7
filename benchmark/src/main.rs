//! The perf ledger: five end-to-end workloads, four gated metrics, and a
//! per-layer traced replay. See `README.md` beside `Cargo.toml`.

mod alloc;
mod dataset;
mod procfs;
mod replay;
mod report;
mod run;
mod span;
mod stats;
mod sut;
mod verify;
mod workload;

use report::Metric;
use run::{GatedOptions, GatedOutcome};
use std::path::{Path, PathBuf};
use workload::{Workload, WORKLOADS};

/// The gated metrics: name, whether higher is better, and the share of the
/// reference by which a metric may worsen before it counts as a
/// regression. `BENCHMARK.json` states the same bounds.
const GATES: [(&str, bool, f64); 3] = [
    ("samples_per_s", true, 0.25),
    ("joules_per_ksample", false, 0.25),
    ("setup_s", false, 0.25),
];

/// Set-ups per gated run beyond the measured one.
const REHEARSALS: u32 = 2;
/// Calls per isolation row.
const ISOLATION_CALLS: usize = 10_000;

const USAGE: &str = "usage: emlio-perf-ledger [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1 | --traced] [--out FILE] [--selfcheck]
  --workload NAME  one of cold_local warm_small spill_churn fleet_nfs_rtt30 wan_train_rtt30 (default: all)
  --seed N         drives dataset content and the plan shuffle (default 1)
  --seconds S      length the measured window is sized for (default 10)
  --trace 1        per-layer run: shorter window, traced replay, isolation rows
  --out FILE       also write the result line(s) to FILE
  --selfcheck      run every workload twice at quarter size and compare";

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.iter().collect(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: None,
        selfcheck: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if name != "all" {
                    let w = workload::by_name(&name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?;
                    args.workloads = vec![w];
                }
            }
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| format!("--seed: bad value {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| (0.5..=60.0).contains(s))
                    .ok_or_else(|| format!("--seconds: want 0.5 to 60, got {v:?}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: want 0 or 1, got {v:?}")),
                };
            }
            "--traced" => args.trace = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--selfcheck" => args.selfcheck = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Where generated datasets, spill tiers and traces go: under the cargo
/// target directory, which is inside the checkout and ignored by git.
fn work_root() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"))
}

struct Dirs {
    data: PathBuf,
    scratch: PathBuf,
    out: PathBuf,
}

fn print_problems(problems: &[String]) {
    for p in problems {
        println!("  problem: {p}");
    }
}

/// One workload's result: what goes on the result line.
struct Finished {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn run_gated(
    w: &Workload,
    dirs: &Dirs,
    seed: u64,
    seconds: f64,
    rehearsals: u32,
) -> Result<(GatedOutcome, dataset::Dataset), String> {
    let data = dataset::ensure(&dirs.data, &w.dataset, seed)?;
    let opts = GatedOptions {
        seed,
        seconds,
        rehearsals,
    };
    let scratch = dirs.scratch.join(w.name);
    Ok((run::gated(w, &data, &scratch, &opts), data))
}

fn gated_workload(w: &Workload, dirs: &Dirs, args: &Args) -> Finished {
    println!("== {} (gated, closed loop, 1 consumer): {}", w.name, w.why);
    let (g, data) = match run_gated(w, dirs, args.seed, args.seconds, REHEARSALS) {
        Ok(r) => r,
        Err(e) => return unusable(e),
    };
    println!("  read stacks: {:?}", g.descriptions);
    report::print_table("  end to end:", &g.end_to_end);
    report::print_table("  beside them:", &g.detail);
    println!("  datagen.build_s {:.3} s", data.build_s);
    print_problems(&g.problems);
    Finished {
        correct: g.correct,
        attempted: g.attempted,
        failed: g.failed,
        metrics: g.end_to_end,
    }
}

fn unusable(problem: String) -> Finished {
    println!("  problem: {problem}");
    Finished {
        correct: false,
        attempted: 1,
        failed: 1,
        metrics: Vec::new(),
    }
}

fn traced_workload(w: &Workload, dirs: &Dirs, args: &Args) -> Finished {
    println!("== {} (per layer): {}", w.name, w.why);
    // Half the time goes to a gated window (counters, receiver and process
    // rows), the rest to the replay passes and the isolation rows.
    let (g, data) = match run_gated(w, dirs, args.seed, args.seconds / 2.0, 0) {
        Ok(r) => r,
        Err(e) => return unusable(e),
    };
    println!("  read stacks: {:?}", g.descriptions);
    print_problems(&g.problems);
    let mut measured: Vec<(String, f64)> =
        g.per_layer.into_iter().map(|m| (m.name, m.value)).collect();
    let mut correct = g.correct;
    let (mut attempted, mut failed) = (g.attempted, g.failed);

    let r = replay::traced(
        w,
        &data,
        &dirs.scratch.join(format!("{}-replay", w.name)),
        args.seed,
        &g.descriptions,
        g.batches_per_epoch,
        &dirs.out,
    );
    print_problems(&r.problems);
    if let Some(path) = &r.trace_path {
        println!("  spans written to {}", path.display());
    }
    correct &= r.problems.is_empty();
    attempted += r.attempted;
    failed += r.failed;
    measured.extend(r.per_layer.into_iter().map(|m| (m.name, m.value)));

    match sut::isolation_rows(ISOLATION_CALLS) {
        Ok(rows) => measured.extend(rows),
        Err(e) => {
            println!("  problem: {e}");
            correct = false;
        }
    }
    let (rows, unlisted) = report::per_layer_rows(&measured);
    if !unlisted.is_empty() {
        println!("  problem: measured but not in the per-layer list: {unlisted:?}");
        correct = false;
    }
    report::print_table("  per layer:", &rows);
    println!(
        "  untraced gated rate for reference: {:.1} samples/s",
        g.window_rate
    );
    Finished {
        correct,
        attempted,
        failed,
        metrics: rows,
    }
}

/// Two quarter-size runs of every workload must agree within the bounds.
fn selfcheck(args: &Args, dirs: &Dirs) -> bool {
    let mut all_ok = true;
    for w in &args.workloads {
        let mut runs = Vec::new();
        for _ in 0..2 {
            match run_gated(w, dirs, args.seed, args.seconds / 4.0, 0) {
                Ok((g, _)) if g.correct => runs.push(g.end_to_end),
                Ok((g, _)) => {
                    print_problems(&g.problems);
                    println!(
                        "selfcheck {}: run incorrect ({} of {} failed)",
                        w.name, g.failed, g.attempted
                    );
                    all_ok = false;
                }
                Err(e) => {
                    println!("selfcheck {}: {e}", w.name);
                    all_ok = false;
                }
            }
        }
        let [a, b] = runs.as_slice() else { continue };
        for (name, higher_better, bound) in GATES {
            let value = |r: &[Metric]| r.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
            let (x, y) = (value(a), value(b));
            // The worse of the two, as a share of the better.
            let (better, worse) = if (x > y) == higher_better {
                (x, y)
            } else {
                (y, x)
            };
            let worsening = if better > 0.0 {
                (worse - better).abs() / better
            } else {
                0.0
            };
            let ok = worsening <= bound;
            all_ok &= ok;
            println!(
                "selfcheck {:<16} {:<20} {:>14.4} {:>14.4}  differ {:>5.1} % (bound {:.0} %) {}",
                w.name,
                name,
                x,
                y,
                worsening * 100.0,
                bound * 100.0,
                if ok { "ok" } else { "EXCEEDED" }
            );
        }
    }
    all_ok
}

fn main() {
    alloc::pin_malloc_thresholds();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("{e}");
            }
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let root = work_root();
    let dirs = Dirs {
        data: root.join("benchmark-data"),
        // Per process, so two invocations in one checkout do not share a
        // spill tier.
        scratch: root.join(format!("benchmark-scratch/{}", std::process::id())),
        out: root.join("benchmark-out"),
    };
    println!(
        "perf ledger: seed {} window sized for {} s; {}",
        args.seed,
        args.seconds,
        report::environment(Path::new("."))
    );

    if args.selfcheck {
        let ok = selfcheck(&args, &dirs);
        let _ = std::fs::remove_dir_all(&dirs.scratch);
        std::process::exit(if ok { 0 } else { 1 });
    }

    let mut lines = Vec::new();
    let mut all = Finished {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    for w in &args.workloads {
        let f = if args.trace {
            traced_workload(w, &dirs, &args)
        } else {
            gated_workload(w, &dirs, &args)
        };
        println!(
            "  {}: {} of {} planned batches failed ({:.4} %)",
            w.name,
            f.failed,
            f.attempted,
            100.0 * f.failed as f64 / f.attempted.max(1) as f64
        );
        all.correct &= f.correct;
        all.attempted += f.attempted;
        all.failed += f.failed;
        if args.workloads.len() == 1 {
            all.metrics = f.metrics;
        } else {
            lines.push(format!(
                "{} {}",
                w.name,
                report::result_line(f.correct, f.attempted, f.failed, &f.metrics)
            ));
            all.metrics.extend(
                f.metrics
                    .into_iter()
                    .map(|m| Metric::new(format!("{}.{}", w.name, m.name), m.value, m.unit)),
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dirs.scratch);
    for line in &lines {
        println!("{line}");
    }
    let result = report::result_line(all.correct, all.attempted, all.failed, &all.metrics);
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, format!("{result}\n")) {
            eprintln!("write {}: {e}", path.display());
            all.correct = false;
        }
    }
    // The contract: the result object is the last line of stdout.
    println!("{result}");
    std::process::exit(if all.correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; the program must print
    /// exactly the names it lists.
    #[test]
    fn benchmark_json_lists_what_the_program_prints() {
        let json = include_str!("../../BENCHMARK.json");
        let names = |section: &str| -> Vec<String> {
            let start = json.find(&format!("\"{section}\"")).expect(section);
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section is an array")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("closing quote")].to_string())
                .collect()
        };
        let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names("workloads"), workloads);
        let gates: Vec<&str> = GATES.iter().map(|g| g.0).collect();
        assert_eq!(names("end_to_end"), gates);
        let layers: Vec<&str> = report::PER_LAYER.iter().map(|l| l.0).collect();
        assert_eq!(names("per_layer"), layers);
        for (name, _, bound) in GATES {
            let at = json.find(&format!("\"name\": \"{name}\"")).expect(name);
            assert!(
                json[at..].contains(&format!("\"bound\": {bound}")),
                "{name} bound"
            );
        }
    }
}
