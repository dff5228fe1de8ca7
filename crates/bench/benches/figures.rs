//! `cargo bench` entry point that regenerates every paper figure.
//!
//! This is a plain (non-Criterion) bench target so that
//! `cargo bench --workspace` reproduces the whole evaluation and prints the
//! paper-vs-ours tables into the bench log. Cargo's own `--bench` argument
//! is not a figure name, so the arguments are ignored: every row runs.

fn main() {
    emlio_bench::run_figures(&[]).expect("every table row is known");
}
