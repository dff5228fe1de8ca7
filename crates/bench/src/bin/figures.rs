//! Regenerate paper figures from the DES testbed: `figures [names…]` runs
//! the named rows of [`emlio_bench::FIGURES`], or every row when no name
//! is given.

fn main() -> std::process::ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    match emlio_bench::run_figures(&names) {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}
