//! Regenerates the paper's tables and figures (see `tetrium_bench::figs`).
//!
//! `figs NAME` runs one entry of [`FIGS`]; `figs` with no name runs every
//! entry in table order — the whole evaluation. `figs scale [--sites N]`
//! runs the 1000-site substrate sweep, which the whole-evaluation run
//! leaves out.
//!
//! Set `TETRIUM_QUICK=1` for a shrunk smoke-test pass and `TETRIUM_THREADS`
//! to bound the worker threads (default: all cores). JSON records land in
//! `target/experiments/`.
//!
//! Stdout is byte-identical across thread counts (see DESIGN.md); the
//! wall-clock and thread count of a whole run go to stderr, outside that
//! contract.

use std::process::ExitCode;
use tetrium_bench::figs::*;

/// Every table and figure, in the order a whole run regenerates them.
/// `fig5` prints and records Fig 6 (slowdown) too: they share their runs.
const FIGS: &[(&str, fn())] = &[
    ("fig2", fig2::run),
    ("fig3", fig3::run),
    ("fig5", fig5::run),
    ("fig7", fig7::run),
    ("fig8", fig8::run_fig),
    ("fig9", fig9::run_fig),
    ("fig10", fig10::run_fig),
    ("fig11", fig11::run_fig),
    ("fig12", fig12::run_fig),
    ("fwd_rev", fwd_rev::run_fig),
    ("vs_tetris", vs_tetris::run_fig),
    ("skew_sweep", skew_sweep::run_fig),
    ("resilience", resilience::run_fig),
    ("trace_replay", trace_replay::run_fig),
];

fn main() -> ExitCode {
    match std::env::args().nth(1).as_deref() {
        None => run_all(),
        // `sites_from_args` skips the positional name.
        Some("scale") => scale::run(tetrium_workload::sites_from_args(1000)),
        Some(name) => match FIGS.iter().find(|(n, _)| *n == name) {
            Some((_, run)) => run(),
            None => {
                let names: Vec<&str> = FIGS.iter().map(|(n, _)| *n).collect();
                eprintln!(
                    "usage: figs [NAME]\n       figs scale [--sites N]\n\
                     NAME is one of: {}",
                    names.join(", ")
                );
                return ExitCode::from(2);
            }
        },
    }
    ExitCode::SUCCESS
}

/// The whole evaluation, with its wall-clock on stderr.
fn run_all() {
    let threads = tetrium_bench::thread_count();
    eprintln!("[all_figures] running with {threads} worker thread(s)");
    #[expect(
        clippy::disallowed_methods,
        reason = "bench timing: the whole run's wall-clock, on stderr only"
    )]
    let t0 = std::time::Instant::now();
    for (_, run) in FIGS {
        run();
    }
    let wall = t0.elapsed().as_secs_f64();
    println!("\nall figures regenerated; records in target/experiments/");
    eprintln!("[all_figures] wall-clock {wall:.1} s on {threads} thread(s)");
}
