//! Runs the entire harness: every table and figure of the evaluation.
//!
//! Set `TETRIUM_QUICK=1` for a shrunk smoke-test pass and `TETRIUM_THREADS`
//! to bound the worker threads (default: all cores). JSON records land in
//! `target/experiments/`.
//!
//! Stdout is byte-identical across thread counts (see DESIGN.md); the
//! wall-clock and thread count go to stderr, outside that contract.
fn main() {
    use tetrium_bench::figs::*;
    let threads = tetrium_bench::thread_count();
    eprintln!("[all_figures] running with {threads} worker thread(s)");
    let t0 = std::time::Instant::now();
    fig2::run();
    fig3::run();
    fig5::run();
    fig7::run();
    fig8::run_fig();
    fig9::run_fig();
    fig10::run_fig();
    fig11::run_fig();
    fig12::run_fig();
    fwd_rev::run_fig();
    vs_tetris::run_fig();
    skew_sweep::run_fig();
    resilience::run_fig();
    trace_replay::run_fig();
    let wall = t0.elapsed().as_secs_f64();
    println!("\nall figures regenerated; records in target/experiments/");
    eprintln!("[all_figures] wall-clock {wall:.1} s on {threads} thread(s)");
}
