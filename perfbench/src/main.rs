//! The Tetrium benchmark: four workloads, end-to-end metrics from untraced
//! runs, and per-layer metrics with a span tree from a traced run. Every
//! layer is timed from outside, around calls into its public API. See
//! README.md for the workloads, metrics and bounds.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! Without `--workload`, every workload runs in a child process of this
//! binary, so each one's peak memory is its own and no warm state carries
//! over. The last line of standard output is the JSON result.

mod calib;
mod ingest;
mod inputs;
mod report;
mod serve;
mod sim;
mod spans;
mod stats;
mod timed;

use inputs::Workload;
use report::{result_line, Metrics, Tally, END_TO_END, PER_LAYER};
use serde_json::{json, Map, Value};
use spans::Trace;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;

const USAGE: &str =
    "usage: benchmark [--workload trace-30|recurring-30|scale-120|serve-30] [--seed N] [--seconds N] [--trace 0|1]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 0,
        seconds: 30,
        trace: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let number = |v: Option<String>| -> Result<u64, String> {
            v.ok_or(format!("{flag} needs a value"))?
                .parse()
                .map_err(|e| format!("{flag}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = it.next().unwrap_or_default();
                a.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => a.seed = number(it.next())?,
            "--seconds" => a.seconds = number(it.next())?.max(1),
            // `--trace` alone means `--trace 1`.
            "--trace" => {
                a.trace = it
                    .next_if(|v| v == "0" || v == "1")
                    .is_none_or(|v| v == "1");
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Auditor and debug overheads are not the system's speed.
    if tetrium::sim::audit_enabled() || cfg!(debug_assertions) {
        eprintln!("benchmark: refusing to measure an audit or unoptimized build; build with --release and without `audit`");
        return ExitCode::from(2);
    }
    match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    }
}

fn run_one(w: Workload, args: &Args) -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# tetrium benchmark: workload={} seed={} seconds={} trace={} nproc={nproc} profile=release",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut tally = Tally::default();
    let result = if args.trace {
        traced(w, args, &mut tally)
    } else {
        untraced(w, args, &mut tally)
    };
    match result {
        Ok(metrics) => {
            println!("{}", result_line(true, &tally, metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark: {}: {e}", w.name());
            println!("{}", result_line(false, &tally, Value::Object(Map::new())));
            ExitCode::FAILURE
        }
    }
}

fn untraced(w: Workload, args: &Args, tally: &mut Tally) -> Result<Value, String> {
    let budget = Duration::from_secs(args.seconds);
    let m: Metrics = match w {
        Workload::Serve30 => serve::measure(args.seed, budget, tally)?,
        _ => sim::measure(w, args.seed, budget, tally)?,
    };
    for &(name, _) in END_TO_END {
        match m.get(name) {
            Some(v) if v.is_finite() && v > 0.0 => {}
            v => return Err(format!("end-to-end metric {name} read {v:?}")),
        }
    }
    m.to_json(END_TO_END)
}

fn traced(w: Workload, args: &Args, tally: &mut Tally) -> Result<Value, String> {
    let (m, trace): (Metrics, Trace) = match w {
        Workload::Serve30 => serve::traced(args.seed, tally)?,
        _ => sim::traced(w, args.seed, tally)?,
    };
    for line in trace.table_lines(0) {
        println!("# {line}");
    }
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("benchmark");
    let path = dir.join(format!("{}.trace.json", w.name()));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, trace.to_json(w.name(), args.seed).to_string()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# spans written to {}", path.display());
    let share = m.get("trace.explained_share").unwrap_or(0.0);
    println!("# layers explain {:.2}% of the root span", 100.0 * share);
    stats::reconcile(share)?;
    m.to_json(PER_LAYER)
}

/// Runs every workload in a child process of this binary and prints a
/// combined summary; fails when any child failed.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("benchmark: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut ok, mut attempted, mut failed) = (true, 0, 0);
    let mut all = Map::new();
    for w in Workload::ALL {
        let child = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let out = match child {
            Ok(out) => out,
            Err(e) => {
                eprintln!("benchmark: {}: cannot run child: {e}", w.name());
                ok = false;
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for l in lines {
            println!("{l}");
        }
        let result: Value = serde_json::from_str(last).unwrap_or(Value::Null);
        ok &= out.status.success() && result.get("correct").and_then(Value::as_bool) == Some(true);
        attempted += result.get("attempted").and_then(Value::as_u64).unwrap_or(0);
        failed += result.get("failed").and_then(Value::as_u64).unwrap_or(0);
        let metrics = result.get("metrics").cloned().unwrap_or(Value::Null);
        if let Some(Value::Object(ms)) = result.get("metrics") {
            for (name, v) in ms {
                let value = v.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
                let unit = v.get("unit").and_then(Value::as_str).unwrap_or("");
                println!("{:<13} {:<24} {value:>16.6} {unit}", w.name(), name);
            }
        }
        all.insert(w.name().to_string(), metrics);
    }
    println!(
        "{}",
        json!({"correct": ok, "attempted": attempted, "failed": failed, "metrics": Value::Object(all)})
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
