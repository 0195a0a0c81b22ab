//! Subcommand implementations: generate / ingest / run / compare / serve.

use crate::args::Args;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ffi::OsString;
use std::path::Path;
use tetrium::cluster::Cluster;
use tetrium::core::{PlanCacheMode, TetriumConfig, WanKnob};
use tetrium::sim::EngineConfig;
use tetrium::workload::ingest::{
    read_trace_file, scenario_from_trace, TraceProfile, ValidatorConfig,
};
use tetrium::workload::{
    bigdata_like_jobs, tpcds_like_jobs, trace_like_jobs, Scenario, TraceParams,
};
use tetrium::{run_workload, run_workload_dynamic, SchedulerKind};

/// Help text printed on argument errors.
pub const USAGE: &str = "\
usage:
  tetrium-cli generate --kind trace|tpcds|bigdata --sites ec2-8|ec2-30|trace-50
                       [--jobs N] [--seed S] [--interarrival SECS] [--scale GB]
                       --out scenario.json
  tetrium-cli ingest   --trace trace.json|trace.csv --sites ec2-8|ec2-30|trace-50
                       [--out scenario.json] [--profile reference-trace.json]
                       [--max-drift FRAC] [--byte-tolerance FRAC] [--seed S]
  tetrium-cli run      --scenario scenario.json | --trace trace.json --sites PRESET
                       [--scheduler tetrium|in-place|iridium|centralized|tetris|swag]
                       [--rho R] [--epsilon E] [--seed S] [--json out.json]
                       [--plan-cache off|exact|full]
                       [--chrome-trace trace.json] [--obs obs.json]
                       [--obs-otel spans.json] [--dynamics timeline.json]
  tetrium-cli compare  --scenario scenario.json [--seed S]
  tetrium-cli serve    --scenario scenario.json [--shards N]
                       [--scheduler tetrium|in-place|iridium|centralized|tetris|swag]
                       [--rho R] [--epsilon E] [--seed S] [--json out.json]
                       [--obs-otel spans.json]";

/// Routes a command line to its subcommand.
pub fn dispatch(argv: &[OsString]) -> Result<(), String> {
    let (cmd, rest) = argv.split_first().ok_or("no subcommand given")?;
    match cmd.to_str() {
        Some("generate") => generate(&Args::parse(rest)?),
        Some("ingest") => ingest(&Args::parse(rest)?),
        Some("run") => run(&Args::parse(rest)?),
        Some("compare") => compare(&Args::parse(rest)?),
        Some("serve") => serve(&Args::parse(rest)?),
        Some("help" | "--help" | "-h") => {
            println!("{USAGE}");
            Ok(())
        }
        _ => Err(format!("unknown subcommand '{}'", cmd.to_string_lossy())),
    }
}

fn cluster_preset(name: &str, seed: u64) -> Result<Cluster, String> {
    match name {
        "ec2-8" => Ok(tetrium::cluster::ec2_eight_regions()),
        "ec2-30" => Ok(tetrium::cluster::ec2_thirty_instances()),
        "trace-50" => {
            let mut rng = StdRng::seed_from_u64(seed);
            Ok(tetrium::cluster::trace_fifty_sites(&mut rng))
        }
        other => Err(format!(
            "unknown site preset '{other}' (ec2-8, ec2-30, trace-50)"
        )),
    }
}

fn plan_cache_mode(name: &str) -> Result<PlanCacheMode, String> {
    match name {
        "off" => Ok(PlanCacheMode::Off),
        "exact" => Ok(PlanCacheMode::Exact),
        "full" => Ok(PlanCacheMode::Full),
        other => Err(format!(
            "unknown plan-cache mode '{other}' (off, exact, full)"
        )),
    }
}

fn scheduler_kind(
    name: &str,
    rho: f64,
    epsilon: f64,
    plan_cache: PlanCacheMode,
) -> Result<SchedulerKind, String> {
    let wan =
        WanKnob::new(rho).ok_or_else(|| format!("--rho must be a finite number, got {rho}"))?;
    // NaN fails every comparison below.
    if !epsilon.is_finite() {
        return Err(format!("--epsilon must be a finite number, got {epsilon}"));
    }
    let custom = rho < 1.0 || epsilon < 1.0 || plan_cache != PlanCacheMode::Off;
    match name {
        "tetrium" if !custom => Ok(SchedulerKind::Tetrium),
        "tetrium" => Ok(SchedulerKind::TetriumWith(TetriumConfig {
            wan,
            epsilon,
            plan_cache,
            ..TetriumConfig::default()
        })),
        "in-place" => Ok(SchedulerKind::InPlace),
        "iridium" => Ok(SchedulerKind::Iridium),
        "centralized" => Ok(SchedulerKind::Centralized),
        "tetris" => Ok(SchedulerKind::Tetris),
        "swag" => Ok(SchedulerKind::Swag),
        other => Err(format!("unknown scheduler '{other}'")),
    }
}

fn write_pretty(path: &Path, value: &serde_json::Value) -> Result<(), String> {
    let body = serde_json::to_string_pretty(value)
        .map_err(|e| format!("cannot serialize {}: {e}", path.display()))?;
    std::fs::write(path, body).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn generate(args: &Args) -> Result<(), String> {
    args.allow_only(&[
        "kind",
        "sites",
        "jobs",
        "seed",
        "interarrival",
        "scale",
        "out",
    ])?;
    let kind = args.require("kind")?;
    let sites = args.require("sites")?;
    let out = args.require_path("out")?;
    let jobs_n: usize = args.get_or("jobs", 12)?;
    let seed: u64 = args.get_or("seed", 1)?;
    let interarrival: f64 = args.get_or("interarrival", 30.0)?;
    let scale: f64 = args.get_or("scale", 10.0)?;

    let cluster = cluster_preset(sites, seed)?;
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1));
    let jobs = match kind {
        "trace" => {
            let params = TraceParams {
                mean_interarrival_secs: interarrival,
                median_input_gb: scale,
                ..TraceParams::default()
            };
            trace_like_jobs(&cluster, jobs_n, &params, &mut rng)
        }
        "tpcds" => tpcds_like_jobs(&cluster, jobs_n, interarrival, scale, &mut rng),
        "bigdata" => bigdata_like_jobs(&cluster, jobs_n, interarrival, scale, &mut rng),
        other => return Err(format!("unknown workload kind '{other}'")),
    };
    let description = format!(
        "kind={kind} sites={sites} jobs={jobs_n} seed={seed} interarrival={interarrival} scale={scale}"
    );
    let scenario = Scenario::new(description, cluster, jobs).map_err(|e| e.to_string())?;
    scenario.save(out).map_err(|e| e.to_string())?;
    println!(
        "wrote {}: {} jobs, {} sites, {:.1} GB total input",
        out.display(),
        scenario.jobs.len(),
        scenario.cluster.len(),
        scenario.jobs.iter().map(|j| j.input_gb()).sum::<f64>()
    );
    Ok(())
}

/// Builds the validator config from the shared ingestion flags
/// (`--byte-tolerance`, `--profile`, `--max-drift`).
fn validator_config(args: &Args) -> Result<ValidatorConfig, String> {
    let mut cfg = ValidatorConfig::default();
    cfg.byte_tolerance = args.get_or("byte-tolerance", cfg.byte_tolerance)?;
    cfg.max_drift = args.get_or("max-drift", cfg.max_drift)?;
    if let Some(reference) = args.get_path("profile") {
        let trace = read_trace_file(reference).map_err(|e| e.to_string())?;
        cfg.profile = Some(TraceProfile::from_trace(&trace).ok_or_else(|| {
            format!(
                "reference trace {} has too few jobs to profile",
                reference.display()
            )
        })?);
    }
    Ok(cfg)
}

/// Loads a raw trace, runs the validation gate, and converts to a
/// scenario over the given site preset. All violations surface in the
/// error string, row-addressed.
fn load_trace_scenario(args: &Args, seed: u64) -> Result<Scenario, String> {
    let path = args.require_path("trace")?;
    let sites = args.require("sites")?;
    let cluster = cluster_preset(sites, seed)?;
    let trace = read_trace_file(path).map_err(|e| e.to_string())?;
    let cfg = validator_config(args)?;
    scenario_from_trace(&trace, cluster, &cfg).map_err(|e| e.to_string())
}

/// Validates a raw trace file and (optionally) freezes it as a scenario.
fn ingest(args: &Args) -> Result<(), String> {
    args.allow_only(&[
        "trace",
        "sites",
        "out",
        "profile",
        "max-drift",
        "byte-tolerance",
        "seed",
    ])?;
    let seed: u64 = args.get_or("seed", 1)?;
    let scenario = load_trace_scenario(args, seed)?;
    println!(
        "trace accepted: {} jobs, {} stages, {} sites, {:.1} GB total input",
        scenario.jobs.len(),
        scenario.jobs.iter().map(|j| j.num_stages()).sum::<usize>(),
        scenario.cluster.len(),
        scenario.jobs.iter().map(|j| j.input_gb()).sum::<f64>()
    );
    if let Some(out) = args.get_path("out") {
        scenario.save(out).map_err(|e| e.to_string())?;
        println!("wrote {}", out.display());
    }
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    args.allow_only(&[
        "scenario",
        "trace",
        "sites",
        "profile",
        "max-drift",
        "byte-tolerance",
        "scheduler",
        "rho",
        "epsilon",
        "seed",
        "json",
        "plan-cache",
        "chrome-trace",
        "obs",
        "obs-otel",
        "dynamics",
    ])?;
    let seed: u64 = args.get_or("seed", 0)?;
    let scenario = match (args.has("scenario"), args.has("trace")) {
        (true, false) => {
            Scenario::load(args.require_path("scenario")?).map_err(|e| e.to_string())?
        }
        (false, true) => load_trace_scenario(args, seed)?,
        (true, true) => return Err("--scenario and --trace are mutually exclusive".into()),
        (false, false) => return Err("one of --scenario or --trace is required".into()),
    };
    let rho: f64 = args.get_or("rho", 1.0)?;
    let epsilon: f64 = args.get_or("epsilon", 1.0)?;
    let plan_cache = plan_cache_mode(args.get("plan-cache")?.unwrap_or("off"))?;
    let kind = scheduler_kind(
        args.get("scheduler")?.unwrap_or("tetrium"),
        rho,
        epsilon,
        plan_cache,
    )?;
    let dynamics = args
        .get_path("dynamics")
        .map(|path| load_dynamics(path, &scenario.cluster))
        .transpose()?;

    let mut cfg = EngineConfig::trace_like(seed);
    cfg.record_trace = args.has("chrome-trace");
    cfg.record_obs = args.has("obs") || args.has("obs-otel");
    let report = match dynamics {
        Some(timeline) => {
            run_workload_dynamic(scenario.cluster, scenario.jobs, kind, cfg, timeline)
        }
        None => run_workload(scenario.cluster, scenario.jobs, kind, cfg),
    }
    .map_err(|e| e.to_string())?;

    println!(
        "{}: {} jobs, avg response {:.1} s, p90 {:.1} s, WAN {:.1} GB, makespan {:.1} s",
        report.scheduler,
        report.jobs.len(),
        report.avg_response(),
        report.response_percentile(0.9),
        report.total_wan_gb,
        report.makespan
    );
    for j in &report.jobs {
        println!(
            "  {:<12} arrival {:>8.1}  response {:>8.1} s  wan {:>7.2} GB  stages {}",
            j.name, j.arrival, j.response, j.wan_gb, j.num_stages
        );
    }
    if let Some(path) = args.get_path("obs") {
        let obs = report.obs.as_ref().expect("record_obs was set");
        print_obs_summary(obs, report.makespan);
        write_pretty(path, &obs.to_json(true))?;
        println!("wrote {} (schema tetrium-obs/v1)", path.display());
    }
    if let Some(path) = args.get_path("obs-otel") {
        let obs = report.obs.as_ref().expect("record_obs was set");
        // The run name seeds the span-id namespace; it must be a pure
        // function of the run's inputs so the export stays
        // byte-deterministic across worker-thread counts.
        let run_name = format!("run/{}/seed-{seed}", report.scheduler);
        std::fs::write(path, tetrium::obs::to_otel_string(obs, &run_name))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote {} (OTLP/JSON spans)", path.display());
    }
    if let Some(path) = args.get_path("chrome-trace") {
        std::fs::write(path, tetrium::metrics::chrome_trace(&report.trace))
            .map_err(|e| e.to_string())?;
        println!(
            "wrote {} (load in chrome://tracing or Perfetto)",
            path.display()
        );
    }
    if let Some(path) = args.get_path("json") {
        let rows: Vec<serde_json::Value> = report
            .jobs
            .iter()
            .map(|j| {
                serde_json::json!({
                    "id": j.id.index(), "name": j.name, "arrival_s": j.arrival,
                    "response_s": j.response, "wan_gb": j.wan_gb,
                })
            })
            .collect();
        let v = serde_json::json!({
            "scheduler": report.scheduler,
            "avg_response_s": report.avg_response(),
            "wan_gb": report.total_wan_gb,
            "makespan_s": report.makespan,
            "jobs": rows,
        });
        write_pretty(path, &v)?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

/// Loads and validates a mid-run dynamics timeline (a JSON array of
/// `{"site": N, "at_time": S, "change": {"kind": ...}}` events).
fn load_dynamics(
    path: &Path,
    cluster: &Cluster,
) -> Result<tetrium::cluster::DynamicsTimeline, String> {
    let body = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read dynamics {}: {e}", path.display()))?;
    let timeline: tetrium::cluster::DynamicsTimeline =
        serde_json::from_str(&body).map_err(|e| format!("bad dynamics {}: {e}", path.display()))?;
    timeline
        .validate_for(cluster)
        .map_err(|e| format!("bad dynamics {}: {e}", path.display()))?;
    Ok(timeline)
}

/// Console digest of a run's observability record: per-site occupancy,
/// where attempt time went, and how the scheduler behaved.
fn print_obs_summary(obs: &tetrium::obs::ObsReport, makespan: f64) {
    println!("\nobservability summary (over makespan {makespan:.1} s)");
    println!(
        "{:<6} {:>6} {:>12} {:>12}",
        "site", "slots", "busy (s)", "util"
    );
    let busy = obs.busy_secs(makespan);
    let util = obs.utilization(makespan);
    for (i, (b, u)) in busy.iter().zip(&util).enumerate() {
        println!("s{i:<5} {:>6} {b:>12.1} {u:>12.3}", obs.slots[i]);
    }
    let (fetch, compute) = obs.fetch_compute_split();
    let total = fetch + compute;
    let pct = |x: f64| if total > 0.0 { 100.0 * x / total } else { 0.0 };
    println!(
        "attempt time: fetch {fetch:.1} s ({:.0}%), compute {compute:.1} s ({:.0}%)",
        pct(fetch),
        pct(compute)
    );
    println!(
        "scheduler: {} instances, wall p50 {:.2} ms / p99 {:.2} ms",
        obs.sched.len(),
        obs.sched_wall_percentile(0.5) * 1e3,
        obs.sched_wall_percentile(0.99) * 1e3
    );
    println!(
        "wan: {:.1} GB net over {} active (src,dst) pairs",
        obs.total_wan_gb(),
        obs.active_pairs()
    );
    let c = obs.counters;
    println!(
        "events: {} copies launched, {} won, {} attempts cancelled, {} failures, {} capacity drops",
        c.copies_launched, c.copies_won, c.attempts_cancelled, c.task_failures, c.capacity_drops
    );
    if c.dynamics_events > 0 {
        println!(
            "dynamics: {} timeline events, {} site outages, {} attempts retried",
            c.dynamics_events, c.site_outages, c.dynamics_retries
        );
    }
}

/// Runs a scenario through the `tetrium-serve` front end: jobs are
/// submitted over the async submission channel, sharded by job id, and
/// the merged shard reports are printed. The service is started held and
/// opened only after every submission so each shard sees exactly one
/// epoch — that pins the epoch partition and makes the output
/// reproducible (see the `tetrium-serve` determinism contract).
fn serve(args: &Args) -> Result<(), String> {
    args.allow_only(&[
        "scenario",
        "shards",
        "scheduler",
        "rho",
        "epsilon",
        "seed",
        "json",
        "plan-cache",
        "obs-otel",
    ])?;
    let scenario = Scenario::load(args.require_path("scenario")?).map_err(|e| e.to_string())?;
    let shards: usize = args.get_or("shards", 2)?;
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    let rho: f64 = args.get_or("rho", 1.0)?;
    let epsilon: f64 = args.get_or("epsilon", 1.0)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let plan_cache = plan_cache_mode(args.get("plan-cache")?.unwrap_or("off"))?;
    let kind = scheduler_kind(
        args.get("scheduler")?.unwrap_or("tetrium"),
        rho,
        epsilon,
        plan_cache,
    )?;
    let otel_path = args.get_path("obs-otel");
    let mut engine_cfg = EngineConfig::trace_like(seed);
    // Task events only flow to subscribers (and thus to the span tap)
    // when the shard engines record obs.
    engine_cfg.record_obs = otel_path.is_some();
    let cfg = tetrium_serve::ServeConfig {
        shards,
        scheduler: kind,
        engine: engine_cfg,
        ..tetrium_serve::ServeConfig::default()
    };
    let n_jobs = scenario.jobs.len();
    let rt = tokio::runtime::Builder::new_multi_thread()
        .enable_all()
        .build()
        .map_err(|e| format!("cannot build runtime: {e}"))?;
    let (report, observed_finished, tap) = rt.block_on(async {
        let svc = tetrium_serve::TetriumService::start_held(&scenario.cluster, &cfg);
        let mut events = svc.subscribe();
        let counter = tokio::spawn(async move {
            let mut tap = tetrium_serve::SpanTap::new();
            let mut finished = 0usize;
            loop {
                use tokio::sync::broadcast::error::RecvError;
                match events.recv().await {
                    Ok(event) => {
                        if matches!(event, tetrium_serve::JobEvent::Finished { .. }) {
                            finished += 1;
                        }
                        tap.observe(&event);
                    }
                    Err(RecvError::Lagged(_)) => {}
                    Err(RecvError::Closed) => break,
                }
            }
            (finished, tap)
        });
        for job in scenario.jobs {
            svc.submit(job).await.map_err(|e| e.to_string())?;
        }
        svc.open();
        let report = svc.join().await.map_err(|e| e.to_string())?;
        let (finished, tap) = counter
            .await
            .map_err(|_| "event counter lost".to_string())?;
        Ok::<_, String>((report, finished, tap))
    })?;
    println!(
        "serve: {shards} shard(s), {n_jobs} job(s) submitted, {observed_finished} Finished event(s) observed"
    );
    for s in &report.shards {
        println!(
            "  shard {}: {:>3} jobs, makespan {:>8.1} s, WAN {:>7.1} GB",
            s.shard,
            s.report.jobs.len(),
            s.report.makespan,
            s.report.total_wan_gb
        );
    }
    println!(
        "total: {} jobs, avg response {:.1} s, max makespan {:.1} s, WAN {:.1} GB",
        report.total_jobs(),
        report.avg_response(),
        report.makespan(),
        report.total_wan_gb()
    );
    if let Some(path) = otel_path {
        let run_name = format!("serve/seed-{seed}");
        std::fs::write(path, tap.to_otel_string(&run_name))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote {} (OTLP/JSON spans)", path.display());
    }
    if let Some(path) = args.get_path("json") {
        write_pretty(path, &report.to_json())?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

fn compare(args: &Args) -> Result<(), String> {
    args.allow_only(&["scenario", "seed"])?;
    let scenario = Scenario::load(args.require_path("scenario")?).map_err(|e| e.to_string())?;
    let seed: u64 = args.get_or("seed", 0)?;
    println!(
        "{:<13} {:>10} {:>10} {:>10} {:>10}",
        "scheduler", "avg (s)", "p90 (s)", "WAN (GB)", "makespan"
    );
    for kind in [
        SchedulerKind::Tetrium,
        SchedulerKind::Iridium,
        SchedulerKind::InPlace,
        SchedulerKind::Swag,
        SchedulerKind::Tetris,
        SchedulerKind::Centralized,
    ] {
        let report = run_workload(
            scenario.cluster.clone(),
            scenario.jobs.clone(),
            kind,
            EngineConfig::trace_like(seed),
        )
        .map_err(|e| e.to_string())?;
        println!(
            "{:<13} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            report.scheduler,
            report.avg_response(),
            report.response_percentile(0.9),
            report.total_wan_gb,
            report.makespan
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetrium::workload::ingest::trace_from_jobs;

    fn sv(v: &[&str]) -> Vec<OsString> {
        v.iter().map(OsString::from).collect()
    }

    fn svp(v: &[&str], tail: &[&Path]) -> Vec<OsString> {
        let mut out = sv(v);
        out.extend(tail.iter().map(|p| p.as_os_str().to_os_string()));
        out
    }

    /// Writes a small valid trace over the ec2-8 preset and returns its
    /// path.
    fn write_mini_trace(dir: &Path) -> std::path::PathBuf {
        let cluster = tetrium::cluster::ec2_eight_regions();
        let mut rng = StdRng::seed_from_u64(11);
        let jobs = trace_like_jobs(&cluster, 3, &TraceParams::default(), &mut rng);
        let trace = trace_from_jobs(&jobs, cluster.len(), "cli-test");
        let path = dir.join("mini_trace.json");
        std::fs::write(&path, trace.to_json()).unwrap();
        path
    }

    #[test]
    fn end_to_end_generate_run_compare() {
        let dir = std::env::temp_dir().join("tetrium_cli_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("scenario.json");
        dispatch(&svp(
            &[
                "generate", "--kind", "bigdata", "--sites", "ec2-8", "--jobs", "3", "--seed", "5",
                "--scale", "2.0", "--out",
            ],
            &[&path],
        ))
        .unwrap();
        dispatch(&svp(
            &["run", "--scheduler", "tetrium", "--scenario"],
            &[&path],
        ))
        .unwrap();
        dispatch(&svp(
            &["run", "--scheduler", "swag", "--scenario"],
            &[&path],
        ))
        .unwrap();
        let trace_out = dir.join("trace.json");
        dispatch(&svp(
            &["run", "--scenario"],
            &[&path, Path::new("--chrome-trace"), &trace_out],
        ))
        .unwrap();
        let body = std::fs::read_to_string(&trace_out).unwrap();
        assert!(body.starts_with('['), "chrome trace must be a JSON array");
        let obs_out = dir.join("obs.json");
        dispatch(&svp(
            &["run", "--scenario"],
            &[&path, Path::new("--obs"), &obs_out],
        ))
        .unwrap();
        let body = std::fs::read_to_string(&obs_out).unwrap();
        assert!(
            body.contains("tetrium-obs/v1"),
            "obs file carries schema tag"
        );
        assert!(
            body.contains("wall_ms"),
            "CLI obs output includes wall latency"
        );
        // A mid-run dynamics timeline loads, validates and runs end to end.
        let dyn_path = dir.join("dynamics.json");
        std::fs::write(
            &dyn_path,
            r#"[
                {"site": 0, "at_time": 30.0, "change": {"kind": "capacity", "keep": 0.5}},
                {"site": 0, "at_time": 200.0, "change": {"kind": "recover"}}
            ]"#,
        )
        .unwrap();
        dispatch(&svp(
            &["run", "--scenario"],
            &[&path, Path::new("--dynamics"), &dyn_path],
        ))
        .unwrap();
        // Out-of-range sites are rejected at load time, not mid-run.
        std::fs::write(
            &dyn_path,
            r#"[{"site": 99, "at_time": 1.0, "change": {"kind": "outage"}}]"#,
        )
        .unwrap();
        let err = dispatch(&svp(
            &["run", "--scenario"],
            &[&path, Path::new("--dynamics"), &dyn_path],
        ))
        .unwrap_err();
        assert!(err.contains("out of range"), "err: {err}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn ingest_and_trace_replay_with_otel_export() {
        let dir = std::env::temp_dir().join("tetrium_cli_ingest_test");
        let _ = std::fs::create_dir_all(&dir);
        let trace_path = write_mini_trace(&dir);
        // ingest: validation gate + scenario freeze.
        let scenario_out = dir.join("from_trace.json");
        dispatch(&svp(
            &["ingest", "--sites", "ec2-8", "--trace"],
            &[&trace_path, Path::new("--out"), &scenario_out],
        ))
        .unwrap();
        assert!(Scenario::load(&scenario_out).is_ok());
        // Self-profiling never drifts: the trace checked against its own
        // profile passes.
        dispatch(&svp(
            &["ingest", "--sites", "ec2-8", "--trace"],
            &[&trace_path, Path::new("--profile"), &trace_path],
        ))
        .unwrap();
        // run --trace replays the raw trace directly, with OTel export.
        let otel_out = dir.join("spans.json");
        dispatch(&svp(
            &["run", "--sites", "ec2-8", "--trace"],
            &[&trace_path, Path::new("--obs-otel"), &otel_out],
        ))
        .unwrap();
        let spans: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&otel_out).unwrap()).unwrap();
        assert!(spans["resourceSpans"][0]["scopeSpans"][0]["spans"]
            .as_array()
            .is_some_and(|s| s.len() > 1));
        // A malformed trace is rejected with row-addressed violations, not
        // a panic, and --scenario/--trace exclusivity is enforced.
        let bad = dir.join("bad_trace.json");
        std::fs::write(
            &bad,
            r#"{"format": "tetrium-trace/v1", "sites": 8, "rows": [
                {"job": "x", "submit_s": -1.0, "stage": 0, "deps": [], "kind": "mop",
                 "tasks": 0, "task_s": 1.0, "input_gb_by_site": [1.0], "output_gb": 1.0}
            ]}"#,
        )
        .unwrap();
        let err = dispatch(&svp(&["ingest", "--sites", "ec2-8", "--trace"], &[&bad])).unwrap_err();
        assert!(err.contains("row 1"), "err: {err}");
        assert!(err.contains("violation"), "err: {err}");
        let err = dispatch(&svp(
            &["run", "--sites", "ec2-8", "--scenario", "x.json", "--trace"],
            &[&trace_path],
        ))
        .unwrap_err();
        assert!(err.contains("mutually exclusive"), "err: {err}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn serve_runs_scenario_through_the_async_front_end() {
        let dir = std::env::temp_dir().join("tetrium_cli_serve_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("scenario.json");
        dispatch(&svp(
            &[
                "generate", "--kind", "bigdata", "--sites", "ec2-8", "--jobs", "4", "--seed", "5",
                "--scale", "2.0", "--out",
            ],
            &[&path],
        ))
        .unwrap();
        let json_out = dir.join("serve.json");
        let otel_out = dir.join("serve_spans.json");
        dispatch(&svp(
            &["serve", "--shards", "2", "--scenario"],
            &[
                &path,
                Path::new("--json"),
                &json_out,
                Path::new("--obs-otel"),
                &otel_out,
            ],
        ))
        .unwrap();
        let body = std::fs::read_to_string(&json_out).unwrap();
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["total_jobs"], 4);
        assert_eq!(v["shards"].as_array().unwrap().len(), 2);
        // The span tap exported one resource per shard that ran tasks.
        let spans: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&otel_out).unwrap()).unwrap();
        assert!(!spans["resourceSpans"].as_array().unwrap().is_empty());
        assert!(dispatch(&svp(&["serve", "--shards", "0", "--scenario"], &[&path])).is_err());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn bad_inputs_error_cleanly() {
        assert!(dispatch(&sv(&["frobnicate"])).is_err());
        assert!(dispatch(&sv(&["generate", "--kind", "nope"])).is_err());
        assert!(dispatch(&sv(&["run", "--scenario", "/nonexistent.json"])).is_err());
        assert!(dispatch(&sv(&["run"])).is_err());
        assert!(scheduler_kind("alien", 1.0, 1.0, PlanCacheMode::Off).is_err());
        assert!(cluster_preset("mars", 0).is_err());
        assert!(plan_cache_mode("sometimes").is_err());

        // Deserialization skips the constructors' checks, so a hand-edited
        // scenario must fail `Scenario::validate`, not panic in the engine.
        let dir = std::env::temp_dir().join("tetrium_cli_bad_scenario_test");
        let _ = std::fs::create_dir_all(&dir);
        let cluster = tetrium::cluster::ec2_eight_regions();
        let mut rng = StdRng::seed_from_u64(3);
        let jobs = trace_like_jobs(&cluster, 2, &TraceParams::default(), &mut rng);
        let good = Scenario::new("bad-inputs", cluster, jobs).unwrap();
        let mut zero_bandwidth = good.clone();
        let mut sites: Vec<_> = good.cluster.iter().map(|(_, s)| s.clone()).collect();
        sites[0].up_gbps = 0.0;
        zero_bandwidth.cluster = Cluster::new(sites);
        let mut no_stages = good.clone();
        no_stages.jobs[0].stages.clear();
        let mut negative_ratio = good.clone();
        negative_ratio.jobs[0].stages[0].output_ratio = -1.0;
        let mut negative_input = good.clone();
        let input = negative_input.jobs[0].stages[0].input.as_mut().unwrap();
        *input.at_mut(tetrium::cluster::SiteId(0)) = -1.0;
        for (case, scenario) in [
            ("zero_bandwidth", zero_bandwidth),
            ("no_stages", no_stages),
            ("negative_ratio", negative_ratio),
            ("negative_input", negative_input),
        ] {
            let path = dir.join(format!("{case}.json"));
            std::fs::write(&path, scenario.to_json().unwrap()).unwrap();
            for cmd in ["run", "serve", "compare"] {
                let err = dispatch(&svp(&[cmd, "--scenario"], &[&path])).unwrap_err();
                assert!(err.starts_with("invalid scenario: "), "{case} {cmd}: {err}");
            }
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    /// `--rho nan` alone used to run ρ = 1 (NaN fails `rho < 1.0`), and
    /// with another custom flag it zeroed every map WAN budget; a
    /// non-finite `--rho` or `--epsilon` is now an argument error in `run`
    /// and `serve` alike.
    #[test]
    fn non_finite_knobs_are_rejected() {
        for (rho, epsilon) in [(f64::NAN, 1.0), (1.0, f64::NAN), (f64::INFINITY, 1.0)] {
            for cache in [PlanCacheMode::Off, PlanCacheMode::Exact] {
                assert!(scheduler_kind("tetrium", rho, epsilon, cache).is_err());
            }
        }
        let dir = std::env::temp_dir().join("tetrium_cli_nan_knob_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("scenario.json");
        dispatch(&svp(
            &[
                "generate", "--kind", "bigdata", "--sites", "ec2-8", "--jobs", "2", "--out",
            ],
            &[&path],
        ))
        .unwrap();
        for knob in ["--rho", "--epsilon"] {
            for cmd in ["run", "serve"] {
                let err = dispatch(&svp(&[cmd, knob, "nan", "--scenario"], &[&path])).unwrap_err();
                assert!(
                    err.contains("must be a finite number"),
                    "{cmd} {knob}: {err}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[cfg(unix)]
    #[test]
    fn non_utf8_output_paths_are_not_a_panic() {
        use std::os::unix::ffi::OsStringExt;
        let dir = std::env::temp_dir().join("tetrium_cli_nonutf8_test");
        let _ = std::fs::create_dir_all(&dir);
        let mut bytes = dir.as_os_str().to_os_string().into_vec();
        bytes.extend(*b"/scen-");
        bytes.extend([0xff, 0xfe]);
        bytes.extend(*b".json");
        let weird = OsString::from_vec(bytes);
        let mut argv = sv(&[
            "generate", "--kind", "bigdata", "--sites", "ec2-8", "--jobs", "2", "--seed", "5",
            "--scale", "2.0", "--out",
        ]);
        argv.push(weird.clone());
        // The non-UTF-8 path is threaded through as a Path and written.
        dispatch(&argv).unwrap();
        assert!(Path::new(&weird).exists());
        // A non-UTF-8 value where text is required errors instead of
        // panicking.
        let mut argv = sv(&["run", "--scenario"]);
        argv.push(weird.clone());
        argv.push(OsString::from("--scheduler"));
        argv.push(OsString::from_vec(vec![0xff]));
        let err = dispatch(&argv).unwrap_err();
        assert!(err.contains("not valid UTF-8"), "err: {err}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn custom_knobs_build_custom_scheduler() {
        let k = scheduler_kind("tetrium", 0.5, 1.0, PlanCacheMode::Off).unwrap();
        assert!(matches!(k, SchedulerKind::TetriumWith(_)));
        let k = scheduler_kind("tetrium", 1.0, 1.0, PlanCacheMode::Off).unwrap();
        assert!(matches!(k, SchedulerKind::Tetrium));
        // A non-default plan-cache mode forces the custom config path.
        let k = scheduler_kind("tetrium", 1.0, 1.0, PlanCacheMode::Full).unwrap();
        let SchedulerKind::TetriumWith(cfg) = k else {
            panic!("expected custom config");
        };
        assert_eq!(cfg.plan_cache, PlanCacheMode::Full);
    }
}
