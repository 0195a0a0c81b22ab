//! The batch workloads (trace-30, recurring-30, scale-120): ingest, then
//! `Engine::new` and `Engine::run` with the scheduler wrapped in
//! [`Timed`]. One repetition is one input run to completion.

use crate::calib;
use crate::ingest::{ingest, Ingested};
use crate::inputs::{input, Input, Workload};
use crate::report::{peak_rss_mb, Metrics, Tally};
use crate::spans::Trace;
use crate::stats::{by_input_median, median, percentile, percentile_allowed, ratio, sorted};
use crate::timed::{now, secs, Call, CallLog, Timed};
use std::time::{Duration, Instant};
use tetrium::core::TetriumScheduler;
use tetrium::jobs::Job;
use tetrium::obs::{to_otel_string, ObsReport};
use tetrium::sim::{Engine, EngineConfig, RunReport};

/// Golden digests of input 0 of seed 0, for the workloads whose output is
/// byte-identical by contract (plan cache off).
const GOLDEN: &str = include_str!("../golden.json");

/// Inputs every measured run covers, whatever the time budget.
const MIN_INPUTS: u64 = 8;

/// Extra set-ups timed per input (engine built and dropped unrun), so
/// `setup_s` is a median of many set-ups.
const EXTRA_SETUPS: usize = 30;

/// One repetition: an input ingested, set up and run.
pub struct Rep {
    /// The ingest layer's calls.
    pub ingest: Ingested,
    /// Scheduler build + `Engine::new`.
    pub new: (Instant, Instant),
    /// `Engine::run`.
    pub run: (Instant, Instant),
    /// Every `schedule()` call.
    pub calls: Vec<Call>,
    /// The run's report.
    pub report: RunReport,
    /// Set-up seconds: this repetition's, then the extra ones.
    pub setups: Vec<f64>,
}

impl Rep {
    fn tasks(&self) -> usize {
        self.report.jobs.iter().map(|j| j.total_tasks).sum()
    }

    fn run_s(&self) -> f64 {
        secs(self.run)
    }

    /// What must repeat exactly when the same input runs again.
    fn digest(&self) -> String {
        let r = &self.report;
        format!(
            "resp_avg_s={:?} wan_gb={:?} makespan_s={:?} sched_calls={}",
            r.avg_response(),
            r.total_wan_gb,
            r.makespan,
            self.calls.len()
        )
    }
}

/// The `setup_s` path, timed: scheduler construction, wrap, `Engine::new`.
fn setup(input: &Input, jobs: Vec<Job>, record_obs: bool) -> (Engine, CallLog, (Instant, Instant)) {
    let cluster = input.cluster.clone();
    let cfg = EngineConfig {
        record_obs,
        ..input.engine.clone()
    };
    let dynamics = input.dynamics.clone();
    let t0 = now();
    let (scheduler, log) = Timed::wrap(TetriumScheduler::new(input.tetrium.clone()));
    let engine = Engine::new(cluster, jobs, scheduler, cfg).with_dynamics(dynamics);
    (engine, log, (t0, now()))
}

/// Runs one repetition and checks its output.
fn rep(input: &Input, record_obs: bool, extra_setups: usize) -> Result<Rep, String> {
    let ingested = ingest(input)?;
    let jobs = ingested.scenario.jobs.clone();
    let (engine, log, new) = setup(input, jobs, record_obs);
    let r0 = now();
    let report = engine.run().map_err(|e| format!("run: {e}"))?;
    let r1 = now();
    let calls = log.take();
    check(input, &report, calls.len())?;
    let mut setups = vec![secs(new)];
    for _ in 0..extra_setups {
        let (engine, _, t) = setup(input, ingested.scenario.jobs.clone(), record_obs);
        setups.push(secs(t));
        drop(engine);
    }
    Ok(Rep {
        ingest: ingested,
        new,
        run: (r0, r1),
        calls,
        report,
        setups,
    })
}

/// Every job finished, per-job WAN sums to the run total, and the wrapper
/// saw every scheduling instance the engine counted.
fn check(input: &Input, report: &RunReport, calls: usize) -> Result<(), String> {
    if report.jobs.len() != input.jobs.len() {
        return Err(format!(
            "{} of {} jobs reported",
            report.jobs.len(),
            input.jobs.len()
        ));
    }
    if let Some(j) = report
        .jobs
        .iter()
        .find(|j| !(j.finished.is_finite() && j.response >= 0.0))
    {
        return Err(format!("job {} did not finish", j.id));
    }
    let per_job: f64 = report.jobs.iter().map(|j| j.wan_gb).sum();
    if (per_job - report.total_wan_gb).abs() > 1e-6 * report.total_wan_gb.max(1.0) {
        return Err(format!(
            "per-job WAN {per_job} GB != run total {} GB",
            report.total_wan_gb
        ));
    }
    if calls != report.sched_invocations {
        return Err(format!(
            "wrapper saw {calls} schedule() calls, engine counted {}",
            report.sched_invocations
        ));
    }
    Ok(())
}

/// Seed 0's input 0 must reproduce the committed digest where one exists.
fn check_golden(w: Workload, seed: u64, digest: &str) -> Result<(), String> {
    let golden: serde_json::Value =
        serde_json::from_str(GOLDEN).map_err(|e| format!("golden.json: {e}"))?;
    match golden.get(w.name()).and_then(|v| v.as_str()) {
        Some(want) if seed == 0 && want != digest => Err(format!(
            "input 0 digest differs from golden.json:\n  got  {digest}\n  want {want}"
        )),
        _ => Ok(()),
    }
}

/// Tail percentile of decision latency: p99 where a run collects the
/// thousands of decisions that needs, p90 for scale-120's few hundred
/// slower solves.
fn tail_quantile(w: Workload) -> f64 {
    match w {
        Workload::Scale120 => 0.9,
        _ => 0.99,
    }
}

/// The untraced measurement: new inputs until the budget would run out
/// (at least [`MIN_INPUTS`], and enough decisions for the tail
/// percentile), then input 0 again to check determinism. Times are scaled
/// to reference-host seconds by the calibration loop run between
/// repetitions. Decision latency is the wall time of the `schedule()`
/// calls that planned a stage (with the plan cache off: the LP solves).
pub fn measure(
    w: Workload,
    seed: u64,
    budget: Duration,
    tally: &mut Tally,
) -> Result<Metrics, String> {
    let begin = now();
    let q = tail_quantile(w);
    let mut m = Metrics::new();
    let mut tasks_per_s: Vec<(u64, f64)> = Vec::new();
    let mut rows_per_s: Vec<(u64, f64)> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    let mut decisions: Vec<f64> = Vec::new();
    let mut slowdowns: Vec<f64> = Vec::new();
    let mut host = calib::slowdown(1);
    let mut record = |i: u64, r: &Rep, replay: bool| {
        let after = calib::slowdown(1);
        let s = host.between(after).here;
        host = after;
        slowdowns.push(s);
        tasks_per_s.push((i, s * r.tasks() as f64 / r.run_s()));
        rows_per_s.push((i, s * r.ingest.rows as f64 / r.ingest.secs()));
        setups.extend(r.setups.iter().map(|t| t / s));
        if !replay {
            let planned = r.calls.iter().filter(|c| c.planned);
            decisions.extend(planned.map(|c| 1e3 * c.secs() / s));
        }
        decisions.len()
    };
    let mut first: Option<(Input, String)> = None;
    let mut i = 0;
    loop {
        let inp = input(w, seed, i);
        let r = tally.attempt(inp.jobs.len(), rep(&inp, false, EXTRA_SETUPS))?;
        let n = record(i, &r, false);
        if first.is_none() {
            // After the one input every run covers: later inputs would make
            // the peak depend on how many a fast build fits in.
            m.set("peak_rss_mb", peak_rss_mb()?);
            let digest = r.digest();
            println!("# input 0 digest: {digest}");
            tally.verify(inp.jobs.len(), check_golden(w, seed, &digest))?;
            first = Some((inp, digest));
        }
        i += 1;
        let elapsed = begin.elapsed();
        let per_input = elapsed / u32::try_from(i).unwrap_or(u32::MAX);
        if i >= MIN_INPUTS && percentile_allowed(n, q) && elapsed + 2 * per_input > budget {
            break;
        }
    }
    let (inp0, digest0) = first.ok_or("no input ran")?;
    let again = tally.attempt(inp0.jobs.len(), rep(&inp0, false, EXTRA_SETUPS))?;
    tally.verify(
        inp0.jobs.len(),
        if again.digest() == digest0 {
            Ok(())
        } else {
            Err(format!(
                "input 0 is not deterministic:\n  first  {digest0}\n  replay {}",
                again.digest()
            ))
        },
    )?;
    record(0, &again, true);

    let decisions = sorted(decisions);
    let p50 = percentile(&decisions, 0.5).ok_or("too few decisions for p50")?;
    let tail = percentile(&decisions, q).ok_or("too few decisions for the tail")?;
    println!(
        "# {i} inputs, {} runs, {} decisions (latency = schedule() call that planned a stage, tail = p{}); host slowdown {:.3}",
        tasks_per_s.len(),
        decisions.len(),
        100.0 * q,
        median(&slowdowns)
    );
    m.set("tasks_per_s", by_input_median(&tasks_per_s));
    m.set("latency_p50_ms", p50);
    m.set("latency_tail_ms", tail);
    m.set("ingest_rows_per_s", by_input_median(&rows_per_s));
    m.set("setup_s", median(&setups));
    Ok(m)
}

/// The traced run: input 0 once untraced (the reference for the tracing
/// overhead) and once with `record_obs` on, spans around every layer call,
/// the obs exports timed, and the per-layer metrics.
pub fn traced(w: Workload, seed: u64, tally: &mut Tally) -> Result<(Metrics, Trace), String> {
    let inp = input(w, seed, 0);
    let plain = tally.attempt(inp.jobs.len(), rep(&inp, false, 0))?;
    let r = tally.attempt(inp.jobs.len(), rep(&inp, true, 0))?;
    tally.verify(
        inp.jobs.len(),
        if r.digest() == plain.digest() {
            check_golden(w, seed, &r.digest())
        } else {
            Err("recording obs changed the run's output".to_string())
        },
    )?;
    let obs = r.report.obs.as_ref().ok_or("traced run recorded no obs")?;
    let j0 = now();
    std::hint::black_box(obs.to_json(true));
    let j1 = now();
    std::hint::black_box(to_otel_string(obs, w.name()));
    let o1 = now();
    tally.verify(inp.jobs.len(), aligned(&r.calls, obs))?;

    let mut t = Trace::new(r.ingest.parse.0);
    let root = t.push(w.name(), (r.ingest.parse.0, o1), None, None);
    t.push("ingest.parse", r.ingest.parse, Some(root), None);
    t.push("ingest.validate", r.ingest.validate, Some(root), None);
    t.push("ingest.convert", r.ingest.convert, Some(root), None);
    t.push("sim.new", r.new, Some(root), None);
    let run = t.push("sim.run", r.run, Some(root), None);
    for c in &r.calls {
        t.push("core.schedule", (c.start, c.end), Some(run), None);
    }
    t.push("obs.to_json", (j0, j1), Some(root), None);
    t.push("obs.otel", (j1, o1), Some(root), None);

    let mut m = Metrics::new();
    ingest_layer(&mut m, &r.ingest);
    let run_s = r.run_s();
    let schedule_s: f64 = r.calls.iter().map(Call::secs).sum();
    let rep = &r.report;
    m.set("sim.new_s", secs(r.new));
    m.set("sim.run_s", run_s);
    m.set("sim.self_s", run_s - schedule_s);
    m.set(
        "sim.self_us_per_task",
        1e6 * (run_s - schedule_s) / r.tasks() as f64,
    );
    m.set("sim.copies_launched", rep.copies_launched as f64);
    m.set(
        "sim.copy_win_ratio",
        ratio(rep.copies_won as f64, rep.copies_launched as f64),
    );
    m.set("sim.task_failures", rep.task_failures as f64);
    m.set("sim.dynamics_events", rep.dynamics_events as f64);
    core_layer(&mut m, obs, &r.calls, schedule_s, run_s);
    m.set("obs.overhead_s", run_s - plain.run_s());
    m.set("obs.task_events", obs.task_events.len() as f64);
    m.set("obs.to_json_s", secs((j0, j1)));
    m.set("obs.otel_s", secs((j1, o1)));
    m.set("trace.explained_share", t.explained(root));
    Ok((m, t))
}

/// The wrapper's calls and the engine's scheduling records are the same
/// instances in the same order: one `SchedRecord` and one `PlannerRecord`
/// per call, each engine-side wall time enclosing the wrapper's, and the
/// wrapper's planned flag agreeing with the planner's counters.
fn aligned(calls: &[Call], obs: &ObsReport) -> Result<(), String> {
    if obs.sched.len() != calls.len() || obs.planner.len() != calls.len() {
        return Err(format!(
            "{} calls vs {} sched / {} planner records",
            calls.len(),
            obs.sched.len(),
            obs.planner.len()
        ));
    }
    for (i, (c, (s, p))) in calls
        .iter()
        .zip(obs.sched.iter().zip(&obs.planner))
        .enumerate()
    {
        let planned = p.tmpl_exact + p.tmpl_patched + p.tmpl_warm + p.tmpl_miss > 0;
        if s.at != p.at || c.secs() > s.wall_secs + 1e-6 || c.planned != planned {
            return Err(format!("call {i} does not line up with its records"));
        }
    }
    Ok(())
}

/// The `ingest.*` metrics of one ingest.
pub fn ingest_layer(m: &mut Metrics, i: &Ingested) {
    m.set("ingest.parse_s", secs(i.parse));
    m.set("ingest.validate_s", secs(i.validate));
    m.set("ingest.convert_s", secs(i.convert));
    m.set("ingest.rows", i.rows as f64);
    m.set("ingest.bytes", i.bytes as f64);
}

/// The `core.*` and `net.*` metrics from the engine's records, with the
/// call durations measured around `schedule()`. `calls` is empty when the
/// scheduler could not be wrapped (the service builds its own), in which
/// case the engine-side wall times stand in.
pub fn core_layer(m: &mut Metrics, obs: &ObsReport, calls: &[Call], schedule_s: f64, run_s: f64) {
    let wall: Vec<f64> = if calls.is_empty() {
        obs.sched.iter().map(|s| s.wall_secs).collect()
    } else {
        calls.iter().map(Call::secs).collect()
    };
    let lp = |p: &tetrium::obs::PlannerRecord| p.tmpl_warm + p.tmpl_miss > 0;
    let lp_call_s: f64 = wall
        .iter()
        .zip(&obs.planner)
        .filter(|(_, p)| lp(p))
        .map(|(w, _)| w)
        .sum();
    let sum = |f: fn(&tetrium::obs::PlannerRecord) -> usize| {
        obs.planner.iter().map(f).sum::<usize>() as f64
    };
    let (exact, patched) = (sum(|p| p.tmpl_exact), sum(|p| p.tmpl_patched));
    let (warm, miss) = (sum(|p| p.tmpl_warm), sum(|p| p.tmpl_miss));
    let assignments: usize = obs.sched.iter().map(|s| s.assignments).sum();
    let launched: usize = obs.sched.iter().map(|s| s.launched).sum();
    m.set("core.calls", wall.len() as f64);
    m.set(
        "core.planning_calls",
        obs.sched.iter().filter(|s| s.unlaunched > 0).count() as f64,
    );
    m.set("core.schedule_s", schedule_s);
    m.set("core.schedule_share", ratio(schedule_s, run_s));
    m.set(
        "core.snapshot_tasks",
        obs.sched.iter().map(|s| s.unlaunched).sum::<usize>() as f64,
    );
    m.set("core.assignments", assignments as f64);
    m.set(
        "core.launch_ratio",
        ratio(launched as f64, assignments as f64),
    );
    m.set(
        "core.lp_calls",
        obs.planner.iter().filter(|p| lp(p)).count() as f64,
    );
    m.set("core.lp_call_s", lp_call_s);
    m.set("core.nolp_call_s", wall.iter().sum::<f64>() - lp_call_s);
    m.set("core.lp_planned", sum(|p| p.lp_planned));
    m.set("core.cache_reused", sum(|p| p.cache_reused));
    m.set("core.local_planned", sum(|p| p.local_planned));
    m.set("core.tmpl_exact", exact);
    m.set("core.tmpl_patched", patched);
    m.set("core.tmpl_warm", warm);
    m.set("core.tmpl_miss", miss);
    m.set(
        "core.tmpl_hit_ratio",
        ratio(exact + patched, exact + patched + warm + miss),
    );
    m.set("core.warm_pivots", sum(|p| p.warm_pivots));
    m.set("net.link_samples", obs.link_timeline.len() as f64);
}
