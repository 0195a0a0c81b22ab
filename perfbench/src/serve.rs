//! The service workload (serve-30): trace-like jobs through
//! `tetrium-serve`, first as a held burst (every job queued before the
//! shards open, so each shard runs one epoch and the report is
//! deterministic), then as an open loop at a fixed rate, timed from each
//! job's due time to its `Finished` event.

use crate::calib;
use crate::ingest::{ingest, Ingested};
use crate::inputs::{input, Input, Workload, SERVE_BURST_JOBS};
use crate::report::{peak_rss_mb, Metrics, Tally};
use crate::sim::{core_layer, ingest_layer};
use crate::spans::Trace;
use crate::stats::{by_input_median, median, open_loop as open_loop_latency, percentile};
use crate::stats::{ratio, sorted, OpenLoopJob};
use crate::timed::{now, secs};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use tetrium::cluster::Cluster;
use tetrium::obs::{to_otel_string, ObsReport};
use tetrium::sim::{EngineConfig, RunReport};
use tetrium_serve::{Job, JobEvent, SchedulerKind, ServeConfig, ServeReport, TetriumService};
use tokio::sync::broadcast::error::RecvError;

/// Engine shards of the service.
const SHARDS: usize = 2;

/// Open-loop submission rate, jobs per second: about a quarter of the
/// burst capacity, so the queue stays short and latency tracks service
/// time even while a slow host halves that capacity.
const RATE: f64 = 10.0;

/// Inputs every measured run covers, whatever the time budget (their 128
/// open-loop jobs leave ten beyond p90 with room to spare).
const MIN_INPUTS: u64 = 8;

/// Extra empty sessions timed per input, so `setup_s` is a median of many
/// set-ups.
const EXTRA_SETUPS: usize = 10;

/// What one service session observed.
pub struct Session {
    /// The merged report `join` returned.
    pub report: ServeReport,
    /// Every lifecycle event, stamped when the listener received it.
    pub events: Vec<(Instant, JobEvent)>,
    /// Events the listener missed to `Lagged` gaps.
    pub lagged: u64,
    /// Runtime build + `TetriumService::start`.
    pub start: (Instant, Instant),
    /// `open` + `join`.
    pub join: (Instant, Instant),
}

/// Runs one service session. This is the only code that knows how the
/// service is driven: it builds the runtime, starts the service (`held`:
/// submissions wait until `open`), listens to `subscribe()` on a thread of
/// its own, hands `feed` a blocking submit, then opens and joins.
pub fn session(
    cluster: &Cluster,
    cfg: &ServeConfig,
    held: bool,
    feed: impl FnOnce(&mut dyn FnMut(Job) -> Result<(), String>) -> Result<(), String>,
) -> Result<Session, String> {
    let s0 = now();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(SHARDS));
    let rt = tokio::runtime::Builder::new_multi_thread()
        .worker_threads(workers)
        .build()
        .map_err(|e| format!("runtime: {e}"))?;
    let svc = rt.block_on(async {
        if held {
            TetriumService::start_held(cluster, cfg)
        } else {
            TetriumService::start(cluster, cfg)
        }
    });
    let s1 = now();
    let mut rx = svc.subscribe();
    let rt = &rt;
    std::thread::scope(|scope| {
        let listener = scope.spawn(move || {
            let (mut events, mut lagged) = (Vec::new(), 0);
            loop {
                match rt.block_on(rx.recv()) {
                    Ok(e) => events.push((now(), e)),
                    Err(RecvError::Lagged(n)) => lagged += n,
                    Err(RecvError::Closed) => return (events, lagged),
                }
            }
        });
        let fed = feed(&mut |job| {
            rt.block_on(svc.submit(job))
                .map(drop)
                .map_err(|e| e.to_string())
        });
        let j0 = now();
        svc.open();
        let joined = rt.block_on(svc.join());
        let j1 = now();
        let (events, lagged) = listener
            .join()
            .map_err(|_| "event listener panicked".to_string())?;
        fed?;
        Ok(Session {
            report: joined.map_err(|e| e.to_string())?,
            events,
            lagged,
            start: (s0, s1),
            join: (j0, j1),
        })
    })
}

fn config(input: &Input, record_obs: bool) -> ServeConfig {
    ServeConfig {
        shards: SHARDS,
        scheduler: SchedulerKind::TetriumWith(input.tetrium.clone()),
        engine: EngineConfig {
            record_obs,
            ..input.engine.clone()
        },
        // A held burst must fit in the queues, or its submits would wait
        // for an `open` that only comes after them.
        queue_depth: SERVE_BURST_JOBS,
        // Traced sessions also fan out every task transition.
        event_capacity: if record_obs { 1 << 17 } else { 1024 },
    }
}

/// One submission: job id, when it was due, and the submit call.
type Submission = (usize, Instant, (Instant, Instant));

/// A session fed by the benchmark, with its submissions.
pub struct Fed {
    /// The session.
    pub session: Session,
    /// Submissions in order.
    pub sends: Vec<Submission>,
    /// Tasks across the submitted jobs.
    pub tasks: usize,
}

impl Fed {
    /// When each job's event of kind `pick` arrived, by job id.
    fn seen(&self, pick: fn(&JobEvent) -> Option<usize>) -> BTreeMap<usize, Instant> {
        self.session
            .events
            .iter()
            .filter_map(|(t, e)| pick(e).map(|id| (id, *t)))
            .collect()
    }

    fn finished(&self) -> BTreeMap<usize, Instant> {
        self.seen(|e| match e {
            JobEvent::Finished { job, .. } => Some(job.0),
            _ => None,
        })
    }

    fn admitted(&self) -> BTreeMap<usize, Instant> {
        self.seen(|e| match e {
            JobEvent::Admitted { job, .. } => Some(job.0),
            _ => None,
        })
    }

    /// Tasks per second from the first submit to `join` returning.
    fn tasks_per_s(&self) -> f64 {
        let first = self.sends.first().map_or(self.session.join.0, |s| s.2 .0);
        self.tasks as f64 / (self.session.join.1 - first).as_secs_f64()
    }

    /// Canonical JSON of the report: virtual-time quantities only.
    fn digest(&self) -> String {
        self.session.report.to_json().to_string()
    }

    /// Open-loop latencies from due time and the generator's worst
    /// lateness, both in seconds.
    fn latencies(&self) -> Result<(Vec<f64>, f64), String> {
        let start = self.session.start.1;
        let at = |t: Instant| t.saturating_duration_since(start).as_secs_f64();
        let finished = self.finished();
        let jobs: Vec<OpenLoopJob> = self
            .sends
            .iter()
            .map(|&(id, due, (sent, _))| OpenLoopJob {
                due: at(due),
                sent: at(sent),
                done: finished.get(&id).map(|&t| at(t)),
            })
            .collect();
        open_loop_latency(&jobs).map_err(|k| format!("no Finished event for open-loop job {k}"))
    }
}

/// Submits every job to a held service, then opens it.
fn burst(input: &Input, jobs: Vec<Job>, record_obs: bool) -> Result<Fed, String> {
    let tasks = jobs.iter().map(Job::total_tasks).sum();
    let mut sends = Vec::with_capacity(jobs.len());
    let session = session(&input.cluster, &config(input, record_obs), true, |submit| {
        for job in jobs {
            let id = job.id.0;
            let t0 = now();
            submit(job)?;
            sends.push((id, t0, (t0, now())));
        }
        Ok(())
    })?;
    let fed = Fed {
        session,
        sends,
        tasks,
    };
    check(&fed)?;
    Ok(fed)
}

/// Submits job `k` at `k / RATE` seconds after the service started,
/// whether or not earlier jobs finished.
fn open_loop(input: &Input, jobs: Vec<Job>, record_obs: bool) -> Result<Fed, String> {
    let tasks = jobs.iter().map(Job::total_tasks).sum();
    let mut sends = Vec::with_capacity(jobs.len());
    let session = session(
        &input.cluster,
        &config(input, record_obs),
        false,
        |submit| {
            let start = now();
            for (k, job) in jobs.into_iter().enumerate() {
                let due = start + Duration::from_secs_f64(k as f64 / RATE);
                if let Some(wait) = due.checked_duration_since(now()) {
                    std::thread::sleep(wait);
                }
                let id = job.id.0;
                let sent = now();
                submit(job)?;
                sends.push((id, due, (sent, now())));
            }
            Ok(())
        },
    )?;
    let fed = Fed {
        session,
        sends,
        tasks,
    };
    check(&fed)?;
    fed.latencies()?;
    Ok(fed)
}

/// The report holds exactly the submitted jobs, each finished, and each
/// shard's per-job WAN sums to its total.
fn check(fed: &Fed) -> Result<(), String> {
    let report = &fed.session.report;
    let mut got: Vec<usize> = report
        .shards
        .iter()
        .flat_map(|s| s.report.jobs.iter().map(|j| j.id.0))
        .collect();
    let mut want: Vec<usize> = fed.sends.iter().map(|s| s.0).collect();
    got.sort_unstable();
    want.sort_unstable();
    if got != want {
        return Err(format!(
            "service reported {} jobs for {} submitted",
            got.len(),
            want.len()
        ));
    }
    for s in &report.shards {
        let r = &s.report;
        let per_job: f64 = r.jobs.iter().map(|j| j.wan_gb).sum();
        if (per_job - r.total_wan_gb).abs() > 1e-6 * r.total_wan_gb.max(1.0) {
            return Err(format!("shard {} per-job WAN != total", s.shard));
        }
        if r.jobs
            .iter()
            .any(|j| !(j.finished.is_finite() && j.response >= 0.0))
        {
            return Err(format!("shard {} has an unfinished job", s.shard));
        }
    }
    Ok(())
}

/// One repetition: ingest the input, burst its first jobs, open-loop the
/// rest.
struct Rep {
    ingest: Ingested,
    burst: Fed,
    open: Fed,
}

fn rep(input: &Input, record_obs: bool) -> Result<Rep, String> {
    let ingest = ingest(input)?;
    let mut jobs = ingest.scenario.jobs.clone();
    let rest = jobs.split_off(SERVE_BURST_JOBS.min(jobs.len()));
    let burst = burst(input, jobs, record_obs)?;
    let open = open_loop(input, rest, record_obs)?;
    Ok(Rep {
        ingest,
        burst,
        open,
    })
}

/// Times `n` empty sessions: runtime build + start only.
fn extra_setups(input: &Input, n: usize) -> Result<Vec<f64>, String> {
    (0..n)
        .map(|_| {
            session(&input.cluster, &config(input, false), false, |_| Ok(())).map(|s| secs(s.start))
        })
        .collect()
}

/// The untraced measurement: new inputs until the budget would run out
/// (at least [`MIN_INPUTS`]), then input 0's burst again to check that a
/// held burst is deterministic. Times are scaled to reference-host seconds
/// by the calibration loop, run on both shard cores between inputs.
pub fn measure(seed: u64, budget: Duration, tally: &mut Tally) -> Result<Metrics, String> {
    let begin = now();
    let mut m = Metrics::new();
    let mut tasks_per_s: Vec<(u64, f64)> = Vec::new();
    let mut rows_per_s: Vec<(u64, f64)> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    let mut latencies: Vec<f64> = Vec::new();
    let mut slowdowns: Vec<f64> = Vec::new();
    let mut host = calib::slowdown(SHARDS);
    // The slowdown over the input that just ended.
    let mut during = || {
        let after = calib::slowdown(SHARDS);
        let s = host.between(after);
        host = after;
        slowdowns.push(s.all);
        s
    };
    let mut first: Option<(Input, Vec<Job>, String)> = None;
    let mut i = 0;
    loop {
        let inp = input(Workload::Serve30, seed, i);
        let r = tally.attempt(inp.jobs.len(), rep(&inp, false))?;
        let extra = extra_setups(&inp, EXTRA_SETUPS)?;
        // Ingest ran on this thread alone; the service on both cores.
        let calib::Slowdown { here, all: s } = during();
        tasks_per_s.push((i, s * r.burst.tasks_per_s()));
        rows_per_s.push((i, here * r.ingest.rows as f64 / r.ingest.secs()));
        setups.extend([secs(r.burst.session.start), secs(r.open.session.start)].map(|t| t / s));
        setups.extend(extra.iter().map(|t| t / s));
        latencies.extend(r.open.latencies()?.0.iter().map(|l| 1e3 * l / s));
        if first.is_none() {
            // After the one input every run covers: later inputs would make
            // the peak depend on how many a fast build fits in.
            m.set("peak_rss_mb", peak_rss_mb()?);
            let jobs = r.ingest.scenario.jobs[..r.burst.sends.len()].to_vec();
            first = Some((inp, jobs, r.burst.digest()));
        }
        i += 1;
        let elapsed = begin.elapsed();
        let per_input = elapsed / u32::try_from(i).unwrap_or(u32::MAX);
        if i >= MIN_INPUTS && elapsed + 2 * per_input > budget {
            break;
        }
    }
    let (inp0, jobs0, digest0) = first.ok_or("no input ran")?;
    let n0 = jobs0.len();
    let again = tally.attempt(n0, burst(&inp0, jobs0, false))?;
    tally.verify(
        n0,
        if again.digest() == digest0 {
            Ok(())
        } else {
            Err("input 0's held burst is not deterministic".to_string())
        },
    )?;
    let s = during().all;
    tasks_per_s.push((0, s * again.tasks_per_s()));
    setups.push(secs(again.session.start) / s);

    let latencies = sorted(latencies);
    let p50 = percentile(&latencies, 0.5).ok_or("too few open-loop jobs for p50")?;
    let p90 = percentile(&latencies, 0.9).ok_or("too few open-loop jobs for p90")?;
    println!(
        "# {i} inputs, {} bursts, {} open-loop jobs at {RATE} jobs/s (latency = due time to Finished, tail = p90); host slowdown {:.3}",
        tasks_per_s.len(),
        latencies.len(),
        median(&slowdowns)
    );
    m.set("tasks_per_s", by_input_median(&tasks_per_s));
    m.set("latency_p50_ms", p50);
    m.set("latency_tail_ms", p90);
    m.set("ingest_rows_per_s", by_input_median(&rows_per_s));
    m.set("setup_s", median(&setups));
    Ok(m)
}

/// Every shard report's obs, concatenated shard by shard (each shard's
/// scheduling and planner records stay index-aligned).
fn merged_obs<'a>(reports: impl Iterator<Item = &'a RunReport>) -> Result<ObsReport, String> {
    let mut all = ObsReport::default();
    for r in reports {
        let o = r.obs.as_ref().ok_or("traced shard recorded no obs")?;
        if o.sched.len() != o.planner.len() {
            return Err("a shard's sched and planner records are misaligned".into());
        }
        all.sched.extend(&o.sched);
        all.planner.extend(&o.planner);
        all.link_timeline.extend(o.link_timeline.iter().cloned());
    }
    Ok(all)
}

/// Wall seconds the shards spent stepping epochs: from an epoch's first
/// `Admitted` to its `Idle`, summed over shards.
fn busy_secs(events: &[(Instant, JobEvent)]) -> f64 {
    let mut open: BTreeMap<usize, Instant> = BTreeMap::new();
    let mut busy = 0.0;
    for (t, e) in events {
        match e {
            JobEvent::Admitted { shard, .. } => {
                open.entry(*shard).or_insert(*t);
            }
            JobEvent::Idle { shard, .. } => {
                if let Some(t0) = open.remove(shard) {
                    busy += (*t - t0).as_secs_f64();
                }
            }
            _ => {}
        }
    }
    busy
}

/// The traced run: input 0's burst once untraced (the reference for the
/// tracing overhead), then the whole repetition with `record_obs` on,
/// spans around every service call and one span per job.
pub fn traced(seed: u64, tally: &mut Tally) -> Result<(Metrics, Trace), String> {
    let inp = input(Workload::Serve30, seed, 0);
    let plain = tally.attempt(
        SERVE_BURST_JOBS,
        ingest(&inp).and_then(|i| burst(&inp, i.scenario.jobs[..SERVE_BURST_JOBS].to_vec(), false)),
    )?;
    let r = tally.attempt(inp.jobs.len(), rep(&inp, true))?;
    tally.verify(
        SERVE_BURST_JOBS,
        if r.burst.digest() == plain.digest() {
            Ok(())
        } else {
            Err("recording obs changed the burst's output".to_string())
        },
    )?;
    let reports: Vec<&RunReport> = [&r.burst, &r.open]
        .iter()
        .flat_map(|f| f.session.report.shards.iter().map(|s| &s.report))
        .collect();
    let j0 = now();
    for rep in &reports {
        if let Some(o) = &rep.obs {
            std::hint::black_box(o.to_json(true));
        }
    }
    let j1 = now();
    for rep in &reports {
        if let Some(o) = &rep.obs {
            std::hint::black_box(to_otel_string(o, Workload::Serve30.name()));
        }
    }
    let o1 = now();
    let obs = tally.verify(inp.jobs.len(), merged_obs(reports.iter().copied()))?;

    let mut t = Trace::new(r.ingest.parse.0);
    let root = t.push(Workload::Serve30.name(), (r.ingest.parse.0, o1), None, None);
    t.push("ingest.parse", r.ingest.parse, Some(root), None);
    t.push("ingest.validate", r.ingest.validate, Some(root), None);
    t.push("ingest.convert", r.ingest.convert, Some(root), None);
    for (name, fed) in [("serve.burst", &r.burst), ("serve.open_loop", &r.open)] {
        let s = &fed.session;
        let phase = t.push(name, (s.start.0, s.join.1), Some(root), None);
        t.push("serve.start", s.start, Some(phase), None);
        // The open loop's generator mostly sleeps until the next due time:
        // that idle stays the phase's own self time.
        if let (Some(a), Some(b), true) =
            (fed.sends.first(), fed.sends.last(), name == "serve.burst")
        {
            t.push("serve.submit", (a.2 .0, b.2 .1), Some(phase), None);
        }
        let finished = fed.finished();
        for &(id, due, _) in &fed.sends {
            if let Some(&done) = finished.get(&id) {
                t.push("serve.job", (due, done), Some(phase), Some(id));
            }
        }
        t.push("serve.join", s.join, Some(phase), None);
    }
    t.push("obs.to_json", (j0, j1), Some(root), None);
    t.push("obs.otel", (j1, o1), Some(root), None);

    let mut m = Metrics::new();
    ingest_layer(&mut m, &r.ingest);
    let busy: f64 = [&r.burst, &r.open]
        .iter()
        .map(|f| busy_secs(&f.session.events))
        .sum();
    let schedule_s: f64 = obs.sched.iter().map(|s| s.wall_secs).sum();
    let tasks = r.burst.tasks + r.open.tasks;
    let total = |f: fn(&RunReport) -> usize| reports.iter().map(|r| f(r)).sum::<usize>() as f64;
    m.set("sim.run_s", busy);
    m.set("sim.self_s", busy - schedule_s);
    m.set(
        "sim.self_us_per_task",
        1e6 * (busy - schedule_s) / tasks as f64,
    );
    m.set("sim.copies_launched", total(|r| r.copies_launched));
    m.set(
        "sim.copy_win_ratio",
        ratio(total(|r| r.copies_won), total(|r| r.copies_launched)),
    );
    m.set("sim.task_failures", total(|r| r.task_failures));
    m.set("sim.dynamics_events", total(|r| r.dynamics_events));
    core_layer(&mut m, &obs, &[], schedule_s, busy);
    let task_events = [&r.burst, &r.open]
        .iter()
        .flat_map(|f| &f.session.events)
        .filter(|(_, e)| matches!(e, JobEvent::Task { .. }))
        .count();
    m.set(
        "obs.overhead_s",
        secs(r.burst.session.join) - secs(plain.session.join),
    );
    m.set("obs.task_events", task_events as f64);
    m.set("obs.to_json_s", secs((j0, j1)));
    m.set("obs.otel_s", secs((j1, o1)));

    let submits: Vec<f64> = [&r.burst, &r.open]
        .iter()
        .flat_map(|f| f.sends.iter().map(|s| secs(s.2) * 1e6))
        .collect();
    let (admitted, finished) = (r.open.admitted(), r.open.finished());
    let mut waits = Vec::new();
    let mut service = Vec::new();
    for &(id, due, _) in &r.open.sends {
        if let (Some(&a), Some(&f)) = (admitted.get(&id), finished.get(&id)) {
            waits.push(a.saturating_duration_since(due).as_secs_f64() * 1e3);
            service.push(f.saturating_duration_since(a).as_secs_f64() * 1e3);
        }
    }
    let idles = r
        .open
        .session
        .events
        .iter()
        .filter(|(_, e)| matches!(e, JobEvent::Idle { .. }))
        .count();
    let (_, late) = r.open.latencies()?;
    m.set(
        "serve.start_s",
        median(&[secs(r.burst.session.start), secs(r.open.session.start)]),
    );
    m.set("serve.submit_p50_us", median(&submits));
    m.set("serve.queue_wait_p50_ms", median(&waits));
    m.set("serve.service_p50_ms", median(&service));
    m.set("serve.epochs", idles as f64);
    m.set(
        "serve.jobs_per_epoch",
        ratio(r.open.sends.len() as f64, idles as f64),
    );
    m.set(
        "serve.lagged",
        (r.burst.session.lagged + r.open.session.lagged) as f64,
    );
    m.set("serve.gen_late_ms", late * 1e3);
    m.set("serve.join_s", secs(r.burst.session.join));
    m.set("trace.explained_share", t.explained(root));
    Ok((m, t))
}
