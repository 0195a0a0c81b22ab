//! Pins the engine's attempt paths that no figure or benchmark workload
//! reaches: speculative copies under a fetch-concurrency cap, copies mixed
//! with failure injection, and a site outage that strikes mid-fetch while
//! copies run. Each scenario runs a few seeds and compares an FNV-1a digest
//! of everything the run reports (except wall-clock time) with the value
//! recorded when the digest was introduced. A change to the engine that
//! alters any outcome, trace row, counter, WAN total, observability byte or
//! scheduler snapshot changes a digest.
//!
//! When a digest changes on purpose, the failure message prints the new
//! values to paste into the scenario's table.

use std::sync::{Arc, Mutex};
use tetrium_cluster::{
    Cluster, DataDistribution, DynamicsChange, DynamicsEvent, DynamicsTimeline, Site, SiteId,
};
use tetrium_jobs::{Job, JobId, StageKind};
use tetrium_obs::TaskPhaseEvent;
use tetrium_sim::{
    BatchPolicy, Engine, EngineConfig, RunReport, Scheduler, Snapshot, SpeculationConfig,
    StagePlan, TaskAssignment, TaskPhase,
};

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn usize(&mut self, x: usize) {
        self.u64(x as u64);
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }
}

/// Places map tasks at their input site while it has slots (elsewhere at
/// the site with the most free slots), and reduce tasks round-robin over
/// live sites. Every snapshot it sees — task phases, running sites, slot
/// and bandwidth reports — is folded into a shared digest, so the engine's
/// snapshot semantics are pinned along with its outputs.
struct PinScheduler {
    seen: Arc<Mutex<Fnv>>,
}

impl Scheduler for PinScheduler {
    fn name(&self) -> &str {
        "pin"
    }

    fn schedule(&mut self, snap: &Snapshot) -> Vec<StagePlan> {
        let mut h = self.seen.lock().unwrap();
        h.f64(snap.now);
        for s in &snap.sites {
            h.usize(s.slots);
            h.usize(s.free_slots);
            h.f64(s.up_gbps);
            h.f64(s.down_gbps);
        }
        let live: Vec<SiteId> = (0..snap.sites.len())
            .filter(|&x| snap.sites[x].slots > 0)
            .map(SiteId)
            .collect();
        let roomiest = (0..snap.sites.len())
            .max_by_key(|&x| (snap.sites[x].free_slots, std::cmp::Reverse(x)))
            .map(SiteId)
            .unwrap();
        let mut plans = Vec::new();
        for job in &snap.jobs {
            h.usize(job.id.index());
            for st in &job.runnable {
                h.usize(st.stage_index);
                let mut assignments = Vec::new();
                for task in &st.tasks {
                    h.usize(task.index);
                    h.u64(match task.phase {
                        TaskPhase::Unlaunched => 0,
                        TaskPhase::Running => 1,
                        TaskPhase::Done => 2,
                    });
                    h.usize(task.running_site.map_or(usize::MAX, |s| s.index()));
                    if task.phase != TaskPhase::Unlaunched || live.is_empty() {
                        continue;
                    }
                    let site = match (st.kind, task.input_site) {
                        (StageKind::Map, Some(src)) if snap.sites[src.index()].slots > 0 => src,
                        (StageKind::Map, _) => roomiest,
                        (StageKind::Reduce, _) => live[(task.index + job.id.index()) % live.len()],
                    };
                    assignments.push(TaskAssignment {
                        task: task.index,
                        site,
                        priority: task.index as i64,
                    });
                }
                plans.push(StagePlan {
                    job: job.id,
                    stage: st.stage_index,
                    assignments,
                });
            }
        }
        plans
    }
}

fn cluster() -> Cluster {
    Cluster::new(vec![
        Site::new("a", 4, 1.0, 1.0),
        Site::new("b", 3, 0.5, 1.0),
        Site::new("c", 3, 1.0, 0.5),
    ])
}

fn jobs() -> Vec<Job> {
    // (arrival, input GB per site, maps, map secs, ratio, reduces, reduce secs)
    let specs = [
        (0.0, [3.0, 2.0, 2.0], 8, 1.0, 0.8, 6, 1.0),
        (0.7, [1.0, 3.0, 1.5], 6, 0.8, 1.0, 4, 1.5),
        (2.5, [2.0, 0.5, 3.0], 5, 1.2, 0.6, 5, 0.7),
    ];
    specs
        .into_iter()
        .enumerate()
        .map(|(i, (at, input, m, m_s, ratio, r, r_s))| {
            let input = DataDistribution::new(input.to_vec());
            Job::map_reduce(JobId(i), format!("j{i}"), at, input, m, m_s, ratio, r, r_s)
        })
        .collect()
}

/// Scenario (a): stragglers, speculation and a fetch-concurrency cap of one.
fn speculative(seed: u64) -> EngineConfig {
    EngineConfig {
        duration_cv: 0.3,
        straggler_prob: 0.4,
        straggler_mult: (4.0, 30.0),
        speculation: Some(SpeculationConfig {
            threshold: 1.5,
            max_copies_frac: 0.5,
        }),
        max_fetch_concurrency: 1,
        batch: BatchPolicy::Fixed(0.3),
        record_trace: true,
        record_obs: true,
        seed,
        ..EngineConfig::default()
    }
}

/// Everything a run reports except wall-clock time.
fn digest_report(h: &mut Fnv, r: &RunReport) {
    h.bytes(r.scheduler.as_bytes());
    for j in &r.jobs {
        h.usize(j.id.index());
        h.bytes(j.name.as_bytes());
        for x in [
            j.arrival,
            j.finished,
            j.response,
            j.wan_gb,
            j.input_gb,
            j.intermediate_gb,
            j.input_skew_cv,
            j.est_error,
        ] {
            h.f64(x);
        }
        h.usize(j.num_stages);
        h.usize(j.total_tasks);
        for &(a, f) in &j.stage_spans {
            h.f64(a);
            h.f64(f);
        }
    }
    h.f64(r.makespan);
    h.f64(r.total_wan_gb);
    for c in [
        r.sched_invocations,
        r.copies_launched,
        r.copies_won,
        r.task_failures,
        r.dynamics_events,
    ] {
        h.usize(c);
    }
    for t in &r.trace {
        h.usize(t.job.index());
        h.usize(t.stage);
        h.usize(t.task);
        h.usize(t.site.index());
        h.f64(t.launched_at);
        h.f64(t.compute_started);
        h.f64(t.finished_at);
        h.u64(u64::from(t.was_copy));
    }
    let obs = r.obs.as_ref().expect("obs recorded");
    h.bytes(obs.to_json(false).to_string().as_bytes());
}

/// Runs one seed and returns `(report digest, snapshot digest, report)`.
fn run(cfg: EngineConfig, dynamics: DynamicsTimeline) -> (u64, u64, RunReport) {
    let seen = Arc::new(Mutex::new(Fnv::new()));
    let sched = PinScheduler {
        seen: Arc::clone(&seen),
    };
    let report = Engine::new(cluster(), jobs(), Box::new(sched), cfg)
        .with_dynamics(dynamics)
        .run()
        .expect("run completes");
    let per_job: f64 = report.jobs.iter().map(|j| j.wan_gb).sum();
    assert!(
        (per_job - report.total_wan_gb).abs() < 1e-6,
        "per-job WAN {per_job} != flow simulator WAN {}",
        report.total_wan_gb
    );
    let mut h = Fnv::new();
    digest_report(&mut h, &report);
    let snap = seen.lock().unwrap().0;
    (h.0, snap, report)
}

/// Asserts the digests of `seeds` against `pins` (one `(report, snapshot)`
/// pair per seed) and returns the reports for coverage checks.
fn check(
    name: &str,
    pins: &[(u64, u64)],
    mk: impl Fn(u64) -> (EngineConfig, DynamicsTimeline),
) -> Vec<RunReport> {
    let mut got = Vec::new();
    let mut reports = Vec::new();
    for seed in 0..pins.len() as u64 {
        let (cfg, dynamics) = mk(seed);
        let (r, s, report) = run(cfg, dynamics);
        got.push((r, s));
        reports.push(report);
    }
    let fmt: Vec<String> = got
        .iter()
        .map(|(r, s)| format!("({r:#018x}, {s:#018x})"))
        .collect();
    assert_eq!(
        got,
        pins,
        "scenario {name}: digests changed; new values: [{}]",
        fmt.join(", ")
    );
    reports
}

/// Sums `count` over the reports of one scenario.
fn total(reports: &[RunReport], count: impl Fn(&RunReport) -> usize) -> usize {
    reports.iter().map(count).sum()
}

#[test]
fn speculation_with_capped_fetches_is_pinned() {
    let reports = check(
        "a",
        &[
            (0x110ebb12d6045de3, 0xcb2a255b20c5c848),
            (0x6c088183083e3bcf, 0x608f41f6a757c822),
            (0x17af0cbbd7a8f1aa, 0x1374897799c4e5ff),
            (0xa14de7bac06f030d, 0x42185666d1aa330f),
        ],
        |seed| (speculative(seed), DynamicsTimeline::default()),
    );
    let won = total(&reports, |r| r.copies_won);
    assert!(won > 0 && won < total(&reports, |r| r.copies_launched));
}

#[test]
fn speculation_with_failures_is_pinned() {
    let reports = check(
        "b",
        &[
            (0xfc5f65f72940e286, 0x73a9be1f5a33dd7e),
            (0x53b3a0a02fceed06, 0xf1e366a4a9bd2875),
            (0x5cd3b6f4c05d6771, 0x5c9359a8d7728abb),
            (0x141b7d66fe3985a1, 0xdae4583ccdc07b23),
        ],
        |seed| {
            let cfg = EngineConfig {
                failure_prob: 0.15,
                ..speculative(seed)
            };
            (cfg, DynamicsTimeline::default())
        },
    );
    assert!(total(&reports, |r| r.copies_won) > 0);
    assert!(total(&reports, |r| r.task_failures) > 0);
}

#[test]
fn outage_mid_fetch_with_speculation_is_pinned() {
    const OUTAGE_AT: f64 = 10.5;
    let reports = check(
        "c",
        &[
            (0x1f6587eed4b1c444, 0x95dda069d6eaa9c9),
            (0x90ca96b18256eb16, 0x68abb54d2ececf80),
            (0x9df7dee078cecb3b, 0xd5ddf4a31696b57b),
            (0x01e8327a45f1dec4, 0x0d471d64912bb272),
        ],
        |seed| {
            let dynamics = DynamicsTimeline::new(vec![
                DynamicsEvent::new(SiteId(0), OUTAGE_AT, DynamicsChange::Outage),
                DynamicsEvent::new(SiteId(0), 13.3, DynamicsChange::Recover),
            ]);
            (speculative(seed), dynamics)
        },
    );
    assert!(total(&reports, |r| r.copies_won) > 0);
    // The outage kills an original that is still fetching, and tears down
    // a copy at the dead site.
    let mut fetching_killed = 0;
    let mut copies_torn_down = 0;
    for r in &reports {
        let events = &r.obs.as_ref().expect("obs recorded").task_events;
        for (i, e) in events.iter().enumerate() {
            if e.t != OUTAGE_AT || e.site != SiteId(0) {
                continue;
            }
            match e.phase {
                TaskPhaseEvent::Failed => {
                    let last = events[..i]
                        .iter()
                        .rev()
                        .find(|p| {
                            (p.job, p.stage, p.task, p.copy) == (e.job, e.stage, e.task, false)
                        })
                        .map(|p| p.phase);
                    if last == Some(TaskPhaseEvent::Fetching) {
                        fetching_killed += 1;
                    }
                }
                TaskPhaseEvent::Cancelled if e.copy => copies_torn_down += 1,
                _ => {}
            }
        }
    }
    assert!(fetching_killed > 0, "no outage struck a fetching original");
    assert!(copies_torn_down > 0, "no outage tore down a copy");
}
