//! Runtime state of jobs, stages and tasks inside the engine.

use std::sync::Arc;
use tetrium_cluster::{DataDistribution, SiteId};
use tetrium_jobs::{largest_remainder_round, Job, StageKind};
use tetrium_net::FlowKey;

/// Lifecycle of a task inside the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskState {
    /// Waiting for an assignment and a free slot.
    Unlaunched,
    /// The original attempt holds a slot (a speculative copy, if any, lives
    /// beside it in the engine's copy map).
    Running(Attempt),
    /// Finished. Holds the site of the original's last attempt, which
    /// snapshots report as the task's running site: `None` when the
    /// original had failed before a copy won.
    Done(Option<SiteId>),
}

impl TaskState {
    /// Takes the original attempt out, leaving the task unlaunched; any
    /// other state is left as it is.
    pub fn take_running(&mut self) -> Option<Attempt> {
        if !matches!(self, TaskState::Running(_)) {
            return None;
        }
        match std::mem::replace(self, TaskState::Unlaunched) {
            TaskState::Running(a) => Some(a),
            _ => None,
        }
    }
}

/// One attempt of a task, the original or a speculative copy (§8's
/// straggler mitigation), holding a slot at `site` from launch until it
/// finishes, fails or is cancelled.
#[derive(Debug, Clone, PartialEq)]
pub struct Attempt {
    /// Site the attempt occupies a slot at.
    pub site: SiteId,
    /// Compute seconds, sampled at launch.
    pub secs: f64,
    /// When the attempt occupied its slot.
    pub launched_at: f64,
    /// Where the attempt is in its run.
    pub phase: Phase,
    /// `None` for the original; a copy's id, unique over the run, so the
    /// completion event of a cancelled copy is not taken for a later one.
    pub copy: Option<u64>,
}

/// Phase of a running attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum Phase {
    /// Its input flows drain.
    Fetching {
        /// Flows currently in flight.
        pending: Vec<FlowKey>,
        /// Fetches not yet opened `(source, GB)`; drained as in-flight
        /// flows finish, bounding per-attempt fetch concurrency like a real
        /// shuffle client.
        queued: Vec<(SiteId, f64)>,
    },
    /// Computing since `started`; finishes at `done_at`.
    Computing {
        /// When the compute phase began.
        started: f64,
        /// Absolute completion time.
        done_at: f64,
    },
}

/// Runtime record of one task.
#[derive(Debug, Clone)]
pub struct TaskRt {
    /// For map tasks, the site holding the input partition.
    pub input_site: Option<SiteId>,
    /// Input volume in GB (partition size for map; total shuffle share for
    /// reduce).
    pub input_gb: f64,
    /// Share of the stage input (reduce key skew; uniform otherwise).
    pub share: f64,
    /// Scheduler-chosen site (None until first assigned).
    pub assigned_site: Option<SiteId>,
    /// Scheduler-chosen launch priority (lower launches first).
    pub priority: i64,
    /// Current lifecycle state.
    pub state: TaskState,
    /// Attempts of this task lost so far (failure injection or site
    /// outage); bounded by `EngineConfig::max_task_retries`.
    pub retries: usize,
}

/// Stage status within the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageStatus {
    /// Some parent stage has not finished.
    Blocked,
    /// Parents finished; tasks may be scheduled.
    Runnable,
    /// All tasks finished.
    Done,
}

/// Runtime record of one stage.
#[derive(Debug)]
pub struct StageRt {
    /// Current status.
    pub status: StageStatus,
    /// Task records (empty until the stage activates).
    pub tasks: Vec<TaskRt>,
    /// Realized input distribution (GB per site), set at activation. Held
    /// behind `Arc` so the launch hot path shares it by reference — cloning
    /// the distribution itself per task is a type error, not a perf bug
    /// waiting to recur.
    pub input: Option<Arc<DataDistribution>>,
    /// Output accumulated at the sites where tasks ran (GB per site).
    pub output: DataDistribution,
    /// Tasks finished so far.
    pub done_tasks: usize,
    /// Estimated mean task seconds shown to the scheduler (true mean plus
    /// estimation error, sampled once per stage).
    pub est_task_secs: f64,
    /// Time the stage became runnable.
    pub activated_at: Option<f64>,
    /// Time the stage finished.
    pub finished_at: Option<f64>,
}

/// Runtime record of one job.
#[derive(Debug)]
pub struct JobRt {
    /// The static description.
    pub job: Job,
    /// Per-stage runtime state.
    pub stages: Vec<StageRt>,
    /// Stages finished so far.
    pub done_stages: usize,
    /// Whether the job has arrived.
    pub arrived: bool,
    /// Completion time, when finished.
    pub finished_at: Option<f64>,
    /// WAN bytes (GB) this job moved across sites.
    pub wan_gb: f64,
}

impl JobRt {
    /// Creates runtime state for a job (stages all blocked/runnable later).
    pub fn new(job: Job, n_sites: usize) -> Self {
        let stages = job
            .stages
            .iter()
            .map(|s| StageRt {
                status: StageStatus::Blocked,
                tasks: Vec::new(),
                input: None,
                output: DataDistribution::zeros(n_sites),
                done_tasks: 0,
                est_task_secs: s.task_secs,
                activated_at: None,
                finished_at: None,
            })
            .collect();
        Self {
            job,
            stages,
            done_stages: 0,
            arrived: false,
            finished_at: None,
            wan_gb: 0.0,
        }
    }

    /// Whether every stage has finished.
    pub fn is_finished(&self) -> bool {
        self.done_stages == self.stages.len()
    }

    /// Stage indices whose parents are all done but which are still blocked —
    /// i.e. stages ready to activate.
    pub fn activatable_stages(&self) -> Vec<usize> {
        (0..self.stages.len())
            .filter(|&i| {
                self.stages[i].status == StageStatus::Blocked
                    && self.job.stages[i]
                        .deps
                        .iter()
                        .all(|&d| self.stages[d].status == StageStatus::Done)
            })
            .collect()
    }

    /// Realized input distribution of stage `i`: the external input for
    /// roots, or the summed realized outputs of its parents.
    pub fn realized_input(&self, i: usize, n_sites: usize) -> DataDistribution {
        let spec = &self.job.stages[i];
        if let Some(input) = &spec.input {
            return input.clone();
        }
        let mut acc = vec![0.0; n_sites];
        for &d in &spec.deps {
            for (s, v) in acc.iter_mut().enumerate() {
                *v += self.stages[d].output.at(SiteId(s));
            }
        }
        DataDistribution::new(acc)
    }
}

/// Builds the task records for a stage activating with realized `input`.
///
/// Map stages split the input into `num_tasks` partitions homed at sites in
/// proportion to the input distribution: every site holding data receives at
/// least one partition when task counts allow, remaining partitions follow
/// largest-remainder on volume, and each site's partitions share its volume
/// equally. Reduce tasks read `share_i` of every site's data; their
/// `input_gb` is the total volume they consume.
pub fn build_tasks(
    kind: StageKind,
    num_tasks: usize,
    input: &DataDistribution,
    task_share: impl Fn(usize) -> f64,
) -> Vec<TaskRt> {
    let blank = |input_site, input_gb, share| TaskRt {
        input_site,
        input_gb,
        share,
        assigned_site: None,
        priority: i64::MAX,
        state: TaskState::Unlaunched,
        retries: 0,
    };
    match kind {
        StageKind::Map => {
            let n_sites = input.len();
            let total = input.total();
            let counts = if total <= 1e-12 {
                // No data anywhere: home all partitions at site 0.
                let mut c = vec![0usize; n_sites];
                c[0] = num_tasks;
                c
            } else {
                partition_counts(input, num_tasks)
            };
            // Fold volumes of uncovered sites (possible only when tasks are
            // scarcer than data sites) into the largest covered site so data
            // is conserved.
            let mut vols: Vec<f64> = (0..n_sites).map(|s| input.at(SiteId(s))).collect();
            if let Some(target) = (0..n_sites)
                .filter(|&s| counts[s] > 0)
                .max_by(|&a, &b| vols[a].total_cmp(&vols[b]))
            {
                for s in 0..n_sites {
                    if counts[s] == 0 && vols[s] > 0.0 {
                        let v = vols[s];
                        vols[s] = 0.0;
                        vols[target] += v;
                    }
                }
            }
            let mut tasks = Vec::with_capacity(num_tasks);
            for (s, &c) in counts.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                let per = vols[s] / c as f64;
                for _ in 0..c {
                    tasks.push(blank(Some(SiteId(s)), per, 1.0 / num_tasks as f64));
                }
            }
            debug_assert_eq!(tasks.len(), num_tasks);
            tasks
        }
        StageKind::Reduce => {
            let total = input.total();
            (0..num_tasks)
                .map(|i| {
                    let share = task_share(i);
                    blank(None, total * share, share)
                })
                .collect()
        }
    }
}

/// Number of partitions homed at each site: sites with data get at least one
/// partition when `num_tasks` allows, the rest follow largest remainder.
fn partition_counts(input: &DataDistribution, num_tasks: usize) -> Vec<usize> {
    let n_sites = input.len();
    let with_data: Vec<usize> = (0..n_sites)
        .filter(|&s| input.at(SiteId(s)) > 1e-12)
        .collect();
    if num_tasks <= with_data.len() {
        // Fewer tasks than data sites: give partitions to the largest sites;
        // volumes at uncovered sites are folded into the largest covered
        // site's partitions (a modeling shortcut for pathological inputs —
        // real workloads have far more tasks than sites).
        let mut order = with_data.clone();
        order.sort_by(|&a, &b| {
            input
                .at(SiteId(b))
                .total_cmp(&input.at(SiteId(a)))
                .then(a.cmp(&b))
        });
        let mut counts = vec![0usize; n_sites];
        for &s in order.iter().take(num_tasks) {
            counts[s] = 1;
        }
        return counts;
    }
    // Reserve one partition per data site, distribute the rest by volume.
    let reserve = with_data.len();
    let fracs: Vec<f64> = (0..n_sites).map(|s| input.at(SiteId(s))).collect();
    let extra = largest_remainder_round(&fracs, num_tasks - reserve);
    let mut counts = extra;
    for &s in &with_data {
        counts[s] += 1;
    }
    // Sites without data must hold no partitions. Largest-remainder over
    // zero fractions cannot assign there, but guard anyway: move stray
    // counts to the largest data site. (When every site is below the data
    // threshold there is no such site, and the counts stand.)
    let largest = with_data
        .iter()
        .copied()
        .max_by(|&a, &b| input.at(SiteId(a)).total_cmp(&input.at(SiteId(b))));
    if let Some(target) = largest {
        for s in 0..n_sites {
            if input.at(SiteId(s)) <= 1e-12 && counts[s] > 0 {
                counts[target] += counts[s];
                counts[s] = 0;
            }
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_partitions_follow_data() {
        let input = DataDistribution::new(vec![20.0, 30.0, 50.0]);
        let tasks = build_tasks(StageKind::Map, 1000, &input, |_| 0.0);
        assert_eq!(tasks.len(), 1000);
        let at = |s: usize| {
            tasks
                .iter()
                .filter(|t| t.input_site == Some(SiteId(s)))
                .count()
        };
        assert_eq!(at(0), 200);
        assert_eq!(at(1), 300);
        assert_eq!(at(2), 500);
        // Volume is conserved.
        let vol: f64 = tasks.iter().map(|t| t.input_gb).sum();
        assert!((vol - 100.0).abs() < 1e-9);
    }

    #[test]
    fn every_data_site_gets_a_partition() {
        let input = DataDistribution::new(vec![0.001, 99.0, 0.999]);
        let tasks = build_tasks(StageKind::Map, 10, &input, |_| 0.0);
        for s in 0..3 {
            assert!(
                tasks.iter().any(|t| t.input_site == Some(SiteId(s))),
                "site {s} lost its data"
            );
        }
    }

    #[test]
    fn reduce_tasks_share_all_data() {
        let input = DataDistribution::new(vec![10.0, 15.0, 25.0]);
        let tasks = build_tasks(StageKind::Reduce, 500, &input, |_| 1.0 / 500.0);
        assert_eq!(tasks.len(), 500);
        assert!(tasks.iter().all(|t| t.input_site.is_none()));
        let vol: f64 = tasks.iter().map(|t| t.input_gb).sum();
        assert!((vol - 50.0).abs() < 1e-9);
    }

    #[test]
    fn empty_input_map_stage_still_builds() {
        let input = DataDistribution::zeros(3);
        let tasks = build_tasks(StageKind::Map, 5, &input, |_| 0.0);
        assert_eq!(tasks.len(), 5);
        assert!(tasks.iter().all(|t| t.input_gb == 0.0));
        // Dust: a nonzero total with every site below the data threshold.
        let dust = DataDistribution::new(vec![1e-12; 3]);
        let tasks = build_tasks(StageKind::Map, 5, &dust, |_| 0.0);
        assert_eq!(tasks.len(), 5);
        let vol: f64 = tasks.iter().map(|t| t.input_gb).sum();
        assert!((vol - 3e-12).abs() < 1e-24, "volume {vol}");
    }

    #[test]
    fn fewer_tasks_than_sites_takes_largest() {
        let input = DataDistribution::new(vec![1.0, 5.0, 3.0, 2.0]);
        let tasks = build_tasks(StageKind::Map, 2, &input, |_| 0.0);
        assert_eq!(tasks.len(), 2);
        let sites: Vec<_> = tasks.iter().map(|t| t.input_site.unwrap()).collect();
        assert!(sites.contains(&SiteId(1)));
        assert!(sites.contains(&SiteId(2)));
    }
}
