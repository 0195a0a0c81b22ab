//! Run outcomes: per-job records and aggregate statistics.

use tetrium_jobs::JobId;

/// Outcome of one job in a finished run.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Job id.
    pub id: JobId,
    /// Job name (query template).
    pub name: String,
    /// Arrival time in seconds.
    pub arrival: f64,
    /// Completion time in seconds.
    pub finished: f64,
    /// Response time (`finished - arrival`).
    pub response: f64,
    /// WAN bytes this job moved across sites, in GB.
    pub wan_gb: f64,
    /// Number of stages in the job.
    pub num_stages: usize,
    /// Total tasks across stages.
    pub total_tasks: usize,
    /// External input volume in GB.
    pub input_gb: f64,
    /// Expected intermediate volume in GB (for Fig 12a bucketing).
    pub intermediate_gb: f64,
    /// Coefficient of variation of the job's input across sites (Fig 12b).
    pub input_skew_cv: f64,
    /// Mean absolute relative estimation error over the job's stages
    /// (Fig 12d).
    pub est_error: f64,
    /// Per-stage `(activated, finished)` times in seconds, by stage index.
    pub stage_spans: Vec<(f64, f64)>,
}

impl JobOutcome {
    /// Debug-asserts that the outcome's response and WAN values are finite,
    /// catching a NaN at the source (construction) rather than deep inside
    /// a percentile sort. Release builds skip the check.
    pub fn debug_assert_finite(&self) {
        debug_assert!(
            self.response.is_finite() && self.finished.is_finite(),
            "job {:?} has non-finite response {} (finished {})",
            self.id,
            self.response,
            self.finished
        );
        debug_assert!(
            self.wan_gb.is_finite(),
            "job {:?} has non-finite wan_gb {}",
            self.id,
            self.wan_gb
        );
    }
}

/// Aggregate record of one engine run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Name of the scheduler that produced this run.
    pub scheduler: String,
    /// Per-job outcomes in engine order (`jobs[j].id` is the job at engine
    /// index `j`, the `job` field of the obs task events).
    pub jobs: Vec<JobOutcome>,
    /// Time the last job finished.
    pub makespan: f64,
    /// Total WAN bytes moved, in GB.
    pub total_wan_gb: f64,
    /// Number of scheduling instances that invoked the scheduler.
    pub sched_invocations: usize,
    /// Total wall-clock time spent inside `Scheduler::schedule`, in seconds
    /// (the quantity of Fig 7).
    pub sched_wall_secs: f64,
    /// Speculative copies launched (0 unless speculation is enabled).
    pub copies_launched: usize,
    /// Speculative copies that finished before their original.
    pub copies_won: usize,
    /// Task attempts lost to injected failures and re-run.
    pub task_failures: usize,
    /// Mid-run dynamics-timeline events applied (capacity drops, link
    /// changes, outages, recoveries).
    pub dynamics_events: usize,
    /// Observability record of the run (`None` unless
    /// [`crate::EngineConfig::record_obs`] is set).
    pub obs: Option<tetrium_obs::ObsReport>,
}

impl RunReport {
    /// Mean job response time in seconds.
    pub fn avg_response(&self) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        self.jobs.iter().map(|j| j.response).sum::<f64>() / self.jobs.len() as f64
    }

    /// Response time of the job with the given id, or `None` if the job is
    /// not in the report.
    pub fn response_of(&self, id: JobId) -> Option<f64> {
        self.jobs.iter().find(|j| j.id == id).map(|j| j.response)
    }

    /// The `q`-quantile (0..=1) of response times (nearest-rank).
    pub fn response_percentile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q));
        if self.jobs.is_empty() {
            return 0.0;
        }
        // total_cmp rather than partial_cmp().unwrap(): a NaN response (a
        // bug upstream, caught by JobOutcome::debug_assert_finite in debug
        // builds) must not turn a report query into a panic.
        let mut r: Vec<f64> = self.jobs.iter().map(|j| j.response).collect();
        r.sort_by(f64::total_cmp);
        let idx = ((r.len() as f64 - 1.0) * q).round() as usize;
        r[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(id: usize, response: f64) -> JobOutcome {
        JobOutcome {
            id: JobId(id),
            name: format!("j{id}"),
            arrival: 0.0,
            finished: response,
            response,
            wan_gb: 0.0,
            num_stages: 1,
            total_tasks: 1,
            input_gb: 1.0,
            intermediate_gb: 0.5,
            input_skew_cv: 0.0,
            est_error: 0.0,
            stage_spans: Vec::new(),
        }
    }

    fn report(rs: &[f64]) -> RunReport {
        RunReport {
            scheduler: "test".into(),
            jobs: rs.iter().enumerate().map(|(i, &r)| outcome(i, r)).collect(),
            makespan: rs.iter().copied().fold(0.0, f64::max),
            total_wan_gb: 0.0,
            sched_invocations: 0,
            sched_wall_secs: 0.0,
            copies_launched: 0,
            copies_won: 0,
            task_failures: 0,
            dynamics_events: 0,
            obs: None,
        }
    }

    #[test]
    fn averages_and_percentiles() {
        let r = report(&[1.0, 2.0, 3.0, 10.0]);
        assert!((r.avg_response() - 4.0).abs() < 1e-12);
        assert_eq!(r.response_percentile(0.0), 1.0);
        assert_eq!(r.response_percentile(1.0), 10.0);
        assert_eq!(r.response_percentile(0.5), 3.0);
        assert_eq!(r.response_of(JobId(3)), Some(10.0));
        assert_eq!(r.response_of(JobId(99)), None);
    }

    #[test]
    fn empty_report_is_zero() {
        let r = report(&[]);
        assert_eq!(r.avg_response(), 0.0);
        assert_eq!(r.response_percentile(0.5), 0.0);
    }

    #[test]
    fn percentile_tolerates_nan_without_panicking() {
        // total_cmp orders NaN after every number, so the finite quantiles
        // stay meaningful and nothing panics.
        let r = report(&[2.0, f64::NAN, 1.0]);
        assert_eq!(r.response_percentile(0.0), 1.0);
        assert_eq!(r.response_percentile(0.5), 2.0);
        assert!(r.response_percentile(1.0).is_nan());
    }

    #[test]
    fn finite_outcomes_pass_the_debug_assertion() {
        outcome(0, 1.5).debug_assert_finite();
    }

    #[test]
    #[should_panic(expected = "non-finite response")]
    #[cfg(debug_assertions)]
    fn nan_response_trips_the_debug_assertion() {
        outcome(0, f64::NAN).debug_assert_finite();
    }
}
