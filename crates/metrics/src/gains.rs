//! Reductions, slowdowns and fairness indices.

use tetrium_jobs::JobId;
use tetrium_sim::RunReport;

/// Percentage reduction of `value` relative to `baseline`:
/// `100 · (baseline - value) / baseline`. Positive means improvement.
/// Returns 0 when the baseline is non-positive.
pub fn reduction_pct(baseline: f64, value: f64) -> f64 {
    if baseline <= 0.0 {
        0.0
    } else {
        100.0 * (baseline - value) / baseline
    }
}

/// Per-job percentage reductions in response time of `run` vs `baseline`
/// (matched by job id; jobs missing from either run are skipped). The input
/// of Fig 8(b)'s CDF.
pub fn per_job_reduction(baseline: &RunReport, run: &RunReport) -> Vec<(JobId, f64)> {
    run.jobs
        .iter()
        .filter_map(|j| {
            baseline
                .jobs
                .iter()
                .find(|b| b.id == j.id)
                .map(|b| (j.id, reduction_pct(b.response, j.response)))
        })
        .collect()
}

/// Aggregate WAN-usage reduction of `run` vs `baseline`, in percent.
pub fn wan_reduction_pct(baseline: &RunReport, run: &RunReport) -> f64 {
    reduction_pct(baseline.total_wan_gb, run.total_wan_gb)
}

/// Per-job slowdowns: response time divided by the job's isolated service
/// time (§6.1 "Performance Metrics"). `isolated[i]` must hold the service
/// time of the job with the same index in `run.jobs`.
///
/// # Panics
///
/// Panics if lengths differ or an isolated time is non-positive.
pub fn slowdowns(run: &RunReport, isolated: &[f64]) -> Vec<f64> {
    assert_eq!(run.jobs.len(), isolated.len());
    run.jobs
        .iter()
        .zip(isolated)
        .map(|(j, &iso)| {
            assert!(iso > 0.0, "isolated service time must be positive");
            j.response / iso
        })
        .collect()
}

/// Jain's fairness index of a set of allocations/slowdowns: 1 is perfectly
/// fair, `1/n` is maximally unfair.
pub fn jain_index(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let sum: f64 = values.iter().sum();
    let sq: f64 = values.iter().map(|v| v * v).sum();
    if sq == 0.0 {
        return 1.0;
    }
    sum * sum / (values.len() as f64 * sq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetrium_sim::JobOutcome;

    fn report(responses: &[f64]) -> RunReport {
        RunReport {
            scheduler: "t".into(),
            jobs: responses
                .iter()
                .enumerate()
                .map(|(i, &r)| JobOutcome {
                    id: JobId(i),
                    name: format!("j{i}"),
                    arrival: 0.0,
                    finished: r,
                    response: r,
                    wan_gb: 1.0,
                    num_stages: 1,
                    total_tasks: 1,
                    input_gb: 1.0,
                    intermediate_gb: 0.5,
                    input_skew_cv: 0.0,
                    est_error: 0.0,
                    stage_spans: Vec::new(),
                })
                .collect(),
            makespan: 0.0,
            total_wan_gb: responses.len() as f64,
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
    fn reduction_math() {
        assert_eq!(reduction_pct(100.0, 45.0), 55.0);
        assert_eq!(reduction_pct(0.0, 10.0), 0.0);
        assert_eq!(reduction_pct(10.0, 12.0), -20.0);
    }

    #[test]
    fn per_job_matches_by_id() {
        let base = report(&[10.0, 20.0]);
        let run = report(&[5.0, 20.0]);
        let red = per_job_reduction(&base, &run);
        assert_eq!(red.len(), 2);
        assert_eq!(red[0].1, 50.0);
        assert_eq!(red[1].1, 0.0);
    }

    #[test]
    fn slowdowns_divide_by_isolated() {
        let run = report(&[10.0, 6.0]);
        let s = slowdowns(&run, &[5.0, 6.0]);
        assert_eq!(s, vec![2.0, 1.0]);
    }

    #[test]
    fn jain_bounds() {
        assert_eq!(jain_index(&[1.0, 1.0, 1.0]), 1.0);
        let unfair = jain_index(&[1.0, 0.0, 0.0]);
        assert!((unfair - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(jain_index(&[]), 1.0);
    }
}
