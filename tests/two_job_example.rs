//! End-to-end check of the §2.2 two-job scheduling example.
//!
//! Three sites with 3 slots and 1 GB/s each; job 1 needs (0, 1, 2) local
//! tasks, job 2 needs (2, 4, 6). The paper shows that running job 1 first
//! and letting job 2 spill to other sites gives average response 1.7 s,
//! whereas the opposite order gives 2.65 s. SRPT + joint placement must land
//! near the good schedule; plain fair sharing with site-locality does worse
//! on average response.

use tetrium::sim::EngineConfig;
use tetrium::workload::two_job_example;
use tetrium::{run_workload, SchedulerKind};

#[test]
fn srpt_lands_near_the_paper_schedule() {
    let (cluster, jobs) = two_job_example();
    let report = run_workload(
        cluster,
        jobs,
        SchedulerKind::Tetrium,
        EngineConfig::default(),
    )
    .expect("run completes");
    let avg = report.avg_response();
    // Paper's optimal average is 1.7 s with worst-case transfer accounting;
    // with overlap the engine can do slightly better. It must not degrade to
    // the reversed order's 2.65 s.
    assert!(avg <= 2.0, "avg response {avg:.2}");
    // Job 1 (the small one) must finish in about one wave.
    let j1 = report
        .response_of(tetrium::jobs::JobId(0))
        .expect("job 0 ran");
    assert!(j1 <= 1.3, "small job response {j1:.2}");
}

#[test]
fn srpt_beats_fair_in_place_on_average() {
    let (cluster, jobs) = two_job_example();
    let tetrium = run_workload(
        cluster.clone(),
        jobs.clone(),
        SchedulerKind::Tetrium,
        EngineConfig::default(),
    )
    .unwrap();
    let inplace = run_workload(
        cluster,
        jobs,
        SchedulerKind::InPlace,
        EngineConfig::default(),
    )
    .unwrap();
    assert!(
        tetrium.avg_response() <= inplace.avg_response() + 1e-9,
        "tetrium {:.2} vs in-place {:.2}",
        tetrium.avg_response(),
        inplace.avg_response()
    );
}
