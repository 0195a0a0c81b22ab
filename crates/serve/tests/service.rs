//! End-to-end service tests: submission-order determinism under one epoch
//! partition, merged multi-shard reports, graceful shutdown, and typed
//! rejection of duplicate, mismatched or invalid submissions.

use tetrium_serve::{
    shard_of, Job, JobEvent, JobId, ServeConfig, SpanTap, SubmitError, TetriumService,
};

use tetrium::cluster::{Cluster, DataDistribution, Site};
use tetrium::jobs::Stage;

fn two_sites() -> Cluster {
    Cluster::new(vec![
        Site::new("a", 2, 1.0, 1.0),
        Site::new("b", 2, 1.0, 1.0),
    ])
}

fn job(id: usize) -> Job {
    Job::new(
        JobId(id),
        format!("serve-{id}"),
        0.0,
        vec![Stage::root_map(
            DataDistribution::new(vec![1.0 + 0.1 * id as f64, 1.2]),
            4,
            1.0,
            0.2,
        )],
    )
}

fn runtime() -> tokio::runtime::Runtime {
    tokio::runtime::Builder::new_multi_thread()
        .worker_threads(4)
        .enable_all()
        .build()
        .expect("build runtime")
}

/// Submits `ids` (in the given order) to a held service, opens it and
/// joins, returning the canonical JSON string of the merged report.
fn run_held(shards: usize, ids: &[usize]) -> String {
    let rt = runtime();
    rt.block_on(async {
        let cfg = ServeConfig {
            shards,
            ..ServeConfig::default()
        };
        let svc = TetriumService::start_held(&two_sites(), &cfg);
        for &id in ids {
            let receipt = svc.submit(job(id)).await.expect("submit accepted");
            assert_eq!(receipt.shard, shard_of(JobId(id), shards));
        }
        svc.open();
        let report = svc.join().await.expect("service run succeeds");
        serde_json::to_string(&report.to_json()).expect("serialize report")
    })
}

#[test]
fn submission_order_determinism() {
    // Same job set, three different submission interleavings, all queued
    // before the workers admit anything → one epoch per shard → the
    // canonical reports must be byte-identical.
    let forward: Vec<usize> = (0..8).collect();
    let reverse: Vec<usize> = (0..8).rev().collect();
    let shuffled = vec![3, 7, 0, 5, 1, 6, 2, 4];
    for shards in [1, 3] {
        let a = run_held(shards, &forward);
        let b = run_held(shards, &reverse);
        let c = run_held(shards, &shuffled);
        assert_eq!(a, b, "reverse submission changed the {shards}-shard report");
        assert_eq!(
            a, c,
            "shuffled submission changed the {shards}-shard report"
        );
    }
}

#[test]
fn concurrent_submitters_are_deterministic() {
    // Two tasks race to submit disjoint halves of the set; the epoch
    // partition is still "everything" because the service is held.
    let serial = run_held(2, &(0..8).collect::<Vec<_>>());
    let rt = runtime();
    let racy = rt.block_on(async {
        let cfg = ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        };
        let svc = std::sync::Arc::new(TetriumService::start_held(&two_sites(), &cfg));
        let mut submitters = Vec::new();
        for half in 0..2usize {
            let svc = std::sync::Arc::clone(&svc);
            submitters.push(tokio::spawn(async move {
                for id in (half * 4)..(half * 4 + 4) {
                    svc.submit(job(id)).await.expect("submit accepted");
                }
            }));
        }
        for s in submitters {
            s.await.expect("submitter ran");
        }
        svc.open();
        let svc = std::sync::Arc::into_inner(svc).expect("sole owner after submitters");
        let report = svc.join().await.expect("service run succeeds");
        serde_json::to_string(&report.to_json()).expect("serialize report")
    });
    assert_eq!(serial, racy, "concurrent submission changed the report");
}

#[test]
fn multi_shard_report_routes_every_job() {
    let rt = runtime();
    rt.block_on(async {
        let shards = 3;
        let cfg = ServeConfig {
            shards,
            ..ServeConfig::default()
        };
        let svc = TetriumService::start_held(&two_sites(), &cfg);
        for id in 0..12 {
            svc.submit(job(id)).await.expect("submit accepted");
        }
        svc.open();
        let report = svc.join().await.expect("service run succeeds");
        assert_eq!(report.total_jobs(), 12);
        assert_eq!(report.shards.len(), shards);
        for s in &report.shards {
            for j in &s.report.jobs {
                assert_eq!(
                    s.shard,
                    shard_of(j.id, shards),
                    "job {:?} landed on the wrong shard",
                    j.id
                );
            }
        }
        assert!(report.makespan() > 0.0);
        assert!(report.avg_response() > 0.0);
    });
}

#[test]
fn graceful_shutdown_completes_accepted_jobs_and_flushes_events() {
    let rt = runtime();
    rt.block_on(async {
        let cfg = ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        };
        let svc = TetriumService::start(&two_sites(), &cfg);
        let mut events = svc.subscribe();
        for id in 0..3 {
            svc.submit(job(id)).await.expect("submit accepted");
        }
        // Cancel mid-run: whatever was accepted must still complete.
        svc.shutdown();
        let late = svc.submit(job(99)).await;
        match late {
            Err(SubmitError::ShuttingDown(j)) => assert_eq!(j.id, JobId(99)),
            other => panic!("post-shutdown submit must be rejected, got {other:?}"),
        }
        let report = svc.join().await.expect("service run succeeds");
        assert_eq!(report.total_jobs(), 3, "accepted jobs leaked on shutdown");

        // The event stream is closed after join; drain it fully.
        let mut log = Vec::new();
        loop {
            match events.recv().await {
                Ok(ev) => log.push(ev),
                Err(tokio::sync::broadcast::error::RecvError::Lagged(_)) => continue,
                Err(tokio::sync::broadcast::error::RecvError::Closed) => break,
            }
        }
        let admitted = log
            .iter()
            .filter(|e| matches!(e, JobEvent::Admitted { .. }))
            .count();
        let finished = log
            .iter()
            .filter(|e| matches!(e, JobEvent::Finished { .. }))
            .count();
        assert_eq!(admitted, 3, "events: {log:?}");
        assert_eq!(finished, 3, "events: {log:?}");
        match log.last() {
            Some(JobEvent::ShardDone { shard: 0, jobs: 3 }) => {}
            other => panic!("final event must be ShardDone for 3 jobs, got {other:?}"),
        }
    });
}

#[test]
fn span_tap_exports_deterministic_otel_spans() {
    fn run_once() -> String {
        let rt = runtime();
        rt.block_on(async {
            let shards = 2;
            let mut engine = tetrium::sim::EngineConfig::trace_like(0);
            // Task events only reach subscribers when the shard engines
            // record obs.
            engine.record_obs = true;
            let cfg = ServeConfig {
                shards,
                engine,
                ..ServeConfig::default()
            };
            let svc = TetriumService::start_held(&two_sites(), &cfg);
            let mut rx = svc.subscribe();
            let collector = tokio::spawn(async move {
                let mut tap = SpanTap::new();
                tap.collect(&mut rx, shards).await;
                tap
            });
            for id in 0..6 {
                svc.submit(job(id)).await.expect("submit accepted");
            }
            svc.open();
            let report = svc.join().await.expect("service run succeeds");
            assert_eq!(report.total_jobs(), 6);
            let tap = collector.await.expect("collector ran");
            assert_eq!(tap.shards_done(), shards);
            tap.to_otel_string("serve-test")
        })
    }
    let a = run_once();
    let b = run_once();
    assert_eq!(a, b, "span export must not depend on event timing");
    let v: serde_json::Value = serde_json::from_str(&a).expect("export parses");
    let resources = v["resourceSpans"].as_array().expect("resourceSpans array");
    assert!(!resources.is_empty());
    for r in resources {
        let spans = r["scopeSpans"][0]["spans"].as_array().expect("spans array");
        assert!(!spans.is_empty());
        for s in spans {
            assert_eq!(s["traceId"].as_str().map(str::len), Some(32));
            assert_eq!(s["spanId"].as_str().map(str::len), Some(16));
        }
    }
}

#[test]
fn join_without_shutdown_drains_backlog() {
    let rt = runtime();
    rt.block_on(async {
        let svc = TetriumService::start(&two_sites(), &ServeConfig::default());
        for id in 0..4 {
            svc.submit(job(id)).await.expect("submit accepted");
        }
        // No explicit shutdown: join drops the submission handles, the
        // worker drains the backlog and exits on the closed queue.
        let report = svc.join().await.expect("service run succeeds");
        assert_eq!(report.total_jobs(), 4);
    });
}

/// A second job with an already accepted id is turned away at `submit`
/// (the engine would panic the shard on it), as is a job whose inputs do
/// not match the cluster; the shard keeps serving every other job.
#[test]
fn duplicate_job_id_is_rejected_and_the_shard_keeps_serving() {
    let rt = runtime();
    rt.block_on(async {
        let shards = 2;
        let cfg = ServeConfig {
            shards,
            ..ServeConfig::default()
        };
        let svc = TetriumService::start(&two_sites(), &cfg);
        for id in 0..10 {
            svc.submit(job(id)).await.expect("submit accepted");
        }
        match svc.submit(job(7)).await {
            Err(SubmitError::DuplicateJob(j)) => assert_eq!(j.id, JobId(7)),
            other => panic!("duplicate id must be rejected, got {other:?}"),
        }
        let three_sites = Job::new(
            JobId(11),
            "serve-11".to_string(),
            0.0,
            vec![Stage::root_map(
                DataDistribution::new(vec![1.0, 1.0, 1.0]),
                4,
                1.0,
                0.2,
            )],
        );
        match svc.submit(three_sites).await {
            Err(SubmitError::ClusterMismatch(j)) => assert_eq!(j.id, JobId(11)),
            other => panic!("mismatched job must be rejected, got {other:?}"),
        }
        let report = svc.join().await.expect("service run succeeds");
        assert_eq!(report.total_jobs(), 10);
        let home = &report.shards[shard_of(JobId(7), shards)];
        let mut ids: Vec<usize> = home.report.jobs.iter().map(|j| j.id.0).collect();
        ids.sort_unstable();
        let expected: Vec<usize> = (0..10)
            .filter(|&id| shard_of(JobId(id), shards) == home.shard)
            .collect();
        assert_eq!(ids, expected, "shard {} lost jobs", home.shard);
    });
}

/// A job that fails `Job::validate` is turned away at `submit` (its shard
/// worker would panic on it and `join` would lose the shard); the id is
/// not claimed, and a valid job on the same service still finishes.
#[test]
fn invalid_jobs_are_rejected_and_the_service_keeps_serving() {
    let rt = runtime();
    rt.block_on(async {
        let svc = TetriumService::start(&two_sites(), &ServeConfig::default());
        let mut no_stages = job(20);
        no_stages.stages.clear();
        let mut nan_secs = job(21);
        nan_secs.stages[0].task_secs = f64::NAN;
        for bad in [no_stages, nan_secs] {
            let id = bad.id;
            match svc.submit(bad).await {
                Err(SubmitError::InvalidJob(j, reason)) => {
                    assert_eq!(j.id, id);
                    assert!(!reason.is_empty());
                }
                other => panic!("invalid job {id} must be rejected, got {other:?}"),
            }
        }
        svc.submit(job(20)).await.expect("valid job accepted");
        let report = svc.join().await.expect("service run succeeds");
        assert_eq!(report.total_jobs(), 1);
        let jobs: Vec<_> = report.shards.iter().flat_map(|s| &s.report.jobs).collect();
        assert_eq!(jobs[0].id, JobId(20));
        assert!(jobs[0].response.is_finite() && jobs[0].response > 0.0);
    });
}
