//! Serialization round-trips and miscellaneous cross-crate checks.

use tetrium::cluster::{Cluster, DataDistribution, DynamicsChange, DynamicsEvent, Site, SiteId};
use tetrium::jobs::{Job, JobId, Stage, StageKind};

#[test]
fn cluster_serde_round_trip() {
    let c = tetrium::cluster::ec2_eight_regions();
    let json = serde_json::to_string(&c).unwrap();
    let back: Cluster = serde_json::from_str(&json).unwrap();
    assert_eq!(back, c);
    assert_eq!(back.total_slots(), c.total_slots());
}

#[test]
fn capacity_drop_serde_round_trip() {
    let d = DynamicsEvent::new(SiteId(3), 12.5, DynamicsChange::Capacity { keep: 0.6 });
    let json = serde_json::to_string(&d).unwrap();
    let back: DynamicsEvent = serde_json::from_str(&json).unwrap();
    assert_eq!(back, d);
}

#[test]
fn job_serde_preserves_key_skew() {
    let stages = vec![
        Stage::root_map(DataDistribution::new(vec![1.0, 3.0]), 4, 1.0, 0.5),
        Stage::reduce(vec![0], 4, 1.0, 0.1).with_task_weights(vec![4.0, 1.0, 1.0, 2.0]),
    ];
    let j = Job::new(JobId(7), "skewed", 2.5, stages);
    let back: Job = serde_json::from_str(&serde_json::to_string(&j).unwrap()).unwrap();
    assert_eq!(back.id, JobId(7));
    assert_eq!(back.stages[1].kind, StageKind::Reduce);
    assert!((back.stages[1].task_share(0) - 0.5).abs() < 1e-12);
    assert!(back.stages[1].task_skew_cv() > 0.0);
}

#[test]
fn data_placement_improves_the_bottleneck_estimate() {
    use tetrium::baselines::iridium_data_move;
    let input = DataDistribution::new(vec![5.0, 90.0, 5.0]);
    let up = [2.0, 0.1, 2.0];
    let down = [2.0, 2.0, 2.0];
    let before = input
        .as_slice()
        .iter()
        .zip(&up)
        .map(|(v, u)| v / u)
        .fold(0.0f64, f64::max);
    let (after_dist, moved) = iridium_data_move(&input, &up, &down, 0.5);
    let after = after_dist
        .as_slice()
        .iter()
        .zip(&up)
        .map(|(v, u)| v / u)
        .fold(0.0f64, f64::max);
    assert!(moved > 0.0);
    assert!(
        after < before,
        "bottleneck {after:.1} should drop from {before:.1}"
    );
}

#[test]
fn site_names_survive_degradation() {
    let s = Site::new("eu-west-1", 10, 1.0, 2.0);
    let d = DynamicsEvent::new(SiteId(0), 1.0, DynamicsChange::Capacity { keep: 0.75 });
    let g = d.target(&s);
    assert_eq!(g.name, "eu-west-1");
    assert_eq!(g.slots, 7);
}

#[test]
fn wan_knob_budget_endpoints_match_closed_forms() {
    use tetrium::core::wan::{reduce_min_wan, reduce_min_wan_lp, wan_budget, WanKnob};
    let shuffle = [4.0, 7.0, 1.0];
    let w_min = reduce_min_wan(&shuffle);
    assert!((w_min - reduce_min_wan_lp(&shuffle)).abs() < 1e-9);
    let total: f64 = shuffle.iter().sum();
    assert_eq!(wan_budget(WanKnob::new(0.0).unwrap(), w_min, total), w_min);
    assert_eq!(wan_budget(WanKnob::new(1.0).unwrap(), w_min, total), total);
}

/// A trace whose source and job names are not ASCII survives the JSON
/// rendering byte for byte, through the validator and into a scenario.
#[test]
fn non_ascii_trace_round_trips_through_json() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tetrium::workload::ingest::{parse_trace_str, scenario_from_trace, trace_from_jobs};
    use tetrium::workload::{trace_like_jobs, TraceParams, ValidatorConfig};

    let cluster = tetrium::cluster::ec2_eight_regions();
    let mut rng = StdRng::seed_from_u64(4);
    let mut jobs = trace_like_jobs(&cluster, 3, &TraceParams::default(), &mut rng);
    let names = ["requête-é", "集計-日本", "tablero-🎉"];
    for (job, name) in jobs.iter_mut().zip(names) {
        job.name = name.to_string();
    }
    let trace = trace_from_jobs(&jobs, cluster.len(), "journal-café-東京");
    let back = parse_trace_str(&trace.to_json()).unwrap();
    assert_eq!(back, trace);
    assert_eq!(back.source, "journal-café-東京");
    assert_eq!(back.rows[0].job.as_deref(), Some("requête-é"));
    let scenario = scenario_from_trace(&back, cluster, &ValidatorConfig::default()).unwrap();
    let got: Vec<&str> = scenario.jobs.iter().map(|j| j.name.as_str()).collect();
    assert_eq!(got, names);
}
