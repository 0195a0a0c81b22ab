//! Integration tests for the trace-ingestion pipeline: committed fixture
//! files through the validation gate, per-constraint trigger fixtures,
//! scenario round-trip bit-identity, and a property test that generated
//! workloads always survive export → validate → import.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tetrium_workload::ingest::{
    parse_trace_str, read_trace_file, scenario_from_trace, trace_from_jobs, validate, IngestError,
    RawTrace, TraceProfile, ValidationReport, ValidatorConfig, CONSTRAINTS,
};
use tetrium_workload::{trace_like_jobs, Scenario, TraceParams};

fn fixture(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn violations(trace: &RawTrace, cfg: &ValidatorConfig) -> ValidationReport {
    validate(trace, cfg).expect_err("trace should be rejected")
}

#[test]
fn mini_trace_fixture_is_accepted_and_becomes_a_scenario() {
    let trace = read_trace_file(&fixture("mini_trace.json")).unwrap();
    assert_eq!(trace.sites, 8);
    validate(&trace, &ValidatorConfig::default()).unwrap();
    let scenario = scenario_from_trace(
        &trace,
        tetrium_cluster::ec2_eight_regions(),
        &ValidatorConfig::default(),
    )
    .unwrap();
    assert_eq!(scenario.jobs.len(), 3);
    let stages: Vec<usize> = scenario.jobs.iter().map(|j| j.num_stages()).collect();
    assert_eq!(stages, vec![2, 3, 2]);
    let arrivals: Vec<f64> = scenario.jobs.iter().map(|j| j.arrival).collect();
    assert_eq!(arrivals, vec![0.0, 30.0, 55.0]);
    // Declared external input survives the conversion.
    assert!((scenario.jobs[0].input_gb() - 8.0).abs() < 1e-9);
}

#[test]
fn csv_and_json_fixture_renderings_parse_to_the_same_trace() {
    let json = read_trace_file(&fixture("mini_trace.json")).unwrap();
    let csv = read_trace_file(&fixture("mini_trace.csv")).unwrap();
    assert_eq!(json, csv);
    // The sniffing front door agrees with the per-format parsers.
    let body = std::fs::read_to_string(fixture("mini_trace.csv")).unwrap();
    assert_eq!(parse_trace_str(&body).unwrap(), json);
}

#[test]
fn malformed_fixture_is_rejected_with_row_addressed_violations() {
    let trace = read_trace_file(&fixture("malformed_trace.json")).unwrap();
    let report = violations(&trace, &ValidatorConfig::default());
    // The acceptance bar: at least three distinct constraints fire, each
    // violation addressed to a row (this fixture has no whole-trace
    // findings), and nothing panicked to get here.
    assert!(
        report.distinct_constraints() >= 3,
        "only {} constraints fired:\n{report}",
        report.distinct_constraints()
    );
    assert!(
        report.violations.iter().all(|v| v.row.is_some()),
        "{report}"
    );
    for row in [1, 2, 3] {
        assert!(
            report.violations.iter().any(|v| v.row == Some(row)),
            "no violation addressed row {row}:\n{report}"
        );
    }
    // The loader surfaces the same report instead of panicking.
    let err = scenario_from_trace(
        &trace,
        tetrium_cluster::ec2_eight_regions(),
        &ValidatorConfig::default(),
    )
    .unwrap_err();
    match err {
        IngestError::Rejected(r) => assert_eq!(r, report),
        other => panic!("expected Rejected, got {other}"),
    }
}

/// One minimal trigger fixture per constraint; each must fire its target
/// constraint (others may fire too — constraints are independent scans).
#[test]
fn every_constraint_has_a_trigger_fixture() {
    fn t(rows: &str) -> RawTrace {
        parse_trace_str(&format!(
            r#"{{"format": "tetrium-trace/v1", "sites": 2, "rows": [{rows}]}}"#
        ))
        .unwrap()
    }
    const ROOT: &str = r#"{"job": "a", "submit_s": 1.0, "stage": 0, "deps": [], "kind": "map",
        "tasks": 4, "task_s": 1.0, "input_gb_by_site": [1.0, 1.0], "output_gb": 1.0}"#;
    let second = |name: &str, submit: f64| {
        ROOT.replace("\"job\": \"a\"", &format!("\"job\": \"{name}\""))
            .replace("\"submit_s\": 1.0", &format!("\"submit_s\": {submit:?}"))
    };
    let cases: Vec<(&str, RawTrace, ValidatorConfig)> = vec![
        (
            "schema",
            t(&ROOT.replace("\"tasks\": 4", "\"tasks\": \"four\"")),
            ValidatorConfig::default(),
        ),
        (
            "required",
            t(&ROOT.replace("\"task_s\": 1.0, ", "")),
            ValidatorConfig::default(),
        ),
        (
            "non-negative",
            t(&ROOT.replace("\"output_gb\": 1.0", "\"output_gb\": -1.0")),
            ValidatorConfig::default(),
        ),
        (
            "monotone-timestamps",
            t(&format!("{ROOT},{}", second("b", 0.5))),
            ValidatorConfig::default(),
        ),
        (
            "topology",
            t(&ROOT
                .replace("\"deps\": []", "\"deps\": [3]")
                .replace("\"input_gb_by_site\": [1.0, 1.0]", "\"input_gb\": 1.0")),
            ValidatorConfig::default(),
        ),
        (
            "site-arity",
            t(&ROOT.replace("[1.0, 1.0]", "[1.0, 1.0, 1.0]")),
            ValidatorConfig::default(),
        ),
        (
            "byte-conservation",
            t(&format!(
                r#"{ROOT},{{"job": "a", "submit_s": 1.0, "stage": 1, "deps": [0],
                    "kind": "reduce", "tasks": 2, "task_s": 1.0, "input_gb": 7.0,
                    "output_gb": 0.1}}"#
            )),
            ValidatorConfig::default(),
        ),
        (
            "drift",
            t(&format!("{ROOT},{}", second("b", 2.0))),
            ValidatorConfig {
                profile: Some(TraceProfile {
                    median_input_gb: 5000.0,
                    p90_input_gb: 9000.0,
                    mean_interarrival_s: 1.0,
                    mean_stages: 1.0,
                }),
                ..ValidatorConfig::default()
            },
        ),
    ];
    assert_eq!(
        cases.len(),
        CONSTRAINTS.len(),
        "add a trigger fixture for every constraint in the pipeline"
    );
    for (name, trace, cfg) in &cases {
        assert!(
            CONSTRAINTS.iter().any(|(n, _)| n == name),
            "'{name}' is not a pipeline constraint"
        );
        let report = violations(trace, cfg);
        assert!(
            report.violations.iter().any(|v| v.constraint == *name),
            "fixture for '{name}' did not trigger it:\n{report}"
        );
    }
}

#[test]
fn fixture_scenario_round_trip_is_bit_identical() {
    let trace = read_trace_file(&fixture("mini_trace.json")).unwrap();
    let scenario = scenario_from_trace(
        &trace,
        tetrium_cluster::ec2_eight_regions(),
        &ValidatorConfig::default(),
    )
    .unwrap();
    let json = scenario.to_json().unwrap();
    let back = Scenario::from_json(&json).unwrap();
    assert_eq!(
        back.to_json().unwrap(),
        json,
        "scenario JSON must round-trip byte-identically"
    );
    // And the raw trace itself round-trips through both renderings.
    assert_eq!(RawTrace::from_json(&trace.to_json()).unwrap(), trace);
    assert_eq!(RawTrace::from_csv(&trace.to_csv()).unwrap(), trace);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any generated trace-like workload exports to a trace that passes
    /// the full validation gate — including drift against its own profile
    /// — and imports back to the same number of jobs and stages.
    #[test]
    fn generated_workloads_always_pass_validation(seed in 0u64..1000, n_jobs in 2usize..12) {
        let cluster = tetrium_cluster::ec2_eight_regions();
        let mut rng = StdRng::seed_from_u64(seed);
        let jobs = trace_like_jobs(&cluster, n_jobs, &TraceParams::default(), &mut rng);
        let trace = trace_from_jobs(&jobs, cluster.len(), "proptest");
        let cfg = ValidatorConfig {
            profile: TraceProfile::from_trace(&trace),
            ..ValidatorConfig::default()
        };
        prop_assert!(cfg.profile.is_some());
        if let Err(report) = validate(&trace, &cfg) {
            prop_assert!(false, "generated trace rejected:\n{}", report);
        }
        let scenario = scenario_from_trace(&trace, cluster, &cfg).unwrap();
        prop_assert_eq!(scenario.jobs.len(), jobs.len());
        for (a, b) in scenario.jobs.iter().zip(&jobs) {
            prop_assert_eq!(a.num_stages(), b.num_stages());
            prop_assert!((a.arrival - b.arrival).abs() < 1e-12);
        }
    }
}
