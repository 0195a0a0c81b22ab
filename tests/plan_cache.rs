//! Cross-crate behavior of the template plan cache (DESIGN.md §11):
//! Exact mode must be invisible in simulation output, Full mode must hit
//! and still complete every job, and — under `--features audit` — every
//! solve the cache does not answer is certified and re-checked bit for bit
//! against the LP's unreduced solve.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tetrium::cluster::{Cluster, Site};
use tetrium::core::{PlanCacheMode, TetriumConfig};
use tetrium::sim::{EngineConfig, RunReport};
use tetrium::workload::{recurring_dashboard_jobs, RecurringParams};
use tetrium::{run_workload, SchedulerKind};

fn six_sites() -> Cluster {
    Cluster::new(
        (0..6)
            .map(|i| {
                Site::new(
                    format!("s{i}"),
                    8,
                    0.2 + 0.1 * i as f64,
                    0.3 + 0.1 * i as f64,
                )
            })
            .collect(),
    )
}

/// A recurring dashboard stream under the given cache mode. `phase_step`
/// 0 keeps every instance's data identical (the exact-hit steady state);
/// positive values rotate it with the diurnal cycle.
fn run_stream(mode: PlanCacheMode, phase_step: f64, n: usize) -> RunReport {
    let cluster = six_sites();
    let params = RecurringParams {
        phase_step,
        ..RecurringParams::default()
    };
    let mut rng = StdRng::seed_from_u64(9);
    let jobs = recurring_dashboard_jobs(&cluster, n, &params, &mut rng);
    let cfg = TetriumConfig {
        plan_cache: mode,
        ..TetriumConfig::default()
    };
    run_workload(
        cluster,
        jobs,
        SchedulerKind::TetriumWith(cfg),
        EngineConfig {
            record_obs: true,
            ..EngineConfig::default()
        },
    )
    .expect("stream completes")
}

/// Exact mode only short-circuits solves whose problem compares equal
/// field-for-field, so every placement — and therefore the entire
/// simulation — must be bit-identical to a run without the cache. Only
/// the planner telemetry may differ (hits counted as `tmpl_exact`
/// instead of `tmpl_miss`).
#[test]
fn exact_mode_is_byte_identical_to_off() {
    let off = run_stream(PlanCacheMode::Off, 0.0, 8);
    let exact = run_stream(PlanCacheMode::Exact, 0.0, 8);

    let (off_obs, exact_obs) = (off.obs.as_ref().unwrap(), exact.obs.as_ref().unwrap());
    // The cache must actually have fired, or this test proves nothing.
    let hits: usize = exact_obs.planner.iter().map(|p| p.tmpl_exact).sum();
    assert!(hits > 0, "recurring identical instances must hit exactly");

    let mut off_json = off_obs.to_json(false);
    let mut exact_json = exact_obs.to_json(false);
    // Planner telemetry legitimately differs in the tmpl_* counters; the
    // non-telemetry fields must still agree record-for-record.
    for (a, b) in off_obs.planner.iter().zip(&exact_obs.planner) {
        assert_eq!(a.at, b.at);
        assert_eq!(a.lp_planned, b.lp_planned);
        assert_eq!(a.cache_reused, b.cache_reused);
        assert_eq!(a.local_planned, b.local_planned);
    }
    off_json["planner"] = serde_json::Value::Null;
    exact_json["planner"] = serde_json::Value::Null;
    assert_eq!(
        off_json.to_string(),
        exact_json.to_string(),
        "exact-hit short-circuiting changed simulation output"
    );

    assert_eq!(off.makespan.to_bits(), exact.makespan.to_bits());
    for (a, b) in off.jobs.iter().zip(&exact.jobs) {
        assert_eq!(a.response.to_bits(), b.response.to_bits());
    }
}

/// Full mode trades bit-identity for speed (the patched tier), but must
/// still complete the stream and actually reuse templates.
#[test]
fn full_mode_hits_and_completes() {
    let report = run_stream(PlanCacheMode::Full, 1.0 / 720.0, 10);
    assert_eq!(report.jobs.len(), 10);
    for j in &report.jobs {
        assert!(j.response > 0.0, "{} never finished", j.name);
    }
    let obs = report.obs.as_ref().unwrap();
    let reused: usize = obs
        .planner
        .iter()
        .map(|r| r.tmpl_exact + r.tmpl_patched)
        .sum();
    assert!(
        reused > 0,
        "a recurring stream must reuse cached placements"
    );
}

/// With the `audit` feature, every LP answer must pass its optimality
/// certificate, and a re-solve without the presolve must agree bit for bit.
/// Heavy diurnal drift moves the bucket between instances, so cold solves
/// (misses) carry much of the load; the run completing means every check
/// passed.
#[cfg(feature = "audit")]
#[test]
fn audit_certifies_drifting_full_mode_solves() {
    let report = run_stream(PlanCacheMode::Full, 0.23, 12);
    let obs = report.obs.as_ref().unwrap();
    let miss: usize = obs.planner.iter().map(|p| p.tmpl_miss).sum();
    let warm: usize = obs.planner.iter().map(|p| p.tmpl_warm).sum();
    assert!(miss > 0, "drifting stream must solve cold");
    assert_eq!(warm, 0, "the plan cache has no warm tier");
}
