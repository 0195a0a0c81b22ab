//! Lint self-tests over the `tests/fixtures/` tree: each known-bad snippet
//! must fire its rule at the exact span, and the known-good allowlisted file
//! must produce zero findings. The fixture tree mirrors workspace paths
//! (`crates/sim/src/...`) because rule scoping keys off the path, and the
//! workspace walker skips any directory named `fixtures`, so these
//! deliberately-bad files never fail the real `cargo lint` run.

use std::path::Path;
use tetrium_lint::{lint_source, lint_workspace, Finding, Rule};

fn fixture_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fixture_findings() -> Vec<Finding> {
    lint_workspace(&fixture_root()).expect("fixture tree scans")
}

fn for_file<'a>(findings: &'a [Finding], name: &str) -> Vec<&'a Finding> {
    findings.iter().filter(|f| f.path.ends_with(name)).collect()
}

#[test]
fn l1_fixture_fires_on_the_values_call() {
    let all = fixture_findings();
    let f = for_file(&all, "bad_l1.rs");
    assert_eq!(f.len(), 1, "exactly one finding: {f:?}");
    assert_eq!(f[0].rule, Rule::L1);
    assert_eq!(
        (f[0].line, f[0].col, f[0].len),
        (5, 16, 6),
        "span of `values`"
    );
}

#[test]
fn l2_fixture_fires_on_the_comparator() {
    let all = fixture_findings();
    let f = for_file(&all, "bad_l2.rs");
    assert_eq!(f.len(), 1, "exactly one finding: {f:?}");
    assert_eq!(f[0].rule, Rule::L2);
    assert_eq!(
        (f[0].line, f[0].col, f[0].len),
        (2, 25, 11),
        "span of `partial_cmp`"
    );
}

#[test]
fn l3_fixture_fires_on_the_now_call_not_the_type() {
    let all = fixture_findings();
    let f = for_file(&all, "bad_l3.rs");
    assert_eq!(f.len(), 1, "the `Instant` return type must not fire: {f:?}");
    assert_eq!(f[0].rule, Rule::L3);
    assert_eq!(
        (f[0].line, f[0].col, f[0].len),
        (2, 16, 7),
        "span of `Instant`"
    );
}

#[test]
fn l4_fixture_fires_on_the_cast() {
    let all = fixture_findings();
    let f = for_file(&all, "engine.rs");
    assert_eq!(f.len(), 1, "exactly one finding: {f:?}");
    assert_eq!(f[0].rule, Rule::L4);
    assert_eq!((f[0].line, f[0].col, f[0].len), (2, 28, 2), "span of `as`");
}

#[test]
fn l5_fixture_fires_on_the_nested_vec_not_the_flat_one() {
    let all = fixture_findings();
    let f = for_file(&all, "bad_l5.rs");
    assert_eq!(f.len(), 1, "exactly one finding: {f:?}");
    assert_eq!(f[0].rule, Rule::L5);
    assert_eq!(
        (f[0].line, f[0].col, f[0].len),
        (4, 15, 13),
        "span of `Vec<Vec<f64>>`"
    );
}

/// Every reachable-panic shape fires at its exact span, the reasonless
/// `lint:allow(L6)` on the `expect` does NOT suppress (L6 demands a
/// written justification), and the `#[cfg(test)]` indexing stays exempt.
#[test]
fn l6_fixture_fires_on_every_panic_shape_at_exact_spans() {
    let all = fixture_findings();
    let f = for_file(&all, "bad_l6.rs");
    assert_eq!(f.len(), 4, "unwrap, indexing, panic!, expect: {f:#?}");
    assert!(f.iter().all(|f| f.rule == Rule::L6));
    let spans: Vec<_> = f.iter().map(|f| (f.line, f.col, f.len)).collect();
    assert_eq!(
        spans,
        [(6, 16, 6), (10, 6, 1), (14, 5, 6), (19, 24, 6)],
        "`.unwrap()`, `v[`, `panic!`, reasonless-allowed `.expect()`"
    );
}

/// The acceptance case for the dataflow engine: a `HashMap` iteration in
/// `crates/core` (outside L1's path scope) taints a caller in
/// `crates/sim` through the call graph. The old token engine provably
/// misses it — zero findings on both halves — while the new engine flags
/// the caller at the exact call-site span.
#[test]
fn l7_cross_file_taint_fixture_old_engine_misses_new_engine_flags_caller() {
    let helper_path = "crates/core/src/taint_helper.rs";
    let caller_path = "crates/sim/src/taint_caller.rs";
    let helper = std::fs::read_to_string(fixture_root().join(helper_path)).expect("helper");
    let caller = std::fs::read_to_string(fixture_root().join(caller_path)).expect("caller");

    // Old token-level engine (L1–L5): blind on both files.
    assert!(
        lint_source(helper_path, &helper).is_empty(),
        "old engine must miss the out-of-scope hash iteration"
    );
    assert!(
        lint_source(caller_path, &caller).is_empty(),
        "old engine must miss the taint import"
    );

    // New dataflow engine: the helper stays clean (the seed is L1
    // territory, out of scope in crates/core), the caller is flagged at
    // the `merge_weights` call site.
    let all = fixture_findings();
    assert!(
        for_file(&all, "taint_helper.rs").is_empty(),
        "seeds are not re-reported"
    );
    let f = for_file(&all, "taint_caller.rs");
    assert_eq!(f.len(), 1, "exactly one finding: {f:#?}");
    assert_eq!(f[0].rule, Rule::L7);
    assert_eq!(
        (f[0].line, f[0].col, f[0].len),
        (7, 13, 13),
        "span of the `merge_weights` call"
    );
    assert!(f[0].message.contains("schedule_round"), "{}", f[0].message);
    assert!(f[0].message.contains("merge_weights"), "{}", f[0].message);
    assert!(f[0].message.contains("RandomState"), "{}", f[0].message);
}

/// The guard held across `.await` and the non-canonical half of the
/// lock-order inversion fire at exact spans; the canonical `ab` order
/// stays clean.
#[test]
fn l8_fixture_flags_await_under_guard_and_the_inverted_order_site() {
    let all = fixture_findings();
    let f = for_file(&all, "bad_l8.rs");
    assert_eq!(f.len(), 2, "await-under-guard + order inversion: {f:#?}");
    assert!(f.iter().all(|f| f.rule == Rule::L8));
    assert_eq!(
        (f[0].line, f[0].col, f[0].len),
        (8, 19, 5),
        "span of `.await` under the `s.queue` guard"
    );
    assert!(f[0].message.contains("s.queue.lock()"), "{}", f[0].message);
    assert_eq!(
        (f[1].line, f[1].col, f[1].len),
        (20, 21, 4),
        "span of the `s.alpha.lock()` acquired while holding `s.beta`"
    );
    assert!(
        f[1].message.contains("inconsistent lock order"),
        "{}",
        f[1].message
    );
}

#[test]
fn good_fixture_with_allowlist_escapes_is_clean() {
    let all = fixture_findings();
    let f = for_file(&all, "good_allowed.rs");
    assert!(f.is_empty(), "allowlisted escapes must suppress: {f:?}");
}

#[test]
fn diagnostics_render_with_caret_under_the_span() {
    let all = fixture_findings();
    let f = for_file(&all, "bad_l2.rs");
    let rendered = f[0].render();
    assert!(rendered.contains("error[L2]"), "{rendered}");
    assert!(rendered.contains("bad_l2.rs:2:25"), "{rendered}");
    assert!(rendered.contains("^^^^^^^^^^^"), "{rendered}");
}

/// The real workspace has zero findings: the same gate `cargo lint`
/// applies, so a new finding fails this test too, not just the CI lint job.
#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let findings = lint_workspace(&root).expect("workspace scans");
    assert!(
        findings.is_empty(),
        "workspace has lint findings:\n{}",
        findings
            .iter()
            .map(Finding::render)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
