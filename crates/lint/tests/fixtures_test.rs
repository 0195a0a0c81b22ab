//! Lint self-tests over the `tests/fixtures/` tree: each known-bad snippet
//! must fire its rule at the exact span, and the known-good allowlisted file
//! must produce zero findings. The fixture tree mirrors workspace paths
//! (`crates/sim/src/...`) because rule scoping keys off the path, and the
//! workspace walker skips any directory named `fixtures`, so these
//! deliberately-bad files never fail the real `cargo lint` run.

use std::path::Path;
use tetrium_lint::{lint_workspace, Finding, Rule};

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

#[test]
fn good_fixture_with_allowlist_escapes_is_clean() {
    let all = fixture_findings();
    let f = for_file(&all, "good_allowed.rs");
    assert!(f.is_empty(), "the allowlisted escape must suppress: {f:?}");
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
