//! Fixture corpus + self-application.
//!
//! Each fixture under `tests/fixtures/` is a miniature workspace shaped
//! like the real one (`crates/<name>/src/…`), crafted so exactly one rule
//! fires — proving every rule can actually bite — plus sanction-behavior
//! and false-positive guards. The final test lints the real repository
//! and requires it clean: the gate in CI can only stay green if this
//! test's view of the tree matches `lint_gate`'s.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use fedtrip_lint::{lint_workspace, LintConfig, LintReport};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn lint_fixture(name: &str) -> LintReport {
    lint_workspace(&fixture(name), &LintConfig::default()).unwrap()
}

/// The set of distinct rule ids a fixture trips.
fn rules_hit(name: &str) -> BTreeSet<&'static str> {
    lint_fixture(name)
        .diagnostics
        .iter()
        .map(|d| d.rule)
        .collect()
}

fn only(rule: &'static str) -> BTreeSet<&'static str> {
    [rule].into_iter().collect()
}

#[test]
fn r1_map_iteration_fires_alone() {
    assert_eq!(rules_hit("r1_map_iter"), only("determinism"));
}

#[test]
fn r1_wall_clock_fires_alone() {
    assert_eq!(rules_hit("r1_time"), only("determinism"));
}

#[test]
fn r2_inline_tag_fires_alone() {
    let report = lint_fixture("r2_inline_tag");
    assert_eq!(
        report
            .diagnostics
            .iter()
            .map(|d| d.rule)
            .collect::<BTreeSet<_>>(),
        only("rng-tags")
    );
    assert!(report.diagnostics[0].message.contains("0xBEEF"));
}

#[test]
fn r2_registry_collision_fires_alone() {
    let report = lint_fixture("r2_registry_collision");
    assert_eq!(
        report
            .diagnostics
            .iter()
            .map(|d| d.rule)
            .collect::<BTreeSet<_>>(),
        only("rng-tags")
    );
    assert!(report.diagnostics[0].message.contains("DISPATCH"));
}

#[test]
fn r3_sum_fires_alone() {
    assert_eq!(rules_hit("r3_sum"), only("float-fold"));
}

#[test]
fn r3_loop_accumulation_fires_alone() {
    assert_eq!(rules_hit("r3_loop_acc"), only("float-fold"));
}

#[test]
fn r4_missing_safety_comment_fires_alone() {
    assert_eq!(rules_hit("r4_missing_safety"), only("unsafe"));
}

#[test]
fn r4_missing_forbid_fires_alone() {
    let report = lint_fixture("r4_missing_forbid");
    assert_eq!(
        report
            .diagnostics
            .iter()
            .map(|d| d.rule)
            .collect::<BTreeSet<_>>(),
        only("unsafe")
    );
    assert!(report.diagnostics[0]
        .message
        .contains("#![forbid(unsafe_code)]"));
}

#[test]
fn r5_unwrap_fires_alone() {
    assert_eq!(rules_hit("r5_unwrap"), only("panic"));
}

#[test]
fn reasoned_sanction_suppresses_the_finding() {
    let report = lint_fixture("sanctioned");
    assert!(report.is_clean(), "{:?}", report.diagnostics);
}

#[test]
fn reasonless_sanction_suppresses_nothing_and_is_flagged() {
    let hit = rules_hit("reasonless");
    assert_eq!(hit, ["lint-syntax", "panic"].into_iter().collect());
}

#[test]
fn trip_words_in_comments_and_strings_do_not_fire() {
    let report = lint_fixture("false_positives");
    assert!(report.is_clean(), "{:?}", report.diagnostics);
}

#[test]
fn real_workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lint_workspace(&root, &LintConfig::default()).unwrap();
    assert!(
        report.is_clean(),
        "workspace has unsanctioned findings:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // the walker must actually be looking at the tree, not an empty dir
    assert!(report.files_scanned > 50, "{} files", report.files_scanned);
}
