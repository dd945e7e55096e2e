//! Self-test for the static collective-schedule checker: a fixture tree
//! under `tests/fixtures/schedule/` seeds one file per defect class (plus
//! a negative fixture of the safe patterns), and the real workspace must
//! come back clean — the same invocation CI runs via
//! `cargo run -p xtask -- schedule`.

use std::path::{Path, PathBuf};

use xtask::schedule::SCHEDULE_ASYMMETRY;
use xtask::{analyze_workspace, workspace_root};

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/schedule")
}

/// Every seeded defect is reported with its rule name and exact
/// file:line, and nothing else fires — in particular the safe-pattern
/// file (allreduce-decided branch) contributes zero.
#[test]
fn seeded_schedule_defects_are_reported_with_rule_and_location() {
    let analysis = analyze_workspace(&fixtures_root()).expect("fixture tree must be readable");
    let got: Vec<(String, u32, &str)> = analysis
        .findings
        .iter()
        .map(|f| (f.file.clone(), f.line, f.rule))
        .collect();
    let expected = vec![
        // The divergent condition enters through the call site; the
        // report lands on the branch inside the helper.
        (
            "crates/bfs/src/crossfn.rs".to_string(),
            5,
            SCHEDULE_ASYMMETRY,
        ),
        (
            "crates/bfs/src/diverge.rs".to_string(),
            5,
            SCHEDULE_ASYMMETRY,
        ),
        // Rank-local data decides the branch; no replication proof.
        (
            "crates/bfs/src/unsafe_branch.rs".to_string(),
            7,
            SCHEDULE_ASYMMETRY,
        ),
    ];
    assert_eq!(got, expected, "full findings: {:#?}", analysis.findings);
}

/// The real workspace carries no schedule findings: every config-decided
/// branch is annotated with its replication proof. This is the clean-run
/// gate CI enforces.
#[test]
fn real_workspace_is_schedule_clean() {
    let analysis = analyze_workspace(&workspace_root()).expect("workspace must be readable");
    assert!(
        analysis.findings.is_empty(),
        "the workspace must be schedule-clean, found:\n{}",
        analysis
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Every driver in `crates/bfs` surfaces as an entry point with a
/// non-empty schedule — the machine-readable report the conformance test
/// consumes.
#[test]
fn real_workspace_extracts_the_driver_entry_points() {
    let analysis = analyze_workspace(&workspace_root()).expect("workspace must be readable");
    for name in [
        "bfs1d_run",
        "bfs2d_run",
        "distributed_pagerank_run",
        "distributed_sssp_run",
        "distributed_components_run",
    ] {
        let e = analysis
            .entry(name)
            .unwrap_or_else(|| panic!("driver {name} must surface as an entry point"));
        let mut rendered = String::new();
        xtask::schedule::render(&e.schedule, 0, &mut rendered);
        assert!(
            !rendered.trim().is_empty() && rendered.trim() != "(empty)",
            "driver {name} must extract a non-empty schedule"
        );
        assert!(
            e.file.starts_with("crates/bfs/src/"),
            "driver {name} must live in crates/bfs, got {}",
            e.file
        );
    }
}
