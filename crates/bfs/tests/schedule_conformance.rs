//! Cross-validation of the static collective-schedule checker against
//! reality: run each driver at small scale with
//! [`RunConfig::schedule_capture`], harvest the ordered fingerprint
//! sequence every rank actually issued, and diff it against the schedule
//! `cargo run -p xtask -- schedule` predicts for that driver's entry
//! point. A static schedule is a regex-shaped tree (alternation per
//! branch, zero-or-more per loop); conformance means every rank's
//! observed sequence is a word of that language — so the static checker's
//! abstractions (inline boundaries, loop folding, neutralized comm
//! internals) are pinned to what the runtime does, not just to each
//! other.

use dmbfs_bfs::one_d::{bfs1d_run, Bfs1dConfig};
use dmbfs_bfs::two_d::{bfs2d_run, Bfs2dConfig};
use dmbfs_graph::gen::grid2d;
use dmbfs_graph::{CsrGraph, Grid2D};
use dmbfs_runtime::DirectionMode;
use xtask::schedule::matches;
use xtask::{analyze_workspace, workspace_root, Analysis};

fn analysis() -> Analysis {
    analyze_workspace(&workspace_root()).expect("workspace sources must be readable")
}

fn graph() -> CsrGraph {
    CsrGraph::from_edge_list(&grid2d(6, 6))
}

/// Asserts every rank's observed sequence is accepted by the entry's
/// static schedule, and that the ranks agree with each other (the
/// symmetry the checker proves statically).
fn assert_conforms(analysis: &Analysis, entry: &str, per_rank: &[Vec<&'static str>]) {
    let e = analysis
        .entry(entry)
        .unwrap_or_else(|| panic!("static analysis must extract entry {entry}"));
    let first = &per_rank[0];
    for (rank, seq) in per_rank.iter().enumerate() {
        assert_eq!(
            seq, first,
            "rank {rank} issued a different sequence than rank 0"
        );
        assert!(
            matches(&e.schedule, seq),
            "rank {rank}'s observed sequence is not a word of the static \
             schedule for {entry} ({}:{}):\n observed: {seq:?}",
            e.file,
            e.line
        );
        assert!(
            !seq.is_empty(),
            "rank {rank} captured nothing — capture must be armed"
        );
    }
}

#[test]
fn one_d_topdown_conforms_to_the_static_schedule() {
    let a = analysis();
    let cfg = Bfs1dConfig::flat(4).with_schedule_capture(true);
    let run = bfs1d_run(&graph(), 0, &cfg);
    assert_conforms(&a, "bfs1d_run", &run.per_rank_schedule);
}

#[test]
fn one_d_hybrid_direction_conforms_to_the_static_schedule() {
    let a = analysis();
    let cfg = Bfs1dConfig::flat(4)
        .with_direction(DirectionMode::Hybrid)
        .with_schedule_capture(true);
    let run = bfs1d_run(&graph(), 0, &cfg);
    assert_conforms(&a, "bfs1d_run", &run.per_rank_schedule);
}

#[test]
fn two_d_conforms_to_the_static_schedule() {
    let a = analysis();
    let cfg = Bfs2dConfig::flat(Grid2D::new(2, 2)).with_schedule_capture(true);
    let run = bfs2d_run(&graph(), 0, &cfg);
    assert_conforms(&a, "bfs2d_run", &run.per_rank_schedule);
}
