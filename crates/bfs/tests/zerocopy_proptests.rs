//! The zero-copy loan path is a transport concern — the three guarantees
//! it makes (see `docs/zero-copy.md`):
//!
//! 1. **Bit identity**: loaned and copied payloads produce identical
//!    parent trees and level arrays on both distributed drivers, across
//!    codec × sieve × flat/hybrid × direction. Property-tested
//!    with the loan threshold forced to 1 byte (every nonempty buffer
//!    loans) against the same run with the loan path disabled.
//! 2. **Seal enforcement**: a buffer that sealed into a loan at deposit
//!    time can no longer be mutated — `WireBuf::bytes_mut` panics, so a
//!    use-after-deposit write is a deterministic failure instead of a
//!    data race with a receiver decoding the same allocation.
//! 3. **No cost when off**: with the loan path disabled the seal is one
//!    `loan_threshold()` load and a branch per outbound buffer; modeled
//!    against a real search that stays under 5% of the search's wall.
//!
//! The loan threshold is process-global, so every test here serializes on
//! one mutex and restores the default before releasing it.

use dmbfs_bfs::frontier_codec::Codec;
use dmbfs_bfs::one_d::{bfs1d_run, Bfs1dConfig};
use dmbfs_bfs::two_d::{bfs2d_run, Bfs2dConfig};
use dmbfs_bfs::validate::validate_bfs;
use dmbfs_comm::{
    loan_threshold, set_loan_threshold, Comm, WireBuf, World, DEFAULT_LOAN_THRESHOLD,
};
use dmbfs_graph::{CsrGraph, EdgeList, Grid2D};
use dmbfs_runtime::DirectionMode;
use proptest::prelude::*;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// Serializes every test that reads or writes the process-global loan
/// threshold. Lock poisoning is ignored: a failed test already reported
/// its own panic, and the guard below restores the default regardless.
static THRESHOLD_LOCK: Mutex<()> = Mutex::new(());

/// RAII: forces the threshold for the critical section, restores the
/// default on drop (even when a proptest case fails mid-run).
struct ThresholdGuard(#[allow(dead_code)] std::sync::MutexGuard<'static, ()>);

fn force_threshold(threshold: Option<u64>) -> ThresholdGuard {
    let guard = THRESHOLD_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    set_loan_threshold(threshold);
    ThresholdGuard(guard)
}

impl Drop for ThresholdGuard {
    fn drop(&mut self) {
        set_loan_threshold(Some(DEFAULT_LOAN_THRESHOLD));
    }
}

/// Strategy: a canonicalized undirected graph on `n` vertices.
fn graph(n: u64, max_m: usize) -> impl Strategy<Value = CsrGraph> {
    prop::collection::vec((0..n, 0..n), 1..max_m).prop_map(move |edges| {
        let mut el = EdgeList::new(n, edges);
        el.canonicalize_undirected();
        CsrGraph::from_edge_list(&el)
    })
}

fn codec_strategy() -> impl Strategy<Value = Codec> {
    prop::sample::select(vec![
        Codec::Off,
        Codec::Raw,
        Codec::VarintDelta,
        Codec::Bitmap,
        Codec::Adaptive,
    ])
}

fn direction_strategy() -> impl Strategy<Value = DirectionMode> {
    prop::sample::select(vec![
        DirectionMode::TopDown,
        DirectionMode::BottomUp,
        DirectionMode::Hybrid,
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn loaned_1d_is_bit_identical_to_copied(
        g in graph(80, 400),
        p in 1usize..5,
        hybrid in any::<bool>(),
        codec in codec_strategy(),
        sieve in any::<bool>(),
        direction in direction_strategy(),
        seed in any::<u64>(),
    ) {
        let source = seed % g.num_vertices();
        let cfg = if hybrid {
            Bfs1dConfig::hybrid(p, 3)
        } else {
            Bfs1dConfig::flat(p)
        }
        .with_codec(codec)
        .with_sieve(sieve)
        .with_direction(direction);

        let copied = {
            let _g = force_threshold(None);
            bfs1d_run(&g, source, &cfg)
        };
        validate_bfs(&g, source, &copied.output.parents, &copied.output.levels).unwrap();
        let loaned = {
            let _g = force_threshold(Some(1));
            bfs1d_run(&g, source, &cfg)
        };
        prop_assert_eq!(&loaned.output.parents, &copied.output.parents);
        prop_assert_eq!(&loaned.output.levels, &copied.output.levels);
    }

    #[test]
    fn loaned_2d_is_bit_identical_to_copied(
        g in graph(64, 320),
        dims in prop::sample::select(vec![(1usize, 1usize), (2, 2), (2, 3), (3, 3)]),
        hybrid in any::<bool>(),
        codec in codec_strategy(),
        sieve in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let source = seed % g.num_vertices();
        let grid = Grid2D::new(dims.0, dims.1);
        let cfg = if hybrid {
            Bfs2dConfig::hybrid(grid, 3)
        } else {
            Bfs2dConfig::flat(grid)
        }
        .with_codec(codec)
        .with_sieve(sieve);

        let copied = {
            let _g = force_threshold(None);
            bfs2d_run(&g, source, &cfg)
        };
        validate_bfs(&g, source, &copied.output.parents, &copied.output.levels).unwrap();
        let loaned = {
            let _g = force_threshold(Some(1));
            bfs2d_run(&g, source, &cfg)
        };
        prop_assert_eq!(&loaned.output.parents, &copied.output.parents);
        prop_assert_eq!(&loaned.output.levels, &copied.output.levels);
    }
}

/// Use-after-deposit: once a payload sealed into a loan and crossed the
/// board, `bytes_mut` on the received (loaned) buffer panics instead of
/// mutating an allocation another rank may still be decoding. The sender
/// mutates *before* the seal (checksum → corrupt → seal → deposit), so
/// the legitimate paths never hit this.
#[test]
fn use_after_deposit_seal_panics() {
    let _g = force_threshold(Some(DEFAULT_LOAN_THRESHOLD));
    // This test pokes the raw wire collective below the driver surface, so
    // it launches ranks directly instead of through `run_ranks`.
    // lint: allow(world-run-boundary)
    World::run(2, |comm: &Comm| {
        // Well over the default 256 B threshold: both deposits loan.
        let mine = WireBuf::new(vec![comm.rank() as u8; 1024], 1024);
        let recv = comm.allgatherv_wire(mine);
        let peer = 1 - comm.rank();
        assert!(
            recv[peer].is_loaned(),
            "a 1 KiB payload must cross the board as a loan"
        );
        let mut theirs = recv[peer].clone();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Deliberately the forbidden shape — the panic is the point.
            theirs.bytes_mut()[0] = 0xFF; // lint: allow(no-post-deposit-mutation)
        }));
        let err = caught.expect_err("mutating a sealed payload must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("sealed"),
            "seal panic must name the seal, got: {msg}"
        );
    });
}

fn rmat_graph(scale: u32, seed: u64) -> CsrGraph {
    use dmbfs_graph::gen::{rmat, RmatConfig};
    let mut el = rmat(&RmatConfig::graph500(scale, seed));
    el.canonicalize_undirected();
    CsrGraph::from_edge_list(&el)
}

/// Disabled-mode overhead stays under 5% of a blocking search.
///
/// With the loan path off, `WireBuf::seal` is one `loan_threshold()`
/// read (an atomic load behind a `Once`) and a branch per outbound
/// buffer. A/B wall-clock of two full runs cannot bound an effect that
/// small, so this measures the disabled check directly and charges a
/// real search one check per (rank, level, destination), comparing
/// against the same search's internal seconds.
#[test]
fn disabled_loan_overhead_is_bounded() {
    let guard = force_threshold(None);
    let g = rmat_graph(12, 9);
    let ranks = 4usize;
    let run = bfs1d_run(&g, 1, &Bfs1dConfig::flat(ranks));
    drop(guard);
    let levels = run
        .output
        .levels
        .iter()
        .copied()
        .max()
        .expect("graph is non-empty")
        + 1;
    assert!(levels > 0, "search must reach beyond the source");

    let _g = force_threshold(None);
    const ITERS: u64 = 1_000_000;
    let t0 = Instant::now();
    let mut acc = 0u64;
    for _ in 0..ITERS {
        // The exact disabled-path shape: read the threshold, branch away.
        acc = acc.wrapping_add(black_box(loan_threshold()).unwrap_or(1));
    }
    black_box(acc);
    let per_check = t0.elapsed().as_secs_f64() / ITERS as f64;

    // One seal per outbound buffer: p destinations per rank per level.
    let checks = levels as f64 * (ranks * ranks) as f64;
    let modeled_overhead = per_check * checks;
    let budget = 0.05 * run.seconds;
    assert!(
        modeled_overhead < budget,
        "disabled loan check would cost {:.3e}s over {checks} \
         (rank, level, destination) triples, budget is 5% of {:.3e}s search",
        modeled_overhead,
        run.seconds
    );
}
