//! Collectives on the lane board under skew: rooted collectives let a
//! depositor run up to two collectives ahead of a slow reader, so these
//! tests drive that flow-control path with seeded per-rank delays, and
//! check that barriers still synchronize and that an unverified
//! collective mismatch fails loudly instead of hanging. Every scenario
//! runs under a hard deadline so a protocol regression fails the test
//! instead of wedging the suite.

use dmbfs_comm::{Comm, World};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

/// Runs `f` on its own thread and panics if it has not finished within
/// `secs` seconds.
fn with_deadline<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(secs))
        .expect("lane-board scenario hung")
}

/// SplitMix64 finalizer: a seeded, deterministic per-site hash.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Seeded skew before collective `op` of round `round` on rank `rank`:
/// nothing, a yield, or a short sleep, so depositors run ahead of slow
/// readers in a different pattern every round.
fn skew(rank: usize, round: u64, op: u64) {
    match mix((round << 16) ^ (op << 8) ^ rank as u64) % 4 {
        0 => {}
        1 => std::thread::yield_now(),
        2 => std::thread::sleep(Duration::from_micros(50)),
        _ => std::thread::sleep(Duration::from_micros(200)),
    }
}

const ROUNDS: u64 = 200;

/// One rank's side of the stress program; every result is checked
/// against its closed-form oracle. Returns the rounds completed.
fn rooted_rounds(comm: &Comm) -> u64 {
    let (p, r) = (comm.size(), comm.rank());
    let row = comm.split((r / 2) as u64, r as u64);
    let row_members: Vec<usize> = (0..p).filter(|&m| m / 2 == r / 2).collect();
    for k in 0..ROUNDS {
        let root = |shift: u64| ((k + shift) % p as u64) as usize;

        skew(r, k, 0);
        let gathered = comm.gather(root(0), (r, k));
        if r == root(0) {
            let want: Vec<(usize, u64)> = (0..p).map(|j| (j, k)).collect();
            assert_eq!(gathered, Some(want), "gather round {k}");
        } else {
            assert_eq!(gathered, None);
        }

        skew(r, k, 1);
        let b = root(1);
        let value = comm.broadcast(b, (r == b).then_some(k * 10 + b as u64));
        assert_eq!(value, k * 10 + b as u64, "broadcast round {k}");

        skew(r, k, 2);
        let s = root(2);
        let bufs = (r == s).then(|| (0..p).map(|j| vec![k * 100 + j as u64; j + 1]).collect());
        let mine = comm.scatterv(s, bufs);
        assert_eq!(mine, vec![k * 100 + r as u64; r + 1], "scatterv round {k}");

        skew(r, k, 3);
        let prefix = comm.exscan(r as u64 + k, 0, |a, b| a + b);
        let want: u64 = (0..r as u64).map(|j| j + k).sum();
        assert_eq!(prefix, want, "exscan round {k}");

        skew(r, k, 4);
        let partner = if r ^ 1 < p { r ^ 1 } else { r };
        let got = comm.sendrecv(partner, vec![r as u64, k]);
        assert_eq!(got, vec![partner as u64, k], "sendrecv round {k}");

        skew(r, k, 5);
        let g = root(3);
        let gatherv = comm.gatherv(g, vec![r as u64; (r + k as usize) % 3]);
        if r == g {
            let want: Vec<Vec<u64>> = (0..p)
                .map(|j| vec![j as u64; (j + k as usize) % 3])
                .collect();
            assert_eq!(gatherv, Some(want), "gatherv round {k}");
        } else {
            assert_eq!(gatherv, None);
        }

        skew(r, k, 6);
        let row_sum = row.allreduce(r as u64 + k, |a, b| a + b);
        let want: u64 = row_members.iter().map(|&m| m as u64 + k).sum();
        assert_eq!(row_sum, want, "row allreduce round {k}");
    }
    ROUNDS
}

#[test]
#[cfg_attr(miri, ignore = "sleep-based skew across threads")]
fn rooted_collectives_survive_skewed_ranks() {
    for p in [2, 3, 5] {
        let done = with_deadline(120, move || World::run(p, rooted_rounds));
        assert_eq!(done, vec![ROUNDS; p], "p = {p}");
    }
}

#[test]
fn barrier_releases_only_after_every_rank_entered() {
    const RANKS: usize = 4;
    let entered = AtomicUsize::new(0);
    World::run(RANKS, |comm| {
        for round in 1..=50 {
            entered.fetch_add(1, Ordering::SeqCst);
            comm.barrier();
            // Every rank has entered this round's barrier by now.
            assert!(entered.load(Ordering::SeqCst) >= RANKS * round);
        }
    });
    assert_eq!(entered.load(Ordering::SeqCst), RANKS * 50);
}

#[test]
fn single_rank_barrier_never_blocks() {
    let comm = Comm::single();
    for _ in 0..10 {
        comm.barrier();
    }
}

#[test]
fn unverified_type_mismatch_names_both_ranks() {
    let msg = with_deadline(60, || {
        let err = catch_unwind(AssertUnwindSafe(|| {
            World::run(2, |comm| {
                if comm.rank() == 0 {
                    comm.allreduce(1u64, |a, b| a + b); // lint: allow(collective-symmetry)
                } else {
                    comm.allgatherv(vec![1u32]); // lint: allow(collective-symmetry)
                }
            })
        }))
        .expect_err("a mismatched collective must panic");
        err.downcast::<String>().map(|s| *s).unwrap_or_default()
    });
    assert!(msg.contains("type mismatch"), "{msg}");
    assert!(msg.contains("rank 0") && msg.contains("rank 1"), "{msg}");
}
