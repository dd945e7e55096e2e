//! Exhaustive interleaving check of the lane board's two-slot ring
//! protocol (`src/exchange.rs`), in the style of `loom`: enumerate
//! *every* scheduler interleaving of an abstract model of the protocol
//! and assert the safety properties the module documentation claims. The
//! vendored offline build has no `loom`, so this is a small in-repo
//! model checker instead: each rank's program is a deterministic
//! sequence of atomic protocol steps (the real steps run under one lane
//! mutex, so they are atomic in the implementation too), the scheduler
//! choice of "which rank steps next" is the only nondeterminism, and a
//! memoized depth-first search visits every reachable global state.
//!
//! Each epoch of a program has a reader set, one per shape of collective
//! the board serves: read by every peer (all-to-all, barrier), gathered
//! to rank 0, broadcast from rank 1, or exchanged pairwise.
//!
//! Properties checked, over all interleavings:
//! 1. **Deposits never block** when every epoch is read by every peer:
//!    by the time any rank deposits epoch `e + 2`, every lane's
//!    epoch-`e` slot has retired. (A depth-1 ring violates this; the
//!    negative test proves the checker can tell.) Rooted epochs let a
//!    depositor run two epochs ahead of a slow reader, so there the
//!    deposit may wait — which is the flow control the next property
//!    covers.
//! 2. **No deadlock** — from every reachable state some rank can step
//!    until all are done, for every mix of reader sets.
//! 3. **Collects are exact** — a collect only ever observes the epoch it
//!    wants (the `epoch % 2` slot never aliases a live older epoch).
//! 4. **Retirement is exact** — a slot frees exactly when its last
//!    reader collected it, and every program terminates with all lanes
//!    empty.

use std::collections::HashSet;

/// One lane slot: `(epoch, readers_remaining)`.
type Slot = Option<(u64, usize)>;

/// The full protocol state: per-depositor lanes of `depth` slots, plus
/// each rank's program counter.
#[derive(Clone, PartialEq, Eq, Hash)]
struct State {
    lanes: Vec<Vec<Slot>>,
    ranks: Vec<RankPc>,
}

/// Where one rank is in its program: about to run step `step` of epoch
/// `epoch`. Step 0 deposits (if anyone reads this rank's lane); steps
/// `1..` collect from the epoch's sources in order — the same program
/// every collective runs (`Comm::post`, then `Comm::read`).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct RankPc {
    epoch: u64,
    step: usize,
}

/// Who reads one epoch's deposits.
#[derive(Clone, Copy, Debug)]
enum Readers {
    /// Every peer reads every lane; the own bucket stays local
    /// (`alltoallv_wire`, `barrier`).
    All,
    /// Every rank deposits for rank 0, which reads all lanes (`gather`).
    GatherTo0,
    /// Rank 1 deposits for every rank, itself included (`broadcast`).
    BroadcastFrom1,
    /// Rank `r` exchanges with `r ^ 1`; an unpaired last rank partners
    /// itself and stays local (`sendrecv`).
    Pairwise,
}

const ALL_READERS: [Readers; 4] = [
    Readers::All,
    Readers::GatherTo0,
    Readers::BroadcastFrom1,
    Readers::Pairwise,
];

impl Readers {
    fn partner(ranks: usize, r: usize) -> usize {
        if r ^ 1 < ranks {
            r ^ 1
        } else {
            r
        }
    }

    /// How many ranks read rank `r`'s deposit; 0 means no deposit.
    fn readers(self, ranks: usize, r: usize) -> usize {
        match self {
            Readers::All => ranks - 1,
            Readers::GatherTo0 => 1,
            Readers::BroadcastFrom1 => usize::from(r == 1) * ranks,
            Readers::Pairwise => usize::from(Self::partner(ranks, r) != r),
        }
    }

    /// The lanes rank `r` collects from, in order.
    fn sources(self, ranks: usize, r: usize) -> Vec<usize> {
        match self {
            Readers::All => (1..ranks).map(|k| (r + k) % ranks).collect(),
            Readers::GatherTo0 if r == 0 => (0..ranks).collect(),
            Readers::GatherTo0 => Vec::new(),
            Readers::BroadcastFrom1 => vec![1],
            Readers::Pairwise => {
                let p = Self::partner(ranks, r);
                if p == r {
                    Vec::new()
                } else {
                    vec![p]
                }
            }
        }
    }
}

struct Model {
    ranks: usize,
    /// The reader set of each epoch, in program order.
    program: Vec<Readers>,
    depth: usize,
}

/// What the checker found across all interleavings.
#[derive(Default, Debug)]
struct Report {
    states: usize,
    /// A reachable state where a rank's deposit found its slot occupied.
    deposit_blocked: bool,
    /// A reachable state where no rank can step but not all are done.
    deadlock: bool,
}

impl Model {
    fn initial(&self) -> State {
        State {
            lanes: vec![vec![None; self.depth]; self.ranks],
            ranks: vec![RankPc { epoch: 0, step: 0 }; self.ranks],
        }
    }

    /// An all-read program of `epochs` epochs.
    fn all_read(ranks: usize, epochs: usize, depth: usize) -> Self {
        Self {
            ranks,
            program: vec![Readers::All; epochs],
            depth,
        }
    }

    fn epochs(&self) -> u64 {
        self.program.len() as u64
    }

    fn done(&self, s: &State) -> bool {
        s.ranks.iter().all(|r| r.epoch == self.epochs())
    }

    /// Attempts rank `r`'s next atomic step. `None` = blocked (collect
    /// not yet deposited, or — protocol violation — deposit slot busy,
    /// which is also recorded in `report`).
    fn step(&self, s: &State, r: usize, report: &mut Report) -> Option<State> {
        let pc = s.ranks[r];
        if pc.epoch == self.epochs() {
            return None; // finished
        }
        let readers = self.program[pc.epoch as usize];
        let sources = readers.sources(self.ranks, r);
        let mut next = s.clone();
        let wanted = readers.readers(self.ranks, r);
        if pc.step == 0 && wanted > 0 {
            // deposit(r, epoch): claim the `epoch % depth` slot.
            let slot = &mut next.lanes[r][(pc.epoch as usize) % self.depth];
            if slot.is_some() {
                // The real deposit would spin here. Depth 2 promises this
                // is unreachable; record it and treat the rank as blocked
                // so the search continues (and can prove a depth-1 ring
                // reaches it).
                report.deposit_blocked = true;
                return None;
            }
            *slot = Some((pc.epoch, wanted));
        } else if pc.step > 0 {
            // collect(source, epoch).
            let p = sources[pc.step - 1];
            let slot = &mut next.lanes[p][(pc.epoch as usize) % self.depth];
            match slot {
                Some((e, reads)) if *e == pc.epoch => {
                    *reads -= 1;
                    if *reads == 0 {
                        *slot = None; // retire
                    }
                }
                Some((e, _)) => {
                    // Property 3: the slot may hold an *older* epoch that
                    // has pending readers (we then block), but never a
                    // newer one — that would mean a deposit overwrote a
                    // live slot.
                    assert!(
                        *e < pc.epoch,
                        "rank {r} collecting epoch {} found future epoch {e} \
                         in rank {p}'s lane",
                        pc.epoch
                    );
                    return None; // blocked on the wanted deposit
                }
                None => return None, // blocked on the deposit
            }
        }
        // Advance the program counter.
        let pc = &mut next.ranks[r];
        pc.step += 1;
        if pc.step == 1 + sources.len() {
            pc.step = 0;
            pc.epoch += 1;
        }
        Some(next)
    }

    /// Memoized DFS over every interleaving.
    fn check(&self) -> Report {
        let mut report = Report::default();
        let mut seen: HashSet<State> = HashSet::new();
        let mut stack = vec![self.initial()];
        seen.insert(self.initial());
        while let Some(s) = stack.pop() {
            report.states += 1;
            if self.done(&s) {
                // Property 4: termination leaves every lane empty.
                assert!(
                    s.lanes.iter().flatten().all(Option::is_none),
                    "a slot survived full termination"
                );
                continue;
            }
            let mut stepped = false;
            for r in 0..self.ranks {
                if let Some(next) = self.step(&s, r, &mut report) {
                    stepped = true;
                    if seen.insert(next.clone()) {
                        stack.push(next);
                    }
                }
            }
            if !stepped {
                report.deadlock = true;
            }
        }
        report
    }
}

/// The shipped protocol: depth-2 ring, every interleaving of 3 ranks ×
/// 3 epochs. Deposits never block, no deadlock, every run terminates
/// cleanly. (~10⁴ states; exhaustive, not sampled.)
#[test]
#[cfg_attr(miri, ignore = "exhaustive state-space search is too slow under miri")]
fn depth_two_ring_is_safe_under_every_interleaving() {
    let report = Model::all_read(3, 3, 2).check();
    assert!(
        !report.deposit_blocked,
        "a deposit found its ring slot occupied ({} states)",
        report.states
    );
    assert!(!report.deadlock, "reached a stuck state");
    assert!(report.states > 100, "search must actually branch");
}

/// Scale check on the world size: 4 ranks × 2 epochs.
#[test]
#[cfg_attr(miri, ignore = "exhaustive state-space search is too slow under miri")]
fn depth_two_ring_is_safe_for_four_ranks() {
    let report = Model::all_read(4, 2, 2).check();
    assert!(!report.deposit_blocked && !report.deadlock);
}

/// Tiny configuration kept runnable under Miri so the nightly job still
/// exercises the model itself.
#[test]
fn depth_two_ring_is_safe_for_two_ranks() {
    let report = Model::all_read(2, 2, 2).check();
    assert!(!report.deposit_blocked && !report.deadlock);
}

/// The negative control: a depth-**1** ring *does* reach a state where a
/// deposit finds its slot occupied (rank A deposits epoch 1 before a
/// slow peer collected epoch 0). This is exactly the blocking the
/// depth-2 design eliminates — and it proves the checker can detect the
/// violation it exists to rule out.
#[test]
fn depth_one_ring_reaches_a_blocked_deposit() {
    let report = Model::all_read(2, 2, 1).check();
    assert!(
        report.deposit_blocked,
        "a depth-1 ring must block a deposit somewhere in {} states",
        report.states
    );
    assert!(
        !report.deadlock,
        "blocking is transient, not a deadlock: the slow collector can \
         always run first"
    );
}

/// Every program of `epochs` epochs over the four reader sets.
fn every_program(epochs: usize) -> Vec<Vec<Readers>> {
    (0..epochs).fold(vec![Vec::new()], |programs, _| {
        programs
            .iter()
            .flat_map(|p| {
                ALL_READERS.iter().map(move |&r| {
                    let mut next = p.clone();
                    next.push(r);
                    next
                })
            })
            .collect()
    })
}

/// Checks every mixed program of `epochs` epochs on `ranks` ranks:
/// no deadlock under any interleaving, with exact collects and exact
/// retirement asserted inside the search. Returns how many programs
/// reached a deposit that had to wait for a slow reader.
fn check_mixed_programs(ranks: usize, epochs: usize) -> usize {
    let mut waited = 0;
    for program in every_program(epochs) {
        let report = Model {
            ranks,
            program: program.clone(),
            depth: 2,
        }
        .check();
        assert!(!report.deadlock, "{program:?} deadlocks on {ranks} ranks");
        waited += usize::from(report.deposit_blocked);
    }
    waited
}

/// The lane board serves rooted collectives too: every program of 3
/// epochs mixing all-read, gather, broadcast and pairwise epochs on 3
/// ranks is deadlock-free under every interleaving, even though rooted
/// epochs let depositors run ahead of slow readers and wait.
#[test]
#[cfg_attr(miri, ignore = "exhaustive state-space search is too slow under miri")]
fn mixed_reader_sets_never_deadlock_for_three_ranks() {
    let waited = check_mixed_programs(3, 3);
    assert!(waited > 0, "some rooted program must exercise flow control");
}

/// Two ranks over 4 epochs: all 256 mixed programs.
#[test]
#[cfg_attr(miri, ignore = "exhaustive state-space search is too slow under miri")]
fn mixed_reader_sets_never_deadlock_for_two_ranks() {
    check_mixed_programs(2, 4);
}

/// The flow-control path itself: back-to-back gathers let the non-root
/// deposit epochs 0 and 1 and then wait on epoch 2 until the root has
/// read epoch 0 — a blocked deposit, but never a deadlock.
#[test]
fn rooted_run_ahead_waits_but_never_deadlocks() {
    let report = Model {
        ranks: 2,
        program: vec![Readers::GatherTo0; 3],
        depth: 2,
    }
    .check();
    assert!(
        report.deposit_blocked,
        "the non-root must run ahead and wait"
    );
    assert!(!report.deadlock);
}
