//! The lane board: the one rendezvous every collective runs on.
//!
//! Each rank owns a private *lane* of two slots, indexed by `epoch % 2`,
//! where the epoch counts the collectives the rank has issued on the
//! communicator. A collective is a post plus reads: a rank deposits its
//! contribution for exactly the ranks that will read it (every rank for
//! an all-to-all, the root for a gather, the ranks above for an exscan,
//! ...), and a reader blocks until the wanted epoch appears in the
//! depositor's lane, takes an `Arc` reference to the payload (sealed
//! `WireBuf`s inside it are loans — receivers decode straight from the
//! sender's allocation), and retires the slot once all of its readers
//! have collected it. Retirement only drops the lane's own reference: a
//! receiver still holding a loan keeps the bytes alive through the `Arc`
//! refcount, which is what makes the two-slot ring safe to reuse under
//! zero-copy.
//!
//! There are no barriers anywhere. A read depends only on the depositor
//! having *posted*, never on the other readers, and a barrier is just a
//! zero-byte collective: post a token for every peer, collect
//! every peer's token.
//!
//! **Why this cannot deadlock.** A deposit of epoch `e` waits only for
//! the same lane's epoch-`e − 2` slot to retire. When every rank reads
//! every epoch that never happens: a rank deposits `e + 2` only after
//! collecting every peer's `e + 1`, which each peer posted after
//! collecting — and thereby retiring — `e`. Rooted collectives break
//! that chain (a gather's non-root returns as soon as it has posted), so
//! a rank can run two epochs ahead of a slow reader and its deposit then
//! waits. Take the earliest unfinished collective in the program's
//! global order. Its deposits wait only on slots of earlier collectives
//! on the same communicator, and those have already retired because
//! every reader finished them; its reads wait only on its own deposits.
//! So it can always progress. Any program that is deadlock-free under
//! fully synchronizing collectives is therefore deadlock-free here. With
//! the verifier on, its own all-arrived wait still keeps ranks within
//! one collective of each other, so its two-entry ring stays sound.
//!
//! Every wait polls the world's [`Poison`] flag and the watchdog
//! ([`watchdog_timeout`]), so a peer's death or a mismatched collective
//! unwinds instead of hanging.

use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shared poison flag for an entire [`crate::World`]: one flag covers every
/// communicator derived from it, so a panic anywhere unblocks everyone.
#[derive(Debug, Default)]
pub struct Poison {
    flag: AtomicBool,
}

impl Poison {
    /// Marks the world as poisoned.
    pub fn set(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// True once any rank has panicked.
    pub fn is_set(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Watchdog limit for lane-board waits, read once per process:
/// `DMBFS_COMM_TIMEOUT_SECS` (default 300; `0` disables).
pub(crate) fn watchdog_timeout() -> Option<Duration> {
    use std::sync::OnceLock;
    static LIMIT: OnceLock<Option<Duration>> = OnceLock::new();
    *LIMIT.get_or_init(|| {
        let secs: u64 = std::env::var("DMBFS_COMM_TIMEOUT_SECS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(300);
        (secs > 0).then(|| Duration::from_secs(secs))
    })
}

/// One rank's contribution to one collective.
pub(crate) type Payload = Arc<dyn Any + Send + Sync>;

struct Slot {
    epoch: u64,
    payload: Payload,
    /// Ranks that have not collected this slot yet; the slot is retired
    /// (freed for epoch + 2) when this reaches zero.
    pending_reads: usize,
}

struct Lane {
    ring: Mutex<[Option<Slot>; 2]>,
    cvar: Condvar,
}

/// One lane per depositor rank; see the module docs for the protocol.
pub(crate) struct ExchangeBoard {
    lanes: Vec<Lane>,
    poison: Arc<Poison>,
    /// Watchdog limit for every wait on this board.
    limit: Option<Duration>,
}

impl ExchangeBoard {
    pub(crate) fn new(size: usize, poison: Arc<Poison>) -> Self {
        assert!(size > 0, "a communicator needs at least one rank");
        Self {
            lanes: (0..size)
                .map(|_| Lane {
                    ring: Mutex::new([None, None]),
                    cvar: Condvar::new(),
                })
                .collect(),
            poison,
            limit: watchdog_timeout(),
        }
    }

    /// Number of lanes, i.e. ranks in the communicator.
    pub(crate) fn size(&self) -> usize {
        self.lanes.len()
    }

    /// Checks poison and the watchdog inside a lane wait loop, panicking
    /// (and poisoning, for the watchdog) instead of blocking forever.
    fn check_stuck(&self, lane: &Lane, started: Instant, what: &str) {
        if self.poison.is_set() {
            lane.cvar.notify_all();
            panic!("communicator poisoned: a peer rank panicked");
        }
        if let Some(limit) = self.limit {
            if started.elapsed() > limit {
                self.poison.set();
                lane.cvar.notify_all();
                panic!(
                    "collective watchdog: lane {what} still waiting after {limit:?} — \
                     probable mismatched collective calls across ranks \
                     (set DMBFS_COMM_TIMEOUT_SECS to adjust, 0 to disable)"
                );
            }
        }
    }

    /// Publishes `payload` as rank `rank`'s contribution to collective
    /// `epoch`, to be collected by exactly `readers` ranks (at least one:
    /// a slot no one reads never retires). Waits while the lane still
    /// holds an unread epoch-`e − 2` slot — see the module docs for why
    /// that wait always ends.
    pub(crate) fn deposit(&self, rank: usize, epoch: u64, payload: Payload, readers: usize) {
        debug_assert!(readers > 0, "a slot no one reads never retires");
        let lane = &self.lanes[rank];
        let started = Instant::now();
        let mut ring = lane.ring.lock();
        loop {
            let slot = &mut ring[(epoch % 2) as usize];
            if slot.is_none() {
                *slot = Some(Slot {
                    epoch,
                    payload,
                    pending_reads: readers,
                });
                lane.cvar.notify_all();
                return;
            }
            self.check_stuck(lane, started, "deposit");
            lane.cvar.wait_for(&mut ring, Duration::from_millis(20));
        }
    }

    /// Collects rank `from`'s contribution to collective `epoch`, blocking
    /// until that rank has deposited it. This is the only wait-side
    /// dependency: the depositor's post, never another reader.
    ///
    /// Before parking on the condvar the collector spends a short
    /// yield-then-recheck phase: when rank threads outnumber cores the
    /// deposit usually lands within a few scheduler quanta, and a
    /// still-runnable collector resumes by vruntime immediately instead
    /// of paying the futex wake + preemption-granularity latency on every
    /// collective.
    pub(crate) fn collect(&self, from: usize, epoch: u64) -> Payload {
        const YIELDS_BEFORE_PARK: u32 = 64;
        let lane = &self.lanes[from];
        let started = Instant::now();
        let mut yields = 0u32;
        let mut ring = lane.ring.lock();
        loop {
            let slot = &mut ring[(epoch % 2) as usize];
            if let Some(s) = slot {
                if s.epoch == epoch {
                    let payload = s.payload.clone();
                    s.pending_reads -= 1;
                    if s.pending_reads == 0 {
                        *slot = None;
                        // Only the slot *retiring* can unblock anyone (a
                        // depositor waiting to reuse it); notifying on
                        // every collect would wake all parked peer
                        // collectors spuriously — O(p²) context switches
                        // per collective when ranks outnumber cores.
                        lane.cvar.notify_all();
                    }
                    return payload;
                }
            }
            self.check_stuck(lane, started, "read");
            if yields < YIELDS_BEFORE_PARK {
                yields += 1;
                drop(ring);
                std::thread::yield_now();
                ring = lane.ring.lock();
            } else {
                lane.cvar.wait_for(&mut ring, Duration::from_millis(20));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn board(size: usize) -> (Arc<ExchangeBoard>, Arc<Poison>) {
        let poison = Arc::new(Poison::default());
        (Arc::new(ExchangeBoard::new(size, poison.clone())), poison)
    }

    fn tag(payload: Payload) -> u8 {
        *payload.downcast::<u8>().expect("tests deposit u8 tags")
    }

    #[test]
    #[cfg_attr(miri, ignore = "sleep-based cross-thread timing")]
    fn collect_blocks_on_the_deposit_only() {
        let (board, _) = board(2);
        let b = board.clone();
        let reader = thread::spawn(move || tag(b.collect(1, 0)));
        thread::sleep(Duration::from_millis(30));
        board.deposit(1, 0, Arc::new(7u8), 2);
        assert_eq!(reader.join().unwrap(), 7);
        // The slot retires only after the second reader collects it.
        assert_eq!(tag(board.collect(1, 0)), 7);
        assert!(board.lanes[1].ring.lock()[0].is_none());
    }

    #[test]
    fn adjacent_epochs_live_in_different_ring_slots() {
        let (board, _) = board(1);
        board.deposit(0, 0, Arc::new(1u8), 1);
        board.deposit(0, 1, Arc::new(2u8), 1);
        // Collected in order even though both are resident.
        assert_eq!(tag(board.collect(0, 0)), 1);
        assert_eq!(tag(board.collect(0, 1)), 2);
    }

    #[test]
    #[cfg_attr(miri, ignore = "sleep-based cross-thread timing")]
    fn deposit_waits_for_a_slow_reader_to_retire_epoch_minus_two() {
        // A rooted depositor two epochs ahead of its reader: the epoch-2
        // deposit must wait until the reader has retired epoch 0.
        let (board, _) = board(2);
        board.deposit(0, 0, Arc::new(10u8), 1);
        board.deposit(0, 1, Arc::new(11u8), 1);
        let b = board.clone();
        let depositor = thread::spawn(move || b.deposit(0, 2, Arc::new(12u8), 1));
        thread::sleep(Duration::from_millis(30));
        assert!(!depositor.is_finished(), "epoch 0 is unread, slot busy");
        assert_eq!(tag(board.collect(0, 0)), 10);
        depositor.join().unwrap();
        assert_eq!(tag(board.collect(0, 1)), 11);
        assert_eq!(tag(board.collect(0, 2)), 12);
    }

    #[test]
    #[cfg_attr(miri, ignore = "sleep-based cross-thread timing")]
    fn poison_unblocks_a_stuck_collect() {
        let (board, poison) = board(1);
        let b = board.clone();
        let reader = thread::spawn(move || b.collect(0, 5));
        thread::sleep(Duration::from_millis(30));
        poison.set();
        assert!(reader.join().is_err(), "collect must panic on poison");
    }

    #[test]
    fn poisoned_collect_panics_without_waiting() {
        let (board, poison) = board(2);
        poison.set();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| board.collect(1, 0)));
        assert!(caught.is_err());
    }

    #[test]
    #[cfg_attr(miri, ignore = "wall-clock watchdog timeout")]
    fn watchdog_poisons_the_world_on_a_missing_deposit() {
        // The peer never posts: the reader must poison the world and
        // panic instead of hanging forever.
        let poison = Arc::new(Poison::default());
        let mut board = ExchangeBoard::new(2, poison.clone());
        board.limit = Some(Duration::from_millis(80));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| board.collect(1, 0)));
        let msg = caught
            .expect_err("watchdog should fire")
            .downcast::<String>()
            .expect("formatted message");
        assert!(msg.contains("collective watchdog"), "{msg}");
        assert!(poison.is_set(), "watchdog must poison the world");
    }
}
