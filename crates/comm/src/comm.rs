//! Communicator handles and typed collectives.

use crate::exchange::{ExchangeBoard, Poison};
use crate::fault::{corrupt_site, fnv1a64, FaultInjector, FaultPlan};
use crate::stats::{CommEvent, CommStats, LevelTiming, Pattern};
use crate::verify::{CollectiveKind, Fingerprint, VerifyBoard};
use dmbfs_trace::{CollectiveTag, RankTrace, SpanKind, TraceSink};
use parking_lot::Mutex;
use std::any::TypeId;
use std::cell::{Cell, RefCell};
use std::panic::Location;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// Loan threshold in wire bytes: payloads at or above it are sealed into a
/// shared loan at deposit time; smaller ones stay owned and are memcpy'd at
/// the receiver — the shared-memory analog of MPI's eager/rendezvous split.
/// `u64::MAX` disables loaning entirely.
static LOAN_THRESHOLD: AtomicU64 = AtomicU64::new(DEFAULT_LOAN_THRESHOLD);
static LOAN_THRESHOLD_INIT: std::sync::Once = std::sync::Once::new();

/// Default eager/rendezvous crossover: below this many wire bytes the
/// receiver-side memcpy is cheaper than sharing the allocation.
pub const DEFAULT_LOAN_THRESHOLD: u64 = 256;

/// The effective loan threshold: `Some(bytes)` when loaning is enabled,
/// `None` when disabled. Reads `DMBFS_LOAN_THRESHOLD` (integer bytes, or
/// `off` to disable) once on first use; [`set_loan_threshold`] overrides it.
pub fn loan_threshold() -> Option<u64> {
    LOAN_THRESHOLD_INIT.call_once(|| {
        if let Ok(v) = std::env::var("DMBFS_LOAN_THRESHOLD") {
            let parsed = if v.eq_ignore_ascii_case("off") {
                Some(u64::MAX)
            } else {
                v.parse::<u64>().ok()
            };
            if let Some(t) = parsed {
                LOAN_THRESHOLD.store(t, Ordering::Relaxed);
            }
        }
    });
    match LOAN_THRESHOLD.load(Ordering::Relaxed) {
        u64::MAX => None,
        t => Some(t),
    }
}

/// Sets the loan threshold process-wide: `Some(bytes)` enables the loan
/// path for payloads of at least `bytes` wire bytes, `None` disables it
/// (every payload travels copied). Benches and tests use this to A/B the
/// zero-copy path in one process; takes precedence over the environment.
pub fn set_loan_threshold(threshold: Option<u64>) {
    LOAN_THRESHOLD_INIT.call_once(|| {});
    LOAN_THRESHOLD.store(threshold.unwrap_or(u64::MAX), Ordering::Relaxed);
}

/// How a [`WireBuf`]'s bytes travel through the lane board.
///
/// `Copied` is the eager path: the receiver clones the bytes out of the
/// board (one memcpy per receiver). `Loaned` is the rendezvous path: the
/// sender's allocation is moved (not copied) behind an `Arc` at seal time,
/// receivers decode straight from the sender's buffer, and the loan is
/// released when the last reference drops — which may be *after* the
/// lane retires the slot; the refcount keeps the epoch-scoped
/// retirement safe. See `docs/zero-copy.md`.
#[derive(Clone, Debug)]
enum WirePayload {
    /// Owned bytes; cloning memcpys.
    Copied(Vec<u8>),
    /// Sealed shared bytes; cloning bumps a refcount.
    Loaned(Arc<Vec<u8>>),
}

impl Default for WirePayload {
    fn default() -> Self {
        WirePayload::Copied(Vec::new())
    }
}

/// An encoded payload travelling through a wire-aware collective: the
/// encoded bytes plus the logical (pre-encoding) size they stand for, so
/// accounting can report both sides of the compression ratio.
///
/// The bytes start out owned (`Copied`); the wire collectives seal large
/// payloads into a shared loan just before depositing them (see
/// [`loan_threshold`]). A sealed buffer is immutable — [`WireBuf::bytes_mut`]
/// panics on it — which is what makes handing receivers a reference into
/// the sender's allocation sound: checksums and fault corruption always
/// mutate *before* the seal.
#[derive(Clone, Debug, Default)]
pub struct WireBuf {
    /// The encoded bytes as produced by a frontier codec.
    payload: WirePayload,
    /// Size in bytes of the logical payload the encoding represents.
    pub logical_bytes: u64,
}

impl PartialEq for WireBuf {
    fn eq(&self, other: &Self) -> bool {
        // Loaned and copied buffers with the same contents are equal: the
        // transport representation is invisible to the algorithm.
        self.logical_bytes == other.logical_bytes && self.bytes() == other.bytes()
    }
}

impl Eq for WireBuf {}

impl WireBuf {
    /// Wraps already-encoded bytes with their logical size.
    pub fn new(bytes: Vec<u8>, logical_bytes: u64) -> Self {
        Self {
            payload: WirePayload::Copied(bytes),
            logical_bytes,
        }
    }

    /// Read access to the encoded bytes, loaned or owned.
    pub fn bytes(&self) -> &[u8] {
        match &self.payload {
            WirePayload::Copied(v) => v,
            WirePayload::Loaned(a) => a,
        }
    }

    /// Mutable access to the encoded bytes. Panics once the buffer is
    /// sealed into a loan: a deposited loan is shared with every receiver,
    /// so mutating it would race their decodes — the seal is the runtime
    /// enforcement of "senders must not mutate after deposit".
    pub fn bytes_mut(&mut self) -> &mut Vec<u8> {
        match &mut self.payload {
            WirePayload::Copied(v) => v,
            WirePayload::Loaned(_) => panic!(
                "WireBuf is sealed: the payload was loaned to the exchange board \
                 and may be referenced by other ranks; mutate before the seal \
                 (checksum -> corrupt -> seal -> deposit)"
            ),
        }
    }

    /// Seals the buffer for deposit: payloads at or above the loan
    /// threshold move their allocation behind an `Arc` (no byte is
    /// copied), so receivers share it instead of cloning it. Small or
    /// threshold-disabled payloads stay owned. Idempotent.
    fn seal(&mut self) {
        if let Some(threshold) = loan_threshold() {
            if let WirePayload::Copied(v) = &mut self.payload {
                if v.len() as u64 >= threshold {
                    self.payload = WirePayload::Loaned(Arc::new(std::mem::take(v)));
                }
            }
        }
    }

    /// Whether the payload travels as a shared loan (sealed) rather than
    /// an owned copy.
    pub fn is_loaned(&self) -> bool {
        matches!(self.payload, WirePayload::Loaned(_))
    }

    /// Encoded (on-the-wire) length in bytes.
    pub fn wire_bytes(&self) -> u64 {
        self.bytes().len() as u64
    }
}

/// Shared state of one communicator: the lane board every collective
/// rendezvouses on, the world's poison flag, and the optional verifier.
pub(crate) struct Shared {
    pub(crate) board: ExchangeBoard,
    pub(crate) poison: Arc<Poison>,
    /// Collective-matching verifier board; `None` when verification is off
    /// (the default), so the per-collective cost is one `Option` check.
    pub(crate) verify: Option<Arc<VerifyBoard>>,
}

impl Shared {
    pub(crate) fn new(
        size: usize,
        poison: Arc<Poison>,
        verify: Option<Arc<VerifyBoard>>,
    ) -> Arc<Self> {
        Arc::new(Self {
            board: ExchangeBoard::new(size, poison.clone()),
            poison,
            verify,
        })
    }
}

/// One wire collective's deposit: either one buffer per destination rank
/// or a single buffer every reader takes, plus per-buffer pre-corruption
/// checksums when the verifier is on.
struct WireLane {
    bufs: Vec<WireBuf>,
    sums: Option<Vec<u64>>,
}

/// One rank's byte accounting for one collective: logical and wire bytes
/// each way, and how the outbound wire bytes travelled — as zero-copy
/// loans or as owned copies. Only the wire collectives take part in that
/// split; plain ones leave both at zero.
#[derive(Clone, Copy, Default)]
struct Traffic {
    bytes_out: u64,
    bytes_in: u64,
    wire_out: u64,
    wire_in: u64,
    loaned_out: u64,
    copied_out: u64,
    loaned_in: u64,
}

impl Traffic {
    /// Plain collectives put their logical payload on the wire verbatim.
    fn plain(bytes_out: u64, bytes_in: u64) -> Self {
        Self {
            bytes_out,
            bytes_in,
            wire_out: bytes_out,
            wire_in: bytes_in,
            ..Self::default()
        }
    }
}

/// One rank's handle to a communicator — the analogue of an
/// `(MPI_Comm, rank)` pair. Handles are created by [`crate::World::run`]
/// (the world communicator) and [`Comm::split`] (sub-communicators); each
/// handle belongs to exactly one thread.
///
/// All collectives are **blocking** and must be called by every rank of the communicator
/// in the same order with compatible arguments, exactly as in MPI.
/// Payload types need `Clone + Send + Sync + 'static`.
///
/// # Threading invariant (hybrid MPI + threads)
///
/// When a rank is internally multi-threaded (`threads_per_rank > 1`, the
/// paper's hybrid mode), **only the rank's main thread — the thread the
/// rank closure started on — may call collectives**. This mirrors
/// `MPI_THREAD_FUNNELED`: worker threads compute, the main thread
/// communicates. Two guards enforce it:
///
/// * compile time: `Comm` is `!Sync` (it holds a `RefCell`), so a handle
///   cannot be shared with pool workers by reference;
/// * run time: every collective asserts it is running on the thread that
///   created the handle, catching handles smuggled across threads by
///   move (`Comm` is `Send`) — the per-handle epoch counter and the
///   rank's lane on the board assume one caller per rank, and a second
///   thread entering a collective would corrupt the rendezvous.
pub struct Comm {
    shared: Arc<Shared>,
    rank: usize,
    stats: RefCell<CommStats>,
    /// Optional span recorder shared with sub-communicators split off this
    /// handle, so row/column collectives land in the same per-rank trace.
    /// `Arc<Mutex<..>>` rather than `Rc<RefCell<..>>` only to keep `Comm:
    /// Send`; the lock is uncontended — every handle sharing it belongs to
    /// the same rank thread.
    tracer: RefCell<Option<Arc<Mutex<TraceSink>>>>,
    /// Armed fault injector, shared with sub-communicators split off this
    /// handle (same sharing rationale as `tracer`). `None` — one borrow
    /// and one branch per collective — unless [`Comm::arm_faults`] armed a
    /// non-empty plan.
    fault: RefCell<Option<Arc<FaultInjector>>>,
    /// Optional collective-schedule recorder shared with sub-communicators
    /// split off this handle: the ordered fingerprint names this rank's
    /// collectives produce, harvested by the static-checker conformance
    /// test (same sharing rationale as `tracer`). `None` — one borrow per
    /// collective — unless [`Comm::capture_schedule`] armed it.
    sched_log: RefCell<Option<Arc<Mutex<Vec<&'static str>>>>>,
    /// Thread that created the handle; collectives must run on it.
    owner: ThreadId,
    /// Per-handle collective counter feeding verifier fingerprints: the
    /// epoch of the next collective this rank will issue on this
    /// communicator. Unused (stays 0) when verification is off.
    verify_epoch: Cell<u64>,
    /// Lane-board epoch of the next collective this rank posts on this
    /// communicator. Every collective advances it exactly once, so it
    /// advances identically on every rank.
    epoch: Cell<u64>,
}

/// The trace-side name of a collective pattern. `dmbfs-trace` is a leaf
/// crate, so the mapping lives here rather than there.
fn collective_tag(pattern: Pattern) -> CollectiveTag {
    match pattern {
        Pattern::Alltoallv => CollectiveTag::Alltoallv,
        Pattern::Allgatherv => CollectiveTag::Allgatherv,
        Pattern::Allreduce => CollectiveTag::Allreduce,
        Pattern::Broadcast => CollectiveTag::Broadcast,
        Pattern::Gather => CollectiveTag::Gather,
        Pattern::PointToPoint => CollectiveTag::PointToPoint,
        Pattern::Barrier => CollectiveTag::Barrier,
    }
}

impl Comm {
    pub(crate) fn new(shared: Arc<Shared>, rank: usize) -> Self {
        Self {
            shared,
            rank,
            stats: RefCell::new(CommStats::default()),
            tracer: RefCell::new(None),
            fault: RefCell::new(None),
            sched_log: RefCell::new(None),
            owner: std::thread::current().id(),
            verify_epoch: Cell::new(0),
            epoch: Cell::new(0),
        }
    }

    /// Whether the collective-matching verifier is attached to this
    /// communicator (see [`crate::World::run_verified`]).
    pub fn verify_enabled(&self) -> bool {
        self.shared.verify.is_some()
    }

    /// The entry hook of every collective, applied once: the owner-thread
    /// assert (see the threading invariant on [`Comm`]), the fault hook,
    /// schedule capture and the verifier rendezvous. Returns the instant the collective proper starts.
    ///
    /// The fault hook runs **before** the verifier rendezvous, so a
    /// delayed or fail-stopped rank is late *to* the rendezvous and the
    /// verify watchdog names it, matching how real MPI tools observe
    /// stragglers and dead processes. Both hooks are one `Option` check
    /// when disarmed.
    #[track_caller]
    fn enter<T: 'static>(&self, kind: CollectiveKind) -> Instant {
        assert_eq!(
            std::thread::current().id(),
            self.owner,
            "Comm collectives must be called from the rank's main thread \
             (the thread that created the handle); pool worker threads \
             must not communicate — see the threading invariant on Comm"
        );
        let location = Location::caller();
        let inj = self.fault.borrow().as_ref().cloned();
        if let Some(inj) = inj {
            inj.on_collective(kind, location);
        }
        // Schedule capture sits before the verify gate: the harvest works
        // (and the conformance test runs) with or without the verifier.
        if let Some(log) = self.sched_log.borrow().as_ref() {
            log.lock().push(kind.name());
        }
        if let Some(board) = self.shared.verify.as_ref() {
            let epoch = self.verify_epoch.get();
            self.verify_epoch.set(epoch + 1);
            // Diagnostics name the wire payload by its short name.
            let type_name = if TypeId::of::<T>() == TypeId::of::<WireBuf>() {
                "WireBuf"
            } else {
                std::any::type_name::<T>()
            };
            board.enter(
                self.rank,
                Fingerprint {
                    kind,
                    type_id: TypeId::of::<T>(),
                    type_name,
                    epoch,
                    location,
                },
            );
        }
        Instant::now()
    }

    /// Posts `value` on this rank's lane as its contribution to the next
    /// collective, for exactly the `readers` ranks that will read it, and
    /// returns the collective's epoch. Every collective posts once on
    /// every rank; zero readers advances the epoch without depositing,
    /// because a slot no one reads never retires.
    fn post<V: Send + Sync + 'static>(&self, value: V, readers: usize) -> u64 {
        let epoch = self.epoch.get();
        self.epoch.set(epoch + 1);
        if readers > 0 {
            self.shared
                .board
                .deposit(self.rank, epoch, Arc::new(value), readers);
        }
        epoch
    }

    /// Reads rank `from`'s contribution to collective `epoch`, blocking
    /// until it is posted.
    fn read<V: Send + Sync + 'static>(&self, from: usize, epoch: u64) -> Arc<V> {
        self.shared
            .board
            .collect(from, epoch)
            .downcast::<V>()
            .unwrap_or_else(|_| {
                panic!(
                    "exchange-board type mismatch reading rank {from} from rank {}: \
                     ranks called different collectives (run under World::run_verified \
                     to pinpoint it)",
                    self.rank
                )
            })
    }

    /// Every rank's contribution to collective `epoch`, in rank order.
    fn read_all<V: Clone + Send + Sync + 'static>(&self, epoch: u64) -> Vec<V> {
        (0..self.size())
            .map(|j| (*self.read::<V>(j, epoch)).clone())
            .collect()
    }

    /// Bytes in the buffers of `bufs` indexed by a rank other than this
    /// one — the off-rank share of a personalized or gathered payload.
    fn off_rank_bytes<T>(&self, bufs: &[Vec<T>]) -> u64 {
        let elem = size_of::<T>() as u64;
        bufs.iter()
            .enumerate()
            .filter(|&(j, _)| j != self.rank)
            .map(|(_, b)| b.len() as u64 * elem)
            .sum()
    }

    /// Outbound half of every wire collective. `bufs` holds either one
    /// buffer per destination rank or a single buffer every peer reads.
    /// Books the send-side accounting, takes the end-to-end checksums
    /// (verifier on), lets an armed corrupt fault flip a byte of an
    /// off-rank payload, then seals off-rank payloads so large ones loan
    /// their allocation to the receivers — in that order, see
    /// docs/zero-copy.md. The own bucket is returned apart: it never
    /// touches the board.
    fn stage_wire(
        &self,
        kind: CollectiveKind,
        mut bufs: Vec<WireBuf>,
    ) -> (WireLane, WireBuf, Traffic) {
        let shared = bufs.len() != self.size();
        let peers = self.size() as u64 - 1;
        let fanout = |j: usize| {
            if shared {
                peers
            } else {
                u64::from(j != self.rank)
            }
        };
        let mut t = Traffic::default();
        for (j, b) in bufs.iter().enumerate() {
            t.bytes_out += b.logical_bytes * fanout(j);
            t.wire_out += b.wire_bytes() * fanout(j);
        }
        // Checksums come from the shared verifier option, so every rank
        // agrees on whether they exist; they are taken before any armed
        // corrupt fault flips a byte, which is what the receivers' check
        // exists to catch.
        let sums = self
            .shared
            .verify
            .as_ref()
            .map(|_| bufs.iter().map(|b| fnv1a64(b.bytes())).collect());
        let eligible = |j: usize, b: &WireBuf| fanout(j) > 0 && !b.bytes().is_empty();
        let has_payload = bufs.iter().enumerate().any(|(j, b)| eligible(j, b));
        let seed = self
            .fault
            .borrow()
            .as_ref()
            .and_then(|inj| inj.corrupt_seed(kind, has_payload));
        if let Some(seed) = seed {
            let b = bufs
                .iter_mut()
                .enumerate()
                .find(|(j, b)| eligible(*j, b))
                .map(|(_, b)| b)
                .expect("has_payload checked");
            let (i, mask) = corrupt_site(seed, b.bytes().len());
            b.bytes_mut()[i] ^= mask;
        }
        for (j, b) in bufs.iter_mut().enumerate() {
            if fanout(j) > 0 {
                b.seal();
                if b.is_loaned() {
                    t.loaned_out += b.wire_bytes() * fanout(j);
                }
            }
        }
        // A shared buffer keeps a copy for this rank (a refcount bump once
        // sealed); a personalized one moves the own bucket out.
        let own = if shared {
            bufs[0].clone()
        } else {
            std::mem::take(&mut bufs[self.rank])
        };
        t.copied_out = t.wire_out - t.loaned_out;
        (WireLane { bufs, sums }, own, t)
    }

    /// Takes this rank's buffer out of a wire deposit read from local rank
    /// `from`, checks its end-to-end checksum, and books the inbound
    /// accounting. A loaned buffer clones as a refcount bump; a copied
    /// (eager) one memcpys here, inside the collective wall.
    fn pick_wire(&self, from: usize, lane: &WireLane, t: &mut Traffic) -> WireBuf {
        let i = if lane.bufs.len() == 1 { 0 } else { self.rank };
        let mine = lane.bufs[i].clone();
        if let Some(sum) = lane.sums.as_ref().map(|s| s[i]) {
            if fnv1a64(mine.bytes()) != sum {
                let board = self
                    .shared
                    .verify
                    .as_ref()
                    .expect("wire checksums are only taken when the verifier is on");
                board.raise_corruption(self.rank, self.verify_epoch.get().saturating_sub(1), from);
            }
        }
        t.bytes_in += mine.logical_bytes;
        t.wire_in += mine.wire_bytes();
        if mine.is_loaned() {
            t.loaned_in += mine.wire_bytes();
        }
        mine
    }

    /// Inbound half of the all-peer wire collectives: this rank's buffer
    /// from every peer's epoch-`epoch` deposit, with `own` in its own
    /// position.
    fn collect_wire(&self, epoch: u64, own: WireBuf, t: &mut Traffic) -> Vec<WireBuf> {
        let mut own = Some(own);
        (0..self.size())
            .map(|j| {
                if j == self.rank {
                    own.take().expect("own bucket moved once")
                } else {
                    self.pick_wire(j, &self.read::<WireLane>(j, epoch), t)
                }
            })
            .collect()
    }

    /// Books one finished collective: pushes its [`CommEvent`] and emits
    /// its `Collective` trace span (send-side bytes).
    fn record(&self, pattern: Pattern, t: Traffic, start: Instant) {
        self.stats.borrow_mut().events.push(CommEvent {
            pattern,
            group_size: self.size(),
            bytes_out: t.bytes_out,
            bytes_in: t.bytes_in,
            wire_out: t.wire_out,
            wire_in: t.wire_in,
            wall: start.elapsed(),
            loaned_out: t.loaned_out,
            copied_out: t.copied_out,
        });
        if let Some(tr) = self.tracer.borrow().as_ref() {
            tr.lock().collective(
                collective_tag(pattern),
                start,
                self.size() as u64,
                t.bytes_out,
                t.wire_out,
                t.loaned_out,
            );
        }
    }

    /// Arms a deterministic fault plan on this rank: subsequent
    /// collectives on this handle — and on sub-communicators split off it —
    /// consult the injector (see the `fault` module). The rank recorded in
    /// injected payloads is this handle's rank, so arm the **world**
    /// communicator before splitting (`dmbfs_runtime::run_ranks` does).
    /// An empty plan is never armed and the per-collective hook stays one
    /// `Option` check.
    pub fn arm_faults(&self, plan: FaultPlan) {
        if plan.is_empty() {
            return;
        }
        *self.fault.borrow_mut() = Some(FaultInjector::new(plan, self.rank));
    }

    /// Whether a fault plan is armed on this handle.
    pub fn faults_armed(&self) -> bool {
        self.fault.borrow().is_some()
    }

    /// Arms collective-schedule capture on this handle: every subsequent
    /// collective — including on sub-communicators split off it — appends
    /// its fingerprint name (see [`CollectiveKind::name`]) to an ordered
    /// per-rank log. The static checker's conformance test diffs this
    /// against the predicted schedule. A strict observer, like tracing:
    /// payloads and results are untouched.
    pub fn capture_schedule(&self) {
        *self.sched_log.borrow_mut() = Some(Arc::new(Mutex::new(Vec::new())));
    }

    /// Discards everything captured so far (keeps capturing). Mirrors the
    /// static checker's `// schedule: reset` window marker.
    pub fn schedule_clear(&self) {
        if let Some(log) = self.sched_log.borrow().as_ref() {
            log.lock().clear();
        }
    }

    /// The captured fingerprint-name sequence, empty when capture was
    /// never armed.
    pub fn take_schedule(&self) -> Vec<&'static str> {
        self.sched_log
            .borrow()
            .as_ref()
            .map(|log| std::mem::take(&mut *log.lock()))
            .unwrap_or_default()
    }

    /// A standalone single-rank communicator: lets distributed code run
    /// unmodified in a serial context (tests, examples).
    pub fn single() -> Self {
        Self::new(Shared::new(1, Arc::new(Poison::default()), None), 0)
    }

    /// This rank's id in `0..size()`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in this communicator.
    pub fn size(&self) -> usize {
        self.shared.board.size()
    }

    /// Snapshot of the statistics recorded so far.
    pub fn stats(&self) -> CommStats {
        self.stats.borrow().clone()
    }

    /// Drains and returns the recorded statistics.
    pub fn take_stats(&self) -> CommStats {
        std::mem::take(&mut self.stats.borrow_mut())
    }

    /// Total wall time recorded inside this handle's collectives so far.
    /// Level loops sample this before and after a level to split the
    /// level's elapsed time into compute and communication components.
    pub fn comm_wall(&self) -> Duration {
        self.stats.borrow().wall()
    }

    /// Appends a per-level compute/comm timing record (see
    /// [`LevelTiming`]); retrieved later via [`Comm::stats`].
    pub fn push_level_timing(&self, timing: LevelTiming) {
        self.stats.borrow_mut().level_timings.push(timing);
    }

    /// Attach a span recorder to this handle. Sub-communicators created by
    /// [`Comm::split`] *after* this call share the sink, so their collective
    /// spans interleave into the same per-rank timeline.
    pub fn set_tracer(&self, sink: TraceSink) {
        *self.tracer.borrow_mut() = Some(Arc::new(Mutex::new(sink)));
    }

    /// Whether a tracer is attached (spans are being recorded).
    pub fn trace_enabled(&self) -> bool {
        self.tracer.borrow().is_some()
    }

    /// Timestamp (ns since the trace epoch) opening a span, or 0 when no
    /// tracer is attached. The disabled path is one borrow and one branch —
    /// cheap enough for the BFS hot loop (asserted by the overhead test in
    /// `dmbfs-bfs`).
    pub fn trace_start(&self) -> u64 {
        match self.tracer.borrow().as_ref() {
            Some(t) => t.lock().now_ns(),
            None => 0,
        }
    }

    /// Close a span opened by [`Comm::trace_start`]. No-op when untraced.
    pub fn trace_span(&self, kind: SpanKind, start_ns: u64, detail: u64) {
        if let Some(t) = self.tracer.borrow().as_ref() {
            t.lock().span(kind, start_ns, detail);
        }
    }

    /// Tag subsequent spans — including collective spans from shared
    /// sub-communicators — with this BFS level. An armed fault injector
    /// reads the same level stream, which is what makes `level`-triggered
    /// faults line up with the trace timeline.
    pub fn trace_enter_level(&self, level: i64) {
        if let Some(t) = self.tracer.borrow().as_ref() {
            t.lock().set_level(level);
        }
        if let Some(inj) = self.fault.borrow().as_ref() {
            inj.set_level(level);
        }
    }

    /// Discard spans recorded so far (setup noise), keeping the tracer
    /// attached. The trace analogue of dropping `take_stats()` output.
    pub fn trace_clear(&self) {
        if let Some(t) = self.tracer.borrow().as_ref() {
            t.lock().clear();
        }
    }

    /// Detach the tracer and drain its spans; `None` if never attached.
    pub fn take_trace(&self) -> Option<RankTrace> {
        self.tracer.borrow_mut().take().map(|t| t.lock().drain())
    }

    /// Pure synchronization barrier: a zero-byte collective that posts a
    /// token for every peer and returns once it holds every peer's token,
    /// i.e. once every rank has entered.
    #[track_caller]
    pub fn barrier(&self) {
        let start = self.enter::<()>(CollectiveKind::Barrier);
        let epoch = self.post((), self.size() - 1);
        for j in (0..self.size()).filter(|&j| j != self.rank) {
            self.read::<()>(j, epoch);
        }
        self.record(Pattern::Barrier, Traffic::default(), start);
    }

    /// Variable all-to-all: `bufs[j]` is this rank's payload for rank `j`
    /// (`bufs.len()` must equal `size()`); returns `recv` with `recv[j]` =
    /// what rank `j` sent to this rank.
    ///
    /// This is the workhorse of both algorithms: the 1D frontier exchange
    /// (Algorithm 2 line 21) and the 2D fold phase (Algorithm 3 line 8).
    ///
    /// # Examples
    /// ```
    /// use dmbfs_comm::World;
    ///
    /// let received = World::run(2, |comm| {
    ///     // Rank r sends [r] to everyone (including itself).
    ///     let bufs = vec![vec![comm.rank() as u8], vec![comm.rank() as u8]];
    ///     comm.alltoallv(bufs)
    /// });
    /// assert_eq!(received[0], vec![vec![0], vec![1]]);
    /// assert_eq!(received[1], vec![vec![0], vec![1]]);
    /// ```
    #[track_caller]
    pub fn alltoallv<T: Clone + Send + Sync + 'static>(&self, bufs: Vec<Vec<T>>) -> Vec<Vec<T>> {
        assert_eq!(bufs.len(), self.size(), "need one buffer per rank");
        let start = self.enter::<T>(CollectiveKind::Alltoallv);
        let bytes_out = self.off_rank_bytes(&bufs);
        let epoch = self.post(bufs, self.size());
        let recv: Vec<Vec<T>> = (0..self.size())
            .map(|j| self.read::<Vec<Vec<T>>>(j, epoch)[self.rank].clone())
            .collect();
        let t = Traffic::plain(bytes_out, self.off_rank_bytes(&recv));
        self.record(Pattern::Alltoallv, t, start);
        recv
    }

    /// Variable all-gather: every rank contributes `mine`; returns the
    /// contributions of all ranks indexed by rank. The 2D expand phase
    /// (Algorithm 3 line 6) runs this on the processor-column communicator.
    #[track_caller]
    pub fn allgatherv<T: Clone + Send + Sync + 'static>(&self, mine: Vec<T>) -> Vec<Vec<T>> {
        let start = self.enter::<T>(CollectiveKind::Allgatherv);
        let bytes_out = mine.len() as u64 * size_of::<T>() as u64 * (self.size() as u64 - 1);
        let epoch = self.post(mine, self.size());
        let all: Vec<Vec<T>> = self.read_all(epoch);
        let t = Traffic::plain(bytes_out, self.off_rank_bytes(&all));
        self.record(Pattern::Allgatherv, t, start);
        all
    }

    /// All-gather of one value per rank. Fingerprints as an `allgatherv`
    /// (it delegates), with the caller's location preserved.
    #[track_caller]
    pub fn allgather<T: Clone + Send + Sync + 'static>(&self, mine: T) -> Vec<T> {
        self.allgatherv(vec![mine])
            .into_iter()
            .map(|mut v| v.pop().expect("one element per rank"))
            .collect()
    }

    /// All-reduce with a caller-supplied associative, commutative `op`.
    /// Every rank must pass an identical `op`; the fold happens in rank
    /// order on every rank, so results are deterministic and identical.
    #[track_caller]
    pub fn allreduce<T: Clone + Send + Sync + 'static>(
        &self,
        mine: T,
        op: impl Fn(T, T) -> T,
    ) -> T {
        let start = self.enter::<T>(CollectiveKind::Allreduce);
        let elem = size_of::<T>() as u64;
        let epoch = self.post(mine, self.size());
        let acc = self.read_all(epoch).into_iter().reduce(op);
        let t = Traffic::plain(elem, elem * (self.size() as u64 - 1));
        self.record(Pattern::Allreduce, t, start);
        acc.expect("communicator has at least one rank")
    }

    /// Broadcast from `root`: `root` passes `Some(value)`, everyone else
    /// `None`; all ranks return the root's value.
    #[track_caller]
    pub fn broadcast<T: Clone + Send + Sync + 'static>(&self, root: usize, mine: Option<T>) -> T {
        assert!(root < self.size());
        assert_eq!(
            mine.is_some(),
            self.rank == root,
            "exactly the root must supply the broadcast value"
        );
        let start = self.enter::<T>(CollectiveKind::Broadcast);
        let elem = size_of::<T>() as u64;
        let is_root = self.rank == root;
        let epoch = self.post(mine, if is_root { self.size() } else { 0 });
        let value = (*self.read::<Option<T>>(root, epoch))
            .clone()
            .expect("root deposited Some");
        let t = if is_root {
            Traffic::plain(elem * (self.size() as u64 - 1), 0)
        } else {
            Traffic::plain(0, elem)
        };
        self.record(Pattern::Broadcast, t, start);
        value
    }

    /// Gather to `root`: returns `Some(all values indexed by rank)` on the
    /// root, `None` elsewhere.
    #[track_caller]
    pub fn gather<T: Clone + Send + Sync + 'static>(&self, root: usize, mine: T) -> Option<Vec<T>> {
        assert!(root < self.size());
        let start = self.enter::<T>(CollectiveKind::Gather);
        let elem = size_of::<T>() as u64;
        let epoch = self.post(mine, 1);
        let result = (self.rank == root).then(|| self.read_all(epoch));
        let t = match result {
            Some(_) => Traffic::plain(0, elem * (self.size() as u64 - 1)),
            None => Traffic::plain(elem, 0),
        };
        self.record(Pattern::Gather, t, start);
        result
    }

    /// Variable gather to `root`: returns `Some(contributions indexed by
    /// rank)` on the root, `None` elsewhere.
    #[track_caller]
    pub fn gatherv<T: Clone + Send + Sync + 'static>(
        &self,
        root: usize,
        mine: Vec<T>,
    ) -> Option<Vec<Vec<T>>> {
        assert!(root < self.size());
        let start = self.enter::<T>(CollectiveKind::Gatherv);
        let out = if self.rank == root {
            0
        } else {
            mine.len() as u64 * size_of::<T>() as u64
        };
        let epoch = self.post(mine, 1);
        let result: Option<Vec<Vec<T>>> = (self.rank == root).then(|| self.read_all(epoch));
        let inn = result.as_ref().map_or(0, |all| self.off_rank_bytes(all));
        self.record(Pattern::Gather, Traffic::plain(out, inn), start);
        result
    }

    /// Variable scatter from `root`: the root passes `Some(bufs)` with one
    /// buffer per rank; every rank returns its buffer.
    #[track_caller]
    pub fn scatterv<T: Clone + Send + Sync + 'static>(
        &self,
        root: usize,
        bufs: Option<Vec<Vec<T>>>,
    ) -> Vec<T> {
        assert!(root < self.size());
        assert_eq!(
            bufs.is_some(),
            self.rank == root,
            "exactly the root must supply the scatter buffers"
        );
        if let Some(ref b) = bufs {
            assert_eq!(b.len(), self.size(), "need one buffer per rank");
        }
        let start = self.enter::<T>(CollectiveKind::Scatterv);
        let is_root = self.rank == root;
        let out = bufs.as_ref().map_or(0, |b| self.off_rank_bytes(b));
        let epoch = self.post(bufs, if is_root { self.size() } else { 0 });
        let mine = self
            .read::<Option<Vec<Vec<T>>>>(root, epoch)
            .as_ref()
            .as_ref()
            .expect("root deposited Some")[self.rank]
            .clone();
        let inn = if is_root {
            0
        } else {
            mine.len() as u64 * size_of::<T>() as u64
        };
        self.record(Pattern::Broadcast, Traffic::plain(out, inn), start);
        mine
    }

    /// Exclusive prefix scan: rank r receives `op` folded over the values
    /// of ranks `0..r` (`init` for rank 0). Deterministic rank order.
    #[track_caller]
    pub fn exscan<T: Clone + Send + Sync + 'static>(
        &self,
        mine: T,
        init: T,
        op: impl Fn(T, T) -> T,
    ) -> T {
        let start = self.enter::<T>(CollectiveKind::Exscan);
        let elem = size_of::<T>() as u64;
        // Only the ranks above read this rank's value.
        let epoch = self.post(mine, self.size() - 1 - self.rank);
        let acc = (0..self.rank).fold(init, |acc, j| op(acc, (*self.read::<T>(j, epoch)).clone()));
        let t = Traffic::plain(elem, elem * self.rank as u64);
        self.record(Pattern::Allreduce, t, start);
        acc
    }

    /// Reduce-scatter: every rank contributes one value per rank; rank `j`
    /// returns `op` folded over everyone's j-th contribution. The
    /// building block of communication-avoiding reductions.
    #[track_caller]
    pub fn reduce_scatter<T: Clone + Send + Sync + 'static>(
        &self,
        mine: Vec<T>,
        op: impl Fn(T, T) -> T,
    ) -> T {
        assert_eq!(mine.len(), self.size(), "need one contribution per rank");
        let start = self.enter::<T>(CollectiveKind::ReduceScatter);
        let peer_bytes = size_of::<T>() as u64 * (self.size() as u64 - 1);
        let epoch = self.post(mine, self.size());
        let acc = (0..self.size())
            .map(|j| self.read::<Vec<T>>(j, epoch)[self.rank].clone())
            .reduce(op);
        self.record(
            Pattern::Allreduce,
            Traffic::plain(peer_bytes, peer_bytes),
            start,
        );
        acc.expect("communicator has at least one rank")
    }

    /// Pairwise exchange: sends `data` to `partner` and returns what
    /// `partner` sent here. The partner assignment must be a symmetric
    /// permutation across all ranks (`partner(partner(r)) == r`), and every
    /// rank must participate — this is the square-grid `TransposeVector`
    /// of §3.2, "simply a pairwise exchange between P(i,j) and P(j,i)".
    /// A rank may partner itself (the diagonal), which is a local copy.
    #[track_caller]
    pub fn sendrecv<T: Clone + Send + Sync + 'static>(
        &self,
        partner: usize,
        data: Vec<T>,
    ) -> Vec<T> {
        assert!(partner < self.size());
        let start = self.enter::<T>(CollectiveKind::Sendrecv);
        // The diagonal self-exchange round-trips through the own lane but
        // books no bytes.
        let elem = u64::from(partner != self.rank) * size_of::<T>() as u64;
        let bytes_out = data.len() as u64 * elem;
        let epoch = self.post((partner, data), 1);
        let theirs = self.read::<(usize, Vec<T>)>(partner, epoch);
        self.assert_partner(theirs.0, partner);
        let received = theirs.1.clone();
        let t = Traffic::plain(bytes_out, received.len() as u64 * elem);
        self.record(Pattern::PointToPoint, t, start);
        received
    }

    fn assert_partner(&self, theirs: usize, partner: usize) {
        assert_eq!(
            theirs, self.rank,
            "sendrecv partner mismatch: rank {} expected partner {} to point back",
            self.rank, partner
        );
    }

    /// Wire-aware variable all-to-all: like [`Comm::alltoallv`], but each
    /// per-destination buffer is an encoded [`WireBuf`]. The recorded
    /// [`CommEvent`] carries the logical bytes in `bytes_out`/`bytes_in`
    /// and the encoded sizes in `wire_out`/`wire_in`, which is what the
    /// α–β replay charges bandwidth for.
    #[track_caller]
    pub fn alltoallv_wire(&self, bufs: Vec<WireBuf>) -> Vec<WireBuf> {
        assert_eq!(bufs.len(), self.size(), "need one buffer per rank");
        let start = self.enter::<WireBuf>(CollectiveKind::AlltoallvWire);
        let (lane, own, mut t) = self.stage_wire(CollectiveKind::AlltoallvWire, bufs);
        let epoch = self.post(lane, self.size() - 1);
        let recv = self.collect_wire(epoch, own, &mut t);
        self.record(Pattern::Alltoallv, t, start);
        recv
    }

    /// Wire-aware variable all-gather: like [`Comm::allgatherv`] with an
    /// encoded payload. See [`Comm::alltoallv_wire`] for the accounting.
    #[track_caller]
    pub fn allgatherv_wire(&self, mine: WireBuf) -> Vec<WireBuf> {
        let start = self.enter::<WireBuf>(CollectiveKind::AllgathervWire);
        let (lane, own, mut t) = self.stage_wire(CollectiveKind::AllgathervWire, vec![mine]);
        let epoch = self.post(lane, self.size() - 1);
        let all = self.collect_wire(epoch, own, &mut t);
        self.record(Pattern::Allgatherv, t, start);
        all
    }

    /// Wire-aware pairwise exchange: like [`Comm::sendrecv`] with an
    /// encoded payload. See [`Comm::alltoallv_wire`] for the accounting.
    #[track_caller]
    pub fn sendrecv_wire(&self, partner: usize, data: WireBuf) -> WireBuf {
        assert!(partner < self.size());
        let start = self.enter::<WireBuf>(CollectiveKind::SendrecvWire);
        let mut bufs = vec![WireBuf::default(); self.size()];
        bufs[partner] = data;
        let (lane, own, mut t) = self.stage_wire(CollectiveKind::SendrecvWire, bufs);
        let epoch = self.post((partner, lane), usize::from(partner != self.rank));
        let received = if partner == self.rank {
            own
        } else {
            let theirs = self.read::<(usize, WireLane)>(partner, epoch);
            self.assert_partner(theirs.0, partner);
            self.pick_wire(partner, &theirs.1, &mut t)
        };
        self.record(Pattern::PointToPoint, t, start);
        received
    }

    /// Splits the communicator à la `MPI_Comm_split`: ranks with equal
    /// `color` form a new communicator, ordered by `(key, old rank)`.
    /// Returns this rank's handle in its new communicator.
    ///
    /// The 2D algorithm calls this twice on the world communicator to build
    /// the processor-row communicator (color = row index) for the fold phase
    /// and the processor-column communicator (color = column index) for the
    /// expand phase.
    #[track_caller]
    pub fn split(&self, color: u64, key: u64) -> Comm {
        self.enter::<()>(CollectiveKind::Split);
        // Round 1: learn everyone's (color, key).
        let infos = self.allgather((color, key));
        let mut members: Vec<usize> = (0..self.size()).filter(|&r| infos[r].0 == color).collect();
        members.sort_by_key(|&r| (infos[r].1, r));
        let my_group_rank = members
            .iter()
            .position(|&r| r == self.rank)
            .expect("self must be in own color group");
        let leader = members[0];

        // Round 2: each group leader creates the shared state and posts it
        // for its members, who read it from the leader's lane.
        let start = Instant::now();
        let created: Option<Arc<Shared>> = (self.rank == leader).then(|| {
            // The child inherits verification: the leader derives a fresh
            // board (new group id, same timeout) and every member receives
            // it with the shared state, so sub-communicator collectives are
            // cross-checked exactly like world ones.
            let child_verify = self.shared.verify.as_ref().map(|b| b.child(&members));
            Shared::new(members.len(), self.shared.poison.clone(), child_verify)
        });
        let readers = if created.is_some() { members.len() } else { 0 };
        let epoch = self.post(created, readers);
        let group_shared = (*self.read::<Option<Arc<Shared>>>(leader, epoch))
            .clone()
            .expect("leader deposited the group state");
        self.record(Pattern::Broadcast, Traffic::default(), start);

        let child = Comm::new(group_shared, my_group_rank);
        // Sub-communicator collectives record into the parent's trace and
        // consult the parent's fault injector (which keeps counting ops and
        // reporting the world rank).
        *child.tracer.borrow_mut() = self.tracer.borrow().clone();
        *child.fault.borrow_mut() = self.fault.borrow().clone();
        *child.sched_log.borrow_mut() = self.sched_log.borrow().clone();
        child
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::World;

    #[test]
    fn collectives_emit_spans_when_traced() {
        let epoch = Instant::now();
        let traces = World::run(2, |comm| {
            comm.set_tracer(TraceSink::new(comm.rank(), epoch));
            comm.trace_enter_level(3);
            let bufs = vec![vec![comm.rank() as u64], vec![comm.rank() as u64]];
            comm.alltoallv(bufs);
            comm.barrier();
            comm.take_trace().expect("tracer was attached")
        });
        for (rank, t) in traces.iter().enumerate() {
            assert_eq!(t.rank, rank);
            assert_eq!(t.spans.len(), 2, "alltoallv + barrier");
            let a2a = t.spans[0];
            assert_eq!(a2a.kind, SpanKind::Collective);
            assert_eq!(a2a.pattern, CollectiveTag::Alltoallv);
            assert_eq!(a2a.level, 3);
            assert_eq!(a2a.detail, 2, "group size");
            assert_eq!(a2a.bytes, 8, "one off-rank u64");
            assert_eq!(a2a.wire, 8, "plain collectives ship logical bytes");
            assert!(a2a.end_ns >= a2a.start_ns);
            assert_eq!(t.spans[1].pattern, CollectiveTag::Barrier);
        }
    }

    #[test]
    fn split_children_share_the_parent_trace() {
        let epoch = Instant::now();
        let traces = World::run(4, |comm| {
            comm.set_tracer(TraceSink::new(comm.rank(), epoch));
            comm.trace_clear(); // drop nothing, but exercise the call
            let row = comm.split((comm.rank() / 2) as u64, comm.rank() as u64);
            comm.trace_clear(); // discard the split's own collectives
            row.allreduce(1u64, |a, b| a + b);
            comm.take_trace().expect("tracer was attached")
        });
        for t in &traces {
            assert_eq!(t.spans.len(), 1, "only the row allreduce survives clear");
            assert_eq!(t.spans[0].pattern, CollectiveTag::Allreduce);
            assert_eq!(t.spans[0].detail, 2, "row communicator has 2 ranks");
        }
    }

    #[test]
    fn untraced_comm_records_no_spans() {
        let out = World::run(2, |comm| {
            assert!(!comm.trace_enabled());
            assert_eq!(comm.trace_start(), 0);
            comm.trace_span(SpanKind::Level, 0, 0);
            comm.barrier();
            comm.take_trace()
        });
        assert!(out.iter().all(|t| t.is_none()));
    }

    #[test]
    fn only_wire_collectives_split_loaned_from_copied_bytes() {
        let stats = World::run(2, |comm| {
            comm.allreduce(1u64, |a, b| a + b);
            let big = vec![7u8; 4096];
            comm.alltoallv_wire(vec![WireBuf::new(big.clone(), 1), WireBuf::new(big, 1)]);
            comm.allgatherv_wire(WireBuf::new(vec![1, 2, 3], 24));
            comm.take_stats()
        });
        for s in &stats {
            let plain = &s.events[0];
            assert_eq!(
                (plain.wire_out, plain.loaned_out, plain.copied_out),
                (8, 0, 0)
            );
            for wire in &s.events[1..] {
                assert!(wire.wire_out > 0);
                assert_eq!(wire.loaned_out + wire.copied_out, wire.wire_out);
            }
        }
    }
}
