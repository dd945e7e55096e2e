//! 1D vertex-partitioned distributed BFS — Algorithm 2 of the paper.
//!
//! Each process owns `n/p` vertices and their outgoing edges (§3.1). A
//! level expands by enumerating the adjacencies of the local frontier into
//! per-destination buffers (thread-parallel with thread-local buffers in
//! the hybrid variant), exchanging them with a single `Alltoallv`, and
//! having each owner claim the newly visited vertices. "The key aspects to
//! note [...] is the extraneous computation (and communication) introduced
//! due to the distributed graph scenario: creating the message buffers of
//! cumulative size O(m) and the All-to-all communication step."

use crate::direction::DirectionConfig;
use crate::distribute::{extract_1d, Local1d};
use crate::frontier_codec::{
    decode_pairs, decode_set, encode_pair_stream, encode_set, merge_level_stats, Codec,
    LevelCodecStats, Sieve,
};
use crate::{BfsOutput, UNREACHED};
use dmbfs_comm::{Comm, CommStats, LevelDirection, LevelTiming, WireBuf};
use dmbfs_graph::{CsrGraph, VertexId};
use dmbfs_runtime::{run_ranks, scatter_block, DirectionMode};
use dmbfs_trace::{RankTrace, SpanKind};
use rayon::prelude::*;
use std::ops::Range;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

/// Configuration of a 1D run — since the runtime refactor this *is* the
/// shared [`dmbfs_runtime::RunConfig`]; the historical name stays as an
/// alias because the 1D driver was its first user.
pub use dmbfs_runtime::RunConfig as Bfs1dConfig;

/// Everything a 1D run produces: the BFS tree plus per-rank measurements.
#[derive(Clone, Debug)]
pub struct Dist1dRun {
    /// Assembled global result.
    pub output: BfsOutput,
    /// Per-rank communication event streams (index = rank).
    pub per_rank_stats: Vec<CommStats>,
    /// Wall seconds of the timed BFS region (barrier-to-barrier, excluding
    /// graph distribution), as measured on rank 0.
    pub seconds: f64,
    /// Number of BFS levels executed.
    pub num_levels: u32,
    /// Per-level codec telemetry, merged across ranks (empty under
    /// [`Codec::Off`]).
    pub codec_levels: Vec<LevelCodecStats>,
    /// Per-rank span traces (index = rank); empty spans unless
    /// [`Bfs1dConfig::trace`] was set.
    pub per_rank_trace: Vec<RankTrace>,
    /// Per-rank collective-fingerprint sequences (index = rank); empty
    /// unless [`Bfs1dConfig::schedule_capture`] was set.
    pub per_rank_schedule: Vec<Vec<&'static str>>,
}

impl Dist1dRun {
    /// The per-level direction schedule, read from rank 0's level timings.
    /// Identical on every rank: the decision is a pure function of
    /// allreduced global counts.
    pub fn level_directions(&self) -> Vec<LevelDirection> {
        self.per_rank_stats
            .first()
            .map(|s| s.level_timings.iter().map(|t| t.direction).collect())
            .unwrap_or_default()
    }
}

/// Runs the 1D algorithm and returns the assembled result only.
///
/// # Examples
/// ```
/// use dmbfs_bfs::one_d::{bfs1d, Bfs1dConfig};
/// use dmbfs_bfs::serial::serial_bfs;
/// use dmbfs_graph::gen::grid2d;
/// use dmbfs_graph::CsrGraph;
///
/// let g = CsrGraph::from_edge_list(&grid2d(4, 4));
/// let distributed = bfs1d(&g, 0, &Bfs1dConfig::flat(4));
/// assert_eq!(distributed.levels(), serial_bfs(&g, 0).levels());
/// ```
pub fn bfs1d(g: &CsrGraph, source: VertexId, cfg: &Bfs1dConfig) -> BfsOutput {
    bfs1d_run(g, source, cfg).output
}

/// Runs the 1D algorithm with full instrumentation.
pub fn bfs1d_run(g: &CsrGraph, source: VertexId, cfg: &Bfs1dConfig) -> Dist1dRun {
    assert!(cfg.ranks > 0);
    assert!((source) < g.num_vertices(), "source out of range");
    let ranks = cfg.ranks;
    let direction = cfg.direction;

    let run = run_ranks(cfg, |ctx| {
        let local = extract_1d(g, ranks, ctx.rank());
        let (levels, parents, num_levels, codec_levels) = ctx.timed(source, || {
            let search = Search::new(ctx.comm(), &local, ctx.pool(), cfg);
            search.level_loop(source, direction)
        });
        (local.range.start, levels, parents, num_levels, codec_levels)
    });

    let mut output = BfsOutput::unreached(source, g.num_vertices() as usize);
    let mut per_rank_codec = Vec::with_capacity(ranks);
    let mut num_levels = 0;
    for (start, levels, parents, rank_levels, codec_levels) in run.per_rank {
        scatter_block(&mut output.levels, start, &levels);
        scatter_block(&mut output.parents, start, &parents);
        per_rank_codec.push(codec_levels);
        num_levels = num_levels.max(rank_levels);
    }
    Dist1dRun {
        output,
        per_rank_stats: run.per_rank_stats,
        seconds: run.seconds,
        num_levels,
        codec_levels: merge_level_stats(&per_rank_codec),
        per_rank_trace: run.per_rank_trace,
        per_rank_schedule: run.per_rank_schedule,
    }
}

/// One rank's state for one search: its communicator, its block of the
/// graph, its thread pool, the owned level and parent arrays, and the
/// codec exchange's scratch.
struct Search<'a> {
    comm: &'a Comm,
    local: &'a Local1d,
    pool: Option<&'a rayon::ThreadPool>,
    levels: Vec<AtomicI64>,
    parents: Vec<AtomicI64>,
    /// The codec exchange's per-search state; `None` under `Codec::Off`,
    /// which exchanges the packed pair buffers as they are.
    scratch: Option<ExchangeScratch>,
}

/// Sums three global counters at once: the one allreduce per level.
fn add3(a: [u64; 3], b: [u64; 3]) -> [u64; 3] {
    [a[0] + b[0], a[1] + b[1], a[2] + b[2]]
}

impl<'a> Search<'a> {
    fn new(
        comm: &'a Comm,
        local: &'a Local1d,
        pool: Option<&'a rayon::ThreadPool>,
        cfg: &Bfs1dConfig,
    ) -> Self {
        let unreached = || {
            (0..local.count())
                .map(|_| AtomicI64::new(UNREACHED))
                .collect()
        };
        Self {
            comm,
            local,
            pool,
            levels: unreached(),
            parents: unreached(),
            scratch: (cfg.codec != Codec::Off)
                .then(|| ExchangeScratch::new(local, cfg.codec, cfg.sieve)),
        }
    }

    /// The level loop of Algorithm 2 with a per-level direction
    /// (Buluç–Beamer–Madduri, arXiv:1705.04590 §4, adapted to the 1D
    /// partition): each level runs either the top-down exchange or a
    /// distributed bottom-up step — the global frontier is allgathered as
    /// a bitmap and every locally-owned unvisited vertex probes its
    /// in-neighbors against it, claiming a parent on the first hit.
    /// [`DirectionMode::TopDown`] and [`DirectionMode::BottomUp`] pin the
    /// direction; [`DirectionMode::Hybrid`] lets the αβ switch choose.
    ///
    /// The switch replicates `crate::direction` exactly, but every input
    /// (frontier size, frontier out-edges, edges examined, explored edges)
    /// is a *global* count carried by one `[u64; 3]` allreduce per level,
    /// so all ranks compute the identical decision and the collective
    /// schedule stays symmetric with no extra broadcast. The same
    /// allreduce is the termination test, and every direction policy runs
    /// it; only the switch reads the out-edge sums, so pinned runs send
    /// zeros there. Level arrays match the serial oracle; bottom-up
    /// parents are the first hit in CSR adjacency order, deterministic
    /// across rank counts.
    fn level_loop(
        self,
        source: VertexId,
        direction: DirectionMode,
    ) -> (Vec<i64>, Vec<i64>, u32, Vec<LevelCodecStats>) {
        let (comm, local) = (self.comm, self.local);
        // Lines 4–7: the owner seeds the frontier.
        let mut frontier: Vec<VertexId> = Vec::new();
        if local.block.owner(source) == comm.rank() {
            let s = local.to_local(source);
            self.levels[s].store(0, Ordering::Relaxed);
            self.parents[s].store(source as i64, Ordering::Relaxed);
            frontier.push(source);
        }

        let dir_cfg = DirectionConfig::default();
        // The graph's global vertex count is identical on every rank even
        // though each rank holds a different block of it.
        // schedule: replicated
        let n_global = local.block.domain();
        let switch = direction == DirectionMode::Hybrid;
        let out_edges = |f: &[VertexId]| -> u64 {
            if switch {
                f.iter().map(|&u| local.neighbors(u).len() as u64).sum()
            } else {
                0
            }
        };
        let mut codec_levels: Vec<LevelCodecStats> = Vec::new();

        // Seed the global heuristic state: one allreduce folds the edge total
        // and the source frontier's size/out-edges together.
        let [total_edges, mut gfrontier, mut gfrontier_edges] = comm.allreduce(
            [
                local.num_local_edges() as u64,
                frontier.len() as u64,
                out_edges(&frontier),
            ],
            add3,
        );
        let mut explored_edges = gfrontier_edges;
        let mut reached = gfrontier;
        let mut prev_gfrontier = 0u64;
        let mut bottom_up = false;
        let mut alpha_eff = dir_cfg.alpha.max(1);
        let mut level: i64 = 1;
        loop {
            comm.trace_enter_level(level - 1);
            let level_t = comm.trace_start();
            let level_start = Instant::now();
            let comm_before = comm.comm_wall();
            // The per-level decision — identical on every rank because all of
            // its inputs are allreduced global counts (see `crate::direction`
            // for the heuristic's rationale).
            match direction {
                DirectionMode::TopDown => {}
                DirectionMode::BottomUp => bottom_up = true,
                DirectionMode::Hybrid => {
                    let unexplored = total_edges.saturating_sub(explored_edges);
                    let growing = gfrontier > prev_gfrontier;
                    let unvisited = n_global - reached;
                    if !bottom_up
                        && dir_cfg.alpha > 0
                        && growing
                        && gfrontier_edges > unexplored / alpha_eff
                        && unvisited < gfrontier_edges
                    {
                        bottom_up = true;
                    } else if bottom_up && dir_cfg.beta > 0 && gfrontier * dir_cfg.beta < n_global {
                        bottom_up = false;
                    }
                }
            }
            prev_gfrontier = gfrontier;
            let dir = if bottom_up {
                LevelDirection::BottomUp
            } else {
                LevelDirection::TopDown
            };
            let dir_t = comm.trace_start();
            comm.trace_span(SpanKind::Direction, dir_t, dir.tag());

            let (next, examined_local) = if bottom_up {
                let (next, examined, stats) = self.bottom_up_level(&mut frontier, level);
                codec_levels.push(stats);
                (next, examined)
            } else {
                // A top-down level examines every out-edge of the frontier —
                // exactly this rank's packed adjacencies.
                let examined = out_edges(&frontier);
                let (next, stats) = self.top_down_level(&frontier, level);
                codec_levels.extend(stats);
                (next, examined)
            };

            // Termination test + heuristic refresh in one collective: the next
            // frontier's global size and out-edges, and the level's globally
            // examined edges (for the adaptive backoff).
            let [gnext, gnext_edges, gexamined] =
                comm.allreduce([next.len() as u64, out_edges(&next), examined_local], add3);
            explored_edges += gnext_edges;
            reached += gnext;
            if bottom_up && gexamined > gfrontier_edges {
                // The round lost (same rule and floor as `crate::direction`):
                // raise the re-entry bar and fall back to top-down.
                alpha_eff = (alpha_eff / 8).max(1);
                bottom_up = false;
            }
            let comm_spent = comm.comm_wall() - comm_before;
            comm.push_level_timing(LevelTiming {
                level: (level - 1) as u32,
                compute: level_start.elapsed().saturating_sub(comm_spent),
                comm: comm_spent,
                direction: dir,
            });
            comm.trace_span(SpanKind::Level, level_t, frontier.len() as u64);
            if gnext == 0 {
                comm.trace_enter_level(dmbfs_trace::NO_LEVEL);
                break;
            }
            gfrontier = gnext;
            gfrontier_edges = gnext_edges;
            frontier = next;
            level += 1;
        }
        (
            self.levels.into_iter().map(AtomicI64::into_inner).collect(),
            self.parents
                .into_iter()
                .map(AtomicI64::into_inner)
                .collect(),
            level as u32,
            codec_levels,
        )
    }

    /// One top-down level: pack the frontier's adjacencies by owner,
    /// exchange, and let owners claim the newly visited vertices. Returns
    /// the local slice of the next frontier and, with a codec on, the
    /// level's codec stats.
    ///
    /// With a codec on (`scratch` present) the pack already claims the
    /// targets this rank owns and deduplicates the rest into `scratch`, so
    /// only remote targets are encoded and the rank's own bucket travels
    /// empty; `Codec::Off` keeps the paper's plain typed exchange of every
    /// packed pair.
    fn top_down_level(
        &self,
        frontier: &[VertexId],
        level: i64,
    ) -> (Vec<VertexId>, Option<LevelCodecStats>) {
        let comm = self.comm;
        // `scratch` exists iff the run's codec is on, so the arm taken is
        // rank-invariant configuration.
        // schedule: replicated
        match &self.scratch {
            None => {
                // Lines 13–19: enumerate adjacencies into per-destination
                // buffers.
                let pack_t = comm.trace_start();
                let (local, p) = (self.local, comm.size());
                let send = match self.pool {
                    Some(pool) => {
                        let batch_t = comm.trace_start();
                        let send = pool.install(|| pack_parallel(local, frontier, p));
                        comm.trace_span(SpanKind::TaskBatch, batch_t, frontier.len() as u64);
                        send
                    }
                    None => pack_serial(local, frontier, p),
                };
                comm.trace_span(SpanKind::Pack, pack_t, frontier.len() as u64);
                // Line 21: the all-to-all exchange of (target, parent) pairs.
                let exchange_t = comm.trace_start();
                let recv = comm.alltoallv(send);
                let received: u64 = recv.iter().map(|b| b.len() as u64).sum();
                comm.trace_span(SpanKind::Exchange, exchange_t, received);
                (self.unpack(&recv, level), None)
            }
            Some(scratch) => {
                let mut next = self.pack_claim(frontier, scratch, level);
                // Line 21 through the codec pipeline: sieve → encode →
                // exchange → decode.
                let exchange_t = comm.trace_start();
                let (recv, stats) = self.encode_exchange(scratch, level);
                let received: u64 = recv.iter().map(|b| b.len() as u64).sum();
                comm.trace_span(SpanKind::Exchange, exchange_t, received);
                next.extend(self.unpack(&recv, level));
                (next, Some(stats))
            }
        }
    }

    /// One distributed bottom-up level. The rank's frontier slice (owned
    /// vertices at distance `level - 1`) travels as a [`Codec::Bitmap`]
    /// `encode_set` payload through one `allgatherv_wire`; the decoded slices
    /// form the global frontier bitmap, and the owner-side scan claims every
    /// locally-owned unvisited vertex whose adjacency hits the bitmap — first
    /// hit in CSR order, so parents are deterministic for any rank count.
    /// Returns the next local frontier, the number of edges examined and
    /// the level's codec stats.
    fn bottom_up_level(
        &self,
        frontier: &mut [VertexId],
        level: i64,
    ) -> (Vec<VertexId>, u64, LevelCodecStats) {
        let (comm, local) = (self.comm, self.local);
        let (levels, parents) = (&self.levels[..], &self.parents[..]);
        // The set encoder wants sorted-unique vertices; claims arrive once per
        // vertex, so sorting suffices.
        frontier.sort_unstable();
        let broadcast_t = comm.trace_start();
        let mine = encode_set(frontier, local.range.clone(), Codec::Bitmap);
        let mut stats = LevelCodecStats {
            level: level as usize,
            ..Default::default()
        };
        stats.note(&mine);
        let slices = comm.allgatherv_wire(mine);
        // Assemble the global frontier bitmap (one bit per vertex of the
        // domain) from the decoded per-rank slices.
        let domain = local.block.domain() as usize;
        let mut bits = vec![0u64; domain.div_ceil(64)];
        let mut global_frontier = 0u64;
        for buf in &slices {
            for v in decode_set(buf.bytes()).expect("corrupt frontier payload") {
                bits[(v / 64) as usize] |= 1 << (v % 64);
                global_frontier += 1;
            }
        }
        comm.trace_span(SpanKind::BitmapBroadcast, broadcast_t, global_frontier);

        // Owner-side scan: each unvisited owned vertex probes its adjacency
        // against the bitmap, exiting at the first hit. Rows are independent
        // (each claims only its own vertex), so the hybrid pool splits the
        // owned range with no synchronization beyond the atomic stores.
        let scan_t = comm.trace_start();
        let in_frontier = |u: VertexId| bits[(u / 64) as usize] >> (u % 64) & 1 == 1;
        let scan_one = |i: usize, next: &mut Vec<VertexId>, examined: &mut u64| {
            if levels[i].load(Ordering::Relaxed) != UNREACHED {
                return;
            }
            let v = local.to_global(i);
            for &u in local.neighbors(v) {
                *examined += 1;
                if in_frontier(u) {
                    levels[i].store(level, Ordering::Relaxed);
                    parents[i].store(u as i64, Ordering::Relaxed);
                    next.push(v);
                    break;
                }
            }
        };
        let (next, examined) = match self.pool {
            Some(pool) => {
                let batch_t = comm.trace_start();
                let out = pool.install(|| {
                    (0..local.count())
                        .into_par_iter()
                        .with_min_len(64)
                        .fold(
                            || (Vec::new(), 0u64),
                            |(mut next, mut examined), i| {
                                scan_one(i, &mut next, &mut examined);
                                (next, examined)
                            },
                        )
                        .reduce(
                            || (Vec::new(), 0u64),
                            |(mut a, ae), (mut b, be)| {
                                a.append(&mut b);
                                (a, ae + be)
                            },
                        )
                });
                comm.trace_span(SpanKind::TaskBatch, batch_t, local.count() as u64);
                out
            }
            None => {
                let mut next = Vec::new();
                let mut examined = 0u64;
                for i in 0..local.count() {
                    scan_one(i, &mut next, &mut examined);
                }
                (next, examined)
            }
        };
        comm.trace_span(SpanKind::BottomUpScan, scan_t, examined);
        (next, examined, stats)
    }

    /// Codec-path packing (lines 13–19) with the owner's claim (lines 23–26)
    /// folded in: a target this rank owns is claimed on the spot — its bucket
    /// would only come back to this rank — and every other target is
    /// deduplicated into `scratch`. Returns the vertices claimed, under a
    /// Pack span.
    fn pack_claim(
        &self,
        frontier: &[VertexId],
        scratch: &ExchangeScratch,
        level: i64,
    ) -> Vec<VertexId> {
        let (comm, local) = (self.comm, self.local);
        let (levels, parents) = (&self.levels[..], &self.parents[..]);
        let pack_t = comm.trace_start();
        let next = match self.pool {
            Some(pool) => {
                let batch_t = comm.trace_start();
                let next = pool.install(|| {
                    frontier
                        .par_iter()
                        .with_min_len(64)
                        .fold(Vec::new, |mut next: Vec<VertexId>, &u| {
                            for &v in local.neighbors(u) {
                                if !local.range.contains(&v) {
                                    scratch.touch(v, u);
                                } else if claim_shared(levels, parents, local.to_local(v), level, u)
                                {
                                    next.push(v);
                                }
                            }
                            next
                        })
                        .reduce(Vec::new, |mut a, mut b| {
                            a.append(&mut b);
                            a
                        })
                });
                comm.trace_span(SpanKind::TaskBatch, batch_t, frontier.len() as u64);
                next
            }
            None => {
                let mut next = Vec::new();
                for &u in frontier {
                    for &v in local.neighbors(u) {
                        if !local.range.contains(&v) {
                            scratch.touch_serial(v, u);
                        } else if claim_serial(levels, parents, local.to_local(v), level, u) {
                            next.push(v);
                        }
                    }
                }
                next
            }
        };
        comm.trace_span(SpanKind::Pack, pack_t, frontier.len() as u64);
        next
    }

    /// The codec pipeline around the all-to-all: drain each remote
    /// destination's deduplicated targets through the sieve into an encoded
    /// buffer, exchange as wire bytes, decode. The rank's own bucket stays on
    /// the board empty (its targets were claimed during the pack), so the
    /// collective schedule is the same as for the plain exchange.
    ///
    /// Under a hybrid pool the per-destination encode and the receive-side
    /// decode both fan out across pool threads: destinations are independent
    /// (see [`ExchangeScratch`]). The collective itself stays on the rank's
    /// main thread (the [`Comm`] threading invariant).
    fn encode_exchange(
        &self,
        scratch: &ExchangeScratch,
        level: i64,
    ) -> (Vec<Vec<(u64, u64)>>, LevelCodecStats) {
        let (comm, local) = (self.comm, self.local);
        let encode_t = comm.trace_start();
        let rank = comm.rank();
        let encode_one = |j: usize| -> (WireBuf, u64) {
            if j == rank {
                (WireBuf::default(), 0)
            } else {
                scratch.encode(local.block.range(j))
            }
        };
        let encoded: Vec<(WireBuf, u64)> = match self.pool {
            Some(pool) => {
                pool.install(|| (0..comm.size()).into_par_iter().map(encode_one).collect())
            }
            None => (0..comm.size()).map(encode_one).collect(),
        };
        let mut stats = LevelCodecStats {
            level: level as usize,
            ..Default::default()
        };
        let bufs = encoded
            .into_iter()
            .map(|(buf, dropped)| {
                stats.sieve_hits += dropped;
                stats.note(&buf);
                buf
            })
            .collect();
        comm.trace_span(SpanKind::Encode, encode_t, stats.sieve_hits);
        let wire = comm.alltoallv_wire(bufs);
        let decode_t = comm.trace_start();
        let decode_one = |b: &WireBuf| decode_pairs(b.bytes()).expect("corrupt frontier payload");
        let recv: Vec<Vec<(u64, u64)>> = match self.pool {
            Some(pool) => pool.install(|| wire.par_iter().map(decode_one).collect()),
            None => wire.iter().map(decode_one).collect(),
        };
        let decoded: u64 = recv.iter().map(|b| b.len() as u64).sum();
        comm.trace_span(SpanKind::Decode, decode_t, decoded);
        (recv, stats)
    }

    /// Owners claim the newly visited vertices among received pairs (lines
    /// 23–28), on the pool when there is one, under an Unpack span.
    fn unpack(&self, recv: &[Vec<(u64, u64)>], level: i64) -> Vec<VertexId> {
        let (comm, local) = (self.comm, self.local);
        let (levels, parents) = (&self.levels[..], &self.parents[..]);
        let unpack_t = comm.trace_start();
        let next = match self.pool {
            Some(pool) => {
                let batch_t = comm.trace_start();
                let received: u64 = recv.iter().map(|b| b.len() as u64).sum();
                let next = pool.install(|| {
                    recv.par_iter()
                        .flat_map_iter(|buf| buf.iter().copied())
                        .fold(Vec::new, |mut next: Vec<VertexId>, (v, parent)| {
                            if claim_shared(levels, parents, local.to_local(v), level, parent) {
                                next.push(v);
                            }
                            next
                        })
                        .reduce(Vec::new, |mut a, mut b| {
                            a.append(&mut b);
                            a
                        })
                });
                comm.trace_span(SpanKind::TaskBatch, batch_t, received);
                next
            }
            None => {
                let mut next = Vec::new();
                for &(v, parent) in recv.iter().flatten() {
                    if claim_serial(levels, parents, local.to_local(v), level, parent) {
                        next.push(v);
                    }
                }
                next
            }
        };
        comm.trace_span(SpanKind::Unpack, unpack_t, next.len() as u64);
        next
    }
}

/// Per-search state of the codec exchange, allocated once per search
/// next to `levels`/`parents`: the codec, the cross-level [`Sieve`] and
/// the deduplication bitmap of remote targets.
///
/// A pack marks each remote target `v` in `touched` and raises
/// `best[slot(v)]` to its largest parent; the encode then walks each
/// destination's words in ascending order, so its pairs come out sorted,
/// unique and carrying the max parent — the canonical tie-break of
/// [`claim_serial`] — with no per-destination sort. Everything here is
/// atomic so pool threads can pack and encode through a shared reference:
/// destinations own disjoint vertex ranges and only share the two edge
/// words of their ranges, which every writer updates with masked
/// read-modify-writes. `Relaxed` suffices because no value here publishes
/// other data: the pack, the encode and the next level are separate pool
/// batches, ordered by the pool's join.
struct ExchangeScratch {
    /// Wire encoding of the remote buckets (never [`Codec::Off`]).
    codec: Codec,
    /// One bit per global vertex: remote targets packed since their
    /// destination was last encoded. Only remote bits are ever set.
    touched: Vec<AtomicU64>,
    /// Largest parent packed for each touched remote vertex and 0 for
    /// every other one, so packing is a plain max. Indexed by
    /// [`ExchangeScratch::slot`]: the domain minus this rank's range.
    best: Vec<AtomicU64>,
    /// This rank's own vertex range (never packed here).
    own: Range<u64>,
    /// Cross-level filter of targets already sent, when sieving.
    sieve: Option<Sieve>,
}

impl ExchangeScratch {
    fn new(local: &Local1d, codec: Codec, sieve: bool) -> Self {
        let n = local.block.domain();
        let zeros = |len: u64| (0..len).map(|_| AtomicU64::new(0)).collect();
        Self {
            codec,
            touched: zeros(n.div_ceil(64)),
            best: zeros(n - local.count() as u64),
            own: local.range.clone(),
            // One bit per global vertex: a vertex's owner is fixed, so
            // this also keys (vertex, destination) pairs.
            sieve: sieve.then(|| Sieve::new(n as usize)),
        }
    }

    /// Index of remote vertex `v` in `best`.
    #[inline]
    fn slot(&self, v: VertexId) -> usize {
        debug_assert!(!self.own.contains(&v));
        if v < self.own.start {
            v as usize
        } else {
            (v - (self.own.end - self.own.start)) as usize
        }
    }

    /// Packs remote target `v` reached from `u`. The plain loads skip the
    /// read-modify-writes on repeat hits, which dominate on skewed graphs.
    #[inline]
    fn touch(&self, v: VertexId, u: VertexId) {
        let (word, bit) = (&self.touched[(v / 64) as usize], 1u64 << (v % 64));
        if word.load(Ordering::Relaxed) & bit == 0 {
            word.fetch_or(bit, Ordering::Relaxed);
        }
        let best = &self.best[self.slot(v)];
        if u > best.load(Ordering::Relaxed) {
            best.fetch_max(u, Ordering::Relaxed);
        }
    }

    /// [`ExchangeScratch::touch`] for the rank's only thread.
    #[inline]
    fn touch_serial(&self, v: VertexId, u: VertexId) {
        let (word, bit) = (&self.touched[(v / 64) as usize], 1u64 << (v % 64));
        word.store(word.load(Ordering::Relaxed) | bit, Ordering::Relaxed);
        let best = &self.best[self.slot(v)];
        if u > best.load(Ordering::Relaxed) {
            best.store(u, Ordering::Relaxed);
        }
    }

    /// Drains the touched targets in `range` — one destination's owner
    /// range — into an encoded buffer: sieve them a word at a time, emit
    /// the survivors with their best parents in ascending order, and
    /// clear the words. Returns the buffer and the number of targets the
    /// sieve dropped.
    fn encode(&self, range: Range<u64>) -> (WireBuf, u64) {
        let mut dropped = 0u64;
        if let Some(sieve) = &self.sieve {
            for (w, mask) in words(range.clone()) {
                let x = self.touched[w].load(Ordering::Relaxed) & mask;
                if x == 0 {
                    continue;
                }
                let seen = sieve.test_and_set_word(w, x);
                if seen != 0 {
                    dropped += u64::from(seen.count_ones());
                    self.clear(w, seen);
                }
            }
        }
        let pairs = words(range.clone()).flat_map(|(w, mask)| {
            set_bits(self.touched[w].load(Ordering::Relaxed) & mask).map(move |b| {
                let t = 64 * w as u64 + b;
                (t, self.best[self.slot(t)].load(Ordering::Relaxed))
            })
        });
        let buf = encode_pair_stream(pairs, range.clone(), self.codec);
        for (w, mask) in words(range) {
            let x = self.touched[w].load(Ordering::Relaxed) & mask;
            if x != 0 {
                self.clear(w, x);
            }
        }
        (buf, dropped)
    }

    /// Untouches the bits `x` of word `w`, resetting their best parents.
    fn clear(&self, w: usize, x: u64) {
        self.touched[w].fetch_and(!x, Ordering::Relaxed);
        for b in set_bits(x) {
            self.best[self.slot(64 * w as u64 + b)].store(0, Ordering::Relaxed);
        }
    }
}

/// The bitmap words covering `range`, each with the mask of its bits that
/// fall inside the range (edge words of a range that is not 64-aligned
/// are shared with the neighbouring range).
fn words(range: Range<u64>) -> impl Iterator<Item = (usize, u64)> + Clone {
    let Range { start, end } = range;
    let span = if start < end {
        start / 64..end.div_ceil(64)
    } else {
        0..0
    };
    span.map(move |w| {
        let lo = (64 * w).max(start);
        let hi = (64 * w + 64).min(end);
        (w as usize, (u64::MAX >> (64 - (hi - lo))) << (lo - 64 * w))
    })
}

/// Positions of the set bits of `x`, ascending.
fn set_bits(mut x: u64) -> impl Iterator<Item = u64> + Clone {
    std::iter::from_fn(move || {
        (x != 0).then(|| {
            let b = x.trailing_zeros();
            x &= x - 1;
            u64::from(b)
        })
    })
}

/// Serial buffer packing (flat variant) for the plain exchange.
fn pack_serial(local: &Local1d, frontier: &[VertexId], p: usize) -> Vec<Vec<(u64, u64)>> {
    let mut send: Vec<Vec<(u64, u64)>> = vec![Vec::new(); p];
    for &u in frontier {
        for &v in local.neighbors(u) {
            send[local.block.owner(v)].push((v, u));
        }
    }
    send
}

/// Thread-parallel packing with thread-local buffers merged at the end
/// (the `tBuf_ij` scheme of Algorithm 2 lines 11/16/19).
fn pack_parallel(local: &Local1d, frontier: &[VertexId], p: usize) -> Vec<Vec<(u64, u64)>> {
    frontier
        .par_iter()
        .with_min_len(64)
        .fold(
            || vec![Vec::new(); p],
            |mut bufs: Vec<Vec<(u64, u64)>>, &u| {
                for &v in local.neighbors(u) {
                    bufs[local.block.owner(v)].push((v, u));
                }
                bufs
            },
        )
        .reduce(
            || vec![Vec::new(); p],
            |mut a, mut b| {
                for (dst, src) in a.iter_mut().zip(b.iter_mut()) {
                    dst.append(src);
                }
                a
            },
        )
}

/// Claims owned vertex `i` for `level` from `parent`: the distance check
/// and claim of lines 23–26. Returns whether this call reached it first.
///
/// The tie-break between same-level claims is canonical: the numerically
/// largest parent wins. That makes the final parent of a vertex the max
/// over *all* same-level arrivals, independent of arrival order, of
/// per-sender dedup, of sender-side sieving, and of whether the claim came
/// off the wire or straight out of the pack — which is what keeps the
/// parent trees bit-identical across every codec × sieve configuration.
#[inline]
fn claim_serial(
    levels: &[AtomicI64],
    parents: &[AtomicI64],
    i: usize,
    level: i64,
    parent: VertexId,
) -> bool {
    let parent = parent as i64;
    let seen = levels[i].load(Ordering::Relaxed);
    if seen == UNREACHED {
        levels[i].store(level, Ordering::Relaxed);
        parents[i].store(parent, Ordering::Relaxed);
        return true;
    }
    if seen == level && parent > parents[i].load(Ordering::Relaxed) {
        parents[i].store(parent, Ordering::Relaxed);
    }
    false
}

/// [`claim_serial`] for pool threads: CAS-claimed so a vertex enters the
/// next frontier exactly once. `fetch_max` is safe right after a claim
/// because any parent id is ≥ 0 > [`UNREACHED`].
#[inline]
fn claim_shared(
    levels: &[AtomicI64],
    parents: &[AtomicI64],
    i: usize,
    level: i64,
    parent: VertexId,
) -> bool {
    let parent = parent as i64;
    let claimed = levels[i].load(Ordering::Relaxed) == UNREACHED
        && levels[i]
            .compare_exchange(UNREACHED, level, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok();
    if (claimed || levels[i].load(Ordering::Relaxed) == level)
        && parent > parents[i].load(Ordering::Relaxed)
    {
        parents[i].fetch_max(parent, Ordering::Relaxed);
    }
    claimed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::serial_bfs;
    use crate::validate::validate_bfs;
    use dmbfs_comm::Pattern;
    use dmbfs_graph::gen::{grid2d, path, rmat, RmatConfig};
    use dmbfs_graph::{CsrGraph, EdgeList};

    fn rmat_graph(scale: u32, seed: u64) -> CsrGraph {
        let mut el = rmat(&RmatConfig::graph500(scale, seed));
        el.canonicalize_undirected();
        CsrGraph::from_edge_list(&el)
    }

    /// Rank 1 of 3 over a 1000-vertex domain: the owner ranges 0..333,
    /// 333..666 and 666..1000 all start or end mid-word, and remote
    /// targets lie on both sides of the own range.
    fn scratch_fixture(sieve: bool) -> (Local1d, ExchangeScratch) {
        let g = CsrGraph::from_edge_list(&EdgeList::new(1000, vec![]));
        let local = extract_1d(&g, 3, 1);
        let scratch = ExchangeScratch::new(&local, Codec::Adaptive, sieve);
        (local, scratch)
    }

    /// Pseudo-random remote `(target, parent)` edges, heavy with repeats,
    /// plus fixed ones on every range boundary.
    fn remote_edges(local: &Local1d, count: usize, seed: u64) -> Vec<(u64, u64)> {
        let mut x = seed;
        let mut draw = || {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            x >> 33
        };
        let mut edges = vec![(0, 3), (332, 5), (332, 9), (666, 1), (999, 4)];
        edges.extend((0..count).map(|_| (draw() % 1000, draw() % 1000)));
        edges.retain(|(v, _)| !local.range.contains(v));
        edges
    }

    /// The per-pair pipeline the scratch replaced: sort, then collapse
    /// each target to its max parent.
    fn sorted_max_parent(edges: &[(u64, u64)]) -> Vec<(u64, u64)> {
        let mut best = std::collections::BTreeMap::new();
        for &(v, u) in edges {
            let p = best.entry(v).or_insert(u);
            *p = (*p).max(u);
        }
        best.into_iter().collect()
    }

    /// Encodes both remote destinations and decodes them back; returns
    /// the pairs in destination order and the sieve drops.
    fn drain(local: &Local1d, scratch: &ExchangeScratch) -> (Vec<(u64, u64)>, u64) {
        let mut pairs = Vec::new();
        let mut dropped = 0;
        for j in [0, 2] {
            let (buf, d) = scratch.encode(local.block.range(j));
            pairs.extend(decode_pairs(buf.bytes()).unwrap());
            dropped += d;
        }
        (pairs, dropped)
    }

    #[test]
    fn scratch_emits_sorted_max_parent_pairs_across_unaligned_ranges() {
        let (local, scratch) = scratch_fixture(false);
        assert_eq!(local.range, 333..666);
        let edges = remote_edges(&local, 4000, 7);
        // Every edge twice, as in a multigraph, once through each packing
        // flavour: the max parent must win.
        for &(v, u) in &edges {
            scratch.touch_serial(v, u);
            scratch.touch(v, u);
        }
        let (pairs, dropped) = drain(&local, &scratch);
        assert_eq!(dropped, 0);
        assert_eq!(pairs, sorted_max_parent(&edges));
        for t in [0, 332, 666, 999] {
            assert!(pairs.iter().any(|&(v, _)| v == t), "boundary target {t}");
        }
        // Draining leaves the scratch clean for the next level.
        assert!(scratch
            .touched
            .iter()
            .all(|w| w.load(Ordering::Relaxed) == 0));
        assert!(scratch.best.iter().all(|b| b.load(Ordering::Relaxed) == 0));
        assert!(drain(&local, &scratch).0.is_empty());
    }

    #[test]
    fn word_sieve_hits_match_the_per_pair_count() {
        let (local, scratch) = scratch_fixture(true);
        let reference = Sieve::new(1000);
        for level in 0..4 {
            let edges = remote_edges(&local, 300, 11 + level);
            for &(v, u) in &edges {
                scratch.touch(v, u);
            }
            let before = reference.hits();
            let mut expected = sorted_max_parent(&edges);
            expected.retain(|&(t, _)| !reference.test_and_set(t as usize));
            let (pairs, dropped) = drain(&local, &scratch);
            assert_eq!(pairs, expected, "level {level}");
            assert_eq!(dropped, reference.hits() - before, "level {level}");
        }
        let sieve = scratch.sieve.as_ref().unwrap();
        assert!(reference.hits() > 0);
        assert_eq!(sieve.hits(), reference.hits());
    }

    #[test]
    fn flat_matches_serial_on_grid() {
        let g = CsrGraph::from_edge_list(&grid2d(6, 9));
        let expected = serial_bfs(&g, 0);
        for p in [1, 2, 3, 5, 8] {
            let out = bfs1d(&g, 0, &Bfs1dConfig::flat(p));
            assert_eq!(out.levels, expected.levels, "p = {p}");
        }
    }

    #[test]
    fn flat_matches_serial_on_rmat() {
        let g = rmat_graph(9, 4);
        let expected = serial_bfs(&g, 3);
        for p in [2, 4, 7] {
            let out = bfs1d(&g, 3, &Bfs1dConfig::flat(p));
            assert_eq!(out.levels, expected.levels, "p = {p}");
            validate_bfs(&g, 3, &out.parents, &out.levels).unwrap();
        }
    }

    #[test]
    fn hybrid_matches_serial() {
        let g = rmat_graph(9, 6);
        let expected = serial_bfs(&g, 1);
        let out = bfs1d(&g, 1, &Bfs1dConfig::hybrid(3, 2));
        assert_eq!(out.levels, expected.levels);
        validate_bfs(&g, 1, &out.parents, &out.levels).unwrap();
    }

    #[test]
    fn high_diameter_path_works() {
        let g = CsrGraph::from_edge_list(&path(40));
        let out = bfs1d(&g, 0, &Bfs1dConfig::flat(4));
        let expected: Vec<i64> = (0..40).collect();
        assert_eq!(out.levels, expected);
    }

    #[test]
    fn source_not_on_rank_zero() {
        let g = CsrGraph::from_edge_list(&grid2d(4, 4));
        let expected = serial_bfs(&g, 15);
        let out = bfs1d(&g, 15, &Bfs1dConfig::flat(4));
        assert_eq!(out.levels, expected.levels);
    }

    #[test]
    fn disconnected_graph_terminates() {
        let el = EdgeList::new(8, vec![(0, 1), (1, 0), (6, 7), (7, 6)]);
        let g = CsrGraph::from_edge_list(&el);
        let out = bfs1d(&g, 0, &Bfs1dConfig::flat(3));
        assert_eq!(out.num_reached(), 2);
        assert_eq!(out.levels[6], UNREACHED);
    }

    #[test]
    fn run_reports_levels_and_alltoall_stats() {
        let g = rmat_graph(8, 2);
        let run = bfs1d_run(&g, 0, &Bfs1dConfig::flat(4).with_trace(true));
        assert_eq!(run.per_rank_stats.len(), 4);
        assert!(run.seconds > 0.0);
        assert!(run.num_levels >= 2);
        // The timed region's collectives, barriers aside.
        let schedule = |stats: &CommStats| -> Vec<Pattern> {
            stats
                .events
                .iter()
                .map(|e| e.pattern)
                .filter(|&p| p != Pattern::Barrier)
                .collect()
        };
        // Top-down: one seed allreduce, then one alltoallv and one
        // allreduce per level, every allreduce carrying the `[u64; 3]`.
        let mut expected = vec![Pattern::Allreduce];
        for _ in 0..run.num_levels {
            expected.extend([Pattern::Alltoallv, Pattern::Allreduce]);
        }
        for stats in &run.per_rank_stats {
            assert_eq!(schedule(stats), expected);
            for e in stats
                .events
                .iter()
                .filter(|e| e.pattern == Pattern::Allreduce)
            {
                // One `[u64; 3]` out, one in from each of the 3 peers.
                assert_eq!((e.bytes_out, e.bytes_in), (24, 24 * 3));
            }
        }
        // The pinned switch: every level is top-down, and every level
        // carries one Direction span saying so.
        let dirs = run.level_directions();
        assert_eq!(dirs.len() as u32, run.num_levels);
        assert!(dirs.iter().all(|&d| d == LevelDirection::TopDown));
        for t in &run.per_rank_trace {
            let tags: Vec<u64> = t
                .spans
                .iter()
                .filter(|s| s.kind == SpanKind::Direction)
                .map(|s| s.detail)
                .collect();
            assert_eq!(tags, vec![LevelDirection::TopDown.tag(); dirs.len()]);
        }
        // Hybrid: the same schedule, with bottom-up levels allgathering
        // the frontier bitmap in place of the alltoallv.
        let run = bfs1d_run(
            &rmat_graph(10, 7),
            0,
            &Bfs1dConfig::flat(4).with_direction(DirectionMode::Hybrid),
        );
        let dirs = run.level_directions();
        assert!(dirs.contains(&LevelDirection::BottomUp));
        let mut expected = vec![Pattern::Allreduce];
        for d in &dirs {
            expected.push(match d {
                LevelDirection::TopDown => Pattern::Alltoallv,
                LevelDirection::BottomUp => Pattern::Allgatherv,
            });
            expected.push(Pattern::Allreduce);
        }
        for stats in &run.per_rank_stats {
            assert_eq!(schedule(stats), expected);
        }
    }

    #[test]
    fn traced_run_captures_levels_phases_and_collectives() {
        let g = rmat_graph(8, 2);
        let run = bfs1d_run(&g, 0, &Bfs1dConfig::flat(4).with_trace(true));
        assert_eq!(run.per_rank_trace.len(), 4);
        for (rank, t) in run.per_rank_trace.iter().enumerate() {
            assert_eq!(t.rank, rank);
            assert_eq!(t.dropped, 0);
            let count = |k| t.spans.iter().filter(|s| s.kind == k).count() as u32;
            assert_eq!(count(SpanKind::Search), 1);
            assert_eq!(count(SpanKind::Level), run.num_levels);
            assert_eq!(count(SpanKind::Pack), run.num_levels);
            assert_eq!(count(SpanKind::Unpack), run.num_levels);
            assert_eq!(count(SpanKind::Encode), run.num_levels, "adaptive codec");
            assert!(count(SpanKind::Collective) > run.num_levels);
            // Each phase span nests inside its level's span.
            for s in t.spans.iter().filter(|s| s.kind == SpanKind::Pack) {
                let lvl = t
                    .spans
                    .iter()
                    .find(|l| l.kind == SpanKind::Level && l.level == s.level)
                    .expect("every pack has an enclosing level");
                assert!(lvl.start_ns <= s.start_ns && s.end_ns <= lvl.end_ns);
            }
        }
        // Untraced runs return placeholder traces with no spans.
        let run = bfs1d_run(&g, 0, &Bfs1dConfig::flat(4));
        assert_eq!(run.per_rank_trace.len(), 4);
        assert!(run.per_rank_trace.iter().all(|t| t.spans.is_empty()));
    }

    #[test]
    fn single_rank_equals_serial() {
        let g = rmat_graph(8, 9);
        let out = bfs1d(&g, 5, &Bfs1dConfig::flat(1));
        let expected = serial_bfs(&g, 5);
        assert_eq!(out.levels, expected.levels);
        // With one rank, even parents must match exactly (deterministic
        // order).
        validate_bfs(&g, 5, &out.parents, &out.levels).unwrap();
    }

    #[test]
    fn more_ranks_than_vertices() {
        let g = CsrGraph::from_edge_list(&path(3));
        let out = bfs1d(&g, 0, &Bfs1dConfig::flat(6));
        assert_eq!(out.levels, vec![0, 1, 2]);
    }

    #[test]
    fn hybrid_direction_matches_serial_oracle_and_schedule() {
        let g = rmat_graph(11, 7);
        let expected = serial_bfs(&g, 0);
        let serial_dir = crate::direction::direction_optimizing_bfs(&g, 0);
        for p in [1, 3, 4] {
            let cfg = Bfs1dConfig::flat(p).with_direction(DirectionMode::Hybrid);
            let run = bfs1d_run(&g, 0, &cfg);
            assert_eq!(run.output.levels, expected.levels, "p = {p}");
            validate_bfs(&g, 0, &run.output.parents, &run.output.levels).unwrap();
            // The distributed heuristic consumes the same (now allreduced)
            // counts as the serial one, so the schedules must agree level
            // for level.
            let dirs = run.level_directions();
            let serial_dirs: Vec<LevelDirection> = serial_dir
                .steps
                .iter()
                .map(|s| match s.direction {
                    crate::direction::Direction::TopDown => LevelDirection::TopDown,
                    crate::direction::Direction::BottomUp => LevelDirection::BottomUp,
                })
                .collect();
            assert_eq!(dirs, serial_dirs, "p = {p}");
            assert!(
                dirs.contains(&LevelDirection::BottomUp),
                "R-MAT peak levels should trigger bottom-up: {dirs:?}"
            );
        }
    }

    #[test]
    fn forced_bottom_up_is_deterministic_across_rank_counts() {
        let g = rmat_graph(9, 4);
        let expected = serial_bfs(&g, 3);
        let baseline = bfs1d_run(
            &g,
            3,
            &Bfs1dConfig::flat(1).with_direction(DirectionMode::BottomUp),
        );
        assert_eq!(baseline.output.levels, expected.levels);
        validate_bfs(&g, 3, &baseline.output.parents, &baseline.output.levels).unwrap();
        assert!(baseline
            .level_directions()
            .iter()
            .all(|&d| d == LevelDirection::BottomUp));
        for p in [2, 5, 8] {
            let cfg = Bfs1dConfig::flat(p).with_direction(DirectionMode::BottomUp);
            let run = bfs1d_run(&g, 3, &cfg);
            // Bottom-up parents are the first hit in CSR adjacency order —
            // identical whatever the rank count.
            assert_eq!(run.output.parents, baseline.output.parents, "p = {p}");
            assert_eq!(run.output.levels, expected.levels, "p = {p}");
        }
        // The hybrid pool scans the same vertices with the same probe
        // order, so threading changes nothing either.
        let hybrid = bfs1d_run(
            &g,
            3,
            &Bfs1dConfig::hybrid(3, 2).with_direction(DirectionMode::BottomUp),
        );
        assert_eq!(hybrid.output.parents, baseline.output.parents);
    }

    #[test]
    fn hybrid_levels_tag_directions_in_timings_and_trace() {
        let g = rmat_graph(10, 7);
        let cfg = Bfs1dConfig::flat(4)
            .with_direction(DirectionMode::Hybrid)
            .with_trace(true);
        let run = bfs1d_run(&g, 0, &cfg);
        let dirs = run.level_directions();
        assert_eq!(dirs.len() as u32, run.num_levels);
        assert!(dirs.contains(&LevelDirection::BottomUp));
        // Every rank records the identical schedule.
        for stats in &run.per_rank_stats {
            let rank_dirs: Vec<LevelDirection> =
                stats.level_timings.iter().map(|t| t.direction).collect();
            assert_eq!(rank_dirs, dirs);
        }
        for t in &run.per_rank_trace {
            // One Direction span per level, detail = the direction tag.
            let spans: Vec<_> = t
                .spans
                .iter()
                .filter(|s| s.kind == SpanKind::Direction)
                .collect();
            assert_eq!(spans.len() as u32, run.num_levels);
            for s in &spans {
                assert_eq!(
                    LevelDirection::from_tag(s.detail),
                    dirs[s.level as usize],
                    "trace tag matches the recorded schedule"
                );
            }
            // Bottom-up levels carry the broadcast + scan phase spans.
            let bu_levels = dirs
                .iter()
                .filter(|&&d| d == LevelDirection::BottomUp)
                .count();
            let count = |k| t.spans.iter().filter(|s| s.kind == k).count();
            assert_eq!(count(SpanKind::BitmapBroadcast), bu_levels);
            assert_eq!(count(SpanKind::BottomUpScan), bu_levels);
        }
    }

    #[test]
    fn hybrid_composes_with_codec_and_sieve() {
        let g = rmat_graph(9, 11);
        let expected = serial_bfs(&g, 2);
        for codec in [Codec::Off, Codec::Adaptive] {
            for sieve in [true, false] {
                let cfg = Bfs1dConfig::flat(4)
                    .with_direction(DirectionMode::Hybrid)
                    .with_codec(codec)
                    .with_sieve(sieve);
                let run = bfs1d_run(&g, 2, &cfg);
                assert_eq!(
                    run.output.levels, expected.levels,
                    "codec {codec:?}, sieve {sieve}"
                );
                validate_bfs(&g, 2, &run.output.parents, &run.output.levels).unwrap();
            }
        }
    }
}
