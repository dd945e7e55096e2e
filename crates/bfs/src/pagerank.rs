//! Distributed PageRank on the 2D checkerboard substrate.
//!
//! §1 motivates the whole line of work with "identifying and ranking
//! important entities"; PageRank is that kernel. It is also the
//! *dense-vector* counterpart of the 2D BFS: the same `pr × pc` grid and
//! submatrix blocks, but the expand phase gathers a dense chunk and the
//! fold phase is a `reduce_scatter` (sum) instead of a sparse merge —
//! exactly the classical parallel SpMV structure (the paper's \[22\]) that
//! the 2D BFS generalizes away from. Having both on one substrate makes
//! the sparse-vs-dense contrast §3.2 draws concrete.
//!
//! Iteration: `x' = (1 − d)/n + d · (Aᵀ x̂ + dangling mass / n)` with
//! `x̂[v] = x[v] / outdeg(v)`.

use crate::distribute::extract_2d;
use dmbfs_comm::CommStats;
use dmbfs_graph::{CsrGraph, Grid2D, VertexId};
use dmbfs_matrix::{spmv::spmv_dense, Dcsc};
use dmbfs_runtime::{run_ranks, scatter_block, Codec, FaultPlan, RunConfig};
use dmbfs_trace::{RankTrace, SpanKind, NO_LEVEL};
use std::time::Duration;

/// Configuration for [`distributed_pagerank`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PageRankConfig {
    /// Damping factor (0.85 is the standard choice).
    pub damping: f64,
    /// Stop when the L1 change between iterations drops below this.
    pub tolerance: f64,
    /// Hard iteration cap.
    pub max_iterations: u32,
    /// Processor grid.
    pub grid: Grid2D,
    /// Threads per rank (the harness builds a rank pool when > 1; the
    /// dense kernels currently stay on the rank main thread).
    pub threads_per_rank: usize,
    /// Record per-rank span traces. Strictly an observer: the computed
    /// scores are bit-identical either way.
    pub trace: bool,
    /// Attach the collective-matching verifier (see `docs/verification.md`).
    /// Strictly an observer: the computed scores are bit-identical either
    /// way.
    pub verify: bool,
    /// Deterministic fault-injection schedule (see `docs/fault-injection.md`).
    /// Empty by default.
    pub faults: FaultPlan,
    /// Overrides the verifier's watchdog timeout (`None` = env default).
    pub verify_timeout: Option<Duration>,
}

impl PageRankConfig {
    /// Standard parameters on the given grid.
    pub fn new(grid: Grid2D) -> Self {
        Self {
            damping: 0.85,
            tolerance: 1e-10,
            max_iterations: 200,
            grid,
            threads_per_rank: 1,
            trace: false,
            verify: false,
            faults: FaultPlan::none(),
            verify_timeout: None,
        }
    }

    /// Replaces the threads-per-rank count.
    pub fn with_threads(mut self, threads_per_rank: usize) -> Self {
        assert!(threads_per_rank >= 1);
        self.threads_per_rank = threads_per_rank;
        self
    }

    /// Enables or disables span tracing.
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Enables or disables the collective-matching verifier.
    pub fn with_verify(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// Replaces the fault-injection schedule.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Overrides the verifier's watchdog timeout.
    pub fn with_verify_timeout(mut self, timeout: Duration) -> Self {
        self.verify_timeout = Some(timeout);
        self
    }

    /// The runtime-layer view of this configuration. PageRank moves dense
    /// float payloads, so the frontier codec/sieve do not apply.
    pub fn run_config(&self) -> RunConfig {
        RunConfig {
            ranks: self.grid.size(),
            threads_per_rank: self.threads_per_rank,
            codec: Codec::Off,
            sieve: false,
            trace: self.trace,
            verify: self.verify,
            faults: self.faults,
            verify_timeout: self.verify_timeout,
            direction: dmbfs_runtime::DirectionMode::TopDown,
            schedule_capture: false,
        }
    }
}

/// Result of a PageRank run.
#[derive(Clone, Debug)]
pub struct PageRankOutput {
    /// Scores, summing to 1.
    pub scores: Vec<f64>,
    /// Iterations executed.
    pub iterations: u32,
}

impl PageRankOutput {
    /// Vertices sorted by descending score.
    pub fn ranking(&self) -> Vec<VertexId> {
        let mut order: Vec<VertexId> = (0..self.scores.len() as u64).collect();
        order.sort_by(|&a, &b| {
            self.scores[b as usize]
                .total_cmp(&self.scores[a as usize])
                .then(a.cmp(&b))
        });
        order
    }
}

/// Serial reference power iteration.
pub fn serial_pagerank(
    g: &CsrGraph,
    damping: f64,
    tolerance: f64,
    max_iter: u32,
) -> PageRankOutput {
    let n = g.num_vertices() as usize;
    assert!(n > 0);
    let mut x = vec![1.0 / n as f64; n];
    let mut iterations = 0;
    while iterations < max_iter {
        iterations += 1;
        let mut next = vec![0.0; n];
        let mut dangling = 0.0;
        for u in 0..n as u64 {
            let deg = g.degree(u);
            if deg == 0 {
                dangling += x[u as usize];
                continue;
            }
            let share = x[u as usize] / deg as f64;
            for &v in g.neighbors(u) {
                next[v as usize] += share;
            }
        }
        let base = (1.0 - damping) / n as f64 + damping * dangling / n as f64;
        let mut delta = 0.0;
        for (v, slot) in next.iter_mut().enumerate() {
            *slot = base + damping * *slot;
            delta += (*slot - x[v]).abs();
        }
        x = next;
        if delta < tolerance {
            break;
        }
    }
    PageRankOutput {
        scores: x,
        iterations,
    }
}

/// A PageRank run with the harness's full measurement surface.
#[derive(Clone, Debug)]
pub struct PageRankRun {
    /// Assembled global result.
    pub output: PageRankOutput,
    /// Per-rank communication event streams (row-major grid order),
    /// including the row/column communicator events.
    pub per_rank_stats: Vec<CommStats>,
    /// Per-rank span traces; empty spans unless [`PageRankConfig::trace`]
    /// was set.
    pub per_rank_trace: Vec<RankTrace>,
    /// Wall seconds of the timed region (max over ranks, excluding graph
    /// distribution and communicator setup).
    pub seconds: f64,
}

/// Distributed PageRank over the 2D grid (see module docs). Produces
/// scores identical (to fp accumulation order) with [`serial_pagerank`].
pub fn distributed_pagerank(g: &CsrGraph, cfg: &PageRankConfig) -> PageRankOutput {
    distributed_pagerank_run(g, cfg).output
}

/// [`distributed_pagerank`] with per-rank stats, traces, and timing.
pub fn distributed_pagerank_run(g: &CsrGraph, cfg: &PageRankConfig) -> PageRankRun {
    let grid = cfg.grid;
    let n = g.num_vertices();
    assert!(n > 0);

    // Out-degrees are global knowledge (ingest-phase metadata).
    let degrees: Vec<u32> = (0..n).map(|v| g.degree(v) as u32).collect();
    let degrees = &degrees;

    let run = run_ranks(&cfg.run_config(), |ctx| {
        let comm = ctx.comm();
        let (i, j) = grid.coords_of(ctx.rank());
        let block = extract_2d(g, grid, i, j);
        let matrix = Dcsc::from_triples(block.nrows(), block.ncols(), &block.triples);
        let row_comm = comm.split(i as u64, j as u64);
        let col_comm = comm.split((grid.rows() + j) as u64, i as u64);

        // Owned dense chunk: this rank's share of the vector under the 2D
        // vector distribution.
        let vrange = block.map.vector_range(i, j);
        let nloc = (vrange.end - vrange.start) as usize;
        let mut x: Vec<f64> = vec![1.0 / n as f64; nloc];
        let mut iterations = 0u32;

        ctx.reset_accounting(); // exclude setup from stats and trace
        ctx.timed(0, || loop {
            comm.trace_enter_level(iterations as i64);
            let iter_t = comm.trace_start();
            iterations += 1;
            // Scale by out-degree and account dangling mass.
            let mut dangling = 0.0;
            let scaled: Vec<f64> = x
                .iter()
                .enumerate()
                .map(|(k, &xv)| {
                    let deg = degrees[(vrange.start + k as u64) as usize];
                    if deg == 0 {
                        dangling += xv;
                        0.0
                    } else {
                        xv / deg as f64
                    }
                })
                .collect();
            let dangling = comm.allreduce(dangling, |a, b| a + b);

            // Expand: assemble the dense input chunk for this block's
            // columns — the same transpose + column-allgather schedule as
            // the 2D BFS. On a square grid the pieces concatenate in
            // order; on rectangular grids elements are routed with their
            // global indices and scattered into place.
            let input: Vec<f64> = if grid.is_square() {
                let transposed = comm.sendrecv(grid.rank_of(j, i), scaled);
                let gathered = col_comm.allgatherv(transposed);
                let flat: Vec<f64> = gathered.into_iter().flatten().collect();
                debug_assert_eq!(flat.len() as u64, block.ncols());
                flat
            } else {
                let mut bufs: Vec<Vec<(u64, f64)>> = vec![Vec::new(); comm.size()];
                for (k, &v) in scaled.iter().enumerate() {
                    let gidx = vrange.start + k as u64;
                    let jstar = block.map.col_owner(gidx);
                    bufs[grid.rank_of(j % grid.rows(), jstar)].push((gidx, v));
                }
                let routed: Vec<(u64, f64)> = comm.alltoallv(bufs).into_iter().flatten().collect();
                let gathered = col_comm.allgatherv(routed);
                let mut dense = vec![0.0; block.ncols() as usize];
                for (gidx, v) in gathered.into_iter().flatten() {
                    dense[(gidx - block.col_range.start) as usize] = v;
                }
                dense
            };

            // Local dense SpMV over the block.
            let partial = spmv_dense(&matrix, &input);

            // Fold: sum the row's partials and scatter each owner its
            // share — reduce_scatter over the row communicator.
            let mut per_owner: Vec<Vec<f64>> = Vec::with_capacity(grid.cols());
            for jj in 0..grid.cols() {
                let r = block.map.vector_range(i, jj);
                let lo = (r.start - block.row_range.start) as usize;
                let hi = (r.end - block.row_range.start) as usize;
                per_owner.push(partial[lo..hi].to_vec());
            }
            let mine = row_comm.reduce_scatter(per_owner, |a, b| {
                a.iter().zip(b.iter()).map(|(x, y)| x + y).collect()
            });
            debug_assert_eq!(mine.len(), nloc);

            // Damping + dangling redistribution + convergence test.
            let base = (1.0 - cfg.damping) / n as f64 + cfg.damping * dangling / n as f64;
            let mut local_delta = 0.0;
            let next: Vec<f64> = mine
                .into_iter()
                .enumerate()
                .map(|(k, s)| {
                    let v = base + cfg.damping * s;
                    local_delta += (v - x[k]).abs();
                    v
                })
                .collect();
            x = next;
            let delta = comm.allreduce(local_delta, |a, b| a + b);
            comm.trace_span(SpanKind::Level, iter_t, iterations as u64);
            if delta < cfg.tolerance || iterations >= cfg.max_iterations {
                comm.trace_enter_level(NO_LEVEL);
                break;
            }
        });

        // World events (transpose, allreduce) plus the row/column
        // communicator events (fold, expand) in one stream per rank.
        ctx.merge_stats(row_comm.take_stats());
        ctx.merge_stats(col_comm.take_stats());
        (vrange.start, x, iterations)
    });

    let mut scores = vec![0.0; n as usize];
    let mut iterations = 0;
    for (start, rank_scores, rank_iters) in run.per_rank {
        scatter_block(&mut scores, start, &rank_scores);
        iterations = iterations.max(rank_iters);
    }
    PageRankRun {
        output: PageRankOutput { scores, iterations },
        per_rank_stats: run.per_rank_stats,
        per_rank_trace: run.per_rank_trace,
        seconds: run.seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmbfs_graph::gen::{rmat, RmatConfig};
    use dmbfs_graph::{CsrGraph, EdgeList};

    fn rmat_graph(scale: u32, seed: u64) -> CsrGraph {
        let mut el = rmat(&RmatConfig::graph500(scale, seed));
        el.canonicalize_undirected();
        CsrGraph::from_edge_list(&el)
    }

    fn close(a: &[f64], b: &[f64], tol: f64) -> bool {
        a.iter().zip(b).all(|(x, y)| (x - y).abs() < tol)
    }

    #[test]
    fn distributed_matches_serial() {
        let g = rmat_graph(8, 3);
        let serial = serial_pagerank(&g, 0.85, 1e-12, 100);
        for grid in [
            Grid2D::new(1, 1),
            Grid2D::new(2, 2),
            Grid2D::new(3, 3),
            Grid2D::new(2, 3),
        ] {
            let cfg = PageRankConfig {
                tolerance: 1e-12,
                max_iterations: 100,
                ..PageRankConfig::new(grid)
            };
            let got = distributed_pagerank(&g, &cfg);
            assert!(
                close(&got.scores, &serial.scores, 1e-9),
                "grid {grid:?} diverged"
            );
        }
    }

    #[test]
    fn scores_sum_to_one() {
        let g = rmat_graph(8, 5);
        let out = distributed_pagerank(&g, &PageRankConfig::new(Grid2D::new(2, 2)));
        let total: f64 = out.scores.iter().sum();
        assert!((total - 1.0).abs() < 1e-8, "sum = {total}");
    }

    #[test]
    fn hub_outranks_leaf_on_a_star() {
        // Star: center 0 linked to 1..=5.
        let mut edges = Vec::new();
        for v in 1..=5u64 {
            edges.push((0, v));
            edges.push((v, 0));
        }
        let g = CsrGraph::from_edge_list(&EdgeList::new(6, edges));
        let out = distributed_pagerank(&g, &PageRankConfig::new(Grid2D::new(2, 2)));
        assert_eq!(out.ranking()[0], 0);
        assert!(out.scores[0] > 3.0 * out.scores[1]);
    }

    #[test]
    fn dangling_mass_is_conserved() {
        // Vertex 2 has no out-edges (directed input, no symmetrization).
        let g = CsrGraph::from_edge_list(&EdgeList::new(3, vec![(0, 1), (1, 2)]));
        let serial = serial_pagerank(&g, 0.85, 1e-12, 100);
        let got = distributed_pagerank(
            &g,
            &PageRankConfig {
                tolerance: 1e-12,
                max_iterations: 100,
                ..PageRankConfig::new(Grid2D::new(2, 2))
            },
        );
        assert!(close(&got.scores, &serial.scores, 1e-9));
        let total: f64 = got.scores.iter().sum();
        assert!((total - 1.0).abs() < 1e-8);
    }

    #[test]
    fn iteration_cap_is_respected() {
        let g = rmat_graph(7, 7);
        let cfg = PageRankConfig {
            tolerance: 0.0,
            max_iterations: 5,
            ..PageRankConfig::new(Grid2D::new(2, 2))
        };
        let out = distributed_pagerank(&g, &cfg);
        assert_eq!(out.iterations, 5);
    }
}
