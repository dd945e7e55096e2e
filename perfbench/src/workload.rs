//! The four workloads: how each builds its graph from the seed and which
//! public BFS driver it calls.

use dmbfs_bfs::frontier_codec::LevelCodecStats;
use dmbfs_bfs::one_d::{bfs1d_run, Bfs1dConfig};
use dmbfs_bfs::two_d::{bfs2d_run, Bfs2dConfig, RankWork};
use dmbfs_bfs::BfsOutput;
use dmbfs_comm::CommStats;
use dmbfs_graph::components::sample_sources;
use dmbfs_graph::gen::{rmat, webcrawl, RmatConfig, WebCrawlConfig};
use dmbfs_graph::{CsrGraph, EdgeList, Grid2D, RandomPermutation, VertexId};
use dmbfs_runtime::{DirectionMode, RunConfig};
use dmbfs_trace::RankTrace;
use std::time::Instant;

/// Sources sampled per run; searches cycle through them.
pub const SOURCE_POOL: usize = 64;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// R-MAT scale 16, 1D top-down, 2 ranks x 1 thread.
    RmatTopdown,
    /// R-MAT scale 18, 1D direction-optimizing, 2 ranks x 1 thread.
    RmatDiropt,
    /// R-MAT scale 18, 1D direction-optimizing, 1 rank x 2 threads.
    RmatDiroptThreads,
    /// Web crawl with 70 communities of 256 vertices, 2D on a 1 x 2 grid.
    Web2d,
}

/// The graph input of a workload.
#[derive(Clone, Copy, Debug)]
enum Input {
    /// Graph 500 R-MAT at this scale, edge factor 16.
    Rmat(u32),
    /// The uk-union-like web crawl with this community size.
    WebCrawl(u64),
}

/// Which public driver a workload calls, with its configuration.
#[derive(Clone, Copy, Debug)]
pub enum Driver {
    /// `bfs1d_run`.
    OneD(Bfs1dConfig),
    /// `bfs2d_run`.
    TwoD(Bfs2dConfig),
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::RmatTopdown,
        Workload::RmatDiropt,
        Workload::RmatDiroptThreads,
        Workload::Web2d,
    ];

    /// The name passed to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RmatTopdown => "rmat-topdown",
            Workload::RmatDiropt => "rmat-diropt",
            Workload::RmatDiroptThreads => "rmat-diropt-threads",
            Workload::Web2d => "web-2d",
        }
    }

    /// Parses a `--workload` value.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn input(self) -> Input {
        match self {
            Workload::RmatTopdown => Input::Rmat(16),
            Workload::RmatDiropt | Workload::RmatDiroptThreads => Input::Rmat(18),
            Workload::Web2d => Input::WebCrawl(256),
        }
    }

    /// One-line description of the graph and driver, for the report.
    pub fn describe(self) -> String {
        let graph = match self.input() {
            Input::Rmat(scale) => format!("R-MAT scale {scale}, edge factor 16"),
            Input::WebCrawl(c) => format!("web crawl, 70 communities of {c}"),
        };
        let driver = match self.driver(false) {
            Driver::OneD(cfg) => format!(
                "bfs1d_run {} ({} ranks x {} threads)",
                cfg.direction.name(),
                cfg.ranks,
                cfg.threads_per_rank
            ),
            Driver::TwoD(cfg) => format!(
                "bfs2d_run on a {}x{} grid ({} threads per rank)",
                cfg.grid.rows(),
                cfg.grid.cols(),
                cfg.threads_per_rank
            ),
        };
        format!("{graph}; {driver}")
    }

    /// The driver configuration, with span tracing on or off.
    pub fn driver(self, trace: bool) -> Driver {
        match self {
            Workload::RmatTopdown => Driver::OneD(RunConfig::flat(2).with_trace(trace)),
            Workload::RmatDiropt => Driver::OneD(
                RunConfig::flat(2)
                    .with_direction(DirectionMode::Hybrid)
                    .with_trace(trace),
            ),
            Workload::RmatDiroptThreads => Driver::OneD(
                RunConfig::hybrid(1, 2)
                    .with_direction(DirectionMode::Hybrid)
                    .with_trace(trace),
            ),
            Workload::Web2d => Driver::TwoD(Bfs2dConfig::flat(Grid2D::new(1, 2)).with_trace(trace)),
        }
    }

    /// Ranks of the driver's world.
    pub fn ranks(self) -> usize {
        match self.driver(false) {
            Driver::OneD(cfg) => cfg.ranks,
            Driver::TwoD(cfg) => cfg.grid.size(),
        }
    }

    /// Threads per rank.
    pub fn threads(self) -> usize {
        match self.driver(false) {
            Driver::OneD(cfg) => cfg.threads_per_rank,
            Driver::TwoD(cfg) => cfg.threads_per_rank,
        }
    }

    /// Whether the parent tree is a pure function of the graph and source,
    /// so that the fingerprint may include parents as well as levels.
    pub fn parents_deterministic(self) -> bool {
        self == Workload::RmatTopdown
    }
}

/// A generated workload input and what each set-up step cost.
pub struct Setup {
    /// The benchmark graph.
    pub graph: CsrGraph,
    /// Sampled search sources, all in the largest component.
    pub sources: Vec<VertexId>,
    /// Seconds to generate, symmetrize and shuffle the edge list.
    pub generate_s: f64,
    /// Seconds to build the CSR.
    pub csr_s: f64,
    /// Seconds to sample the sources.
    pub sources_s: f64,
}

impl Setup {
    /// Wall seconds of the whole set-up.
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.csr_s + self.sources_s
    }
}

/// Builds the workload's graph exactly as `dmbfs_bench::harness` does
/// (`rmat_graph(scale, 16, seed)` / `webcrawl_graph(c, seed)`), timing each
/// step, then samples the sources from `seed`.
pub fn setup(w: Workload, seed: u64) -> Setup {
    let t = Instant::now();
    let el = match w.input() {
        Input::Rmat(scale) => {
            let mut el = rmat(&RmatConfig::graph500_ef(scale, 16, seed));
            el.canonicalize_undirected();
            shuffle(&el, seed ^ 0xD5BF)
        }
        Input::WebCrawl(c) => {
            let mut el = webcrawl(&WebCrawlConfig::uk_union_like(c, seed));
            el.canonicalize_undirected();
            shuffle(&el, seed ^ 0xC4A31)
        }
    };
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let graph = CsrGraph::from_edge_list(&el);
    drop(el);
    let csr_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let sources = sample_sources(&graph, SOURCE_POOL, seed ^ 0x5EA2C4);
    let sources_s = t.elapsed().as_secs_f64();
    Setup {
        graph,
        sources,
        generate_s,
        csr_s,
        sources_s,
    }
}

fn shuffle(el: &EdgeList, seed: u64) -> EdgeList {
    RandomPermutation::new(el.num_vertices, seed).apply_edge_list(el)
}

/// What one driver call returned, in the shape both drivers share.
pub struct Search {
    /// The assembled BFS tree.
    pub output: BfsOutput,
    /// Barrier-to-barrier search seconds (the Graph 500 timer).
    pub seconds: f64,
    /// Wall seconds of the whole public call, as its caller sees it.
    pub call_s: f64,
    /// Levels the search ran.
    pub num_levels: u32,
    /// Per-rank communication events and level timings.
    pub stats: Vec<CommStats>,
    /// Per-level codec counters, merged over ranks.
    pub codec: Vec<LevelCodecStats>,
    /// Per-rank span traces (empty spans unless traced).
    pub traces: Vec<RankTrace>,
    /// Per-rank 2D work counters (empty for 1D).
    pub work: Vec<RankWork>,
}

/// Runs one search through the workload's public driver.
pub fn search(driver: &Driver, g: &CsrGraph, source: VertexId) -> Search {
    let t = Instant::now();
    match driver {
        Driver::OneD(cfg) => {
            let run = bfs1d_run(g, source, cfg);
            let call_s = t.elapsed().as_secs_f64();
            Search {
                output: run.output,
                seconds: run.seconds,
                call_s,
                num_levels: run.num_levels,
                stats: run.per_rank_stats,
                codec: run.codec_levels,
                traces: run.per_rank_trace,
                work: Vec::new(),
            }
        }
        Driver::TwoD(cfg) => {
            let run = bfs2d_run(g, source, cfg);
            let call_s = t.elapsed().as_secs_f64();
            Search {
                output: run.output,
                seconds: run.seconds,
                call_s,
                num_levels: run.num_levels,
                stats: run.per_rank_stats,
                codec: run.codec_levels,
                traces: run.per_rank_trace,
                work: run.per_rank_work,
            }
        }
    }
}
