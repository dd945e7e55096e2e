//! `dmbfs-perfbench`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's graph from `--seed`, runs searches through the
//! public BFS drivers for `--seconds`, validates every one, and prints a
//! human-readable report followed by one JSON line. `--trace 0` reports
//! the end-to-end metrics of an untraced run; `--trace 1` reports the
//! per-layer metrics, from an untraced half, a traced half
//! (`RunConfig::with_trace`) and direct calls into the layers. See
//! `perfbench/README.md`.

mod host;
mod layers;
mod stats;
mod workload;
mod yardstick;

use dmbfs_bfs::direction::direction_optimizing_bfs;
use dmbfs_bfs::teps::{teps_edges, SourceRun, TepsReport};
use dmbfs_bfs::validate::validate_bfs;
use dmbfs_bfs::BfsOutput;
use layers::{TraceSplit, PATTERN_METRICS, SPAN_METRICS};
use stats::{median, percentile, quartiles};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Driver, Setup, Workload};
use yardstick::{queue_bfs, Fnv};

/// Fewest set-ups per run; `setup_s` is their median.
const MIN_SETUPS: usize = 3;
/// Set-ups continue until this much time went into them, so that small
/// graphs, whose set-up takes milliseconds, still give a steady median.
const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// Fewest traced searches in a `--trace 1` run.
const MIN_TRACED: usize = 20;
/// Repetitions of each direct layer call (extract, spawn, comm calls).
const LAYER_REPS: usize = 11;
/// Calls per comm microbenchmark repetition.
const COMM_CALLS: usize = 2000;
/// Sources timed with the serial direction-optimizing yardstick.
const DIROPT_SOURCES: usize = 20;

/// End-to-end metrics, in `BENCHMARK.json` order: name, unit.
const END_TO_END: [(&str, &str); 5] = [
    ("mteps", "MTEPS"),
    ("search_ms_p50", "ms"),
    ("call_ms_p50", "ms"),
    ("setup_s", "s"),
    ("search_ok_frac", "frac"),
];

/// Per-layer metrics the JSON line carries, in `BENCHMARK.json` order:
/// name, unit. `run` checks that a `--trace 1` run emits exactly these.
const PER_LAYER: [(&str, &str); 46] = [
    ("graph.generate_s", "s"),
    ("graph.csr_s", "s"),
    ("graph.sources_s", "s"),
    ("distribute.extract_ms", "ms"),
    ("runtime.spawn_ms", "ms"),
    ("call.overhead_ms", "ms"),
    ("comm.barrier_us", "us"),
    ("comm.allreduce_us", "us"),
    ("comm.alltoallv_wire_us", "us"),
    ("comm.calls", "count"),
    ("comm.logical_bytes", "B"),
    ("comm.wire_bytes", "B"),
    ("comm.wire_ratio", "ratio"),
    ("comm.loaned_frac", "frac"),
    ("comm.alltoallv_frac", "frac"),
    ("comm.allgatherv_frac", "frac"),
    ("comm.allreduce_frac", "frac"),
    ("comm.barrier_frac", "frac"),
    ("comm.share", "frac"),
    ("bfs.levels", "count"),
    ("bfs.bottomup_levels", "count"),
    ("bfs.bottomup_examined_per_edge", "ratio"),
    ("codec.sieve_hits", "count"),
    ("codec.useful_pair_frac", "ratio"),
    ("two_d.spmsv_output", "count"),
    ("two_d.fold_received", "count"),
    ("two_d.work_imbalance", "ratio"),
    ("trace.search_ms", "ms"),
    ("trace.pack_frac", "frac"),
    ("trace.encode_frac", "frac"),
    ("trace.decode_frac", "frac"),
    ("trace.unpack_frac", "frac"),
    ("trace.collective_frac", "frac"),
    ("trace.bitmap_broadcast_frac", "frac"),
    ("trace.bottom_up_scan_frac", "frac"),
    ("trace.task_batch_frac", "frac"),
    ("trace.spmsv_frac", "frac"),
    ("trace.transpose_frac", "frac"),
    ("trace.expand_frac", "frac"),
    ("trace.fold_frac", "frac"),
    ("trace.mask_frac", "frac"),
    ("trace.unattributed_frac", "frac"),
    ("trace.overhead", "ratio"),
    ("ref.serial_ms_p50", "ms"),
    ("ref.diropt_ms_p50", "ms"),
    ("validate.ms_p50", "ms"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut map = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .filter(|k| ["workload", "seed", "seconds", "trace"].contains(k))
            .ok_or_else(|| format!("unknown argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(key, value.as_str());
    }
    let get = |k: &str| map.get(k).copied().ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?;
    let workload = Workload::from_name(workload).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {workload:?}; one of {}", names.join(", "))
    })?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(args) => {
            run(&args);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Per-name samples, one per search (or per repetition).
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    fn median(&self, name: &str) -> f64 {
        median(self.get(name)).unwrap_or(0.0)
    }
}

/// What the run has learned about one source.
#[derive(Default)]
struct SourceState {
    /// Hash of the yardstick BFS levels.
    reference: Option<Fnv>,
    /// Hash of the first output: levels, plus parents where the tree is
    /// deterministic. Later searches from the source must repeat it.
    fingerprint: Option<Fnv>,
    /// Hashes of (levels, parents) outputs that `validate_bfs` accepted;
    /// validation is a pure function of them, so a repeat needs no rerun.
    validated: Vec<Fnv>,
    /// TEPS edges, a function of the (checked) levels.
    edges: Option<u64>,
}

/// Which loop a search belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// The untimed first pass.
    WarmUp,
    /// A search of a timed, untraced pass.
    Timed,
    /// A traced search.
    Traced,
}

/// Everything the search loops found.
struct Bench<'a> {
    workload: Workload,
    setup: &'a Setup,
    sources: Vec<SourceState>,
    samples: Samples,
    /// Graph 500 runs of the timed passes, one list per pass.
    runs: Vec<Vec<SourceRun>>,
    attempted: usize,
    failed: usize,
    traced: Vec<TraceSplit>,
}

impl<'a> Bench<'a> {
    fn new(workload: Workload, setup: &'a Setup) -> Self {
        Bench {
            workload,
            setup,
            sources: setup
                .sources
                .iter()
                .map(|_| SourceState::default())
                .collect(),
            samples: Samples::default(),
            runs: Vec::new(),
            attempted: 0,
            failed: 0,
            traced: Vec::new(),
        }
    }

    /// One pass over every source with full validation, recording only
    /// the checks: it fills the validation memo and the caches before any
    /// search is timed.
    fn warm_up(&mut self) {
        let driver = self.workload.driver(false);
        for i in 0..self.setup.sources.len() {
            self.one_search(&driver, i, Phase::WarmUp);
        }
    }

    /// Runs whole passes over the sources until `budget` has passed and at
    /// least `min` searches ran, so that every source weighs the same.
    fn passes(&mut self, budget: Duration, min: usize) {
        let driver = self.workload.driver(false);
        let start = Instant::now();
        let mut done = 0;
        while done < min || start.elapsed() < budget {
            self.runs.push(Vec::new());
            for i in 0..self.setup.sources.len() {
                self.one_search(&driver, i, Phase::Timed);
                done += 1;
            }
        }
    }

    /// Runs traced searches until `budget` has passed and `min` ran.
    fn traced(&mut self, budget: Duration, min: usize) {
        let driver = self.workload.driver(true);
        let start = Instant::now();
        let mut done = 0;
        while done < min || start.elapsed() < budget {
            self.one_search(&driver, done % self.setup.sources.len(), Phase::Traced);
            done += 1;
        }
    }

    /// The run's output fingerprint: FNV-1a over the per-source
    /// fingerprints in source order, and how many sources it covers.
    fn fingerprint(&self) -> (Fnv, usize) {
        let mut h = Fnv::default();
        let mut n = 0;
        for f in self.sources.iter().filter_map(|s| s.fingerprint) {
            h.write(&[f.0 as i64]);
            n += 1;
        }
        (h, n)
    }

    /// One search from `sources[i]`: run, check, record.
    fn one_search(&mut self, driver: &Driver, i: usize, phase: Phase) {
        let g = &self.setup.graph;
        let source = self.setup.sources[i];
        self.attempted += 1;
        let Ok(s) = catch_unwind(AssertUnwindSafe(|| workload::search(driver, g, source))) else {
            eprintln!("search from {source} panicked");
            self.failed += 1;
            return;
        };
        let out = &s.output;
        let ok = self.check(i, out);
        let split = (phase == Phase::Traced).then(|| layers::split(&s.traces));
        let dropped = split.as_ref().map_or(0, |t| t.dropped);
        if dropped != 0 {
            eprintln!("search from {source}: the trace dropped {dropped} spans");
        }
        if !ok || dropped != 0 {
            self.failed += 1;
            return;
        }

        let edges = *self.sources[i]
            .edges
            .get_or_insert_with(|| teps_edges(g, out));
        match phase {
            Phase::WarmUp => {}
            Phase::Traced => {
                let split = split.expect("a traced search is split");
                self.samples.push("traced.search_ms", s.seconds * 1e3);
                self.samples.push(
                    "bfs.bottomup_examined_per_edge",
                    layers::ratio(split.examined as f64, edges as f64),
                );
                self.traced.push(split);
            }
            Phase::Timed => {
                self.samples.push("search_ms", s.seconds * 1e3);
                self.samples.push("call_ms", s.call_s * 1e3);
                for (name, v) in layers::counters(&s) {
                    self.samples.push(name, v);
                }
                let pass = self.runs.last_mut().expect("searches run in a pass");
                pass.push(SourceRun {
                    source,
                    seconds: s.seconds,
                    edges,
                    teps: edges as f64 / s.seconds,
                });
            }
        }
    }

    /// Checks one output against the Graph 500 validator, the yardstick
    /// BFS levels and earlier searches from the same source.
    fn check(&mut self, i: usize, out: &BfsOutput) -> bool {
        let g = &self.setup.graph;
        let source = self.setup.sources[i];
        let Bench {
            workload,
            sources,
            samples,
            ..
        } = self;
        let st = &mut sources[i];
        let mut levels = Fnv::default();
        levels.write(&out.levels);
        let mut tree = levels;
        tree.write(&out.parents);

        let mut ok = true;
        let reference = *st.reference.get_or_insert_with(|| {
            let t = Instant::now();
            let levels = queue_bfs(g.offsets(), g.adjacency(), source);
            samples.push("ref.serial_ms", t.elapsed().as_secs_f64() * 1e3);
            let mut h = Fnv::default();
            h.write(&levels);
            h
        });
        if levels != reference {
            eprintln!("search from {source}: levels differ from the yardstick BFS");
            ok = false;
        }
        if !st.validated.contains(&tree) {
            let t = Instant::now();
            let valid = validate_bfs(g, source, &out.parents, &out.levels);
            samples.push("validate.ms", t.elapsed().as_secs_f64() * 1e3);
            match valid {
                Ok(()) => st.validated.push(tree),
                Err(e) => {
                    eprintln!("search from {source}: Graph 500 validation failed: {e}");
                    ok = false;
                }
            }
        }
        let fingerprint = if workload.parents_deterministic() {
            tree
        } else {
            levels
        };
        if *st.fingerprint.get_or_insert(fingerprint) != fingerprint {
            eprintln!("search from {source}: output differs from an earlier search");
            ok = false;
        }
        ok
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    /// How the value aggregates ranks and searches.
    agg: &'static str,
    value: f64,
    /// Whether the JSON line carries it; the others are report lines only.
    export: bool,
}

/// A metric the JSON line carries.
fn metric(name: &'static str, unit: &'static str, agg: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        agg,
        value,
        export: true,
    }
}

/// A metric printed in the report only.
fn shown(name: &'static str, unit: &'static str, agg: &'static str, value: f64) -> Metric {
    Metric {
        export: false,
        ..metric(name, unit, agg, value)
    }
}

fn run(args: &Args) {
    let w = args.workload;
    let host = host::Host::probe();
    println!("workload: {} ({})", w.name(), w.describe());
    println!(
        "host: nproc={} cpu=\"{}\" ranks x threads = {} x {} oversubscribed={}",
        host.nproc,
        host.cpu,
        w.ranks(),
        w.threads(),
        w.ranks() * w.threads() > host.nproc
    );

    // Set-up, several times: generation must be a pure function of the seed.
    let mut kept: Option<Setup> = None;
    let mut deterministic = true;
    let mut setup = Samples::default();
    let start = Instant::now();
    while setup.get("setup_s").len() < MIN_SETUPS || start.elapsed() < SETUP_BUDGET {
        let s = workload::setup(w, args.seed);
        setup.push("setup_s", s.total_s());
        setup.push("graph.generate_s", s.generate_s);
        setup.push("graph.csr_s", s.csr_s);
        setup.push("graph.sources_s", s.sources_s);
        if let Some(prev) = &kept {
            deterministic &= prev.graph.offsets() == s.graph.offsets()
                && prev.graph.adjacency() == s.graph.adjacency()
                && prev.sources == s.sources;
        }
        kept = Some(s);
    }
    let graph_setup = kept.expect("at least one set-up");
    if !deterministic {
        eprintln!("graph generation is not deterministic in the seed");
    }
    let g = &graph_setup.graph;
    println!(
        "graph: {} vertices, {} stored edges, {} sources",
        g.num_vertices(),
        g.num_edges(),
        graph_setup.sources.len()
    );

    let mut bench = Bench::new(w, &graph_setup);
    let budget = Duration::from_secs_f64(args.seconds);
    let metrics = if args.trace {
        per_layer(&mut bench, budget, &setup)
    } else {
        bench.warm_up();
        bench.passes(budget, stats::min_samples_for(0.9));
        end_to_end(&bench, &setup)
    };

    let (fingerprint, covered) = bench.fingerprint();
    println!(
        "fingerprint: {:016x} (FNV-1a over the levels{} from {covered} sources)",
        fingerprint.0,
        if w.parents_deterministic() {
            " and parents"
        } else {
            ""
        },
    );
    println!(
        "searches: {} attempted, {} failed",
        bench.attempted, bench.failed
    );
    for m in &metrics {
        let mark = if m.export { ' ' } else { '*' };
        println!(
            "{mark} {:<34} {:>16.6} {:<6} {}",
            m.name, m.value, m.unit, m.agg
        );
    }
    if metrics.iter().any(|m| !m.export) {
        println!("(* printed only, not in the JSON line)");
    }
    let catalogue: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let exported: Vec<(&str, &str)> = metrics
        .iter()
        .filter(|m| m.export)
        .map(|m| (m.name, m.unit))
        .collect();
    assert_eq!(
        exported, catalogue,
        "the JSON line must carry the listed metrics"
    );
    let correct = deterministic && bench.failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .filter(|m| m.export)
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct,
        bench.attempted,
        bench.failed,
        body.join(", ")
    );
}

/// A finite JSON number (non-finite values, which `correct` already
/// rejects, print as 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn end_to_end(b: &Bench, setup: &Samples) -> Vec<Metric> {
    let search = b.samples.get("search_ms");
    let (q1, q3) = quartiles(search).unwrap_or_default();
    println!(
        "search_ms: {} samples, quartiles {q1:.4} .. {q3:.4}",
        search.len()
    );
    // Each pass is one Graph 500 run over every source.
    let pass_mteps: Vec<f64> = b
        .runs
        .iter()
        .filter(|runs| !runs.is_empty())
        .map(|runs| TepsReport::from_runs(runs.clone()).mteps())
        .collect();
    println!(
        "mteps: {} passes of {} sources",
        pass_mteps.len(),
        b.setup.sources.len()
    );
    let fail = b.failed as f64 / b.attempted.max(1) as f64;
    vec![
        metric(
            "mteps",
            "MTEPS",
            "Graph 500 TEPS of a pass, median over passes",
            median(&pass_mteps).unwrap_or(0.0),
        ),
        metric(
            "search_ms_p50",
            "ms",
            "median over searches",
            percentile(search, 0.5).unwrap_or(0.0),
        ),
        // Printed, not gated: see the README on host stalls.
        shown(
            "search_ms_p90",
            "ms",
            "p90 over searches",
            percentile(search, 0.9).unwrap_or(0.0),
        ),
        metric(
            "call_ms_p50",
            "ms",
            "median over searches, whole call",
            b.samples.median("call_ms"),
        ),
        metric(
            "setup_s",
            "s",
            "median over set-ups",
            setup.median("setup_s"),
        ),
        // Printed, not gated: see the README on malloc arenas.
        shown("peak_rss_mib", "MiB", "process peak", host::peak_rss_mib()),
        metric("search_ok_frac", "frac", "1 - search_fail_frac", 1.0 - fail),
        shown("search_fail_frac", "frac", "failed / attempted", fail),
    ]
}

fn per_layer(b: &mut Bench, budget: Duration, setup: &Samples) -> Vec<Metric> {
    let w = b.workload;
    let g = &b.setup.graph;
    b.warm_up();
    b.passes(budget / 2, 1);
    b.traced(budget / 2, MIN_TRACED);

    let driver = w.driver(false);
    let mut direct = Samples::default();
    for _ in 0..LAYER_REPS {
        direct.push("extract_ms", layers::extract_ms(&driver, g));
        direct.push("spawn_ms", layers::spawn_ms(&driver));
        let [barrier, allreduce, alltoallv] = layers::comm_call_us(w.ranks(), COMM_CALLS);
        direct.push("barrier_us", barrier);
        direct.push("allreduce_us", allreduce);
        direct.push("alltoallv_wire_us", alltoallv);
    }
    for &source in b.setup.sources.iter().take(DIROPT_SOURCES) {
        let t = Instant::now();
        let out = direction_optimizing_bfs(g, source);
        direct.push("diropt_ms", t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(out);
    }

    let s = &b.samples;
    let search_p50 = s.median("search_ms");
    let call_p50 = s.median("call_ms");
    let traced = |f: &dyn Fn(&TraceSplit) -> f64| {
        let v: Vec<f64> = b.traced.iter().map(f).collect();
        median(&v).unwrap_or(0.0)
    };
    let extract = direct.median("extract_ms");
    let spawn = direct.median("spawn_ms");
    println!(
        "call decomposition: call_ms_p50 - search_ms_p50 = {:.3} ms; \
         distribute.extract_ms + runtime.spawn_ms = {:.3} ms",
        call_p50 - search_p50,
        extract + spawn
    );
    if w.ranks() == 1 {
        println!("comm microcalls: 1 rank, so they time the call path alone (no peer)");
    }

    const MS: &str = "ms";
    const FRAC: &str = "frac";
    const COUNT: &str = "count";
    const SETUPS: &str = "median over set-ups";
    const SUM: &str = "sum over ranks, median per search";
    const MAX: &str = "max over ranks, median per search";
    const MAX_SHARE: &str = "max over ranks / search, median per search";
    const DIRECT: &str = "max over ranks, median of direct calls";
    const SELF: &str = "self time, critical rank, median per traced search";
    const SELF_SHARE: &str = "self time / Search span, critical rank, median";
    const PER_SEARCH: &str = "median per search";
    let mut m = vec![
        metric(
            "graph.generate_s",
            "s",
            SETUPS,
            setup.median("graph.generate_s"),
        ),
        metric("graph.csr_s", "s", SETUPS, setup.median("graph.csr_s")),
        metric(
            "graph.sources_s",
            "s",
            SETUPS,
            setup.median("graph.sources_s"),
        ),
        metric("distribute.extract_ms", MS, DIRECT, extract),
        metric(
            "runtime.spawn_ms",
            MS,
            "whole run_ranks call, median",
            spawn,
        ),
        metric(
            "call.overhead_ms",
            MS,
            "call_ms_p50 - search_ms_p50",
            call_p50 - search_p50,
        ),
        metric("comm.barrier_us", "us", DIRECT, direct.median("barrier_us")),
        metric(
            "comm.allreduce_us",
            "us",
            DIRECT,
            direct.median("allreduce_us"),
        ),
        metric(
            "comm.alltoallv_wire_us",
            "us",
            DIRECT,
            direct.median("alltoallv_wire_us"),
        ),
        metric("comm.calls", COUNT, SUM, s.median("comm.calls")),
        metric(
            "comm.logical_bytes",
            "B",
            SUM,
            s.median("comm.logical_bytes"),
        ),
        metric("comm.wire_bytes", "B", SUM, s.median("comm.wire_bytes")),
        metric(
            "comm.wire_ratio",
            "ratio",
            "sum wire / sum logical, median per search",
            s.median("comm.wire_ratio"),
        ),
        metric(
            "comm.loaned_frac",
            FRAC,
            "sum loaned / sum wire-collective bytes, median per search",
            s.median("comm.loaned_frac"),
        ),
    ];
    for &(_, ms_name, frac_name) in &PATTERN_METRICS {
        m.push(shown(ms_name, MS, MAX, s.median(ms_name)));
        m.push(metric(frac_name, FRAC, MAX_SHARE, s.median(frac_name)));
    }
    m.extend([
        metric(
            "comm.share",
            FRAC,
            "comm / level wall of the rank with most level wall, median",
            s.median("comm.share"),
        ),
        metric("bfs.levels", COUNT, PER_SEARCH, s.median("bfs.levels")),
        metric(
            "bfs.bottomup_levels",
            COUNT,
            PER_SEARCH,
            s.median("bfs.bottomup_levels"),
        ),
        metric(
            "bfs.bottomup_examined_per_edge",
            "ratio",
            "sum over ranks / TEPS edges, median per traced search",
            s.median("bfs.bottomup_examined_per_edge"),
        ),
        metric("codec.sieve_hits", COUNT, SUM, s.median("codec.sieve_hits")),
        metric(
            "codec.useful_pair_frac",
            "ratio",
            "reached / (alltoallv logical B / 16), median per search",
            s.median("codec.useful_pair_frac"),
        ),
        metric(
            "two_d.spmsv_output",
            COUNT,
            SUM,
            s.median("two_d.spmsv_output"),
        ),
        metric(
            "two_d.fold_received",
            COUNT,
            SUM,
            s.median("two_d.fold_received"),
        ),
        metric(
            "two_d.work_imbalance",
            "ratio",
            "max / mean over ranks, median per search",
            s.median("two_d.work_imbalance"),
        ),
        metric(
            "trace.search_ms",
            MS,
            "Search span, critical rank, median",
            traced(&|t| t.search_ms),
        ),
    ]);
    for (k, &(_, ms_name, frac_name)) in SPAN_METRICS.iter().enumerate() {
        m.push(shown(ms_name, MS, SELF, traced(&|t| t.self_ms[k])));
        m.push(metric(
            frac_name,
            FRAC,
            SELF_SHARE,
            traced(&|t| layers::ratio(t.self_ms[k], t.search_ms)),
        ));
    }
    m.extend([
        metric(
            "trace.unattributed_frac",
            FRAC,
            "Level self / Level, critical rank, median",
            traced(&|t| layers::ratio(t.level_self_ms, t.level_ms)),
        ),
        metric(
            "trace.overhead",
            "ratio",
            "traced / untraced search_ms_p50",
            layers::ratio(s.median("traced.search_ms"), search_p50),
        ),
        metric(
            "ref.serial_ms_p50",
            MS,
            "frozen queue BFS, median over sources",
            s.median("ref.serial_ms"),
        ),
        metric(
            "ref.diropt_ms_p50",
            MS,
            "direction_optimizing_bfs, median over sources",
            direct.median("diropt_ms"),
        ),
        metric(
            "validate.ms_p50",
            MS,
            "validate_bfs, median per validation",
            s.median("validate.ms"),
        ),
    ]);
    report_targets(w, &m, search_p50);
    m
}

/// Prints the ROADMAP's speed targets as ratios, and the dominant layer.
fn report_targets(w: Workload, m: &[Metric], search_p50: f64) {
    let get = |name: &str| m.iter().find(|x| x.name == name).map_or(0.0, |x| x.value);
    match w {
        Workload::RmatTopdown => println!(
            "target: 1D top-down vs serial = ref.serial_ms_p50 / search_ms_p50 = {:.3} (ROADMAP aim: 1.0)",
            layers::ratio(get("ref.serial_ms_p50"), search_p50)
        ),
        Workload::RmatDiroptThreads => println!(
            "target: p=1 threads vs serial direction-optimizing = ref.diropt_ms_p50 / search_ms_p50 = {:.3} (ROADMAP aim: >= 0.8)",
            layers::ratio(get("ref.diropt_ms_p50"), search_p50)
        ),
        _ => {}
    }
    // TaskBatch overlaps the phases it runs inside, so it cannot dominate.
    let (dominant, ms) = SPAN_METRICS
        .iter()
        .filter(|(kind, _, _)| *kind != dmbfs_trace::SpanKind::TaskBatch)
        .map(|&(_, name, _)| (name, get(name)))
        .fold(("none", 0.0), |a, b| if b.1 > a.1 { b } else { a });
    println!(
        "dominant layer: {dominant} = {ms:.3} of {:.3} ms traced search",
        get("trace.search_ms")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// `(name, unit)` of every metric under `"<section>": [` in
    /// `BENCHMARK.json`, which puts one metric on each line.
    fn listed(section: &str) -> Vec<(String, String)> {
        let field = |line: &str, key: &str| {
            let start = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
            let len = line[start..].find('"')?;
            Some(line[start..start + len].to_string())
        };
        BENCHMARK_JSON
            .lines()
            .skip_while(|l| !l.contains(&format!("\"{section}\": [")))
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with(']'))
            .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_metrics() {
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn metric_and_workload_names_follow_the_charset() {
        let names = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.0)
            .chain(Workload::ALL.iter().map(|w| w.name()));
        let mut seen = std::collections::BTreeSet::new();
        for name in names {
            assert!(stats::is_valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} is listed twice");
        }
        for w in Workload::ALL {
            assert!(BENCHMARK_JSON.contains(&format!("\"name\": \"{}\"", w.name())));
        }
    }
}
