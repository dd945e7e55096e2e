//! Per-layer measurements taken from outside the library: span self-times
//! of a traced run, the drivers' own counters, and direct timings of the
//! public distribute, runtime and comm calls.

use crate::workload::{Driver, Search};
use dmbfs_bfs::distribute::{extract_1d, extract_2d};
use dmbfs_comm::{LevelDirection, Pattern, WireBuf, World};
use dmbfs_graph::CsrGraph;
use dmbfs_runtime::{run_ranks, RunConfig};
use dmbfs_trace::{RankTrace, SpanKind};
use std::hint::black_box;
use std::time::Instant;

/// Span kinds whose self time is reported: kind, the ms name printed in
/// the report, and the name of its share of the search, which the JSON
/// line carries (a layer that does not run on a workload reads 0 there).
pub const SPAN_METRICS: [(SpanKind, &str, &str); 13] = [
    (SpanKind::Pack, "trace.pack_ms", "trace.pack_frac"),
    (SpanKind::Encode, "trace.encode_ms", "trace.encode_frac"),
    (SpanKind::Decode, "trace.decode_ms", "trace.decode_frac"),
    (SpanKind::Unpack, "trace.unpack_ms", "trace.unpack_frac"),
    (
        SpanKind::Collective,
        "trace.collective_ms",
        "trace.collective_frac",
    ),
    (
        SpanKind::BitmapBroadcast,
        "trace.bitmap_broadcast_ms",
        "trace.bitmap_broadcast_frac",
    ),
    (
        SpanKind::BottomUpScan,
        "trace.bottom_up_scan_ms",
        "trace.bottom_up_scan_frac",
    ),
    (
        SpanKind::TaskBatch,
        "trace.task_batch_ms",
        "trace.task_batch_frac",
    ),
    (SpanKind::SpMSV, "trace.spmsv_ms", "trace.spmsv_frac"),
    (
        SpanKind::Transpose,
        "trace.transpose_ms",
        "trace.transpose_frac",
    ),
    (
        SpanKind::ExpandPhase,
        "trace.expand_ms",
        "trace.expand_frac",
    ),
    (SpanKind::FoldPhase, "trace.fold_ms", "trace.fold_frac"),
    (SpanKind::Mask, "trace.mask_ms", "trace.mask_frac"),
];

/// Collective patterns whose wall time is reported, named as in
/// [`SPAN_METRICS`]. Point-to-point is left out: no workload calls it.
pub const PATTERN_METRICS: [(Pattern, &str, &str); 4] = [
    (
        Pattern::Alltoallv,
        "comm.alltoallv_ms",
        "comm.alltoallv_frac",
    ),
    (
        Pattern::Allgatherv,
        "comm.allgatherv_ms",
        "comm.allgatherv_frac",
    ),
    (
        Pattern::Allreduce,
        "comm.allreduce_ms",
        "comm.allreduce_frac",
    ),
    (Pattern::Barrier, "comm.barrier_ms", "comm.barrier_frac"),
];

const NS_PER_MS: f64 = 1e6;

/// Where the time of one traced search went, on its critical rank (the
/// rank with the longest Search span).
#[derive(Clone, Debug, Default)]
pub struct TraceSplit {
    /// The critical rank's Search span, ms.
    pub search_ms: f64,
    /// Self time per [`SPAN_METRICS`] entry, ms.
    pub self_ms: [f64; SPAN_METRICS.len()],
    /// Level spans, summed, ms.
    pub level_ms: f64,
    /// Level time not covered by any child span, ms.
    pub level_self_ms: f64,
    /// Bottom-up edges examined, summed over ranks.
    pub examined: u64,
    /// Spans the rings overwrote, summed over ranks.
    pub dropped: u64,
}

/// Splits one traced search by span kind.
///
/// A span's self time is its duration minus the durations of the spans
/// directly nested in it. `TaskBatch` is transparent: it marks work handed
/// to the rank's pool inside a phase, so it keeps its whole duration as
/// `trace.task_batch_ms` and is not subtracted from the phase around it.
pub fn split(traces: &[RankTrace]) -> TraceSplit {
    let search_of = |t: &RankTrace| {
        t.spans
            .iter()
            .filter(|s| s.kind == SpanKind::Search)
            .max_by_key(|s| s.dur_ns())
            .copied()
    };
    let mut out = TraceSplit {
        dropped: traces.iter().map(|t| t.dropped).sum(),
        examined: traces
            .iter()
            .flat_map(|t| &t.spans)
            .filter(|s| s.kind == SpanKind::BottomUpScan)
            .map(|s| s.detail)
            .sum(),
        ..TraceSplit::default()
    };
    let Some((trace, search)) = traces
        .iter()
        .filter_map(|t| search_of(t).map(|s| (t, s)))
        .max_by_key(|(_, s)| s.dur_ns())
    else {
        return out;
    };
    out.search_ms = search.dur_ns() as f64 / NS_PER_MS;

    let mut spans: Vec<_> = trace
        .spans
        .iter()
        .filter(|s| s.kind != SpanKind::Search)
        .filter(|s| s.start_ns >= search.start_ns && s.end_ns <= search.end_ns)
        .copied()
        .collect();
    // Parents before their children: earlier start first, longer first.
    spans.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.end_ns)));
    let mut child_ns = vec![0u64; spans.len()];
    let mut open: Vec<usize> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if s.kind == SpanKind::TaskBatch {
            continue;
        }
        while let Some(&top) = open.last() {
            if spans[top].end_ns >= s.end_ns {
                break;
            }
            open.pop();
        }
        if let Some(&parent) = open.last() {
            child_ns[parent] += s.dur_ns();
        }
        open.push(i);
    }
    for (s, child) in spans.iter().zip(child_ns) {
        let self_ms = s.dur_ns().saturating_sub(child) as f64 / NS_PER_MS;
        if s.kind == SpanKind::Level {
            out.level_ms += s.dur_ns() as f64 / NS_PER_MS;
            out.level_self_ms += self_ms;
        }
        if let Some(k) = SPAN_METRICS.iter().position(|m| m.0 == s.kind) {
            out.self_ms[k] += self_ms;
        }
    }
    out
}

/// The drivers' own counters for one search, by metric name. Volumes are
/// sums over ranks; times are maxima over ranks.
pub fn counters(s: &Search) -> Vec<(&'static str, f64)> {
    let stats = &s.stats;
    let sum = |f: &dyn Fn(&dmbfs_comm::CommStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    let max_ms = |pattern: Pattern| {
        stats
            .iter()
            .map(|st| st.wall_for(pattern).as_secs_f64() * 1e3)
            .fold(0.0, f64::max)
    };
    let logical = sum(&|st| st.bytes_out());
    let wire = sum(&|st| st.wire_out());
    let loaned = sum(&|st| st.loaned_bytes());
    let copied = sum(&|st| st.copied_bytes());
    let pair_bytes = sum(&|st| st.bytes_out_for(Pattern::Alltoallv));
    let reached = s.output.num_reached().saturating_sub(1) as f64;
    // The rank with the most level wall sets the pace.
    let share = stats
        .iter()
        .map(|st| (st.compute_total() + st.comm_total(), st.comm_total()))
        .max_by_key(|(wall, _)| *wall)
        .map_or(0.0, |(wall, comm)| {
            ratio(comm.as_secs_f64(), wall.as_secs_f64())
        });
    let bottomup_levels = stats.first().map_or(0, |st| {
        st.level_timings
            .iter()
            .filter(|t| t.direction == LevelDirection::BottomUp)
            .count()
    });
    let work: Vec<f64> = s.work.iter().map(|w| w.total() as f64).collect();
    let mean_work = work.iter().sum::<f64>() / work.len().max(1) as f64;

    let mut out = vec![
        ("comm.calls", sum(&|st| st.num_calls() as u64)),
        ("comm.logical_bytes", logical),
        ("comm.wire_bytes", wire),
        ("comm.wire_ratio", ratio(wire, logical)),
        ("comm.loaned_frac", ratio(loaned, loaned + copied)),
    ];
    let search_ms = s.seconds * 1e3;
    for &(p, ms_name, frac_name) in &PATTERN_METRICS {
        out.push((ms_name, max_ms(p)));
        out.push((frac_name, ratio(max_ms(p), search_ms)));
    }
    out.extend([
        ("comm.share", share),
        ("bfs.levels", f64::from(s.num_levels)),
        ("bfs.bottomup_levels", bottomup_levels as f64),
        (
            "codec.sieve_hits",
            s.codec.iter().map(|l| l.sieve_hits).sum::<u64>() as f64,
        ),
        ("codec.useful_pair_frac", ratio(reached, pair_bytes / 16.0)),
        (
            "two_d.spmsv_output",
            s.work.iter().map(|w| w.spmsv_output).sum::<u64>() as f64,
        ),
        (
            "two_d.fold_received",
            s.work.iter().map(|w| w.fold_received).sum::<u64>() as f64,
        ),
        (
            "two_d.work_imbalance",
            ratio(work.iter().copied().fold(0.0, f64::max), mean_work),
        ),
    ]);
    out
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The runtime configuration the driver runs its ranks under.
fn run_config(driver: &Driver) -> RunConfig {
    match driver {
        Driver::OneD(cfg) => *cfg,
        Driver::TwoD(cfg) => cfg.run_config(),
    }
}

/// Milliseconds of the driver's per-rank `extract_1d`/`extract_2d`, run
/// concurrently on every rank as the driver does; max over ranks.
pub fn extract_ms(driver: &Driver, g: &CsrGraph) -> f64 {
    let run = run_ranks(&run_config(driver), |ctx| {
        let t = Instant::now();
        match driver {
            Driver::OneD(cfg) => {
                black_box(extract_1d(g, cfg.ranks, ctx.rank()));
            }
            Driver::TwoD(cfg) => {
                let (i, j) = cfg.grid.coords_of(ctx.rank());
                black_box(extract_2d(g, cfg.grid, i, j));
            }
        }
        t.elapsed().as_secs_f64() * 1e3
    });
    run.per_rank.into_iter().fold(0.0, f64::max)
}

/// Milliseconds of a whole `run_ranks` call whose body is an empty timed
/// region: rank spawn, pool build, two barriers and the harvest.
pub fn spawn_ms(driver: &Driver) -> f64 {
    let cfg = run_config(driver);
    let t = Instant::now();
    black_box(run_ranks(&cfg, |ctx| ctx.timed(0, || ())));
    t.elapsed().as_secs_f64() * 1e3
}

/// Per-call microseconds of `barrier`, `allreduce` and `alltoallv_wire`
/// (64 bytes to each peer) in a world of `ranks`, max over ranks.
pub fn comm_call_us(ranks: usize, calls: usize) -> [f64; 3] {
    let per_rank = World::run(ranks, |comm| {
        let time = |f: &dyn Fn()| {
            for _ in 0..calls / 10 {
                f();
            }
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_secs_f64() * 1e6 / calls as f64
        };
        let barrier = time(&|| comm.barrier());
        let allreduce = time(&|| {
            black_box(comm.allreduce(comm.rank() as u64, |a, b| a + b));
        });
        let alltoallv = time(&|| {
            let bufs = (0..comm.size())
                .map(|_| WireBuf::new(vec![0u8; 64], 64))
                .collect();
            black_box(comm.alltoallv_wire(bufs));
        });
        [barrier, allreduce, alltoallv]
    });
    let mut out = [0.0f64; 3];
    for r in per_rank {
        for (o, v) in out.iter_mut().zip(r) {
            *o = o.max(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmbfs_trace::{CollectiveTag, SpanRecord};

    fn span(kind: SpanKind, start_ns: u64, end_ns: u64, detail: u64) -> SpanRecord {
        SpanRecord {
            kind,
            pattern: CollectiveTag::None,
            start_ns,
            end_ns,
            level: 0,
            detail,
            bytes: 0,
            wire: 0,
            loaned: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_and_skips_task_batches() {
        let ms = 1_000_000;
        let rank0 = RankTrace {
            rank: 0,
            spans: vec![
                span(SpanKind::Search, 0, 10 * ms, 0),
                span(SpanKind::Level, ms, 9 * ms, 0),
                span(SpanKind::Pack, ms, 4 * ms, 0),
                span(SpanKind::TaskBatch, ms, 3 * ms, 0),
                span(SpanKind::Exchange, 4 * ms, 8 * ms, 0),
                span(SpanKind::Encode, 4 * ms, 5 * ms, 0),
                span(SpanKind::Collective, 5 * ms, 7 * ms, 0),
                span(SpanKind::BottomUpScan, 8 * ms, 9 * ms, 7),
            ],
            dropped: 0,
        };
        let rank1 = RankTrace {
            rank: 1,
            spans: vec![
                span(SpanKind::Search, 0, 5 * ms, 0),
                span(SpanKind::BottomUpScan, ms, 2 * ms, 5),
            ],
            dropped: 2,
        };
        let s = split(&[rank1, rank0]);
        let get = |name: &str| s.self_ms[SPAN_METRICS.iter().position(|m| m.1 == name).unwrap()];
        assert_eq!(s.search_ms, 10.0);
        assert_eq!(get("trace.pack_ms"), 3.0);
        assert_eq!(get("trace.task_batch_ms"), 2.0);
        assert_eq!(get("trace.encode_ms"), 1.0);
        assert_eq!(get("trace.collective_ms"), 2.0);
        assert_eq!(get("trace.bottom_up_scan_ms"), 1.0);
        assert_eq!(s.level_ms, 8.0);
        // Level 1..9 holds Pack 3 + Exchange 4 + scan 1: nothing left over.
        assert_eq!(s.level_self_ms, 0.0);
        assert_eq!(s.examined, 12);
        assert_eq!(s.dropped, 2);
    }

    #[test]
    fn comm_microcalls_report_a_positive_latency() {
        for v in comm_call_us(2, 50) {
            assert!(v > 0.0);
        }
    }
}
