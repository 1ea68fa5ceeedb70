//! The `dircc all` job pool: exact work counts, the finite-cache studies'
//! memoized work against an independent oracle, and byte-identity across
//! worker counts.

use dircc_cache::{FiniteCacheConfig, SetAssocCache};
use dircc_sim::experiments::extensions::{self, FINITE_CACHE_CAPACITIES};
use dircc_sim::experiments::{figures, network, paper_all_workload, studies, system, tables};
use dircc_sim::{TraceFilter, Workbench};
use dircc_types::BlockGeometry;
use std::collections::HashSet;

const REFS: u64 = 20_000;
const SEED: u64 = 7;

/// Renders every section `dircc all` prints, in its order.
fn render_all(wb: &Workbench) -> String {
    [
        tables::table1().to_string(),
        tables::table2().to_string(),
        tables::table3(wb).to_string(),
        tables::table4(wb).to_string(),
        tables::table5(wb).to_string(),
        figures::figure1(wb).to_string(),
        figures::figure2(wb).to_string(),
        figures::figure3(wb).to_string(),
        figures::figure4(wb).to_string(),
        figures::figure5(wb).to_string(),
        studies::sensitivity(wb).to_string(),
        studies::spinlock(wb).to_string(),
        studies::berkeley(wb).to_string(),
        studies::scalability(wb).to_string(),
        system::system(wb).to_string(),
        extensions::finite_cache(wb).to_string(),
        extensions::footnote2(wb).to_string(),
        network::storage_table().to_string(),
    ]
    .concat()
}

/// A full `all` warm does each piece of work exactly once, and rendering
/// afterwards does none.
#[test]
fn all_warm_does_each_piece_of_work_exactly_once() {
    let wb = Workbench::paper_scaled(REFS, SEED);
    let workload = paper_all_workload(&wb);
    assert_eq!(wb.warm_workload(&workload, 2), 42, "42 infinite-cache runs");
    let store = wb.store();
    assert_eq!(store.generations(), 3, "the generator runs once per trace");
    assert_eq!(store.interns(), 3, "one interning pass per trace");
    assert_eq!(store.soa_builds(), 6, "one SoA split per (trace, filter)");
    assert_eq!(wb.executed_runs(), 42);
    assert_eq!(wb.finite_runs(), 18, "3 capacities x 3 traces x Dir0B/Dragon");
    assert_eq!(wb.finite_scans(), 12, "4 capacities x 3 traces");

    let _ = render_all(&wb);
    let _ = extensions::footnote2(&wb);
    let _ = extensions::finite_cache(&wb);
    assert_eq!(wb.warm_workload(&workload, 2), 0, "a second warm is all memo hits");
    assert_eq!(wb.warm(&wb.paper_workload(), 2), 0);
    assert_eq!(
        (wb.executed_runs(), wb.finite_runs(), wb.finite_scans()),
        (42, 18, 12),
        "rendering reads the memo only"
    );
    assert_eq!((store.generations(), store.interns(), store.soa_builds()), (3, 3, 6));
}

/// `warm` over the paper workload still counts infinite-cache runs only.
#[test]
fn paper_workload_warm_returns_42() {
    let wb = Workbench::paper_scaled(4_000, SEED);
    assert_eq!(wb.warm(&wb.paper_workload(), 2), 42);
    assert_eq!(wb.finite_runs(), 0);
}

/// The materialization tasks make generation visible: one `generate`,
/// one `filter` and one `intern` span per trace, each ending before the
/// first replay of its trace starts.
#[test]
fn materialization_records_one_span_per_phase_and_trace() {
    let wb = Workbench::paper_scaled(REFS, SEED);
    wb.warm_workload(&paper_all_workload(&wb), 2);
    let spans = wb.span_log().spans();
    for name in wb.trace_names() {
        let of_trace = |phase: &str| {
            spans
                .iter()
                .filter(|s| s.name == phase && s.meta.as_ref().is_some_and(|m| m.trace == name))
                .collect::<Vec<_>>()
        };
        for phase in ["generate", "filter", "intern"] {
            let found = of_trace(phase);
            assert_eq!(found.len(), 1, "{name}: one {phase} span");
            assert!(!found[0].dur.is_zero(), "{name}: {phase} did real work");
        }
        let generate = of_trace("generate")[0];
        assert_eq!(generate.meta.as_ref().unwrap().refs, REFS);
        let intern = of_trace("intern")[0];
        assert_eq!(intern.meta.as_ref().unwrap().filter, "full+no-spins");
        let ready = intern.start + intern.dur;
        for phase in ["replay", "finite-replay", "finite-scan"] {
            for s in of_trace(phase) {
                assert!(s.start >= ready, "{name}: {phase} started before its trace was split");
            }
        }
    }
}

/// The replacement-miss scan as it stood before the workbench memoized
/// it: a `HashSet<(pid, block)>` of blocks each process has missed on,
/// over get-then-insert tag-store probes.
fn oracle_replacement_miss_rate(wb: &Workbench, trace: usize, capacity: usize) -> f64 {
    let geometry = BlockGeometry::PAPER;
    let mut caches: Vec<SetAssocCache<()>> = (0..wb.n_caches())
        .map(|_| SetAssocCache::new(FiniteCacheConfig::with_capacity(capacity, 4)))
        .collect();
    let mut total = 0u64;
    let mut replacement_misses = 0u64;
    let mut seen = HashSet::new();
    for r in wb.records(trace, TraceFilter::Full).iter().copied() {
        total += 1;
        if !r.is_data() {
            continue;
        }
        let cache = &mut caches[usize::from(r.pid.raw()) % wb.n_caches()];
        let block = geometry.block_of(r.addr);
        if cache.get(block).is_none() {
            cache.insert(block, ());
            if !seen.insert((r.pid.raw(), block)) {
                replacement_misses += 1;
            }
        }
    }
    replacement_misses as f64 / total as f64
}

/// The dense-id scan reproduces the hash-set oracle bit for bit, for
/// every capacity and trace, at a scale where every capacity evicts.
#[test]
fn dense_scan_matches_the_hash_set_oracle() {
    let wb = Workbench::paper_scaled(200_000, 3);
    let study = extensions::finite_cache(&wb);
    for (point, &capacity) in study.points.iter().zip(&FINITE_CACHE_CAPACITIES) {
        assert_eq!(point.capacity_blocks, capacity);
        let oracle: Vec<f64> =
            (0..wb.num_traces()).map(|t| oracle_replacement_miss_rate(&wb, t, capacity)).collect();
        for (t, &want) in oracle.iter().enumerate() {
            let cache = FiniteCacheConfig::with_capacity(capacity, 4);
            let total = wb.records(t, TraceFilter::Full).len() as f64;
            let got = wb.replacement_misses(t, cache) as f64 / total;
            assert_eq!(got.to_bits(), want.to_bits(), "capacity {capacity} trace {t}");
        }
        let mean = oracle.iter().sum::<f64>() / oracle.len() as f64;
        assert_eq!(point.replacement_miss_rate.to_bits(), mean.to_bits(), "capacity {capacity}");
    }
    assert!(study.points[0].replacement_miss_rate > 0.0, "the smallest cache must evict");
}

/// footnote 2 is bit-identical between a cold serial workbench and one
/// pool-warmed at two workers.
#[test]
fn footnote2_is_identical_cold_and_pool_warmed() {
    let cold = Workbench::paper_scaled(60_000, 3);
    let warmed = Workbench::paper_scaled(60_000, 3);
    warmed.warm_workload(&extensions::footnote2_workload(), 2);
    assert_eq!(warmed.finite_runs(), 18);
    let (a, b) = (extensions::footnote2(&cold), extensions::footnote2(&warmed));
    assert_eq!(a.points.len(), b.points.len());
    for (p, q) in a.points.iter().zip(&b.points) {
        assert_eq!(p.capacity_blocks, q.capacity_blocks);
        assert_eq!(p.coherence_miss_pct.to_bits(), q.coherence_miss_pct.to_bits());
        assert_eq!(p.total_miss_pct.to_bits(), q.total_miss_pct.to_bits());
        assert_eq!(p.eviction_wb_per_kref.to_bits(), q.eviction_wb_per_kref.to_bits());
    }
    assert_eq!(cold.finite_runs(), 18, "the cold path replays the same 18 finite runs");
}

/// Rendering `all` from a pool-warmed workbench prints the same bytes
/// as rendering it cold, at every worker count.
#[test]
fn all_renders_identically_across_jobs() {
    let cold = render_all(&Workbench::paper_scaled(REFS, SEED));
    for jobs in [1, 2, 3] {
        let wb = Workbench::paper_scaled(REFS, SEED);
        wb.warm_workload(&paper_all_workload(&wb), jobs);
        assert_eq!(render_all(&wb), cold, "jobs {jobs}");
    }
}
