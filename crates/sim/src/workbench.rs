//! The workbench: generates the three synthetic traces and memoizes one
//! simulation run per (protocol, trace, filter) triple — plus the
//! finite-cache replays and scans and the trace statistics the
//! extensions and Table 3 read.
//!
//! Every experiment shares a workbench so that, exactly as in the paper,
//! each protocol's event frequencies are measured once and then re-priced
//! under as many hardware models as needed.
//!
//! The workbench is `Send + Sync`: traces are materialized once into a
//! shared [`TraceStore`] and every memoized result sits behind a per-key
//! [`OnceLock`], so a command's whole [`Workload`] can be run as one job
//! pool with [`Workbench::warm_workload`] while later lookups stay
//! lock-free reads of the same `Arc`s. Results are deterministic: a run's
//! counters depend only on (profile, seed, protocol, filter, cache
//! shape), never on which thread computed them or in what order.
//!
//! # Observability
//!
//! Work lands in a shared [`SpanLog`]: per trace, one `generate`, one
//! `filter` and one `intern` span from its materialization (recorded by
//! the thread that did it; near zero on a workbench over a warm store);
//! per executed run one `replay` span (`finite-replay` for finite-cache
//! runs), per scan one `finite-scan` and per statistics pass one `stats`
//! span. The log is the single timing path: the per-run wall-clock
//! summary ([`Workbench::timings`], [`Workbench::timing_summary`]) and
//! the work counters ([`Workbench::executed_runs`],
//! [`Workbench::finite_runs`], [`Workbench::finite_scans`]) are derived
//! from it, and it exports as Chrome trace-event JSON via `dircc
//! profile`. With [`Workbench::with_window`], each run additionally
//! samples counter deltas every K references into a [`RunSeries`]; the
//! replay itself then uses a [`WindowedRecorder`], but counters stay
//! bit-identical (pinned by tests and the `benchcmp` gate). With
//! [`Workbench::with_shards`], each infinite-cache replay is
//! block-sharded across worker threads and the log gains one
//! `replay-shard` span per shard (shard-id tagged) nested under the
//! run's `replay` span; windowed runs pin shards to 1 (a window is a
//! slice of the global reference stream).
//!
//! Every run replays the store's memoized structure-of-arrays stream (or
//! its memoized sharded partition) through the engine's monomorphized
//! core: [`run_soa`] serially, [`run_sharded`] across shards.

use crate::engine::{run_sharded, run_soa, RunConfig};
use crate::metrics::Evaluation;
use crate::par::par_map_indexed;
use dircc_cache::{FiniteCacheConfig, Lookup, SetAssocCache};
use dircc_core::{EventCounters, ProtocolKind};
use dircc_obs::{NoopRecorder, RunMeta, SpanLog, WindowSample, WindowedRecorder};
use dircc_trace::gen::Profile;
use dircc_trace::soa::SoaStream;
use dircc_trace::stats::TraceStats;
use dircc_trace::store::TraceStore;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

pub use dircc_trace::store::TraceFilter;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct MemoKey {
    kind: ProtocolKind,
    trace: usize,
    filter: TraceFilter,
    /// Finite tag-store shape (`None` = infinite caches, the paper's model).
    cache: Option<FiniteCacheConfig>,
}

/// A mutex-guarded map of memo cells: the cell is cloned out under the
/// lock and initialized outside it, so builders never serialize.
type MemoMap<K, V> = Mutex<HashMap<K, Arc<OnceLock<V>>>>;

/// The memo cell for `key`, created empty on first request.
fn memo_cell<K: Hash + Eq, V>(map: &MemoMap<K, V>, key: K) -> Arc<OnceLock<V>> {
    Arc::clone(map.lock().expect("memo poisoned").entry(key).or_default())
}

/// What one trace has been brought up to on this workbench: generated,
/// and split for which filters. The mutex also serializes a trace's
/// materialization, so its phase spans are recorded exactly once, by the
/// thread that did the work.
#[derive(Debug, Default)]
struct Materialized {
    generated: bool,
    filters: Vec<TraceFilter>,
}

/// Everything a command reads from the workbench memo, warmed in one job
/// pool by [`Workbench::warm_workload`]. Each entry applies to every
/// trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Workload {
    /// Infinite-cache runs (the paper's model).
    pub runs: Vec<(ProtocolKind, TraceFilter)>,
    /// Finite-cache replays of the full traces
    /// ([`Workbench::finite_counters`]).
    pub finite_runs: Vec<(ProtocolKind, FiniteCacheConfig)>,
    /// Replacement-miss scans of the full traces
    /// ([`Workbench::replacement_misses`]).
    pub scans: Vec<FiniteCacheConfig>,
    /// Whether the per-trace reference statistics
    /// ([`Workbench::trace_stats`]) are needed.
    pub stats: bool,
}

impl Workload {
    /// A workload of infinite-cache runs only.
    pub fn runs(runs: &[(ProtocolKind, TraceFilter)]) -> Self {
        Workload { runs: runs.to_vec(), ..Workload::default() }
    }

    /// This workload plus everything in `other`.
    #[must_use]
    pub fn merge(mut self, other: Workload) -> Self {
        self.runs.extend(other.runs);
        self.finite_runs.extend(other.finite_runs);
        self.scans.extend(other.scans);
        self.stats |= other.stats;
        self
    }
}

/// One unit of work of the warm-up pool.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Task {
    /// Generate → filter → intern/SoA for one trace.
    Materialize { trace: usize, filters: Vec<TraceFilter> },
    /// One memoized replay, infinite or finite.
    Run(MemoKey),
    /// One memoized replacement-miss scan.
    Scan { trace: usize, cache: FiniteCacheConfig },
    /// One trace's memoized reference statistics.
    Stats { trace: usize },
}

/// The stable label a [`TraceFilter`] carries in reports, span metadata
/// and JSONL output.
pub fn filter_label(filter: TraceFilter) -> &'static str {
    match filter {
        TraceFilter::Full => "full",
        TraceFilter::ExcludeLockSpins => "no-spins",
    }
}

/// Inverse of [`filter_label`].
pub fn filter_from_label(label: &str) -> Option<TraceFilter> {
    TraceFilter::ALL.into_iter().find(|f| filter_label(*f) == label)
}

/// Wall-clock record of one actually-executed simulation run, derived
/// from its `replay` span.
#[derive(Debug, Clone)]
pub struct RunTiming {
    /// Protocol display name.
    pub scheme: String,
    /// Trace name (e.g. `POPS`).
    pub trace: String,
    /// Filter the run used.
    pub filter: TraceFilter,
    /// References replayed.
    pub refs: u64,
    /// Wall-clock duration of the replay.
    pub wall: Duration,
}

/// The windowed time series of one actually-executed run.
#[derive(Debug, Clone)]
pub struct RunSeries {
    /// Taxonomy point of the run.
    pub kind: ProtocolKind,
    /// Protocol display name.
    pub scheme: String,
    /// Trace index.
    pub trace: usize,
    /// Trace name.
    pub trace_name: String,
    /// Filter the run used.
    pub filter: TraceFilter,
    /// Total references replayed.
    pub refs: u64,
    /// Counter deltas per window; they partition the run, so merging
    /// them reconstructs the run's final [`EventCounters`] exactly.
    pub windows: Vec<WindowSample>,
}

impl RunTiming {
    /// Replay throughput in references per second.
    ///
    /// Returns `0.0` when the measured wall time is zero (a sub-tick
    /// replay) — never `inf`/`NaN`, so the value is always representable
    /// in JSON bench reports.
    pub fn refs_per_sec(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.refs as f64 / self.wall.as_secs_f64()
    }
}

/// Shared experiment state: profiles, the generate-once trace store, and
/// memoized runs.
#[derive(Debug)]
pub struct Workbench {
    store: Arc<TraceStore>,
    materialized: Vec<Mutex<Materialized>>,
    memo: MemoMap<MemoKey, Arc<EventCounters>>,
    scan_memo: MemoMap<(usize, FiniteCacheConfig), u64>,
    stats_memo: MemoMap<usize, Arc<TraceStats>>,
    spans: SpanLog,
    window: Option<u64>,
    shards: usize,
    series: Mutex<Vec<RunSeries>>,
}

impl Workbench {
    /// Creates the paper's workbench: POPS, THOR and PERO profiles at their
    /// full scale (~3.2-3.5M references each).
    pub fn paper(seed: u64) -> Self {
        Self::with_profiles(Profile::paper_suite(), seed)
    }

    /// Creates the paper's workbench with every trace truncated to
    /// `total_refs` references (for fast tests and smoke runs).
    pub fn paper_scaled(total_refs: u64, seed: u64) -> Self {
        let profiles =
            Profile::paper_suite().into_iter().map(|p| p.with_total_refs(total_refs)).collect();
        Self::with_profiles(profiles, seed)
    }

    /// Creates a workbench over arbitrary profiles.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty or the profiles disagree on CPU count.
    pub fn with_profiles(profiles: Vec<Profile>, seed: u64) -> Self {
        assert!(!profiles.is_empty(), "need at least one trace profile");
        assert!(
            profiles.windows(2).all(|w| w[0].cpus == w[1].cpus),
            "profiles must agree on CPU count"
        );
        Self::with_store(Arc::new(TraceStore::new(profiles, seed)))
    }

    /// Creates a workbench over an already-built (possibly shared)
    /// [`TraceStore`]. Repeated bench runs hand each fresh workbench the
    /// same store, so trace generation, interning and SoA splits are paid
    /// once while the run memo — and thus the measured replay — starts
    /// cold every repeat.
    pub fn with_store(store: Arc<TraceStore>) -> Self {
        assert!(store.num_traces() > 0, "need at least one trace profile");
        Workbench {
            materialized: (0..store.num_traces()).map(|_| Mutex::default()).collect(),
            store,
            memo: Mutex::new(HashMap::new()),
            scan_memo: Mutex::new(HashMap::new()),
            stats_memo: Mutex::new(HashMap::new()),
            spans: SpanLog::new(),
            window: None,
            shards: 1,
            series: Mutex::new(Vec::new()),
        }
    }

    /// Enables windowed time-series recording: every subsequently executed
    /// run samples its counter delta each `window` references (plus a
    /// partial tail window) into a [`RunSeries`].
    ///
    /// Counters are unaffected — the windowed replay is bit-identical to
    /// the plain one.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn with_window(mut self, window: u64) -> Self {
        assert!(window > 0, "window size must be at least 1 reference");
        self.window = Some(window);
        self
    }

    /// Splits every subsequently executed replay into `shards` block
    /// shards replayed on worker threads ([`run_sharded`]),
    /// with per-shard `replay-shard` spans in the log. Counters are
    /// **bit-identical** to the unsharded replay (pinned by tests); only
    /// wall-clock changes.
    ///
    /// Windowed recording ([`Self::with_window`]) pins the replay to one
    /// shard: a window is a contiguous slice of the *global* reference
    /// stream, which a per-shard replay cannot observe, so windowed runs
    /// stay on the serial path regardless of this setting.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        self.shards = shards;
        self
    }

    /// The shard count replays use (1 = serial replay).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of caches (= CPUs) in the simulated machine.
    pub fn n_caches(&self) -> usize {
        usize::from(self.store.profiles()[0].cpus)
    }

    /// Trace names in order (e.g. `POPS`, `THOR`, `PERO`).
    pub fn trace_names(&self) -> Vec<String> {
        self.store.profiles().iter().map(|p| p.name.to_string()).collect()
    }

    /// Number of traces.
    pub fn num_traces(&self) -> usize {
        self.store.num_traces()
    }

    /// The trace profiles.
    pub fn profiles(&self) -> &[Profile] {
        self.store.profiles()
    }

    /// The shared trace store (generate-once record streams).
    pub fn store(&self) -> &TraceStore {
        &self.store
    }

    /// The materialized record stream of one (trace, filter) pair.
    ///
    /// # Panics
    ///
    /// Panics if `trace` is out of range.
    pub fn records(&self, trace: usize, filter: TraceFilter) -> Arc<[dircc_trace::TraceRecord]> {
        self.store.records(trace, filter)
    }

    /// Span metadata for one phase of work on `trace`; `scheme` is empty
    /// for per-trace phases that serve every run.
    fn meta(&self, scheme: &str, trace: usize, filter: &str, refs: u64) -> Option<RunMeta> {
        Some(RunMeta {
            scheme: scheme.to_string(),
            trace: self.store.profiles()[trace].name.to_string(),
            filter: filter.to_string(),
            refs,
            shard: None,
            request: None,
        })
    }

    /// Whether infinite-cache replays are block-sharded.
    fn sharding(&self) -> bool {
        self.shards > 1 && self.window.is_none()
    }

    /// Brings one trace up for `filters`: generate → filter → intern/SoA
    /// (sharded too when replays shard), one span per phase, recorded
    /// once per workbench by the thread that did the work. The store does
    /// each piece of work once per process, so on a workbench over an
    /// already-warm store the spans are near zero. Runs, scans and stats
    /// call this first; the warm-up pool runs it as a task of its own per
    /// trace, ahead of the trace's other work.
    fn materialize(&self, trace: usize, filters: &[TraceFilter]) {
        let mut done = self.materialized[trace].lock().expect("materialization poisoned");
        let missing: Vec<TraceFilter> =
            filters.iter().copied().filter(|f| !done.filters.contains(f)).collect();
        if done.generated && missing.is_empty() {
            return;
        }
        let timer = self.spans.start();
        let full = self.store.records(trace, TraceFilter::Full);
        let meta = self.meta("", trace, filter_label(TraceFilter::Full), full.len() as u64);
        self.spans.finish(timer, "generate", meta);
        done.generated = true;
        if missing.is_empty() {
            return;
        }
        let labels: Vec<&str> = missing.iter().map(|&f| filter_label(f)).collect();
        let labels = labels.join("+");
        let timer = self.spans.start();
        let refs: u64 = missing.iter().map(|&f| self.store.records(trace, f).len() as u64).sum();
        self.spans.finish(timer, "filter", self.meta("", trace, &labels, refs));
        let cfg = RunConfig::default().with_process_sharing();
        self.spans.time("intern", self.meta("", trace, &labels, refs), || {
            for &f in &missing {
                if self.sharding() {
                    let _ =
                        self.store.sharded_soa(trace, f, cfg.geometry, self.shards, cfg.sharing);
                } else {
                    let _ = self.store.soa(trace, f, cfg.geometry, cfg.sharing);
                }
            }
        });
        done.filters.extend(missing);
    }

    /// Reference-stream statistics of one trace (memoized).
    ///
    /// # Panics
    ///
    /// Panics if `trace` is out of range.
    pub fn trace_stats(&self, trace: usize) -> Arc<TraceStats> {
        memo_cell(&self.stats_memo, trace)
            .get_or_init(|| {
                self.materialize(trace, &[]);
                let records = self.store.records(trace, TraceFilter::Full);
                let meta =
                    self.meta("", trace, filter_label(TraceFilter::Full), records.len() as u64);
                self.spans.time("stats", meta, || Arc::new(records.iter().collect::<TraceStats>()))
            })
            .clone()
    }

    /// Event frequencies for one protocol on one trace (memoized; this is
    /// the paper's "one simulation run per protocol").
    ///
    /// Thread-safe and exactly-once per key: concurrent callers of the same
    /// (protocol, trace, filter) triple block on one [`OnceLock`] while a
    /// single replay runs.
    ///
    /// # Panics
    ///
    /// Panics if `trace` is out of range or the replay itself fails (a
    /// protocol invariant bug — not an expected runtime condition).
    pub fn counters(
        &self,
        kind: ProtocolKind,
        trace: usize,
        filter: TraceFilter,
    ) -> Arc<EventCounters> {
        self.memoized(MemoKey { kind, trace, filter, cache: None })
    }

    /// Event frequencies for one protocol on one full trace replayed
    /// through finite per-cache tag stores of shape `cache` (memoized
    /// like [`counters`](Self::counters); the §4 / footnote-2 finite-cache
    /// extension). Finite runs replay serially, are not windowed, and
    /// count in [`finite_runs`](Self::finite_runs), never in
    /// [`executed_runs`](Self::executed_runs).
    ///
    /// # Panics
    ///
    /// Panics if `trace` is out of range or the replay fails.
    pub fn finite_counters(
        &self,
        kind: ProtocolKind,
        trace: usize,
        cache: FiniteCacheConfig,
    ) -> Arc<EventCounters> {
        self.memoized(MemoKey { kind, trace, filter: TraceFilter::Full, cache: Some(cache) })
    }

    fn memoized(&self, key: MemoKey) -> Arc<EventCounters> {
        memo_cell(&self.memo, key).get_or_init(|| Arc::new(self.replay(key))).clone()
    }

    /// Executes one memo miss: the replay behind [`counters`](Self::counters)
    /// or [`finite_counters`](Self::finite_counters).
    fn replay(&self, key: MemoKey) -> EventCounters {
        let MemoKey { kind, trace, filter, cache } = key;
        // The paper classifies sharing per process ("a block is
        // considered shared only if it is accessed by more than one
        // process"), which excludes migration-induced sharing from the
        // study.
        let infinite = RunConfig::default().with_process_sharing();
        let scheme = kind.display_name(self.n_caches());
        let trace_name = self.store.profiles()[trace].name.to_string();
        let meta = |refs: u64| self.meta(&scheme, trace, filter_label(filter), refs);
        self.materialize(trace, &[filter]);
        let records = self.store.records(trace, filter);
        let n = self.n_caches();
        if let Some(cache) = cache {
            let cfg = infinite.with_finite_caches(cache);
            let soa = self.store.soa(trace, filter, cfg.geometry, cfg.sharing);
            let timer = self.spans.start();
            let result = run_soa(kind, n, &records, &soa, &cfg, &mut NoopRecorder)
                .expect("finite-cache replay failed");
            self.spans.finish(timer, "finite-replay", meta(result.refs));
            return result.counters;
        }
        let cfg = infinite;
        // The trace is materialized, so the store lookups below are
        // memo hits and the replay span measures replay work only.
        let timer;
        let result = if self.sharding() {
            let sharded =
                self.store.sharded_soa(trace, filter, cfg.geometry, self.shards, cfg.sharing);
            timer = self.spans.start();
            let observe = |shard: usize, at: std::time::Instant, dur: Duration, refs| {
                self.spans.record_at(
                    "replay-shard",
                    at,
                    dur,
                    meta(refs).map(|m| RunMeta { shard: Some(shard), ..m }),
                );
            };
            run_sharded(kind, n, &records, &sharded, &cfg, observe)
        } else {
            let soa = self.store.soa(trace, filter, cfg.geometry, cfg.sharing);
            timer = self.spans.start();
            match self.window {
                None => run_soa(kind, n, &records, &soa, &cfg, &mut NoopRecorder),
                Some(window) => {
                    let mut recorder = WindowedRecorder::new(window);
                    let result = run_soa(kind, n, &records, &soa, &cfg, &mut recorder);
                    if let Ok(res) = &result {
                        self.series.lock().expect("series poisoned").push(RunSeries {
                            kind,
                            scheme: scheme.clone(),
                            trace,
                            trace_name,
                            filter,
                            refs: res.refs,
                            windows: recorder.into_samples(),
                        });
                    }
                    result
                }
            }
        }
        .expect("trace replay failed");
        self.spans.finish(timer, "replay", meta(result.refs));
        result.counters
    }

    /// Replacement misses of one full trace through finite per-cache tag
    /// stores of shape `cache` (memoized): misses an infinite cache would
    /// not have had, because the missing process had brought the block in
    /// before. References go to cache `pid % n_caches`. The tag stores
    /// are keyed on the original block address (so set selection follows
    /// the address), while "seen before" is a per-process bitset over the
    /// trace's dense block ids. Scans count in
    /// [`finite_scans`](Self::finite_scans).
    ///
    /// # Panics
    ///
    /// Panics if `trace` is out of range.
    pub fn replacement_misses(&self, trace: usize, cache: FiniteCacheConfig) -> u64 {
        *memo_cell(&self.scan_memo, (trace, cache)).get_or_init(|| {
            self.materialize(trace, &[TraceFilter::Full]);
            let cfg = RunConfig::default().with_process_sharing();
            let records = self.store.records(trace, TraceFilter::Full);
            let soa = self.store.soa(trace, TraceFilter::Full, cfg.geometry, cfg.sharing);
            let meta = self.meta("", trace, filter_label(TraceFilter::Full), records.len() as u64);
            self.spans.time("finite-scan", meta, || {
                scan_replacement_misses(&records, &soa, self.n_caches(), cache, cfg.geometry)
            })
        })
    }

    /// The shared span log — every phase of every executed run.
    pub fn span_log(&self) -> &SpanLog {
        &self.spans
    }

    /// Snapshot of the windowed time series collected so far (empty unless
    /// the workbench was built [`with_window`](Self::with_window)), in
    /// completion order.
    pub fn time_series(&self) -> Vec<RunSeries> {
        self.series.lock().expect("series poisoned").clone()
    }

    /// An [`Evaluation`] for one protocol on one trace.
    pub fn evaluation(&self, kind: ProtocolKind, trace: usize, filter: TraceFilter) -> Evaluation {
        let counters = self.counters(kind, trace, filter);
        Evaluation::new(
            kind.display_name(self.n_caches()),
            kind,
            self.n_caches(),
            (*counters).clone(),
        )
    }

    /// Evaluations of one protocol across every trace (paper order).
    pub fn evaluations(&self, kind: ProtocolKind, filter: TraceFilter) -> Vec<Evaluation> {
        (0..self.num_traces()).map(|t| self.evaluation(kind, t, filter)).collect()
    }

    /// Merged counters of one protocol across all traces (for quantities
    /// like Figure 1's histogram that the paper aggregates).
    pub fn merged_counters(&self, kind: ProtocolKind, filter: TraceFilter) -> EventCounters {
        let mut merged = EventCounters::new();
        for t in 0..self.num_traces() {
            merged.merge(&self.counters(kind, t, filter));
        }
        merged
    }

    /// The four schemes of the paper's main evaluation.
    pub fn paper_kinds(&self) -> [ProtocolKind; 4] {
        [
            ProtocolKind::DirNb { pointers: 1 },
            ProtocolKind::Wti,
            ProtocolKind::Dir0B,
            ProtocolKind::Dragon,
        ]
    }

    /// Every infinite-cache (protocol, filter) pair the full paper
    /// pipeline (`dircc all`) measures, in paper order — the runs of
    /// [`crate::experiments::paper_all_workload`].
    pub fn paper_workload(&self) -> Vec<(ProtocolKind, TraceFilter)> {
        let n = self.n_caches() as u32;
        let mut work: Vec<(ProtocolKind, TraceFilter)> = Vec::new();
        // Tables 4-5, Figures 1-5, §5 system study: the four headline
        // schemes on the full traces.
        for kind in self.paper_kinds() {
            work.push((kind, TraceFilter::Full));
        }
        // §5.2 spin-lock exclusion: Dir1NB and Dir0B on the filtered trace.
        work.push((ProtocolKind::DirNb { pointers: 1 }, TraceFilter::ExcludeLockSpins));
        work.push((ProtocolKind::Dir0B, TraceFilter::ExcludeLockSpins));
        // §5 Berkeley aside.
        work.push((ProtocolKind::Berkeley, TraceFilter::Full));
        // §6 scalability: the DiriNB / DiriB sweeps and the coded set.
        for i in 1..=n {
            work.push((ProtocolKind::DirNb { pointers: i }, TraceFilter::Full));
        }
        for i in 1..n {
            work.push((ProtocolKind::DirB { pointers: i }, TraceFilter::Full));
        }
        work.push((ProtocolKind::CodedSet, TraceFilter::Full));
        let mut seen = std::collections::HashSet::new();
        work.retain(|w| seen.insert(*w));
        work
    }

    /// Fans the (protocol × trace × filter) counter matrix out over
    /// `jobs` worker threads, filling the memo so later experiment code
    /// hits warm caches only — [`warm_workload`](Self::warm_workload)
    /// over infinite-cache runs alone.
    ///
    /// Deterministic: counters depend only on (profile, seed, protocol,
    /// filter), so `jobs = 1` and `jobs = 8` produce bit-identical
    /// [`EventCounters`]; only wall-clock changes. Output order is
    /// unaffected because experiments print from the memo afterwards.
    ///
    /// Returns the number of runs actually executed (cache misses).
    pub fn warm(&self, kinds: &[(ProtocolKind, TraceFilter)], jobs: usize) -> usize {
        self.warm_workload(&Workload::runs(kinds), jobs)
    }

    /// Runs every piece of work `workload` names in one job pool of
    /// `jobs` workers, filling the memos the experiments then read.
    ///
    /// The task list, in pool order: one materialization per trace
    /// (generate → filter → intern/SoA), then the heaviest items first —
    /// finite-cache replays, replacement-miss scans, trace statistics,
    /// infinite-cache runs — each tier trace by trace, so a worker rarely
    /// picks an item whose trace is still being materialized. Results do
    /// not depend on `jobs` or on the schedule.
    ///
    /// Returns the number of infinite-cache runs actually executed (as
    /// [`warm`](Self::warm) does); finite work is counted by
    /// [`finite_runs`](Self::finite_runs) and
    /// [`finite_scans`](Self::finite_scans).
    pub fn warm_workload(&self, workload: &Workload, jobs: usize) -> usize {
        let tasks = self.plan(workload);
        let before = self.executed_runs();
        par_map_indexed(tasks.len(), jobs, |i| self.execute(&tasks[i]));
        self.executed_runs() - before
    }

    /// The deduplicated task list of `workload`, in pool order.
    fn plan(&self, workload: &Workload) -> Vec<Task> {
        if *workload == Workload::default() {
            return Vec::new();
        }
        let finite_work = !workload.finite_runs.is_empty() || !workload.scans.is_empty();
        let filters: Vec<TraceFilter> = TraceFilter::ALL
            .into_iter()
            .filter(|&f| {
                (f == TraceFilter::Full && finite_work)
                    || workload.runs.iter().any(|&(_, rf)| rf == f)
            })
            .collect();
        let traces = 0..self.num_traces();
        let mut tasks: Vec<Task> = traces
            .clone()
            .map(|trace| Task::Materialize { trace, filters: filters.clone() })
            .collect();
        for trace in traces.clone() {
            tasks.extend(workload.finite_runs.iter().map(|&(kind, cache)| {
                Task::Run(MemoKey { kind, trace, filter: TraceFilter::Full, cache: Some(cache) })
            }));
        }
        for trace in traces.clone() {
            tasks.extend(workload.scans.iter().map(|&cache| Task::Scan { trace, cache }));
            if workload.stats {
                tasks.push(Task::Stats { trace });
            }
        }
        for trace in traces {
            tasks.extend(
                workload
                    .runs
                    .iter()
                    .map(|&(kind, filter)| Task::Run(MemoKey { kind, trace, filter, cache: None })),
            );
        }
        let mut seen = HashSet::new();
        tasks.retain(|t| seen.insert(t.clone()));
        tasks
    }

    fn execute(&self, task: &Task) {
        match *task {
            Task::Materialize { trace, ref filters } => self.materialize(trace, filters),
            Task::Run(key) => {
                let _ = self.memoized(key);
            }
            Task::Scan { trace, cache } => {
                let _ = self.replacement_misses(trace, cache);
            }
            Task::Stats { trace } => {
                let _ = self.trace_stats(trace);
            }
        }
    }

    /// Number of simulation runs actually executed so far (memo misses).
    /// Finite-cache replays are not included; see
    /// [`finite_runs`](Self::finite_runs).
    pub fn executed_runs(&self) -> usize {
        self.count_spans("replay")
    }

    /// Number of finite-cache replays actually executed so far.
    pub fn finite_runs(&self) -> usize {
        self.count_spans("finite-replay")
    }

    /// Number of replacement-miss scans actually executed so far.
    pub fn finite_scans(&self) -> usize {
        self.count_spans("finite-scan")
    }

    fn count_spans(&self, name: &str) -> usize {
        self.spans.spans().iter().filter(|s| s.name == name).count()
    }

    /// Snapshot of per-run wall-clock timings, in completion order,
    /// derived from the span log's `replay` spans.
    pub fn timings(&self) -> Vec<RunTiming> {
        self.spans
            .spans()
            .into_iter()
            .filter(|s| s.name == "replay")
            .filter_map(|s| {
                let meta = s.meta?;
                Some(RunTiming {
                    scheme: meta.scheme,
                    trace: meta.trace,
                    filter: filter_from_label(&meta.filter)?,
                    refs: meta.refs,
                    wall: s.dur,
                })
            })
            .collect()
    }

    /// Renders the end-of-run observability table: one line per executed
    /// simulation run (scheme, trace, filter, refs, wall, refs/sec) plus a
    /// totals row. Empty string if nothing ran.
    pub fn timing_summary(&self) -> String {
        let timings = self.timings();
        if timings.is_empty() {
            return String::new();
        }
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "run timings ({} simulation runs):", timings.len());
        let _ = writeln!(
            out,
            "  {:<10} {:<6} {:<9} {:>10} {:>10} {:>12}",
            "scheme", "trace", "filter", "refs", "wall ms", "refs/sec"
        );
        let mut total_refs = 0u64;
        let mut total_wall = Duration::ZERO;
        for t in &timings {
            let filter = filter_label(t.filter);
            let _ = writeln!(
                out,
                "  {:<10} {:<6} {:<9} {:>10} {:>10.1} {:>12.0}",
                t.scheme,
                t.trace,
                filter,
                t.refs,
                t.wall.as_secs_f64() * 1e3,
                t.refs_per_sec()
            );
            total_refs += t.refs;
            total_wall += t.wall;
        }
        let _ = writeln!(
            out,
            "  {:<10} {:<6} {:<9} {:>10} {:>10.1} {:>12}",
            "total",
            "",
            "",
            total_refs,
            total_wall.as_secs_f64() * 1e3,
            "(cpu time)"
        );
        out
    }
}

/// The replacement-miss count behind [`Workbench::replacement_misses`]:
/// one LRU tag store of shape `cache` per cache, indexed `pid % n_caches`
/// and keyed on the original block address; a miss by a process that had
/// missed on the block before is a replacement miss, tracked per process
/// over `soa`'s dense block ids (`soa` is `records`' split).
fn scan_replacement_misses(
    records: &[dircc_trace::TraceRecord],
    soa: &SoaStream,
    n_caches: usize,
    cache: FiniteCacheConfig,
    geometry: dircc_types::BlockGeometry,
) -> u64 {
    let mut caches: Vec<SetAssocCache<()>> =
        (0..n_caches).map(|_| SetAssocCache::new(cache)).collect();
    let words = soa.num_blocks.div_ceil(64);
    let mut seen: Vec<Vec<u64>> = Vec::new();
    let mut misses = 0u64;
    for (r, &id) in records.iter().zip(&soa.block_id) {
        if !r.is_data() {
            continue;
        }
        let pid = usize::from(r.pid.raw());
        let block = geometry.block_of(r.addr);
        if let Lookup::Inserted { .. } = caches[pid % n_caches].lookup_or_insert(block, ()) {
            if pid >= seen.len() {
                seen.resize_with(pid + 1, || vec![0u64; words]);
            }
            let (word, bit) = (id as usize / 64, 1u64 << (id % 64));
            if seen[pid][word] & bit != 0 {
                misses += 1;
            }
            seen[pid][word] |= bit;
        }
    }
    misses
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Workbench {
        Workbench::paper_scaled(20_000, 7)
    }

    #[test]
    fn paper_workbench_has_three_traces() {
        let wb = small();
        assert_eq!(wb.trace_names(), vec!["POPS", "THOR", "PERO"]);
        assert_eq!(wb.n_caches(), 4);
        assert_eq!(wb.num_traces(), 3);
    }

    #[test]
    fn workbench_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Workbench>();
    }

    #[test]
    fn memoization_returns_same_counters() {
        let wb = small();
        let a = wb.counters(ProtocolKind::Dir0B, 0, TraceFilter::Full);
        let b = wb.counters(ProtocolKind::Dir0B, 0, TraceFilter::Full);
        assert!(Arc::ptr_eq(&a, &b), "second call must hit the memo");
        assert_eq!(wb.timings().len(), 1, "one run executed, one timing");
    }

    #[test]
    fn filtered_runs_differ_from_full_runs() {
        let wb = small();
        let full = wb.counters(ProtocolKind::DirNb { pointers: 1 }, 0, TraceFilter::Full);
        let filt =
            wb.counters(ProtocolKind::DirNb { pointers: 1 }, 0, TraceFilter::ExcludeLockSpins);
        assert!(filt.total() < full.total(), "lock spins removed");
        assert!(filt.rm() < full.rm(), "Dir1NB loses its lock ping-pong misses");
    }

    #[test]
    fn evaluation_names_follow_paper() {
        let wb = small();
        let e = wb.evaluation(ProtocolKind::DirNb { pointers: 4 }, 0, TraceFilter::Full);
        assert_eq!(e.name, "DirnNB");
    }

    #[test]
    fn merged_counters_sum_traces() {
        let wb = small();
        let merged = wb.merged_counters(ProtocolKind::Wti, TraceFilter::Full);
        assert_eq!(merged.total(), 60_000);
    }

    #[test]
    fn trace_stats_are_memoized_and_sized() {
        let wb = small();
        let s1 = wb.trace_stats(1);
        let s2 = wb.trace_stats(1);
        assert!(Arc::ptr_eq(&s1, &s2));
        assert_eq!(s1.total(), 20_000);
    }

    #[test]
    fn warm_parallel_matches_sequential_bit_for_bit() {
        let work = [
            (ProtocolKind::Dir0B, TraceFilter::Full),
            (ProtocolKind::Wti, TraceFilter::Full),
            (ProtocolKind::DirNb { pointers: 1 }, TraceFilter::ExcludeLockSpins),
            (ProtocolKind::Dragon, TraceFilter::Full),
        ];
        let seq = Workbench::paper_scaled(8_000, 11);
        let par = Workbench::paper_scaled(8_000, 11);
        assert_eq!(seq.warm(&work, 1), par.warm(&work, 8), "same cache-miss count");
        for &(kind, filter) in &work {
            for t in 0..seq.num_traces() {
                assert_eq!(
                    *seq.counters(kind, t, filter),
                    *par.counters(kind, t, filter),
                    "{kind} trace {t} {filter:?} diverged across jobs"
                );
            }
        }
    }

    #[test]
    fn warm_generates_each_trace_once() {
        let wb = small();
        let executed = wb.warm(&wb.paper_workload(), 8);
        assert!(executed > 0);
        assert_eq!(wb.store().generations(), wb.num_traces() as u64);
        // Warming again is a no-op: everything is memoized.
        assert_eq!(wb.warm(&wb.paper_workload(), 8), 0);
        assert_eq!(wb.store().generations(), wb.num_traces() as u64);
    }

    #[test]
    fn timing_summary_mentions_every_run() {
        let wb = small();
        let _ = wb.counters(ProtocolKind::Dir0B, 0, TraceFilter::Full);
        let s = wb.timing_summary();
        assert!(s.contains("Dir0B"));
        assert!(s.contains("POPS"));
        assert!(s.contains("refs/sec"));
    }

    #[test]
    #[should_panic(expected = "at least one trace")]
    fn empty_profiles_rejected() {
        let _ = Workbench::with_profiles(vec![], 0);
    }

    #[test]
    fn filter_labels_round_trip() {
        for f in TraceFilter::ALL {
            assert_eq!(filter_from_label(filter_label(f)), Some(f));
        }
        assert_eq!(filter_from_label("bogus"), None);
    }

    #[test]
    fn every_executed_run_records_all_four_phases() {
        let wb = small();
        let _ = wb.counters(ProtocolKind::Wti, 2, TraceFilter::Full);
        let spans = wb.span_log().spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["generate", "filter", "intern", "replay"]);
        let replay = spans.last().unwrap();
        let meta = replay.meta.as_ref().unwrap();
        assert_eq!(meta.scheme, "WTI");
        assert_eq!(meta.trace, "PERO");
        assert_eq!(meta.filter, "full");
        assert_eq!(meta.refs, 20_000);
    }

    #[test]
    fn windowed_workbench_is_bit_identical_and_series_sums() {
        let work = [
            (ProtocolKind::Dir0B, TraceFilter::Full),
            (ProtocolKind::DirNb { pointers: 1 }, TraceFilter::ExcludeLockSpins),
        ];
        let plain = Workbench::paper_scaled(9_000, 3);
        let windowed = Workbench::paper_scaled(9_000, 3).with_window(1_000);
        plain.warm(&work, 2);
        windowed.warm(&work, 2);
        let series = windowed.time_series();
        assert_eq!(series.len(), 2 * plain.num_traces());
        for &(kind, filter) in &work {
            for t in 0..plain.num_traces() {
                let a = plain.counters(kind, t, filter);
                let b = windowed.counters(kind, t, filter);
                assert_eq!(*a, *b, "windowed replay must not perturb counters");
                let s = series
                    .iter()
                    .find(|s| s.kind == kind && s.trace == t && s.filter == filter)
                    .expect("every run leaves a series");
                let mut sum = EventCounters::new();
                for w in &s.windows {
                    sum.merge(&w.counters);
                }
                assert_eq!(sum, *b, "window deltas must reconstruct the final counters");
                assert_eq!(s.windows.iter().map(|w| w.refs()).sum::<u64>(), s.refs);
            }
        }
    }

    #[test]
    fn plain_workbench_collects_no_series() {
        let wb = small();
        let _ = wb.counters(ProtocolKind::Dir0B, 0, TraceFilter::Full);
        assert!(wb.time_series().is_empty());
    }

    #[test]
    fn sharded_workbench_is_bit_identical_and_logs_per_shard_spans() {
        let work = [
            (ProtocolKind::Dir0B, TraceFilter::Full),
            (ProtocolKind::Dragon, TraceFilter::ExcludeLockSpins),
        ];
        let serial = Workbench::paper_scaled(9_000, 3);
        let sharded = Workbench::paper_scaled(9_000, 3).with_shards(4);
        assert_eq!(sharded.shards(), 4);
        serial.warm(&work, 1);
        sharded.warm(&work, 1);
        for &(kind, filter) in &work {
            for t in 0..serial.num_traces() {
                assert_eq!(
                    *serial.counters(kind, t, filter),
                    *sharded.counters(kind, t, filter),
                    "{kind} trace {t} {filter:?} diverged under sharding"
                );
            }
        }
        let spans = sharded.span_log().spans();
        let per_shard: Vec<_> = spans.iter().filter(|s| s.name == "replay-shard").collect();
        let replays = spans.iter().filter(|s| s.name == "replay").count();
        assert_eq!(per_shard.len(), replays * 4, "four shard spans per run");
        for s in &per_shard {
            let m = s.meta.as_ref().unwrap();
            assert!(m.shard.is_some(), "shard spans carry their shard id");
        }
        // Shard ids 0..4 all appear; shard refs sum to each run's total.
        let ids: std::collections::HashSet<usize> =
            per_shard.iter().map(|s| s.meta.as_ref().unwrap().shard.unwrap()).collect();
        assert_eq!(ids, (0..4).collect());
        // Timings (and hence bench reports) still come from the outer
        // replay span, one per run.
        assert_eq!(sharded.timings().len(), serial.timings().len());
    }

    #[test]
    fn windowed_workbench_pins_shards_to_one() {
        let wb = Workbench::paper_scaled(4_000, 5).with_shards(8).with_window(1_000);
        let _ = wb.counters(ProtocolKind::Dir0B, 0, TraceFilter::Full);
        let spans = wb.span_log().spans();
        assert!(spans.iter().all(|s| s.name != "replay-shard"), "windowed runs stay serial");
        assert_eq!(wb.time_series().len(), 1, "the windowed series is still collected");
    }

    #[test]
    fn refs_per_sec_is_finite_even_for_zero_wall() {
        let t = RunTiming {
            scheme: "Dir0B".into(),
            trace: "POPS".into(),
            filter: TraceFilter::Full,
            refs: 1_000,
            wall: Duration::ZERO,
        };
        assert_eq!(t.refs_per_sec(), 0.0, "zero wall must not produce inf");
        assert!(t.refs_per_sec().is_finite());
        let t = RunTiming { wall: Duration::from_millis(500), ..t };
        assert_eq!(t.refs_per_sec(), 2_000.0);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = Workbench::paper_scaled(1_000, 1).with_shards(0);
    }
}
