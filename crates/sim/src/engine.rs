//! The trace-replay engine.
//!
//! "The simulator reads a reference from a trace and takes a set of actions
//! depending on the type of the reference, the state of the referenced
//! block, and the given cache consistency protocol." (§4.1)
//!
//! The engine:
//!
//! * maps each reference to a cache (per *processor*, or per *process* —
//!   the paper's preferred sharing model, §4.4);
//! * tracks global first references so every protocol sees the identical
//!   first-reference classification;
//! * feeds data references to the protocol and accumulates
//!   [`EventCounters`];
//! * optionally verifies **value-level coherence**: every read must observe
//!   the globally latest write, stale copies must never survive a write in
//!   an invalidation protocol, and data must never be supplied from stale
//!   memory.
//!
//! # One core, five adapters
//!
//! Every replay runs through one core, generic over the protocol type. It
//! consumes structure-of-arrays batches — flat `kind` / `cache_idx` /
//! `block_id` / `first_ref` arrays, i.e. a [`SoaStream`] or a slice of
//! one — and carries its state (counters, verifier, finite tag stores,
//! reference count) from batch to batch. It has exactly two loop bodies:
//!
//! * the **quiet** loop, taken when every cold path is provably dead (no
//!   verifier, infinite caches, no invariant cadence, a no-op
//!   [`Recorder`], and the batch's `max_cache_idx` below the cache
//!   count): one `access` and one counter update per reference;
//! * the **instrumented** loop otherwise: bounds check, verifier,
//!   finite-cache tag stores, invariant cadence and the per-reference
//!   recorder hook.
//!
//! The inputs reach it through thin adapters:
//!
//! | entry point     | input                                        | protocol             |
//! |-----------------|----------------------------------------------|----------------------|
//! | [`run_soa`]     | a memoized [`SoaStream`] (one batch)         | concrete, per kind   |
//! | [`run_sharded`] | a [`ShardedSoa`] partition, scoped threads   | concrete, per shard  |
//! | [`run_chunked`] | any [`ChunkSource`], interned chunk by chunk | concrete, per kind   |
//! | [`run_spilled`] | spill files from [`spill_sharded`]           | concrete, per shard  |
//! | [`run`]         | any record iterator, interned in batches     | the caller's `P`     |
//!
//! The kind-based adapters resolve the [`ProtocolKind`] once via
//! [`dircc_core::dispatch`], so the core is monomorphized per scheme and
//! `access` is statically dispatched; [`run`] takes the caller's
//! instance, typically a `Box<dyn Protocol>`, and instantiates the same
//! core with `P = dyn Protocol`.
//!
//! # Dense block ids
//!
//! Blocks are *interned*: each distinct block is renamed to a dense index
//! in first-appearance order before it reaches the protocol, so every
//! per-block table downstream (tag arrays, directory entries, verifier
//! state) is a flat vector. Renaming is a bijection and protocols only
//! compare blocks for identity, so counters do not depend on where the
//! ids came from. Finite tag stores still key on the **original** address
//! (set selection uses raw address bits); the core reads it from the
//! record on that cold path — for shard batches by global reference
//! number. The naive reference replay in this crate's `tests/oracle`
//! (one `access` per record, a hash map of first references, a plain
//! per-set LRU list) pins all of this against the checked-in digests.

use dircc_cache::{FiniteCacheConfig, Lookup, SetAssocCache};
use dircc_core::{
    dispatch, dispatch_sized, CoherenceStyle, Event, EventCounters, Outcome, Protocol,
    ProtocolKind, ProtocolVisitor,
};
use dircc_obs::{NoopRecorder, Recorder};
use dircc_trace::spill::spill_shards;
use dircc_trace::{
    BlockInterner, ChunkSource, Shard, ShardedSoa, SoaStream, SpilledShard, SpilledShards,
    TraceRecord,
};
use dircc_types::{AccessKind, BlockAddr, BlockGeometry, CacheId};
use std::io;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub use dircc_types::SharingModel;

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// CPU→cache mapping model.
    pub sharing: SharingModel,
    /// Block geometry (the paper's 16-byte blocks by default).
    pub geometry: BlockGeometry,
    /// Enable the value-level coherence verifier (slower; used by tests).
    pub verify: bool,
    /// Run the protocol's invariant checker every N references (0 = never).
    pub check_invariants_every: u64,
    /// Simulate finite per-cache tag stores of this shape: LRU replacements
    /// call [`Protocol::evict`], generating write-backs and replacement
    /// hints (the paper's finite-cache extension; `None` = infinite caches,
    /// the paper's model).
    pub finite_cache: Option<FiniteCacheConfig>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            sharing: SharingModel::Processor,
            geometry: BlockGeometry::PAPER,
            verify: false,
            check_invariants_every: 0,
            finite_cache: None,
        }
    }
}

impl RunConfig {
    /// A verifying configuration for tests: value verification plus
    /// invariant checks every `every` references.
    pub fn verifying(every: u64) -> Self {
        RunConfig { verify: true, check_invariants_every: every, ..RunConfig::default() }
    }

    /// Returns a copy using the process-sharing model.
    #[must_use]
    pub fn with_process_sharing(mut self) -> Self {
        self.sharing = SharingModel::Process;
        self
    }

    /// Returns a copy simulating finite caches of the given shape.
    #[must_use]
    pub fn with_finite_caches(mut self, config: FiniteCacheConfig) -> Self {
        self.finite_cache = Some(config);
        self
    }
}

/// Result of replaying one trace through one protocol.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Accumulated event frequencies (Table 4's raw material).
    pub counters: EventCounters,
    /// Total references replayed.
    pub refs: u64,
    /// Coherence violations found by the verifier (empty when disabled or
    /// when the protocol is correct). At most [`MAX_VIOLATIONS`] retained.
    pub violations: Vec<String>,
}

/// Cap on retained verifier violation messages.
pub const MAX_VIOLATIONS: usize = 16;

/// References the streaming adapters ([`run`], [`run_chunked`],
/// [`run_spilled`]) intern per batch. One batch's arrays (4 × 8 bytes per
/// ref at most) stay comfortably inside L1 alongside the protocol's
/// working set.
const BATCH: usize = 4096;

/// Core result before violation formatting: each finding keeps its
/// 1-based global reference number so sharded runs can merge findings
/// back into trace order before applying the [`MAX_VIOLATIONS`] cap.
struct CoreResult {
    counters: EventCounters,
    refs: u64,
    violations: Vec<(u64, String)>,
}

/// Core error: the 1-based global reference number it occurred at
/// (`u64::MAX` for the end-of-run invariant check, 0 for a spill-file
/// read failure), for deterministic first-error selection across shards.
struct EngineError {
    gref: u64,
    msg: String,
}

fn finish_result(raw: CoreResult) -> RunResult {
    RunResult {
        counters: raw.counters,
        refs: raw.refs,
        violations: raw.violations.into_iter().map(|(g, msg)| format!("ref {g}: {msg}")).collect(),
    }
}

/// Value-level coherence verifier state.
///
/// The core hands the verifier *dense* block addresses, so all three
/// tables are flat vectors indexed by block. Absent entries read as
/// version 0 (the block's initial state).
#[derive(Debug)]
struct Verifier {
    /// Monotonic version per block, bumped on every write.
    version: Vec<u64>,
    /// Version each cached copy holds, one table per cache.
    copy: Vec<Vec<u64>>,
    /// Version main memory holds.
    memory: Vec<u64>,
}

fn table_get(table: &[u64], b: BlockAddr) -> u64 {
    table.get(b.index() as usize).copied().unwrap_or(0)
}

fn table_set(table: &mut Vec<u64>, b: BlockAddr, ver: u64) {
    let i = b.index() as usize;
    if table.len() <= i {
        table.resize(i + 1, 0);
    }
    table[i] = ver;
}

impl Verifier {
    fn new(n_caches: usize, blocks: usize) -> Self {
        Verifier {
            version: Vec::with_capacity(blocks),
            copy: vec![Vec::with_capacity(blocks); n_caches],
            memory: Vec::with_capacity(blocks),
        }
    }

    /// Checks one access's outcome against the version tables and
    /// advances them. `shown` is the block label messages print.
    #[allow(clippy::too_many_arguments)]
    fn check<P: Protocol + ?Sized>(
        &mut self,
        protocol: &P,
        cache: CacheId,
        kind: AccessKind,
        block: BlockAddr,
        shown: BlockAddr,
        out: &Outcome,
        violations: &mut Vec<(u64, String)>,
        gref: u64,
    ) {
        let mut report = |msg: String| {
            if violations.len() < MAX_VIOLATIONS {
                violations.push((gref, msg));
            }
        };
        let holders = protocol.holders(block);
        if !holders.contains(cache) {
            report(format!("{cache} accessed {shown} but is not a holder afterwards"));
            return;
        }
        match kind {
            AccessKind::Write => {
                let new_ver = table_get(&self.version, block) + 1;
                table_set(&mut self.version, block, new_ver);
                table_set(&mut self.copy[cache.index()], block, new_ver);
                if out.memory_updated {
                    table_set(&mut self.memory, block, new_ver);
                }
                match protocol.style() {
                    CoherenceStyle::Update => {
                        // Updates reach every current holder.
                        for h in holders.iter() {
                            table_set(&mut self.copy[h.index()], block, new_ver);
                        }
                    }
                    CoherenceStyle::Invalidate => {
                        // Single-writer: no other copy may survive a write.
                        if holders.len() != 1 {
                            report(format!(
                                "invalidation protocol left {} copies of {shown} after a write",
                                holders.len()
                            ));
                        }
                    }
                }
            }
            AccessKind::Read => {
                let cur = table_get(&self.version, block);
                match out.event {
                    Event::ReadHit => {
                        let held = table_get(&self.copy[cache.index()], block);
                        if held != cur {
                            report(format!(
                                "read hit observed version {held} of {shown}, latest is {cur}"
                            ));
                        }
                    }
                    Event::ReadMiss(_) => {
                        // Where did the data come from?
                        if out.memory_updated {
                            table_set(&mut self.memory, block, cur);
                        }
                        let supplied = if out.cache_supplied || out.write_back {
                            cur
                        } else {
                            table_get(&self.memory, block)
                        };
                        if supplied != cur {
                            report(format!(
                                "miss on {shown} supplied version {supplied}, latest is {cur}"
                            ));
                        }
                        table_set(&mut self.copy[cache.index()], block, supplied);
                    }
                    other => report(format!("read classified as {other}")),
                }
            }
            AccessKind::InstrFetch => unreachable!("filtered before the protocol"),
        }
    }

    /// An evicted copy was written back: memory now holds its version
    /// (the latest data, in every protocol that answers WRITE_BACK).
    fn write_back(&mut self, cache: CacheId, block: BlockAddr) {
        let ver = table_get(&self.copy[cache.index()], block);
        table_set(&mut self.memory, block, ver);
    }
}

/// Where a batch's original records live. Only the cold paths read them:
/// finite-cache set selection and the bounds-error text.
#[derive(Clone, Copy)]
enum Origin<'a> {
    /// `records[j]` is the batch's entry `j`.
    Aligned(&'a [TraceRecord]),
    /// Entry `j`'s record is `records[gref - 1]`: shard batches reach the
    /// unsharded stream by global reference number.
    ByGref(&'a [TraceRecord]),
}

/// One structure-of-arrays batch, as the core consumes it.
struct Batch<'a> {
    soa: &'a SoaStream,
    /// 1-based global reference numbers aligned with `soa`; `None` when
    /// the batch continues an unsharded stream, whose reference numbers
    /// are the core's running count.
    grefs: Option<&'a [u64]>,
    origin: Origin<'a>,
}

impl Batch<'_> {
    fn record(&self, j: usize, gref: u64) -> TraceRecord {
        match self.origin {
            Origin::Aligned(records) => records[j],
            Origin::ByGref(records) => records[(gref - 1) as usize],
        }
    }
}

/// The replay core: one protocol instance plus everything a run carries
/// from batch to batch.
struct Core<'a, P: Protocol + ?Sized, R: Recorder> {
    protocol: &'a mut P,
    cfg: &'a RunConfig,
    recorder: &'a mut R,
    /// Shard-local → global dense ids, so shard violation text names
    /// blocks exactly as the unsharded run does (`None` = identity).
    global_ids: Option<&'a [u32]>,
    n: usize,
    counters: EventCounters,
    verifier: Option<Verifier>,
    violations: Vec<(u64, String)>,
    /// Finite-mode tag stores mirror each cache's resident blocks; LRU
    /// victims are evicted from the protocol. Tags invalidated by remote
    /// writes linger until replaced (as in real caches). Keyed on the
    /// ORIGINAL block address, carrying the dense address as state.
    tag_stores: Option<Vec<SetAssocCache<BlockAddr>>>,
    /// References replayed so far in this stream.
    refs: u64,
}

impl<'a, P: Protocol + ?Sized, R: Recorder> Core<'a, P, R> {
    /// `blocks` pre-sizes the verifier's dense tables.
    fn new(
        protocol: &'a mut P,
        cfg: &'a RunConfig,
        recorder: &'a mut R,
        blocks: usize,
        global_ids: Option<&'a [u32]>,
    ) -> Self {
        let n = protocol.num_caches();
        Core {
            protocol,
            cfg,
            recorder,
            global_ids,
            n,
            counters: EventCounters::new(),
            verifier: cfg.verify.then(|| Verifier::new(n, blocks)),
            violations: Vec::new(),
            tag_stores: cfg.finite_cache.map(|fc| (0..n).map(|_| SetAssocCache::new(fc)).collect()),
            refs: 0,
        }
    }

    /// Replays one batch through the quiet loop when every cold branch is
    /// constant-false for it, through the instrumented loop otherwise.
    fn feed(&mut self, batch: &Batch<'_>) -> Result<(), EngineError> {
        let quiet = R::IS_NOOP
            && self.verifier.is_none()
            && self.tag_stores.is_none()
            && self.cfg.check_invariants_every == 0
            && usize::from(batch.soa.max_cache_idx) < self.n;
        if quiet {
            quiet_loop(&mut *self.protocol, &mut self.counters, batch.soa);
            self.refs += batch.soa.len() as u64;
            Ok(())
        } else {
            self.instrumented(batch)
        }
    }

    /// Every reference with every hook: same counters as the quiet loop,
    /// plus bounds errors, verifier findings, finite-cache evictions, the
    /// invariant cadence and one recorder call per reference — after every
    /// counter mutation that reference caused (eviction traffic included),
    /// so windowed deltas partition the run exactly.
    fn instrumented(&mut self, batch: &Batch<'_>) -> Result<(), EngineError> {
        let soa = batch.soa;
        let n = self.n;
        let every = self.cfg.check_invariants_every;
        for j in 0..soa.len() {
            self.refs += 1;
            let refs = self.refs;
            let kind = soa.kind[j];
            if kind == AccessKind::InstrFetch {
                self.counters.observe(&Outcome::quiet(Event::Instr));
                self.recorder.record(refs, &self.counters);
                continue;
            }
            let gref = batch.grefs.map_or(refs, |g| g[j]);
            let cache_idx = soa.cache_idx[j];
            if usize::from(cache_idx) >= n {
                let r = batch.record(j, gref);
                return Err(EngineError {
                    gref,
                    msg: format!(
                        "reference {gref}: cache index {cache_idx} out of range for {n} caches \
                         ({}, {}, {:?} at {}; did you size the protocol for the sharing model?)",
                        r.cpu, r.pid, r.kind, r.addr
                    ),
                });
            }
            let cache = CacheId::new(cache_idx);
            let block = BlockAddr::from_index(u64::from(soa.block_id[j]));
            let out = self.protocol.access(cache, kind, block, soa.first_ref[j]);
            self.counters.observe(&out);

            if let Some(v) = self.verifier.as_mut() {
                let shown = match self.global_ids {
                    None => block,
                    Some(g) => BlockAddr::from_index(u64::from(g[block.index() as usize])),
                };
                v.check(
                    &*self.protocol,
                    cache,
                    kind,
                    block,
                    shown,
                    &out,
                    &mut self.violations,
                    gref,
                );
            }
            if let Some(stores) = self.tag_stores.as_mut() {
                let orig_block = self.cfg.geometry.block_of(batch.record(j, gref).addr);
                if let Lookup::Inserted { evicted: Some(victim) } =
                    stores[cache.index()].lookup_or_insert(orig_block, block)
                {
                    let evo = self.protocol.evict(cache, victim.state);
                    self.counters.observe_eviction(&evo);
                    if evo.write_back {
                        if let Some(v) = self.verifier.as_mut() {
                            v.write_back(cache, victim.state);
                        }
                    }
                }
            }
            self.recorder.record(refs, &self.counters);
            if every > 0 && refs.is_multiple_of(every) {
                self.protocol.check_invariants().map_err(|e| EngineError {
                    gref,
                    msg: format!("invariant violation at reference {gref}: {e}"),
                })?;
            }
        }
        Ok(())
    }

    /// Ends the stream: the final invariant check (when a cadence is set)
    /// and the recorder's `finish`.
    fn finish(self) -> Result<CoreResult, EngineError> {
        if self.cfg.check_invariants_every > 0 {
            self.protocol.check_invariants().map_err(|e| EngineError {
                gref: u64::MAX,
                msg: format!("final invariant violation: {e}"),
            })?;
        }
        self.recorder.finish(self.refs, &self.counters);
        Ok(CoreResult { counters: self.counters, refs: self.refs, violations: self.violations })
    }
}

/// The quiet loop: one statically dispatched (for concrete `P`) `access`
/// and one counter update per reference, no other branch.
#[inline]
fn quiet_loop<P: Protocol + ?Sized>(
    protocol: &mut P,
    counters: &mut EventCounters,
    soa: &SoaStream,
) {
    let len = soa.len();
    let kind = &soa.kind[..len];
    let cache_idx = &soa.cache_idx[..len];
    let block_id = &soa.block_id[..len];
    let first_ref = &soa.first_ref[..len];
    let mut i = 0usize;
    while i < len {
        let end = (i + BATCH).min(len);
        for j in i..end {
            let k = kind[j];
            if k == AccessKind::InstrFetch {
                counters.observe(&Outcome::quiet(Event::Instr));
                continue;
            }
            let out = protocol.access(
                CacheId::new(cache_idx[j]),
                k,
                BlockAddr::from_index(u64::from(block_id[j])),
                first_ref[j],
            );
            counters.observe(&out);
        }
        i = end;
    }
}

/// Interns records batch by batch into a reusable [`SoaStream`] buffer —
/// the adapter behind [`run`] and [`run_chunked`]. Ids are assigned in
/// first-appearance order, exactly as a whole-stream interner would.
struct Interning {
    interner: BlockInterner,
    buf: SoaStream,
    sharing: SharingModel,
}

impl Interning {
    fn new(cfg: &RunConfig) -> Self {
        Interning {
            interner: BlockInterner::new(cfg.geometry),
            buf: SoaStream::new(cfg.sharing),
            sharing: cfg.sharing,
        }
    }

    /// Interns `records` into the buffer and returns them as a batch.
    fn load<'b>(&'b mut self, records: &'b [TraceRecord]) -> Batch<'b> {
        self.buf.clear();
        let geometry = self.interner.geometry();
        for r in records {
            if r.is_data() {
                let (id, first) = self.interner.intern(geometry.block_of(r.addr));
                self.buf.push(r.kind, r.cache_index(self.sharing), id, first);
            } else {
                self.buf.push(r.kind, 0, 0, false);
            }
        }
        Batch { soa: &self.buf, grefs: None, origin: Origin::Aligned(records) }
    }
}

/// Replays `records` through `protocol`, returning counters and any
/// verifier findings.
///
/// Blocks are interned a batch at a time and the batch replays through
/// the same core as every other entry point, instantiated for the
/// caller's `P` (`dyn Protocol` for a `Box<dyn Protocol>`).
///
/// # Errors
///
/// Returns an error string if a record names a cache the protocol does not
/// have or a protocol invariant check fails (the verifier's value-level
/// findings are reported in [`RunResult::violations`] instead, so a run
/// can surface several).
pub fn run<P: Protocol + ?Sized, I: IntoIterator<Item = TraceRecord>>(
    protocol: &mut P,
    records: I,
    cfg: &RunConfig,
) -> Result<RunResult, String> {
    let mut recorder = NoopRecorder;
    let mut core = Core::new(protocol, cfg, &mut recorder, 0, None);
    let mut interning = Interning::new(cfg);
    let mut records = records.into_iter();
    let mut buf: Vec<TraceRecord> = Vec::with_capacity(BATCH);
    let res = loop {
        buf.clear();
        buf.extend(records.by_ref().take(BATCH));
        if buf.is_empty() {
            break core.finish();
        }
        if let Err(e) = core.feed(&interning.load(&buf)) {
            break Err(e);
        }
    };
    res.map(finish_result).map_err(|e| e.msg)
}

/// Rejects a stream built from different records or under a different
/// sharing model than the run uses.
fn check_aligned(
    what: &str,
    len: usize,
    records: usize,
    sharing: SharingModel,
    cfg: &RunConfig,
) -> Result<(), String> {
    if len != records {
        return Err(format!(
            "{what} has {len} entries for {records} records; rebuild it from the same stream"
        ));
    }
    if sharing != cfg.sharing {
        return Err(format!(
            "{what} was built under {sharing:?} sharing but the run uses {:?}; rebuild it for \
             this sharing model",
            cfg.sharing
        ));
    }
    Ok(())
}

/// Replays a structure-of-arrays stream through a monomorphized instance
/// of `kind`, with `recorder` observing the cumulative counters after
/// every reference (pass [`NoopRecorder`] to observe nothing: the quiet
/// loop then runs).
///
/// `records` must be the stream `soa` was built from: the quiet loop
/// never touches it, but finite-cache set selection and error text do.
///
/// # Errors
///
/// As [`run`]; additionally errs if `soa` is misaligned with `records` or
/// was built under a different sharing model than `cfg` uses.
pub fn run_soa<R: Recorder>(
    kind: ProtocolKind,
    n_caches: usize,
    records: &[TraceRecord],
    soa: &SoaStream,
    cfg: &RunConfig,
    recorder: &mut R,
) -> Result<RunResult, String> {
    check_aligned("soa stream", soa.len(), records.len(), soa.sharing, cfg)?;
    struct Visit<'a, R> {
        records: &'a [TraceRecord],
        soa: &'a SoaStream,
        cfg: &'a RunConfig,
        recorder: &'a mut R,
    }
    impl<R: Recorder> ProtocolVisitor for Visit<'_, R> {
        type Output = Result<CoreResult, EngineError>;
        fn visit<P: Protocol + Clone>(self, mut protocol: P) -> Self::Output {
            let mut core =
                Core::new(&mut protocol, self.cfg, self.recorder, self.soa.num_blocks, None);
            let batch = Batch { soa: self.soa, grefs: None, origin: Origin::Aligned(self.records) };
            core.feed(&batch)?;
            core.finish()
        }
    }
    dispatch_sized(kind, n_caches, soa.num_blocks, Visit { records, soa, cfg, recorder })
        .map(finish_result)
        .map_err(|e| e.msg)
}

/// Builds the block-sharded partition of `soa` (built from `records`) for
/// `cfg`.
///
/// Infinite-cache runs shard by `block_id % shards` — the same router
/// [`dircc_trace::TraceStore::sharded_soa`] memoizes. Finite-cache runs
/// shard by the tag store's *set index* of the original block instead:
/// LRU eviction is confined to a set, so keeping every set's accesses in
/// one shard preserves victim choice exactly. A finite config cannot
/// honour more shards than it has sets, so the shard count is clamped to
/// `sets` (falling back to 1 shard for a single-set cache).
pub fn shard_stream(
    records: &[TraceRecord],
    soa: &SoaStream,
    shards: usize,
    cfg: &RunConfig,
) -> ShardedSoa {
    let shards = shards.max(1);
    match cfg.finite_cache {
        None => ShardedSoa::build(soa, shards, |_, gid| gid as usize % shards),
        Some(fc) => {
            let shards = shards.min(fc.sets);
            ShardedSoa::build(soa, shards, |i, _| {
                fc.set_of(cfg.geometry.block_of(records[i].addr)) % shards
            })
        }
    }
}

/// Replays one in-memory shard through `protocol`.
fn replay_shard<P: Protocol + ?Sized>(
    protocol: &mut P,
    shard: &Shard,
    records: &[TraceRecord],
    cfg: &RunConfig,
) -> Result<CoreResult, EngineError> {
    let mut recorder = NoopRecorder;
    let mut core =
        Core::new(protocol, cfg, &mut recorder, shard.soa.num_blocks, Some(&shard.global_ids));
    core.feed(&Batch {
        soa: &shard.soa,
        grefs: Some(&shard.global_refs),
        origin: Origin::ByGref(records),
    })?;
    core.finish()
}

/// Replays a block-sharded partition (from [`shard_stream`] or the
/// store's memo) through monomorphized per-shard instances of `kind` and
/// folds the per-shard results into one [`RunResult`] **bit-identical to
/// [`run_soa`]** on the unsharded stream. `observe(shard, started, wall,
/// refs)` is called once per shard replay, from the thread that replayed
/// it, so callers can attribute per-shard spans.
///
/// Why the fold is exact:
///
/// * with infinite caches every per-block table (cache states, directory
///   entries, verifier versions, first-ref bits) is touched by exactly
///   one shard, and shard-local renaming preserves first-appearance
///   order, so each shard computes exactly the slice of state the serial
///   run would;
/// * [`EventCounters`] are purely additive, so merging per-shard counters
///   in shard order reproduces the serial totals;
/// * verifier findings carry global reference numbers; merging them in
///   trace order and then applying the [`MAX_VIOLATIONS`] cap retains
///   exactly the serial run's first `MAX_VIOLATIONS` findings (a finding
///   within the first 16 globally is within the first 16 of its shard);
/// * finite-cache runs are sharded by set index (see [`shard_stream`]),
///   which preserves relative LRU-stamp order within every set and hence
///   eviction choice.
///
/// The only intentional divergence: `check_invariants_every` cadences on
/// the *shard-local* reference count, so a broken protocol may be caught
/// at a different reference than serially. Correct protocols (and the
/// single-shard case) are unaffected.
///
/// # Errors
///
/// As [`run_soa`]; across shards the error with the smallest global
/// reference number wins, deterministically.
pub fn run_sharded<O>(
    kind: ProtocolKind,
    n_caches: usize,
    records: &[TraceRecord],
    sharded: &ShardedSoa,
    cfg: &RunConfig,
    observe: O,
) -> Result<RunResult, String>
where
    O: Fn(usize, Instant, Duration, u64) + Sync,
{
    check_aligned(
        "sharded stream",
        sharded.total_records(),
        records.len(),
        sharded.sharing(),
        cfg,
    )?;
    struct Visit<'a> {
        shard: &'a Shard,
        records: &'a [TraceRecord],
        cfg: &'a RunConfig,
    }
    impl ProtocolVisitor for Visit<'_> {
        type Output = Result<CoreResult, EngineError>;
        fn visit<P: Protocol + Clone>(self, mut protocol: P) -> Self::Output {
            replay_shard(&mut protocol, self.shard, self.records, self.cfg)
        }
    }
    let shards = sharded.shards();
    replay_shards(shards.len(), observe, |idx| {
        let shard = &shards[idx];
        // The concrete type is resolved per shard on its own worker: no
        // `Box<dyn Protocol>` ever crosses into the replay loop.
        let res =
            dispatch_sized(kind, n_caches, shard.soa.num_blocks, Visit { shard, records, cfg });
        (res, shard.soa.len() as u64)
    })
}

/// Runs `replay(shard)` for every shard on [`std::thread::scope`] workers
/// (inline when there is only one) and folds the results: additive
/// counter merge in shard order, findings re-sorted by global reference
/// number then capped, smallest `(gref, shard)` error winning. `replay`
/// also returns the shard's record count, which `observe` reports.
fn replay_shards<O, F>(shards: usize, observe: O, replay: F) -> Result<RunResult, String>
where
    O: Fn(usize, Instant, Duration, u64) + Sync,
    F: Fn(usize) -> (Result<CoreResult, EngineError>, u64) + Sync,
{
    let slots: Vec<Mutex<Option<Result<CoreResult, EngineError>>>> =
        (0..shards).map(|_| Mutex::new(None)).collect();
    let run_one = |idx: usize| {
        let started = Instant::now();
        let (res, len) = replay(idx);
        let refs = res.as_ref().map_or(len, |o| o.refs);
        observe(idx, started, started.elapsed(), refs);
        *slots[idx].lock().expect("shard slot poisoned") = Some(res);
    };
    if shards == 1 {
        run_one(0);
    } else {
        std::thread::scope(|scope| {
            for idx in 0..shards {
                let run_one = &run_one;
                scope.spawn(move || run_one(idx));
            }
        });
    }

    let mut counters = EventCounters::new();
    let mut refs = 0u64;
    let mut findings: Vec<(u64, String)> = Vec::new();
    let mut first_err: Option<(u64, usize, String)> = None;
    for (idx, slot) in slots.into_iter().enumerate() {
        match slot.into_inner().expect("shard slot poisoned").expect("shard replay completed") {
            Ok(o) => {
                counters.merge(&o.counters);
                refs += o.refs;
                findings.extend(o.violations);
            }
            Err(e) => {
                if first_err.as_ref().is_none_or(|(g, s, _)| (e.gref, idx) < (*g, *s)) {
                    first_err = Some((e.gref, idx, e.msg));
                }
            }
        }
    }
    if let Some((_, _, msg)) = first_err {
        return Err(msg);
    }
    findings.sort_by_key(|(gref, _)| *gref);
    findings.truncate(MAX_VIOLATIONS);
    Ok(finish_result(CoreResult { counters, refs, violations: findings }))
}

/// Replays a streamed trace — any [`ChunkSource`], e.g. a
/// [`ChunkedReader`](dircc_trace::ChunkedReader) over an on-disk v2 file —
/// through a monomorphized instance of `kind`, holding at most one chunk
/// of records in memory.
///
/// Blocks are interned incrementally as chunks arrive, in the same
/// first-appearance order a whole-stream interner assigns, so counters
/// are bit-identical to [`run_soa`] on the same records.
///
/// # Errors
///
/// As [`run`]; additionally reports I/O and decode errors from the source.
pub fn run_chunked<S: ChunkSource>(
    kind: ProtocolKind,
    n_caches: usize,
    source: &mut S,
    cfg: &RunConfig,
) -> Result<RunResult, String> {
    struct Visit<'a, S> {
        source: &'a mut S,
        cfg: &'a RunConfig,
    }
    impl<S: ChunkSource> ProtocolVisitor for Visit<'_, S> {
        type Output = Result<CoreResult, EngineError>;
        fn visit<P: Protocol + Clone>(self, mut protocol: P) -> Self::Output {
            let mut recorder = NoopRecorder;
            let mut core = Core::new(&mut protocol, self.cfg, &mut recorder, 0, None);
            let mut interning = Interning::new(self.cfg);
            let mut chunk: Vec<TraceRecord> = Vec::new();
            loop {
                match self.source.next_chunk(&mut chunk) {
                    Ok(true) => {}
                    Ok(false) => break,
                    // An I/O error truncates the stream; it must not pass
                    // for a clean end of trace.
                    Err(e) => {
                        return Err(EngineError { gref: 0, msg: format!("trace read failed: {e}") })
                    }
                }
                for part in chunk.chunks(BATCH) {
                    core.feed(&interning.load(part))?;
                }
            }
            core.finish()
        }
    }
    dispatch(kind, n_caches, Visit { source, cfg }).map(finish_result).map_err(|e| e.msg)
}

/// Partitions a streamed trace into per-shard spill files under `dir`
/// (which must exist), using the same routing [`shard_stream`] uses for
/// `cfg` — `block_id % shards` for infinite caches, set index (clamped to
/// the set count) for finite ones — so spilled replay merges
/// bit-identically with [`run_sharded`]. Memory stays proportional to
/// distinct blocks, never trace length: this is how sharded replay scales
/// to traces larger than RAM.
///
/// # Errors
///
/// Propagates I/O errors from the source and the spill files.
pub fn spill_sharded<S: ChunkSource>(
    source: &mut S,
    shards: usize,
    cfg: &RunConfig,
    dir: &Path,
) -> io::Result<SpilledShards> {
    let shards = shards.max(1);
    match cfg.finite_cache {
        None => spill_shards(source, cfg.geometry, shards, dir, |_, gid| gid as usize % shards),
        Some(fc) => {
            let shards = shards.min(fc.sets);
            let geometry = cfg.geometry;
            spill_shards(source, geometry, shards, dir, move |r, _| {
                fc.set_of(geometry.block_of(r.addr)) % shards
            })
        }
    }
}

/// Streams one shard's spill file into the core a batch at a time: the
/// entries' records, shard-local ids and global reference numbers become
/// a batch, with first references tracked in a bit vector.
fn replay_spilled_shard<P: Protocol + ?Sized>(
    protocol: &mut P,
    shard: &SpilledShard,
    cfg: &RunConfig,
) -> Result<CoreResult, EngineError> {
    let read_err = |e: io::Error| EngineError {
        // gref 0 sorts before any engine error, so an I/O failure wins
        // the deterministic first-error merge.
        gref: 0,
        msg: format!("spilled shard read failed: {e}"),
    };
    let mut entries = shard.entries().map_err(read_err)?;
    let mut recorder = NoopRecorder;
    let mut core =
        Core::new(protocol, cfg, &mut recorder, shard.num_blocks, Some(&shard.global_ids));
    let mut seen = vec![0u64; shard.num_blocks.div_ceil(64)];
    let mut soa = SoaStream::new(cfg.sharing);
    let mut records: Vec<TraceRecord> = Vec::with_capacity(BATCH);
    let mut grefs: Vec<u64> = Vec::with_capacity(BATCH);
    loop {
        soa.clear();
        records.clear();
        grefs.clear();
        let mut failed = None;
        while records.len() < BATCH {
            match entries.next() {
                Some(Ok(e)) => {
                    let r = e.record;
                    if r.is_data() {
                        let id = e.local_id;
                        let (word, bit) = (id as usize / 64, 1u64 << (id % 64));
                        if word >= seen.len() {
                            seen.resize(word + 1, 0);
                        }
                        soa.push(r.kind, r.cache_index(cfg.sharing), id, seen[word] & bit == 0);
                        seen[word] |= bit;
                    } else {
                        soa.push(r.kind, 0, 0, false);
                    }
                    records.push(r);
                    grefs.push(e.gref);
                }
                Some(Err(e)) => {
                    failed = Some(e);
                    break;
                }
                None => break,
            }
        }
        if records.is_empty() && failed.is_none() {
            return core.finish();
        }
        // Entries decoded before a read error still replay first, so an
        // engine error earlier in the file keeps precedence.
        core.feed(&Batch { soa: &soa, grefs: Some(&grefs), origin: Origin::Aligned(&records) })?;
        if let Some(e) = failed {
            return Err(read_err(e));
        }
    }
}

/// Replays a spilled partition (from [`spill_sharded`]) through
/// monomorphized per-shard instances of `kind`, streaming each shard's
/// spill file with bounded memory, and folds the results
/// **bit-identically to [`run_sharded`]** on the same stream: the spill
/// files carry exactly the records, shard-local ids and global reference
/// numbers an in-memory [`Shard`] stands for, and the fold is the same.
///
/// # Errors
///
/// As [`run_sharded`]; additionally reports I/O errors reading spill files.
pub fn run_spilled(
    kind: ProtocolKind,
    n_caches: usize,
    spilled: &SpilledShards,
    cfg: &RunConfig,
) -> Result<RunResult, String> {
    struct Visit<'a> {
        shard: &'a SpilledShard,
        cfg: &'a RunConfig,
    }
    impl ProtocolVisitor for Visit<'_> {
        type Output = Result<CoreResult, EngineError>;
        fn visit<P: Protocol + Clone>(self, mut protocol: P) -> Self::Output {
            replay_spilled_shard(&mut protocol, self.shard, self.cfg)
        }
    }
    let shards = spilled.shards();
    replay_shards(
        shards.len(),
        |_, _, _, _| (),
        |idx| {
            let shard = &shards[idx];
            let res = dispatch_sized(kind, n_caches, shard.num_blocks, Visit { shard, cfg });
            (res, shard.records)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dircc_core::{build, ProtocolKind};
    use dircc_trace::gen::patterns;
    use dircc_types::{Address, CpuId, ProcessId};

    fn run_verified(kind: ProtocolKind, trace: Vec<TraceRecord>) -> RunResult {
        let mut p = build(kind, 4);
        let res = run(p.as_mut(), trace, &RunConfig::verifying(1)).expect("run succeeds");
        assert!(res.violations.is_empty(), "{}: {:?}", p.name(), res.violations);
        res
    }

    /// The interned structure-of-arrays split of `records` under `cfg`.
    fn soa_of(records: &[TraceRecord], cfg: &RunConfig) -> SoaStream {
        SoaStream::intern(records, cfg.geometry, cfg.sharing)
    }

    /// Accepts every access as a write hit and never invalidates: every
    /// access past the first per block is a verifier finding.
    #[derive(Debug)]
    struct Stale(dircc_cache::CacheArray<()>);

    impl Stale {
        fn new() -> Self {
            Stale(dircc_cache::CacheArray::new(4))
        }
    }

    impl Protocol for Stale {
        fn kind(&self) -> ProtocolKind {
            ProtocolKind::Wti
        }
        fn num_caches(&self) -> usize {
            self.0.num_caches()
        }
        fn access(
            &mut self,
            cache: CacheId,
            _kind: AccessKind,
            block: BlockAddr,
            _first: bool,
        ) -> Outcome {
            self.0.set(cache, block, ());
            Outcome::quiet(Event::WriteHit(dircc_core::WriteHitContext::CleanExclusive))
        }
        fn holders(&self, block: BlockAddr) -> dircc_types::CacheIdSet {
            self.0.holders(block)
        }
        fn encode_state(&self, out: &mut Vec<u64>) {
            self.0.encode_states(out, |()| 0);
        }
        fn check_invariants(&self) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn all_protocols_stay_coherent_on_every_pattern() {
        let patterns: Vec<(&str, Vec<TraceRecord>)> = vec![
            ("ping_pong", patterns::ping_pong(25)),
            ("read_only", patterns::read_only_sharing(4, 8, 5)),
            ("migratory", patterns::migratory(4, 40)),
            ("prodcons", patterns::producer_consumer(30, 4)),
            ("private", patterns::private_only(4, 10)),
            ("spinlock", patterns::spinlock_contention(3, 15)),
        ];
        for kind in [
            ProtocolKind::DirNb { pointers: 1 },
            ProtocolKind::DirNb { pointers: 2 },
            ProtocolKind::DirNb { pointers: 4 },
            ProtocolKind::Dir0B,
            ProtocolKind::DirB { pointers: 1 },
            ProtocolKind::CodedSet,
            ProtocolKind::Tang,
            ProtocolKind::YenFu,
            ProtocolKind::Wti,
            ProtocolKind::Dragon,
            ProtocolKind::Berkeley,
            ProtocolKind::WriteOnce,
            ProtocolKind::Firefly,
            ProtocolKind::Mesi,
        ] {
            for (name, trace) in &patterns {
                let mut p = build(kind, 4);
                let res = run(p.as_mut(), trace.clone(), &RunConfig::verifying(1)).expect("run");
                assert!(res.violations.is_empty(), "{} on {name}: {:?}", p.name(), res.violations);
            }
        }
    }

    #[test]
    fn first_references_counted_once_globally() {
        let res = run_verified(ProtocolKind::Dir0B, patterns::read_only_sharing(4, 3, 2));
        assert_eq!(res.counters.rm_first_ref(), 3, "3 blocks, each first-referenced once");
        // Every other cache's cold miss is a sharing miss, not a first ref.
        assert_eq!(res.counters.rm_blk_cln(), 9);
    }

    #[test]
    fn instr_fetches_bypass_the_protocol() {
        let trace = patterns::with_instr_stream(patterns::ping_pong(5));
        let res = run_verified(ProtocolKind::Dir0B, trace);
        assert_eq!(res.counters.instr(), 10);
        assert_eq!(res.counters.total(), 20);
    }

    #[test]
    fn process_sharing_uses_pid() {
        // One CPU, two processes time-sharing it: with processor sharing
        // there is no sharing at all; with process sharing the two
        // processes' caches ping-pong.
        let mk = |pid: u16| {
            TraceRecord::new(
                CpuId::new(0),
                ProcessId::new(pid),
                AccessKind::Write,
                Address::new(0x100),
            )
        };
        let trace: Vec<TraceRecord> = (0..10).map(|i| mk(i % 2)).collect();

        let mut p = build(ProtocolKind::Dir0B, 4);
        let proc_res = run(p.as_mut(), trace.clone(), &RunConfig::default()).unwrap();
        assert_eq!(proc_res.counters.wm(), 0, "processor model sees one cache");

        let mut p = build(ProtocolKind::Dir0B, 4);
        let cfg = RunConfig::default().with_process_sharing();
        let res = run(p.as_mut(), trace, &cfg).unwrap();
        assert!(res.counters.wm() > 0, "process model exposes the sharing");
    }

    #[test]
    fn finite_caches_generate_evictions_and_write_backs() {
        // A 2-block direct-mapped cache forced to thrash: each CPU cycles
        // through 4 conflicting blocks, writing each.
        let mut trace = Vec::new();
        for i in 0..200u64 {
            let block = (i % 4) * 2; // all map to set 0 of a 2-set cache
            trace.push(TraceRecord::new(
                CpuId::new(0),
                ProcessId::new(0),
                AccessKind::Write,
                Address::new(block * 16),
            ));
        }
        let cfg = RunConfig::default().with_finite_caches(FiniteCacheConfig::new(2, 1));
        let mut p = build(ProtocolKind::Dir0B, 4);
        let res = run(p.as_mut(), trace, &RunConfig { verify: true, ..cfg }).unwrap();
        assert!(res.counters.cache_evictions() > 100, "thrash must evict");
        assert!(res.counters.write_backs() > 100, "dirty evictions flush");
        assert!(
            res.counters.rm() + res.counters.wm() > 100,
            "replacement misses reappear as memory-only misses"
        );
        assert!(res.violations.is_empty(), "{:?}", res.violations);
    }

    #[test]
    fn finite_caches_stay_coherent_for_every_protocol() {
        let trace = patterns::migratory(4, 200);
        for kind in [
            ProtocolKind::Dir0B,
            ProtocolKind::DirNb { pointers: 1 },
            ProtocolKind::DirNb { pointers: 4 },
            ProtocolKind::DirB { pointers: 1 },
            ProtocolKind::CodedSet,
            ProtocolKind::Tang,
            ProtocolKind::YenFu,
            ProtocolKind::Wti,
            ProtocolKind::Dragon,
            ProtocolKind::Berkeley,
            ProtocolKind::WriteOnce,
            ProtocolKind::Firefly,
            ProtocolKind::Mesi,
        ] {
            let mut p = build(kind, 4);
            let cfg = RunConfig {
                verify: true,
                check_invariants_every: 1,
                ..RunConfig::default().with_finite_caches(FiniteCacheConfig::new(2, 2))
            };
            let res =
                run(p.as_mut(), trace.clone(), &cfg).unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert!(res.violations.is_empty(), "{kind}: {:?}", res.violations);
        }
    }

    #[test]
    fn infinite_runs_report_zero_evictions() {
        let mut p = build(ProtocolKind::Dir0B, 4);
        let res = run(p.as_mut(), patterns::migratory(4, 50), &RunConfig::default()).unwrap();
        assert_eq!(res.counters.cache_evictions(), 0);
    }

    #[test]
    fn out_of_range_cache_is_an_error() {
        let trace = vec![TraceRecord::new(
            CpuId::new(7),
            ProcessId::new(7),
            AccessKind::Read,
            Address::new(0),
        )];
        let mut p = build(ProtocolKind::Dir0B, 4);
        assert!(run(p.as_mut(), trace, &RunConfig::default()).is_err());
    }

    #[test]
    fn verifier_catches_a_broken_protocol() {
        /// A deliberately broken protocol: never invalidates other copies.
        #[derive(Debug)]
        struct Broken {
            caches: dircc_cache::CacheArray<()>,
        }
        impl Protocol for Broken {
            fn kind(&self) -> ProtocolKind {
                ProtocolKind::Wti
            }
            fn num_caches(&self) -> usize {
                self.caches.num_caches()
            }
            fn access(
                &mut self,
                cache: CacheId,
                kind: AccessKind,
                block: BlockAddr,
                first_ref: bool,
            ) -> Outcome {
                use dircc_core::{MissContext, WriteHitContext};
                let hit = self.caches.state(cache, block).is_some();
                self.caches.set(cache, block, ());
                let event = match (kind, hit, first_ref) {
                    (AccessKind::Read, true, _) => Event::ReadHit,
                    (AccessKind::Read, false, true) => Event::ReadMiss(MissContext::FirstRef),
                    (AccessKind::Read, false, false) => Event::ReadMiss(MissContext::MemoryOnly),
                    (AccessKind::Write, true, _) => {
                        Event::WriteHit(WriteHitContext::CleanExclusive)
                    }
                    (AccessKind::Write, false, true) => Event::WriteMiss(MissContext::FirstRef),
                    (AccessKind::Write, false, false) => Event::WriteMiss(MissContext::MemoryOnly),
                    _ => unreachable!(),
                };
                Outcome::quiet(event)
            }
            fn holders(&self, block: BlockAddr) -> dircc_types::CacheIdSet {
                self.caches.holders(block)
            }
            fn encode_state(&self, out: &mut Vec<u64>) {
                self.caches.encode_states(out, |()| 0);
            }
            fn check_invariants(&self) -> Result<(), String> {
                Ok(())
            }
        }

        let mut broken = Broken { caches: dircc_cache::CacheArray::new(4) };
        let res = run(&mut broken, patterns::ping_pong(5), &RunConfig::verifying(0)).unwrap();
        assert!(!res.violations.is_empty(), "stale copies must be detected");
    }

    /// The invariant cadence reports the record it stopped at, and the
    /// end-of-run check its own text.
    #[test]
    fn invariant_violation_text_is_pinned() {
        /// Passes its invariant check for the first `ok` calls only.
        #[derive(Debug)]
        struct Brittle {
            inner: Box<dyn Protocol>,
            ok: std::cell::Cell<u32>,
        }
        impl Protocol for Brittle {
            fn kind(&self) -> ProtocolKind {
                self.inner.kind()
            }
            fn num_caches(&self) -> usize {
                self.inner.num_caches()
            }
            fn access(&mut self, c: CacheId, k: AccessKind, b: BlockAddr, f: bool) -> Outcome {
                self.inner.access(c, k, b, f)
            }
            fn holders(&self, block: BlockAddr) -> dircc_types::CacheIdSet {
                self.inner.holders(block)
            }
            fn encode_state(&self, out: &mut Vec<u64>) {
                self.inner.encode_state(out);
            }
            fn check_invariants(&self) -> Result<(), String> {
                let left = self.ok.get();
                if left == 0 {
                    return Err("directory lost a sharer".to_string());
                }
                self.ok.set(left - 1);
                Ok(())
            }
        }
        let brittle = |ok: u32| Brittle { inner: build(ProtocolKind::Dir0B, 4), ok: ok.into() };
        // Instruction fetches count toward the cadence but never run a
        // check: over I, D, I, D, ... with every = 3, checks run after
        // references 6, 12 and 18 of 20 (3, 9 and 15 are fetches).
        let trace = patterns::with_instr_stream(patterns::migratory(4, 5));
        let err = run(&mut brittle(1), trace.clone(), &RunConfig::verifying(3)).unwrap_err();
        assert_eq!(err, "invariant violation at reference 12: directory lost a sharer");
        let err = run(&mut brittle(3), trace, &RunConfig::verifying(3)).unwrap_err();
        assert_eq!(err, "final invariant violation: directory lost a sharer");
    }

    #[test]
    fn noop_recorder_is_bit_identical_to_the_plain_entry_point() {
        let trace = patterns::migratory(4, 80);
        let cfg = RunConfig::default();
        let mut p = build(ProtocolKind::Berkeley, 4);
        let plain = run(p.as_mut(), trace.clone(), &cfg).unwrap();
        let soa = soa_of(&trace, &cfg);
        let with =
            run_soa(ProtocolKind::Berkeley, 4, &trace, &soa, &cfg, &mut NoopRecorder).unwrap();
        assert_eq!(plain.counters, with.counters);
        assert_eq!(plain.refs, with.refs);
    }

    #[test]
    fn windowed_recorder_reconstructs_final_counters() {
        // Finite caches so eviction traffic flows through the counters
        // too; instruction fetches so every record kind is covered.
        let trace = patterns::with_instr_stream(patterns::migratory(4, 120));
        let cfg = RunConfig::default().with_finite_caches(FiniteCacheConfig::new(2, 2));
        let soa = soa_of(&trace, &cfg);
        let mut rec = dircc_obs::WindowedRecorder::new(17);
        let res = run_soa(ProtocolKind::WriteOnce, 4, &trace, &soa, &cfg, &mut rec).unwrap();
        let samples = rec.into_samples();
        assert!(samples.len() > 2, "windowing at 17 refs must produce several windows");
        assert_eq!(samples.last().unwrap().end_ref, res.refs);
        let mut sum = EventCounters::new();
        for s in &samples {
            sum.merge(&s.counters);
        }
        assert_eq!(sum, res.counters, "window deltas must partition the run exactly");
        // The recorder never perturbs the run itself.
        let mut p = build(ProtocolKind::WriteOnce, 4);
        let plain = run(p.as_mut(), trace, &cfg).unwrap();
        assert_eq!(plain.counters, res.counters);
    }

    #[test]
    fn windowed_recorder_works_on_the_indexed_path() {
        use dircc_trace::gen::Profile;
        use dircc_trace::store::{TraceFilter, TraceStore};
        let store = TraceStore::new(vec![Profile::pops().with_total_refs(5_000)], 11);
        let cfg = RunConfig::default().with_process_sharing();
        let records = store.records(0, TraceFilter::Full);
        let soa = store.soa(0, TraceFilter::Full, cfg.geometry, cfg.sharing);
        let mut rec = dircc_obs::WindowedRecorder::new(512);
        let res = run_soa(ProtocolKind::Dir0B, 4, &records, &soa, &cfg, &mut rec).unwrap();
        let mut sum = EventCounters::new();
        for s in rec.samples() {
            sum.merge(&s.counters);
        }
        assert_eq!(sum, res.counters);
        assert_eq!(rec.samples().len(), 5_000usize.div_ceil(512));
    }

    #[test]
    fn sharded_replay_is_bit_identical_for_every_scheme() {
        use dircc_trace::gen::{Generator, Profile};
        let records: Vec<TraceRecord> =
            Generator::new(Profile::pops().with_total_refs(6_000), 9).collect();
        let cfg = RunConfig { verify: true, ..RunConfig::default().with_process_sharing() };
        let soa = soa_of(&records, &cfg);
        for kind in [
            ProtocolKind::DirNb { pointers: 1 },
            ProtocolKind::DirNb { pointers: 4 },
            ProtocolKind::Dir0B,
            ProtocolKind::DirB { pointers: 1 },
            ProtocolKind::CodedSet,
            ProtocolKind::Tang,
            ProtocolKind::YenFu,
            ProtocolKind::Wti,
            ProtocolKind::Dragon,
            ProtocolKind::Berkeley,
            ProtocolKind::WriteOnce,
            ProtocolKind::Firefly,
            ProtocolKind::Mesi,
        ] {
            let serial = run_soa(kind, 4, &records, &soa, &cfg, &mut NoopRecorder).unwrap();
            for shards in [1, 2, 3, 8] {
                let sharded = shard_stream(&records, &soa, shards, &cfg);
                assert_eq!(sharded.num_shards(), shards, "infinite caches honour the count");
                let res = run_sharded(kind, 4, &records, &sharded, &cfg, |_, _, _, _| ()).unwrap();
                assert_eq!(serial.counters, res.counters, "{kind} at {shards} shards");
                assert_eq!(serial.refs, res.refs);
                assert_eq!(serial.violations, res.violations);
            }
        }
    }

    #[test]
    fn set_sharded_finite_caches_are_bit_identical() {
        // Four CPUs cycling writes through 24 blocks — 6 blocks per set of
        // a 4-set × 2-way cache, so every set thrashes and evicts.
        let trace: Vec<TraceRecord> = (0..1200u64)
            .map(|i| {
                let cpu = (i % 4) as u16;
                let block = (i / 4 * 5 + i % 4) % 24;
                TraceRecord::new(
                    CpuId::new(cpu),
                    ProcessId::new(cpu),
                    if i % 3 == 0 { AccessKind::Write } else { AccessKind::Read },
                    Address::new(block * 16),
                )
            })
            .collect();
        let cfg = RunConfig {
            verify: true,
            ..RunConfig::default().with_finite_caches(FiniteCacheConfig::new(4, 2))
        };
        let soa = soa_of(&trace, &cfg);
        for kind in [ProtocolKind::Dir0B, ProtocolKind::Berkeley, ProtocolKind::Mesi] {
            let serial = run_soa(kind, 4, &trace, &soa, &cfg, &mut NoopRecorder).unwrap();
            assert!(serial.counters.cache_evictions() > 0, "exercise eviction traffic");
            for shards in [2, 3, 4, 8] {
                let sharded = shard_stream(&trace, &soa, shards, &cfg);
                assert!(sharded.num_shards() <= 4, "clamped to the set count");
                let res = run_sharded(kind, 4, &trace, &sharded, &cfg, |_, _, _, _| ()).unwrap();
                assert_eq!(serial.counters, res.counters, "{kind} at {shards} shards");
                assert_eq!(serial.violations, res.violations);
            }
        }
    }

    #[test]
    fn finite_single_set_falls_back_to_one_shard() {
        let trace = patterns::migratory(4, 40);
        let cfg = RunConfig::default().with_finite_caches(FiniteCacheConfig::new(1, 2));
        let sharded = shard_stream(&trace, &soa_of(&trace, &cfg), 8, &cfg);
        assert_eq!(sharded.num_shards(), 1);
    }

    #[test]
    fn sharded_violations_merge_in_trace_order_with_the_serial_cap() {
        // Stale violates on every access; over many blocks the violations
        // land in different shards, so this pins the cap-after-merge
        // semantics: exactly the serial run's first MAX_VIOLATIONS
        // findings, in its order.
        let trace: Vec<TraceRecord> = (0..120u64)
            .map(|i| {
                TraceRecord::new(
                    CpuId::new((i % 4) as u16),
                    ProcessId::new((i % 4) as u16),
                    if i % 3 == 0 { AccessKind::Write } else { AccessKind::Read },
                    Address::new((i % 9) * 16),
                )
            })
            .collect();
        let cfg = RunConfig::verifying(0);
        let serial = run(&mut Stale::new(), trace.clone(), &cfg).unwrap();
        assert_eq!(serial.violations.len(), MAX_VIOLATIONS);
        let soa = soa_of(&trace, &cfg);
        for shards in [2, 3, 5] {
            let sharded = shard_stream(&trace, &soa, shards, &cfg);
            let res = replay_shards(
                shards,
                |_, _, _, _| (),
                |i| {
                    let shard = &sharded.shards()[i];
                    (replay_shard(&mut Stale::new(), shard, &trace, &cfg), shard.soa.len() as u64)
                },
            )
            .unwrap();
            assert_eq!(serial.violations, res.violations, "{shards} shards");
        }
    }

    #[test]
    fn sharded_error_is_the_serial_first_error() {
        // An out-of-range CPU in the middle of the stream: whichever shard
        // it lands in, the reported error must be the serial one — text
        // pinned, original record included.
        let mut trace = patterns::migratory(4, 60);
        trace.insert(
            30,
            TraceRecord::new(CpuId::new(9), ProcessId::new(9), AccessKind::Read, Address::new(0)),
        );
        let cfg = RunConfig::default();
        let soa = soa_of(&trace, &cfg);
        let serial =
            run_soa(ProtocolKind::Dir0B, 4, &trace, &soa, &cfg, &mut NoopRecorder).unwrap_err();
        assert_eq!(
            serial,
            "reference 31: cache index 9 out of range for 4 caches (cpu9, pid9, Read at 0x0; \
             did you size the protocol for the sharing model?)"
        );
        for shards in [1, 2, 4] {
            let sharded = shard_stream(&trace, &soa, shards, &cfg);
            let err = run_sharded(ProtocolKind::Dir0B, 4, &trace, &sharded, &cfg, |_, _, _, _| ())
                .unwrap_err();
            assert_eq!(serial, err, "{shards} shards");
        }
    }

    #[test]
    fn sharded_observer_sees_every_shard_once() {
        let trace = patterns::migratory(4, 200);
        let cfg = RunConfig::default();
        let sharded = shard_stream(&trace, &soa_of(&trace, &cfg), 3, &cfg);
        let seen: Mutex<Vec<(usize, u64)>> = Mutex::new(Vec::new());
        let res =
            run_sharded(ProtocolKind::Mesi, 4, &trace, &sharded, &cfg, |shard, _, _, refs| {
                seen.lock().unwrap().push((shard, refs));
            })
            .unwrap();
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen.len(), 3);
        assert_eq!(seen.iter().map(|(s, _)| *s).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(seen.iter().map(|(_, r)| *r).sum::<u64>(), res.refs);
    }

    #[test]
    fn mismatched_partition_is_an_error() {
        let trace = patterns::migratory(4, 20);
        let cfg = RunConfig::default();
        let sharded = shard_stream(&trace, &soa_of(&trace, &cfg), 2, &cfg);
        let err = run_sharded(ProtocolKind::Dir0B, 4, &trace[1..], &sharded, &cfg, |_, _, _, _| ())
            .unwrap_err();
        assert_eq!(
            err,
            "sharded stream has 40 entries for 39 records; rebuild it from the same stream"
        );
        let process = cfg.with_process_sharing();
        let err = run_sharded(ProtocolKind::Dir0B, 4, &trace, &sharded, &process, |_, _, _, _| ())
            .unwrap_err();
        assert_eq!(
            err,
            "sharded stream was built under Processor sharing but the run uses Process; rebuild \
             it for this sharing model"
        );
    }

    #[test]
    fn violations_are_capped() {
        let trace = patterns::ping_pong(100);
        let res = run(&mut Stale::new(), trace, &RunConfig::verifying(0)).unwrap();
        assert_eq!(res.violations.len(), MAX_VIOLATIONS);
    }
}
