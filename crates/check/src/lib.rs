//! # dircc-check
//!
//! Bounded exhaustive state-space exploration of the dircc coherence
//! protocols.
//!
//! The replay-time `Verifier` in `dircc-sim` can only witness states the
//! synthetic traces happen to reach. This crate instead enumerates *every*
//! interleaving of `{read, write, evict} × N cpus × M blocks` up to a
//! depth bound — breadth-first, deduplicating canonicalized states — and
//! asserts at every transition:
//!
//! * **SWMR** — after a write under an invalidation protocol, the writer
//!   holds the only copy (no readers alongside a writable copy);
//! * **directory/cache agreement** — every protocol's own
//!   [`Protocol::check_invariants`] (pointer sets, dirty bits, broadcast
//!   bits and coded sets versus the actual cache contents);
//! * **data-value coherence** — the version-tag technique of the sim
//!   `Verifier`, mirrored transition-for-transition: reads must observe
//!   the latest version, misses must be supplied current data from the
//!   correct source, write-backs must refresh memory;
//! * **classification** — a first reference must be classified
//!   `FirstRef` and vice versa;
//! * **cost sanity** — every emitted outcome prices to finite,
//!   nonnegative cycle counts under both paper bus models.
//!
//! A violation is reported as a [`Counterexample`]: the exact (minimal,
//! by BFS order) op sequence from the initial state, replayable with
//! [`replay`].
//!
//! The state key includes the protocol's canonical encoding
//! ([`Protocol::encode_state`]), the first-reference set, and the full
//! version tables, so dedup never merges states the checker could still
//! distinguish. Keys are stored packed in an exact arena-backed set:
//! membership is decided by full byte equality, never by a hash alone.

use dircc_bus::{price, CostConfig, CostModel};
use dircc_core::{
    dispatch, CoherenceStyle, Event, EventCounters, Protocol, ProtocolKind, ProtocolVisitor,
};
use dircc_types::{AccessKind, BlockAddr, CacheId};
use keyset::KeySet;
use std::fmt;

mod keyset;
#[cfg(test)]
mod oracle;

/// Exploration bounds: the op alphabet is
/// `{read, write, evict} × cpus × blocks` and every sequence of up to
/// `depth` ops is covered (modulo state dedup).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckConfig {
    /// Number of cpus (= caches) issuing ops.
    pub cpus: usize,
    /// Number of distinct blocks the ops touch.
    pub blocks: usize,
    /// Maximum op-sequence length.
    pub depth: usize,
}

impl Default for CheckConfig {
    /// The `dircc check` defaults: 3 cpus × 2 blocks × depth 8.
    fn default() -> Self {
        CheckConfig { cpus: 3, blocks: 2, depth: 8 }
    }
}

impl CheckConfig {
    /// A reduced configuration for CI smoke runs (seconds, not minutes).
    pub fn smoke() -> Self {
        CheckConfig { cpus: 2, blocks: 2, depth: 6 }
    }
}

/// What a single op does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Data read by a cpu.
    Read,
    /// Data write by a cpu.
    Write,
    /// Finite-cache replacement of a held block.
    Evict,
}

/// One step of an exploration path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// The acting cpu/cache.
    pub cache: CacheId,
    /// Read, write or evict.
    pub kind: OpKind,
    /// The block acted on.
    pub block: BlockAddr,
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let k = match self.kind {
            OpKind::Read => 'R',
            OpKind::Write => 'W',
            OpKind::Evict => 'E',
        };
        write!(f, "C{} {k} b{}", self.cache.raw(), self.block.index())
    }
}

/// A minimal failing op sequence plus the invariant it violates.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Ops from the initial (empty) state, in order; the last op
    /// triggers the violation.
    pub ops: Vec<Op>,
    /// Human-readable description of the violated invariant.
    pub violation: String,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for op in &self.ops {
            if !first {
                f.write_str("; ")?;
            }
            write!(f, "{op}")?;
            first = false;
        }
        write!(f, " -> {}", self.violation)
    }
}

/// The result of exploring one scheme.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Paper-style scheme name (resolved against the cpu count).
    pub name: String,
    /// The taxonomy point checked.
    pub kind: ProtocolKind,
    /// Deduplicated reachable states (including the initial state).
    pub states: u64,
    /// Transitions taken (every op applied to every frontier state).
    pub transitions: u64,
    /// Bytes of packed state keys the explorer stored, one entry per
    /// distinct state.
    pub arena_bytes: u64,
    /// `None` if every invariant held at every reachable state.
    pub counterexample: Option<Counterexample>,
}

impl CheckReport {
    /// Did every reachable state satisfy every invariant?
    pub fn passed(&self) -> bool {
        self.counterexample.is_none()
    }
}

/// The 12 protocol kinds `dircc check` explores by default: one point
/// per scheme family (`DirNb { 1 }` stands for the limited-pointer
/// family; the full map is Tang's state model).
pub fn default_kinds() -> [ProtocolKind; 12] {
    [
        ProtocolKind::DirNb { pointers: 1 },
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
    ]
}

/// The value model's tables as [`step`] reads and writes them: the
/// explorer's flat [`Values`] and the test oracle's nested rows both
/// implement it.
trait ValueModel {
    /// Latest version of block `b`.
    fn version(&mut self, b: usize) -> &mut u64;
    /// Version of block `b` main memory holds.
    fn memory(&mut self, b: usize) -> &mut u64;
    /// Version of block `b` cache `c` last observed.
    fn copy(&mut self, c: usize, b: usize) -> &mut u64;
}

/// The sim `Verifier`'s version tables, mirrored exactly: a global
/// version per block bumped on every write, the version memory holds,
/// and the version each cache's copy last observed. Stale entries are
/// kept (not masked) just as the engine keeps them.
///
/// One vector laid out `version | memory | copy[0] | copy[1] | …`, each
/// section `blocks` words long, so forking a state is one allocation and
/// its key encoding one copy.
#[derive(Debug, Clone)]
struct Values {
    blocks: usize,
    words: Vec<u64>,
}

impl Values {
    fn new(cpus: usize, blocks: usize) -> Self {
        Values { blocks, words: vec![0; (2 + cpus) * blocks] }
    }

    fn encode(&self, out: &mut Vec<u64>) {
        out.extend_from_slice(&self.words);
    }
}

impl ValueModel for Values {
    fn version(&mut self, b: usize) -> &mut u64 {
        debug_assert!(b < self.blocks);
        &mut self.words[b]
    }

    fn memory(&mut self, b: usize) -> &mut u64 {
        debug_assert!(b < self.blocks);
        &mut self.words[self.blocks + b]
    }

    fn copy(&mut self, c: usize, b: usize) -> &mut u64 {
        debug_assert!(b < self.blocks);
        &mut self.words[(2 + c) * self.blocks + b]
    }
}

/// Writes a state's dedup key into `key` (cleared first): the protocol's
/// canonical encoding, the first-reference set, then the version tables.
fn encode_key<P: Protocol>(protocol: &P, values: &Values, seen: u64, key: &mut Vec<u64>) {
    key.clear();
    protocol.encode_state(key);
    key.push(seen);
    values.encode(key);
}

/// Prices `counters` under both paper bus models and reports the first
/// non-finite or negative cycle count.
fn check_costs(
    kind: ProtocolKind,
    n_caches: usize,
    counters: &EventCounters,
) -> Result<(), String> {
    for model in CostModel::paper_pair() {
        let breakdown = price(kind, n_caches, counters, &model, &CostConfig::PAPER);
        for (label, cycles) in breakdown.rows() {
            if !cycles.is_finite() || cycles < 0.0 {
                return Err(format!("cost row '{label}' is {cycles} under {model:?}"));
            }
        }
    }
    Ok(())
}

/// Applies `op` to `protocol`/`values`/`seen` and checks every invariant,
/// mirroring the engine's `verify_access` transition-for-transition.
fn step<P: Protocol + ?Sized>(
    protocol: &mut P,
    values: &mut impl ValueModel,
    seen: &mut u64,
    op: Op,
) -> Result<(), String> {
    let b = op.block.index() as usize;
    let c = op.cache.index();
    let kind = protocol.kind();
    let n = protocol.num_caches();
    let mut counters = EventCounters::new();

    if op.kind == OpKind::Evict {
        let held = protocol.holders(op.block).contains(op.cache);
        let evo = protocol.evict(op.cache, op.block);
        counters.observe_eviction(&evo);
        if !held && (evo.write_back || evo.control_messages != 0) {
            return Err(format!("eviction of a non-held block cost {evo:?}"));
        }
        if protocol.holders(op.block).contains(op.cache) {
            return Err(format!("{} still holds b{b} after evicting it", op.cache));
        }
        if evo.write_back {
            // The evicted copy holds the latest data in every protocol
            // that answers WRITE_BACK (engine rule).
            *values.memory(b) = *values.copy(c, b);
            let (written, latest) = (*values.memory(b), *values.version(b));
            if written != latest {
                return Err(format!(
                    "eviction wrote back version {written} of b{b}, latest is {latest}"
                ));
            }
        }
    } else {
        let access = match op.kind {
            OpKind::Read => AccessKind::Read,
            OpKind::Write => AccessKind::Write,
            OpKind::Evict => unreachable!("handled above"),
        };
        let first_ref = *seen & (1 << b) == 0;
        *seen |= 1 << b;
        let out = protocol.access(op.cache, access, op.block, first_ref);
        counters.observe(&out);
        if out.event.is_miss() && out.event.is_first_ref() != first_ref {
            return Err(format!(
                "first_ref={first_ref} but the miss was classified {}",
                out.event.label()
            ));
        }
        if first_ref && !out.event.is_miss() {
            return Err(format!("first reference classified as a hit ({})", out.event.label()));
        }
        let holders = protocol.holders(op.block);
        if !holders.contains(op.cache) {
            return Err(format!("{} accessed b{b} but is not a holder afterwards", op.cache));
        }
        match access {
            AccessKind::Write => {
                let new_ver = *values.version(b) + 1;
                *values.version(b) = new_ver;
                *values.copy(c, b) = new_ver;
                if out.memory_updated {
                    *values.memory(b) = new_ver;
                }
                match protocol.style() {
                    CoherenceStyle::Update => {
                        // Updates reach every current holder.
                        for h in holders.iter() {
                            *values.copy(h.index(), b) = new_ver;
                        }
                    }
                    CoherenceStyle::Invalidate => {
                        // Single-writer: no other copy survives a write.
                        if holders.len() != 1 {
                            return Err(format!(
                                "invalidation protocol left {} copies of b{b} after a write",
                                holders.len()
                            ));
                        }
                    }
                }
            }
            AccessKind::Read => {
                let cur = *values.version(b);
                match out.event {
                    Event::ReadHit => {
                        let held = *values.copy(c, b);
                        if held != cur {
                            return Err(format!(
                                "read hit observed version {held} of b{b}, latest is {cur}"
                            ));
                        }
                    }
                    Event::ReadMiss(_) => {
                        if out.memory_updated {
                            *values.memory(b) = cur;
                        }
                        let supplied = if out.cache_supplied || out.write_back {
                            cur
                        } else {
                            *values.memory(b)
                        };
                        if supplied != cur {
                            return Err(format!(
                                "miss on b{b} supplied version {supplied}, latest is {cur}"
                            ));
                        }
                        *values.copy(c, b) = supplied;
                    }
                    other => return Err(format!("read classified as {}", other.label())),
                }
            }
            AccessKind::InstrFetch => unreachable!("the op alphabet has no instruction fetches"),
        }
    }

    check_costs(kind, n, &counters)?;
    protocol.check_invariants().map_err(|e| format!("invariant violation: {e}"))
}

/// Checks `cfg` against a protocol with `n_caches` caches.
///
/// # Panics
///
/// Panics if `cfg.cpus`/`cfg.blocks` is 0, `cfg.cpus` exceeds
/// `n_caches`, or `cfg.blocks` exceeds the 64-bit first-reference mask.
fn assert_bounds(cfg: &CheckConfig, n_caches: usize) {
    assert!(cfg.cpus >= 1 && cfg.blocks >= 1, "need at least one cpu and block");
    assert!(cfg.cpus <= n_caches, "more cpus than caches");
    assert!(cfg.blocks <= 64, "the first-reference set is a 64-bit mask");
}

/// The op alphabet in exploration order: by cpu, then read, write,
/// evict, then by block.
fn op_alphabet(cfg: &CheckConfig) -> Vec<Op> {
    let mut ops = Vec::with_capacity(cfg.cpus * 3 * cfg.blocks);
    for cache in 0..cfg.cpus {
        for kind in [OpKind::Read, OpKind::Write, OpKind::Evict] {
            for block in 0..cfg.blocks {
                ops.push(Op {
                    cache: CacheId::new(cache as u16),
                    kind,
                    block: BlockAddr::from_index(block as u64),
                });
            }
        }
    }
    ops
}

/// One BFS frontier node: protocol state, value model, first-reference
/// set, and the node's state id (its row in the parent table).
struct Node<P> {
    protocol: P,
    values: Values,
    seen: u64,
    id: u32,
}

/// The op sequence that first reached state `id`, rebuilt by walking
/// `parents` (`(parent id, op index)` per state id) back to the initial
/// state, id 0.
fn path_to(parents: &[(u32, u32)], ops: &[Op], mut id: u32) -> Vec<Op> {
    let mut path = Vec::new();
    while id != 0 {
        let (parent, op) = parents[id as usize];
        path.push(ops[op as usize]);
        id = parent;
    }
    path.reverse();
    path
}

/// Explores `initial` under `cfg`: every op sequence up to `cfg.depth`,
/// breadth-first, with states deduplicated by their full key. The
/// protocol must implement [`Protocol::evict`].
///
/// Monomorphized per protocol type: a fork is `P::clone` plus one value
/// table, a duplicate successor allocates nothing, and each new state
/// stores only its packed key and a `(parent id, op)` row.
///
/// # Panics
///
/// Panics if `cfg.cpus`/`cfg.blocks` is 0, `cfg.cpus` exceeds the
/// protocol's cache count, `cfg.blocks` exceeds 64, or the exploration
/// outgrows the 32-bit state ids or key-arena offsets.
pub fn explore<P: Protocol + Clone>(initial: P, cfg: &CheckConfig) -> CheckReport {
    assert_bounds(cfg, initial.num_caches());
    let name = initial.name();
    let kind = initial.kind();
    let ops = op_alphabet(cfg);

    let values = Values::new(cfg.cpus, cfg.blocks);
    let mut key = Vec::new();
    let mut visited = KeySet::new();
    encode_key(&initial, &values, 0, &mut key);
    visited.insert(&key);
    // Row `id`: the state `id` was first reached from, and the index of
    // the op that reached it (the initial state's row is never read).
    let mut parents: Vec<(u32, u32)> = vec![(0, 0)];
    let mut frontier = vec![Node { protocol: initial, values, seen: 0, id: 0 }];
    let mut transitions = 0u64;
    let mut counterexample = None;

    'bfs: for _ in 0..cfg.depth {
        let mut next = Vec::new();
        for node in &frontier {
            for (op_index, &op) in (0u32..).zip(&ops) {
                // Evicting a non-held block is a silent no-op (a self
                // loop): skip it instead of exploring it.
                if op.kind == OpKind::Evict && !node.protocol.holders(op.block).contains(op.cache) {
                    continue;
                }
                transitions += 1;
                let mut protocol = node.protocol.clone();
                let mut values = node.values.clone();
                let mut seen = node.seen;
                if let Err(violation) = step(&mut protocol, &mut values, &mut seen, op) {
                    let mut ops = path_to(&parents, &ops, node.id);
                    ops.push(op);
                    counterexample = Some(Counterexample { ops, violation });
                    break 'bfs;
                }
                encode_key(&protocol, &values, seen, &mut key);
                if visited.insert(&key) {
                    let id = u32::try_from(parents.len())
                        .expect("more reachable states than 32-bit state ids address");
                    parents.push((node.id, op_index));
                    next.push(Node { protocol, values, seen, id });
                }
            }
        }
        frontier = next;
        if frontier.is_empty() {
            break; // closed under the op alphabet before the depth bound
        }
    }

    CheckReport {
        name,
        kind,
        states: visited.len() as u64,
        transitions,
        arena_bytes: visited.arena_bytes() as u64,
        counterexample,
    }
}

/// [`explore`] as a [`ProtocolVisitor`], so [`check_protocol`] runs it on
/// the concrete scheme type.
struct Explore<'a>(&'a CheckConfig);

impl ProtocolVisitor for Explore<'_> {
    type Output = CheckReport;

    fn visit<P: Protocol + Clone>(self, protocol: P) -> CheckReport {
        explore(protocol, self.0)
    }
}

/// Explores one taxonomy point built over `cfg.cpus` caches.
pub fn check_protocol(kind: ProtocolKind, cfg: &CheckConfig) -> CheckReport {
    dispatch(kind, cfg.cpus, Explore(cfg))
}

/// Re-runs a counterexample's op sequence on a fresh protocol instance,
/// returning the violation it reproduces (`None` if every op passes —
/// which, for a genuine counterexample, indicates nondeterminism).
pub fn replay(mut protocol: Box<dyn Protocol>, cpus: usize, ops: &[Op]) -> Option<String> {
    let blocks = ops.iter().map(|op| op.block.index() as usize + 1).max().unwrap_or(1);
    let mut values = Values::new(cpus.max(protocol.num_caches()), blocks);
    let mut seen = 0u64;
    for op in ops {
        if let Err(violation) = step(protocol.as_mut(), &mut values, &mut seen, *op) {
            return Some(violation);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use dircc_cache::CacheArray;
    use dircc_core::event::EvictOutcome;
    use dircc_core::snoopy::Berkeley;
    use dircc_core::Outcome;
    use dircc_types::CacheIdSet;

    fn smoke() -> CheckConfig {
        CheckConfig { cpus: 2, blocks: 2, depth: 5 }
    }

    #[test]
    fn every_default_kind_passes_the_smoke_config() {
        for kind in default_kinds() {
            let report = check_protocol(kind, &smoke());
            assert!(
                report.passed(),
                "{}: {}",
                report.name,
                report.counterexample.expect("failed report has a counterexample")
            );
            assert!(report.states > 50, "{}: only {} states", report.name, report.states);
        }
    }

    #[test]
    fn exploration_is_deterministic() {
        let a = check_protocol(ProtocolKind::Mesi, &smoke());
        let b = check_protocol(ProtocolKind::Mesi, &smoke());
        assert_eq!(a.states, b.states);
        assert_eq!(a.transitions, b.transitions);
    }

    #[test]
    fn op_and_counterexample_render_readably() {
        let ce = Counterexample {
            ops: vec![
                Op { cache: CacheId::new(0), kind: OpKind::Write, block: BlockAddr::from_index(0) },
                Op { cache: CacheId::new(1), kind: OpKind::Read, block: BlockAddr::from_index(1) },
                Op { cache: CacheId::new(1), kind: OpKind::Evict, block: BlockAddr::from_index(1) },
            ],
            violation: "boom".to_string(),
        };
        assert_eq!(ce.to_string(), "C0 W b0; C1 R b1; C1 E b1 -> boom");
    }

    /// A deliberately broken protocol: writes never invalidate the other
    /// copies (it claims a write-through update that never happens), so
    /// stale readers survive.
    #[derive(Debug, Clone)]
    struct NeverInvalidates {
        caches: CacheArray<()>,
    }

    impl Protocol for NeverInvalidates {
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
            let ctx = if first_ref { MissContext::FirstRef } else { MissContext::MemoryOnly };
            self.caches.set(cache, block, ());
            // Bug: other holders keep their (now stale) copies, and the
            // write claims memory was updated without touching them.
            match (kind, hit) {
                (AccessKind::Read, true) => Outcome::quiet(Event::ReadHit),
                (AccessKind::Read, false) => Outcome::quiet(Event::ReadMiss(ctx)),
                (AccessKind::Write, true) => {
                    let mut out = Outcome::quiet(Event::WriteHit(WriteHitContext::Dirty));
                    out.memory_updated = true;
                    out
                }
                (AccessKind::Write, false) => {
                    let mut out = Outcome::quiet(Event::WriteMiss(ctx));
                    out.memory_updated = true;
                    out
                }
                (AccessKind::InstrFetch, _) => unreachable!(),
            }
        }
        fn evict(&mut self, cache: CacheId, block: BlockAddr) -> EvictOutcome {
            self.caches.remove(cache, block);
            EvictOutcome::SILENT
        }
        fn holders(&self, block: BlockAddr) -> CacheIdSet {
            self.caches.holders(block)
        }
        fn check_invariants(&self) -> Result<(), String> {
            self.caches.check_residency()
        }
        fn encode_state(&self, out: &mut Vec<u64>) {
            self.caches.encode_states(out, |()| 0);
        }
    }

    #[test]
    fn broken_protocol_yields_a_minimal_replayable_counterexample() {
        let cfg = CheckConfig::default();
        let broken = NeverInvalidates { caches: CacheArray::new(cfg.cpus) };
        let report = explore(broken.clone(), &cfg);
        oracle::assert_same(&report, &oracle::explore_reference(broken, &cfg));
        let ce = report.counterexample.expect("the broken protocol must fail");
        assert!(ce.ops.len() <= cfg.depth, "counterexample longer than the depth bound");
        // SWMR breaks as soon as a writer leaves a second copy alive:
        // minimal sequences are 2 ops (e.g. C0 R b0; C1 W b0).
        assert_eq!(ce.ops.len(), 2, "BFS must find the shortest sequence: {ce}");
        let replayed = replay(
            Box::new(NeverInvalidates { caches: CacheArray::new(cfg.cpus) }),
            cfg.cpus,
            &ce.ops,
        )
        .expect("replay reproduces the violation");
        assert_eq!(replayed, ce.violation);
    }

    /// A protocol that silently loses dirty data on eviction: the value
    /// model (not SWMR) must catch the stale re-read.
    #[derive(Debug, Clone)]
    struct DropsDirtyData {
        inner: Berkeley,
    }

    impl DropsDirtyData {
        fn new(cpus: usize) -> Self {
            DropsDirtyData { inner: Berkeley::new(cpus) }
        }
    }

    impl Protocol for DropsDirtyData {
        fn kind(&self) -> ProtocolKind {
            self.inner.kind()
        }
        fn num_caches(&self) -> usize {
            self.inner.num_caches()
        }
        fn access(
            &mut self,
            cache: CacheId,
            kind: AccessKind,
            block: BlockAddr,
            first_ref: bool,
        ) -> Outcome {
            self.inner.access(cache, kind, block, first_ref)
        }
        fn evict(&mut self, cache: CacheId, block: BlockAddr) -> EvictOutcome {
            // Bug: the dirty owner drops its copy without writing back.
            let mut out = self.inner.evict(cache, block);
            out.write_back = false;
            out
        }
        fn holders(&self, block: BlockAddr) -> CacheIdSet {
            self.inner.holders(block)
        }
        fn check_invariants(&self) -> Result<(), String> {
            self.inner.check_invariants()
        }
        fn encode_state(&self, out: &mut Vec<u64>) {
            self.inner.encode_state(out);
        }
    }

    #[test]
    fn lost_write_back_is_caught_by_the_value_model() {
        let cfg = CheckConfig::default();
        let report = explore(DropsDirtyData::new(cfg.cpus), &cfg);
        oracle::assert_same(
            &report,
            &oracle::explore_reference(DropsDirtyData::new(cfg.cpus), &cfg),
        );
        let ce = report.counterexample.expect("dropping dirty data must fail");
        // W, E, then a re-read misses against stale memory: 3 ops.
        assert_eq!(ce.ops.len(), 3, "{ce}");
        assert!(ce.violation.contains("supplied version"), "{ce}");
        let replayed = replay(Box::new(DropsDirtyData::new(cfg.cpus)), cfg.cpus, &ce.ops)
            .expect("replay reproduces the violation");
        assert_eq!(replayed, ce.violation);
    }
}
