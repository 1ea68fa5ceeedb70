//! A deliberately naive reference replay: the engine's test oracle.
//!
//! It makes one `Protocol::access` call per record. A `HashMap` names
//! each block the first time it is seen, and that insertion is also the
//! first-reference test. Finite caches are a plain most-recent-last list
//! per (cache, set). There are no batches, no structure-of-arrays, no
//! shards and no monomorphization, so it can be checked by reading.
//! The engine's counters are pinned against it, and it is pinned against
//! the checked-in `BENCH_smoke.json` digests (`tests/reference.rs`).

use dircc_core::{Event, EventCounters, Outcome, Protocol};
use dircc_sim::RunConfig;
use dircc_trace::TraceRecord;
use dircc_types::{BlockAddr, CacheId};
use std::collections::HashMap;

/// Replays `records` through `protocol` under `cfg` (the verifier and
/// invariant cadence are ignored) and returns the final counters.
/// `after(n, counters)` sees the cumulative counters after record `n`
/// (1-based).
///
/// # Panics
///
/// Panics if a record maps to a cache the protocol does not have.
pub fn replay_observed(
    protocol: &mut dyn Protocol,
    records: &[TraceRecord],
    cfg: &RunConfig,
    mut after: impl FnMut(u64, &EventCounters),
) -> EventCounters {
    let n_caches = protocol.num_caches();
    let mut counters = EventCounters::new();
    // Original block number -> dense id; a miss here is a first reference.
    let mut names: HashMap<u64, u64> = HashMap::new();
    // Finite caches: lru[cache][set] lists (original block, dense block),
    // least recently used first.
    let mut lru: Vec<Vec<Vec<(u64, BlockAddr)>>> = match cfg.finite_cache {
        Some(fc) => vec![vec![Vec::new(); fc.sets]; n_caches],
        None => Vec::new(),
    };
    for (i, r) in records.iter().enumerate() {
        if r.is_data() {
            let cache_idx = usize::from(r.cache_index(cfg.sharing));
            assert!(cache_idx < n_caches, "record {} names cache {cache_idx}", i + 1);
            let cache = CacheId::new(cache_idx as u16);
            let orig = cfg.geometry.block_of(r.addr);
            let next = names.len() as u64;
            let first_ref = !names.contains_key(&orig.index());
            let block = BlockAddr::from_index(*names.entry(orig.index()).or_insert(next));
            counters.observe(&protocol.access(cache, r.kind, block, first_ref));

            if let Some(fc) = cfg.finite_cache {
                let set = &mut lru[cache_idx][fc.set_of(orig)];
                match set.iter().position(|&(o, _)| o == orig.index()) {
                    Some(pos) => {
                        let way = set.remove(pos);
                        set.push(way);
                    }
                    None => {
                        set.push((orig.index(), block));
                        if set.len() > fc.ways {
                            let (_, victim) = set.remove(0);
                            counters.observe_eviction(&protocol.evict(cache, victim));
                        }
                    }
                }
            }
        } else {
            counters.observe(&Outcome::quiet(Event::Instr));
        }
        after(i as u64 + 1, &counters);
    }
    counters
}

/// [`replay_observed`] without the observer.
pub fn replay(
    protocol: &mut dyn Protocol,
    records: &[TraceRecord],
    cfg: &RunConfig,
) -> EventCounters {
    replay_observed(protocol, records, cfg, |_, _| ())
}
