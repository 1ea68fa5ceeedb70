//! Finite set-associative caches with LRU replacement.
//!
//! The headline experiments use infinite caches, but the paper notes that
//! "the performance of a system with smaller caches can be estimated to
//! first order by adding the costs due to the finite cache size".
//! [`SetAssocCache`] supports that extension: the ablation benches replay
//! traces through finite caches to measure the replacement-miss component.

use dircc_types::BlockAddr;

/// Shape of a finite cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FiniteCacheConfig {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl FiniteCacheConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a nonzero power of two or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets.is_power_of_two(), "sets must be a power of two");
        assert!(ways > 0, "ways must be nonzero");
        FiniteCacheConfig { sets, ways }
    }

    /// Total block capacity.
    pub fn capacity_blocks(&self) -> usize {
        self.sets * self.ways
    }

    /// The set `block` maps to — the same computation every
    /// [`SetAssocCache`] of this shape uses internally. Exposed so the
    /// sharded replay engine can partition a stream by set index (LRU
    /// eviction is confined to a set, so set-sharding preserves victim
    /// choice exactly).
    pub fn set_of(&self, block: BlockAddr) -> usize {
        (block.index() as usize) & (self.sets - 1)
    }

    /// Configuration for a cache of `capacity_blocks` with `ways`
    /// associativity.
    ///
    /// # Panics
    ///
    /// Panics if the implied set count is not a nonzero power of two.
    pub fn with_capacity(capacity_blocks: usize, ways: usize) -> Self {
        assert!(ways > 0 && capacity_blocks.is_multiple_of(ways), "capacity must divide by ways");
        Self::new(capacity_blocks / ways, ways)
    }
}

/// A block evicted by an insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction<S> {
    /// The evicted block.
    pub block: BlockAddr,
    /// Its state at eviction.
    pub state: S,
}

/// Result of a combined [`SetAssocCache::lookup_or_insert`] probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup<S> {
    /// The block was already resident (LRU order refreshed).
    Hit,
    /// The block was inserted, evicting the LRU way if the set was full.
    Inserted {
        /// The LRU victim, if the set was full.
        evicted: Option<Eviction<S>>,
    },
}

#[derive(Debug, Clone)]
struct Way<S> {
    block: BlockAddr,
    state: S,
    /// Larger = more recently used.
    stamp: u64,
}

/// A set-associative cache with true-LRU replacement, mapping blocks to a
/// protocol-defined state `S`.
///
/// ```
/// use dircc_cache::{FiniteCacheConfig, SetAssocCache};
/// use dircc_types::BlockAddr;
///
/// let mut c: SetAssocCache<u8> = SetAssocCache::new(FiniteCacheConfig::new(1, 2));
/// assert!(c.insert(BlockAddr::from_index(1), 0).is_none());
/// assert!(c.insert(BlockAddr::from_index(2), 0).is_none());
/// // Touch block 1 so block 2 becomes LRU.
/// c.get(BlockAddr::from_index(1));
/// let ev = c.insert(BlockAddr::from_index(3), 0).unwrap();
/// assert_eq!(ev.block, BlockAddr::from_index(2));
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache<S> {
    config: FiniteCacheConfig,
    sets: Vec<Vec<Way<S>>>,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<S> SetAssocCache<S> {
    /// Creates an empty cache.
    pub fn new(config: FiniteCacheConfig) -> Self {
        SetAssocCache {
            config,
            sets: (0..config.sets).map(|_| Vec::with_capacity(config.ways)).collect(),
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Returns the configuration.
    pub fn config(&self) -> FiniteCacheConfig {
        self.config
    }

    fn set_index(&self, block: BlockAddr) -> usize {
        self.config.set_of(block)
    }

    /// Looks up a block, updating LRU order and hit/miss statistics.
    pub fn get(&mut self, block: BlockAddr) -> Option<&mut S> {
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_index(block);
        let found = self.sets[set].iter_mut().find(|w| w.block == block);
        match found {
            Some(w) => {
                w.stamp = clock;
                self.hits += 1;
                Some(&mut w.state)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Looks up a block without touching LRU order or statistics.
    pub fn peek(&self, block: BlockAddr) -> Option<&S> {
        let set = self.set_index(block);
        self.sets[set].iter().find(|w| w.block == block).map(|w| &w.state)
    }

    /// Inserts (or overwrites) a block, returning the LRU eviction if the
    /// set was full. Overwriting an existing block never evicts.
    pub fn insert(&mut self, block: BlockAddr, state: S) -> Option<Eviction<S>> {
        self.clock += 1;
        let clock = self.clock;
        let set_idx = self.set_index(block);
        let ways = self.config.ways;
        let set = &mut self.sets[set_idx];
        if let Some(w) = set.iter_mut().find(|w| w.block == block) {
            w.state = state;
            w.stamp = clock;
            return None;
        }
        let evicted = if set.len() == ways {
            let lru = set
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.stamp)
                .map(|(i, _)| i)
                .expect("nonempty set");
            let w = set.swap_remove(lru);
            self.evictions += 1;
            Some(Eviction { block: w.block, state: w.state })
        } else {
            None
        };
        set.push(Way { block, state, stamp: clock });
        evicted
    }

    /// Combined probe: looks `block` up and, on a miss, inserts it with
    /// `state` — walking the set once instead of the `get` + `insert`
    /// double walk. Statistics and LRU stamps are updated exactly as the
    /// two-call sequence would (the miss path advances the clock twice so
    /// replacement order is bit-identical to `get` followed by `insert`).
    pub fn lookup_or_insert(&mut self, block: BlockAddr, state: S) -> Lookup<S> {
        self.clock += 1;
        let clock = self.clock;
        let set_idx = self.set_index(block);
        let ways = self.config.ways;
        let set = &mut self.sets[set_idx];
        if let Some(w) = set.iter_mut().find(|w| w.block == block) {
            w.stamp = clock;
            self.hits += 1;
            return Lookup::Hit;
        }
        self.misses += 1;
        self.clock += 1;
        let clock = self.clock;
        let evicted = if set.len() == ways {
            let lru = set
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.stamp)
                .map(|(i, _)| i)
                .expect("nonempty set");
            let w = set.swap_remove(lru);
            self.evictions += 1;
            Some(Eviction { block: w.block, state: w.state })
        } else {
            None
        };
        set.push(Way { block, state, stamp: clock });
        Lookup::Inserted { evicted }
    }

    /// Removes a block (e.g. an invalidation), returning its state.
    pub fn remove(&mut self, block: BlockAddr) -> Option<S> {
        let set_idx = self.set_index(block);
        let set = &mut self.sets[set_idx];
        let pos = set.iter().position(|w| w.block == block)?;
        Some(set.swap_remove(pos).state)
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Returns `true` if no blocks are resident.
    pub fn is_empty(&self) -> bool {
        self.sets.iter().all(Vec::is_empty)
    }

    /// Lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Capacity evictions so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }

    #[test]
    fn hit_after_insert() {
        let mut c: SetAssocCache<u8> = SetAssocCache::new(FiniteCacheConfig::new(4, 2));
        assert!(c.get(b(1)).is_none());
        c.insert(b(1), 7);
        assert_eq!(c.get(b(1)), Some(&mut 7));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c: SetAssocCache<()> = SetAssocCache::new(FiniteCacheConfig::new(1, 3));
        c.insert(b(1), ());
        c.insert(b(2), ());
        c.insert(b(3), ());
        c.get(b(1)); // order now: 2 (LRU), 3, 1
        let ev = c.insert(b(4), ()).unwrap();
        assert_eq!(ev.block, b(2));
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn same_set_conflicts_only() {
        // 2 sets: even blocks to set 0, odd to set 1.
        let mut c: SetAssocCache<()> = SetAssocCache::new(FiniteCacheConfig::new(2, 1));
        c.insert(b(0), ());
        c.insert(b(1), ());
        assert_eq!(c.len(), 2, "different sets don't conflict");
        let ev = c.insert(b(2), ()).unwrap();
        assert_eq!(ev.block, b(0), "same-set block evicted");
    }

    #[test]
    fn overwrite_does_not_evict() {
        let mut c: SetAssocCache<u8> = SetAssocCache::new(FiniteCacheConfig::new(1, 1));
        c.insert(b(1), 1);
        assert!(c.insert(b(1), 2).is_none());
        assert_eq!(c.peek(b(1)), Some(&2));
    }

    #[test]
    fn remove_invalidates() {
        let mut c: SetAssocCache<u8> = SetAssocCache::new(FiniteCacheConfig::new(1, 2));
        c.insert(b(1), 9);
        assert_eq!(c.remove(b(1)), Some(9));
        assert_eq!(c.remove(b(1)), None);
        assert!(c.is_empty());
    }

    #[test]
    fn peek_does_not_disturb_lru() {
        let mut c: SetAssocCache<()> = SetAssocCache::new(FiniteCacheConfig::new(1, 2));
        c.insert(b(1), ());
        c.insert(b(2), ());
        assert!(c.peek(b(1)).is_some());
        // LRU is still block 1 because peek didn't touch it.
        let ev = c.insert(b(3), ()).unwrap();
        assert_eq!(ev.block, b(1));
    }

    #[test]
    fn with_capacity_config() {
        let cfg = FiniteCacheConfig::with_capacity(1024, 4);
        assert_eq!(cfg.sets, 256);
        assert_eq!(cfg.capacity_blocks(), 1024);
    }

    #[test]
    fn set_of_matches_residency() {
        // Blocks whose set_of agree conflict; others never do.
        let cfg = FiniteCacheConfig::new(4, 1);
        assert_eq!(cfg.set_of(b(5)), 1);
        assert_eq!(cfg.set_of(b(9)), 1);
        assert_eq!(cfg.set_of(b(6)), 2);
        let mut c: SetAssocCache<()> = SetAssocCache::new(cfg);
        c.insert(b(5), ());
        let ev = c.insert(b(9), ()).expect("same set evicts");
        assert_eq!(ev.block, b(5));
        assert!(c.insert(b(6), ()).is_none(), "different set never conflicts");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_sets_rejected() {
        let _ = FiniteCacheConfig::new(3, 1);
    }

    #[test]
    fn lookup_or_insert_matches_get_then_insert() {
        // Replay the same access sequence through the single-probe path
        // and the historical get+insert double walk; every observable
        // (hits, misses, evictions, eviction victims) must agree.
        let cfg = FiniteCacheConfig::new(2, 2);
        let mut single: SetAssocCache<u64> = SetAssocCache::new(cfg);
        let mut double: SetAssocCache<u64> = SetAssocCache::new(cfg);
        // A deterministic thrashing sequence with revisits.
        let seq: Vec<u64> = (0..200).map(|i| (i * 7 + i / 3) % 11).collect();
        for (i, &blk) in seq.iter().enumerate() {
            let expected =
                if double.get(b(blk)).is_none() { double.insert(b(blk), i as u64) } else { None };
            let got = match single.lookup_or_insert(b(blk), i as u64) {
                Lookup::Hit => None,
                Lookup::Inserted { evicted } => evicted,
            };
            assert_eq!(got, expected, "step {i} block {blk}");
        }
        assert_eq!(single.hits(), double.hits());
        assert_eq!(single.misses(), double.misses());
        assert_eq!(single.evictions(), double.evictions());
        assert_eq!(single.len(), double.len());
    }
}
