//! Block interning: dense ids for the blocks a trace actually touches.
//!
//! Trace addresses are sparse — whatever the generator's region layout
//! produces. Replaying through hash-mapped per-block state pays a
//! SipHash probe for every table on every reference. A [`BlockInterner`]
//! makes one pass over a stored stream and assigns each distinct block a
//! dense [`BlockId`] in first-appearance order; replay then renames blocks
//! to their dense ids, so every per-block structure (tag arrays, directory
//! entries, first-reference set, verifier tables) becomes a flat vector.
//!
//! The renaming is a bijection per (trace, geometry). Protocols only ever
//! compare blocks for identity, so dense replay produces bit-identical
//! event counts — pinned by `dircc-sim`'s interned-vs-raw equality tests.

use crate::record::TraceRecord;
use dircc_types::{BlockAddr, BlockGeometry, BlockId};
use std::collections::HashMap;

/// A dense renaming of the blocks in one (trace, geometry) stream.
#[derive(Debug, Clone)]
pub struct BlockInterner {
    geometry: BlockGeometry,
    ids: HashMap<u64, u32>,
}

impl BlockInterner {
    /// Creates an empty interner for incremental use: streaming replay
    /// interns blocks chunk by chunk via [`BlockInterner::intern`] as it
    /// first sees them, never holding the whole stream.
    pub fn new(geometry: BlockGeometry) -> Self {
        BlockInterner { geometry, ids: HashMap::new() }
    }

    /// Interns every *data* reference of `records` (instruction fetches
    /// never reach block-level state) in one pass, assigning dense ids in
    /// first-appearance order, and returns the interner together with the
    /// dense id of each record's block, aligned one-to-one with `records`
    /// (instruction fetches map to a placeholder id 0 that replay never
    /// reads). One hash probe per data reference.
    ///
    /// # Panics
    ///
    /// Panics if the stream touches more than `u32::MAX` distinct blocks.
    pub fn intern_stream(records: &[TraceRecord], geometry: BlockGeometry) -> (Self, Vec<u32>) {
        let mut interner = BlockInterner::new(geometry);
        let dense = records
            .iter()
            .map(|r| if r.is_data() { interner.intern(geometry.block_of(r.addr)).0 } else { 0 })
            .collect();
        (interner, dense)
    }

    /// Interns `block`, returning its dense id and whether this is the
    /// block's first appearance. Ids are assigned in first-appearance
    /// order, exactly as [`BlockInterner::intern_stream`] would over the
    /// same stream.
    ///
    /// # Panics
    ///
    /// Panics if the stream touches more than `u32::MAX` distinct blocks.
    #[inline]
    pub fn intern(&mut self, block: BlockAddr) -> (u32, bool) {
        let next = self.ids.len();
        let mut first = false;
        let id = *self.ids.entry(block.index()).or_insert_with(|| {
            first = true;
            u32::try_from(next).expect("more than u32::MAX distinct blocks")
        });
        (id, first)
    }

    /// The geometry the interner was built with.
    pub fn geometry(&self) -> BlockGeometry {
        self.geometry
    }

    /// Number of distinct blocks interned — the exact capacity hint for
    /// dense per-block tables.
    pub fn num_blocks(&self) -> usize {
        self.ids.len()
    }

    /// Returns the dense id of `block`, if the stream touches it.
    #[inline]
    pub fn get(&self, block: BlockAddr) -> Option<BlockId> {
        self.ids.get(&block.index()).map(|&id| BlockId::new(id))
    }

    /// Maps each record of `records` to the dense id of its block, aligned
    /// one-to-one with the input (instruction fetches map to placeholder
    /// id 0), by lookup only — for a stream drawn from one this interner
    /// has already seen.
    ///
    /// # Panics
    ///
    /// Panics if a data record's block was not interned (i.e. `records` is
    /// not drawn from the stream this interner was built over).
    pub fn dense_stream(&self, records: &[TraceRecord]) -> Vec<u32> {
        records
            .iter()
            .map(|r| {
                if !r.is_data() {
                    return 0;
                }
                let block = self.geometry.block_of(r.addr);
                self.ids
                    .get(&block.index())
                    .copied()
                    .unwrap_or_else(|| panic!("{block}: not in the interned stream"))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Generator, Profile};
    use crate::stats::TraceStats;

    fn trace() -> Vec<TraceRecord> {
        Generator::new(Profile::pops().with_total_refs(20_000), 7).collect()
    }

    #[test]
    fn ids_are_dense_and_first_appearance_ordered() {
        let records = trace();
        let geometry = BlockGeometry::PAPER;
        let (interner, _) = BlockInterner::intern_stream(&records, geometry);
        assert!(interner.num_blocks() > 0);
        assert_eq!(interner.geometry(), geometry);
        // First data record's block must be id 0; ids cover 0..n densely.
        let first_block =
            records.iter().find(|r| r.is_data()).map(|r| geometry.block_of(r.addr)).unwrap();
        assert_eq!(interner.get(first_block), Some(BlockId::new(0)));
        let mut seen = vec![false; interner.num_blocks()];
        for r in records.iter().filter(|r| r.is_data()) {
            let id = interner.get(geometry.block_of(r.addr)).expect("every data block interned");
            seen[id.index()] = true;
        }
        assert!(seen.iter().all(|&s| s), "every dense id in 0..n is used");
    }

    #[test]
    fn count_matches_trace_stats() {
        let records = trace();
        let (interner, _) = BlockInterner::intern_stream(&records, BlockGeometry::PAPER);
        let stats: TraceStats = records.iter().collect();
        assert_eq!(interner.num_blocks(), stats.distinct_data_blocks());
    }

    #[test]
    fn dense_stream_aligns_with_records() {
        let records = trace();
        let geometry = BlockGeometry::PAPER;
        let (interner, dense) = BlockInterner::intern_stream(&records, geometry);
        assert_eq!(dense.len(), records.len());
        assert_eq!(interner.dense_stream(&records), dense, "lookup agrees with the fused pass");
        for (r, &id) in records.iter().zip(&dense) {
            if r.is_data() {
                assert_eq!(interner.get(geometry.block_of(r.addr)), Some(BlockId::new(id)));
            }
        }
    }

    #[test]
    fn incremental_interning_matches_batch() {
        let records = trace();
        let geometry = BlockGeometry::PAPER;
        let (batch, _) = BlockInterner::intern_stream(&records, geometry);
        let mut inc = BlockInterner::new(geometry);
        let mut firsts = 0usize;
        for r in records.iter().filter(|r| r.is_data()) {
            let block = geometry.block_of(r.addr);
            let (id, first) = inc.intern(block);
            if first {
                firsts += 1;
            }
            assert_eq!(batch.get(block).unwrap().index(), id as usize);
        }
        assert_eq!(inc.num_blocks(), batch.num_blocks());
        assert_eq!(firsts, batch.num_blocks(), "one first-appearance per block");
    }

    #[test]
    fn unknown_block_is_none() {
        let records = trace();
        let (interner, _) = BlockInterner::intern_stream(&records, BlockGeometry::PAPER);
        assert_eq!(interner.get(BlockAddr::from_index(u64::MAX >> 5)), None);
    }
}
