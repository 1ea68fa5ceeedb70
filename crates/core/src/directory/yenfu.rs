//! The Yen & Fu single-bit refinement of the Censier-Feautrier full map.
//!
//! "The central directory is unchanged, but in addition to the valid and
//! dirty bits, a flag called the *single* bit is associated with each block
//! in the caches. A cache block's single bit is set if and only if that
//! cache is the only one in the system that contains the block. This saves
//! having to complete a directory access before writing to a clean block
//! that is not cached elsewhere. The major drawback of this scheme is that
//! extra bus bandwidth is consumed to keep the single bits updated."
//!
//! Implementation: state transitions delegate to the full map
//! ([`DirNb`]); this wrapper adds the single-bit maintenance traffic (one
//! bus message whenever a block's sole holder gains a companion, clearing
//! the old holder's single bit). The *benefit* — no directory check on a
//! write hit to a clean exclusive block — is a cost-model property handled
//! by the bus crate's Yen-Fu schema.

use super::dir_nb::DirNb;
use crate::event::{Event, MissContext, Outcome};
use crate::protocol::{Protocol, ProtocolKind};
use dircc_types::{AccessKind, BlockAddr, CacheId, CacheIdSet};

/// The Yen & Fu full-map directory protocol with per-cache single bits.
///
/// ```
/// use dircc_core::directory::YenFu;
/// use dircc_core::Protocol;
///
/// assert_eq!(YenFu::new(4).name(), "YenFu");
/// ```
#[derive(Debug, Clone)]
pub struct YenFu {
    inner: DirNb,
}

impl YenFu {
    /// Creates a Yen-Fu protocol over `n_caches` caches.
    ///
    /// # Panics
    ///
    /// Panics if `n_caches` is out of `1..=64`.
    pub fn new(n_caches: usize) -> Self {
        YenFu { inner: DirNb::full_map(n_caches) }
    }

    /// Returns `true` if `cache`'s copy of `block` would have its single
    /// bit set (it is the sole holder).
    pub fn single_bit(&self, cache: CacheId, block: BlockAddr) -> bool {
        self.inner.holders(block).sole() == Some(cache)
    }
}

impl Protocol for YenFu {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::YenFu
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
        let holders_before = self.inner.holders(block);
        let mut out = self.inner.access(cache, kind, block, first_ref);
        // Single-bit maintenance: when a clean sole holder gains a
        // companion, a bus message clears the old holder's single bit. A
        // dirty sole holder is reached by the flush request anyway, so no
        // extra message is charged for that transition.
        if matches!(out.event, Event::ReadMiss(MissContext::CleanElsewhere { copies: 1 }))
            && holders_before.sole().is_some()
        {
            out.aux_messages += 1;
        }
        out
    }

    fn evict(&mut self, cache: CacheId, block: BlockAddr) -> crate::event::EvictOutcome {
        self.inner.evict(cache, block)
    }

    fn reserve_blocks(&mut self, blocks: usize) {
        self.inner.reserve_blocks(blocks);
    }

    fn holders(&self, block: BlockAddr) -> CacheIdSet {
        self.inner.holders(block)
    }

    fn check_invariants(&self) -> Result<(), String> {
        self.inner.check_invariants()
    }

    fn encode_state(&self, out: &mut Vec<u64>) {
        // The single bit is derived from the holder set, so the full-map
        // state is the complete state.
        self.inner.encode_state(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::WriteHitContext;

    fn b(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }
    fn read(p: &mut YenFu, cache: u16, blk: u64, first: bool) -> Outcome {
        p.access(CacheId::new(cache), AccessKind::Read, b(blk), first)
    }
    fn write(p: &mut YenFu, cache: u16, blk: u64, first: bool) -> Outcome {
        p.access(CacheId::new(cache), AccessKind::Write, b(blk), first)
    }

    #[test]
    fn single_bit_reflects_sole_ownership() {
        let mut p = YenFu::new(4);
        read(&mut p, 0, 1, true);
        assert!(p.single_bit(CacheId::new(0), b(1)));
        read(&mut p, 1, 1, false);
        assert!(!p.single_bit(CacheId::new(0), b(1)));
        assert!(!p.single_bit(CacheId::new(1), b(1)));
    }

    #[test]
    fn second_clean_sharer_costs_a_single_bit_update() {
        let mut p = YenFu::new(4);
        read(&mut p, 0, 1, true);
        let o = read(&mut p, 1, 1, false);
        assert_eq!(o.aux_messages, 1, "old sole holder's single bit cleared");
        let o = read(&mut p, 2, 1, false);
        assert_eq!(o.aux_messages, 0, "no single bit left to clear");
    }

    #[test]
    fn dirty_handoff_needs_no_extra_single_bit_message() {
        let mut p = YenFu::new(4);
        write(&mut p, 0, 1, true);
        let o = read(&mut p, 1, 1, false);
        assert_eq!(o.aux_messages, 0, "flush request reaches the owner anyway");
        assert!(o.write_back);
    }

    #[test]
    fn state_transitions_match_full_map() {
        let mut yf = YenFu::new(4);
        let mut fm = DirNb::full_map(4);
        let script: &[(u16, AccessKind, u64, bool)] = &[
            (0, AccessKind::Read, 1, true),
            (1, AccessKind::Read, 1, false),
            (2, AccessKind::Write, 1, false),
            (0, AccessKind::Read, 1, false),
            (0, AccessKind::Write, 1, false),
        ];
        for &(cache, kind, blk, first) in script {
            let a = yf.access(CacheId::new(cache), kind, b(blk), first);
            let c = fm.access(CacheId::new(cache), kind, b(blk), first);
            assert_eq!(a.event, c.event, "events match the full map");
            assert_eq!(yf.holders(b(blk)), fm.holders(b(blk)));
        }
        yf.check_invariants().unwrap();
    }

    #[test]
    fn exclusive_clean_write_hit_event_is_distinguishable() {
        // The cost benefit (skip the directory check) requires the event to
        // be classified as CleanExclusive so the schema can zero its cost.
        let mut p = YenFu::new(4);
        read(&mut p, 0, 1, true);
        let o = write(&mut p, 0, 1, false);
        assert_eq!(o.event, Event::WriteHit(WriteHitContext::CleanExclusive));
    }
}
