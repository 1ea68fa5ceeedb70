//! Goodman's Write-Once snoopy protocol (the paper's reference \[2\]).
//!
//! Write-Once is the historical middle ground between WTI and full
//! copy-back: the *first* write to a clean block is written through to
//! memory (invalidating other copies as a side effect of the bus write),
//! leaving the block *reserved* — exclusive and consistent with memory —
//! so subsequent writes proceed locally, making the block dirty. Misses to
//! dirty blocks are supplied by the owning cache while memory is updated.
//!
//! Relative to `Dir0B`/WTI, the holder evolution is identical; the cost
//! profile sits between them: one-word write-throughs only on first
//! writes, full write-backs only when a dirty block is re-shared.

use crate::event::{Event, EvictOutcome, MissContext, Outcome, WriteHitContext};
use crate::protocol::{Protocol, ProtocolKind};
use dircc_cache::CacheArray;
use dircc_types::{AccessKind, BlockAddr, CacheId, CacheIdSet};

/// Per-cache copy state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Copy {
    /// Valid, potentially shared, consistent with memory.
    Valid,
    /// Exclusive and consistent with memory (written through once).
    Reserved,
    /// Exclusive and inconsistent with memory.
    Dirty,
}

/// The Write-Once snoopy protocol.
///
/// ```
/// use dircc_core::snoopy::WriteOnce;
/// use dircc_core::Protocol;
///
/// assert_eq!(WriteOnce::new(4).name(), "WriteOnce");
/// ```
#[derive(Debug, Clone)]
pub struct WriteOnce {
    caches: CacheArray<Copy>,
}

impl WriteOnce {
    /// Creates a Write-Once protocol over `n_caches` caches.
    ///
    /// # Panics
    ///
    /// Panics if `n_caches` is out of `1..=64`.
    pub fn new(n_caches: usize) -> Self {
        WriteOnce { caches: CacheArray::new(n_caches) }
    }

    fn dirty_owner(&self, block: BlockAddr) -> Option<CacheId> {
        self.caches
            .holders(block)
            .iter()
            .find(|c| self.caches.state(*c, block) == Some(&Copy::Dirty))
    }

    fn classify_miss(&self, block: BlockAddr, first_ref: bool) -> MissContext {
        let holders = self.caches.holders(block);
        if holders.is_empty() {
            if first_ref {
                MissContext::FirstRef
            } else {
                MissContext::MemoryOnly
            }
        } else if self.dirty_owner(block).is_some() {
            MissContext::DirtyElsewhere
        } else {
            MissContext::CleanElsewhere { copies: holders.len() as u32 }
        }
    }
}

impl Protocol for WriteOnce {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::WriteOnce
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
        match kind {
            AccessKind::Read => {
                if self.caches.state(cache, block).is_some() {
                    return Outcome::quiet(Event::ReadHit);
                }
                let ctx = self.classify_miss(block, first_ref);
                let mut out = Outcome::quiet(Event::ReadMiss(ctx));
                if let Some(owner) = self.dirty_owner(block) {
                    // The owner supplies the block; memory is updated by
                    // the same bus transfer; both copies become Valid.
                    out.cache_supplied = true;
                    out = out.with_write_back();
                    self.caches.set(owner, block, Copy::Valid);
                } else if let Some(sole) = self.caches.holders(block).sole() {
                    // A Reserved copy loses exclusivity.
                    self.caches.set(sole, block, Copy::Valid);
                }
                self.caches.set(cache, block, Copy::Valid);
                out
            }
            AccessKind::Write => {
                let local = self.caches.state(cache, block).copied();
                let others = self.caches.other_holders(cache, block);
                match local {
                    Some(Copy::Dirty) => Outcome::quiet(Event::WriteHit(WriteHitContext::Dirty)),
                    Some(Copy::Reserved) => {
                        // Second write: goes dirty locally, no bus traffic.
                        self.caches.set(cache, block, Copy::Dirty);
                        Outcome::quiet(Event::WriteHit(WriteHitContext::Dirty))
                    }
                    Some(Copy::Valid) => {
                        // First write: write through one word; snoopers
                        // invalidate on it for free; block becomes Reserved.
                        let event = if others.is_empty() {
                            Event::WriteHit(WriteHitContext::CleanExclusive)
                        } else {
                            Event::WriteHit(WriteHitContext::CleanShared {
                                others: others.len() as u32,
                            })
                        };
                        let mut out = Outcome::quiet(event);
                        out.memory_updated = true;
                        for h in others.iter() {
                            self.caches.remove(h, block);
                        }
                        self.caches.set(cache, block, Copy::Reserved);
                        out
                    }
                    None => {
                        let ctx = self.classify_miss(block, first_ref);
                        let mut out = Outcome::quiet(Event::WriteMiss(ctx));
                        if let Some(owner) = self.dirty_owner(block) {
                            out.cache_supplied = true;
                            out = out.with_write_back();
                            let _ = owner;
                        }
                        self.caches.remove_all_except(block, None);
                        // The write-through of the written word leaves the
                        // block Reserved (memory current).
                        out.memory_updated = true;
                        self.caches.set(cache, block, Copy::Reserved);
                        out
                    }
                }
            }
            AccessKind::InstrFetch => panic!("instruction fetches never reach the protocol"),
        }
    }

    fn evict(&mut self, cache: CacheId, block: BlockAddr) -> EvictOutcome {
        match self.caches.remove(cache, block) {
            Some(Copy::Dirty) => EvictOutcome::WRITE_BACK,
            // Reserved and Valid copies are consistent with memory.
            Some(_) => EvictOutcome::SILENT,
            None => EvictOutcome::SILENT,
        }
    }

    fn reserve_blocks(&mut self, blocks: usize) {
        self.caches.reserve_blocks(blocks);
    }

    fn holders(&self, block: BlockAddr) -> CacheIdSet {
        self.caches.holders(block)
    }

    fn check_invariants(&self) -> Result<(), String> {
        self.caches.check_residency()?;
        for (block, holders) in self.caches.iter_blocks() {
            let exclusive = holders
                .iter()
                .filter(|c| {
                    matches!(
                        self.caches.state(*c, block),
                        Some(&Copy::Reserved) | Some(&Copy::Dirty)
                    )
                })
                .count();
            if exclusive > 1 {
                return Err(format!("{block}: {exclusive} exclusive copies"));
            }
            if exclusive == 1 && holders.len() > 1 {
                return Err(format!("{block}: exclusive copy coexists with sharers"));
            }
        }
        Ok(())
    }

    fn encode_state(&self, out: &mut Vec<u64>) {
        self.caches.encode_states(out, |s| match s {
            Copy::Valid => 0,
            Copy::Reserved => 1,
            Copy::Dirty => 2,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }
    fn read(p: &mut WriteOnce, c: u16, blk: u64, first: bool) -> Outcome {
        p.access(CacheId::new(c), AccessKind::Read, b(blk), first)
    }
    fn write(p: &mut WriteOnce, c: u16, blk: u64, first: bool) -> Outcome {
        p.access(CacheId::new(c), AccessKind::Write, b(blk), first)
    }

    #[test]
    fn first_write_goes_through_second_stays_local() {
        let mut p = WriteOnce::new(4);
        read(&mut p, 0, 1, true);
        let o1 = write(&mut p, 0, 1, false);
        assert_eq!(o1.event, Event::WriteHit(WriteHitContext::CleanExclusive));
        assert!(o1.memory_updated, "the first write is written through");
        let o2 = write(&mut p, 0, 1, false);
        assert_eq!(o2.event, Event::WriteHit(WriteHitContext::Dirty));
        assert!(!o2.memory_updated, "later writes stay local");
        p.check_invariants().unwrap();
    }

    #[test]
    fn first_write_invalidates_sharers_for_free() {
        let mut p = WriteOnce::new(4);
        read(&mut p, 0, 1, true);
        read(&mut p, 1, 1, false);
        read(&mut p, 2, 1, false);
        let o = write(&mut p, 0, 1, false);
        assert_eq!(o.event, Event::WriteHit(WriteHitContext::CleanShared { others: 2 }));
        assert_eq!(o.control_messages, 0, "snooped off the write-through");
        assert_eq!(p.holders(b(1)).sole(), Some(CacheId::new(0)));
    }

    #[test]
    fn dirty_owner_supplies_and_memory_freshens() {
        let mut p = WriteOnce::new(4);
        read(&mut p, 0, 1, true);
        write(&mut p, 0, 1, false); // reserved
        write(&mut p, 0, 1, false); // dirty
        let o = read(&mut p, 1, 1, false);
        assert_eq!(o.event, Event::ReadMiss(MissContext::DirtyElsewhere));
        assert!(o.cache_supplied && o.write_back && o.memory_updated);
        assert_eq!(p.holders(b(1)).len(), 2);
        // The old owner's copy is now plain Valid: its next write is a
        // first write again.
        let o = write(&mut p, 0, 1, false);
        assert_eq!(o.event, Event::WriteHit(WriteHitContext::CleanShared { others: 1 }));
        p.check_invariants().unwrap();
    }

    #[test]
    fn reserved_copy_loses_exclusivity_on_shared_read() {
        let mut p = WriteOnce::new(4);
        write(&mut p, 0, 1, true); // miss -> reserved
        let o = read(&mut p, 1, 1, false);
        // Reserved means memory is current: a clean miss, no write-back.
        assert_eq!(o.event, Event::ReadMiss(MissContext::CleanElsewhere { copies: 1 }));
        assert!(!o.write_back);
        p.check_invariants().unwrap();
    }

    #[test]
    fn write_miss_takes_reserved_ownership() {
        let mut p = WriteOnce::new(4);
        read(&mut p, 0, 1, true);
        let o = write(&mut p, 1, 1, false);
        assert_eq!(o.event, Event::WriteMiss(MissContext::CleanElsewhere { copies: 1 }));
        assert!(o.memory_updated);
        assert_eq!(p.holders(b(1)).sole(), Some(CacheId::new(1)));
        // Next write is local.
        assert_eq!(write(&mut p, 1, 1, false).event, Event::WriteHit(WriteHitContext::Dirty));
    }
}
