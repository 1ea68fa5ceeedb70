//! The DEC Firefly snoopy update protocol (the paper's reference \[3\]).
//!
//! Like Dragon, Firefly maintains consistency by *updating* remote copies
//! rather than invalidating them; unlike Dragon, a write to a shared block
//! also updates **main memory** (the update is a bus write that memory
//! snarfs), so memory never goes stale for shared blocks. Only exclusive
//! blocks can be dirty, and they go clean-exclusive again the moment
//! another cache reads them (the supply transfer updates memory).
//!
//! The behavioural contrast with Dragon is visible in the events: Firefly
//! has no `rm-blk-drty` for blocks that are actively shared, and its
//! update traffic doubles as write-through traffic.

use crate::event::{Event, EvictOutcome, MissContext, Outcome, WriteHitContext};
use crate::protocol::{Protocol, ProtocolKind};
use dircc_cache::{BlockSet, CacheArray};
use dircc_types::{AccessKind, BlockAddr, CacheId, CacheIdSet};

/// The Firefly update protocol.
///
/// ```
/// use dircc_core::snoopy::Firefly;
/// use dircc_core::{CoherenceStyle, Protocol};
///
/// let p = Firefly::new(4);
/// assert_eq!(p.name(), "Firefly");
/// assert_eq!(p.style(), CoherenceStyle::Update);
/// ```
#[derive(Debug, Clone)]
pub struct Firefly {
    caches: CacheArray<()>,
    /// Blocks whose sole copy is dirty (memory stale). Shared blocks are
    /// never stale: shared writes update memory.
    memory_stale: BlockSet,
}

impl Firefly {
    /// Creates a Firefly protocol over `n_caches` caches.
    ///
    /// # Panics
    ///
    /// Panics if `n_caches` is out of `1..=64`.
    pub fn new(n_caches: usize) -> Self {
        Firefly { caches: CacheArray::new(n_caches), memory_stale: BlockSet::new() }
    }

    fn classify_miss(&self, block: BlockAddr, first_ref: bool) -> MissContext {
        let holders = self.caches.holders(block);
        if holders.is_empty() {
            if first_ref {
                MissContext::FirstRef
            } else {
                MissContext::MemoryOnly
            }
        } else if self.memory_stale.contains(block) {
            MissContext::DirtyElsewhere
        } else {
            MissContext::CleanElsewhere { copies: holders.len() as u32 }
        }
    }
}

impl Protocol for Firefly {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Firefly
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
                out.cache_supplied = !self.caches.holders(block).is_empty();
                // The supply transfer also refreshes memory if it was
                // stale (the previous owner's data goes on the bus).
                if self.memory_stale.remove(block) {
                    out.memory_updated = true;
                }
                self.caches.set(cache, block, ());
                out
            }
            AccessKind::Write => {
                let hit = self.caches.state(cache, block).is_some();
                let others = self.caches.other_holders(cache, block);
                let mut out = if hit {
                    let event = if others.is_empty() {
                        if self.memory_stale.contains(block) {
                            Event::WriteHit(WriteHitContext::Dirty)
                        } else {
                            Event::WriteHit(WriteHitContext::CleanExclusive)
                        }
                    } else {
                        Event::WriteHit(WriteHitContext::CleanShared {
                            others: others.len() as u32,
                        })
                    };
                    Outcome::quiet(event)
                } else {
                    let ctx = self.classify_miss(block, first_ref);
                    let mut out = Outcome::quiet(Event::WriteMiss(ctx));
                    out.cache_supplied = !others.is_empty();
                    out
                };
                if others.is_empty() {
                    // Exclusive: the write stays local; memory goes stale.
                    self.memory_stale.insert(block);
                } else {
                    // Shared: the update is a bus write that memory snarfs.
                    out.updates = 1;
                    out.memory_updated = true;
                    self.memory_stale.remove(block);
                }
                self.caches.set(cache, block, ());
                out
            }
            AccessKind::InstrFetch => panic!("instruction fetches never reach the protocol"),
        }
    }

    fn evict(&mut self, cache: CacheId, block: BlockAddr) -> EvictOutcome {
        if self.caches.remove(cache, block).is_none() {
            return EvictOutcome::SILENT;
        }
        // Only a sole holder can be stale (shared writes update memory).
        if self.memory_stale.remove(block) {
            EvictOutcome::WRITE_BACK
        } else {
            EvictOutcome::SILENT
        }
    }

    fn reserve_blocks(&mut self, blocks: usize) {
        self.caches.reserve_blocks(blocks);
        self.memory_stale.reserve_blocks(blocks);
    }

    fn holders(&self, block: BlockAddr) -> CacheIdSet {
        self.caches.holders(block)
    }

    fn check_invariants(&self) -> Result<(), String> {
        self.caches.check_residency()?;
        for block in self.memory_stale.iter() {
            let holders = self.caches.holders(block);
            if holders.len() != 1 {
                return Err(format!(
                    "{block}: memory stale requires exactly one (dirty) holder, found {}",
                    holders.len()
                ));
            }
        }
        Ok(())
    }

    fn encode_state(&self, out: &mut Vec<u64>) {
        self.caches.encode_states(out, |()| 0);
        out.push(self.memory_stale.len() as u64);
        out.extend(self.memory_stale.iter().map(|b| b.index()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }
    fn read(p: &mut Firefly, c: u16, blk: u64, first: bool) -> Outcome {
        p.access(CacheId::new(c), AccessKind::Read, b(blk), first)
    }
    fn write(p: &mut Firefly, c: u16, blk: u64, first: bool) -> Outcome {
        p.access(CacheId::new(c), AccessKind::Write, b(blk), first)
    }

    #[test]
    fn shared_writes_update_memory() {
        let mut p = Firefly::new(4);
        read(&mut p, 0, 1, true);
        read(&mut p, 1, 1, false);
        let o = write(&mut p, 0, 1, false);
        assert_eq!(o.event, Event::WriteHit(WriteHitContext::CleanShared { others: 1 }));
        assert_eq!(o.updates, 1);
        assert!(o.memory_updated, "Firefly updates memory on shared writes");
        assert_eq!(p.holders(b(1)).len(), 2, "no copy is invalidated");
        p.check_invariants().unwrap();
    }

    #[test]
    fn exclusive_writes_stay_local_and_stale() {
        let mut p = Firefly::new(4);
        write(&mut p, 0, 1, true);
        let o = write(&mut p, 0, 1, false);
        assert_eq!(o.event, Event::WriteHit(WriteHitContext::Dirty));
        assert!(!o.memory_updated);
        // A later reader forces the supply to refresh memory.
        let o = read(&mut p, 1, 1, false);
        assert_eq!(o.event, Event::ReadMiss(MissContext::DirtyElsewhere));
        assert!(o.cache_supplied && o.memory_updated);
        // Now shared and clean: writes are one-word bus updates.
        let o = write(&mut p, 0, 1, false);
        assert_eq!(o.event, Event::WriteHit(WriteHitContext::CleanShared { others: 1 }));
        p.check_invariants().unwrap();
    }

    #[test]
    fn shared_blocks_never_have_stale_memory() {
        let mut p = Firefly::new(4);
        read(&mut p, 0, 1, true);
        read(&mut p, 1, 1, false);
        for _ in 0..5 {
            write(&mut p, 0, 1, false);
            write(&mut p, 1, 1, false);
            p.check_invariants().unwrap();
        }
        // A third cache's miss is clean (memory current).
        let o = read(&mut p, 2, 1, false);
        assert_eq!(o.event, Event::ReadMiss(MissContext::CleanElsewhere { copies: 2 }));
    }

    #[test]
    fn copies_never_disappear() {
        let mut p = Firefly::new(4);
        for c in 0..4u16 {
            read(&mut p, c, 1, c == 0);
        }
        write(&mut p, 2, 1, false);
        assert_eq!(p.holders(b(1)).len(), 4);
    }
}
