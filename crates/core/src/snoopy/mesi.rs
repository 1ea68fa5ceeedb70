//! The Illinois protocol (Papamarcos & Patel — the paper's reference \[5\]),
//! known today as MESI.
//!
//! Its contribution over WTI/write-once is the **exclusive-clean (E)**
//! state: a cache that misses on a block held by no one else installs it
//! exclusive, so a later write upgrades to Modified *silently* — no bus
//! transaction at all. Caches also supply blocks to each other directly
//! (a dirty supplier writes memory back in the same transfer).
//!
//! Within this workspace MESI is the snoopy analogue of what Yen & Fu's
//! single bit buys a directory scheme: writes to clean exclusive blocks
//! become free.

use crate::event::{Event, EvictOutcome, MissContext, Outcome, WriteHitContext};
use crate::protocol::{Protocol, ProtocolKind};
use dircc_cache::CacheArray;
use dircc_types::{AccessKind, BlockAddr, CacheId, CacheIdSet};

/// MESI copy states (Invalid is represented by absence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Copy {
    Modified,
    Exclusive,
    Shared,
}

/// The Illinois / MESI snoopy protocol.
///
/// ```
/// use dircc_core::snoopy::Mesi;
/// use dircc_core::Protocol;
///
/// assert_eq!(Mesi::new(4).name(), "MESI");
/// ```
#[derive(Debug, Clone)]
pub struct Mesi {
    caches: CacheArray<Copy>,
}

impl Mesi {
    /// Creates a MESI protocol over `n_caches` caches.
    ///
    /// # Panics
    ///
    /// Panics if `n_caches` is out of `1..=64`.
    pub fn new(n_caches: usize) -> Self {
        Mesi { caches: CacheArray::new(n_caches) }
    }

    fn modified_owner(&self, block: BlockAddr) -> Option<CacheId> {
        self.caches
            .holders(block)
            .iter()
            .find(|c| self.caches.state(*c, block) == Some(&Copy::Modified))
    }

    fn classify_miss(&self, block: BlockAddr, first_ref: bool) -> MissContext {
        let holders = self.caches.holders(block);
        if holders.is_empty() {
            if first_ref {
                MissContext::FirstRef
            } else {
                MissContext::MemoryOnly
            }
        } else if self.modified_owner(block).is_some() {
            MissContext::DirtyElsewhere
        } else {
            MissContext::CleanElsewhere { copies: holders.len() as u32 }
        }
    }

    /// Demotes every current holder to Shared (after a read joins).
    fn demote_all_to_shared(&mut self, block: BlockAddr) {
        for h in self.caches.holders(block).iter() {
            self.caches.set(h, block, Copy::Shared);
        }
    }
}

impl Protocol for Mesi {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Mesi
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
                let holders = self.caches.holders(block);
                if holders.is_empty() {
                    // Nobody has it: install Exclusive (the Illinois trick).
                    self.caches.set(cache, block, Copy::Exclusive);
                } else {
                    // A cache supplies; a Modified supplier writes memory
                    // back in the same transfer; everyone ends Shared.
                    out.cache_supplied = true;
                    if self.modified_owner(block).is_some() {
                        out = out.with_write_back();
                    }
                    self.demote_all_to_shared(block);
                    self.caches.set(cache, block, Copy::Shared);
                }
                out
            }
            AccessKind::Write => {
                let local = self.caches.state(cache, block).copied();
                let others = self.caches.other_holders(cache, block);
                match local {
                    Some(Copy::Modified) => Outcome::quiet(Event::WriteHit(WriteHitContext::Dirty)),
                    Some(Copy::Exclusive) => {
                        // Silent E -> M upgrade: the headline MESI benefit.
                        self.caches.set(cache, block, Copy::Modified);
                        Outcome::quiet(Event::WriteHit(WriteHitContext::CleanExclusive))
                    }
                    Some(Copy::Shared) => {
                        // Invalidation bus transaction; other copies snoop
                        // it and drop out.
                        let event = if others.is_empty() {
                            // Possible when a supplier's peers were
                            // invalidated meanwhile; still costs the
                            // upgrade transaction in real MESI, classified
                            // shared-0 here.
                            Event::WriteHit(WriteHitContext::CleanShared { others: 0 })
                        } else {
                            Event::WriteHit(WriteHitContext::CleanShared {
                                others: others.len() as u32,
                            })
                        };
                        let mut out = Outcome::quiet(event);
                        out.control_messages = 1; // the upgrade/invalidate transaction
                        for h in others.iter() {
                            self.caches.remove(h, block);
                        }
                        self.caches.set(cache, block, Copy::Modified);
                        out
                    }
                    None => {
                        let ctx = self.classify_miss(block, first_ref);
                        let mut out = Outcome::quiet(Event::WriteMiss(ctx));
                        if self.modified_owner(block).is_some() {
                            out.cache_supplied = true;
                            out = out.with_write_back();
                        } else if !others.is_empty() {
                            out.cache_supplied = true;
                        }
                        // The read-for-ownership transaction invalidates
                        // every other copy as it passes.
                        self.caches.remove_all_except(block, None);
                        self.caches.set(cache, block, Copy::Modified);
                        out
                    }
                }
            }
            AccessKind::InstrFetch => panic!("instruction fetches never reach the protocol"),
        }
    }

    fn evict(&mut self, cache: CacheId, block: BlockAddr) -> EvictOutcome {
        match self.caches.remove(cache, block) {
            Some(Copy::Modified) => EvictOutcome::WRITE_BACK,
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
                        Some(&Copy::Modified) | Some(&Copy::Exclusive)
                    )
                })
                .count();
            if exclusive > 1 {
                return Err(format!("{block}: {exclusive} M/E copies"));
            }
            if exclusive == 1 && holders.len() > 1 {
                return Err(format!("{block}: M/E copy coexists with sharers"));
            }
        }
        Ok(())
    }

    fn encode_state(&self, out: &mut Vec<u64>) {
        self.caches.encode_states(out, |s| match s {
            Copy::Shared => 0,
            Copy::Exclusive => 1,
            Copy::Modified => 2,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }
    fn read(p: &mut Mesi, c: u16, blk: u64, first: bool) -> Outcome {
        p.access(CacheId::new(c), AccessKind::Read, b(blk), first)
    }
    fn write(p: &mut Mesi, c: u16, blk: u64, first: bool) -> Outcome {
        p.access(CacheId::new(c), AccessKind::Write, b(blk), first)
    }

    #[test]
    fn exclusive_upgrade_is_silent() {
        let mut p = Mesi::new(4);
        read(&mut p, 0, 1, true); // E
        let o = write(&mut p, 0, 1, false);
        assert_eq!(o.event, Event::WriteHit(WriteHitContext::CleanExclusive));
        assert_eq!(o.control_messages, 0, "E->M costs no bus transaction");
        assert!(!o.used_broadcast && !o.memory_updated);
        let o = write(&mut p, 0, 1, false);
        assert_eq!(o.event, Event::WriteHit(WriteHitContext::Dirty));
        p.check_invariants().unwrap();
    }

    #[test]
    fn shared_upgrade_costs_one_transaction() {
        let mut p = Mesi::new(4);
        read(&mut p, 0, 1, true);
        read(&mut p, 1, 1, false); // both Shared now
        let o = write(&mut p, 0, 1, false);
        assert_eq!(o.event, Event::WriteHit(WriteHitContext::CleanShared { others: 1 }));
        assert_eq!(o.control_messages, 1);
        assert_eq!(p.holders(b(1)).sole(), Some(CacheId::new(0)));
        p.check_invariants().unwrap();
    }

    #[test]
    fn second_reader_demotes_exclusive_and_is_cache_supplied() {
        let mut p = Mesi::new(4);
        read(&mut p, 0, 1, true); // E in cache 0
        let o = read(&mut p, 1, 1, false);
        assert_eq!(o.event, Event::ReadMiss(MissContext::CleanElsewhere { copies: 1 }));
        assert!(o.cache_supplied, "Illinois: caches supply each other");
        assert!(!o.write_back, "clean supplier, memory already current");
        // The old E copy is now S: its write costs a transaction.
        let o = write(&mut p, 0, 1, false);
        assert_eq!(o.control_messages, 1);
        p.check_invariants().unwrap();
    }

    #[test]
    fn modified_supplier_writes_back_while_supplying() {
        let mut p = Mesi::new(4);
        write(&mut p, 0, 1, true); // M
        let o = read(&mut p, 1, 1, false);
        assert_eq!(o.event, Event::ReadMiss(MissContext::DirtyElsewhere));
        assert!(o.cache_supplied && o.write_back && o.memory_updated);
        assert_eq!(p.holders(b(1)).len(), 2);
        p.check_invariants().unwrap();
    }

    #[test]
    fn write_miss_invalidates_via_rfo() {
        let mut p = Mesi::new(4);
        read(&mut p, 0, 1, true);
        read(&mut p, 1, 1, false);
        let o = write(&mut p, 2, 1, false);
        assert_eq!(o.event, Event::WriteMiss(MissContext::CleanElsewhere { copies: 2 }));
        assert_eq!(o.control_messages, 0, "invalidation rides the fetch");
        assert!(o.cache_supplied);
        assert_eq!(p.holders(b(1)).sole(), Some(CacheId::new(2)));
    }

    #[test]
    fn single_me_copy_invariant_holds_under_stress() {
        let mut p = Mesi::new(4);
        for i in 0..500u64 {
            let cache = (i % 4) as u16;
            if i % 3 == 0 {
                write(&mut p, cache, i % 6, i < 6);
            } else {
                read(&mut p, cache, i % 6, i < 6);
            }
            p.check_invariants().unwrap();
        }
    }
}
