//! Tang's duplicate-directory scheme.
//!
//! "Tang duplicates each of the individual cache directories as his main
//! directory. To find out which caches contain a block, Tang's scheme must
//! search each of these duplicate directories." The *state-change model* is
//! identical to the Censier-Feautrier full map (clean blocks in many
//! caches, dirty blocks in exactly one) — the paper classifies both as
//! `Dir_n_NB` — so the transitions delegate to [`DirNb::full_map`]. What
//! differs is the directory *organization*: a lookup must search `n`
//! duplicate tag stores instead of indexing one flat entry, which the bus
//! crate's Tang cost schema models as an `n`-fold directory-access cost.

use super::dir_nb::DirNb;
use crate::event::Outcome;
use crate::protocol::{Protocol, ProtocolKind};
use dircc_types::{AccessKind, BlockAddr, CacheId, CacheIdSet};

/// Tang's duplicate-tag full-map directory protocol.
///
/// ```
/// use dircc_core::directory::Tang;
/// use dircc_core::Protocol;
///
/// assert_eq!(Tang::new(4).name(), "Tang");
/// ```
#[derive(Debug, Clone)]
pub struct Tang {
    inner: DirNb,
}

impl Tang {
    /// Creates a Tang protocol over `n_caches` caches.
    ///
    /// # Panics
    ///
    /// Panics if `n_caches` is out of `1..=64`.
    pub fn new(n_caches: usize) -> Self {
        Tang { inner: DirNb::full_map(n_caches) }
    }
}

impl Protocol for Tang {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Tang
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
        self.inner.encode_state(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, MissContext};

    #[test]
    fn events_match_the_full_map() {
        let mut tang = Tang::new(4);
        let mut fm = DirNb::full_map(4);
        let b = BlockAddr::from_index(3);
        for (cache, kind, first) in [
            (0u16, AccessKind::Write, true),
            (1, AccessKind::Read, false),
            (2, AccessKind::Read, false),
            (1, AccessKind::Write, false),
        ] {
            let a = tang.access(CacheId::new(cache), kind, b, first);
            let c = fm.access(CacheId::new(cache), kind, b, first);
            assert_eq!(a, c);
        }
        tang.check_invariants().unwrap();
    }

    #[test]
    fn kind_and_name_identify_tang() {
        let p = Tang::new(8);
        assert_eq!(p.kind(), ProtocolKind::Tang);
        assert_eq!(p.name(), "Tang");
        assert!(p.kind().is_directory());
    }

    #[test]
    fn dirty_block_lives_in_one_cache() {
        let mut p = Tang::new(4);
        let b = BlockAddr::from_index(1);
        p.access(CacheId::new(0), AccessKind::Write, b, true);
        let o = p.access(CacheId::new(1), AccessKind::Read, b, false);
        assert_eq!(o.event, Event::ReadMiss(MissContext::DirtyElsewhere));
        assert!(o.write_back);
    }
}
