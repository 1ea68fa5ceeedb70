//! Block-sharded structure-of-arrays streams for intra-run parallel replay.
//!
//! With infinite caches, the protocol state touched by block *b* never
//! interacts with the state of any other block, so a [`SoaStream`] can be
//! partitioned by any pure function of the block into `S` sub-streams
//! that replay independently and whose [`EventCounters`] merge back
//! bit-identically (counters are purely additive). A [`ShardedSoa`] holds
//! that partition:
//!
//! * every *data* entry lands in the shard its block routes to, with
//!   per-shard order preserved;
//! * instruction fetches (which never reach a protocol) are dealt
//!   round-robin so their counter bumps spread evenly;
//! * block ids are renamed to *shard-local* dense ids in first-appearance
//!   order, so each shard's tables are sized for its blocks only (a
//!   block's entries all share one shard, so its first-reference bit
//!   carries over unchanged);
//! * every entry keeps its 1-based *global* reference number, so verifier
//!   findings and errors merge back in trace order — and replay reaches
//!   the original record through it on the cold paths that need one
//!   (finite-cache set selection, error text).
//!
//! The router must be a pure function of the block (the builder asserts
//! it): the engine uses `block_id % S` for infinite caches and
//! `set_index % S` for finite ones (eviction is confined to a set, so
//! set-sharding preserves LRU victim choice exactly).
//!
//! [`EventCounters`]: https://docs.rs/dircc-core

use crate::soa::SoaStream;
use dircc_types::SharingModel;

/// One shard of a partitioned [`SoaStream`].
#[derive(Debug, Clone)]
pub struct Shard {
    /// The shard's entries in global trace order, block ids renamed to
    /// shard-local dense ids (`soa.num_blocks` sizes its tables).
    pub soa: SoaStream,
    /// 1-based global reference numbers, aligned with `soa`.
    pub global_refs: Vec<u64>,
    /// Maps each shard-local dense id back to the stream's global dense
    /// id (one entry per distinct block), so shard-local replay can
    /// report diagnostics in global terms.
    pub global_ids: Vec<u32>,
}

/// A [`SoaStream`] partitioned into per-block shards.
#[derive(Debug, Clone)]
pub struct ShardedSoa {
    shards: Vec<Shard>,
    total_records: usize,
    total_blocks: usize,
    sharing: SharingModel,
}

impl ShardedSoa {
    /// Partitions `soa` into `shards` sub-streams. `route(index, dense_id)`
    /// is called for every *data* entry — `index` is its 0-based position
    /// in `soa` (so a router may consult the original record) — and must
    /// return the same shard for every occurrence of a block; instruction
    /// fetches are dealt round-robin by index.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero, the router returns an out-of-range
    /// shard, or the router is not a pure function of the block.
    pub fn build<F>(soa: &SoaStream, shards: usize, mut route: F) -> Self
    where
        F: FnMut(usize, u32) -> usize,
    {
        assert!(shards >= 1, "need at least one shard");
        let mut out: Vec<Shard> = (0..shards)
            .map(|_| Shard {
                soa: SoaStream::new(soa.sharing),
                global_refs: Vec::new(),
                global_ids: Vec::new(),
            })
            .collect();
        // Shard-local renaming: ascending global id order within a shard
        // IS first-appearance order within the shard, so ids are handed
        // out in first-appearance order too.
        const UNSEEN: u32 = u32::MAX;
        let mut local = vec![UNSEEN; soa.num_blocks];
        let mut owner = vec![UNSEEN; soa.num_blocks];
        for i in 0..soa.len() {
            let kind = soa.kind[i];
            let (s, lid) = if kind.is_data() {
                let gid = soa.block_id[i];
                let g = gid as usize;
                let s = route(i, gid);
                assert!(s < shards, "router sent block {gid} to shard {s} of {shards}");
                if owner[g] == UNSEEN {
                    owner[g] = s as u32;
                    local[g] = u32::try_from(out[s].global_ids.len())
                        .expect("more than u32::MAX shard blocks");
                    out[s].global_ids.push(gid);
                } else {
                    assert_eq!(
                        owner[g], s as u32,
                        "router must be a pure function of the block (block {g})"
                    );
                }
                (s, local[g])
            } else {
                (i % shards, 0)
            };
            let sh = &mut out[s];
            sh.soa.push(kind, soa.cache_idx[i], lid, soa.first_ref[i]);
            sh.global_refs.push(i as u64 + 1);
        }
        for sh in &mut out {
            sh.soa.num_blocks = sh.global_ids.len();
        }
        let total_blocks = out.iter().map(|s| s.soa.num_blocks).sum();
        ShardedSoa { shards: out, total_records: soa.len(), total_blocks, sharing: soa.sharing }
    }

    /// The shards, in shard-index order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Number of shards (as requested at build time).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total entries across all shards (= the input stream's length).
    pub fn total_records(&self) -> usize {
        self.total_records
    }

    /// Total distinct data blocks across all shards.
    pub fn total_blocks(&self) -> usize {
        self.total_blocks
    }

    /// The sharing model the cache indices were computed under.
    pub fn sharing(&self) -> SharingModel {
        self.sharing
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Generator, Profile};
    use crate::intern::BlockInterner;
    use crate::record::TraceRecord;
    use dircc_types::BlockGeometry;

    fn stream() -> (Vec<TraceRecord>, SoaStream) {
        let records: Vec<TraceRecord> =
            Generator::new(Profile::pops().with_total_refs(4_000), 5).collect();
        let interner = BlockInterner::from_records(records.iter(), BlockGeometry::PAPER);
        let dense = interner.dense_stream(&records);
        let soa =
            SoaStream::build(&records, &dense, interner.num_blocks(), SharingModel::Processor);
        (records, soa)
    }

    #[test]
    fn shards_partition_the_stream_preserving_order() {
        let (records, soa) = stream();
        for shards in [1, 2, 3, 8] {
            let s = ShardedSoa::build(&soa, shards, |_, gid| gid as usize % shards);
            assert_eq!(s.num_shards(), shards);
            assert_eq!(s.total_records(), records.len());
            assert_eq!(s.total_blocks(), soa.num_blocks);
            // Every entry appears exactly once; global refs are strictly
            // increasing within a shard (order preserved) and merge back
            // to exactly 1..=len.
            let mut all: Vec<u64> = Vec::new();
            for sh in s.shards() {
                assert_eq!(sh.soa.len(), sh.global_refs.len());
                assert!(sh.global_refs.windows(2).all(|w| w[0] < w[1]));
                for (j, &g) in sh.global_refs.iter().enumerate() {
                    let r = records[(g - 1) as usize];
                    assert_eq!(sh.soa.kind[j], r.kind, "entry kept its identity");
                }
                all.extend(&sh.global_refs);
            }
            all.sort_unstable();
            assert_eq!(all, (1..=records.len() as u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn shard_local_ids_are_dense_and_first_appearance_ordered() {
        let (_, soa) = stream();
        let s = ShardedSoa::build(&soa, 3, |_, gid| gid as usize % 3);
        for (s_idx, sh) in s.shards().iter().enumerate() {
            let mut next = 0u32;
            for j in 0..sh.soa.len() {
                if !sh.soa.kind[j].is_data() {
                    continue;
                }
                let lid = sh.soa.block_id[j];
                assert!(lid <= next, "ids appear in first-appearance order");
                assert_eq!(sh.soa.first_ref[j], lid == next, "first reference stays first");
                if lid == next {
                    next += 1;
                }
            }
            assert_eq!(next as usize, sh.soa.num_blocks);
            // global_ids inverts the shard-local renaming: every data
            // entry's global dense id is recoverable from its local id.
            assert_eq!(sh.global_ids.len(), sh.soa.num_blocks);
            for j in 0..sh.soa.len() {
                if sh.soa.kind[j].is_data() {
                    let gid = sh.global_ids[sh.soa.block_id[j] as usize];
                    assert_eq!(gid, soa.block_id[(sh.global_refs[j] - 1) as usize]);
                    assert_eq!(gid as usize % 3, s_idx, "router consistency");
                }
            }
        }
    }

    #[test]
    fn single_shard_is_the_identity_partition() {
        let (_, soa) = stream();
        let s = ShardedSoa::build(&soa, 1, |_, _| 0);
        let only = &s.shards()[0].soa;
        assert_eq!(only.kind, soa.kind);
        assert_eq!(only.first_ref, soa.first_ref);
        assert_eq!(only.max_cache_idx, soa.max_cache_idx);
        // With one shard, local ids equal global ids on data entries.
        for j in 0..soa.len() {
            if soa.kind[j].is_data() {
                assert_eq!(only.block_id[j], soa.block_id[j]);
                assert_eq!(only.cache_idx[j], soa.cache_idx[j]);
            }
        }
        assert_eq!(only.num_blocks, soa.num_blocks);
    }

    #[test]
    #[should_panic(expected = "pure function")]
    fn inconsistent_router_is_rejected() {
        let (_, soa) = stream();
        let mut flip = 0usize;
        let _ = ShardedSoa::build(&soa, 2, |_, _| {
            flip += 1;
            flip % 2
        });
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let (_, soa) = stream();
        let _ = ShardedSoa::build(&soa, 0, |_, gid| gid as usize);
    }
}
