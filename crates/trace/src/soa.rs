//! Structure-of-arrays replay streams.
//!
//! Interning (see [`crate::intern`]) removes hashing from the replay
//! loop, but 16-byte [`TraceRecord`]s still carry a sharing-model match
//! and `geometry.block_of` address math per reference. A [`SoaStream`]
//! finishes the job: it splits one (records, dense-ids) pair into four
//! flat arrays — `kind` / `cache_idx` / `block_id` / `first_ref` — with
//! the sharing-model cache index and the first-reference bit precomputed,
//! so a replay loop touches no `TraceRecord` and performs no address
//! math at all.
//!
//! `max_cache_idx` is the stream-wide maximum over *data* references:
//! when it is below the protocol's cache count the per-reference bounds
//! check is provably dead and a replay loop may skip it entirely; the
//! engine falls back to its checking loop (whose error message names the
//! original record) otherwise.
//!
//! The same type doubles as the engine's reusable batch buffer: streaming
//! replay [`clear`](SoaStream::clear)s it and [`push`](SoaStream::push)es
//! one interned chunk at a time. [`crate::shard::ShardedSoa`] splits a
//! stream into per-shard `SoaStream`s for parallel replay.

use crate::intern::BlockInterner;
use crate::record::TraceRecord;
use dircc_types::{AccessKind, BlockGeometry, SharingModel};

/// A dense-id record stream split into flat per-field arrays, with the
/// sharing-model cache index and first-reference bit precomputed.
///
/// All arrays have one entry per record, in trace order. Entries for
/// instruction fetches carry placeholders in `cache_idx` / `block_id` /
/// `first_ref` that replay never reads (exactly as the dense-id stream
/// carries a placeholder id for them).
#[derive(Debug, Clone)]
pub struct SoaStream {
    /// Access kind per record.
    pub kind: Vec<AccessKind>,
    /// Cache index per record under the stream's sharing model
    /// (`cpu` for [`SharingModel::Processor`], `pid` for
    /// [`SharingModel::Process`]).
    pub cache_idx: Vec<u16>,
    /// Dense block id per record (shard-local for shard sub-streams).
    pub block_id: Vec<u32>,
    /// Whether the record is its block's first reference in this stream.
    pub first_ref: Vec<bool>,
    /// Distinct data blocks in the stream — sizes replay tables.
    pub num_blocks: usize,
    /// The sharing model `cache_idx` was computed under.
    pub sharing: SharingModel,
    /// Maximum `cache_idx` over data references (0 if there are none):
    /// if this is below the protocol's cache count, no reference can
    /// fail the bounds check.
    pub max_cache_idx: u16,
}

impl SoaStream {
    /// Splits a record stream and its aligned dense-id stream (from
    /// [`crate::intern::BlockInterner::intern_stream`]) into flat arrays
    /// under `sharing`.
    ///
    /// # Panics
    ///
    /// Panics if `dense` is not aligned with `records` or a dense id is
    /// out of range for `num_blocks`.
    pub fn build(
        records: &[TraceRecord],
        dense: &[u32],
        num_blocks: usize,
        sharing: SharingModel,
    ) -> Self {
        assert_eq!(records.len(), dense.len(), "dense-id stream must align with the record stream");
        let mut soa = SoaStream::with_capacity(sharing, records.len());
        soa.num_blocks = num_blocks;
        let mut seen = vec![0u64; num_blocks.div_ceil(64)];
        for (r, &id) in records.iter().zip(dense) {
            if r.is_data() {
                assert!(
                    (id as usize) < num_blocks,
                    "dense id {id} out of range for {num_blocks} blocks"
                );
                let (word, bit) = (id as usize / 64, 1u64 << (id % 64));
                soa.push(r.kind, r.cache_index(sharing), id, seen[word] & bit == 0);
                seen[word] |= bit;
            } else {
                soa.push(r.kind, 0, 0, false);
            }
        }
        soa
    }

    /// Interns `records` under `geometry` (dense ids in first-appearance
    /// order) and splits them under `sharing` — [`SoaStream::build`] over
    /// one [`BlockInterner::intern_stream`] pass.
    pub fn intern(records: &[TraceRecord], geometry: BlockGeometry, sharing: SharingModel) -> Self {
        let (interner, dense) = BlockInterner::intern_stream(records, geometry);
        Self::build(records, &dense, interner.num_blocks(), sharing)
    }

    /// The sub-stream of the entries `keep` selects (one flag per entry,
    /// in order), with first-reference bits recomputed for the
    /// sub-stream and dense ids, cache indices and `num_blocks` carried
    /// over — how a per-record filter of the underlying records (such as
    /// lock-spin exclusion) derives its split by position, with no second
    /// interning pass. `len` is the number of kept entries, used to size
    /// the arrays.
    pub fn select(&self, keep: impl IntoIterator<Item = bool>, len: usize) -> Self {
        let mut out = SoaStream::with_capacity(self.sharing, len);
        out.num_blocks = self.num_blocks;
        let mut seen = vec![0u64; self.num_blocks.div_ceil(64)];
        for (i, keep) in keep.into_iter().enumerate() {
            if !keep {
                continue;
            }
            let kind = self.kind[i];
            if kind.is_data() {
                let id = self.block_id[i];
                let (word, bit) = (id as usize / 64, 1u64 << (id % 64));
                out.push(kind, self.cache_idx[i], id, seen[word] & bit == 0);
                seen[word] |= bit;
            } else {
                out.push(kind, 0, 0, false);
            }
        }
        out
    }

    /// An empty stream under `sharing`, to be filled with
    /// [`push`](SoaStream::push).
    pub fn new(sharing: SharingModel) -> Self {
        SoaStream {
            kind: Vec::new(),
            cache_idx: Vec::new(),
            block_id: Vec::new(),
            first_ref: Vec::new(),
            num_blocks: 0,
            sharing,
            max_cache_idx: 0,
        }
    }

    /// An empty stream under `sharing` with room for `len` entries.
    fn with_capacity(sharing: SharingModel, len: usize) -> Self {
        let mut soa = SoaStream::new(sharing);
        soa.kind.reserve_exact(len);
        soa.cache_idx.reserve_exact(len);
        soa.block_id.reserve_exact(len);
        soa.first_ref.reserve_exact(len);
        soa
    }

    /// Appends one entry. Data entries raise `max_cache_idx`; for an
    /// instruction fetch the other fields are placeholders replay never
    /// reads. `num_blocks` is the caller's to maintain.
    #[inline]
    pub fn push(&mut self, kind: AccessKind, cache_idx: u16, block_id: u32, first_ref: bool) {
        if kind.is_data() {
            self.max_cache_idx = self.max_cache_idx.max(cache_idx);
        }
        self.kind.push(kind);
        self.cache_idx.push(cache_idx);
        self.block_id.push(block_id);
        self.first_ref.push(first_ref);
    }

    /// Empties the stream (keeping its allocations) for reuse as a batch
    /// buffer.
    pub fn clear(&mut self) {
        self.kind.clear();
        self.cache_idx.clear();
        self.block_id.clear();
        self.first_ref.clear();
        self.num_blocks = 0;
        self.max_cache_idx = 0;
    }

    /// Number of records in the stream.
    pub fn len(&self) -> usize {
        self.kind.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.kind.is_empty()
    }
}

/// Recomputes the reference values a [`SoaStream`] must match, straight
/// from the AoS records — shared by this module's tests and the sim
/// crate's property suite so both pin the same definition.
pub fn soa_reference_values(
    records: &[TraceRecord],
    geometry: BlockGeometry,
    sharing: SharingModel,
) -> (Vec<u16>, Vec<bool>) {
    // Derived from raw addresses, not dense ids: renaming is a bijection,
    // so address-level and dense-id first references must agree.
    let mut cache_idx = Vec::with_capacity(records.len());
    let mut first_ref = Vec::with_capacity(records.len());
    let mut seen = std::collections::HashSet::new();
    for r in records {
        if r.is_data() {
            cache_idx.push(r.cache_index(sharing));
            first_ref.push(seen.insert(geometry.block_of(r.addr)));
        } else {
            cache_idx.push(0);
            first_ref.push(false);
        }
    }
    (cache_idx, first_ref)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Generator, Profile};
    use crate::shard::ShardedSoa;
    use dircc_types::BlockGeometry;

    fn stream() -> (Vec<TraceRecord>, Vec<u32>, usize) {
        let records: Vec<TraceRecord> =
            Generator::new(Profile::thor().with_total_refs(4_000), 11).collect();
        let (interner, dense) = BlockInterner::intern_stream(&records, BlockGeometry::PAPER);
        let n = interner.num_blocks();
        (records, dense, n)
    }

    #[test]
    fn soa_matches_aos_derivation() {
        let (records, dense, n) = stream();
        for sharing in [SharingModel::Processor, SharingModel::Process] {
            let soa = SoaStream::build(&records, &dense, n, sharing);
            assert_eq!(soa.len(), records.len());
            assert_eq!(soa.num_blocks, n);
            assert_eq!(soa.sharing, sharing);
            let (cache_idx, first_ref) =
                soa_reference_values(&records, BlockGeometry::PAPER, sharing);
            assert_eq!(soa.cache_idx, cache_idx);
            assert_eq!(soa.first_ref, first_ref);
            for (i, r) in records.iter().enumerate() {
                assert_eq!(soa.kind[i], r.kind);
                if r.is_data() {
                    assert_eq!(soa.block_id[i], dense[i]);
                }
            }
            let max = records
                .iter()
                .zip(&soa.cache_idx)
                .filter(|(r, _)| r.is_data())
                .map(|(_, &c)| c)
                .max()
                .unwrap_or(0);
            assert_eq!(soa.max_cache_idx, max);
        }
    }

    #[test]
    fn first_ref_bits_appear_once_per_block() {
        let (records, dense, n) = stream();
        let soa = SoaStream::build(&records, &dense, n, SharingModel::Processor);
        let firsts = records.iter().zip(&soa.first_ref).filter(|(r, &f)| r.is_data() && f).count();
        assert_eq!(firsts, n, "exactly one first reference per distinct block");
    }

    #[test]
    fn sharded_soa_aligns_with_the_partition() {
        let (records, dense, n) = stream();
        let soa = SoaStream::build(&records, &dense, n, SharingModel::Process);
        let sharded = ShardedSoa::build(&soa, 3, |_, gid| gid as usize % 3);
        assert_eq!(sharded.num_shards(), 3);
        assert_eq!(sharded.sharing(), SharingModel::Process);
        for sh in sharded.shards() {
            assert_eq!(sh.soa.len(), sh.global_refs.len());
            assert_eq!(sh.soa.num_blocks, sh.global_ids.len());
            // Every shard entry is the serial entry its gref names, with
            // the block renamed to a shard-local id.
            for (j, &gref) in sh.global_refs.iter().enumerate() {
                let g = (gref - 1) as usize;
                assert_eq!(sh.soa.kind[j], soa.kind[g]);
                if soa.kind[g].is_data() {
                    assert_eq!(sh.soa.cache_idx[j], soa.cache_idx[g]);
                    assert_eq!(sh.soa.first_ref[j], soa.first_ref[g]);
                    assert_eq!(sh.global_ids[sh.soa.block_id[j] as usize], soa.block_id[g]);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn misaligned_dense_rejected() {
        let (records, dense, n) = stream();
        let _ = SoaStream::build(&records, &dense[1..], n, SharingModel::Processor);
    }
}
