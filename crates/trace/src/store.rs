//! The shared trace store: generate once, replay by slice.
//!
//! The paper's methodology is one simulation run per (protocol, trace)
//! pair, re-priced under any hardware model. That makes the experiment
//! matrix embarrassingly parallel — but only if the trace itself is not
//! regenerated for every run. [`TraceStore`] materializes each
//! (trace, filter) record stream exactly once into an
//! `Arc<[TraceRecord]>` and hands out cheap slices; concurrent requests
//! for the same stream block on a [`OnceLock`] instead of duplicating
//! generator work.
//!
//! The filtered stream ([`TraceFilter::ExcludeLockSpins`]) is derived from
//! the full stream rather than re-running the generator, so the generator
//! executes at most once per trace per process — observable through
//! [`TraceStore::generations`], which tests use to pin the
//! "generated exactly once" guarantee.
//!
//! Interning is fused with the structure-of-arrays build: one hashing
//! pass over the full stream yields both the trace's [`BlockInterner`]
//! and the full stream's dense ids, which go straight into its
//! [`SoaStream`]. Because a filter is a per-record predicate, a filtered
//! stream's split is then gathered from the full split by position
//! ([`SoaStream::select`]) — no second hashing pass. [`TraceStore::interns`]
//! and [`TraceStore::soa_builds`] count that work for exact gates.

use crate::gen::{Generator, Profile};
use crate::intern::BlockInterner;
use crate::record::TraceRecord;
use crate::shard::ShardedSoa;
use crate::soa::SoaStream;
use dircc_types::{BlockGeometry, SharingModel};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Trace preprocessing applied before replay.
///
/// Lives next to the store so every layer (trace store, workbench, CLI)
/// shares one definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceFilter {
    /// The full trace.
    Full,
    /// Lock-test reads removed (the §5.2 experiment).
    ExcludeLockSpins,
}

impl TraceFilter {
    /// All filters, in stable (paper) order.
    pub const ALL: [TraceFilter; 2] = [TraceFilter::Full, TraceFilter::ExcludeLockSpins];

    fn slot(self) -> usize {
        match self {
            TraceFilter::Full => 0,
            TraceFilter::ExcludeLockSpins => 1,
        }
    }

    /// Whether the filtered stream keeps `record` — the per-record
    /// predicate the filter applies.
    pub fn keeps(self, record: &TraceRecord) -> bool {
        match self {
            TraceFilter::Full => true,
            TraceFilter::ExcludeLockSpins => !record.is_lock_spin(),
        }
    }
}

/// One trace's lazily-materialized streams, one slot per filter.
#[derive(Debug, Default)]
struct TraceSlot {
    streams: [OnceLock<Arc<[TraceRecord]>>; 2],
}

/// A mutex-guarded map of memo cells: the cell is cloned out under the
/// lock and initialized outside it, so builders never serialize.
type MemoMap<K, V> = Mutex<HashMap<K, Arc<OnceLock<V>>>>;

/// Thread-safe, generate-once storage for the synthetic trace suite.
///
/// ```
/// use dircc_trace::gen::Profile;
/// use dircc_trace::store::{TraceFilter, TraceStore};
///
/// let store = TraceStore::new(vec![Profile::pero().with_total_refs(1_000)], 7);
/// let a = store.records(0, TraceFilter::Full);
/// let b = store.records(0, TraceFilter::Full);
/// assert!(std::sync::Arc::ptr_eq(&a, &b), "second call reuses the slice");
/// assert_eq!(store.generations(), 1);
/// ```
#[derive(Debug)]
pub struct TraceStore {
    profiles: Vec<Profile>,
    seed: u64,
    slots: Vec<TraceSlot>,
    /// Number of generator executions (not stream requests).
    generations: AtomicU64,
    /// Number of interning passes over a full stream.
    interns: AtomicU64,
    /// Number of structure-of-arrays splits built.
    soa_builds: AtomicU64,
    /// Memoized dense renamings, one per (trace, geometry).
    interners: MemoMap<(usize, BlockGeometry), Arc<BlockInterner>>,
    /// Memoized structure-of-arrays streams, one per
    /// (trace, filter, geometry, sharing model).
    soa: MemoMap<(usize, usize, BlockGeometry, SharingModel), Arc<SoaStream>>,
    /// Memoized per-shard structure-of-arrays streams, one per
    /// (trace, filter, geometry, shard count, sharing model).
    sharded_soa: MemoMap<(usize, usize, BlockGeometry, usize, SharingModel), Arc<ShardedSoa>>,
}

impl TraceStore {
    /// Creates a store over `profiles`, generating with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty.
    pub fn new(profiles: Vec<Profile>, seed: u64) -> Self {
        assert!(!profiles.is_empty(), "need at least one trace profile");
        let slots = profiles.iter().map(|_| TraceSlot::default()).collect();
        TraceStore {
            profiles,
            seed,
            slots,
            generations: AtomicU64::new(0),
            interns: AtomicU64::new(0),
            soa_builds: AtomicU64::new(0),
            interners: Mutex::new(HashMap::new()),
            soa: Mutex::new(HashMap::new()),
            sharded_soa: Mutex::new(HashMap::new()),
        }
    }

    /// The profiles this store generates.
    pub fn profiles(&self) -> &[Profile] {
        &self.profiles
    }

    /// The generation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of traces.
    pub fn num_traces(&self) -> usize {
        self.profiles.len()
    }

    /// The materialized record stream of one (trace, filter) pair.
    ///
    /// The first call per pair generates (or derives) the stream; later
    /// calls — from any thread — return the same shared slice.
    ///
    /// # Panics
    ///
    /// Panics if `trace` is out of range.
    pub fn records(&self, trace: usize, filter: TraceFilter) -> Arc<[TraceRecord]> {
        let slot = &self.slots[trace];
        slot.streams[filter.slot()]
            .get_or_init(|| match filter {
                TraceFilter::Full => {
                    self.generations.fetch_add(1, Ordering::Relaxed);
                    Generator::new(self.profiles[trace].clone(), self.seed).collect()
                }
                TraceFilter::ExcludeLockSpins => {
                    // Derived from the full stream: no second generator run.
                    let full = self.records(trace, TraceFilter::Full);
                    full.iter().copied().filter(|r| filter.keeps(r)).collect()
                }
            })
            .clone()
    }

    /// How many times a generator actually executed (for the
    /// generated-exactly-once guarantee; filters don't count).
    pub fn generations(&self) -> u64 {
        self.generations.load(Ordering::Relaxed)
    }

    /// How many interning passes ran over a full stream (one per
    /// (trace, geometry) in normal use).
    pub fn interns(&self) -> u64 {
        self.interns.load(Ordering::Relaxed)
    }

    /// How many structure-of-arrays splits were built (one per
    /// [`soa`](TraceStore::soa) key).
    pub fn soa_builds(&self) -> u64 {
        self.soa_builds.load(Ordering::Relaxed)
    }

    /// The trace's interner under `geometry` plus, when this call ran the
    /// interning pass, the full stream's dense ids from that same pass.
    fn intern_full(
        &self,
        trace: usize,
        geometry: BlockGeometry,
    ) -> (Arc<BlockInterner>, Option<Vec<u32>>) {
        assert!(trace < self.slots.len(), "trace {trace} out of range");
        let cell = {
            let mut map = self.interners.lock().expect("interner memo poisoned");
            map.entry((trace, geometry)).or_default().clone()
        };
        let mut dense = None;
        let interner = cell
            .get_or_init(|| {
                self.interns.fetch_add(1, Ordering::Relaxed);
                let records = self.records(trace, TraceFilter::Full);
                let (interner, ids) = BlockInterner::intern_stream(&records, geometry);
                dense = Some(ids);
                Arc::new(interner)
            })
            .clone();
        (interner, dense)
    }

    /// The dense block renaming of one trace under `geometry`, built once
    /// over the full stream and shared thereafter.
    ///
    /// Built over [`TraceFilter::Full`] so every derived (filtered) stream
    /// of the same trace maps through the same renaming.
    ///
    /// # Panics
    ///
    /// Panics if `trace` is out of range.
    pub fn interner(&self, trace: usize, geometry: BlockGeometry) -> Arc<BlockInterner> {
        self.intern_full(trace, geometry).0
    }

    /// The structure-of-arrays split of one (trace, filter) stream under
    /// `geometry` and `sharing` — flat `kind`/`cache_idx`/`block_id`/
    /// `first_ref` arrays with the sharing-model cache index and address
    /// math precomputed (see [`SoaStream`]), its dense block ids drawn from
    /// the trace's [`interner`](TraceStore::interner). Materialized once per
    /// key and shared thereafter.
    ///
    /// The full stream's split takes its dense ids from the interning
    /// pass itself; a filtered stream's split is selected by position from
    /// the full split under the same geometry and sharing model.
    ///
    /// # Panics
    ///
    /// Panics if `trace` is out of range.
    pub fn soa(
        &self,
        trace: usize,
        filter: TraceFilter,
        geometry: BlockGeometry,
        sharing: SharingModel,
    ) -> Arc<SoaStream> {
        let cell = {
            let mut map = self.soa.lock().expect("soa memo poisoned");
            map.entry((trace, filter.slot(), geometry, sharing)).or_default().clone()
        };
        cell.get_or_init(|| {
            self.soa_builds.fetch_add(1, Ordering::Relaxed);
            let full = self.records(trace, TraceFilter::Full);
            let soa = match filter {
                TraceFilter::Full => {
                    let (interner, dense) = self.intern_full(trace, geometry);
                    // A second split of the same trace (another sharing
                    // model) finds the interner built and looks ids up.
                    let dense = dense.unwrap_or_else(|| interner.dense_stream(&full));
                    SoaStream::build(&full, &dense, interner.num_blocks(), sharing)
                }
                TraceFilter::ExcludeLockSpins => {
                    let base = self.soa(trace, TraceFilter::Full, geometry, sharing);
                    let len = self.records(trace, filter).len();
                    base.select(full.iter().map(|r| filter.keeps(r)), len)
                }
            };
            Arc::new(soa)
        })
        .clone()
    }

    /// The block-sharded partition of one (trace, filter) stream's
    /// [`soa`](TraceStore::soa) split — `shards` sub-streams routed by
    /// `block_id % shards` (the infinite-cache router), with shard-local
    /// dense ids and global reference numbers. Materialized once per
    /// (trace, filter, geometry, shards, sharing) and shared thereafter.
    ///
    /// # Panics
    ///
    /// Panics if `trace` is out of range or `shards` is zero.
    pub fn sharded_soa(
        &self,
        trace: usize,
        filter: TraceFilter,
        geometry: BlockGeometry,
        shards: usize,
        sharing: SharingModel,
    ) -> Arc<ShardedSoa> {
        assert!(shards >= 1, "need at least one shard");
        let cell = {
            let mut map = self.sharded_soa.lock().expect("sharded soa memo poisoned");
            map.entry((trace, filter.slot(), geometry, shards, sharing)).or_default().clone()
        };
        cell.get_or_init(|| {
            let soa = self.soa(trace, filter, geometry, sharing);
            Arc::new(ShardedSoa::build(&soa, shards, |_, gid| gid as usize % shards))
        })
        .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> TraceStore {
        TraceStore::new(
            vec![Profile::pops().with_total_refs(5_000), Profile::thor().with_total_refs(5_000)],
            3,
        )
    }

    #[test]
    fn streams_are_shared_not_regenerated() {
        let s = store();
        let a = s.records(0, TraceFilter::Full);
        let b = s.records(0, TraceFilter::Full);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(s.generations(), 1);
        assert_eq!(a.len(), 5_000);
    }

    #[test]
    fn filtered_stream_derives_from_full_without_regenerating() {
        let s = store();
        let filtered = s.records(1, TraceFilter::ExcludeLockSpins);
        let full = s.records(1, TraceFilter::Full);
        assert_eq!(s.generations(), 1, "filter must not re-run the generator");
        assert!(filtered.len() < full.len(), "THOR has spins to drop");
        assert!(filtered.iter().all(|r| !r.is_lock_spin()));
    }

    #[test]
    fn concurrent_requests_generate_once() {
        let s = store();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for t in 0..s.num_traces() {
                        for f in TraceFilter::ALL {
                            let _ = s.records(t, f);
                        }
                    }
                });
            }
        });
        assert_eq!(s.generations(), s.num_traces() as u64);
    }

    #[test]
    fn matches_a_fresh_generator() {
        let s = store();
        let stored = s.records(0, TraceFilter::Full);
        let fresh: Vec<TraceRecord> =
            Generator::new(Profile::pops().with_total_refs(5_000), 3).collect();
        assert_eq!(&stored[..], &fresh[..]);
    }

    #[test]
    #[should_panic(expected = "at least one trace")]
    fn empty_profiles_rejected() {
        let _ = TraceStore::new(vec![], 0);
    }

    #[test]
    fn interner_is_memoized_per_geometry() {
        let s = store();
        let a = s.interner(0, BlockGeometry::PAPER);
        let b = s.interner(0, BlockGeometry::PAPER);
        assert!(Arc::ptr_eq(&a, &b), "same (trace, geometry) shares the interner");
        let wide = s.interner(0, BlockGeometry::new(5));
        assert!(!Arc::ptr_eq(&a, &wide));
        assert!(wide.num_blocks() <= a.num_blocks(), "wider blocks cannot increase count");
        assert_eq!(s.generations(), 1, "interning reuses the stored stream");
    }

    #[test]
    fn sharded_streams_are_memoized_and_partition_the_stream() {
        let s = store();
        let g = BlockGeometry::PAPER;
        let p = SharingModel::Process;
        let a = s.sharded_soa(0, TraceFilter::Full, g, 4, p);
        let b = s.sharded_soa(0, TraceFilter::Full, g, 4, p);
        assert!(Arc::ptr_eq(&a, &b), "same (trace, filter, shards) shares the partition");
        let other = s.sharded_soa(0, TraceFilter::Full, g, 2, p);
        assert!(!Arc::ptr_eq(&a, &other), "shard count is part of the key");
        assert_eq!(a.total_records(), s.records(0, TraceFilter::Full).len());
        assert_eq!(a.total_blocks(), s.interner(0, g).num_blocks());
        assert_eq!(s.generations(), 1, "sharding reuses the stored stream");
        // The mod router: every data entry's original dense id maps to
        // shard gid % 4, i.e. local ids stride the global id space.
        let soa = s.soa(0, TraceFilter::Full, g, p);
        for (i, sh) in a.shards().iter().enumerate() {
            for (j, &g_ref) in sh.global_refs.iter().enumerate() {
                if sh.soa.kind[j].is_data() {
                    assert_eq!(soa.block_id[(g_ref - 1) as usize] as usize % 4, i);
                }
            }
        }
    }

    #[test]
    fn soa_streams_are_memoized_per_sharing_model() {
        let s = store();
        let g = BlockGeometry::PAPER;
        let a = s.soa(0, TraceFilter::Full, g, SharingModel::Processor);
        let b = s.soa(0, TraceFilter::Full, g, SharingModel::Processor);
        assert!(Arc::ptr_eq(&a, &b), "same key shares the split");
        let proc = s.soa(0, TraceFilter::Full, g, SharingModel::Process);
        assert!(!Arc::ptr_eq(&a, &proc), "sharing model is part of the key");
        assert_eq!(a.len(), s.records(0, TraceFilter::Full).len());
        assert_eq!(a.num_blocks, s.interner(0, g).num_blocks());
        assert_eq!(s.generations(), 1, "the split reuses the stored stream");
        let sh = s.sharded_soa(0, TraceFilter::Full, g, 3, SharingModel::Process);
        let sh2 = s.sharded_soa(0, TraceFilter::Full, g, 3, SharingModel::Process);
        assert!(Arc::ptr_eq(&sh, &sh2));
        assert_eq!(sh.shards().len(), 3);
        let total: usize = sh.shards().iter().map(|s| s.soa.len()).sum();
        assert_eq!(total, a.len());
    }

    #[test]
    fn one_interning_pass_serves_every_filter() {
        let s = store();
        let (g, p) = (BlockGeometry::PAPER, SharingModel::Process);
        // The filtered split first: it builds the full split it selects from.
        for f in [TraceFilter::ExcludeLockSpins, TraceFilter::Full, TraceFilter::ExcludeLockSpins] {
            let _ = s.soa(1, f, g, p);
        }
        assert_eq!(s.interns(), 1, "one hashing pass per (trace, geometry)");
        assert_eq!(s.soa_builds(), 2, "one split per (trace, filter)");
        assert_eq!(s.generations(), 1);
    }

    #[test]
    fn dense_blocks_align_with_records_for_every_filter() {
        let s = store();
        let geometry = BlockGeometry::PAPER;
        let interner = s.interner(1, geometry);
        for f in TraceFilter::ALL {
            let records = s.records(1, f);
            let soa = s.soa(1, f, geometry, SharingModel::Processor);
            assert_eq!(soa.len(), records.len());
            for (r, &id) in records.iter().zip(soa.block_id.iter()) {
                if r.is_data() {
                    let expect = interner.get(geometry.block_of(r.addr)).unwrap();
                    assert_eq!(expect.raw(), id, "every filter maps through the full interner");
                }
            }
        }
        assert_eq!(s.generations(), 1);
    }
}
