//! The monomorphized replay core against its `dyn Protocol` instantiation
//! and the reference oracle.
//!
//! The engine has one core. The kind-based adapters (`run_soa`,
//! `run_sharded`) instantiate it per concrete scheme over the store's
//! memoized structure-of-arrays stream; the record iterator `run`
//! instantiates it with `P = dyn Protocol` behind a caller-built
//! `Box<dyn Protocol>`. For every scheme, trace, filter, geometry,
//! sharing model and shard count both must give **bit-identical**
//! results — same [`EventCounters`], same verifier verdicts, same error
//! text, same windowed deltas — and the windowed deltas must match the
//! naive oracle in `tests/oracle`. The SoA arrays themselves are pinned
//! against an independent AoS-derived recomputation first, so a
//! precompute bug cannot hide behind a matching replay bug.

mod oracle;

use dircc_cache::FiniteCacheConfig;
use dircc_core::{build, ProtocolKind};
use dircc_obs::{NoopRecorder, WindowedRecorder};
use dircc_sim::{
    run, run_chunked, run_sharded, run_soa, shard_stream, RunConfig, SharingModel, TraceFilter,
    Workbench,
};
use dircc_trace::gen::Profile;
use dircc_trace::soa::{soa_reference_values, SoaStream};
use dircc_trace::store::TraceStore;
use dircc_trace::{SliceChunks, TraceRecord};
use dircc_types::BlockGeometry;
use std::sync::Arc;

const CPUS: usize = 4;

/// Every taxonomy point the simulator replays.
const KINDS: [ProtocolKind; 13] = [
    ProtocolKind::DirNb { pointers: 1 },
    ProtocolKind::DirNb { pointers: 2 },
    ProtocolKind::DirNb { pointers: 4 },
    ProtocolKind::Dir0B,
    ProtocolKind::DirB { pointers: 1 },
    ProtocolKind::CodedSet,
    ProtocolKind::Tang,
    ProtocolKind::YenFu,
    ProtocolKind::Wti,
    ProtocolKind::Dragon,
    ProtocolKind::Berkeley,
    ProtocolKind::WriteOnce,
    ProtocolKind::Firefly,
];

fn store() -> TraceStore {
    let profiles = Profile::paper_suite().into_iter().map(|p| p.with_total_refs(6_000)).collect();
    TraceStore::new(profiles, 9)
}

/// The SoA precompute equals an independent AoS-derived recomputation for
/// every trace × filter × geometry × sharing model — cache indices,
/// first-reference bits, kinds, and the dense block ids themselves.
#[test]
fn soa_streams_match_aos_derivation_across_the_matrix() {
    let store = store();
    for trace in 0..store.num_traces() {
        for filter in TraceFilter::ALL {
            for geometry in [BlockGeometry::PAPER, BlockGeometry::new(5)] {
                let interner = store.interner(trace, geometry);
                for sharing in [SharingModel::Processor, SharingModel::Process] {
                    let records = store.records(trace, filter);
                    let soa = store.soa(trace, filter, geometry, sharing);
                    let (cache_idx, first_ref) = soa_reference_values(&records, geometry, sharing);
                    let label = format!("trace {trace} {filter:?} {geometry:?} {sharing:?}");
                    assert_eq!(soa.len(), records.len(), "{label}: length");
                    assert_eq!(soa.cache_idx, cache_idx, "{label}: cache indices");
                    assert_eq!(soa.first_ref, first_ref, "{label}: first-ref bits");
                    let kinds: Vec<_> = records.iter().map(|r| r.kind).collect();
                    assert_eq!(soa.kind, kinds, "{label}: kinds");
                    for (j, r) in records.iter().enumerate() {
                        if r.is_data() {
                            let id = interner.get(geometry.block_of(r.addr)).unwrap();
                            assert_eq!(soa.block_id[j], id.raw(), "{label}: block id at {j}");
                        }
                    }
                    assert_eq!(
                        soa.max_cache_idx,
                        cache_idx
                            .iter()
                            .zip(&records[..])
                            .filter(|(_, r)| r.is_data())
                            .map(|(&i, _)| i)
                            .max()
                            .unwrap_or(0),
                        "{label}: max cache index"
                    );
                }
            }
        }
    }
}

/// Serial and sharded monomorphized replay vs the `dyn Protocol`
/// instantiation, full result compared (counters, refs, verifier
/// verdicts) — every scheme, every trace, shards ∈ {1, 2, 8}, verifier on.
#[test]
fn mono_replay_is_bit_identical_to_dyn_for_every_scheme() {
    let store = store();
    let cfg = RunConfig { verify: true, ..RunConfig::default().with_process_sharing() };
    for trace in 0..store.num_traces() {
        let records = store.records(trace, TraceFilter::Full);
        let soa = store.soa(trace, TraceFilter::Full, cfg.geometry, cfg.sharing);
        for kind in KINDS {
            let dy = run(build(kind, CPUS).as_mut(), records.iter().copied(), &cfg).unwrap();
            let mo = run_soa(kind, CPUS, &records, &soa, &cfg, &mut NoopRecorder).unwrap();
            assert_eq!(dy.counters, mo.counters, "{kind} trace {trace} serial counters");
            assert_eq!(dy.refs, mo.refs, "{kind} trace {trace} serial refs");
            assert_eq!(dy.violations, mo.violations, "{kind} trace {trace} serial verdicts");
            for shards in [1usize, 2, 8] {
                let ssoa =
                    store.sharded_soa(trace, TraceFilter::Full, cfg.geometry, shards, cfg.sharing);
                let ms = run_sharded(kind, CPUS, &records, &ssoa, &cfg, |_, _, _, _| ()).unwrap();
                assert_eq!(dy.counters, ms.counters, "{kind} trace {trace} @{shards} counters");
                assert_eq!(dy.violations, ms.violations, "{kind} trace {trace} @{shards} verdicts");
            }
        }
    }
}

/// Finite caches route every instantiation through the instrumented
/// loop: eviction order, write-back traffic and verifier verdicts must
/// match between the monomorphized and the `dyn Protocol` core.
#[test]
fn finite_cache_mono_matches_dyn() {
    let store = store();
    let cfg = RunConfig {
        verify: true,
        ..RunConfig::default()
            .with_process_sharing()
            .with_finite_caches(FiniteCacheConfig::new(4, 2))
    };
    for kind in [ProtocolKind::Dir0B, ProtocolKind::Berkeley, ProtocolKind::Mesi] {
        for trace in 0..store.num_traces() {
            let records = store.records(trace, TraceFilter::Full);
            let soa = store.soa(trace, TraceFilter::Full, cfg.geometry, cfg.sharing);
            let dy = run(build(kind, CPUS).as_mut(), records.iter().copied(), &cfg).unwrap();
            let mo = run_soa(kind, CPUS, &records, &soa, &cfg, &mut NoopRecorder).unwrap();
            assert_eq!(dy.counters, mo.counters, "{kind} trace {trace} finite counters");
            assert_eq!(dy.violations, mo.violations, "{kind} trace {trace} finite verdicts");
            assert!(mo.counters.cache_evictions() > 0, "{kind} trace {trace}: must evict");
        }
    }
}

/// A windowed replay's deltas equal the oracle's cumulative counters
/// differenced at the same window boundaries, sample for sample.
#[test]
fn windowed_replay_matches_the_oracle_sample_for_sample() {
    let store = store();
    let window = 700u64;
    for cfg in [
        RunConfig::default().with_process_sharing(),
        RunConfig::default()
            .with_process_sharing()
            .with_finite_caches(FiniteCacheConfig::new(8, 2)),
    ] {
        let records = store.records(0, TraceFilter::Full);
        let soa = store.soa(0, TraceFilter::Full, cfg.geometry, cfg.sharing);
        for kind in [ProtocolKind::Dir0B, ProtocolKind::Dragon] {
            let mut rec = WindowedRecorder::new(window);
            let res = run_soa(kind, CPUS, &records, &soa, &cfg, &mut rec).unwrap();
            let mut boundaries = Vec::new();
            let last = records.len() as u64;
            let want =
                oracle::replay_observed(build(kind, CPUS).as_mut(), &records, &cfg, |n, c| {
                    if n % window == 0 || n == last {
                        boundaries.push((n, c.clone()));
                    }
                });
            assert_eq!(res.counters, want, "{kind} counters");
            let samples = rec.into_samples();
            assert_eq!(samples.len(), boundaries.len(), "{kind} window count");
            let mut prev = (0u64, dircc_core::EventCounters::new());
            for (s, (end, cum)) in samples.iter().zip(&boundaries) {
                assert_eq!((s.start_ref, s.end_ref), (prev.0, *end), "{kind} window bounds");
                assert_eq!(s.counters, cum.diff(&prev.1), "{kind} window {} delta", s.index);
                prev = (*end, cum.clone());
            }
        }
    }
}

/// An undersized protocol fails with one literal error text on every
/// adapter: the core reads the original record back for the message.
#[test]
fn bounds_error_text_is_pinned() {
    let store = store();
    let cfg = RunConfig::default().with_process_sharing();
    let records = store.records(0, TraceFilter::Full);
    let soa = store.soa(0, TraceFilter::Full, cfg.geometry, cfg.sharing);
    let want = "reference 4: cache index 2 out of range for 2 caches (cpu2, pid2, Read at \
                0x40000000; did you size the protocol for the sharing model?)";
    let kind = ProtocolKind::Dir0B;
    let sharded = shard_stream(&records, &soa, 3, &cfg);
    for (adapter, got) in [
        ("run", run(build(kind, 2).as_mut(), records.iter().copied(), &cfg)),
        ("run_soa", run_soa(kind, 2, &records, &soa, &cfg, &mut NoopRecorder)),
        ("run_sharded", run_sharded(kind, 2, &records, &sharded, &cfg, |_, _, _, _| ())),
        ("run_chunked", run_chunked(kind, 2, &mut SliceChunks::new(&records[..], 3), &cfg)),
    ] {
        assert_eq!(got.unwrap_err(), want, "{adapter}");
    }
}

/// Misaligned or wrong-sharing SoA streams are rejected up front.
#[test]
fn mismatched_soa_streams_are_rejected() {
    let records: Vec<TraceRecord> = Vec::new();
    let empty = SoaStream::build(&[], &[], 0, SharingModel::Process);
    // Sharing mismatch: the default config uses Processor sharing.
    let err = run_soa(
        ProtocolKind::Wti,
        CPUS,
        &records,
        &empty,
        &RunConfig::default(),
        &mut NoopRecorder,
    )
    .unwrap_err();
    assert_eq!(
        err,
        "soa stream was built under Process sharing but the run uses Processor; rebuild it \
         for this sharing model"
    );
    // Length mismatch.
    let store = store();
    let recs = store.records(0, TraceFilter::Full);
    let cfg = RunConfig::default().with_process_sharing();
    let err = run_soa(ProtocolKind::Wti, CPUS, &recs, &empty, &cfg, &mut NoopRecorder).unwrap_err();
    assert_eq!(err, "soa stream has 0 entries for 6000 records; rebuild it from the same stream");
    // A partition of another stream.
    let sharded = store.sharded_soa(1, TraceFilter::ExcludeLockSpins, cfg.geometry, 2, cfg.sharing);
    let err =
        run_sharded(ProtocolKind::Wti, CPUS, &recs, &sharded, &cfg, |_, _, _, _| ()).unwrap_err();
    assert!(err.starts_with("sharded stream has "), "unexpected error: {err}");
    assert!(err.ends_with(" entries for 6000 records; rebuild it from the same stream"), "{err}");
}

/// The workbench's memoized runs, serial and sharded, reproduce the
/// oracle; workbenches sharing one store generate each trace only once.
#[test]
fn workbench_matches_the_oracle_and_shares_the_store() {
    let profiles: Vec<Profile> =
        Profile::paper_suite().into_iter().map(|p| p.with_total_refs(6_000)).collect();
    let store = Arc::new(TraceStore::new(profiles, 9));
    let serial = Workbench::with_store(Arc::clone(&store));
    let sharded = Workbench::with_store(Arc::clone(&store)).with_shards(4);
    let cfg = RunConfig::default().with_process_sharing();
    for kind in [ProtocolKind::DirNb { pointers: 1 }, ProtocolKind::Dragon, ProtocolKind::Tang] {
        for trace in 0..serial.num_traces() {
            for filter in TraceFilter::ALL {
                let records = store.records(trace, filter);
                let want = oracle::replay(build(kind, CPUS).as_mut(), &records, &cfg);
                let label = format!("{kind} trace {trace} {filter:?}");
                assert_eq!(*serial.counters(kind, trace, filter), want, "{label} serial");
                assert_eq!(*sharded.counters(kind, trace, filter), want, "{label} sharded");
            }
        }
    }
    assert_eq!(store.generations(), store.num_traces() as u64, "each trace generated once");
}
