//! The reference oracle (`tests/oracle`) against the checked-in counter
//! digests, and every engine adapter against the oracle.
//!
//! The oracle is pinned to `BENCH_smoke.json` first, so a bug shared by
//! the oracle and the engine cannot hide behind their agreement. Then
//! every way into the engine's one core — the record iterator (`run`,
//! with `P = dyn Protocol`), the memoized structure-of-arrays stream,
//! its in-memory shards, a chunked source and on-disk spill files — must
//! reproduce the oracle's counters for every scheme, trace and filter,
//! with infinite and with finite caches, verifier on.

mod oracle;

use dircc_cache::FiniteCacheConfig;
use dircc_core::{build, ProtocolKind};
use dircc_obs::NoopRecorder;
use dircc_sim::{
    filter_label, run, run_chunked, run_sharded, run_soa, run_spilled, shard_stream, spill_sharded,
    RunConfig, TraceFilter, Workbench,
};
use dircc_trace::gen::Profile;
use dircc_trace::{SliceChunks, TraceStore};
use std::collections::HashMap;

/// Every taxonomy point the simulator replays.
const KINDS: [ProtocolKind; 14] = [
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
    ProtocolKind::Mesi,
];

/// `(scheme, trace, filter) -> digest` from the checked-in smoke report.
fn smoke_digests() -> HashMap<(String, String, String), String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_smoke.json");
    let text = std::fs::read_to_string(path).expect("BENCH_smoke.json is checked in");
    let field = |line: &str, key: &str| {
        let tag = format!("\"{key}\": \"");
        let start = line.find(&tag).expect(key) + tag.len();
        line[start..start + line[start..].find('"').expect(key)].to_string()
    };
    text.lines()
        .filter(|l| l.contains("\"digest\""))
        .map(|l| {
            let key = (field(l, "scheme"), field(l, "trace"), field(l, "filter"));
            (key, field(l, "digest"))
        })
        .collect()
}

/// The oracle reproduces every one of the 42 smoke-matrix digests
/// (20k references per trace, seed 1988, process sharing).
#[test]
fn oracle_reproduces_the_checked_in_smoke_digests() {
    let want = smoke_digests();
    assert_eq!(want.len(), 42, "the smoke report covers the whole paper matrix");
    let wb = Workbench::paper_scaled(20_000, 1988);
    let n = wb.n_caches();
    let cfg = RunConfig::default().with_process_sharing();
    let mut checked = 0;
    for (kind, filter) in wb.paper_workload() {
        for (trace, name) in wb.trace_names().into_iter().enumerate() {
            let records = wb.records(trace, filter);
            let got = oracle::replay(build(kind, n).as_mut(), &records, &cfg);
            let key = (kind.display_name(n), name, filter_label(filter).to_string());
            assert_eq!(format!("{:016x}", got.digest()), want[&key], "{key:?}");
            checked += 1;
        }
    }
    assert_eq!(checked, want.len());
}

/// Every adapter reproduces the oracle's counters exactly, with no
/// verifier findings, for every scheme × trace × filter × cache model.
#[test]
fn every_adapter_matches_the_oracle() {
    let profiles = Profile::paper_suite().into_iter().map(|p| p.with_total_refs(4_000)).collect();
    let store = TraceStore::new(profiles, 9);
    let dir = std::env::temp_dir().join(format!("dircc_reference_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for finite_cache in [None, Some(FiniteCacheConfig::new(16, 2))] {
        let cfg =
            RunConfig { verify: true, finite_cache, ..RunConfig::default().with_process_sharing() };
        for trace in 0..store.num_traces() {
            for filter in TraceFilter::ALL {
                let records = store.records(trace, filter);
                let soa = store.soa(trace, filter, cfg.geometry, cfg.sharing);
                let sharded = shard_stream(&records, &soa, 3, &cfg);
                let spilled =
                    spill_sharded(&mut SliceChunks::new(&records[..], 777), 3, &cfg, &dir).unwrap();
                for kind in KINDS {
                    let label = format!("{kind} trace {trace} {filter:?} {finite_cache:?}");
                    let want = oracle::replay(build(kind, 4).as_mut(), &records, &cfg);
                    let mut chunks = SliceChunks::new(&records[..], 777);
                    for (adapter, got) in [
                        ("run", run(build(kind, 4).as_mut(), records.iter().copied(), &cfg)),
                        ("run_soa", run_soa(kind, 4, &records, &soa, &cfg, &mut NoopRecorder)),
                        (
                            "run_sharded",
                            run_sharded(kind, 4, &records, &sharded, &cfg, |_, _, _, _| ()),
                        ),
                        ("run_chunked", run_chunked(kind, 4, &mut chunks, &cfg)),
                        ("run_spilled", run_spilled(kind, 4, &spilled, &cfg)),
                    ] {
                        let got = got.unwrap_or_else(|e| panic!("{adapter} {label}: {e}"));
                        assert_eq!(got.counters, want, "{adapter} {label}: counters");
                        assert_eq!(got.refs, records.len() as u64, "{adapter} {label}: refs");
                        assert!(
                            got.violations.is_empty(),
                            "{adapter} {label}: {:?}",
                            got.violations
                        );
                    }
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
