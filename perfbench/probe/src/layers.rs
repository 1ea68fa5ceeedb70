//! Traced probes: each runs one user operation in-process, one layer at
//! a time, timing every call into the layer's public API from outside.
//! Phases run back to back, so their times add up to the probe's wall
//! clock less the glue between them (reported as span coverage).
//!
//! Only API that outlives the planned single-engine collapse is used:
//! `Workbench`, `TraceStore::{records, soa, generations}`, `Generator`,
//! the experiment functions, `ChunkedWriter`/`open_trace`, the iterator
//! `run`, `check_protocol`, `dircc_serve::client` and `JobHandler`.

use std::fs::File;
use std::hint::black_box;
use std::io::{BufReader, BufWriter};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use dircc_check::{check_protocol, default_kinds, CheckConfig};
use dircc_core::ProtocolKind;
use dircc_serve::{JobHandler, JobSpec};
use dircc_sim::experiments::{extensions, figures, network, studies, system, tables};
use dircc_sim::{
    default_jobs, filter_label, par_map_indexed, run, RunConfig, TraceFilter, Workbench,
    WorkbenchHandler,
};
use dircc_trace::chunk::{open_trace, ChunkedWriter, Records};
use dircc_trace::gen::{Generator, Profile};
use dircc_trace::spill::spill_shards;
use dircc_trace::store::TraceStore;
use dircc_trace::TraceRecord;

use crate::stats::{json_num, median};
use crate::Flags;

/// Runs `f`, returning its result and wall seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// A JSON string literal (the probe only emits ASCII names and digests).
fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// A JSON object from `(key, already-encoded value)` pairs.
fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("{}: {v}", quote(k))).collect();
    format!("{{{}}}", body.join(", "))
}

/// `dircc-probe paper`: the `dircc all` pipeline at paper scale, split
/// into generate → filter → intern/SoA → replay → finite-cache studies →
/// pricing and rendering. Writes the rendered text (byte-identical to
/// `dircc all` stdout) to `<out-dir>/paper_stdout.txt`.
pub fn paper(flags: &Flags) -> Result<String, String> {
    let seed: u64 = flags.num("seed", None)?;
    let out_dir = flags.str("out-dir")?;
    let start = Instant::now();
    let store = Arc::new(TraceStore::new(Profile::paper_suite(), seed));
    let wb = Workbench::with_store(Arc::clone(&store));
    let work = wb.paper_workload();
    let traces = store.num_traces();
    let mut filters: Vec<TraceFilter> = work.iter().map(|&(_, f)| f).collect();
    filters.sort_by_key(|f| filter_label(*f));
    filters.dedup();
    let cfg = RunConfig::default().with_process_sharing();

    let ((), gen_s) = timed(|| {
        for t in 0..traces {
            black_box(store.records(t, TraceFilter::Full));
        }
    });
    let ((), filter_s) = timed(|| {
        for t in 0..traces {
            for &f in filters.iter().filter(|&&f| f != TraceFilter::Full) {
                black_box(store.records(t, f));
            }
        }
    });
    let ((), intern_s) = timed(|| {
        for t in 0..traces {
            for &f in &filters {
                black_box(store.soa(t, f, cfg.geometry, cfg.sharing));
            }
        }
    });
    let (replay_runs, replay_s) = timed(|| wb.warm(&work, default_jobs()));
    let ((finite, footnote2), finite_s) =
        timed(|| (extensions::finite_cache(&wb), extensions::footnote2(&wb)));
    // Finite-cache passes the studies' output implies (two schemes per
    // footnote-2 point and trace, one per finite-cache point and trace).
    // The studies expose no counter of passes actually run, so this is a
    // shape count: memoizing a pass leaves it unchanged.
    let finite_replays = footnote2.points.len() * traces * 2 + finite.points.len() * traces;
    let (text, render_s) = timed(|| {
        let sections = [
            tables::table1().to_string(),
            tables::table2().to_string(),
            tables::table3(&wb).to_string(),
            tables::table4(&wb).to_string(),
            tables::table5(&wb).to_string(),
            figures::figure1(&wb).to_string(),
            figures::figure2(&wb).to_string(),
            figures::figure3(&wb).to_string(),
            figures::figure4(&wb).to_string(),
            figures::figure5(&wb).to_string(),
            studies::sensitivity(&wb).to_string(),
            studies::spinlock(&wb).to_string(),
            studies::berkeley(&wb).to_string(),
            studies::scalability(&wb).to_string(),
            system::system(&wb).to_string(),
            finite.to_string(),
            footnote2.to_string(),
            network::storage_table().to_string(),
        ];
        sections.iter().map(|s| format!("{s}\n")).collect::<String>()
    });
    let wall_s = start.elapsed().as_secs_f64();

    let names = wb.trace_names();
    let mut digests = Vec::new();
    let mut refs = 0u64;
    for &(kind, filter) in &work {
        for (t, trace) in names.iter().enumerate() {
            let c = wb.counters(kind, t, filter);
            refs += c.total();
            digests.push(quote(&format!(
                "{} {trace} {} {:016x}",
                kind.display_name(wb.n_caches()),
                filter_label(filter),
                c.digest()
            )));
        }
    }
    let path = Path::new(out_dir).join("paper_stdout.txt");
    std::fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(object(&[
        ("wall_s", wall_s.to_string()),
        ("trace.gen_s", gen_s.to_string()),
        ("trace.filter_s", filter_s.to_string()),
        ("trace.intern_s", intern_s.to_string()),
        ("trace.gen_runs", store.generations().to_string()),
        ("sim.replay_s", replay_s.to_string()),
        ("sim.replay_runs", replay_runs.to_string()),
        ("sim.replay_refs", refs.to_string()),
        ("sim.replay_runs_after_render", wb.executed_runs().to_string()),
        ("sim.experiments.finite_s", finite_s.to_string()),
        ("sim.finite_replays", finite_replays.to_string()),
        ("sim.experiments.render_s", render_s.to_string()),
        ("digests", format!("[{}]", digests.join(", "))),
    ]))
}

/// The schemes `dircc replay` runs by default, in its order.
const REPLAY_KINDS: [ProtocolKind; 4] = [
    ProtocolKind::DirNb { pointers: 1 },
    ProtocolKind::Wti,
    ProtocolKind::Dir0B,
    ProtocolKind::Dragon,
];

/// Machine size `dircc replay` simulates by default.
const REPLAY_CPUS: usize = 4;

fn decode(path: &Path) -> Result<Vec<TraceRecord>, String> {
    let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let source =
        open_trace(BufReader::new(file)).map_err(|e| format!("{}: {e}", path.display()))?;
    Records::new(source)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// `dircc-probe record-replay`: generate → chunked v2 encode for each
/// paper profile, then per file and scheme decode → replay (`--verify`
/// semantics), then one two-shard spill of the first file — the work of
/// `dircc record` + `dircc replay --in [--shards 2]`. Prints each
/// replayed row as `dircc replay` prints its integer columns.
pub fn record_replay(flags: &Flags) -> Result<String, String> {
    let seed: u64 = flags.num("seed", None)?;
    let dir = Path::new(flags.str("out-dir")?);
    let cfg = RunConfig { verify: true, ..RunConfig::default().with_process_sharing() };
    let start = Instant::now();
    let (mut gen_s, mut encode_s, mut decode_s, mut replay_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut bytes, mut refs) = (0u64, 0u64);
    let mut files = Vec::new();
    for profile in Profile::paper_suite() {
        let path = dir.join(format!("{}.dcct", profile.name.to_string().to_ascii_lowercase()));
        let (records, s) = timed(|| Generator::new(profile, seed).collect::<Vec<TraceRecord>>());
        gen_s += s;
        let (written, s) = timed(|| -> std::io::Result<()> {
            let mut w = ChunkedWriter::new(BufWriter::new(File::create(&path)?));
            w.write_all(&records)?;
            w.finish()?;
            Ok(())
        });
        written.map_err(|e| format!("{}: {e}", path.display()))?;
        encode_s += s;
        refs += records.len() as u64;
        bytes += std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
        files.push(path);
    }
    let mut rows = Vec::new();
    for path in &files {
        for kind in REPLAY_KINDS {
            let (records, s) = timed(|| decode(path));
            decode_s += s;
            let records = records?;
            let mut protocol = dircc_core::build(kind, REPLAY_CPUS);
            let (result, s) = timed(|| run(protocol.as_mut(), records, &cfg));
            replay_s += s;
            let result = result?;
            let c = &result.counters;
            rows.push(quote(&format!(
                "{} {} {} {} {} {} {}",
                protocol.name(),
                result.refs,
                c.rm(),
                c.wm(),
                c.wh(),
                c.write_backs(),
                result.violations.len()
            )));
        }
    }
    let spill_dir = dir.join("spill");
    std::fs::create_dir_all(&spill_dir).map_err(|e| e.to_string())?;
    let (spilled, spill_s) = timed(|| -> Result<u64, String> {
        let file = File::open(&files[0]).map_err(|e| e.to_string())?;
        let mut source = open_trace(BufReader::new(file)).map_err(|e| e.to_string())?;
        let shards =
            spill_shards(&mut source, cfg.geometry, 2, &spill_dir, |_, gid| gid as usize % 2)
                .map_err(|e| format!("spill: {e}"))?;
        Ok(shards.total_records())
    });
    let spilled = spilled?;
    let wall_s = start.elapsed().as_secs_f64();
    Ok(object(&[
        ("wall_s", wall_s.to_string()),
        ("trace.gen_s", gen_s.to_string()),
        ("trace.chunk.encode_s", encode_s.to_string()),
        ("trace.chunk.decode_s", decode_s.to_string()),
        ("trace.spill_s", spill_s.to_string()),
        ("trace.chunk.bytes_per_ref", (bytes as f64 / refs as f64).to_string()),
        ("sim.replay_s", replay_s.to_string()),
        ("spilled_records", spilled.to_string()),
        ("rows", format!("[{}]", rows.join(", "))),
    ]))
}

/// `dircc-probe check`: `dircc check`'s exhaustive exploration of all
/// twelve schemes at the default bound, on the same worker count.
pub fn check(_flags: &Flags) -> Result<String, String> {
    let kinds = default_kinds();
    let cfg = CheckConfig::default();
    let (reports, explore_s) =
        timed(|| par_map_indexed(kinds.len(), default_jobs(), |i| check_protocol(kinds[i], &cfg)));
    let states: u64 = reports.iter().map(|r| r.states).sum();
    let transitions: u64 = reports.iter().map(|r| r.transitions).sum();
    let rows: Vec<String> = reports
        .iter()
        .map(|r| {
            let verdict = if r.passed() { "PASS" } else { "FAIL" };
            quote(&format!("{} {} {} {verdict}", r.name, r.states, r.transitions))
        })
        .collect();
    Ok(object(&[
        ("check.explore_s", explore_s.to_string()),
        ("check.states", states.to_string()),
        ("check.transitions", transitions.to_string()),
        ("rows", format!("[{}]", rows.join(", "))),
    ]))
}

/// `dircc-probe handler`: runs each `--misses` job through a fresh
/// in-process `WorkbenchHandler` — the daemon's handler without HTTP —
/// timing `JobHandler::run` and writing each body (one per line) to
/// `--out` for comparison with the served bodies.
pub fn handler(flags: &Flags) -> Result<String, String> {
    let path = flags.str("misses")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let handler = WorkbenchHandler::new();
    let mut times_ms = Vec::new();
    let mut bodies = String::new();
    for (i, line) in text.lines().enumerate() {
        let job = JobSpec::from_json(line.as_bytes()).map_err(|e| format!("job {i}: {e}"))?;
        let (body, s) = timed(|| handler.run(&job, &format!("probe-{i}")));
        let body = body.map_err(|e| format!("job {i}: {}", e.message))?;
        times_ms.push(s * 1e3);
        bodies.push_str(body.trim_end());
        bodies.push('\n');
    }
    let out = flags.str("out")?;
    std::fs::write(out, bodies).map_err(|e| format!("{out}: {e}"))?;
    Ok(object(&[("sim.service.run_ms", json_num(median(&times_ms)))]))
}
