//! `dircc` — command-line experiment runner.
//!
//! Each subcommand regenerates one artifact of the ISCA 1988 paper from
//! the synthetic trace suite:
//!
//! ```text
//! dircc table1|table2|table3|table4|table5
//! dircc figure1|figure2|figure3|figure4|figure5
//! dircc sensitivity|spinlock|berkeley|scalability
//! dircc all                          # everything, in paper order
//! dircc gen --profile pops --out t.dcct   # write a v1 (flat) binary trace
//! dircc record --profile pops --out t.dcct  # write a chunked v2 trace
//! dircc replay --in t.dcct [--scheme S] [--shards N] [--verify]
//! dircc stats --in t.dcct                 # Table 3 stats of a trace file
//! dircc bench [--smoke] [--out FILE]      # replay-throughput benchmark
//! dircc benchcmp [--smoke] [--in FILE]    # bench-regression gate
//! dircc check [--smoke] [--cpus N] [--blocks M] [--depth D] [--scheme S]
//! dircc profile <experiment> [--window K] [--out FILE] [--spans FILE]
//! dircc serve [--addr HOST:PORT] [--workers N] [--cache-entries N] [--queue N]
//! dircc submit --serve URL --scheme S [--profile P] [--op run|series|health|metrics|spans|shutdown]
//! dircc bench --serve URL [--clients N] [--requests M]   # HTTP load generator
//! dircc top --serve URL [--interval S] [--once]   # live /metrics dashboard
//! ```
//!
//! `dircc check` exhaustively explores every protocol's state space up to
//! the given bounds (see the `dircc-check` crate) and prints a per-scheme
//! PASS/FAIL table; any violation prints a minimal counterexample and
//! fails the process. `dircc benchcmp` re-runs the bench matrix and fails
//! if any deterministic per-run counter drifts from a checked-in baseline.
//! `dircc profile` replays an experiment's work list with windowed
//! counter sampling: it writes a JSONL time series (one line per window),
//! a Chrome trace-event span profile of every workbench phase, and prints
//! a per-run cycles-per-reference sparkline.
//!
//! `dircc record` writes the chunked, delta-compressed v2 trace format
//! (`--chunk N` records per chunk); `dircc replay` streams a recorded
//! trace (either format, auto-detected) through the engine with memory
//! bounded by the chunk size — with `--shards N` the stream is first
//! spilled into per-shard temp files, so even the sharded replay never
//! holds the whole trace in RAM. Without `--in`, `replay` generates the
//! `--profile` trace in memory and replays the classic indexed path;
//! stdout is byte-identical between the two modes.
//!
//! Common flags: `--refs N` (references per trace; default = paper scale),
//! `--seed S` (default 1988), `--jobs N` (worker threads; default = the
//! machine's available parallelism), `--shards N` (block shards per
//! replay; default 1). Results are independent of `--jobs` and
//! `--shards`: stdout is byte-identical for any combination (sharded
//! counters are bit-identical by construction; see the engine's
//! `run_sharded`); the per-run wall-clock timing summary goes to stderr,
//! and only with `--verbose`. `dircc profile` rejects `--shards` —
//! windowed sampling observes the global reference stream, which pins the
//! replay to one shard.

use dircc_bus::{CostConfig, CostModel};
use dircc_check::{check_protocol, CheckConfig};
use dircc_core::ProtocolKind;
use dircc_obs::{
    chrome_trace, parse_exposition, samples_sum, window_jsonl_line, MetricsRegistry, NoopRecorder,
    RunMeta, Sample,
};
use dircc_serve::{client, JobHandler, ServeConfig, Server};
use dircc_sim::experiments::{self, extensions, figures, network, studies, system, tables};
use dircc_sim::{
    default_jobs, filter_from_label, filter_label, load_generate, profile_by_name, report,
    run_chunked, run_response_json, run_sharded, run_soa, run_spilled, shard_stream, spill_sharded,
    Evaluation, RunConfig, RunResult, TraceFilter, Workbench, WorkbenchHandler, Workload,
};
use dircc_trace::chunk::{DEFAULT_CHUNK_RECORDS, MAX_CHUNK_RECORDS};
use dircc_trace::codec::BinaryWriter;
use dircc_trace::gen::{Generator, Profile};
use dircc_trace::sharing::SharingProfile;
use dircc_trace::stats::TraceStats;
use dircc_trace::store::TraceStore;
use dircc_trace::{open_trace, ChunkedWriter, Records, SoaStream, TraceRecord};
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// What a subcommand does with `--in`/`--out`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Io {
    /// Pure experiment: any `--in`/`--out` is a usage error.
    None,
    /// Reads a trace file (`--in`).
    Reads,
    /// Writes a trace file (`--out`).
    Writes,
}

/// How a subcommand executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Printed from the shared [`Workbench`] via `run_experiment`.
    Workbench,
    /// Standalone sweep with its own trace store and default refs.
    Scaling,
    /// Standalone mesh-network sweep.
    Network,
    /// Standalone block-size sweep.
    BlockSize,
    /// Trace-file producer.
    Gen,
    /// Chunked v2 trace-file producer.
    Record,
    /// Streaming replay of a trace file (or an in-memory profile).
    Replay,
    /// Trace-file statistics.
    Stats,
    /// Trace-file sharing profile.
    Sharing,
    /// Every `in_all` experiment, in table order.
    All,
    /// Replay-throughput benchmark over the calibrated paper matrix.
    Bench,
    /// Regression gate: fresh bench counters vs a checked-in baseline.
    BenchCmp,
    /// Bounded exhaustive model check of every protocol.
    Check,
    /// Windowed time-series + span profile of one experiment's work list.
    Profile,
    /// Long-running HTTP simulation service (see the `dircc-serve` crate).
    Serve,
    /// One-shot HTTP client for a running `dircc serve` daemon.
    Submit,
    /// Polling `/metrics` terminal dashboard for a running daemon.
    Top,
}

struct CommandSpec {
    name: &'static str,
    kind: Kind,
    io: Io,
    /// Included in the `dircc all` sequence (in this table's order).
    in_all: bool,
}

/// The single source of truth for the CLI: usage, dispatch and the `all`
/// sequence are all derived from this table.
const COMMANDS: &[CommandSpec] = &[
    CommandSpec { name: "table1", kind: Kind::Workbench, io: Io::None, in_all: true },
    CommandSpec { name: "table2", kind: Kind::Workbench, io: Io::None, in_all: true },
    CommandSpec { name: "table3", kind: Kind::Workbench, io: Io::None, in_all: true },
    CommandSpec { name: "table4", kind: Kind::Workbench, io: Io::None, in_all: true },
    CommandSpec { name: "table5", kind: Kind::Workbench, io: Io::None, in_all: true },
    CommandSpec { name: "figure1", kind: Kind::Workbench, io: Io::None, in_all: true },
    CommandSpec { name: "figure2", kind: Kind::Workbench, io: Io::None, in_all: true },
    CommandSpec { name: "figure3", kind: Kind::Workbench, io: Io::None, in_all: true },
    CommandSpec { name: "figure4", kind: Kind::Workbench, io: Io::None, in_all: true },
    CommandSpec { name: "figure5", kind: Kind::Workbench, io: Io::None, in_all: true },
    CommandSpec { name: "sensitivity", kind: Kind::Workbench, io: Io::None, in_all: true },
    CommandSpec { name: "spinlock", kind: Kind::Workbench, io: Io::None, in_all: true },
    CommandSpec { name: "berkeley", kind: Kind::Workbench, io: Io::None, in_all: true },
    CommandSpec { name: "scalability", kind: Kind::Workbench, io: Io::None, in_all: true },
    CommandSpec { name: "system", kind: Kind::Workbench, io: Io::None, in_all: true },
    CommandSpec { name: "finitecache", kind: Kind::Workbench, io: Io::None, in_all: true },
    CommandSpec { name: "footnote2", kind: Kind::Workbench, io: Io::None, in_all: true },
    CommandSpec { name: "storage", kind: Kind::Workbench, io: Io::None, in_all: true },
    CommandSpec { name: "scaling", kind: Kind::Scaling, io: Io::None, in_all: false },
    CommandSpec { name: "network", kind: Kind::Network, io: Io::None, in_all: false },
    CommandSpec { name: "blocksize", kind: Kind::BlockSize, io: Io::None, in_all: false },
    CommandSpec { name: "all", kind: Kind::All, io: Io::None, in_all: false },
    CommandSpec { name: "bench", kind: Kind::Bench, io: Io::Writes, in_all: false },
    CommandSpec { name: "benchcmp", kind: Kind::BenchCmp, io: Io::Reads, in_all: false },
    CommandSpec { name: "check", kind: Kind::Check, io: Io::None, in_all: false },
    CommandSpec { name: "profile", kind: Kind::Profile, io: Io::Writes, in_all: false },
    CommandSpec { name: "serve", kind: Kind::Serve, io: Io::None, in_all: false },
    CommandSpec { name: "submit", kind: Kind::Submit, io: Io::None, in_all: false },
    CommandSpec { name: "top", kind: Kind::Top, io: Io::None, in_all: false },
    CommandSpec { name: "gen", kind: Kind::Gen, io: Io::Writes, in_all: false },
    CommandSpec { name: "record", kind: Kind::Record, io: Io::Writes, in_all: false },
    CommandSpec { name: "replay", kind: Kind::Replay, io: Io::Reads, in_all: false },
    CommandSpec { name: "stats", kind: Kind::Stats, io: Io::Reads, in_all: false },
    CommandSpec { name: "sharing", kind: Kind::Sharing, io: Io::Reads, in_all: false },
];

fn spec_for(command: &str) -> Option<&'static CommandSpec> {
    COMMANDS.iter().find(|c| c.name == command)
}

struct Args {
    command: String,
    /// Positional argument (the experiment `dircc profile` targets).
    target: Option<String>,
    refs: Option<u64>,
    seed: u64,
    jobs: usize,
    shards: usize,
    profile: String,
    out: Option<String>,
    input: Option<String>,
    smoke: bool,
    verbose: bool,
    window: Option<u64>,
    spans_out: Option<String>,
    cpus: Option<usize>,
    blocks: Option<usize>,
    depth: Option<usize>,
    scheme: Option<String>,
    chunk: Option<usize>,
    verify: bool,
    repeat: Option<u64>,
    json: bool,
    addr: Option<String>,
    workers: Option<usize>,
    cache_entries: Option<usize>,
    queue: Option<usize>,
    serve_url: Option<String>,
    op: Option<String>,
    clients: Option<usize>,
    requests: Option<usize>,
    filter: Option<String>,
    expect_cache: Option<String>,
    log_json: bool,
    once: bool,
    interval: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or_else(usage)?;
    let mut parsed = Args {
        command,
        target: None,
        refs: None,
        seed: 1988,
        jobs: default_jobs(),
        shards: 1,
        profile: "pops".to_string(),
        out: None,
        input: None,
        smoke: false,
        verbose: false,
        window: None,
        spans_out: None,
        cpus: None,
        blocks: None,
        depth: None,
        scheme: None,
        chunk: None,
        verify: false,
        repeat: None,
        json: false,
        addr: None,
        workers: None,
        cache_entries: None,
        queue: None,
        serve_url: None,
        op: None,
        clients: None,
        requests: None,
        filter: None,
        expect_cache: None,
        log_json: false,
        once: false,
        interval: None,
    };
    while let Some(flag) = args.next() {
        let mut value =
            |name: &str| args.next().ok_or_else(|| format!("flag {name} needs a value"));
        match flag.as_str() {
            "--refs" => {
                parsed.refs = Some(value("--refs")?.parse().map_err(|e| format!("--refs: {e}"))?)
            }
            "--seed" => {
                parsed.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--jobs" => {
                parsed.jobs = value("--jobs")?.parse().map_err(|e| format!("--jobs: {e}"))?;
                if parsed.jobs == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
            }
            "--shards" => {
                parsed.shards = value("--shards")?.parse().map_err(|e| format!("--shards: {e}"))?;
                if parsed.shards == 0 {
                    return Err("--shards must be at least 1".to_string());
                }
            }
            "--profile" => parsed.profile = value("--profile")?,
            "--out" => parsed.out = Some(value("--out")?),
            "--smoke" => parsed.smoke = true,
            "--verbose" => parsed.verbose = true,
            "--window" => {
                parsed.window =
                    Some(value("--window")?.parse().map_err(|e| format!("--window: {e}"))?);
                if parsed.window == Some(0) {
                    return Err("--window must be at least 1".to_string());
                }
            }
            "--spans" => parsed.spans_out = Some(value("--spans")?),
            "--cpus" => {
                parsed.cpus = Some(value("--cpus")?.parse().map_err(|e| format!("--cpus: {e}"))?)
            }
            "--blocks" => {
                parsed.blocks =
                    Some(value("--blocks")?.parse().map_err(|e| format!("--blocks: {e}"))?)
            }
            "--depth" => {
                parsed.depth = Some(value("--depth")?.parse().map_err(|e| format!("--depth: {e}"))?)
            }
            "--scheme" => parsed.scheme = Some(value("--scheme")?),
            "--chunk" => {
                let n: usize = value("--chunk")?.parse().map_err(|e| format!("--chunk: {e}"))?;
                if !(1..=MAX_CHUNK_RECORDS).contains(&n) {
                    return Err(format!("--chunk must be in 1..={MAX_CHUNK_RECORDS}"));
                }
                parsed.chunk = Some(n);
            }
            "--verify" => parsed.verify = true,
            "--repeat" => {
                let n: u64 = value("--repeat")?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if n == 0 {
                    return Err("--repeat must be at least 1".to_string());
                }
                parsed.repeat = Some(n);
            }
            "--json" => parsed.json = true,
            "--addr" => parsed.addr = Some(value("--addr")?),
            "--workers" => {
                parsed.workers =
                    Some(value("--workers")?.parse().map_err(|e| format!("--workers: {e}"))?);
                if parsed.workers == Some(0) {
                    return Err("--workers must be at least 1".to_string());
                }
            }
            "--cache-entries" => {
                parsed.cache_entries = Some(
                    value("--cache-entries")?
                        .parse()
                        .map_err(|e| format!("--cache-entries: {e}"))?,
                );
                if parsed.cache_entries == Some(0) {
                    return Err("--cache-entries must be at least 1".to_string());
                }
            }
            "--queue" => {
                parsed.queue =
                    Some(value("--queue")?.parse().map_err(|e| format!("--queue: {e}"))?);
                if parsed.queue == Some(0) {
                    return Err("--queue must be at least 1".to_string());
                }
            }
            "--serve" => parsed.serve_url = Some(value("--serve")?),
            "--op" => {
                let op = value("--op")?;
                if !matches!(
                    op.as_str(),
                    "run" | "series" | "health" | "metrics" | "spans" | "shutdown"
                ) {
                    return Err(format!(
                        "--op must be run, series, health, metrics, spans or shutdown, not {op}"
                    ));
                }
                parsed.op = Some(op);
            }
            "--clients" => {
                parsed.clients =
                    Some(value("--clients")?.parse().map_err(|e| format!("--clients: {e}"))?);
                if parsed.clients == Some(0) {
                    return Err("--clients must be at least 1".to_string());
                }
            }
            "--requests" => {
                parsed.requests =
                    Some(value("--requests")?.parse().map_err(|e| format!("--requests: {e}"))?);
                if parsed.requests == Some(0) {
                    return Err("--requests must be at least 1".to_string());
                }
            }
            "--filter" => {
                let label = value("--filter")?;
                if filter_from_label(&label).is_none() {
                    return Err(format!("--filter must be full or no-spins, not {label}"));
                }
                parsed.filter = Some(label);
            }
            "--expect-cache" => {
                let want = value("--expect-cache")?;
                if !matches!(want.as_str(), "hit" | "miss") {
                    return Err(format!("--expect-cache must be hit or miss, not {want}"));
                }
                parsed.expect_cache = Some(want);
            }
            "--log-json" => parsed.log_json = true,
            "--once" => parsed.once = true,
            "--interval" => {
                let s: f64 =
                    value("--interval")?.parse().map_err(|e| format!("--interval: {e}"))?;
                if !s.is_finite() || s <= 0.0 {
                    return Err("--interval must be a positive number of seconds".to_string());
                }
                parsed.interval = Some(s);
            }
            "--in" => parsed.input = Some(value("--in")?),
            other if !other.starts_with('-') && parsed.target.is_none() => {
                parsed.target = Some(other.to_string());
            }
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    validate_io(&parsed)?;
    Ok(parsed)
}

/// Rejects `--in`/`--out` flags that contradict the subcommand's data
/// direction (e.g. `dircc gen --in t.dcct` used to silently write to the
/// `--in` path).
fn validate_io(args: &Args) -> Result<(), String> {
    let Some(spec) = spec_for(&args.command) else {
        return Ok(()); // unknown commands error later, with the usage text
    };
    if args.smoke && !matches!(spec.name, "bench" | "benchcmp" | "check" | "profile") {
        return Err(format!(
            "--smoke only applies to bench, benchcmp, check and profile, not {}",
            spec.name
        ));
    }
    if args.window.is_some() && !matches!(spec.name, "profile" | "submit") {
        return Err(format!("--window only applies to profile and submit, not {}", spec.name));
    }
    if spec.name != "profile" {
        if args.spans_out.is_some() {
            return Err(format!("--spans only applies to profile, not {}", spec.name));
        }
        if args.target.is_some() {
            return Err(format!(
                "{} takes no positional argument (got {})",
                spec.name,
                args.target.as_deref().unwrap_or("")
            ));
        }
    }
    if args.cpus.is_some() && !matches!(spec.name, "check" | "replay") {
        return Err(format!("--cpus only applies to check and replay, not {}", spec.name));
    }
    if args.scheme.is_some() && !matches!(spec.name, "check" | "replay" | "submit") {
        return Err(format!(
            "--scheme only applies to check, replay and submit, not {}",
            spec.name
        ));
    }
    if spec.name != "check" && (args.blocks.is_some() || args.depth.is_some()) {
        return Err(format!("--blocks/--depth only apply to check, not {}", spec.name));
    }
    if args.chunk.is_some() && spec.name != "record" {
        return Err(format!("--chunk only applies to record, not {}", spec.name));
    }
    if args.verify && spec.name != "replay" {
        return Err(format!("--verify only applies to replay, not {}", spec.name));
    }
    if args.repeat.is_some() && spec.name != "bench" {
        return Err(format!("--repeat only applies to bench, not {}", spec.name));
    }
    if args.json && spec.name != "replay" {
        return Err(format!("--json only applies to replay, not {}", spec.name));
    }
    if (args.addr.is_some()
        || args.workers.is_some()
        || args.cache_entries.is_some()
        || args.queue.is_some()
        || args.log_json)
        && spec.name != "serve"
    {
        return Err(format!(
            "--addr/--workers/--cache-entries/--queue/--log-json only apply to serve, not {}",
            spec.name
        ));
    }
    if args.serve_url.is_some() && !matches!(spec.name, "submit" | "bench" | "top") {
        return Err(format!("--serve only applies to submit, bench and top, not {}", spec.name));
    }
    if (args.once || args.interval.is_some()) && spec.name != "top" {
        return Err(format!("--once/--interval only apply to top, not {}", spec.name));
    }
    if (args.op.is_some() || args.expect_cache.is_some() || args.filter.is_some())
        && spec.name != "submit"
    {
        return Err(format!(
            "--op/--filter/--expect-cache only apply to submit, not {}",
            spec.name
        ));
    }
    if (args.clients.is_some() || args.requests.is_some()) && spec.name != "bench" {
        return Err(format!("--clients/--requests only apply to bench, not {}", spec.name));
    }
    if args.shards > 1 {
        if spec.name == "profile" {
            return Err("profile rejects --shards: windowed sampling observes the global \
                 reference stream, which pins the replay to one shard"
                .to_string());
        }
        let sharded_ok =
            matches!(spec.kind, Kind::Workbench | Kind::All | Kind::Bench | Kind::BenchCmp)
                || matches!(spec.name, "check" | "replay" | "submit");
        if !sharded_ok {
            return Err(format!(
                "--shards only applies to workbench experiments, all, bench, benchcmp, check \
                 and replay, not {}",
                spec.name
            ));
        }
    }
    match spec.io {
        Io::None => {
            if args.out.is_some() || args.input.is_some() {
                return Err(format!(
                    "{} is an experiment command and takes no --in/--out",
                    spec.name
                ));
            }
        }
        Io::Reads => {
            if args.out.is_some() {
                return Err(format!("{} reads a trace; pass --in FILE, not --out", spec.name));
            }
        }
        Io::Writes => {
            if args.input.is_some() {
                return Err(format!("{} writes a file; pass --out FILE, not --in", spec.name));
            }
        }
    }
    Ok(())
}

fn usage() -> String {
    // Derived from COMMANDS so the list can never go stale.
    let mut lines = vec!["usage: dircc <command> [target] [--refs N] [--seed S] [--jobs N] \
         [--shards N] [--profile pops|thor|pero|custom] [--out FILE | --in FILE] [--smoke] \
         [--verbose] [--window K] [--spans FILE] [--cpus N] [--blocks M] [--depth D] \
         [--scheme S] [--chunk N] [--verify] [--repeat N] [--json] \
         [--addr HOST:PORT] [--workers N] [--cache-entries N] [--queue N] [--serve URL] \
         [--op run|series|health|metrics|spans|shutdown] [--filter full|no-spins] \
         [--expect-cache hit|miss] [--clients N] [--requests M] [--log-json] \
         [--interval S] [--once]"
        .to_string()];
    let mut line = String::from("commands:");
    for c in COMMANDS {
        if line.len() + c.name.len() + 1 > 72 {
            lines.push(line);
            line = String::from("         ");
        }
        line.push(' ');
        line.push_str(c.name);
    }
    lines.push(line);
    lines.join("\n")
}

fn workbench(args: &Args) -> Workbench {
    match args.refs {
        Some(n) => Workbench::paper_scaled(n, args.seed),
        None => Workbench::paper(args.seed),
    }
    .with_shards(args.shards)
}

fn trace_path(args: &Args) -> String {
    args.out.clone().or_else(|| args.input.clone()).unwrap_or_else(|| "trace.dcct".to_string())
}

fn generate(args: &Args) -> Result<(), String> {
    let mut profile = profile_by_name(&args.profile)?;
    if let Some(n) = args.refs {
        profile = profile.with_total_refs(n);
    }
    let path = trace_path(args);
    let file = std::fs::File::create(&path).map_err(|e| format!("{path}: {e}"))?;
    let mut w = BinaryWriter::new(BufWriter::new(file));
    for r in Generator::new(profile, args.seed) {
        w.write(&r).map_err(|e| format!("write: {e}"))?;
    }
    let records = w.records_written();
    w.finish().map_err(|e| format!("finish: {e}"))?;
    println!("wrote {records} references to {path}");
    Ok(())
}

/// `dircc record`: writes the chunked, delta-compressed v2 trace format.
/// The flat v1 writer stays available as `dircc gen`.
fn record(args: &Args) -> Result<(), String> {
    let mut profile = profile_by_name(&args.profile)?;
    if let Some(n) = args.refs {
        profile = profile.with_total_refs(n);
    }
    let chunk = args.chunk.unwrap_or(DEFAULT_CHUNK_RECORDS);
    let path = trace_path(args);
    let file = std::fs::File::create(&path).map_err(|e| format!("{path}: {e}"))?;
    let mut w = ChunkedWriter::with_chunk_records(BufWriter::new(file), chunk);
    for r in Generator::new(profile, args.seed) {
        w.write(&r).map_err(|e| format!("write: {e}"))?;
    }
    let records = w.records_written();
    let chunks = records.div_ceil(chunk as u64);
    w.finish().map_err(|e| format!("finish: {e}"))?;
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!("wrote {records} references to {path} ({chunks} chunk(s), v2, {bytes} bytes)");
    Ok(())
}

/// The protocols `dircc replay` drives: the paper's four headline schemes
/// by default, or one chosen by `--scheme` from the full checked set.
fn replay_kinds(args: &Args, cpus: usize) -> Result<Vec<ProtocolKind>, String> {
    let Some(want) = &args.scheme else {
        return Ok(vec![
            ProtocolKind::DirNb { pointers: 1 },
            ProtocolKind::Wti,
            ProtocolKind::Dir0B,
            ProtocolKind::Dragon,
        ]);
    };
    let want_lc = want.to_ascii_lowercase();
    let kinds: Vec<ProtocolKind> = dircc_check::default_kinds()
        .iter()
        .copied()
        .filter(|k| dircc_core::build(*k, cpus).name().to_ascii_lowercase() == want_lc)
        .collect();
    if kinds.is_empty() {
        let names: Vec<String> = dircc_check::default_kinds()
            .iter()
            .map(|k| dircc_core::build(*k, cpus).name().to_string())
            .collect();
        return Err(format!("unknown scheme {want}; one of: {}", names.join(" ")));
    }
    Ok(kinds)
}

/// Streams a trace file through every requested scheme. With one shard
/// the file is re-read per scheme via [`run_chunked`] (memory bounded by
/// the chunk size); with more, one pass spills per-shard sub-streams to
/// temp files and [`run_spilled`] replays those, so even sharded replay
/// never holds the whole trace in RAM. The spill directory is removed on
/// every path out, errors included.
fn replay_file(
    path: &str,
    kinds: &[ProtocolKind],
    cpus: usize,
    cfg: &RunConfig,
    shards: usize,
) -> Result<Vec<RunResult>, String> {
    let open = || -> Result<_, String> {
        let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
        open_trace(BufReader::new(file)).map_err(|e| format!("{path}: {e}"))
    };
    if shards <= 1 {
        return kinds.iter().map(|&kind| run_chunked(kind, cpus, &mut open()?, cfg)).collect();
    }
    let dir = std::env::temp_dir().join(format!("dircc_replay_{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let results = (|| {
        let spilled = spill_sharded(&mut open()?, shards, cfg, &dir)
            .map_err(|e| format!("spill to {}: {e}", dir.display()))?;
        // Dropping `spilled` on the way out removes the spill files.
        kinds.iter().map(|&kind| run_spilled(kind, cpus, &spilled, cfg)).collect()
    })();
    std::fs::remove_dir_all(&dir).ok();
    results
}

/// Replays the `--profile` trace fully in memory (the store's
/// structure-of-arrays path) — the reference `dircc replay --in` must
/// match byte for byte.
fn replay_memory(
    args: &Args,
    kinds: &[ProtocolKind],
    cpus: usize,
    cfg: &RunConfig,
) -> Result<Vec<RunResult>, String> {
    let mut profile = profile_by_name(&args.profile)?;
    if let Some(n) = args.refs {
        profile = profile.with_total_refs(n);
    }
    let records: Vec<TraceRecord> = Generator::new(profile, args.seed).collect();
    let soa = SoaStream::intern(&records, cfg.geometry, cfg.sharing);
    if args.shards <= 1 {
        kinds
            .iter()
            .map(|&kind| run_soa(kind, cpus, &records, &soa, cfg, &mut NoopRecorder))
            .collect()
    } else {
        let sharded = shard_stream(&records, &soa, args.shards, cfg);
        kinds
            .iter()
            .map(|&kind| run_sharded(kind, cpus, &records, &sharded, cfg, |_, _, _, _| ()))
            .collect()
    }
}

/// `dircc replay`: streams a recorded trace (`--in`, v1 or v2
/// auto-detected) or an in-memory `--profile` trace through the paper's
/// headline schemes (or one `--scheme`), printing the deterministic
/// per-scheme counter row and pipelined cycles-per-reference. stdout is
/// byte-identical between the file and in-memory modes and across
/// `--shards`; ingest timing goes to stderr, only with `--verbose`.
fn replay(args: &Args) -> Result<(), String> {
    let cpus = args.cpus.unwrap_or(4);
    if cpus == 0 || cpus > 64 {
        return Err("--cpus must be in 1..=64".to_string());
    }
    if args.json {
        if args.input.is_some() {
            return Err("--json renders the serve /run response schema, which is defined \
                 over the in-memory --profile traces; drop --in"
                .to_string());
        }
        if args.verify {
            return Err("--json and --verify are mutually exclusive".to_string());
        }
    }
    let kinds = replay_kinds(args, cpus)?;
    let cfg = RunConfig { verify: args.verify, ..RunConfig::default().with_process_sharing() };
    let started = std::time::Instant::now();
    let results = match &args.input {
        Some(path) => replay_file(path, &kinds, cpus, &cfg, args.shards)?,
        None => replay_memory(args, &kinds, cpus, &cfg)?,
    };
    let wall = started.elapsed();

    if args.json {
        // The serve daemon's /run response schema, one line per scheme —
        // CI diffs this byte-for-byte against what the daemon returns.
        let trace_name = profile_by_name(&args.profile)?.name.to_string();
        for (&kind, res) in kinds.iter().zip(&results) {
            let name = dircc_core::build(kind, cpus).name().to_string();
            let eval = Evaluation::new(name, kind, cpus, res.counters.clone());
            print!("{}", run_response_json(&eval, &trace_name, args.refs, args.seed, "full"));
        }
        return Ok(());
    }

    let (model, cost_cfg) = (CostModel::pipelined(), CostConfig::PAPER);
    println!(
        "{:<12} {:>10} {:>9} {:>9} {:>9} {:>9}   cyc/ref",
        "scheme", "refs", "rd-miss", "wr-miss", "wr-hit", "wr-back"
    );
    let mut violations = 0usize;
    for (&kind, res) in kinds.iter().zip(&results) {
        let name = dircc_core::build(kind, cpus).name().to_string();
        let c = &res.counters;
        let cpr =
            Evaluation::new(name.clone(), kind, cpus, c.clone()).cycles_per_ref(&model, &cost_cfg);
        println!(
            "{name:<12} {:>10} {:>9} {:>9} {:>9} {:>9}   {cpr:.4}",
            res.refs,
            c.rm(),
            c.wm(),
            c.wh(),
            c.write_backs()
        );
        violations += res.violations.len();
        for v in &res.violations {
            println!("  violation: {name}: {v}");
        }
    }
    if args.verify {
        if violations == 0 {
            println!("verify: {} scheme(s), no violations", kinds.len());
        } else {
            return Err(format!("replay: {violations} coherence violation(s)"));
        }
    }
    if args.verbose {
        if let Some(path) = &args.input {
            let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            // One full decode per scheme at one shard; one spill pass otherwise.
            let passes = if args.shards <= 1 { kinds.len() as u64 } else { 1 };
            let mb = (bytes * passes) as f64 / 1e6;
            let secs = wall.as_secs_f64().max(1e-9);
            eprintln!(
                "replay: {mb:.1} MB ingested in {:.1} ms ({:.1} MB/s incl. replay)",
                wall.as_secs_f64() * 1e3,
                mb / secs
            );
        } else {
            eprintln!("replay: in-memory, {:.1} ms", wall.as_secs_f64() * 1e3);
        }
    }
    Ok(())
}

fn stats(args: &Args) -> Result<(), String> {
    let path = trace_path(args);
    let file = std::fs::File::open(&path).map_err(|e| format!("{path}: {e}"))?;
    let reader = open_trace(BufReader::new(file)).map_err(|e| format!("header: {e}"))?;
    let mut s = TraceStats::new();
    for r in Records::new(reader) {
        s.observe(&r.map_err(|e| format!("read: {e}"))?);
    }
    println!("references : {}", s.total());
    println!("instr      : {} ({:.2}%)", s.instr(), 100.0 * s.instr_fraction());
    println!("data reads : {} ({:.2}%)", s.reads(), 100.0 * s.read_fraction());
    println!("data writes: {} ({:.2}%)", s.writes(), 100.0 * s.write_fraction());
    println!("system refs: {} ({:.2}%)", s.system(), 100.0 * s.system_fraction());
    println!(
        "lock spins : {} ({:.2}% of reads)",
        s.lock_spin_reads(),
        100.0 * s.spin_fraction_of_reads()
    );
    println!("data blocks: {}", s.distinct_data_blocks());
    println!("cpus       : {}   processes: {}", s.distinct_cpus(), s.distinct_processes());
    Ok(())
}

fn sharing(args: &Args) -> Result<(), String> {
    let path = trace_path(args);
    let file = std::fs::File::open(&path).map_err(|e| format!("{path}: {e}"))?;
    let reader = open_trace(BufReader::new(file)).map_err(|e| format!("header: {e}"))?;
    let mut s = SharingProfile::new();
    for r in Records::new(reader) {
        s.observe(&r.map_err(|e| format!("read: {e}"))?);
    }
    println!("data refs          : {}", s.data_refs());
    println!("data blocks        : {}", s.total_blocks());
    println!(
        "shared blocks      : {} ({:.2}%)",
        s.shared_blocks(),
        100.0 * s.shared_blocks() as f64 / s.total_blocks().max(1) as f64
    );
    println!("refs to shared     : {:.2}%", 100.0 * s.shared_ref_fraction());
    println!("writes to shared   : {:.2}%", 100.0 * s.shared_write_fraction());
    println!("mean sharers/shared: {:.2}", s.mean_sharers_of_shared());
    let hist = s.sharer_histogram(6);
    for (i, count) in hist.iter().enumerate() {
        let label = if i + 1 < hist.len() { format!("{}", i + 1) } else { format!("{}+", i + 1) };
        println!("  blocks with {label} sharer(s): {count}");
    }
    Ok(())
}

/// The memo entries a workbench command reads, for pre-warming them in
/// one job pool. `None` means "cheap enough to run inline".
fn workload_for(command: &str, wb: &Workbench) -> Option<Workload> {
    match command {
        "all" => Some(experiments::paper_all_workload(wb)),
        "finitecache" => Some(extensions::finite_cache_workload()),
        "footnote2" => Some(extensions::footnote2_workload()),
        "scalability" => {
            let n = wb.n_caches() as u32;
            let mut work = vec![(ProtocolKind::Dir0B, TraceFilter::Full)];
            work.extend((1..=n).map(|i| (ProtocolKind::DirNb { pointers: i }, TraceFilter::Full)));
            work.extend((1..n).map(|i| (ProtocolKind::DirB { pointers: i }, TraceFilter::Full)));
            work.push((ProtocolKind::CodedSet, TraceFilter::Full));
            Some(Workload::runs(&work))
        }
        _ => None,
    }
}

fn run_experiment(command: &str, wb: &Workbench) -> Result<String, String> {
    Ok(match command {
        "table1" => tables::table1().to_string(),
        "table2" => tables::table2().to_string(),
        "table3" => tables::table3(wb).to_string(),
        "table4" => tables::table4(wb).to_string(),
        "table5" => tables::table5(wb).to_string(),
        "figure1" => figures::figure1(wb).to_string(),
        "figure2" => figures::figure2(wb).to_string(),
        "figure3" => figures::figure3(wb).to_string(),
        "figure4" => figures::figure4(wb).to_string(),
        "figure5" => figures::figure5(wb).to_string(),
        "sensitivity" => studies::sensitivity(wb).to_string(),
        "spinlock" => studies::spinlock(wb).to_string(),
        "berkeley" => studies::berkeley(wb).to_string(),
        "scalability" => studies::scalability(wb).to_string(),
        "finitecache" => extensions::finite_cache(wb).to_string(),
        "footnote2" => extensions::footnote2(wb).to_string(),
        "system" => system::system(wb).to_string(),
        "storage" => network::storage_table().to_string(),
        other => return Err(format!("unknown command {other}\n{}", usage())),
    })
}

/// Runs one workbench command (or, for `all`, every `in_all` command in
/// table order), pre-warming the memo over `args.jobs` threads. With
/// `--verbose` the timing summary goes to stderr, so stdout stays
/// byte-identical across `--jobs` values either way.
fn run_workbench_command(args: &Args, all: bool) -> Result<(), String> {
    let wb = workbench(args);
    if let Some(work) = workload_for(&args.command, &wb) {
        wb.warm_workload(&work, args.jobs);
    }
    let result = if all {
        let mut err = None;
        for c in COMMANDS.iter().filter(|c| c.in_all) {
            match run_experiment(c.name, &wb) {
                Ok(s) => println!("{s}"),
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        err.map_or(Ok(()), Err)
    } else {
        run_experiment(&args.command, &wb).map(|s| println!("{s}"))
    };
    if args.verbose {
        let summary = wb.timing_summary();
        if !summary.is_empty() {
            eprint!("{summary}");
        }
    }
    result
}

/// The paper-suite profiles at the scale the bench flags select.
fn bench_profiles(args: &Args) -> Vec<Profile> {
    let scale = match (args.refs, args.smoke) {
        (Some(n), _) => Some(n),
        (None, true) => Some(20_000),
        (None, false) => None,
    };
    match scale {
        Some(n) => Profile::paper_suite().into_iter().map(|p| p.with_total_refs(n)).collect(),
        None => Profile::paper_suite(),
    }
}

/// Counter digests of every bench-matrix run, keyed by the (scheme,
/// trace, filter) labels the timing rows carry. Counters are memoized, so
/// this replays nothing on a warmed workbench. The digest is shard- and
/// repeat-invariant, which is exactly what lets `benchcmp` pin fresh
/// counters against a baseline written at any shard count.
fn run_digests(wb: &Workbench) -> std::collections::HashMap<(String, String, String), u64> {
    let mut map = std::collections::HashMap::new();
    let names = wb.trace_names();
    for (kind, filter) in wb.paper_workload() {
        let scheme = kind.display_name(wb.n_caches());
        for (trace, name) in names.iter().enumerate() {
            let digest = wb.counters(kind, trace, filter).digest();
            map.insert((scheme.clone(), name.clone(), filter_label(filter).to_string()), digest);
        }
    }
    map
}

/// `dircc bench`: replays the calibrated paper matrix (the same
/// (protocol, filter) x trace work list `dircc all` warms) `--repeat`
/// times (default 3) and writes a machine-readable throughput report with
/// the **median** wall per run. Every run row records the `--shards`
/// count it replayed with plus the run's counter digest (counters are
/// shard- and repeat-invariant; only wall-clock changes). Repeats share
/// one trace store, so generation/interning is paid once while every
/// repeat's replay starts from a cold run memo.
/// Replay wall-clock sums CPU time across workers, so `--jobs 1` is the
/// number to quote; with `--shards N` each run's wall is the outer replay
/// span (shard threads overlap inside it). `--smoke` runs a tiny matrix
/// for CI.
fn bench(args: &Args) -> Result<(), String> {
    if args.serve_url.is_some() {
        return bench_serve(args);
    }
    let repeat = args.repeat.unwrap_or(3);
    let store = std::sync::Arc::new(TraceStore::new(bench_profiles(args), args.seed));
    let mut repeats: Vec<Vec<dircc_sim::RunTiming>> = Vec::new();
    let mut executed = 0usize;
    let mut warm_wb = None;
    for _ in 0..repeat {
        let wb = Workbench::with_store(std::sync::Arc::clone(&store)).with_shards(args.shards);
        executed = wb.warm(&wb.paper_workload(), args.jobs);
        repeats.push(wb.timings());
        warm_wb = Some(wb);
    }
    let wb = warm_wb.expect("--repeat is at least 1");
    let digests = run_digests(&wb);

    // Median wall per run across repeats (lower middle for even counts),
    // ordered by the first repeat's completion order.
    let timings: Vec<dircc_sim::RunTiming> = repeats[0]
        .iter()
        .map(|t| {
            let key = (t.scheme.clone(), t.trace.clone(), t.filter);
            let mut walls: Vec<std::time::Duration> = repeats
                .iter()
                .filter_map(|rep| {
                    rep.iter()
                        .find(|r| {
                            (r.scheme.as_str(), r.trace.as_str(), r.filter)
                                == (key.0.as_str(), key.1.as_str(), key.2)
                        })
                        .map(|r| r.wall)
                })
                .collect();
            walls.sort();
            dircc_sim::RunTiming { wall: walls[(walls.len() - 1) / 2], ..t.clone() }
        })
        .collect();

    use std::fmt::Write as _;
    let mut json = String::from("{\n  \"runs\": [\n");
    let (mut total_refs, mut total_wall) = (0u64, std::time::Duration::ZERO);
    for (i, t) in timings.iter().enumerate() {
        let filter = filter_label(t.filter);
        let digest = digests
            .get(&(t.scheme.clone(), t.trace.clone(), filter.to_string()))
            .ok_or_else(|| format!("bench: no digest for {}/{}/{filter}", t.scheme, t.trace))?;
        let _ = write!(
            json,
            "    {{\"scheme\": \"{}\", \"trace\": \"{}\", \"filter\": \"{}\", \
             \"shards\": {}, \"digest\": \"{:016x}\", \"refs\": {}, \"wall_ms\": {:.3}, \
             \"refs_per_sec\": {:.0}}}",
            t.scheme,
            t.trace,
            filter,
            args.shards,
            digest,
            t.refs,
            t.wall.as_secs_f64() * 1e3,
            t.refs_per_sec()
        );
        json.push_str(if i + 1 < timings.len() { ",\n" } else { "\n" });
        total_refs += t.refs;
        total_wall += t.wall;
    }
    // Streaming-ingest benchmark: encode each trace to a v2 temp file,
    // stream it back through Dir0B with `run_chunked`, and report decode +
    // replay throughput against the on-disk size. (trace, refs, bytes) are
    // deterministic and pinned by `benchcmp`; the throughput fields are
    // informational.
    json.push_str("  ],\n  \"ingest\": [\n");
    let dir = std::env::temp_dir().join(format!("dircc_bench_ingest_{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let n_profiles = wb.profiles().len();
    for (i, profile) in wb.profiles().to_vec().into_iter().enumerate() {
        let name = profile.name.to_string();
        let path = dir.join(format!("{name}.dcct"));
        let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut w = ChunkedWriter::new(BufWriter::new(file));
        for r in Generator::new(profile, args.seed) {
            w.write(&r).map_err(|e| format!("ingest write: {e}"))?;
        }
        let refs = w.records_written();
        w.finish().map_err(|e| format!("ingest finish: {e}"))?;
        let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let t0 = std::time::Instant::now();
        let file = std::fs::File::open(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut source =
            open_trace(BufReader::new(file)).map_err(|e| format!("ingest open: {e}"))?;
        let cfg = RunConfig::default().with_process_sharing();
        let res = run_chunked(ProtocolKind::Dir0B, wb.n_caches(), &mut source, &cfg)
            .map_err(|e| format!("ingest replay: {e}"))?;
        let ingest_wall = t0.elapsed();
        if res.refs != refs {
            return Err(format!("ingest: {name}: wrote {refs} refs, replayed {}", res.refs));
        }
        let mb_per_sec = bytes as f64 / 1e6 / ingest_wall.as_secs_f64().max(1e-9);
        let _ = write!(
            json,
            "    {{\"trace\": \"{name}\", \"refs\": {refs}, \"bytes\": {bytes}, \
             \"wall_ms\": {:.3}, \"mb_per_sec\": {mb_per_sec:.1}}}",
            ingest_wall.as_secs_f64() * 1e3
        );
        json.push_str(if i + 1 < n_profiles { ",\n" } else { "\n" });
    }
    std::fs::remove_dir_all(&dir).ok();

    let total_rps =
        if total_wall.is_zero() { 0.0 } else { total_refs as f64 / total_wall.as_secs_f64() };
    let _ = write!(
        json,
        "  ],\n  \"totals\": {{\"runs\": {}, \"shards\": {}, \"repeat\": {}, \"refs\": {}, \
         \"wall_ms\": {:.3}, \"refs_per_sec\": {:.0}}}\n}}\n",
        executed,
        args.shards,
        repeat,
        total_refs,
        total_wall.as_secs_f64() * 1e3,
        total_rps
    );

    let path = args.out.clone().unwrap_or_else(|| "BENCH_replay.json".to_string());
    write_output(&path, &json)?;
    println!(
        "bench: {executed} runs x {repeat} repeat(s), {total_refs} refs, \
         {:.1} ms median replay (cpu), {:.1}M refs/sec -> {path}",
        total_wall.as_secs_f64() * 1e3,
        total_rps / 1e6
    );
    if args.verbose {
        let summary = wb.timing_summary();
        if !summary.is_empty() {
            eprint!("{summary}");
        }
    }
    Ok(())
}

/// `dircc serve`: binds the HTTP simulation daemon and blocks until a
/// `POST /shutdown` drains it. The listen line goes to stdout (and is
/// flushed) before the accept loop starts, so scripts can wait for it.
fn serve_cmd(args: &Args) -> Result<(), String> {
    let addr = args.addr.clone().unwrap_or_else(|| "127.0.0.1:4888".to_string());
    let config = ServeConfig {
        workers: args.workers.unwrap_or_else(default_jobs),
        cache_entries: args.cache_entries.unwrap_or(64),
        queue_depth: args.queue.unwrap_or(64),
        log_json: args.log_json,
        ..ServeConfig::default()
    };
    // One registry shared by the HTTP layer and the workbench handler,
    // so `/metrics` exposes both on a single page.
    let registry = std::sync::Arc::new(MetricsRegistry::new());
    let handler = std::sync::Arc::new(WorkbenchHandler::with_registry(&registry));
    let server = Server::bind_with_registry(
        &addr,
        config,
        handler.clone() as std::sync::Arc<dyn JobHandler>,
        registry,
    )
    .map_err(|e| format!("bind {addr}: {e}"))?;
    println!("dircc serve: listening on http://{}", server.local_addr());
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    let stats = server.run();
    println!(
        "dircc serve: drained after {} request(s) ({} cache hit(s), {} miss(es), \
         {} workbench run(s))",
        stats.requests,
        stats.cache_hits,
        stats.cache_misses,
        handler.executed_runs()
    );
    Ok(())
}

/// A client-side request ID: `tag-<pid>-<subsec nanos>`, all printable
/// ASCII, well under the daemon's 64-byte sanity cap.
fn mint_request_id(tag: &str) -> String {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map(|d| d.subsec_nanos())
        .unwrap_or(0);
    format!("{tag}-{:08x}-{nanos:08x}", std::process::id())
}

/// The `/run`/`/series` job body a `dircc submit` builds from its flags.
fn submit_job_json(args: &Args) -> Result<String, String> {
    use std::fmt::Write as _;
    let scheme = args.scheme.as_ref().ok_or("submit needs --scheme (e.g. --scheme Dir1NB)")?;
    let mut body = format!(
        "{{\"scheme\": \"{}\", \"trace\": \"{}\", \"seed\": {}",
        dircc_obs::escape(scheme),
        dircc_obs::escape(&args.profile),
        args.seed
    );
    if let Some(n) = args.refs {
        let _ = write!(body, ", \"refs\": {n}");
    }
    if let Some(filter) = &args.filter {
        let _ = write!(body, ", \"filter\": \"{filter}\"");
    }
    if args.shards > 1 {
        let _ = write!(body, ", \"shards\": {}", args.shards);
    }
    if let Some(window) = args.window {
        let _ = write!(body, ", \"window\": {window}");
    }
    body.push('}');
    Ok(body)
}

/// `dircc submit`: one request against a running daemon. The response
/// body goes to stdout verbatim (it is already JSON/JSONL), so
/// `submit --op run > got.json` diffs directly against
/// `replay --json > want.json`. `--expect-cache hit|miss` turns the
/// response's `X-Cache` header into an exit-code assertion for CI.
fn submit_cmd(args: &Args) -> Result<(), String> {
    let url = args
        .serve_url
        .as_ref()
        .ok_or("submit needs --serve URL (e.g. --serve http://127.0.0.1:4888)")?;
    let op = args.op.as_deref().unwrap_or("run");
    // Mint a client-side request ID and send it along; the daemon echoes
    // it on the response, stamps it into its logs and (for `/run`) into
    // the span meta, so scripts can join all three. Printed to stderr so
    // stdout stays verbatim response body.
    let request_id = mint_request_id("submit");
    eprintln!("dircc submit: request-id {request_id}");
    let headers = [("x-request-id", request_id.as_str())];
    let resp = match op {
        "health" => client::request_with_headers(url, "GET", "/health", &headers, None),
        "metrics" => client::request_with_headers(url, "GET", "/metrics", &headers, None),
        "spans" => client::request_with_headers(url, "GET", "/spans", &headers, None),
        "shutdown" => client::request_with_headers(url, "POST", "/shutdown", &headers, Some(b"{}")),
        "run" | "series" => {
            let body = submit_job_json(args)?;
            let path = if op == "run" { "/run" } else { "/series" };
            client::request_with_headers(url, "POST", path, &headers, Some(body.as_bytes()))
        }
        other => {
            return Err(format!(
                "--op must be run, series, health, metrics, spans or shutdown, not {other}"
            ))
        }
    }
    .map_err(|e| format!("{url}: {e}"))?;
    if resp.status != 200 {
        return Err(format!("{url}: HTTP {}: {}", resp.status, resp.text().trim()));
    }
    if let Some(want) = &args.expect_cache {
        let got = resp.header("x-cache").unwrap_or("(absent)");
        if got != want {
            return Err(format!("expected X-Cache: {want}, server answered X-Cache: {got}"));
        }
    }
    print!("{}", resp.text());
    Ok(())
}

/// `dircc bench --serve URL`: the HTTP load generator. Drives a mixed
/// hit/miss schedule (the 4 headline schemes x 3 paper traces, so the
/// first cycle misses and later cycles hit) from `--clients` threads,
/// asserts every response's counter digest is consistent per config, and
/// writes per-request latency percentiles to `BENCH_serve.json`.
fn bench_serve(args: &Args) -> Result<(), String> {
    let url = args.serve_url.clone().expect("bench_serve called with --serve");
    if args.repeat.is_some() || args.shards > 1 || args.smoke {
        return Err("bench --serve takes --clients/--requests/--refs/--seed; \
             --repeat/--shards/--smoke configure the local replay bench"
            .to_string());
    }
    let clients = args.clients.unwrap_or(8);
    let requests = args.requests.unwrap_or(2000);
    let refs = args.refs.unwrap_or(20_000);
    let report = load_generate(&url, clients, requests, refs, args.seed);

    // Quantiles come from the same log-bucketed histogram the daemon
    // uses for `/metrics` (merged across client threads), so the client
    // and server sides of a bench agree on percentile math.
    let (p50, p90, p99) = (
        report.latency_quantile_ms(0.50),
        report.latency_quantile_ms(0.90),
        report.latency_quantile_ms(0.99),
    );
    let max = report.latency_max_ms();
    let completed = report.completed();

    use std::fmt::Write as _;
    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"serve\": {{\"url\": \"{}\", \"clients\": {clients}, \"requests\": {requests}, \
         \"refs\": {refs}, \"seed\": {}}},",
        dircc_obs::escape(&url),
        args.seed
    );
    let _ = writeln!(
        json,
        "  \"results\": {{\"completed\": {completed}, \"cache_hits\": {}, \
         \"cache_misses\": {}, \"retries\": {}, \"errors\": {}}},",
        report.hits,
        report.misses,
        report.retries,
        report.errors.len()
    );
    let _ = writeln!(
        json,
        "  \"latency_ms\": {{\"p50\": {p50:.3}, \"p90\": {p90:.3}, \"p99\": {p99:.3}, \
         \"max\": {max:.3}}},"
    );
    let _ = write!(
        json,
        "  \"wall_ms\": {:.3},\n  \"throughput_rps\": {:.1},\n",
        report.wall.as_secs_f64() * 1e3,
        report.throughput_rps()
    );
    json.push_str("  \"configs\": [\n");
    let n_configs = report.digests.len();
    for (i, (config, digest)) in report.digests.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"scheme\": \"{}\", \"trace\": \"{}\", \"digest\": \"{digest}\"}}",
            config.scheme, config.trace
        );
        json.push_str(if i + 1 < n_configs { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    let path = args.out.clone().unwrap_or_else(|| "BENCH_serve.json".to_string());
    write_output(&path, &json)?;
    println!(
        "bench --serve: {completed}/{requests} request(s) x {clients} client(s), \
         {} hit(s), {} miss(es), {} retried 429(s), {} error(s)",
        report.hits,
        report.misses,
        report.retries,
        report.errors.len()
    );
    println!(
        "  latency p50 {p50:.2} ms  p90 {p90:.2} ms  p99 {p99:.2} ms  max {max:.2} ms  \
         throughput {:.0} req/s -> {path}",
        report.throughput_rps()
    );
    if !report.errors.is_empty() {
        for e in report.errors.iter().take(10) {
            eprintln!("bench --serve: error: {e}");
        }
        return Err(format!("bench --serve: {} failed request(s)", report.errors.len()));
    }
    Ok(())
}

/// One `/metrics` scrape distilled to the numbers the dashboard shows.
struct TopSnapshot {
    at: Instant,
    requests: f64,
    errors: f64,
    refused: f64,
    queue: f64,
    inflight: f64,
    uptime: f64,
    hits: f64,
    misses: f64,
    evictions: f64,
    coalesced: f64,
    runs: f64,
    refs: f64,
    /// Cumulative `(le µs, count)` buckets of the `/run` latency
    /// histogram, ascending; quantiles between two snapshots come from
    /// the bucket-count deltas.
    run_buckets: Vec<(f64, f64)>,
}

impl TopSnapshot {
    fn take(samples: &[Sample]) -> TopSnapshot {
        let sum = |name: &str| samples_sum(samples, name, &[]);
        let cache = |event: &str| {
            samples_sum(samples, "dircc_result_cache_events_total", &[("event", event)])
        };
        let mut run_buckets: Vec<(f64, f64)> = samples
            .iter()
            .filter(|s| {
                s.name == "dircc_http_request_duration_us_bucket"
                    && s.label("route") == Some("/run")
            })
            .map(|s| {
                let le = match s.label("le") {
                    Some("+Inf") => f64::INFINITY,
                    Some(v) => v.parse().unwrap_or(f64::INFINITY),
                    None => f64::INFINITY,
                };
                (le, s.value)
            })
            .collect();
        run_buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        TopSnapshot {
            at: Instant::now(),
            requests: sum("dircc_http_requests_total"),
            errors: sum("dircc_http_errors_total"),
            refused: sum("dircc_http_refused_total"),
            queue: sum("dircc_queue_depth"),
            inflight: sum("dircc_inflight_requests"),
            uptime: sum("dircc_uptime_seconds"),
            hits: cache("hit"),
            misses: cache("miss"),
            evictions: cache("eviction"),
            coalesced: cache("coalesced"),
            runs: sum("dircc_runs_executed_total"),
            refs: sum("dircc_refs_replayed_total"),
            run_buckets,
        }
    }

    /// The q-th quantile (µs) of `/run` latencies observed since `prev`
    /// (pass an all-zero baseline for since-start quantiles). `None`
    /// when no request completed in the interval.
    fn run_quantile_since(&self, prev: Option<&TopSnapshot>, q: f64) -> Option<f64> {
        let prev_at = |le: f64| {
            prev.and_then(|p| p.run_buckets.iter().find(|(l, _)| *l == le)).map_or(0.0, |(_, n)| *n)
        };
        // Cumulative minus cumulative is the delta distribution's
        // cumulative counts, so one ascending walk finds the rank.
        let total = self.run_buckets.last().map(|&(_, n)| n - prev_at(f64::INFINITY))?;
        if total <= 0.0 {
            return None;
        }
        let rank = (q * total).ceil().max(1.0);
        self.run_buckets
            .iter()
            .find(|&&(le, n)| le.is_finite() && n - prev_at(le) >= rank)
            .map(|&(le, _)| le)
    }
}

/// Fetches and parses one `/metrics` page.
fn scrape_metrics(url: &str) -> Result<Vec<Sample>, String> {
    let resp = client::request(url, "GET", "/metrics", None).map_err(|e| format!("{url}: {e}"))?;
    if resp.status != 200 {
        return Err(format!("{url}: /metrics: HTTP {}", resp.status));
    }
    parse_exposition(&resp.text()).map_err(|e| format!("{url}: /metrics: {e}"))
}

/// `dircc top --serve URL`: a polling terminal dashboard over a running
/// daemon's `/metrics`. Every `--interval` seconds (default 2) it
/// scrapes, diffs against the previous scrape and prints one line:
/// request throughput, `/run` latency quantiles from the histogram
/// bucket deltas, queue depth, in-flight count, interval cache hit
/// rate and a throughput sparkline. `--once` instead prints a single
/// machine-readable `key value` snapshot (absolute totals,
/// since-start quantiles) and exits — what the CI gate consumes.
fn top_cmd(args: &Args) -> Result<(), String> {
    let url = args
        .serve_url
        .as_ref()
        .ok_or("top needs --serve URL (e.g. --serve http://127.0.0.1:4888)")?;
    let samples = scrape_metrics(url)?;
    let first = TopSnapshot::take(&samples);
    if args.once {
        let q = |q: f64| first.run_quantile_since(None, q).map_or(0.0, |us| us / 1e3);
        println!("uptime_s {:.0}", first.uptime);
        println!("requests_total {:.0}", first.requests);
        println!("errors_total {:.0}", first.errors);
        println!("refused_total {:.0}", first.refused);
        println!("queue_depth {:.0}", first.queue);
        println!("inflight {:.0}", first.inflight);
        println!("cache_hits {:.0}", first.hits);
        println!("cache_misses {:.0}", first.misses);
        println!("cache_evictions {:.0}", first.evictions);
        println!("coalesced {:.0}", first.coalesced);
        println!("runs_executed {:.0}", first.runs);
        println!("refs_replayed {:.0}", first.refs);
        println!("run_p50_ms {:.3}", q(0.50));
        println!("run_p90_ms {:.3}", q(0.90));
        println!("run_p99_ms {:.3}", q(0.99));
        return Ok(());
    }
    let interval = Duration::from_secs_f64(args.interval.unwrap_or(2.0));
    println!(
        "dircc top: {url} every {:.1}s — rps, /run p50/p90/p99 (ms), queue, inflight, \
         hit% over each interval; ctrl-c to quit",
        interval.as_secs_f64()
    );
    let mut prev = first;
    let mut history: Vec<f64> = Vec::new();
    loop {
        std::thread::sleep(interval);
        let samples = match scrape_metrics(url) {
            Ok(s) => s,
            Err(e) => {
                // A drained daemon closes its listener; that is the
                // normal end of a watch session, not a failure.
                println!("dircc top: daemon unreachable ({e}); exiting");
                return Ok(());
            }
        };
        let cur = TopSnapshot::take(&samples);
        let dt = cur.at.duration_since(prev.at).as_secs_f64().max(1e-9);
        let rps = (cur.requests - prev.requests).max(0.0) / dt;
        history.push(rps);
        if history.len() > 32 {
            history.remove(0);
        }
        let peak = history.iter().cloned().fold(0.0f64, f64::max);
        let q = |q: f64| cur.run_quantile_since(Some(&prev), q).map_or(0.0, |us| us / 1e3);
        let hits_d = (cur.hits - prev.hits).max(0.0);
        let misses_d = (cur.misses - prev.misses).max(0.0);
        let hit_pct =
            if hits_d + misses_d > 0.0 { 100.0 * hits_d / (hits_d + misses_d) } else { 0.0 };
        println!(
            "up {:>5.0}s  rps {rps:>7.1}  p50 {:>7.2}  p90 {:>7.2}  p99 {:>7.2}  \
             q {:>3.0}  infl {:>3.0}  hit% {hit_pct:>5.1}  err {:>3.0}  {}",
            cur.uptime,
            q(0.50),
            q(0.90),
            q(0.99),
            cur.queue,
            cur.inflight,
            cur.errors,
            report::sparkline(&history, peak.max(1.0)),
        );
        prev = cur;
    }
}

/// `dircc check`: bounded exhaustive model check of every scheme (or a
/// single one via `--scheme`). Any invariant violation prints a minimal
/// counterexample and fails the process. With `--verbose`, one stderr
/// line per scheme gives its explore wall, states/s and key-arena bytes.
fn check(args: &Args) -> Result<(), String> {
    let base = if args.smoke { CheckConfig::smoke() } else { CheckConfig::default() };
    let cfg = CheckConfig {
        cpus: args.cpus.unwrap_or(base.cpus),
        blocks: args.blocks.unwrap_or(base.blocks),
        depth: args.depth.unwrap_or(base.depth),
    };
    if cfg.cpus == 0 || cfg.cpus > 64 {
        return Err("--cpus must be in 1..=64".to_string());
    }
    if cfg.blocks == 0 || cfg.blocks > 64 {
        return Err("--blocks must be in 1..=64".to_string());
    }
    if cfg.depth == 0 {
        return Err("--depth must be at least 1".to_string());
    }
    let mut kinds = dircc_check::default_kinds().to_vec();
    if let Some(want) = &args.scheme {
        let want = want.to_ascii_lowercase();
        kinds.retain(|k| dircc_core::build(*k, cfg.cpus).name().to_ascii_lowercase() == want);
        if kinds.is_empty() {
            let names: Vec<String> = dircc_check::default_kinds()
                .iter()
                .map(|k| dircc_core::build(*k, cfg.cpus).name().to_string())
                .collect();
            return Err(format!(
                "unknown scheme {}; one of: {}",
                args.scheme.as_ref().unwrap(),
                names.join(" ")
            ));
        }
    }
    println!("model check: {} cpus x {} blocks, depth {}", cfg.cpus, cfg.blocks, cfg.depth);
    println!("{:<12} {:>10} {:>12}  result", "scheme", "states", "transitions");
    let reports = dircc_sim::par_map_indexed(kinds.len(), args.jobs, |i| {
        let started = Instant::now();
        let report = check_protocol(kinds[i], &cfg);
        (report, started.elapsed())
    });
    if args.verbose {
        for (r, wall) in &reports {
            eprintln!(
                "check {:<12} explore {:>7.3} s  {:>10.0} states/s  key arena {} bytes",
                r.name,
                wall.as_secs_f64(),
                r.states as f64 / wall.as_secs_f64(),
                r.arena_bytes
            );
        }
    }
    let mut failed = 0usize;
    for (r, _) in &reports {
        println!(
            "{:<12} {:>10} {:>12}  {}",
            r.name,
            r.states,
            r.transitions,
            if r.passed() { "PASS" } else { "FAIL" }
        );
        if let Some(ce) = &r.counterexample {
            println!("  counterexample: {ce}");
            failed += 1;
        }
    }
    if failed > 0 {
        return Err(format!("model check: {failed} of {} scheme(s) FAILED", reports.len()));
    }
    println!("model check: all {} scheme(s) PASS", reports.len());
    shard_check(&kinds, args)?;
    Ok(())
}

/// Replay-equivalence pass run after the model-check table: every checked
/// scheme replays a short trace through the sharded engine (one protocol
/// instance per shard) and must reproduce the serial replay's counters,
/// first-ref classification and verifier verdicts bit for bit. Uses
/// `--shards` (at least 2, so the per-shard construction path is always
/// exercised — including in `--smoke --scheme X` CI runs).
fn shard_check(kinds: &[ProtocolKind], args: &Args) -> Result<(), String> {
    let shards = args.shards.max(2);
    let total_refs = if args.smoke { 5_000 } else { 20_000 };
    let records: Vec<dircc_trace::TraceRecord> =
        Generator::new(Profile::pops().with_total_refs(total_refs), args.seed).collect();
    let cfg = RunConfig { verify: true, ..RunConfig::default().with_process_sharing() };
    let soa = SoaStream::intern(&records, cfg.geometry, cfg.sharing);
    let sharded = shard_stream(&records, &soa, shards, &cfg);
    let n_caches = usize::from(Profile::pops().cpus);
    for &kind in kinds {
        let serial = run_soa(kind, n_caches, &records, &soa, &cfg, &mut NoopRecorder)
            .map_err(|e| format!("shard check: {kind}: serial replay failed: {e}"))?;
        let split = run_sharded(kind, n_caches, &records, &sharded, &cfg, |_, _, _, _| ())
            .map_err(|e| format!("shard check: {kind}: sharded replay failed: {e}"))?;
        if serial.counters != split.counters
            || serial.refs != split.refs
            || serial.violations != split.violations
        {
            return Err(format!(
                "shard check: {kind}: sharded replay diverged from serial at {shards} shards"
            ));
        }
    }
    println!(
        "shard check: {} scheme(s) x {} refs: counters, first-ref classes and verifier \
         verdicts bit-identical at {shards} shards",
        kinds.len(),
        total_refs
    );
    Ok(())
}

/// One run row of a `dircc bench` JSON report.
struct BenchRun {
    scheme: String,
    trace: String,
    filter: String,
    /// `None` when the report predates the `shards` schema field.
    shards: Option<u64>,
    /// `None` when the report predates the monomorphized-replay schema.
    digest: Option<String>,
    refs: u64,
    wall_ms: f64,
}

fn json_str_field(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\": \"");
    let start = line.find(&tag)? + tag.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

fn json_num_field(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\": ");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end =
        rest.find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-')).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One ingest row of a `dircc bench` JSON report. Only the deterministic
/// fields are parsed; the throughput fields are informational.
struct IngestRow {
    trace: String,
    refs: u64,
    bytes: u64,
}

/// Extracts the ingest rows (they carry `mb_per_sec`; run rows carry
/// `scheme`, so neither parser sees the other's lines).
fn parse_ingest_rows(text: &str) -> Vec<IngestRow> {
    text.lines()
        .filter(|l| l.contains("\"mb_per_sec\""))
        .filter_map(|l| {
            Some(IngestRow {
                trace: json_str_field(l, "trace")?,
                refs: json_num_field(l, "refs")? as u64,
                bytes: json_num_field(l, "bytes")? as u64,
            })
        })
        .collect()
}

/// An `io::Write` sink that only counts bytes — `benchcmp` re-derives the
/// deterministic v2 encoded size without touching the filesystem.
struct CountingWriter(u64);

impl std::io::Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Extracts the per-run rows from a `dircc bench` JSON report (one run
/// object per line, hand-rolled to match the hand-rolled writer).
fn parse_bench_runs(text: &str) -> Vec<BenchRun> {
    text.lines()
        .filter(|l| l.contains("\"scheme\""))
        .filter_map(|l| {
            Some(BenchRun {
                scheme: json_str_field(l, "scheme")?,
                trace: json_str_field(l, "trace")?,
                filter: json_str_field(l, "filter")?,
                shards: json_num_field(l, "shards").map(|s| s as u64),
                digest: json_str_field(l, "digest"),
                refs: json_num_field(l, "refs")? as u64,
                wall_ms: json_num_field(l, "wall_ms")?,
            })
        })
        .collect()
}

/// Writes `contents` to `path`, creating parent directories as needed.
fn write_output(path: &str, contents: &str) -> Result<(), String> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
        }
    }
    std::fs::write(path, contents).map_err(|e| format!("{path}: {e}"))
}

/// The (protocol, filter) work list a `dircc profile` target names.
fn profile_workload(
    target: &str,
    wb: &Workbench,
) -> Result<Vec<(ProtocolKind, TraceFilter)>, String> {
    match target {
        "all" | "bench" => Ok(wb.paper_workload()),
        "scaling" | "scalability" => {
            Ok(workload_for("scalability", wb).expect("scalability has a workload").runs)
        }
        "headline" => Ok(wb.paper_kinds().into_iter().map(|k| (k, TraceFilter::Full)).collect()),
        other => Err(format!(
            "unknown profile target {other}; one of: all bench scaling scalability headline"
        )),
    }
}

/// `dircc profile <experiment>`: replays the experiment's work list with
/// windowed counter sampling. Writes one JSONL line per window (`--out`,
/// default `PROFILE_timeseries.jsonl`) and a Chrome trace-event span
/// profile of every workbench phase (`--spans`, default
/// `PROFILE_spans.json`), then prints one cycles-per-reference sparkline
/// per run. stdout is byte-identical across `--jobs`; counters are
/// unaffected by the instrumentation (pinned by `benchcmp`).
fn profile(args: &Args) -> Result<(), String> {
    let target = args.target.clone().ok_or_else(|| {
        format!(
            "profile needs a target experiment; one of: all bench scaling scalability headline\n{}",
            usage()
        )
    })?;
    let wb = match (args.refs, args.smoke) {
        (Some(n), _) => Workbench::paper_scaled(n, args.seed),
        (None, true) => Workbench::paper_scaled(20_000, args.seed),
        (None, false) => Workbench::paper(args.seed),
    };
    let total_refs = wb.profiles()[0].total_refs;
    let window = args.window.unwrap_or_else(|| (total_refs / 64).max(1));
    let wb = wb.with_window(window);
    let work = profile_workload(&target, &wb)?;
    let executed = wb.warm(&work, args.jobs);
    let series = wb.time_series();
    let (model, cost_cfg) = (CostModel::pipelined(), CostConfig::PAPER);

    // Series complete in scheduler order; walk the work list instead so
    // the JSONL file and the stdout table are independent of --jobs.
    println!("profile {target}: {executed} runs, window {window} refs");
    let mut jsonl = String::new();
    let mut windows_written = 0usize;
    for &(kind, filter) in &work {
        for trace in 0..wb.num_traces() {
            let s = series
                .iter()
                .find(|s| s.kind == kind && s.trace == trace && s.filter == filter)
                .ok_or("profile: a warmed run left no time series")?;
            let label = filter_label(filter);
            let meta = RunMeta {
                scheme: s.scheme.clone(),
                trace: s.trace_name.clone(),
                filter: label.to_string(),
                refs: s.refs,
                shard: None,
                request: None,
            };
            // Price each window's delta under the paper's pipelined model
            // (the fifth phase, `price`, in the span profile).
            let cprs: Vec<f64> = wb.span_log().time("price", Some(meta), || {
                s.windows
                    .iter()
                    .map(|w| {
                        Evaluation::new(s.scheme.clone(), kind, wb.n_caches(), w.counters.clone())
                            .cycles_per_ref(&model, &cost_cfg)
                    })
                    .collect()
            });
            for (w, cpr) in s.windows.iter().zip(&cprs) {
                jsonl.push_str(&window_jsonl_line(&s.scheme, &s.trace_name, label, w, *cpr));
                jsonl.push('\n');
                windows_written += 1;
            }
            let max = cprs.iter().copied().fold(0.0f64, f64::max);
            println!(
                "  {:<10} {:<6} {:<9} {:>4} windows  max {:>7.4} cyc/ref  |{}|",
                s.scheme,
                s.trace_name,
                label,
                s.windows.len(),
                max,
                report::sparkline(&cprs, max)
            );
        }
    }

    let out_path = args.out.clone().unwrap_or_else(|| "PROFILE_timeseries.jsonl".to_string());
    write_output(&out_path, &jsonl)?;
    let spans = wb.span_log().spans();
    let spans_path = args.spans_out.clone().unwrap_or_else(|| "PROFILE_spans.json".to_string());
    write_output(&spans_path, &chrome_trace(&spans))?;
    println!("time series -> {out_path} ({windows_written} windows)");
    println!("spans       -> {spans_path} ({} spans)", spans.len());
    if args.verbose {
        let summary = wb.timing_summary();
        if !summary.is_empty() {
            eprint!("{summary}");
        }
    }
    Ok(())
}

/// `dircc benchcmp`: re-runs the bench matrix and compares the
/// deterministic per-run fields (scheme, trace, filter, shards, refs,
/// counter digest) against a baseline report (`--in`, default
/// `BENCH_smoke.json` with `--smoke`, else `BENCH_replay.json`). Runs are
/// matched by sorted key — a bench report lists runs in completion order,
/// which varies with `--jobs`. Fields the comparison does not read (such
/// as the `engine` label older reports carry) are ignored. A baseline
/// whose schema predates the `shards` or `digest`
/// field is rejected with a pointer to regenerate it. Any drift fails the
/// process; wall-clock changes are reported but never fatal.
fn benchcmp(args: &Args) -> Result<(), String> {
    let path = args.input.clone().unwrap_or_else(|| {
        if args.smoke {
            "BENCH_smoke.json".to_string()
        } else {
            "BENCH_replay.json".to_string()
        }
    });
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let baseline = parse_bench_runs(&text);
    if baseline.is_empty() {
        return Err(format!("{path}: no runs found (not a dircc bench report?)"));
    }
    let missing = baseline.iter().filter(|b| b.shards.is_none()).count();
    if missing > 0 {
        return Err(format!(
            "{path}: {missing} of {} run(s) lack the \"shards\" field — the baseline predates \
             the sharded-replay schema; regenerate it with `dircc bench`",
            baseline.len()
        ));
    }
    let missing = baseline.iter().filter(|b| b.digest.is_none()).count();
    if missing > 0 {
        return Err(format!(
            "{path}: {missing} of {} run(s) lack the \"digest\" field — the baseline predates \
             the monomorphized-replay schema; regenerate it with `dircc bench`",
            baseline.len()
        ));
    }
    let base_ingest = parse_ingest_rows(&text);
    if base_ingest.is_empty() {
        return Err(format!(
            "{path}: no \"ingest\" rows — the baseline predates the streaming-ingest schema; \
             regenerate it with `dircc bench`"
        ));
    }

    let wb = match (args.refs, args.smoke) {
        (Some(n), _) => Workbench::paper_scaled(n, args.seed),
        (None, true) => Workbench::paper_scaled(20_000, args.seed),
        (None, false) => Workbench::paper(args.seed),
    }
    .with_shards(args.shards);
    wb.warm(&wb.paper_workload(), args.jobs);
    let timings = wb.timings();
    let digests = run_digests(&wb);

    let mut drift = Vec::new();
    if timings.len() != baseline.len() {
        drift.push(format!("run count: baseline {}, fresh {}", baseline.len(), timings.len()));
    }
    // The comparison key carries the counter digest.
    let mut base_keys: Vec<(String, String, String, u64, u64, String)> = baseline
        .iter()
        .map(|b| {
            (
                b.scheme.clone(),
                b.trace.clone(),
                b.filter.clone(),
                b.shards.unwrap_or(1),
                b.refs,
                b.digest.clone().unwrap_or_default(),
            )
        })
        .collect();
    let mut fresh_keys: Vec<(String, String, String, u64, u64, String)> = timings
        .iter()
        .map(|t| {
            let filter = filter_label(t.filter).to_string();
            let digest = digests
                .get(&(t.scheme.clone(), t.trace.clone(), filter.clone()))
                .map(|d| format!("{d:016x}"))
                .unwrap_or_default();
            (t.scheme.clone(), t.trace.clone(), filter, args.shards as u64, t.refs, digest)
        })
        .collect();
    base_keys.sort();
    fresh_keys.sort();
    for (b, f) in base_keys.iter().zip(fresh_keys.iter()) {
        if b != f {
            drift.push(format!(
                "baseline {}/{}/{} shards={} refs={} digest={} vs fresh {}/{}/{} shards={} \
                 refs={} digest={}",
                b.0, b.1, b.2, b.3, b.4, b.5, f.0, f.1, f.2, f.3, f.4, f.5
            ));
        }
    }
    // Ingest rows: re-derive each trace's deterministic v2 encoded size
    // (same generator, same default chunking) and compare (trace, refs,
    // bytes). No replay needed — only the encoding is pinned here.
    let mut fresh_ingest = Vec::new();
    for profile in wb.profiles().to_vec() {
        let name = profile.name.to_string();
        let mut w = ChunkedWriter::new(CountingWriter(0));
        for r in Generator::new(profile, args.seed) {
            w.write(&r).map_err(|e| format!("ingest encode: {e}"))?;
        }
        let refs = w.records_written();
        let counter = w.finish().map_err(|e| format!("ingest encode: {e}"))?;
        fresh_ingest.push(IngestRow { trace: name, refs, bytes: counter.0 });
    }
    if base_ingest.len() != fresh_ingest.len() {
        drift.push(format!(
            "ingest row count: baseline {}, fresh {}",
            base_ingest.len(),
            fresh_ingest.len()
        ));
    }
    for (b, f) in base_ingest.iter().zip(fresh_ingest.iter()) {
        if (&b.trace, b.refs, b.bytes) != (&f.trace, f.refs, f.bytes) {
            drift.push(format!(
                "ingest baseline {} refs={} bytes={} vs fresh {} refs={} bytes={}",
                b.trace, b.refs, b.bytes, f.trace, f.refs, f.bytes
            ));
        }
    }
    let base_wall: f64 = baseline.iter().map(|r| r.wall_ms).sum();
    let fresh_wall: f64 = timings.iter().map(|t| t.wall.as_secs_f64() * 1e3).sum();
    let delta = if base_wall > 0.0 { 100.0 * (fresh_wall - base_wall) / base_wall } else { 0.0 };
    println!(
        "benchcmp: wall {base_wall:.1} ms -> {fresh_wall:.1} ms ({delta:+.1}%, informational)"
    );
    if drift.is_empty() {
        println!("benchcmp: PASS — {} run(s) match {path}", baseline.len());
        Ok(())
    } else {
        for d in &drift {
            eprintln!("benchcmp: drift: {d}");
        }
        Err(format!("benchcmp: {} drifted run(s) vs {path}", drift.len()))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(spec) = spec_for(&args.command) else {
        eprintln!("unknown command {}\n{}", args.command, usage());
        return ExitCode::FAILURE;
    };
    let result = match spec.kind {
        Kind::Gen => generate(&args),
        Kind::Record => record(&args),
        Kind::Replay => replay(&args),
        Kind::Stats => stats(&args),
        Kind::Sharing => sharing(&args),
        Kind::Scaling => {
            println!("{}", extensions::scaling(args.refs.unwrap_or(300_000), args.seed, args.jobs));
            Ok(())
        }
        Kind::Network => {
            println!(
                "{}",
                network::network_study(args.refs.unwrap_or(300_000), args.seed, args.jobs)
            );
            Ok(())
        }
        Kind::BlockSize => {
            println!(
                "{}",
                extensions::block_size(args.refs.unwrap_or(400_000), args.seed, args.jobs)
            );
            Ok(())
        }
        Kind::Workbench => run_workbench_command(&args, false),
        Kind::All => run_workbench_command(&args, true),
        Kind::Bench => bench(&args),
        Kind::BenchCmp => benchcmp(&args),
        Kind::Check => check(&args),
        Kind::Profile => profile(&args),
        Kind::Serve => serve_cmd(&args),
        Kind::Submit => submit_cmd(&args),
        Kind::Top => top_cmd(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
