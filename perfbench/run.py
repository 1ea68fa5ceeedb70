#!/usr/bin/env python3
"""The dircc benchmark: host time and memory of the operations users run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a dircc checkout. The first run builds `dircc` and
the probe program (perfbench/probe) with cargo into $CARGO_TARGET_DIR
(default .bench_build). Workloads (see perfbench/README.md for why each
exists and which layer should move which number):

  paper_all      paper-scale `dircc all`
  serve_mix      open-loop /run traffic against `dircc serve --workers 2`
  record_replay  `dircc record` x3, `replay --in --verify` x3, one 2-shard spill replay
  check          `dircc check` at its default bound

With --trace 0 the workload runs untraced, its outputs are checked, and
the last stdout line carries every end-to-end metric. With --trace 1 the
workload runs once untraced for reference, then the probe program times
every layer in-process and the last line carries every per-layer metric.
The line before the last one records the machine facts and informational
numbers. A failed check prints why on stderr and sets "correct": false.
"""

import argparse
import hashlib
import http.client
import json
import os
import random
import re
import selectors
import signal
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
PINS_PATH = os.path.join(BENCH_DIR, "pins.json")

# dircc's own default seed: the pinned digests and output hashes hold here.
DEFAULT_SEED = 1988

WORKLOADS = ("paper_all", "serve_mix", "record_replay", "check")

# name -> unit; BENCHMARK.json lists the same names (pinned by a test).
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
PER_LAYER = {
    "trace.gen_s": "s",
    "trace.filter_s": "s",
    "trace.intern_s": "s",
    "trace.gen_runs": "count",
    "trace.chunk.encode_s": "s",
    "trace.chunk.decode_s": "s",
    "trace.spill_s": "s",
    "trace.chunk.bytes_per_ref": "B",
    "sim.replay_s": "s",
    "sim.replay_refs_per_s": "1/s",
    "sim.replay_runs": "count",
    "sim.file_replay_s": "s",
    "sim.experiments.finite_s": "s",
    "sim.finite_replays": "count",
    "sim.experiments.render_s": "s",
    "sim.service.run_ms": "ms",
    "serve.hit_p50_ms": "ms",
    "serve.hit_p99_ms": "ms",
    "serve.miss_p50_ms": "ms",
    "serve.miss_p90_ms": "ms",
    "serve.max_rps": "1/s",
    "serve.connect_ms": "ms",
    "serve.ttfb_ms": "ms",
    "serve.read_ms": "ms",
    "serve.daemon_run_ms": "ms",
    "serve.cache_hit_ratio": "ratio",
    "serve.queue_depth_max": "count",
    "serve.refused_ratio": "ratio",
    "check.states": "count",
    "check.transitions": "count",
    "check.states_per_s": "1/s",
    "check.explore_s": "s",
    "check.shard_s": "s",
    "obs.span_coverage_ratio": "ratio",
    "obs.trace_overhead_ratio": "ratio",
    "loadgen.late_p99_ms": "ms",
    "failed_ratio": "ratio",
}
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Span coverage each traced probe must reach: phase times summed over the
# probe's wall clock. For serve_mix the phases are the client-side split
# of a hit (connect, first byte, read) over its time from send to
# completion; the open loop's own waits (for a free sender, or a
# generator running late) are not layer time and show in
# serve.hit_p99_ms and loadgen.late_p99_ms instead.
COVERAGE_TOLERANCE = {
    "paper_all": (0.95, 1.01),
    "record_replay": (0.95, 1.01),
    "check": (0.90, 1.01),
    "serve_mix": (0.85, 1.01),
}

# serve_mix traffic. Every MISS_EVERY-th request (offset MISS_EVERY // 2)
# is a fresh-seed MISS_REFS job that must miss the result cache; all the
# others repeat one of the twelve warmed HOT_REFS headline jobs.
SCHEMES = ("Dir1NB", "WTI", "Dir0B", "Dragon")
TRACES = ("POPS", "THOR", "PERO")
HOT_REFS = 20_000
MISS_REFS = 200_000
MISS_EVERY = 50
SERVE_WORKERS = 2
RATE = 500.0  # the fixed offered rate, requests/s
LADDER = (250.0, 500.0, 1000.0, 2000.0, 4000.0)  # rates tried for max_rps
STEP_REQUESTS = 1200  # requests per ladder rung
HIT_LIMIT_MS = 2.0  # hit p99 latency limit for a rung to pass
LATE_LIMIT_MS = 1.0  # generator lateness beyond which a session is invalid
MISS_CHECKS = 6  # served miss bodies re-derived with `dircc replay --json`
SETUPS = 11  # set-ups per run; setup_s is their median
SMOKE_REFS = 20_000  # trace length of the batch workloads' warm-up

PROC_TIMEOUT_S = 150


class Failure(Exception):
    """An output check failed: the run is reported as incorrect."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build and process plumbing
# ---------------------------------------------------------------------------


def target_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Builds `dircc` and `dircc-probe` (no-ops when up to date)."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "sim", "Cargo.toml")):
        raise SystemExit("perfbench: no dircc sources here; run from the root of a checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for args in (
        ["cargo", "build", "--release", "--offline", "-p", "dircc-sim", "--bin", "dircc"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(BENCH_DIR, "probe", "Cargo.toml")],
    ):
        done = subprocess.run(args, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=850)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: build failed: {' '.join(args)}")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "dircc"), os.path.join(release, "dircc-probe")


class Proc:
    """One finished child: wall and CPU seconds, peak RSS in MB, exit
    code, output."""

    def __init__(self, wall_s, cpu_s, rss_mb, code, out):
        self.wall_s, self.cpu_s, self.rss_mb, self.code, self.out = wall_s, cpu_s, rss_mb, code, out

    def ok(self):
        return self.code == 0


def run_proc(argv, work, timeout=PROC_TIMEOUT_S):
    """Runs argv to completion with stdout and stderr in files under work,
    timing it and reading its own peak RSS from wait4."""
    out_path = os.path.join(work, "stdout.tmp")
    err_path = os.path.join(work, "stderr.tmp")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen(argv, stdout=out, stderr=err, cwd=work)
        killer = threading.Timer(timeout, child.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            child.kill()
            child.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as f:
        stdout = f.read()
    if child.returncode != 0:
        with open(err_path, "rb") as f:
            log(f"{' '.join(argv[:3])} exited {child.returncode}: "
                f"{f.read()[-400:].decode(errors='replace')}")
    return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                child.returncode, stdout)


def run_json(argv, work):
    """Runs a probe subcommand and parses the JSON object it prints."""
    proc = run_proc(argv, work)
    if not proc.ok():
        raise Failure(f"{' '.join(argv[1:3])} failed")
    return json.loads(proc.out.decode().strip().splitlines()[-1]), proc


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def load_pins(path=PINS_PATH):
    with open(path) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def titles(text):
    """The lines of `dircc all` output that carry no numbers: the section
    titles and column heads, which no seed may change."""
    return [line.rstrip() for line in text.splitlines() if not re.search(r"[0-9]", line)]


def check_paper_stdout(stdout, seed, pins):
    """`dircc all` stdout: same shape at every seed, pinned at the default."""
    text = stdout.decode()
    want = pins["paper_all"]
    shape = sha256("\n".join(titles(text)).encode())
    if len(text.splitlines()) != want["lines"] or shape != want["titles_sha256"]:
        raise Failure("dircc all output does not have the pinned shape")
    if seed == DEFAULT_SEED and sha256(stdout) != want["stdout_sha256"]:
        raise Failure("dircc all stdout differs from the pinned hash at the default seed")


def check_run_digests(digests, pins):
    """The 42 memoized paper runs' counter digests, as pinned from
    BENCH_replay.json; `digests` maps "scheme trace filter" to hex."""
    want = pins["paper_all"]["run_digests"]
    if digests != want:
        wrong = sorted(k for k in set(want) | set(digests) if want.get(k) != digests.get(k))
        raise Failure(f"run digests differ from the pins: {', '.join(wrong[:4])}")


def bench_digests(dircc, work, seed):
    """Counter digests of the paper matrix from `dircc bench` (one repeat)."""
    path = os.path.join(work, "bench.json")
    proc = run_proc([dircc, "bench", "--repeat", "1", "--seed", str(seed), "--out", path], work)
    if not proc.ok():
        raise Failure("dircc bench failed")
    with open(path) as f:
        runs = json.load(f)["runs"]
    return {f"{r['scheme']} {r['trace']} {r['filter']}": r["digest"] for r in runs}


def check_rows(text):
    """The per-scheme `name states transitions verdict` rows of `dircc check`."""
    return [" ".join(line.split()) for line in text.splitlines()
            if re.match(r"^\S+\s+\d+\s+\d+\s+(PASS|FAIL)$", line)]


def check_table(stdout, pins):
    """`dircc check`: every scheme's state and transition counts (the
    search does not depend on the seed) and the passing epilogues."""
    text = stdout.decode()
    if check_rows(text) != pins["check"]["rows"]:
        raise Failure("dircc check state counts or verdicts differ from the pins")
    for needle in ("model check: all 12 scheme(s) PASS", "bit-identical at 2 shards"):
        if needle not in text:
            raise Failure(f"dircc check output lacks {needle!r}")


def replay_rows(stdout):
    """The integer columns of `dircc replay` rows: scheme refs rm wm wh wb."""
    rows = []
    for line in stdout.decode().splitlines()[1:]:
        parts = line.split()
        if len(parts) == 7 and parts[1].isdigit():
            rows.append(" ".join(parts[:6]))
    return rows


# ---------------------------------------------------------------------------
# Batch workloads: paper_all, record_replay, check
# ---------------------------------------------------------------------------


def warmup_setup(workload, dircc, work, seed):
    """Set-up for a batch workload: the same operation at smoke scale,
    which pages the program in and warms the file cache before timing."""
    start = time.perf_counter()
    if workload == "paper_all":
        ok = paper_op(dircc, work, seed, SMOKE_REFS).ok()
    elif workload == "check":
        ok = run_proc([dircc, "check", "--smoke", "--seed", str(seed)], work).ok()
    else:
        ok = record_replay_op(dircc, work, seed, SMOKE_REFS)[0].ok()
    if not ok:
        raise Failure(f"{workload} warm-up failed")
    return time.perf_counter() - start


def paper_op(dircc, work, seed, refs=None):
    refs_args = ["--refs", str(refs)] if refs else []
    return run_proc([dircc, "all", "--seed", str(seed)] + refs_args, work)


def record_replay_op(dircc, work, seed, refs=None):
    """record x3 -> replay --in --verify x3 -> replay --in --shards 2, in a
    fresh directory (paper scale unless `refs` is given)."""
    op_dir = os.path.join(work, "op")
    shutil.rmtree(op_dir, ignore_errors=True)
    os.makedirs(op_dir)
    refs_args = ["--refs", str(refs)] if refs else []
    procs = []
    start = time.perf_counter()
    for trace in TRACES:
        path = os.path.join(op_dir, f"{trace.lower()}.dcct")
        procs.append(run_proc([dircc, "record", "--profile", trace.lower(), "--seed", str(seed),
                               "--out", path] + refs_args, work))
    for trace in TRACES:
        path = os.path.join(op_dir, f"{trace.lower()}.dcct")
        procs.append(run_proc([dircc, "replay", "--in", path, "--verify"], work))
    procs.append(run_proc([dircc, "replay", "--in", os.path.join(op_dir, "pops.dcct"),
                           "--shards", "2"], work))
    wall = time.perf_counter() - start
    shutil.rmtree(op_dir, ignore_errors=True)
    code = next((p.code for p in procs if not p.ok()), 0)
    return Proc(wall, sum(p.cpu_s for p in procs), max(p.rss_mb for p in procs), code,
                b"".join(p.out for p in procs)), procs


def check_record_replay(dircc, work, seed, procs, pins):
    """File replay equals in-memory replay for every trace; the 2-shard
    spilled replay equals it too; at the default seed the replayed
    output is pinned."""
    memory = {}
    for trace in TRACES:
        proc = run_proc([dircc, "replay", "--profile", trace.lower(), "--seed", str(seed),
                         "--verify"], work)
        if not proc.ok():
            raise Failure("in-memory dircc replay failed")
        memory[trace] = proc.out
    for trace, proc in zip(TRACES, procs[3:6]):
        if proc.out != memory[trace]:
            raise Failure(f"file replay of {trace} differs from in-memory replay")
        if b"verify: 4 scheme(s), no violations" not in proc.out:
            raise Failure(f"replay --verify of {trace} reported violations")
    if replay_rows(procs[6].out) != replay_rows(memory["POPS"]):
        raise Failure("2-shard spilled replay differs from in-memory replay")
    for trace, proc in zip(TRACES, procs[:3]):
        if not re.match(rb"wrote \d+ references", proc.out):
            raise Failure(f"dircc record {trace} wrote nothing")
    replayed = b"".join(p.out for p in procs[3:])
    if seed == DEFAULT_SEED and sha256(replayed) != pins["record_replay"]["replay_sha256"]:
        raise Failure("replay output differs from the pinned hash at the default seed")


def check_op(dircc, work, seed):
    return run_proc([dircc, "check", "--seed", str(seed)], work)


def measure_batch(workload, dircc, work, seed, seconds):
    """Set up SETUPS times, then repeat the operation for `seconds`;
    returns medians plus what the output checks need."""
    setups = [warmup_setup(workload, dircc, work, seed) for _ in range(SETUPS)]
    ops, extra = [], None
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        if workload == "paper_all":
            ops.append(paper_op(dircc, work, seed))
        elif workload == "check":
            ops.append(check_op(dircc, work, seed))
        else:
            op, procs = record_replay_op(dircc, work, seed)
            ops.append(op)
            extra = procs if op.ok() else extra
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p.wall_s for p in ops),
        "cpu_s": statistics.median(p.cpu_s for p in ops),
        "peak_rss_mb": statistics.median(p.rss_mb for p in ops),
        "attempted": len(ops),
        "failed": sum(not p.ok() for p in ops),
        "outs": [p.out for p in ops if p.ok()],
        "procs": extra,
    }


def verify_batch(workload, dircc, work, seed, m, pins):
    """Checks the output of every operation that succeeded; failed ones
    (non-zero exit, killed at the timeout) count toward `ok_ratio`."""
    if not m["outs"]:
        raise Failure(f"all {m['attempted']} operations failed")
    if m["failed"]:
        log(f"{m['failed']} of {m['attempted']} operations failed")
    if len(set(m["outs"])) != 1:
        raise Failure("repeated operations printed different output")
    out = m["outs"][0]
    if workload == "paper_all":
        check_paper_stdout(out, seed, pins)
        if seed == DEFAULT_SEED:
            check_run_digests(bench_digests(dircc, work, seed), pins)
    elif workload == "check":
        check_table(out, pins)
    else:
        check_record_replay(dircc, work, seed, m["procs"], pins)


# ---------------------------------------------------------------------------
# serve_mix
# ---------------------------------------------------------------------------


def hot_jobs(seed):
    return [{"scheme": s, "trace": t, "refs": HOT_REFS, "seed": seed}
            for s in SCHEMES for t in TRACES]


class Traffic:
    """The seeded serve_mix inputs: the twelve hot jobs and a stream of
    fresh-seed miss jobs, handed out schedule by schedule."""

    def __init__(self, seed):
        self.seed = seed
        self.rng = random.Random(f"serve_mix/{seed}")
        self.hot = hot_jobs(seed)
        self.used_seeds = {seed}
        # Misses walk every (scheme, trace) pair in a seeded order, so each
        # run's miss work has the same composition whatever the seed.
        self.pairs = [(s, t) for s in SCHEMES for t in TRACES]
        self.rng.shuffle(self.pairs)
        self.misses = 0

    def fresh_miss(self):
        while True:
            miss_seed = self.rng.randrange(1 << 32, 1 << 40)
            if miss_seed not in self.used_seeds:
                self.used_seeds.add(miss_seed)
                break
        scheme, trace = self.pairs[self.misses % len(self.pairs)]
        self.misses += 1
        return {"scheme": scheme, "trace": trace, "refs": MISS_REFS, "seed": miss_seed}

    def schedule(self, count):
        tokens, misses = [], []
        for i in range(count):
            if i % MISS_EVERY == MISS_EVERY // 2:
                tokens.append(f"m{len(misses)}")
                misses.append(self.fresh_miss())
            else:
                tokens.append(f"h{self.rng.randrange(len(self.hot))}")
        return tokens, misses


def dumps(job):
    return json.dumps(job, separators=(",", ":"))


def http_post(url, path, body):
    host, port = url[len("http://"):].split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=60)
    try:
        conn.request("POST", path, body=body.encode(), headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, resp.getheader("X-Cache"), resp.read()
    finally:
        conn.close()


class Daemon:
    """A `dircc serve` child on an ephemeral port."""

    def __init__(self, dircc, work):
        self.log = open(os.path.join(work, "serve.log"), "wb")
        self.child = subprocess.Popen(
            [dircc, "serve", "--addr", "127.0.0.1:0", "--workers", str(SERVE_WORKERS)],
            stdout=subprocess.PIPE, stderr=self.log, cwd=work)
        sel = selectors.DefaultSelector()
        sel.register(self.child.stdout, selectors.EVENT_READ)
        line = b""
        if sel.select(timeout=30):
            line = self.child.stdout.readline()
        sel.close()
        match = re.search(rb"listening on (http://\S+)", line)
        if not match:
            self.stop()
            raise Failure("dircc serve did not report a listening address")
        self.url = match.group(1).decode()

    def cpu_s(self):
        """CPU seconds (user + system) the daemon has used so far."""
        with open(f"/proc/{self.child.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self):
        """Drains the daemon via /shutdown (killing it if that fails) and
        returns its peak RSS in MB."""
        if self.child.poll() is None and hasattr(self, "url"):
            try:
                http_post(self.url, "/shutdown", "{}")
            except OSError:
                pass
        killer = threading.Timer(30, self.child.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(self.child.pid, 0)
            self.child.returncode = os.waitstatus_to_exitcode(status)
        except ChildProcessError:
            usage = None
        finally:
            killer.cancel()
            self.child.stdout.close()
            self.log.close()
        return usage.ru_maxrss / 1024.0 if usage else 0.0


def serve_setup(dircc, work, traffic):
    """Spawn -> listening -> the twelve hot jobs warmed into the cache."""
    start = time.perf_counter()
    daemon = Daemon(dircc, work)
    try:
        for job in traffic.hot:
            status, cache, _ = http_post(daemon.url, "/run", dumps(job))
            if status != 200 or cache != "miss":
                raise Failure(f"warm-up of {job} answered {status} {cache}")
    except BaseException:
        daemon.stop()
        raise
    return time.perf_counter() - start, daemon


def replay_json(dircc, work, trace, refs, seed, scheme=None):
    argv = [dircc, "replay", "--json", "--profile", trace.lower(), "--refs", str(refs),
            "--seed", str(seed)]
    if scheme:
        argv += ["--scheme", scheme]
    proc = run_proc(argv, work)
    if not proc.ok():
        raise Failure("dircc replay --json failed")
    return proc.out.decode().splitlines()


def hot_expectations(dircc, work, seed):
    """`dircc replay --json` bodies of the twelve hot jobs, in job order."""
    by_trace = {t: replay_json(dircc, work, t, HOT_REFS, seed) for t in TRACES}
    return [by_trace[t][SCHEMES.index(s)] for s in SCHEMES for t in TRACES]


def session(probe, url, work, traffic, expect, rate, count, tag, scrape=False):
    """One open-loop loadgen session of `count` requests at `rate`."""
    tokens, misses = traffic.schedule(count)
    files = {}
    for name, lines in (("schedule", tokens), ("hot", [dumps(j) for j in traffic.hot]),
                        ("expect", expect), ("misses", [dumps(j) for j in misses])):
        files[name] = os.path.join(work, f"{tag}.{name}")
        with open(files[name], "w") as f:
            f.write("".join(line + "\n" for line in lines))
    miss_out = os.path.join(work, f"{tag}.miss_bodies")
    argv = [probe, "loadgen", "--url", url, "--rate", repr(rate), "--schedule", files["schedule"],
            "--hot", files["hot"], "--expect", files["expect"], "--misses", files["misses"],
            "--miss-out", miss_out]
    if scrape:
        argv.append("--scrape")
    report, _ = run_json(argv, work)
    with open(miss_out) as f:
        report["miss_bodies"] = f.read().splitlines()
    report["miss_jobs"] = misses
    report["miss_file"] = files["misses"]
    report["valid"] = report["late_p99_ms"] is None or report["late_p99_ms"] <= LATE_LIMIT_MS
    return report


def rung_passes(report):
    p99 = report["hit_p99_ms"]
    return (p99 is not None and p99 <= HIT_LIMIT_MS and report["drain_ms"] <= HIT_LIMIT_MS
            and report["errors"] == 0 and report["refused"] == 0 and report["valid"])


def answered_misses(report):
    """Indices of the misses the daemon answered (refused or failed ones
    have no body)."""
    return [k for k, body in enumerate(report["miss_bodies"]) if body]


def check_session(dircc, work, report, seed):
    """Hits were byte-compared inside the load generator; a seeded sample
    of the answered misses is re-derived here with `dircc replay --json`.
    Refused and failed requests are not wrong answers: they count toward
    the failed ratio, not against correctness."""
    rng = random.Random(f"serve_mix/check/{seed}")
    if report["mismatched"]:
        raise Failure(f"{report['mismatched']} served answers differ from dircc replay --json "
                      f"({report['first_error'] or 'body or X-Cache'})")
    if report["errors"] or report["refused"]:
        log(f"{report['errors']} failed and {report['refused']} refused requests "
            f"({report['first_error']})")
    jobs = report["miss_jobs"]
    answered = answered_misses(report)
    for k in sorted(rng.sample(answered, min(MISS_CHECKS, len(answered)))):
        job = jobs[k]
        want = replay_json(dircc, work, job["trace"], job["refs"], job["seed"], job["scheme"])
        if [report["miss_bodies"][k]] != want:
            raise Failure(f"served miss body for {job} differs from dircc replay --json")


def measure_serve(dircc, probe, work, seed, seconds, traced=False):
    """Set-up x SETUPS, then the fixed-rate session and, traced, the rate
    ladder; returns the e2e numbers and the session reports. `wall_s` is
    the session's wall clock, first due time to last response: it grows
    only when the daemon falls behind the offered rate. The per-request
    latencies move too much between runs of the same code on a shared
    host to carry a bound (see perfbench/README.md)."""
    traffic = Traffic(seed)
    expect = hot_expectations(dircc, work, seed)
    setups = []
    daemon = None
    try:
        for i in range(SETUPS):
            elapsed, daemon = serve_setup(dircc, work, traffic)
            setups.append(elapsed)
            if i + 1 < SETUPS:
                daemon.stop()
                daemon = None
        count = max(int(seconds * RATE), 1)
        cpu_before = daemon.cpu_s()
        fixed = session(probe, daemon.url, work, traffic, expect, RATE, count, "fixed",
                        scrape=traced)
        cpu = daemon.cpu_s() - cpu_before
        rungs = []
        for rate in LADDER if traced else ():
            rungs.append(session(probe, daemon.url, work, traffic, expect, rate,
                                 STEP_REQUESTS, f"rung{int(rate)}"))
            if not rung_passes(rungs[-1]):
                break
    finally:
        rss = daemon.stop() if daemon else 0.0
    passing = [r for r in rungs if rung_passes(r)]
    best = max(passing, key=lambda r: r["rate"]) if passing else None
    attempted = sum(r["requests"] for r in [fixed] + rungs)
    failed = sum(r["errors"] + r["refused"] for r in [fixed] + rungs)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": fixed["wall_s"],
        "cpu_s": cpu,
        "peak_rss_mb": rss,
        "attempted": attempted,
        "failed": failed,
        "fixed": fixed,
        "rungs": rungs,
        # Completed requests per second over the highest passing rung.
        "max_rps": best["requests"] / best["wall_s"] if best else 0.0,
    }


def serve_info(m):
    fixed = m["fixed"]
    return {
        "hit_p50_ms": fixed["hit_p50_ms"], "hit_p99_ms": fixed["hit_p99_ms"],
        "miss_p50_ms": fixed["miss_p50_ms"], "miss_p90_ms": fixed["miss_p90_ms"],
        "late_p99_ms": fixed["late_p99_ms"], "loadgen_valid": fixed["valid"],
        "hits": fixed["hits"], "misses": fixed["misses"], "senders": fixed["senders"],
        "errors": fixed["errors"], "refused": fixed["refused"],
    }


# ---------------------------------------------------------------------------
# Traced run: every layer probe
# ---------------------------------------------------------------------------


def traced(workload, dircc, probe, work, seed, seconds, pins):
    """Runs the workload once untraced, then every layer probe; returns
    the per-layer metrics (every one, whatever the workload)."""
    metrics = {}
    coverage = {}
    traced_wall = {}

    # Untraced reference for the overhead ratio and the counter checks.
    if workload == "serve_mix":
        untraced = measure_serve(dircc, probe, work, seed, seconds)
        untraced_wall = untraced["fixed"]["hit_p50_ms"]
    else:
        if workload == "paper_all":
            op = paper_op(dircc, work, seed)
        elif workload == "check":
            op = check_op(dircc, work, seed)
        else:
            op, untraced_procs = record_replay_op(dircc, work, seed)
        if not op.ok():
            raise Failure(f"untraced {workload} failed")
        untraced_wall, untraced_out = op.wall_s, op.out

    # trace + sim: the dircc all pipeline.
    paper, _ = run_json([probe, "paper", "--seed", str(seed), "--out-dir", work], work)
    with open(os.path.join(work, "paper_stdout.txt"), "rb") as f:
        paper_out = f.read()
    check_paper_stdout(paper_out, seed, pins)
    if workload == "paper_all" and paper_out != untraced_out:
        raise Failure("traced dircc all output differs from the untraced run")
    if paper["trace.gen_runs"] != 3 or paper["sim.replay_runs"] != 42 \
            or paper["sim.replay_runs_after_render"] != 42 or paper["sim.finite_replays"] != 36:
        raise Failure("paper pipeline work counts differ from 3 generations / 42 runs, or "
                      "the finite-cache studies' output no longer implies 36 passes")
    if seed == DEFAULT_SEED:
        check_run_digests(dict(d.rsplit(" ", 1) for d in paper["digests"]), pins)
    for key in ("trace.gen_s", "trace.filter_s", "trace.intern_s", "trace.gen_runs",
                "sim.replay_s", "sim.replay_runs", "sim.experiments.finite_s",
                "sim.finite_replays", "sim.experiments.render_s"):
        metrics[key] = paper[key]
    metrics["sim.replay_refs_per_s"] = paper["sim.replay_refs"] / paper["sim.replay_s"]
    coverage["paper_all"] = sum(paper[k] for k in (
        "trace.gen_s", "trace.filter_s", "trace.intern_s", "sim.replay_s",
        "sim.experiments.finite_s", "sim.experiments.render_s")) / paper["wall_s"]
    traced_wall["paper_all"] = paper["wall_s"]

    # trace chunk/spill + file replay.
    rr_dir = os.path.join(work, "rr")
    os.makedirs(rr_dir, exist_ok=True)
    rr, _ = run_json([probe, "record-replay", "--seed", str(seed), "--out-dir", rr_dir], work)
    shutil.rmtree(rr_dir, ignore_errors=True)
    if any(not row.endswith(" 0") for row in rr["rows"]):
        raise Failure("traced file replay reported coherence violations")
    if rr["spilled_records"] != int(rr["rows"][0].split()[1]):
        raise Failure("the 2-shard spill did not route every record of the first trace")
    if workload == "record_replay":
        want = [row for p in untraced_procs[3:6] for row in replay_rows(p.out)]
        if [row.rsplit(" ", 1)[0] for row in rr["rows"]] != want:
            raise Failure("traced file replay counters differ from the untraced run")
    for key in ("trace.chunk.encode_s", "trace.chunk.decode_s", "trace.spill_s",
                "trace.chunk.bytes_per_ref"):
        metrics[key] = rr[key]
    metrics["sim.file_replay_s"] = rr["sim.replay_s"]
    coverage["record_replay"] = sum(rr[k] for k in (
        "trace.gen_s", "trace.chunk.encode_s", "trace.chunk.decode_s", "sim.replay_s",
        "trace.spill_s")) / rr["wall_s"]
    traced_wall["record_replay"] = rr["wall_s"]

    # check: exploration in-process, the shard epilogue as `dircc check
    # --depth 1` (a trivial search followed by the full epilogue).
    chk, chk_proc = run_json([probe, "check"], work)
    if chk["rows"] != pins["check"]["rows"]:
        raise Failure("traced model-check state counts differ from the pins")
    epilogue = run_proc([dircc, "check", "--depth", "1", "--seed", str(seed)], work)
    if not epilogue.ok() or b"bit-identical at 2 shards" not in epilogue.out:
        raise Failure("dircc check shard epilogue failed")
    if workload == "check":
        if check_rows(untraced_out.decode()) != chk["rows"]:
            raise Failure("traced model-check counts differ from the untraced run")
    metrics["check.states"] = chk["check.states"]
    metrics["check.transitions"] = chk["check.transitions"]
    metrics["check.explore_s"] = chk["check.explore_s"]
    metrics["check.states_per_s"] = chk["check.states"] / chk["check.explore_s"]
    metrics["check.shard_s"] = epilogue.wall_s
    traced_wall["check"] = chk_proc.wall_s + epilogue.wall_s
    coverage["check"] = (chk["check.explore_s"] + epilogue.wall_s) / traced_wall["check"]

    # serve: client-side split and a /metrics view of the same session,
    # plus the handler alone, in-process, on the session's miss jobs.
    serve = measure_serve(dircc, probe, work, seed, seconds, traced=True)
    fixed = serve["fixed"]
    check_session(dircc, work, fixed, seed)
    handler, _ = run_json([probe, "handler", "--misses", fixed["miss_file"], "--out",
                           os.path.join(work, "handler.out")], work)
    with open(os.path.join(work, "handler.out")) as f:
        in_process = f.read().splitlines()
    if any(in_process[k] != fixed["miss_bodies"][k] for k in answered_misses(fixed)):
        raise Failure("in-process handler bodies differ from the served miss bodies")
    hits, misses = fixed["daemon_cache_hits"], fixed["daemon_cache_misses"]
    # A request the client gave up on may still have reached the cache.
    exact = fixed["errors"] == 0 and fixed["refused"] == 0
    if (hits, misses) != (fixed["hits"], fixed["misses"]) and (
            exact or hits < fixed["hits"] or misses < fixed["misses"]):
        raise Failure(f"daemon cache counters {hits}/{misses} differ from the mix")
    metrics.update({
        "sim.service.run_ms": handler["sim.service.run_ms"],
        "serve.hit_p50_ms": fixed["hit_p50_ms"],
        "serve.hit_p99_ms": fixed["hit_p99_ms"],
        "serve.miss_p50_ms": fixed["miss_p50_ms"],
        "serve.miss_p90_ms": fixed["miss_p90_ms"],
        "serve.max_rps": serve["max_rps"],
        "serve.connect_ms": fixed["connect_ms"],
        "serve.ttfb_ms": fixed["ttfb_ms"],
        "serve.read_ms": fixed["read_ms"],
        "serve.daemon_run_ms": fixed["daemon_run_p50_ms"],
        "serve.cache_hit_ratio": hits / (hits + misses),
        "serve.queue_depth_max": fixed["queue_depth_max"],
        "serve.refused_ratio": fixed["refused"] / fixed["requests"],
        "loadgen.late_p99_ms": fixed["late_p99_ms"],
        "failed_ratio": serve["failed"] / serve["attempted"],
    })
    coverage["serve_mix"] = fixed["split_coverage"]
    traced_wall["serve_mix"] = fixed["hit_p50_ms"]

    metrics["obs.span_coverage_ratio"] = coverage[workload]
    metrics["obs.trace_overhead_ratio"] = traced_wall[workload] / untraced_wall
    low, high = COVERAGE_TOLERANCE[workload]
    if not low <= coverage[workload] <= high:
        raise Failure(f"span coverage {coverage[workload]:.3f} outside [{low}, {high}]")
    rungs = [{"rate": r["rate"], "hit_p99_ms": r["hit_p99_ms"], "passed": rung_passes(r)}
             for r in serve["rungs"]]
    return metrics, {"span_coverage": coverage, "loadgen_valid": fixed["valid"],
                     "senders": fixed["senders"], "rungs": rungs}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def source_digest():
    """sha256 over the Rust sources and manifests the binaries build from,
    naming the code measured when the checkout carries no git metadata."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, name) for name in ("Cargo.toml", "Cargo.lock")]
    for base in ("crates", os.path.join("perfbench", "probe")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)
                      if f.endswith((".rs", ".toml", ".lock"))]
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def machine_facts(args):
    def capture(argv):
        try:
            return subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                                  timeout=30).stdout.strip() or "unknown"
        except OSError:
            return "unknown"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "commit": capture(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_digest(),
        "rustc": capture(["rustc", "--version"]),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "jobs": len(os.sched_getaffinity(0)),
        "shards": {"record_replay": 2}.get(args.workload, 1),
        "serve_workers": SERVE_WORKERS,
        "offered_rate": RATE,
        "ladder": list(LADDER),
        "miss_every": MISS_EVERY,
    }


def result_line(correct, attempted, failed, metrics, units):
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception so the cleanup below stops children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    dircc, probe = build()
    pins = load_pins()
    work = os.path.join(ROOT, ".bench_run", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    facts = machine_facts(args)
    try:
        try:
            if args.trace:
                metrics, info = traced(args.workload, dircc, probe, work, args.seed,
                                       args.seconds, pins)
                facts.update(info)
                correct, attempted, failed, units = True, 1, 0, PER_LAYER
            elif args.workload == "serve_mix":
                m = measure_serve(dircc, probe, work, args.seed, args.seconds)
                facts.update(serve_info(m))
                check_session(dircc, work, m["fixed"], args.seed)
                correct, attempted, failed = True, m["attempted"], m["failed"]
                metrics, units = m, END_TO_END
            else:
                m = measure_batch(args.workload, dircc, work, args.seed, args.seconds)
                verify_batch(args.workload, dircc, work, args.seed, m, pins)
                correct, attempted, failed = True, m["attempted"], m["failed"]
                metrics, units = m, END_TO_END
        except Failure as e:
            log(f"check failed: {e}")
            print(json.dumps({"facts": facts}))
            print(result_line(False, 1, 1, {}, END_TO_END))
            return 1
        if not args.trace:
            metrics = dict(metrics, ok_ratio=(metrics["attempted"] - metrics["failed"])
                           / metrics["attempted"])
            metrics = {k: metrics[k] for k in END_TO_END}
        missing = [k for k in units if metrics.get(k) is None]
        if missing:
            log(f"no value for {', '.join(missing)}")
            correct = False
            metrics = {k: v for k, v in metrics.items() if v is not None}
        print(json.dumps({"facts": facts}))
        print(result_line(correct, attempted, failed, metrics, units))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
