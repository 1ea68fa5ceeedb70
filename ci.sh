#!/bin/sh
# Local CI: the same gates as .github/workflows/ci.yml, in order.
set -eux

cargo build --release
cargo test -q
# Shard-equivalence gate: sharded replay must be bit-identical to serial
# for every scheme, on random traces and the pinned workbench matrix.
cargo test -q -p dircc-sim --test sharding
# Reference-oracle gate: a deliberately naive replay reproduces the
# checked-in smoke digests, and every way into the engine's one core
# (record iterator, memoized SoA stream, in-memory shards, chunked
# source, spill files) reproduces the oracle for every scheme, finite
# caches and verifier included.
cargo test -q -p dircc-sim --test reference
# Correctness gate: bounded exhaustive model check of every protocol,
# plus the serial-vs-sharded replay equivalence check it ends with.
./target/release/dircc check --smoke
# Model-check pin gate: at the default bound (3 cpus x 2 blocks, depth 8)
# every scheme's `name states transitions PASS` row equals check.rows in
# perfbench/pins.json (read here and never written), at one worker and
# at two.
python3 -c 'import json; print("\n".join(json.load(open("perfbench/pins.json"))["check"]["rows"]))' \
    > /tmp/check_pins.txt
for jobs in 1 2; do
    ./target/release/dircc check --jobs "$jobs" > /tmp/check_out.txt
    awk 'NF == 4 && $4 ~ /^(PASS|FAIL)$/ {print $1, $2, $3, $4}' /tmp/check_out.txt \
        | diff /tmp/check_pins.txt -
done
# Paper-scale byte-identity gate: `dircc all` at full scale and the
# default seed prints exactly the pinned bytes (paper_all.stdout_sha256
# in perfbench/pins.json, read here and never written) at one worker
# and at two, where the finite-cache studies evict for real.
PIN=$(python3 -c 'import json; print(json.load(open("perfbench/pins.json"))["paper_all"]["stdout_sha256"])')
for jobs in 1 2; do
    test "$(./target/release/dircc all --jobs "$jobs" | sha256sum | cut -d' ' -f1)" = "$PIN"
done
# Perf gate: sharded replay throughput report, then compare the
# deterministic per-run counters against the checked-in baseline
# (wall-clock drift is reported but never fails). Because the bench runs
# through the engine's no-op recorder, this doubles as the observability
# drift gate: any counter perturbation from the instrumentation layer
# fails here — and running it at --shards 2 makes the shard merge itself
# part of the drift surface.
./target/release/dircc bench --smoke --shards 2 --repeat 3 --out /tmp/BENCH_smoke.json
./target/release/dircc benchcmp --smoke --shards 2 --in BENCH_smoke.json
# Observability smoke: windowed time series + span profile of the
# scalability work list.
./target/release/dircc profile scaling --smoke \
    --out /tmp/PROFILE_timeseries.jsonl --spans /tmp/PROFILE_spans.json
# Streaming round-trip gate: a recorded chunked v2 trace replayed from
# disk (streamed, then sharded via out-of-core spill files) must print
# byte-identical results to the in-memory replay of the same profile,
# verifier on.
./target/release/dircc record --profile thor --refs 20000 --out /tmp/smoke_v2.dcct
./target/release/dircc replay --in /tmp/smoke_v2.dcct --verify > /tmp/replay_file.txt
./target/release/dircc replay --profile thor --refs 20000 --verify > /tmp/replay_mem.txt
diff /tmp/replay_file.txt /tmp/replay_mem.txt
./target/release/dircc replay --in /tmp/smoke_v2.dcct --verify --shards 3 \
    > /tmp/replay_sharded.txt
diff /tmp/replay_file.txt /tmp/replay_sharded.txt
# Serve gate: the HTTP daemon on an ephemeral port — served /run
# responses diffed byte-for-byte against `dircc replay --json` (cache
# miss, cache hit, sharded resubmit), a mixed-workload load run with
# zero errors writing BENCH_serve.json, a request-ID log/span join, an
# exact /metrics reconciliation against the scripted load (scrape kept
# as SERVE_metrics.prom), a `dircc top --once` snapshot check, then a
# graceful /shutdown drain with an orphan check. The timeout is the
# hard ceiling on a hang.
timeout 300 ./ci_serve_gate.sh
cargo clippy --all-targets -- -D warnings
cargo fmt --check
