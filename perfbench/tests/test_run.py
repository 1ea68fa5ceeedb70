"""Tests of the benchmark harness itself (no build, no simulation).

    python3 -m unittest discover -s perfbench/tests

The probe program's own tests (percentile reporting rule, open-loop
latency from the due time) run with
`cargo test --manifest-path perfbench/probe/Cargo.toml`.
"""

import copy
import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


class MetricNames(unittest.TestCase):
    def setUp(self):
        with open(BENCHMARK_JSON) as f:
            self.bench = json.load(f)

    def test_names_and_units_use_the_allowed_characters(self):
        for table in (run.END_TO_END, run.PER_LAYER):
            for name, unit in table.items():
                self.assertRegex(name, run.NAME_RE, name)
                self.assertRegex(unit, run.UNIT_RE, unit)
        for workload in run.WORKLOADS:
            self.assertRegex(workload, run.NAME_RE)

    def test_the_charset_rejects_malformed_names(self):
        for bad in ("", ".hidden", "-x", "a b", "a/b", "x" * 65, "wall_s!", "µs"):
            self.assertIsNone(run.NAME_RE.match(bad), bad)

    def test_names_are_unique_across_both_tables(self):
        names = list(run.END_TO_END) + list(run.PER_LAYER)
        self.assertEqual(len(names), len(set(names)))

    def test_benchmark_json_lists_exactly_what_run_py_reports(self):
        self.assertEqual([m["name"] for m in self.bench["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([m["name"] for m in self.bench["per_layer"]], list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in self.bench["workloads"]], list(run.WORKLOADS))
        for m in self.bench["end_to_end"]:
            self.assertEqual(m["unit"], run.END_TO_END[m["name"]])
        for m in self.bench["per_layer"]:
            self.assertEqual(m["unit"], run.PER_LAYER[m["name"]])

    def test_result_line_has_exactly_the_result_keys(self):
        line = json.loads(run.result_line(True, 3, 0, {"wall_s": 1.5}, run.END_TO_END))
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(line["metrics"], {"wall_s": {"value": 1.5, "unit": "s"}})


class PinnedOutputs(unittest.TestCase):
    def setUp(self):
        self.pins = run.load_pins()
        self.digests = dict(self.pins["paper_all"]["run_digests"])

    def test_the_pins_hold_all_42_paper_runs(self):
        self.assertEqual(len(self.digests), 42)
        with open(os.path.join(run.ROOT, "BENCH_replay.json")) as f:
            runs = json.load(f)["runs"]
        self.assertEqual(
            self.digests, {f"{r['scheme']} {r['trace']} {r['filter']}": r["digest"] for r in runs})

    def test_matching_digests_pass(self):
        run.check_run_digests(self.digests, self.pins)

    def test_a_corrupted_pinned_digest_fails_the_run(self):
        pins = copy.deepcopy(self.pins)
        key = "Dir0B THOR full"
        digest = pins["paper_all"]["run_digests"][key]
        pins["paper_all"]["run_digests"][key] = digest[:-1] + ("0" if digest[-1] != "0" else "1")
        with self.assertRaises(run.Failure):
            run.check_run_digests(self.digests, pins)

    def test_a_missing_run_fails_the_run(self):
        digests = dict(self.digests)
        digests.pop("WTI PERO full")
        with self.assertRaises(run.Failure):
            run.check_run_digests(digests, self.pins)

    def test_a_corrupted_stdout_hash_fails_only_at_the_default_seed(self):
        text = "\n".join(f"line {i}" for i in range(self.pins["paper_all"]["lines"])) + "\n"
        pins = copy.deepcopy(self.pins)
        pins["paper_all"]["titles_sha256"] = run.sha256("\n".join(run.titles(text)).encode())
        run.check_paper_stdout(text.encode(), 7, pins)
        with self.assertRaises(run.Failure):
            run.check_paper_stdout(text.encode(), run.DEFAULT_SEED, pins)

    def test_a_changed_shape_fails_at_any_seed(self):
        with self.assertRaises(run.Failure):
            run.check_paper_stdout(b"Table 1\n", 7, self.pins)

    def test_check_rows_are_compared_exactly(self):
        rows = self.pins["check"]["rows"]
        table = "\n".join(rows) + "\nmodel check: all 12 scheme(s) PASS\n" \
            "shard check: ... bit-identical at 2 shards\n"
        run.check_table(table.encode(), self.pins)
        corrupted = table.replace(rows[0].split()[1], str(int(rows[0].split()[1]) + 1), 1)
        with self.assertRaises(run.Failure):
            run.check_table(corrupted.encode(), self.pins)


class ServeTraffic(unittest.TestCase):
    def test_the_same_seed_gives_the_same_schedule(self):
        a, b = run.Traffic(5).schedule(500), run.Traffic(5).schedule(500)
        self.assertEqual(a, b)
        self.assertNotEqual(a, run.Traffic(6).schedule(500))

    def test_misses_are_fresh_and_at_the_fixed_share(self):
        traffic = run.Traffic(5)
        tokens, misses = traffic.schedule(1000)
        self.assertEqual(len(misses), 1000 // run.MISS_EVERY)
        self.assertEqual(sum(t.startswith("m") for t in tokens), len(misses))
        seeds = [m["seed"] for m in misses]
        self.assertEqual(len(set(seeds)), len(seeds))
        self.assertNotIn(5, seeds)
        _, more = traffic.schedule(1000)
        self.assertFalse(set(seeds) & {m["seed"] for m in more})

    def test_a_rung_fails_on_a_slow_tail_or_an_invalid_generator(self):
        ok = {"hit_p99_ms": 1.0, "drain_ms": 0.5, "errors": 0, "refused": 0, "valid": True}
        self.assertTrue(run.rung_passes(ok))
        self.assertFalse(run.rung_passes(dict(ok, hit_p99_ms=run.HIT_LIMIT_MS + 0.1)))
        self.assertFalse(run.rung_passes(dict(ok, hit_p99_ms=None)))
        self.assertFalse(run.rung_passes(dict(ok, valid=False)))
        self.assertFalse(run.rung_passes(dict(ok, refused=1)))


class FailedRequests(unittest.TestCase):
    """Refusals and timeouts are performance outcomes; wrong answers are
    correctness failures."""

    def report(self, **fields):
        job = {"scheme": "WTI", "trace": "POPS", "refs": run.MISS_REFS, "seed": 1 << 33}
        return dict({"mismatched": 0, "errors": 0, "refused": 0, "first_error": "",
                     "miss_jobs": [job], "miss_bodies": [""]}, **fields)

    def test_refused_and_timed_out_requests_do_not_fail_the_check(self):
        # The only miss was refused, so it has no body to re-derive.
        run.check_session(None, None, self.report(errors=2, refused=3, first_error="timed out"), 5)

    def test_a_wrong_answer_fails_the_check(self):
        with self.assertRaises(run.Failure):
            run.check_session(None, None, self.report(mismatched=1), 5)

    def test_a_batch_run_fails_only_when_no_operation_succeeded(self):
        m = {"attempted": 2, "failed": 2, "outs": []}
        with self.assertRaises(run.Failure):
            run.verify_batch("check", None, None, 5, m, run.load_pins())


if __name__ == "__main__":
    unittest.main()
