"""Checks of the benchmark harness itself.

    python3 perfbench/selftest.py           # span arithmetic, percentiles, BENCHMARK.json
    python3 perfbench/selftest.py --smoke   # plus every workload at tiny scale (~1 min)
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans as spanlib  # noqa: E402
import stats  # noqa: E402
from spans import Span  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class SelfTime(unittest.TestCase):
    def test_union_merges_overlaps_and_clips(self):
        self.assertEqual(spanlib.union_length([], 0, 10), 0)
        self.assertEqual(spanlib.union_length([(1, 3), (2, 5), (7, 8)], 0, 10), 5)
        self.assertEqual(spanlib.union_length([(-5, 2), (9, 20)], 0, 10), 3)
        self.assertEqual(spanlib.union_length([(1, 2), (2, 3)], 0, 10), 2)
        self.assertEqual(spanlib.union_length([(11, 12)], 0, 10), 0)

    def test_nested_children(self):
        spans = [
            Span(1, None, "root", 0.0, 10.0, None),
            Span(2, 1, "a", 1.0, 4.0, None),
            Span(3, 2, "b", 2.0, 3.0, None),
            Span(4, 1, "c", 5.0, 6.0, None),
        ]
        self.assertEqual(spanlib.self_times(spans), {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0})

    def test_overlapping_threaded_children_are_not_double_counted(self):
        # Two request threads under one load phase: their union covers
        # [1, 9], so the parent's self time is 2, never negative.
        spans = [
            Span(1, None, "bench.load", 0.0, 10.0, None),
            Span(2, 1, "serve.client", 1.0, 6.0, "q0"),
            Span(3, 1, "serve.client", 2.0, 9.0, "q1"),
            Span(4, 3, "serve.http", 3.0, 8.0, "q1"),
        ]
        times = spanlib.self_times(spans)
        self.assertEqual(times[1], 2.0)
        self.assertEqual(times[3], 2.0)
        self.assertEqual(sum(times.values()), 2.0 + 5.0 + 2.0 + 5.0)

    def test_child_outliving_its_parent_is_clipped(self):
        spans = [Span(1, None, "p", 0.0, 4.0, None), Span(2, 1, "c", 3.0, 7.0, None)]
        self.assertEqual(spanlib.self_times(spans)[1], 3.0)


class Tracing(unittest.TestCase):
    def test_wrap_nests_on_one_thread_and_counts(self):
        clock = FakeClock()
        tracer = spanlib.Tracer(clock)
        seen = []

        def inner():
            clock.now += 1.0

        traced_inner = tracer.wrap(inner, "layer.inner")

        def outer():
            clock.now += 1.0
            traced_inner()
            clock.now += 1.0
            return 7

        traced_outer = tracer.wrap(outer, "layer.outer", after=lambda r, a, k: seen.append(r))
        self.assertEqual(traced_outer(), 7)
        self.assertEqual(seen, [7])
        by_name = {span.name: span for span in tracer.spans}
        self.assertEqual(by_name["layer.inner"].parent, by_name["layer.outer"].sid)
        times = spanlib.self_times(tracer.spans)
        self.assertEqual(times[by_name["layer.outer"].sid], 2.0)
        self.assertEqual(times[by_name["layer.inner"].sid], 1.0)

    def test_opaque_span_hides_callees(self):
        tracer = spanlib.Tracer()
        step = tracer.wrap(lambda: None, "llm.session.propose")
        synth = tracer.wrap(lambda: [step() for _ in range(3)], "llm.synth.free", opaque=True)
        synth()
        step()
        self.assertEqual(sorted(span.name for span in tracer.spans),
                         ["llm.session.propose", "llm.synth.free"])

    def test_bound_work_and_request_ids_cross_threads(self):
        tracer = spanlib.Tracer()
        work = tracer.wrap(lambda: None, "service.generate")
        with tracer.span("core.fit") as fit_sid:
            bound = tracer.bind(work)
            threads = [threading.Thread(target=bound) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        self.assertFalse(any(thread.is_alive() for thread in threads))
        children = [s for s in tracer.spans if s.name == "service.generate"]
        self.assertEqual([s.parent for s in children], [fit_sid, fit_sid])

        token = tracer.open("serve.client", rid="q7", link=True)
        server = threading.Thread(
            target=lambda: tracer.close(tracer.open("serve.http", rid="q7"))
        )
        server.start()
        server.join(timeout=10)
        tracer.close(token)
        client = next(s for s in tracer.spans if s.name == "serve.client")
        handler = next(s for s in tracer.spans if s.name == "serve.http")
        self.assertEqual(handler.parent, client.sid)


class Percentiles(unittest.TestCase):
    def test_tail_rule_keeps_ten_samples_beyond(self):
        self.assertEqual(stats.tail_percentile(1000), 0.99)
        self.assertEqual(stats.tail_percentile(999), 0.98)
        self.assertEqual(stats.tail_percentile(504), 0.98)
        self.assertEqual(stats.tail_percentile(252), 0.95)
        self.assertEqual(stats.tail_percentile(100), 0.90)
        self.assertEqual(stats.tail_percentile(10), 0.50)
        for n in (20, 40, 100, 200, 333, 1000, 5000):
            q = stats.tail_percentile(n)
            self.assertGreaterEqual(n * (1 - q), stats.MIN_TAIL - 1e-9)

    def test_interpolated_percentile(self):
        values = list(range(101))
        self.assertEqual(stats.percentile(values, 0.5), 50)
        self.assertEqual(stats.percentile(values, 0.99), 99)
        self.assertEqual(stats.percentile([3.0], 0.99), 3.0)
        self.assertAlmostEqual(stats.percentile([0.0, 10.0], 0.25), 2.5)


class Catalogue(unittest.TestCase):
    def test_benchmark_json_keeps_the_contract(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            set(spec), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
        )
        workloads = [w["name"] for w in spec["workloads"]]
        self.assertEqual(workloads, ["eval-cold", "serve"])
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in spec["end_to_end"]))
        for metric in spec["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)
        catalogue = (HERE / "CATALOGUE.md").read_text()
        for name in names:
            self.assertIn(f"`{name}`", catalogue, name)


class Smoke(unittest.TestCase):
    """Every workload end to end at tiny scale, untraced and traced."""

    def run_bench(self, trace: int) -> dict:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "all", "--scale", "tiny",
             "--seconds", "1", "--seed", "5", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        self.assertEqual(out.returncode, 0, out.stderr[-3000:])
        return json.loads(out.stdout.strip().splitlines()[-1])

    def test_untraced(self):
        result = self.run_bench(0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)

    def test_traced(self):
        result = self.run_bench(1)
        self.assertTrue(result["correct"])
        for workload in ("eval-cold", "eval-warm", "serve"):
            coverage = result["metrics"][f"{workload}.trace.coverage"]["value"]
            self.assertGreaterEqual(coverage, 0.9, workload)


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv
    if smoke:
        sys.argv.remove("--smoke")
    else:
        del Smoke
    unittest.main()
