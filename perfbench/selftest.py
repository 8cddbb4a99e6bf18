"""Self-test of the benchmark's span arithmetic, patching and report check.

usage: python3 perfbench/selftest.py

Runs in well under a second and starts no bpuverify workload.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import types
import unittest

import run
from spans import Tracer


class FakeClock:
    """A clock that moves only when the synthetic work says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        clock = FakeClock()
        tracer = Tracer(clock)

        def inner_work(x):
            clock.advance(5)
            return x

        def outer_work(x):
            clock.advance(1)
            inner(x)
            clock.advance(2)
            inner(x + 1)
            clock.advance(3)
            return x

        def costly_key(x):
            clock.advance(100)  # bookkeeping: must be charged to no span
            return x

        inner = tracer.wrap("inner", inner_work, key=costly_key)
        outer = tracer.wrap("outer", outer_work)
        outer(7)
        outer(7)
        summary = tracer.summary()
        self.assertEqual(summary["outer"], {"calls": 2, "self_s": 12.0})
        self.assertEqual(summary["inner"], {"calls": 4, "self_s": 20.0, "distinct": 2})

    def test_recursion_and_exceptions(self):
        clock = FakeClock()
        tracer = Tracer(clock)

        def countdown_work(n):
            clock.advance(1)
            if n == 0:
                raise ValueError("bottom")
            try:
                countdown(n - 1)
            finally:
                clock.advance(1)

        countdown = tracer.wrap("countdown", countdown_work)
        with self.assertRaises(ValueError):
            countdown(3)
        self.assertEqual(tracer.summary()["countdown"], {"calls": 4, "self_s": 7.0})

    def test_observe_sees_results_only(self):
        tracer = Tracer(FakeClock())

        def record(extra, args, result):
            extra["max"] = max(extra.get("max", 0), result)

        square = tracer.wrap("square", lambda x: x * x, observe=record)
        square(3)
        square(2)
        self.assertEqual(tracer.summary()["square"]["max"], 9)


class PatchTest(unittest.TestCase):
    def setUp(self):
        def helper(x):
            return x + 1

        self.defining = types.ModuleType("fakepkg.core")
        self.defining.helper = helper
        self.importer = types.ModuleType("fakepkg.user")
        self.importer.helper = helper  # as after ``from .core import helper``
        self.outsider = types.ModuleType("otherpkg")
        self.outsider.helper = helper
        self.modules = {m.__name__: m for m in (self.defining, self.importer, self.outsider)}
        sys.modules.update(self.modules)

    def tearDown(self):
        for name in self.modules:
            del sys.modules[name]

    def test_function_rebound_in_every_importing_module(self):
        tracer = Tracer(FakeClock())
        tracer.patch(self.defining, "helper", "core.helper", "fakepkg")
        self.assertEqual(self.defining.helper(1), 2)
        self.assertEqual(self.importer.helper(1), 2)
        self.assertEqual(self.outsider.helper(1), 2)  # outside the package: untraced
        self.assertEqual(tracer.summary()["core.helper"]["calls"], 2)

    def test_method_aliases_share_one_label(self):
        class Num:
            def __init__(self, v):
                self.v = v

            def __mul__(self, other):
                return Num(self.v * (other.v if isinstance(other, Num) else other))

            __rmul__ = __mul__

        tracer = Tracer(FakeClock())
        tracer.patch(Num, "__mul__", "Num.mul", "fakepkg")
        self.assertEqual((Num(2) * Num(3)).v, 6)
        self.assertEqual((4 * Num(3)).v, 12)
        self.assertEqual(tracer.summary()["Num.mul"]["calls"], 2)

    def test_lru_cache_factory_keeps_working(self):
        built = []

        @functools.lru_cache(maxsize=None)
        def factory():
            built.append(1)
            return object()

        self.defining.factory = factory
        tracer = Tracer(FakeClock())
        traced = tracer.patch(self.defining, "factory", "core.factory", "fakepkg")
        self.assertIs(traced(), traced())
        self.assertEqual(traced.cache_info().hits, 1)
        traced.cache_clear()
        traced()
        self.assertEqual(len(built), 2)
        self.assertEqual(tracer.summary()["core.factory"]["calls"], 3)


REPORT = (
    "suite k4\n"
    "pass rank/d00: kernel rank 1 at degree 0\n"
    "fail lattice/d04: coordinate stack invariant factors [1, 3]\n"
    "elapsed_ms {ms}\n"
)


class ReportCheckTest(unittest.TestCase):
    def setUp(self):
        sys.path.insert(0, str(run.SRC))
        stripped = "".join(REPORT.format(ms=5).splitlines(keepends=True)[:-1]).rstrip("\n")
        self.ref = {"exit_code": 1, "sha256": hashlib.sha256(stripped.encode()).hexdigest()}

    def tearDown(self):
        sys.path.remove(str(run.SRC))

    def child(self, report, exit_code=1, timed_out=False):
        return run.Child(1.0, 1.0, 1.0, exit_code, report.encode(), b"", b"", timed_out)

    def test_elapsed_time_is_ignored(self):
        self.assertTrue(run.verdict_ok(self.ref, self.child(REPORT.format(ms=981))))

    def test_corrupted_report_is_caught(self):
        corrupted = REPORT.format(ms=5).replace("fail lattice", "pass lattice")
        self.assertFalse(run.verdict_ok(self.ref, self.child(corrupted)))
        truncated = REPORT.format(ms=5).splitlines(keepends=True)[:2]
        self.assertFalse(run.verdict_ok(self.ref, self.child("".join(truncated))))

    def test_wrong_exit_code_or_timeout_is_caught(self):
        report = REPORT.format(ms=5)
        self.assertFalse(run.verdict_ok(self.ref, self.child(report, exit_code=0)))
        self.assertFalse(run.verdict_ok(self.ref, self.child(report, timed_out=True)))


class LayerMetricTest(unittest.TestCase):
    SUMMARY = {
        "intlinalg.hermite_normal_form": {"calls": 4, "self_s": 2.0, "distinct": 1, "max_bits": 9},
        "intlinalg.integer_kernel": {"calls": 2, "self_s": 0.5},
        "gf2.rank": {"calls": 0, "self_s": 0.0, "vectors": 0},
        "symfun.nabla_matrix": {"calls": 0, "self_s": 0.0, "distinct": 0},
    }

    def test_fields_ratios_and_layer_sums(self):
        metric = functools.partial(run.layer_metric, summary=self.SUMMARY)
        self.assertEqual(metric("intlinalg.hermite_normal_form.distinct_ratio"), 0.25)
        self.assertEqual(metric("intlinalg.hermite_normal_form.max_bits"), 9)
        self.assertEqual(metric("symfun.nabla_matrix.distinct_ratio"), 0.0)
        self.assertEqual(metric("layer.intlinalg.self_s"), 2.5)
        self.assertEqual(metric("layer.gf2.self_s"), 0.0)


if __name__ == "__main__":
    unittest.main()
