"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import itertools
import json
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import refs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

LIB = inputs.Lib()


def first_round(workload, seed):
    return next(run.source(workload, LIB, seed, None, False))


class GeneratorTests(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in ("forms", "wide", "matrix-ops"):
            a, b = first_round(workload, 7), first_round(workload, 7)
            self.assertEqual([op.label for op in a], [op.label for op in b])
            self.assertEqual([op.call() for op in a], [op.call() for op in b], workload)

    def test_seed_changes_inputs(self):
        for workload in ("forms", "wide"):
            a, b = first_round(workload, 7), first_round(workload, 8)
            self.assertNotEqual([op.call() for op in a], [op.call() for op in b], workload)

    def test_plain_stream_is_keyed_by_workload_and_seed(self):
        draw = lambda w, s: inputs.Gen(w, s).matrix(6, frac=0.3)  # noqa: E731
        self.assertEqual(draw("wide", 3), draw("wide", 3))
        self.assertNotEqual(draw("wide", 3), draw("wide", 4))
        self.assertNotEqual(draw("wide", 3), draw("forms", 3))

    def test_every_op_of_a_round_passes_its_check(self):
        for workload in ("forms", "wide", "matrix-ops"):
            for op in first_round(workload, 11):
                self.assertEqual(op.verify(op.call()), [], op.label)


class PlantedFailureTests(unittest.TestCase):
    def det_op(self):
        # A det op whose oracle value is nonzero, with its true output.
        for op in first_round("matrix-ops", 5):
            if op.kind == "det":
                out = op.call()
                if not out.value.is_zero:
                    return op, out
        self.fail("no nonzero determinant in the round")

    def test_layer_flip_fails(self):
        op, out = self.det_op()
        sc = LIB.scalars.Scalar
        flipped = LIB.matrices.DetResult(sc(out.value.value, not out.value.ghost), out.witnesses)
        self.assertEqual(op.verify(out), [])
        self.assertTrue(op.verify(flipped))

    def test_witness_outside_oracle_set_fails(self):
        op, out = self.det_op()
        n = len(next(iter(out.witnesses)))
        stranger = next(p for p in itertools.permutations(range(n)) if p not in out.witnesses)
        planted = LIB.matrices.DetResult(out.value, frozenset({stranger}))
        self.assertTrue(op.verify(planted))

    def test_missing_tie_certificate_fails(self):
        value = (3, True)
        oracle = frozenset({(0, 1), (1, 0)})
        self.assertEqual(workloads.det_problems(value, oracle, value, [(1, 0), (0, 1)]), [])
        self.assertTrue(workloads.det_problems(value, oracle, value, [(1, 0)]))

    def test_cli_traceback_fails(self):
        check = workloads.cli_outcome({1, 2})
        self.assertEqual(check((2, "", "error: bad scalar token: 'x'\n")), [])
        crash = "Traceback (most recent call last):\n  ...\nZeroDivisionError: Fraction(1, 0)\n"
        self.assertTrue(check((1, "", crash)))
        self.assertTrue(workloads.cli_outcome({0})((0, "3\n", crash)))

    def test_exception_is_a_failure(self):
        op = workloads.Op("x", 1, lambda: None, lambda out: [])
        self.assertTrue(op.verify(ValueError("boom")))


class LoopTests(unittest.TestCase):
    def test_pauses_fall_between_rounds_and_all_run(self):
        events = []

        def rounds():
            for r in itertools.count():
                yield [workloads.Op("x", r, lambda r=r: (time.sleep(2e-4), events.append(r)), lambda out: [])
                       for _ in range(25)]

        pool = run.Pool(rounds(), 0)
        res = run.timed_loop(pool, 0.05, pauses=4, pause=lambda: events.append("pause"))
        self.assertEqual(events.count("pause"), 4)
        for i, e in enumerate(events):
            if e == "pause" and 0 < i < len(events) - 1 and events[i + 1] != "pause":
                self.assertNotEqual(events[i - 1], events[i + 1], "pause inside a round")
        self.assertGreaterEqual(len(res.latencies), run.MIN_OPS)


class TraceTests(unittest.TestCase):
    def test_self_time_of_a_span_tree(self):
        spans = [
            ("root", 0.0, 10.0, -1, 0),
            ("a", 1.0, 4.0, 0, 0),
            ("b", 5.0, 7.0, 0, 0),
            ("a.1", 2.0, 3.0, 1, 0),
            ("other", 0.0, 1.0, -1, 1),
        ]
        self.assertEqual(tracing.self_times(spans), [5.0, 2.0, 2.0, 1.0, 1.0])

    def test_overlapping_children_count_once(self):
        spans = [("p", 0.0, 10.0, -1, 0), ("c1", 1.0, 5.0, 0, 0), ("c2", 3.0, 12.0, 0, 0)]
        self.assertEqual(tracing.self_times(spans)[0], 1.0)

    def test_absent_target_is_reported(self):
        saved = tracing.TARGETS
        tracing.TARGETS = saved + (("matrices", "no_such_function", "span"), ("nomodule", "f", "span"))
        try:
            tracer = tracing.Tracer()
            with tracer.installed():
                pass
        finally:
            tracing.TARGETS = saved
        self.assertEqual(tracer.absent, ["matrices.no_such_function", "nomodule.f"])

    def test_inherited_method_is_restored_by_deletion(self):
        class Base:
            def apply(self):
                return "base"

        class Child(Base):
            pass

        tracer = tracing.Tracer()
        tracer._patch(Child, "apply", lambda self: "patched")
        self.assertEqual(Child().apply(), "patched")
        tracer.remove()
        self.assertNotIn("apply", vars(Child))
        self.assertEqual(Child().apply(), "base")

    def test_patches_every_binding_and_restores(self):
        det = LIB.matrices.det
        tracer = tracing.Tracer()
        with tracer.installed():
            for mod in (LIB.matrices, LIB.bilinear, LIB.oracle, LIB.cli, LIB.pkg):
                self.assertIsNot(mod.det, det)
            m = LIB.matrix(refs.identity(3))
            LIB.matrices.det(m)  # no op active: nothing recorded
            self.assertEqual(tracer.spans, [])
            tracer.begin_op(0, "probe")
            LIB.matrices.pseudo_inverse(m)
            tracer.end_op()
        for mod in (LIB.matrices, LIB.bilinear, LIB.oracle, LIB.cli, LIB.pkg):
            self.assertIs(mod.det, det)
        names = [s[0] for s in tracer.spans]
        self.assertEqual(names.count("matrices.det"), 1 + 9)
        metrics = tracer.metrics(1)
        self.assertEqual(metrics["matrices.adjoint.det_calls"], 9)
        self.assertEqual(metrics["matrices.pseudo_inverse.calls"], 1)

    def test_benchmark_json_lists_every_layer_metric(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]], tracing.metric_names())
        self.assertEqual({w["name"] for w in bench["workloads"]}, set(run.WORKLOADS))


class ReferenceTests(unittest.TestCase):
    def test_reference_det_matches_oracle(self):
        gen = inputs.Gen("refs", 1)
        for k in range(200):
            a = gen.matrix(2 + k % 4, ghost=0.3, zero=0.2, lo=-3, hi=3)
            oracle = LIB.oracle.brute_force_det(LIB.matrix(a))
            self.assertEqual(refs.det(a), refs.of_scalar(oracle.value))

    def test_reference_kernels_match_library_on_rationals(self):
        gen = inputs.Gen("refs", 2)
        for _ in range(20):
            a, b = gen.matrix(5, frac=0.5), gen.matrix(5, frac=0.5)
            v, w = gen.vector(5, frac=0.5), gen.vector(5, frac=0.5)
            la, lb = LIB.matrix(a), LIB.matrix(b)
            self.assertEqual(refs.matmul(a, b), refs.of_rows(LIB.matrices.mat_mul(la, lb).entries))
            self.assertEqual(refs.matvec(a, v), workloads.vec(la.apply(LIB.vector(v))))
            got = LIB.bilinear.evaluate(LIB.form(a), LIB.vector(v), LIB.vector(w))
            self.assertEqual(refs.bilinear(a, v, w), refs.of_scalar(got))

    def test_text_round_trip(self):
        gen = inputs.Gen("refs", 3)
        a = gen.matrix(4, frac=0.5)
        self.assertEqual(refs.parse_rows(workloads.text_rows(a)), a)
        self.assertEqual(refs.parse_rows(str(LIB.matrix(a))), a)


if __name__ == "__main__":
    unittest.main()
