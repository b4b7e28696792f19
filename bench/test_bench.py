"""The benchmark's own tests: its checks reject corrupted output.

    python3 -m unittest discover -s bench -p 'test_*.py'

Each check first accepts a real topecom output, then rejects copies of it
with one defect planted.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import tempfile
import types
import unittest
import unittest.mock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import probe  # noqa: E402
import topecom  # noqa: E402
import topecom.cli  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed, sign_text, signs  # noqa: E402


def run_cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = topecom.cli.main(argv)
    assert rc == 0, argv
    return out.getvalue()


class CheckTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        rng = random.Random(5)
        cls.d, cls.t = 3, 6
        arr = topecom.validate_arrangement(
            cls.d, workloads.generic_normals(rng, cls.d, cls.t)
        )
        cls.chambers = [tp.entries for tp in topecom.chambers(arr).topes]
        cls.arr_path = os.path.join(cls.tmp.name, "a.arr")
        topecom.write_arrangement_file(cls.arr_path, arr)
        cls.topes = frozenset(workloads.relabel(rng, cls.chambers))
        cls.topes_path = os.path.join(cls.tmp.name, "a.topes")
        with open(cls.topes_path, "w", encoding="utf-8") as fh:
            fh.write(workloads.topes_text(sorted(cls.topes)))

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def assertRejects(self, check, text, **kw):
        with self.assertRaises(CheckFailed):
            check(text, **kw)

    def test_chamber_set(self):
        kw = dict(d=self.d, t=self.t)
        checks.check_chamber_set(self.chambers, **kw)
        self.assertRejects(checks.check_chamber_set, self.chambers[:-1], **kw)
        self.assertRejects(checks.check_chamber_set,
                           self.chambers + self.chambers[-1:], **kw)
        flipped = self.chambers[1:] + [(-self.chambers[0][0],) + self.chambers[0][1:]]
        self.assertRejects(checks.check_chamber_set, flipped, **kw)

    def test_chambers_verb(self):
        text = run_cli(["chambers", "--arr", self.arr_path])
        kw = dict(d=self.d, t=self.t)
        checks.check_chambers(text, **kw)
        self.assertRejects(checks.check_chambers, text.rsplit("\n", 2)[0] + "\n", **kw)
        self.assertRejects(checks.check_chambers, text, d=self.d + 1, t=self.t)

    def test_graph(self):
        text = run_cli(["graph", "--format", "text", "--arr", self.arr_path])
        kw = dict(d=self.d, t=self.t)
        checks.check_graph(text, **kw)
        first, rest = text.split("\n", 1)
        self.assertRejects(checks.check_graph, rest, **kw)
        self.assertRejects(checks.check_graph, text + first + "\n", **kw)
        a, b = first.split(" -- ")
        far = sign_text(checks.neg(signs(a, self.t)))
        self.assertRejects(checks.check_graph, text.replace(first, f"{a} -- {far}"), **kw)

    def test_decompose_verb(self):
        target = (1, -1, 1, 1, -1, -1)
        text = run_cli(["decompose", "--tope", sign_text(target), "--arr", self.arr_path])
        checks.check_decompose(text, target)
        self.assertRejects(checks.check_decompose, text, target=checks.neg(target))
        lines = text.split("\n")
        x_line, q_line = lines[2], lines[3]
        xs = x_line.split("[")[1].rstrip("]").split(", ")
        xs[0] = str(int(xs[0]) + 2)
        self.assertRejects(checks.check_decompose,
                           text.replace(x_line, f"x:      [{', '.join(xs)}]"), target=target)
        self.assertRejects(checks.check_decompose,
                           text.replace(q_line, q_line.rsplit(" ", 1)[0]), target=target)

    def test_cycles(self):
        text = run_cli(["cycles", "--budget", "5", "--topes", self.topes_path])
        kw = dict(t=self.t, budget=5, topes=self.topes)
        self.assertEqual(checks.check_cycles(text, **kw), 5)
        first = text.split("\n", 1)[0]
        head, body = first.split(": ")
        verts = body.split(" ")
        swapped = verts[:]
        swapped[1], swapped[2] = swapped[2], swapped[1]
        self.assertRejects(checks.check_cycles,
                           text.replace(first, f"{head}: {' '.join(swapped)}"), **kw)
        unpaired = verts[:]
        unpaired[self.t] = verts[0]
        self.assertRejects(checks.check_cycles,
                           text.replace(first, f"{head}: {' '.join(unpaired)}"), **kw)
        self.assertRejects(checks.check_cycles,
                           text.replace("truncated: true", "truncated: maybe"), **kw)
        self.assertRejects(checks.check_cycles, text, t=self.t, budget=4, topes=self.topes)

    def test_committee(self):
        text = run_cli(["committee", "--all-bases", "--budget", "50",
                        "--topes", self.topes_path])
        kw = dict(t=self.t, budget=50, topes=self.topes)
        self.assertGreater(checks.check_committees(text, **kw), 0)
        first = text.split("\n", 1)[0]
        shorter = first.rsplit(" ", 1)[0]
        self.assertRejects(checks.check_committees, text.replace(first, shorter), **kw)

    def test_poset(self):
        text = run_cli(["poset", "--format", "text", "--topes", self.topes_path])
        kw = dict(t=self.t, topes=self.topes)
        checks.check_poset(text, **kw)
        first = text.split("\n", 1)[0]
        lo, hi = first.split(" < ")
        self.assertRejects(checks.check_poset, text.replace(first, f"{hi} < {lo}"), **kw)
        self.assertRejects(checks.check_poset, text.split("\n", 1)[1], **kw)

    def test_decomposition_answer(self):
        cycle = [signs(s, 2) for s in ("++", "-+", "--", "+-")]
        checks.check_decomposition([cycle[0]], (1, 1), cycle)
        with self.assertRaises(CheckFailed):
            checks.check_decomposition([cycle[0], cycle[1]], (0, 2), cycle)
        with self.assertRaises(CheckFailed):
            checks.check_decomposition([(1, 1)], (1, -1), cycle)


class GeneratorTests(unittest.TestCase):
    def test_rank2_topes_form_one_cycle(self):
        t = 9
        topes = workloads.rank2_topes(random.Random(1), t)
        members = frozenset(topes)
        self.assertEqual(len(members), 2 * t)
        self.assertTrue(all(checks.neg(v) in members for v in topes))
        # Every tope has exactly two neighbours: the tope graph is a 2t-cycle.
        degree = {v: 0 for v in topes}
        for a, b in checks.flip_pairs(members):
            degree[a] += 1
            degree[b] += 1
        self.assertEqual(set(degree.values()), {2})
        ts = topecom.build_tope_set(topecom.Tope(v) for v in topes)
        self.assertEqual(len(ts), 2 * t)

    def test_relabel_keeps_an_all_plus_member(self):
        rng = random.Random(2)
        topes = workloads.rank2_topes(rng, 7)
        copy = workloads.relabel(rng, topes)
        self.assertIn((1,) * 7, copy)
        self.assertEqual(len(set(copy)), len(topes))

    def test_counts(self):
        self.assertEqual(checks.chamber_count(3, 8), 8 * 8 - 8 + 2)
        self.assertEqual(checks.chamber_count(4, 8), 128)
        self.assertEqual(sign_text((1, -1)), "+-")


class HostSpeedTests(unittest.TestCase):
    def test_ops_scaled_by_the_probes_around_them(self):
        times = iter([probe.REF_NS, 3 * probe.REF_NS, probe.REF_NS])
        host = probe.HostSpeed(every_ns=100)
        with unittest.mock.patch.object(probe, "probe_ns", lambda: next(times)):
            host.start_round()
            for latency in (60, 60, 200):  # a probe before ops 1 and 3, and at the end
                host.before_op()
                host.after_op(latency)
            scaled = host.end_round()
        self.assertEqual(len(host.probes), 3)
        self.assertEqual(scaled, [30.0, 30.0, 100.0])

    def test_probe_checks_its_result(self):
        self.assertGreater(probe.probe_ns(), 0)
        with unittest.mock.patch.object(probe, "_EXPECTED", -1):
            with self.assertRaises(RuntimeError):
                probe.probe_ns()


class TraceTests(unittest.TestCase):
    def test_missing_boundary_fails(self):
        fake = types.SimpleNamespace(**{
            name: getattr(topecom, name)
            for name in ("cli", "posets", "realization", "topesets", "decomposition",
                         "committees")
        })
        fake.cli = types.SimpleNamespace(**vars(topecom.cli))
        del fake.cli.find_symmetric_cycle
        tracer = tracing.Tracer()
        with self.assertRaises(tracing.BoundaryMissing):
            tracer.install(fake)
        tracer.uninstall()
        self.assertIs(topecom.cli.chambers, topecom.realization.chambers)

    def test_layer_without_spans_fails(self):
        spans = [("cli.main", 0, 10, -1, 0, 0)]
        with self.assertRaises(SystemExit):
            worker.layer_metrics("topes-enum", spans, {0: "d3-t8"}, 1)

    def test_self_times(self):
        spans = [("a.x", 0, 100, -1, 0, None), ("a.y", 10, 40, 0, 0, None),
                 ("b.z", 15, 25, 1, 0, None), ("b.w", 50, 80, 0, 0, None)]
        self.assertEqual(tracing.self_times(spans), [40, 20, 10, 30])
        self.assertEqual(tracing.layer_self_times(spans), [60, 20, 10, 30])

    def test_benchmark_json_lists_every_metric(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         worker.per_layer_units())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.NAMES))


if __name__ == "__main__":
    unittest.main()
