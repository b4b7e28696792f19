"""One workload in one process: set-up, the timed phase, checks, trace.

Started by ``run.py`` with ``sys.executable``; writes one JSON result file.
With ``--setup-only`` it stops where the timed phase would begin. With
``--trace 1`` it runs whole rounds untraced for half the time, then as many
rounds again with spans on, and reports per-layer metrics from the second
half.
"""

from __future__ import annotations

import argparse
import array
import hashlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter_ns

import checks
import workloads
from probe import REF_NS, HostSpeed, probe_ns
from tracing import SpanTable, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Layers each workload must show spans for, in the timed phase or in set-up.
REQUIRED_LAYERS = {
    "arr-cli": ({"realization", "topesets", "cycles", "decomposition", "cli"}, set()),
    "topes-enum": ({"cycles", "posets", "committees", "topesets", "cli"},
                   {"realization"}),
    "decompose-stream": ({"decomposition"}, {"realization", "cycles"}),
}
HARD_STOP_S = 120.0


def import_topecom():
    sys.path.insert(0, SRC)
    import topecom
    import topecom.cli

    where = os.path.dirname(os.path.abspath(topecom.__file__))
    if where != os.path.join(SRC, "topecom"):
        raise SystemExit(f"topecom imported from {where}, not from {SRC}")
    return topecom


class Phase:
    """Latencies, failures and output digest over whole rounds.

    ``latencies_ns`` are wall times; ``scaled_ns`` are the same latencies
    scaled to the reference host by the probes around each op (probe.py).
    """

    def __init__(self):
        # State here must not grow faster than a few bytes per op, or a
        # faster program would pay for its extra ops in peak_rss_mb.
        self.latencies_ns = array.array("q")
        self.scaled_ns = array.array("d")
        self.host = HostSpeed()
        self.timed_ns = 0
        self.rounds = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digest = hashlib.sha256()
        self.first_round_digest = ""
        self.first_round_ops = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def time_round(self, start_ns: int) -> None:
        self.timed_ns += perf_counter_ns() - start_ns
        self.scaled_ns.extend(self.host.end_round())

    def close_round(self, n_ops: int) -> None:
        self.rounds += 1
        if self.rounds == 1:
            self.first_round_digest = self.digest.hexdigest()
            self.first_round_ops = n_ops


def setup_call(tracer):
    """Calls the benchmark's set-up makes into topecom, as spans."""

    def call(name, fn, *args):
        return tracer.wrap(name, fn, len)(*args)

    return call


class CliRunner:
    """Runs ``topecom.cli.main`` in-process, one op per fresh input file."""

    def __init__(self, workload, topecom, tracer):
        self.wl = workload
        self.main = tracer.wrap("cli.main", topecom.cli.main, lambda rc: int(rc != 0))
        self.tracer = tracer
        self.rung_of: list[str] = []

    def setup(self):
        self.wl.setup(setup_call(self.tracer))

    def round(self, k):
        return self.wl.round(k)

    def run_round(self, ops, phase: Phase) -> None:
        outputs = []
        host = phase.host
        host.start_round()
        start = perf_counter_ns()
        for op in ops:
            self.tracer.op = len(self.rung_of)
            self.rung_of.append(op.rung)
            out, err = io.StringIO(), io.StringIO()
            host.before_op()
            with redirect_stdout(out), redirect_stderr(err):
                t0 = perf_counter_ns()
                try:
                    rc = self.main(op.argv)
                except SystemExit as exc:
                    rc = exc.code
                except Exception as exc:  # an op that raises is a failed op
                    rc = repr(exc)
                t1 = perf_counter_ns()
            host.after_op(t1 - t0)
            phase.latencies_ns.append(t1 - t0)
            outputs.append((out.getvalue(), err.getvalue(), rc))
        phase.time_round(start)
        self.tracer.op = None
        for op, (text, err, rc) in zip(ops, outputs):
            phase.digest.update(f"{rc}\n{text}".encode())
            where = f"{op.verb} {op.rung}"
            if rc != 0:
                phase.fail(f"{where}: exit {rc}: {err.strip()[:200]}")
                continue
            try:
                op.check(text)
            except Exception as exc:
                phase.fail(f"{where}: {exc}")
        phase.close_round(len(ops))

    def finish(self, phase: Phase) -> dict:
        return {}


class StreamRunner:
    """``decompose(cycle, T)`` in a loop, answers checked against three oracles."""

    brute_max_t = 14

    def __init__(self, workload, topecom, tracer):
        self.wl = workload
        self.tracer = tracer
        self.decompose = tracer.wrap("decomposition.decompose", topecom.decompose)
        self.via_reorientation = tracer.wrap(
            "decomposition.oracle_reorientation", topecom.decompose_via_reorientation
        )
        self.via_poset = tracer.wrap("decomposition.oracle_poset",
                                     topecom.decompose_via_poset)
        # Built per check and dropped: a cached 2^t table per cycle would
        # count against peak_rss_mb.
        self.brute = tracer.wrap(
            "decomposition.oracle_brute",
            lambda cycle, target: topecom.BruteForceOracle(cycle).decompose(target),
        )
        # (rung, cycle, target) -> reference answer as a mask over the cycle's
        # vertex positions; bounded because targets come from fixed pools.
        self.reference: dict[tuple, int] = {}
        self.queried: set[tuple[str, int]] = set()
        self.repeats = 0
        self.rung_of: list[str] = []

    def setup(self):
        self.wl.setup(setup_call(self.tracer))

    def round(self, k):
        return self.wl.round(k)

    def run_round(self, queries, phase: Phase) -> None:
        answers = []
        host = phase.host
        host.start_round()
        start = perf_counter_ns()
        for q in queries:
            self.tracer.op = len(self.rung_of)
            self.rung_of.append(q.rung)
            cycle = self.wl.cycles[q.rung][q.cycle]
            host.before_op()
            t0 = perf_counter_ns()
            try:
                answer = self.decompose(cycle, q.target)
            except Exception as exc:  # an op that raises is a failed op
                answer = exc
            t1 = perf_counter_ns()
            host.after_op(t1 - t0)
            phase.latencies_ns.append(t1 - t0)
            answers.append(answer)
        phase.time_round(start)
        self.tracer.op = "check"
        rng = random.Random(f"check:{self.wl.seed}:{len(self.rung_of)}")
        sampled = set(rng.sample(range(len(queries)), 3))
        for i, (q, answer) in enumerate(zip(queries, answers)):
            key = (q.rung, q.cycle)
            self.repeats += key in self.queried
            self.queried.add(key)
            if isinstance(answer, Exception):
                phase.fail(f"{q.rung}: raised {answer!r}")
                continue
            phase.digest.update(
                f"{q.rung} {q.cycle} {q.target} {answer.coordinates}\n".encode()
            )
            try:
                self._check(q, answer, i in sampled)
            except Exception as exc:
                phase.fail(f"{q.rung} cycle {q.cycle} target {q.target}: {exc}")
        self.tracer.op = None
        phase.close_round(len(queries))

    def _check(self, q, answer, sampled: bool) -> None:
        cycle = self.wl.cycles[q.rung][q.cycle]
        checks.check_decomposition(
            [v.entries for v in answer.members],
            q.target.entries,
            [v.entries for v in cycle.vertices],
        )
        ref_key = (q.rung, q.cycle, q.target)
        if ref_key not in self.reference:
            self.reference[ref_key] = _mask(
                cycle, self.via_reorientation(cycle, q.target)
            )
        if _mask(cycle, answer.members) != self.reference[ref_key]:
            raise checks.CheckFailed("differs from decompose_via_reorientation")
        if not sampled:
            return
        if cycle.t <= self.brute_max_t:
            if self.brute(cycle, q.target) != answer.members:
                raise checks.CheckFailed("differs from BruteForceOracle")
        if q.member and self.via_poset(cycle, q.target) != answer.members:
            raise checks.CheckFailed("differs from decompose_via_poset")

    def finish(self, phase: Phase) -> dict:
        total = len(phase.latencies_ns)
        return {"repeat_share": self.repeats / total if total else 0.0}


def _mask(cycle, members) -> int:
    """A vertex subset of a cycle as a bitmask over vertex positions."""
    return sum(1 << cycle.index(v) for v in members)


def run_phase(runner, first_ops, k, budget_ns=None, rounds=None, deadline=None):
    """Whole rounds until the timed total reaches ``budget_ns`` or ``rounds``."""
    phase = Phase()
    ops = first_ops
    while True:
        runner.run_round(ops, phase)
        k += 1
        if rounds is not None and phase.rounds >= rounds:
            break
        if budget_ns is not None and phase.timed_ns >= budget_ns:
            break
        if time.monotonic() > deadline:
            break
        ops = runner.round(k)
    return phase, k


def latency_stats(latencies_ns) -> dict:
    """Closed-loop throughput, median and tail of one list of op latencies."""
    lat = sorted(latencies_ns)
    n = len(lat)
    # The highest percentile with at least ten ops beyond it (the maximum
    # when there are too few ops for that).
    beyond = 10 if n > 10 else 0
    return {
        "ops_per_s": n / (sum(lat) / 1e9),
        "op_p50_ms": statistics.median(lat) / 1e6,
        "op_tail_ms": lat[n - 1 - beyond] / 1e6,
        "op_tail_percentile": 100.0 * (n - beyond) / n,
    }


def summarize(phase: Phase) -> dict:
    probes = phase.host.probes
    wall = latency_stats(phase.latencies_ns)
    return {
        "ops": len(phase.latencies_ns),
        "rounds": phase.rounds,
        "timed_s": phase.timed_ns / 1e9,
        # The end-to-end metrics use latencies scaled to the reference host
        # (probe.py); the wall-clock figures go to the context line.
        **latency_stats(phase.scaled_ns),
        "wall": {k: wall[k] for k in ("ops_per_s", "op_p50_ms", "op_tail_ms")},
        "probes": len(probes),
        "probe_p50_ms": statistics.median(probes) / 1e6,
        "probe_ref_ms": REF_NS / 1e6,
        "failed": phase.failed,
        "errors": phase.errors,
        "output_sha256_first_round": phase.first_round_digest,
        "first_round_ops": phase.first_round_ops,
        "output_sha256_all": phase.digest.hexdigest(),
    }


# Span-table metrics: (name, unit, span, what, phase). ``self`` is self time
# in ms, ``calls`` counts calls, ``count`` sums the count the span recorded.
# Timed-phase values are per timed op; set-up values are totals.
SPAN_METRICS = (
    ("realization.chambers.self_ms", "ms/op", "realization.chambers", "self", "timed"),
    ("realization.chambers.calls", "calls/op", "realization.chambers", "calls", "timed"),
    ("realization.feasible.calls", "calls/op", "realization.feasible", "calls", "timed"),
    ("realization.feasible.self_ms", "ms/op", "realization.feasible", "self", "timed"),
    ("realization.parse.self_ms", "ms/op", "realization.parse", "self", "timed"),
    ("realization.setup_chambers.self_ms", "ms", "realization.chambers", "self",
     "setup"),
    ("realization.setup_chambers.calls", "calls", "realization.chambers", "calls",
     "setup"),
    ("topesets.build.self_ms", "ms/op", "topesets.build", "self", "timed"),
    ("topesets.build.calls", "calls/op", "topesets.build", "calls", "timed"),
    ("topesets.build.topes", "count/op", "topesets.build", "count", "timed"),
    ("topesets.parse.self_ms", "ms/op", "topesets.parse", "self", "timed"),
    ("cycles.enumerate.self_ms", "ms/op", "cycles.enumerate", "self", "timed"),
    ("cycles.enumerate.calls", "calls/op", "cycles.enumerate", "calls", "timed"),
    ("cycles.enumerate.emitted", "count/op", "cycles.enumerate", "count", "timed"),
    ("decomposition.decompose.self_ms", "ms/op", "decomposition.decompose", "self",
     "timed"),
    ("decomposition.decompose.calls", "calls/op", "decomposition.decompose", "calls",
     "timed"),
    ("decomposition.decomposer_build.self_ms", "ms/op",
     "decomposition.decomposer_build", "self", "timed"),
    ("decomposition.decomposer_build.calls", "calls/op",
     "decomposition.decomposer_build", "calls", "timed"),
    ("decomposition.determinant.self_ms", "ms/op", "decomposition.determinant", "self",
     "timed"),
    ("decomposition.doubled_inverse.self_ms", "ms/op", "decomposition.doubled_inverse",
     "self", "timed"),
    ("posets.hasse.self_ms", "ms/op", "posets.hasse", "self", "timed"),
    ("posets.hasse.edges", "count/op", "posets.hasse", "count", "timed"),
    ("posets.max_positive.self_ms", "ms/op", "posets.max_positive", "self", "timed"),
    ("posets.max_positive.calls", "calls/op", "posets.max_positive", "calls", "timed"),
    ("committees.enumerate_critical.self_ms", "ms/op", "committees.enumerate_critical",
     "self", "timed"),
    ("committees.is_critical.self_ms", "ms/op", "committees.is_critical", "self",
     "timed"),
    ("committees.is_critical.calls", "calls/op", "committees.is_critical", "calls",
     "timed"),
    ("committees.found", "count/op", "committees.enumerate_critical", "count", "timed"),
    ("cli.main.self_ms", "ms/op", "cli.main", "self", "timed"),
    ("cli.main.calls", "calls/op", "cli.main", "calls", "timed"),
)
ORACLES = ("reorientation", "poset", "brute")
OTHER_METRICS = (
    ("realization.feasible.hit_ratio", "ratio"),
    ("decomposition.builds_per_query", "ratio"),
    ("committees.unique_ratio", "ratio"),
    ("cli.main.exit_nonzero", "count"),
    ("cli.import_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.overhead_ratio", "ratio"),
) + tuple((f"decomposition.oracle_{o}.self_ms", "ms/call") for o in ORACLES)


def rung_metric_names() -> list[str]:
    """``<span>.self_ms.<rung>`` for every workload's dominant spans."""
    names = []
    for cls in (workloads.ArrCli, workloads.TopesEnum, workloads.DecomposeStream):
        for span, rungs in cls.rung_spans.items():
            names.extend(f"{span}.self_ms.{rung}" for rung in rungs)
    return names


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a trace run prints, for any workload, with its unit."""
    units = {name: unit for name, unit, _, _, _ in SPAN_METRICS}
    units.update(OTHER_METRICS)
    units.update((name, "ms/call") for name in rung_metric_names())
    return units


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(name, spans, rung_of, n_ops: int) -> dict:
    """Per-layer metrics from the spans of a trace run's traced half.

    Metrics of layers the workload does not touch read 0. Raises SystemExit
    when a layer the workload is meant to stress recorded no span.
    """
    tables = {
        "timed": SpanTable(spans, lambda op: isinstance(op, int), rung_of.__getitem__),
        "setup": SpanTable(spans, lambda op: op == "setup"),
    }
    timed, setup = tables["timed"], tables["setup"]
    check = SpanTable(spans, lambda op: op == "check")
    must_timed, must_setup = REQUIRED_LAYERS[name]
    missing = (must_timed - timed.layers()) | (must_setup - setup.layers())
    if missing:
        raise SystemExit(f"{name}: no spans recorded for layers {sorted(missing)}")

    m = {}
    for metric, _, span, what, phase in SPAN_METRICS:
        table = tables[phase]
        value = {"self": table.self_ns, "calls": table.calls,
                 "count": table.counted}[what][span]
        if what == "self":
            value /= 1e6
        m[metric] = value / n_ops if phase == "timed" else float(value)
    m["realization.feasible.hit_ratio"] = _ratio(
        timed.counted["realization.feasible"], timed.calls["realization.feasible"]
    )
    m["decomposition.builds_per_query"] = _ratio(
        timed.calls["decomposition.decomposer_build"],
        timed.calls["decomposition.decompose"],
    )
    m["committees.unique_ratio"] = _ratio(
        timed.counted["committees.enumerate_critical"],
        timed.counted_under["committees.enumerate_critical", "cycles.enumerate"],
    )
    m["cli.main.exit_nonzero"] = float(timed.counted["cli.main"])
    m["trace.spans"] = float(len(spans))
    for oracle in ORACLES:
        span = f"decomposition.oracle_{oracle}"
        m[f"{span}.self_ms"] = _ratio(check.self_ns[span] / 1e6, check.calls[span])
    for metric in rung_metric_names():
        span, rung = metric.split(".self_ms.")
        m[metric] = _ratio(
            timed.rung_self_ns[span, rung] / 1e6, timed.rung_calls[span, rung]
        )
    return m


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", help="write the trace's spans here")
    args = ap.parse_args()
    deadline = time.monotonic() + HARD_STOP_S

    topecom = import_topecom()
    tracer = Tracer()
    if args.trace:
        tracer.install(topecom)
        tracer.on = True
        tracer.op = "setup"
    os.makedirs(args.workdir, exist_ok=True)
    if args.workload == "decompose-stream":
        runner = StreamRunner(
            workloads.DecomposeStream(args.seed, args.workdir, topecom), topecom, tracer
        )
    else:
        cls = workloads.ArrCli if args.workload == "arr-cli" else workloads.TopesEnum
        runner = CliRunner(cls(args.seed, args.workdir, topecom), topecom, tracer)
    runner.setup()
    first = runner.round(0)
    result = {"ready_mono": time.monotonic()}
    result["probe_after_ns"] = statistics.median(probe_ns() for _ in range(5))
    if args.setup_only:
        _write(args.out, result)
        return

    budget_ns = int(args.seconds * 1e9)
    if not args.trace:
        phase, _ = run_phase(runner, first, 0, budget_ns=budget_ns, deadline=deadline)
        result["peak_rss_kb"] = peak_rss_kb()
        result.update(summarize(phase))
        result.update(runner.finish(phase))
        _write(args.out, result)
        return

    tracer.uninstall()
    tracer.on = False
    plain, k = run_phase(runner, first, 0, budget_ns=budget_ns // 2, deadline=deadline)
    tracer.install(topecom)
    tracer.on = True
    traced, _ = run_phase(runner, runner.round(k), k, rounds=plain.rounds,
                          deadline=deadline + HARD_STOP_S / 2)
    tracer.uninstall()
    tracer.on = False
    metrics = layer_metrics(args.workload, tracer.spans, runner.rung_of,
                            len(traced.latencies_ns))
    metrics["trace.overhead_ratio"] = sum(traced.scaled_ns) / sum(plain.scaled_ns)
    if args.spans:
        tracer.dump(args.spans)
    result["per_layer"] = metrics
    for half in (plain, traced):
        result["failed"] = result.get("failed", 0) + half.failed
        result.setdefault("errors", []).extend(half.errors)
    result["ops"] = len(plain.latencies_ns) + len(traced.latencies_ns)
    result["output_sha256_first_round"] = plain.first_round_digest
    result["first_round_ops"] = plain.first_round_ops
    _write(args.out, result)


def _write(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


if __name__ == "__main__":
    main()
