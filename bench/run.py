"""Benchmark entry point: one workload, fresh child processes, one JSON line.

    python3 bench/run.py --workload topes-enum --seed 1 --seconds 35 --trace 0

Run from the root of a checkout. Each child is ``sys.executable
bench/worker.py`` with ``PYTHONHASHSEED`` fixed and only the checkout's
``src`` on ``PYTHONPATH``; children run one at a time. With ``--trace 0`` the
last stdout line holds the end-to-end metrics, with ``--trace 1`` the
per-layer ones. Timings are scaled to a reference host by a probe run
between ops (``probe.py``). The line before the result holds the run's
context (commit, Python, CPUs, load, seed, output digests, tail percentile,
the unscaled wall-clock figures). Inputs go to ``.bench_run/`` and are
removed at exit; span files stay there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from probe import REF_NS, probe_ns
from worker import per_layer_units

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".bench_run")
WORKLOADS = ("arr-cli", "topes-enum", "decompose-stream")
SETUPS = 5  # set-up is timed this many times per run; the median is reported
TOTAL_S = 170.0
HELD_OUT_SEED = 7919  # reserved for confirming gain claims; never tune on it


def git_commit() -> str:
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "topecom")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC
    return env


def run_child(args, workdir, index, deadline, setup_only, spans=None) -> dict:
    out = os.path.join(workdir, f"result{index}.json")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", os.path.join(workdir, f"child{index}"), "--out", out,
    ]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    probe_before = statistics.median(probe_ns() for _ in range(5))
    launched = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
        timeout=max(1.0, deadline - launched),
    )
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    # Scaled to the reference host by the probes just before the launch and
    # just after set-up, like the op latencies (probe.py).
    result["setup_wall_s"] = result["ready_mono"] - launched
    result["setup_s"] = result["setup_wall_s"] * 2 * REF_NS / (
        probe_before + result["probe_after_ns"]
    )
    return result


def import_ms() -> float:
    """Median of (import topecom.cli) minus (bare start) over five launches."""
    diffs = []
    for _ in range(5):
        times = []
        for code in ("import topecom.cli", "pass"):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                           check=True, timeout=30)
            times.append(time.perf_counter() - t0)
        diffs.append((times[0] - times[1]) * 1e3)
    return statistics.median(diffs)


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "topecom", "__init__.py")):
        print(f"error: no topecom package under {SRC}", file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + TOTAL_S
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
    }
    workdir = os.path.join(RUNS, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            cli_import = import_ms()
            spans = os.path.join(RUNS, f"spans-{args.workload}-s{args.seed}.jsonl")
            res = run_child(args, workdir, 0, deadline, False, spans)
            units = per_layer_units()
            metrics = {
                name: metric(value, units[name])
                for name, value in res["per_layer"].items()
            }
            metrics["cli.import_ms"] = metric(cli_import, "ms")
            context["spans_file"] = os.path.relpath(spans, ROOT)
        else:
            children = [run_child(args, workdir, i, deadline, True)
                        for i in range(SETUPS - 1)]
            res = run_child(args, workdir, SETUPS - 1, deadline, False)
            children.append(res)
            setups = [child["setup_s"] for child in children]
            metrics = {
                "ops_per_s": metric(res["ops_per_s"], "ops/s"),
                "op_p50_ms": metric(res["op_p50_ms"], "ms"),
                "op_tail_ms": metric(res["op_tail_ms"], "ms"),
                "setup_s": metric(statistics.median(setups), "s"),
                "peak_rss_mb": metric(res["peak_rss_kb"] / 1024, "MB"),
            }
            context.update(
                setup_s_each=setups,
                setup_wall_s_each=[child["setup_wall_s"] for child in children],
                rounds=res["rounds"],
                timed_s=res["timed_s"],
                op_tail_percentile=res["op_tail_percentile"],
                op_tail_ops=res["ops"],
                wall=res["wall"],
                probes=res["probes"],
                probe_p50_ms=res["probe_p50_ms"],
                probe_ref_ms=res["probe_ref_ms"],
                output_sha256_all=res["output_sha256_all"],
            )
            if "repeat_share" in res:
                context["repeat_share"] = res["repeat_share"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = res["failed"]
    context.update(
        fail_ratio=failed / res["ops"],
        errors=res["errors"],
        output_sha256=res["output_sha256_first_round"],
        output_sha256_ops=res["first_round_ops"],
    )
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": res["ops"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
