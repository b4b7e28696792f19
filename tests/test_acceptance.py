"""Acceptance gate: one check per headline guarantee, one line per verdict.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
"""

import json
import time

from topecom import (
    BasedPoset,
    BruteForceOracle,
    CycleDecomposer,
    chambers,
    critical_from_cycle,
    committee_sum,
    cycle_determinant,
    decompose,
    decompose_via_poset,
    decompose_via_reorientation,
    doubled_inverse,
    enumerate_cycles,
    is_acyclic,
    is_minimal,
    max_positive,
    positive_tope,
    reorient_cycle,
    reorient_set,
    sign_matrix,
    tope_sum,
    two_path_witness,
)
from topecom.cli import main

CYCLE_BUDGET = 200


def _verdict(label, body):
    try:
        body()
    except BaseException:
        print(f"\n[acceptance] {label}: FAIL")
        raise
    print(f"\n[acceptance] {label}: PASS")


def test_criterion_1_demo_replay(demo):
    def body():
        started = time.perf_counter()
        poset = BasedPoset(demo.carrier, demo.base)

        for cyc, want in zip(demo.cycles, demo.minimal_at_base):
            mins = poset.minimal_elements(cyc.vertex_set)
            assert mins == want
            assert len(mins) == 3
            assert tope_sum(mins) == demo.base.entries

        flipped = reorient_set(demo.carrier, demo.reorient_elements)
        fcyc = reorient_cycle(demo.cycles[0], demo.reorient_elements)
        fmins = BasedPoset(flipped, positive_tope(5)).minimal_elements(fcyc.vertex_set)
        assert fmins == demo.reoriented_committee
        assert tope_sum(fmins) == (1, 1, 1, 1, 1)

        third = demo.cycles[2]
        closed = decompose(third, demo.target).members
        assert closed == demo.target_members
        assert closed == decompose_via_poset(third, demo.target)
        assert closed == decompose_via_reorientation(third, demo.target)
        assert closed == BruteForceOracle(third).decompose(demo.target)
        assert tope_sum(closed) == demo.target.entries

        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"demo replay took {elapsed:.3f}s"

    _verdict("criterion 1, committed demo replays", body)


def test_criterion_2_four_route_agreement(zoo):
    def body():
        started = time.perf_counter()
        checks = 0
        for inst in zoo:
            ts = inst.tope_set
            for cyc in enumerate_cycles(ts, budget=CYCLE_BUDGET).cycles:
                closed_form = CycleDecomposer(cyc)
                oracle = BruteForceOracle(cyc)
                for target in ts:
                    members = closed_form.decompose(target).members
                    assert members == decompose_via_poset(cyc, target)
                    assert members == decompose_via_reorientation(cyc, target)
                    assert members == oracle.decompose(target)
                    assert len(members) % 2 == 1
                    assert tope_sum(members) == target.entries
                    checks += 1
        elapsed = time.perf_counter() - started
        assert checks > 0
        assert elapsed < 60.0, f"{checks} checks took {elapsed:.1f}s"

    _verdict("criterion 2, four decomposition routes agree on the zoo", body)


def test_criterion_3_linear_algebra_invariants(zoo):
    def body():
        for inst in zoo:
            ts = inst.tope_set
            for cyc in enumerate_cycles(ts, budget=CYCLE_BUDGET).cycles:
                t = cyc.t
                assert abs(cycle_determinant(cyc)) == 1 << (t - 1)
                d = doubled_inverse(cyc)
                m = sign_matrix(cyc)
                for i in range(t):
                    for j in range(t):
                        acc = sum(d[i][k] * m[k][j] for k in range(t))
                        assert acc == (2 if i == j else 0)
                closed_form = CycleDecomposer(cyc)
                for target in ts:
                    assert all(
                        v in (-1, 0, 1) for v in closed_form.coordinates(target)
                    )

    _verdict("criterion 3, sign matrix and inverse invariants hold", body)


def test_criterion_4_committee_guarantees(zoo, demo):
    def body():
        ones_seen = 0
        for inst in zoo:
            ts = inst.tope_set
            if not is_acyclic(ts):
                continue
            ones = (1,) * ts.t
            for cyc in enumerate_cycles(ts, budget=CYCLE_BUDGET).cycles:
                cand = critical_from_cycle(cyc)
                assert committee_sum(cand) == ones
                assert len(cand) % 2 == 1
                assert is_minimal(cand)
                members = max_positive(cyc.vertex_set)
                assert cand.members == members
                for v in cyc.vertices:
                    assert two_path_witness(cyc, v) == (v in members)
                ones_seen += 1
        assert ones_seen > 0

        fcyc = reorient_cycle(demo.cycles[0], demo.reorient_elements)
        assert critical_from_cycle(fcyc).members == demo.reoriented_committee

    _verdict("criterion 4, cycle committees are critical everywhere", body)


def test_criterion_5_generic_plane_counts():
    from conftest import random_generic_arrangement

    def body():
        from topecom import build_tope_set

        for t, seed in ((4, 901), (5, 902), (6, 903)):
            arr = random_generic_arrangement(3, t, seed=seed)
            ts = chambers(arr)
            assert len(ts) == t * (t - 1) + 2
            # the listing must survive a full revalidation from scratch
            assert build_tope_set(ts.topes, check_partial_cube=True) == ts

    _verdict("criterion 5, generic rank-3 chamber counts", body)


def test_criterion_6_cli_determinism(tmp_path):
    from importlib.resources import files

    def body():
        arr = str(files("topecom") / "data" / "demo.arr")
        topes = str(files("topecom") / "data" / "demo.topes")
        commands = [
            ["validate", "--arr", arr, "--format", "json"],
            ["validate", "--topes", topes, "--format", "json"],
            ["chambers", "--arr", arr],
            ["graph", "--topes", topes],
            ["poset", "--topes", topes, "--base", "-++++", "--cycle-base", "-++++"],
            ["cycles", "--arr", arr, "--format", "json"],
            ["decompose", "--arr", arr, "--tope", "+-++-", "--format", "json"],
            ["committee", "--arr", arr, "--all-bases", "--format", "json"],
        ]
        for k, argv in enumerate(commands):
            first = tmp_path / f"first_{k}.out"
            second = tmp_path / f"second_{k}.out"
            assert main(argv + ["--out", str(first)]) == 0
            assert main(argv + ["--out", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes()
            if argv[-1] == "json":
                json.loads(first.read_text())

    _verdict("criterion 6, CLI output is byte-stable", body)
