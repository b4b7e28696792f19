"""Cycle sign matrices, the doubled inverse, and minimal decompositions."""

from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from topecom import (
    BruteForceOracle,
    CycleDecomposer,
    DeterminantMismatch,
    NonTopeInput,
    NotInTopeSet,
    SizeBoundExceeded,
    SymmetricCycle,
    Tope,
    TopecomError,
    VerificationFailed,
    bareiss_determinant,
    build_tope_set,
    cycle_determinant,
    decompose,
    decompose_via_poset,
    decompose_via_reorientation,
    doubled_inverse,
    enumerate_cycles,
    find_symmetric_cycle,
    positive_tope,
    sign_matrix,
    tope_sum,
)
from topecom import decomposition
from topecom.decomposition import BRUTE_FORCE_BOUND

from conftest import hexagon, hexagon_cycle, tope, topes

# The routes that take (cycle, vector) and check the vector first.
ROUTES = [
    pytest.param(decompose, id="decompose"),
    pytest.param(decompose_via_reorientation, id="decompose_via_reorientation"),
    pytest.param(
        lambda cycle, vector: BruteForceOracle(cycle).decompose(vector),
        id="brute_force_decompose",
    ),
]


def all_sign_vectors(t):
    out = [()]
    for _ in range(t):
        out = [v + (s,) for v in out for s in (1, -1)]
    return [Tope(v) for v in out]


def cofactor_determinant(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * cofactor_determinant(minor)
        total += term if j % 2 == 0 else -term
    return total


class TestBareiss:
    @given(
        st.integers(min_value=1, max_value=5).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(min_value=-5, max_value=5), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
    )
    def test_matches_cofactor_expansion(self, rows):
        assert bareiss_determinant(rows) == cofactor_determinant(rows)

    def test_identity(self):
        assert bareiss_determinant([[1, 0], [0, 1]]) == 1
        assert bareiss_determinant([[0, 1], [1, 0]]) == -1

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            bareiss_determinant([[1, 2, 3], [4, 5, 6]])


class TestSignMatrix:
    def test_hexagon_matrix(self):
        cyc = find_symmetric_cycle(hexagon(), tope("+++"))
        assert cyc.l_sequence == (1, 3, 2)
        assert sign_matrix(cyc) == ((1, 1, 1), (-1, 1, 1), (-1, 1, -1))

    def test_rows_are_plain_tuples(self, demo):
        # callers index these rows; exact tuples keep CPython's fast subscript
        for cyc in demo.cycles:
            assert all(type(row) is tuple for row in sign_matrix(cyc))

    def test_determinant_magnitude(self, zoo):
        for inst in zoo:
            for cyc in enumerate_cycles(inst.tope_set, budget=10).cycles:
                assert abs(cycle_determinant(cyc)) == 1 << (cyc.t - 1)

    def test_determinant_mismatch_on_corrupt_data(self):
        # a duck-typed listing with a repeated row is singular, det 0 against 4;
        # a SymmetricCycle with this listing cannot be built
        fake = SimpleNamespace(
            t=3,
            vertices=tuple(topes("+++", "-++", "+++", "++-", "---", "---")),
            base=tope("+++"),
            l_sequence=(1, 2, 3),
        )
        with pytest.raises(DeterminantMismatch) as exc:
            cycle_determinant(fake)
        assert (exc.value.got, exc.value.expected) == (0, 4)
        with pytest.raises(VerificationFailed):
            doubled_inverse(fake)
        with pytest.raises(TopecomError):
            CycleDecomposer(fake)


class TestDoubledInverse:
    def test_hexagon_golden(self):
        cyc = find_symmetric_cycle(hexagon(), tope("+++"))
        assert doubled_inverse(cyc) == (
            (1, -1, 0),
            (1, 0, 1),
            (0, 1, -1),
        )

    def test_product_is_twice_identity(self, zoo):
        for inst in zoo:
            for cyc in enumerate_cycles(inst.tope_set, budget=10).cycles:
                t = cyc.t
                d = doubled_inverse(cyc)
                m = sign_matrix(cyc)
                for i in range(t):
                    for j in range(t):
                        acc = sum(d[i][k] * m[k][j] for k in range(t))
                        assert acc == (2 if i == j else 0)

    def test_determinant_is_two(self, zoo):
        # the step of the doubled_inverse proof that gives |det M| = 2^(t-1)
        for inst in zoo:
            for cyc in enumerate_cycles(inst.tope_set, budget=10).cycles:
                assert abs(bareiss_determinant(doubled_inverse(cyc))) == 2

    @given(
        st.integers(min_value=2, max_value=6).flatmap(
            lambda t: st.tuples(
                st.lists(st.sampled_from((1, -1)), min_size=t, max_size=t),
                st.one_of(
                    st.permutations(range(1, t + 1)),
                    st.lists(
                        st.integers(min_value=0, max_value=t + 1),
                        min_size=t - 1,
                        max_size=t + 1,
                    ),
                ),
            )
        )
    )
    def test_cube_accepts_exactly_the_permutations(self, drawn):
        # every flip stays inside the full cube, so only l itself can fail
        start, flips = drawn
        t = len(start)
        cube = build_tope_set(all_sign_vectors(t))
        if sorted(flips) != list(range(1, t + 1)):
            with pytest.raises(ValueError):
                SymmetricCycle(Tope(start), flips, cube)
            return
        cyc = SymmetricCycle(Tope(start), flips, cube)
        assert abs(cycle_determinant(cyc)) == 2 ** (t - 1)
        doubled_inverse(cyc)
        dec = CycleDecomposer(cyc)
        assert dec.decompose(cyc.base).members == frozenset({cyc.base})

    def test_decomposer_needs_no_determinant(self, zoo, monkeypatch):
        cycles = [
            cyc
            for inst in zoo
            for cyc in enumerate_cycles(inst.tope_set, budget=10).cycles
        ]
        answers = [decompose(cyc, v) for cyc in cycles for v in cyc.carrier.topes[:4]]

        def refuse(*args):
            raise AssertionError("determinant recomputed")

        monkeypatch.setattr(decomposition, "cycle_determinant", refuse)
        monkeypatch.setattr(decomposition, "bareiss_determinant", refuse)
        assert answers == [
            decompose(cyc, v) for cyc in cycles for v in cyc.carrier.topes[:4]
        ]

    def test_rows_have_two_entries(self, demo):
        for cyc in demo.cycles:
            d = doubled_inverse(cyc)
            for row in d:
                assert sorted(map(abs, row), reverse=True)[:2] == [1, 1]
                assert all(v in (-1, 0, 1) for v in row)
            for column in zip(*d):
                assert sorted(map(abs, column)) == [0] * (cyc.t - 2) + [1, 1]


class TestCoordinates:
    def test_values_and_reconstruction(self, zoo):
        for inst in zoo:
            for cyc in enumerate_cycles(inst.tope_set, budget=5).cycles:
                dec = CycleDecomposer(cyc)
                for target in cyc.carrier:
                    x = dec.coordinates(target)
                    assert all(v in (-1, 0, 1) for v in x)
                    assert sum(x) in (-1, 1)
                    rebuilt = [
                        sum(x[j] * cyc.vertices[j].entries[i] for j in range(cyc.t))
                        for i in range(cyc.t)
                    ]
                    assert tuple(rebuilt) == target.entries

    def test_base_is_a_standard_vector(self, demo):
        for cyc in demo.cycles:
            x = CycleDecomposer(cyc).coordinates(cyc.base)
            assert x[0] == 1
            assert all(v == 0 for v in x[1:])

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            CycleDecomposer(hexagon_cycle()).coordinates(tope("++++"))


class TestDecompose:
    def test_members_sum_to_target(self, zoo):
        for inst in zoo:
            for cyc in enumerate_cycles(inst.tope_set, budget=5).cycles:
                for target in list(cyc.carrier)[::3]:
                    dec = decompose(cyc, target)
                    assert dec.size % 2 == 1
                    assert dec.members <= cyc.vertex_set
                    assert tope_sum(dec.members) == target.entries

    def test_demo_target(self, demo):
        dec = decompose(demo.cycles[2], demo.target)
        assert dec.members == demo.target_members
        assert dec.size == 3

    def test_vertex_decomposes_to_itself(self, demo):
        cyc = demo.cycles[0]
        for v in cyc.vertices:
            assert decompose(cyc, v).members == frozenset({v})

    def test_invariant_under_rerooting_and_reversal(self, demo):
        cyc = demo.cycles[0]
        dec = decompose(cyc, demo.target)
        for other in (cyc.rotate_to(cyc.vertices[3]), cyc.reversed()):
            assert decompose(other, demo.target).members == dec.members

    def test_non_member_targets(self):
        cyc = hexagon_cycle()
        oracle = BruteForceOracle(cyc)
        for target in all_sign_vectors(3):
            dec = decompose(cyc, target)
            assert tope_sum(dec.members) == target.entries
            assert dec.members == oracle.decompose(target)
            assert dec.members == decompose_via_reorientation(cyc, target)

    @pytest.mark.parametrize("route", ROUTES)
    def test_wrong_length(self, route):
        with pytest.raises(ValueError, match="vector has 4 signs, cycle has t = 3"):
            route(hexagon_cycle(), tope("++++"))

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("vector", [(0, 1, 1, 1, 1), (1, 1, 1, 1, 2), (3, 1, 1, 1, 1)])
    def test_entries_other_than_plus_minus_one(self, demo, route, vector):
        # floor division in the closed form turns the first two into {-1,0,1}
        # coordinates whose members do not sum to the vector
        with pytest.raises(NonTopeInput) as exc:
            route(demo.cycles[0], vector)
        assert exc.value.vector == vector

    def test_decomposer_reuse_matches_module_functions(self, demo):
        cyc = demo.cycles[1]
        dec = CycleDecomposer(cyc)
        for target in demo.carrier:
            assert dec.coordinates(target) == decompose(cyc, target).coordinates
            assert dec.decompose(target).members == decompose(cyc, target).members


class TestAgreementOfAllRoutes:
    def test_four_way_agreement_on_members(self, demo):
        p_carrier = demo.carrier
        for cyc in demo.cycles:
            oracle = BruteForceOracle(cyc)
            for base in p_carrier:
                closed = decompose(cyc, base).members
                assert closed == decompose_via_poset(cyc, base)
                assert closed == decompose_via_reorientation(cyc, base)
                assert closed == oracle.decompose(base)

    def test_poset_route_requires_membership(self):
        with pytest.raises(NotInTopeSet):
            decompose_via_poset(hexagon_cycle(), tope("++-"))

    def test_oracle_agrees_on_every_sign_vector(self):
        cyc = hexagon_cycle()
        oracle = BruteForceOracle(cyc)
        for target in all_sign_vectors(3):
            assert oracle.decompose(target) == decompose(cyc, target).members


class TestBruteForceBound:
    def test_refused_before_the_table_is_built(self, monkeypatch):
        # rank 2: the cycle through +...+ flips 1, 2, ..., t in turn
        t = BRUTE_FORCE_BOUND + 1
        half = [Tope([-1] * k + [1] * (t - k)) for k in range(t)]
        carrier = build_tope_set(half + [-v for v in half])
        cyc = SymmetricCycle(positive_tope(t), tuple(range(1, t + 1)), carrier)

        def refuse(*args):
            raise AssertionError("brute-force table started")

        monkeypatch.setattr(decomposition, "sign_matrix", refuse)
        with pytest.raises(SizeBoundExceeded) as exc:
            BruteForceOracle(cyc)
        assert (exc.value.size, exc.value.bound) == (t, BRUTE_FORCE_BOUND)
        assert str(exc.value) == f"t = {t} exceeds the brute-force bound {BRUTE_FORCE_BOUND}"

    def test_bench_and_zoo_stay_under_the_bound(self, zoo, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        from worker import StreamRunner

        assert StreamRunner.brute_max_t <= BRUTE_FORCE_BOUND
        assert max(inst.tope_set.t for inst in zoo) <= BRUTE_FORCE_BOUND
