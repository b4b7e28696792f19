"""Hyperplane arrangements: validation, feasibility, chamber enumeration."""

from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, reject
from hypothesis import strategies as st

from topecom import (
    BadDimension,
    ScalarMultiple,
    SizeBoundExceeded,
    Tope,
    TopecomError,
    ZeroNormal,
    build_tope_set,
    chambers,
    feasible,
    format_arrangement_text,
    is_acyclic,
    parse_arrangement_text,
    read_arrangement_file,
    validate_arrangement,
    write_arrangement_file,
)
from topecom import realization
from conftest import random_generic_arrangement

CUBE = ((1, 0), (0, 1))
HEXAGON = ((1, 0), (0, 1), (1, 1))


def exhaustive_chambers(arrangement):
    """The plain loop: every sign vector with +1 first, kept when feasible."""
    found = []
    for tail in product((1, -1), repeat=arrangement.t - 1):
        sigma = Tope((1, *tail))
        if feasible(arrangement, sigma):
            found += (sigma, -sigma)
    return build_tope_set(found)


def zaslavsky_count(d: int, t: int) -> int:
    """Chambers of a generic central arrangement of t planes in rank d."""
    return 2 * sum(comb(t - 1, i) for i in range(d))


@st.composite
def small_arrangements(draw):
    """Small integer arrangements, degenerate ones included."""
    d = draw(st.integers(min_value=2, max_value=4))
    entry = st.integers(min_value=-2, max_value=2)
    normals = draw(st.lists(st.tuples(*[entry] * d), min_size=2, max_size=6))
    try:
        return validate_arrangement(d, normals)
    except TopecomError:
        reject()


class TestValidation:
    def test_accepts_cube_and_hexagon(self):
        assert validate_arrangement(2, CUBE).t == 2
        assert validate_arrangement(2, HEXAGON).t == 3

    def test_bad_dimension(self):
        with pytest.raises(BadDimension):
            validate_arrangement(1, ((1,), (2,)))
        with pytest.raises(BadDimension):
            validate_arrangement(3, CUBE)

    def test_too_few_normals(self):
        with pytest.raises(BadDimension):
            validate_arrangement(2, ((1, 0),))

    def test_zero_normal(self):
        with pytest.raises(ZeroNormal) as exc:
            validate_arrangement(2, ((1, 0), (0, 0)))
        assert exc.value.element == 2

    def test_parallel_normals(self):
        with pytest.raises(ScalarMultiple) as exc:
            validate_arrangement(2, ((1, 2), (2, 4)))
        assert exc.value.elements == (1, 2)
        assert exc.value.kind == "parallel"

    def test_antiparallel_normals(self):
        with pytest.raises(ScalarMultiple) as exc:
            validate_arrangement(2, ((1, 2), (-1, -2)))
        assert exc.value.kind == "antiparallel"

    def test_fractions_are_normalized_for_comparison(self):
        with pytest.raises(ScalarMultiple):
            validate_arrangement(2, ((Fraction(1, 2), Fraction(1, 3)), (3, 2)))


class TestFeasibility:
    def test_hexagon_signs(self):
        arr = validate_arrangement(2, HEXAGON)
        assert feasible(arr, Tope.from_string("+++"))
        assert not feasible(arr, Tope.from_string("++-"))

    def test_antipodal_symmetry(self):
        arr = validate_arrangement(2, HEXAGON)
        for entries in product((1, -1), repeat=3):
            sigma = Tope(entries)
            assert feasible(arr, sigma) == feasible(arr, -sigma)

    def test_matches_chamber_listing(self):
        for normals in (CUBE, HEXAGON):
            arr = validate_arrangement(2, normals)
            listed = chambers(arr)
            for entries in product((1, -1), repeat=arr.t):
                sigma = Tope(entries)
                assert feasible(arr, sigma) == (sigma in listed)

    def test_wrong_length(self):
        arr = validate_arrangement(2, CUBE)
        with pytest.raises(ValueError):
            feasible(arr, Tope.from_string("+++"))


class TestChambers:
    def test_cube_and_hexagon_counts(self):
        assert len(chambers(validate_arrangement(2, CUBE))) == 4
        assert len(chambers(validate_arrangement(2, HEXAGON))) == 6

    def test_hexagon_members(self):
        ts = chambers(validate_arrangement(2, HEXAGON))
        want = {"+++", "+-+", "+--", "---", "-+-", "-++"}
        assert {str(T) for T in ts} == want

    def test_generic_plane_counts(self):
        # a generic rank-3 arrangement of t planes cuts t*(t-1) + 2 chambers
        for t in (4, 5, 6):
            arr = random_generic_arrangement(3, t, seed=400 + t)
            assert len(chambers(arr)) == t * (t - 1) + 2

    def test_demo_chambers_match_fixture(self, demo):
        assert chambers(demo.arrangement) == demo.carrier

    def test_generic_rank4_counts(self):
        for t in (8, 9):
            arr = random_generic_arrangement(4, t, seed=600 + t)
            assert len(chambers(arr)) == zaslavsky_count(4, t)

    def test_matches_exhaustive_loop_on_the_zoo(self, zoo):
        for inst in zoo:
            if inst.arrangement is not None:
                assert chambers(inst.arrangement) == exhaustive_chambers(inst.arrangement)

    @pytest.mark.parametrize("d, t", [(3, 10), (4, 9)])
    def test_matches_exhaustive_loop_on_generic_arrangements(self, d, t):
        arr = random_generic_arrangement(d, t, seed=700 + t)
        assert chambers(arr) == exhaustive_chambers(arr)

    @given(small_arrangements())
    def test_matches_exhaustive_loop_off_general_position(self, arr):
        assert chambers(arr) == exhaustive_chambers(arr)

    def test_feasibility_tests_follow_the_chamber_count(self, monkeypatch):
        # Adding plane k+1 tests each of the C(k, 2) + 1 chambers of the
        # first k planes (those with +1 first) at most twice.
        calls = 0
        inner = realization._strictly_feasible

        def counting(rows):
            nonlocal calls
            calls += 1
            return inner(rows)

        monkeypatch.setattr(realization, "_strictly_feasible", counting)
        t = 11
        chambers(random_generic_arrangement(3, t, seed=811))
        assert calls <= 2 * sum(comb(k, 2) + 1 for k in range(1, t))
        assert calls < 2 ** (t - 1)

    def test_result_is_acyclic_for_first_orthant_arrangements(self):
        # all-positive interior points exist for these normals
        assert is_acyclic(chambers(validate_arrangement(2, HEXAGON)))

    def test_size_bound(self):
        arr = random_generic_arrangement(3, 13, seed=7)
        with pytest.raises(SizeBoundExceeded):
            chambers(arr)

    def test_size_bound_names_t_and_the_enumeration_bound(self):
        arr = random_generic_arrangement(3, 13, seed=7)
        with pytest.raises(SizeBoundExceeded) as exc:
            chambers(arr)
        assert (exc.value.size, exc.value.bound) == (13, 12)
        assert str(exc.value) == "t = 13 elements exceed the chamber-enumeration bound 12"


class TestArrangementIO:
    def test_roundtrip(self, demo):
        text = format_arrangement_text(demo.arrangement)
        assert parse_arrangement_text(text) == demo.arrangement

    def test_fraction_tokens(self):
        arr = parse_arrangement_text("d 2 t 2\n1 3/2\n-1/3 2\n")
        assert arr.normals[0] == (Fraction(1), Fraction(3, 2))
        assert arr.normals[1] == (Fraction(-1, 3), Fraction(2))
        assert "3/2" in format_arrangement_text(arr)

    def test_plain_decimal_tokens(self):
        arr = parse_arrangement_text("d 2 t 2\n0.5 -.25\n+3 1.\n")
        assert arr.normals == (
            (Fraction(1, 2), Fraction(-1, 4)),
            (Fraction(3), Fraction(1)),
        )

    @pytest.mark.parametrize("token", ["1e3", "2.5E-1", "1_000", "inf"])
    def test_only_integers_fractions_and_decimals(self, token):
        with pytest.raises(ValueError, match="line 2: bad rational"):
            parse_arrangement_text(f"d 2 t 2\n{token} 1\n0 1\n")

    def test_comments_and_blanks(self):
        text = "# demo\nd 2 t 2\n\n1 0  # x axis\n0 1\n"
        assert parse_arrangement_text(text).t == 2

    def test_header_errors(self):
        with pytest.raises(ValueError):
            parse_arrangement_text("1 0\n0 1\n")
        with pytest.raises(ValueError):
            parse_arrangement_text("d 2 t 3\n1 0\n0 1\n")

    def test_file_io(self, tmp_path, demo):
        path = tmp_path / "demo.arr"
        write_arrangement_file(path, demo.arrangement)
        assert read_arrangement_file(path) == demo.arrangement
