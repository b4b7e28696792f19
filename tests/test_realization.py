"""Hyperplane arrangements: validation, feasibility, chamber enumeration."""

from fractions import Fraction
from itertools import product
from math import comb, gcd
from operator import mul

import pytest
from hypothesis import given, reject, settings
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


# -- the full-elimination oracle: Fourier-Motzkin before the two-variable step
# and Chernikov's rule -----------------------------------------------------------

def _reduced(row: tuple[int, ...]) -> tuple[int, ...]:
    g = gcd(*row)
    if g > 1:
        return tuple(v // g for v in row)
    return row


def _eliminate_all(rows: set[tuple[int, ...]], j: int) -> set[tuple[int, ...]] | None:
    """Project away variable j; None signals the contradiction 0 > 0."""
    pos, neg = [], []
    out: set[tuple[int, ...]] = set()
    for r in rows:
        c = r[j]
        if c > 0:
            pos.append(r)
        elif c < 0:
            neg.append(r)
        else:
            out.add(r)
    for p in pos:
        pj = p[j]
        for n in neg:
            nj = -n[j]
            combined = _reduced(tuple(nj * pv + pj * nv for pv, nv in zip(p, n)))
            if not any(combined):
                return None
            out.add(combined)
    return out


def fm_by_full_elimination(rows: list[tuple[int, ...]]) -> bool:
    """Does an exact rational point satisfy every strict inequality r.x > 0?"""
    live = {_reduced(r) for r in rows}
    if any(not any(r) for r in live):
        return False
    d = len(rows[0]) if rows else 0
    remaining = list(range(d))
    while remaining:
        # Cheapest projection first keeps the intermediate systems small.
        def cost(j: int) -> int:
            p = sum(1 for r in live if r[j] > 0)
            n = sum(1 for r in live if r[j] < 0)
            return p * n
        j = min(remaining, key=cost)
        remaining.remove(j)
        nxt = _eliminate_all(live, j)
        if nxt is None:
            return False
        live = nxt
    return True


# -- the Fourier-Motzkin kernel that `chambers` ran before cocircuits: it stops
# at two variables and applies Chernikov's rule --------------------------------

def _eliminate(
    live: dict[tuple[int, ...], int], j: int, s: int
) -> dict[tuple[int, ...], int] | None:
    """Project away variable j as the s-th elimination; None signals 0 > 0.

    Each row maps to the set of input rows it combines, as a bitmask (bit i
    for input i). Chernikov's rule (Chernikov 1965; Kohler 1967) drops a
    combination of more than s + 1 inputs: the rows kept imply it. Of two
    equal rows the one with fewer inputs stays.
    """
    pos, neg = [], []
    out: dict[tuple[int, ...], int] = {}
    for r, inputs in live.items():
        c = r[j]
        if c > 0:
            pos.append((r, inputs))
        elif c < 0:
            neg.append((r, inputs))
        else:
            out[r] = inputs
    for p, p_inputs in pos:
        pj = p[j]
        for n, n_inputs in neg:
            inputs = p_inputs | n_inputs
            size = inputs.bit_count()
            if size > s + 1:
                continue
            nj = -n[j]
            combined = _reduced(tuple(nj * pv + pj * nv for pv, nv in zip(p, n)))
            if not any(combined):
                return None
            kept = out.get(combined)
            if kept is None or size < kept.bit_count():
                out[combined] = inputs
    return out


def _two_variable(rows, j: int, k: int) -> bool:
    """Decide r_j x + r_k y > 0 for nonzero rows in x, y in one pass.

    Eliminating x pairs a row (a, b), a > 0, with a row (a', b'), a' < 0,
    into a y-coefficient of the sign of b/a + b'/(-a'); a row with a = 0
    fixes the sign of y. So some y works exactly when the least slopes of
    the two sides sum above 0, or the greatest below 0, and agrees with
    every fixed sign. Slopes compare by integer cross-multiplication.
    """
    y_sign = 0
    # Per side (a > 0, a < 0): least and greatest slope b/|a| as (b, |a|).
    lo: list[tuple[int, int] | None] = [None, None]
    hi: list[tuple[int, int] | None] = [None, None]
    for r in rows:
        a, b = r[j], r[k]
        if a == 0:
            # b != 0: every other entry of the row is 0 and the row is not.
            sign = 1 if b > 0 else -1
            if y_sign == -sign:
                return False
            y_sign = sign
            continue
        side = 0 if a > 0 else 1
        a = abs(a)
        least = lo[side]
        if least is None:
            lo[side] = hi[side] = (b, a)
        elif b * least[1] < least[0] * a:
            lo[side] = (b, a)
        elif b * hi[side][1] > hi[side][0] * a:
            hi[side] = (b, a)
    if lo[0] is None or lo[1] is None:
        return True
    (pb, pa), (nb, na) = lo
    if pb * na + nb * pa > 0 and y_sign >= 0:
        return True
    (pb, pa), (nb, na) = hi
    return pb * na + nb * pa < 0 and y_sign <= 0


def _strictly_feasible(rows: list[tuple[int, ...]]) -> bool:
    """Does an exact rational point satisfy every strict inequality r.x > 0?

    Takes one or more rows of d >= 2 integers. Fourier-Motzkin eliminates
    all but two variables, then :func:`_two_variable` decides the rest.
    """
    live: dict[tuple[int, ...], int] = {}
    for i, r in enumerate(rows):
        r = _reduced(r)
        if not any(r):
            return False
        live.setdefault(r, 1 << i)
    remaining = list(range(len(rows[0])))
    s = 0
    while len(remaining) > 2:
        # Cheapest projection first keeps the intermediate systems small.
        def cost(j: int) -> int:
            p = sum(1 for r in live if r[j] > 0)
            n = sum(1 for r in live if r[j] < 0)
            return p * n
        j = min(remaining, key=cost)
        remaining.remove(j)
        s += 1
        nxt = _eliminate(live, j, s)
        if nxt is None:
            return False
        live = nxt
    return _two_variable(live, *remaining)


def exhaustive_chambers(arrangement):
    """The plain loop: every sign vector with +1 first, kept when the
    full-elimination oracle finds it feasible."""
    found = []
    for tail in product((1, -1), repeat=arrangement.t - 1):
        sigma = Tope((1, *tail))
        rows = [
            tuple(s * v for v in normal)
            for s, normal in zip(sigma, arrangement.primitive_normals)
        ]
        if fm_by_full_elimination(rows):
            found += (sigma, -sigma)
    return build_tope_set(found)


def scalar_multiple_by_pair_scan(arrangement_normals):
    """The plain scan over every two normals: validation's oracle."""
    prim = [realization._primitive(tuple(map(Fraction, n))) for n in arrangement_normals]
    for e in range(len(prim)):
        for f in range(e + 1, len(prim)):
            if prim[e] == prim[f]:
                return ScalarMultiple(e + 1, f + 1, "parallel")
            if prim[e] == tuple(-v for v in prim[f]):
                return ScalarMultiple(e + 1, f + 1, "antiparallel")
    return None


def zaslavsky_count(d: int, t: int) -> int:
    """Chambers of a generic central arrangement of t planes in rank d."""
    return 2 * sum(comb(t - 1, i) for i in range(d))


def moment_curve(d: int, t: int) -> list[tuple[int, ...]]:
    """Normals (1, k, k^2, ...), k < t: Vandermonde, so every d independent."""
    return [tuple(k**i for i in range(d)) for k in range(t)]


def near_pencil(t: int) -> list[tuple[int, ...]]:
    """Rank 3: t - 1 planes through the z-axis, then the plane z = 0."""
    return [(1, k, 0) for k in range(t - 1)] + [(0, 0, 1)]


def count_kernel_calls(monkeypatch) -> list:
    """Record what each call of the cocircuit kernel returns: one call per
    subset tried, None for a dependent one."""
    found = []
    inner = realization._kernel

    def counting(rows):
        v = inner(rows)
        found.append(v)
        return v

    monkeypatch.setattr(realization, "_kernel", counting)
    return found


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


@st.composite
def rank_deficient_arrangements(draw):
    """Integer arrangements in up to 6 coordinates, the trailing ones all 0:
    rank below d, so the column reduction drops columns."""
    d = draw(st.integers(min_value=3, max_value=6))
    k = draw(st.integers(min_value=2, max_value=d - 1))
    entry = st.integers(min_value=-2, max_value=2)
    normals = draw(st.lists(st.tuples(*[entry] * k), min_size=2, max_size=9))
    try:
        return validate_arrangement(d, [n + (0,) * (d - k) for n in normals])
    except TopecomError:
        reject()


@st.composite
def integer_systems(draw):
    """Strict systems r.x > 0 with the rows that trip a kernel up: zero
    entries and rows, repeated and antiparallel rows (scaled or not), and,
    half the time, rows oriented towards a drawn point so most are feasible.
    """
    d = draw(st.integers(min_value=2, max_value=5))
    # Full elimination on 9 or more rows in 5 variables can take seconds.
    m = draw(st.integers(min_value=1, max_value=12 if d < 5 else 8))
    entry = st.just(0) | st.integers(min_value=-9, max_value=9)
    rows: list[tuple[int, ...]] = []
    for _ in range(m):
        kind = draw(st.sampled_from(("fresh", "zero", "repeat", "negate")))
        if kind == "zero":
            rows.append((0,) * d)
        elif kind == "fresh" or not rows:
            rows.append(draw(st.tuples(*[entry] * d)))
        else:
            base = rows[draw(st.integers(min_value=0, max_value=len(rows) - 1))]
            k = draw(st.integers(min_value=1, max_value=3))
            k = -k if kind == "negate" else k
            rows.append(tuple(k * v for v in base))
    if draw(st.booleans()):
        x = draw(st.tuples(*[st.integers(min_value=-9, max_value=9)] * d))
        rows = [
            r if sum(a * b for a, b in zip(r, x)) >= 0 else tuple(-v for v in r)
            for r in rows
        ]
    return rows


@st.composite
def normals_with_planted_multiples(draw):
    """Nonzero integer normals, some followed later by a rational multiple."""
    d = draw(st.integers(min_value=2, max_value=4))
    entry = st.integers(min_value=-3, max_value=3)
    normal = st.tuples(*[entry] * d).filter(any)
    normals = draw(st.lists(normal, min_size=2, max_size=10))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        base = draw(st.sampled_from(normals))
        k = draw(st.sampled_from((1, 2, 3, Fraction(1, 2), Fraction(2, 3))))
        k = k * draw(st.sampled_from((1, -1)))
        at = draw(st.integers(min_value=0, max_value=len(normals)))
        normals.insert(at, tuple(k * v for v in base))
    return d, normals


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

    def test_first_pair_is_the_pair_scans(self):
        # Two classes, the later-closing one first: the scan meets (1, 4).
        normals = ((1, 0), (0, 1), (0, -2), (3, 0))
        with pytest.raises(ScalarMultiple) as exc:
            validate_arrangement(2, normals)
        assert (exc.value.elements, exc.value.kind) == ((1, 4), "parallel")

    @given(normals_with_planted_multiples())
    def test_planted_multiples_match_the_pair_scan(self, drawn):
        d, normals = drawn
        want = scalar_multiple_by_pair_scan(normals)
        if want is None:
            validate_arrangement(d, normals)
            return
        with pytest.raises(ScalarMultiple) as exc:
            validate_arrangement(d, normals)
        assert (exc.value.elements, exc.value.kind) == (want.elements, want.kind)
        assert str(exc.value) == str(want)


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

    def test_matches_chamber_listing(self, demo):
        cube, hexagon = (validate_arrangement(2, n) for n in (CUBE, HEXAGON))
        for arr in (cube, hexagon, demo.arrangement):
            listed = chambers(arr)
            for entries in product((1, -1), repeat=arr.t):
                sigma = Tope(entries)
                rows = [
                    tuple(s * v for v in normal)
                    for s, normal in zip(sigma, arr.primitive_normals)
                ]
                assert feasible(arr, sigma) == (sigma in listed) == _strictly_feasible(rows)

    def test_wrong_length(self):
        arr = validate_arrangement(2, CUBE)
        with pytest.raises(ValueError):
            feasible(arr, Tope.from_string("+++"))

    @settings(max_examples=500, deadline=None)
    @given(integer_systems())
    def test_kernel_matches_full_elimination(self, rows):
        assert _strictly_feasible(rows) == fm_by_full_elimination(rows)

    def test_elimination_keeps_rows_of_few_inputs(self):
        # Inputs as bitmasks. The second elimination (s = 2) drops a
        # combination of four inputs, and of two equal rows keeps the one
        # drawn from fewer inputs.
        live = {(1, 0, 1): 0b0011, (-1, 0, 1): 0b1100}
        assert _eliminate(live, 0, 2) == {}
        assert _eliminate(live, 0, 3) == {(0, 0, 1): 0b1111}
        live = {(0, 1, 1): 0b001, (1, 1, 0): 0b010, (-1, 0, 1): 0b100}
        assert _eliminate(live, 0, 1) == {(0, 1, 1): 0b001}

    @pytest.mark.parametrize(
        "rows, want",
        [
            # a = 0 rows fix the sign of y; the two signs clash
            ([(0, 1), (0, -2)], False),
            # least slopes 1/1 and -1/1 sum to 0: the pair cancels to 0 > 0
            ([(1, 1), (-1, -1), (1, 3)], False),
            # least slopes 1/2 and -1/3 sum above 0, and y > 0 is allowed
            ([(2, 1), (-3, -1), (0, 5)], True),
            # greatest slopes sum below 0, but a fixed sign needs y > 0
            ([(1, -2), (-1, 1), (0, 1)], False),
            # one side only: x alone satisfies the rows
            ([(1, 5), (2, -7), (3, 0)], True),
        ],
    )
    def test_two_variable_cases(self, rows, want):
        assert _strictly_feasible(rows) is want
        assert fm_by_full_elimination(rows) is want


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

    def test_lines_in_the_plane_cut_2t_chambers(self):
        for t in (2, 5, 12):
            arr = random_generic_arrangement(2, t, seed=500 + t)
            assert len(chambers(arr)) == 2 * t

    @pytest.mark.parametrize("d", [5, 6])
    def test_zaslavsky_counts_past_rank_four(self, d):
        # Fourier-Motzkin with plain elimination took 38 s on a generic
        # d = 5, t = 10 instance and more than 300 s on a d = 6 one.
        arr = random_generic_arrangement(d, 10, seed=900 + d)
        assert len(chambers(arr)) == zaslavsky_count(d, 10)

    def test_zaslavsky_count_past_twelve_planes(self):
        arr = validate_arrangement(3, moment_curve(3, 16))
        assert len(chambers(arr)) == zaslavsky_count(3, 16) == 242

    def test_near_pencil_cuts_4_t_minus_1_chambers(self, monkeypatch):
        # t - 1 planes through one line and one plane across it. The pencil
        # is one flat: its first pair finds it and its other pairs are
        # skipped, so the kernel runs once per flat, 2t - 1 times in all
        # (t at the top, t - 1 inside the pencil), not C(t, 2) times.
        calls = count_kernel_calls(monkeypatch)
        t = 40
        assert len(chambers(validate_arrangement(3, near_pencil(t)))) == 4 * (t - 1)
        assert len(calls) == 2 * t - 1

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

    @settings(max_examples=100, deadline=None)
    @given(rank_deficient_arrangements())
    def test_matches_exhaustive_loop_below_full_rank(self, arr):
        assert chambers(arr) == exhaustive_chambers(arr)

    def test_cocircuits_follow_the_binomials(self, monkeypatch):
        # Generic rank d: no subset lies inside an earlier flat, so each of
        # the C(t, d - 1) subsets runs the kernel once, each finds a new
        # cocircuit pair +-Y, and no flat needs a recursion.
        calls = count_kernel_calls(monkeypatch)
        d, t = 4, 11
        arr = random_generic_arrangement(d, t, seed=811)
        assert len(chambers(arr)) == zaslavsky_count(d, t)
        assert len(calls) <= comb(t, d - 1)
        cocircuits = set()
        for v in filter(None, calls):
            Y = tuple(
                (s > 0) - (s < 0)
                for s in (sum(map(mul, a, v)) for a in arr.primitive_normals)
            )
            cocircuits |= {Y, tuple(-y for y in Y)}
        assert len(cocircuits) == 2 * comb(t, d - 1)

    def test_kernel_is_orthogonal_and_exact(self):
        systems = (
            ((1, 2),),
            ((2, 0, 1), (0, 3, 5)),
            ((0, 2, 1), (4, 0, 6)),
            ((1, 1, 0, 2), (0, 2, 1, 1), (3, 0, 0, 1)),
        )
        for rows in systems:
            v = realization._kernel(rows)
            assert any(v)
            assert all(sum(map(mul, row, v)) == 0 for row in rows)
        assert realization._kernel(((1, 2, 3), (2, 4, 6))) is None

    def test_result_is_acyclic_for_first_orthant_arrangements(self):
        # all-positive interior points exist for these normals
        assert is_acyclic(chambers(validate_arrangement(2, HEXAGON)))

    def test_chamber_limit_is_met_exactly(self):
        # 2 * (1 + 23 + 253 + 1771) = 4096 chambers: the limit, accepted.
        arr = validate_arrangement(4, moment_curve(4, 24))
        assert len(chambers(arr)) == zaslavsky_count(4, 24) == realization.CHAMBER_LIMIT

    def test_size_bound(self):
        # 4650 chambers, one plane past the limit.
        arr = validate_arrangement(4, moment_curve(4, 25))
        with pytest.raises(SizeBoundExceeded):
            chambers(arr)

    def test_size_bound_names_t_and_the_enumeration_bound(self):
        arr = validate_arrangement(4, moment_curve(4, 25))
        with pytest.raises(SizeBoundExceeded) as exc:
            chambers(arr)
        assert exc.value.bound == 4096
        assert str(exc.value) == (
            "t = 25 hyperplanes cut more than 4096 chambers, "
            "the chamber-enumeration limit"
        )

    def test_rank_past_twelve_is_refused_before_enumerating(self, monkeypatch):
        # 13 independent normals cut 2^13 chambers.
        calls = count_kernel_calls(monkeypatch)
        unit = [tuple(int(i == j) for j in range(13)) for i in range(13)]
        with pytest.raises(SizeBoundExceeded, match="t = 13 hyperplanes cut more than 4096"):
            chambers(validate_arrangement(13, unit))
        assert calls == []

    def test_subset_limit(self, monkeypatch):
        # C(513, 2) = 131328 pairs for 2048 chambers: refused before any work.
        calls = count_kernel_calls(monkeypatch)
        with pytest.raises(SizeBoundExceeded) as exc:
            chambers(validate_arrangement(3, near_pencil(513)))
        assert (exc.value.size, exc.value.bound) == (131328, realization.SUBSET_LIMIT)
        assert str(exc.value) == (
            "t = 513 hyperplanes of rank 3 need C(513, 2) = 131328 cocircuit "
            "subsets, past the limit 131072"
        )
        assert calls == []


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
