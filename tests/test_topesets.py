"""Tope set validation, graph structure, halfspaces, reorientation, IO."""

import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from topecom import (
    AntiparallelElements,
    Disconnected,
    NotInTopeSet,
    ParallelElements,
    SymmetryViolation,
    TooSmall,
    Tope,
    VerificationFailed,
    adjacency_edges,
    build_tope_set,
    distance,
    format_topes_text,
    halfspace,
    is_acyclic,
    negative_part,
    parse_topes_text,
    read_topes_file,
    reorient_set,
    write_topes_file,
)

from conftest import HEX_STRINGS, hexagon, topes

HEXAGON = topes(*HEX_STRINGS)


def rank2_topes(t, seed):
    """The 2t topes of t lines in the plane, under a seeded relabelling.

    A direction sweeping once round flips the lines in angular order, so
    the topes are the prefixes (-^k, +^(t-k)), k < t, and their negatives.
    """
    rng = random.Random(seed)
    order = rng.sample(range(t), t)
    orient = [rng.choice((1, -1)) for _ in range(t)]
    out = []
    for k in range(t):
        v = [0] * t
        for pos, e in enumerate(order):
            v[e] = (-1 if pos < k else 1) * orient[e]
        out += (Tope(v), -Tope(v))
    return out


def flip_neighbors_by_tuple_flips(ts):
    """The plain index: one tuple flip per element and member."""
    members = ts.members
    out = {}
    for tope in ts.topes:
        nbrs = {}
        for e in range(1, ts.t + 1):
            flipped = tope.flip(e)
            if flipped in members:
                nbrs[e] = flipped
        out[tope] = nbrs
    return out


def column_clash_by_pair_scan(vectors):
    """The plain scan over every two columns: validation's oracle."""
    columns = list(zip(*vectors))
    negated = [tuple(-v for v in col) for col in columns]
    for e in range(len(columns)):
        for f in range(e + 1, len(columns)):
            if columns[e] == columns[f]:
                return ParallelElements(e + 1, f + 1)
            if columns[e] == negated[f]:
                return AntiparallelElements(e + 1, f + 1)
    return None


@st.composite
def symmetric_sets_with_planted_columns(draw):
    """Centrally symmetric sign-vector sets, some columns copied or negated."""
    t = draw(st.integers(min_value=2, max_value=6))
    half = draw(
        st.lists(st.tuples(*[st.sampled_from((1, -1))] * t), min_size=2, max_size=8)
    )
    columns = [list(col) for col in zip(*half)]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        col = draw(st.sampled_from(columns))
        sign = draw(st.sampled_from((1, -1)))
        at = draw(st.integers(min_value=0, max_value=len(columns)))
        columns.insert(at, [sign * v for v in col])
    rows = [Tope(row) for row in zip(*columns)]
    return rows + [-row for row in rows]


class TestBuildValidation:
    def test_empty_and_tiny(self):
        with pytest.raises(TooSmall):
            build_tope_set([])
        with pytest.raises(TooSmall):
            build_tope_set(topes("++", "--"))
        with pytest.raises(TooSmall):
            build_tope_set([Tope((1,)), Tope((-1,))])

    def test_mixed_lengths(self):
        with pytest.raises(ValueError):
            build_tope_set(topes("++", "+++", "--", "---"))

    def test_symmetry_violation(self):
        with pytest.raises(SymmetryViolation) as exc:
            build_tope_set(topes("+++", "---", "++-", "+-+"))
        assert -exc.value.tope not in topes("+++", "---", "++-", "+-+")

    def test_parallel_elements(self):
        # columns 1 and 2 agree on every tope
        with pytest.raises(ParallelElements) as exc:
            build_tope_set(topes("+++", "++-", "---", "--+"))
        assert exc.value.elements == (1, 2)

    def test_antiparallel_elements(self):
        # column 1 is the negation of column 2
        with pytest.raises(AntiparallelElements) as exc:
            build_tope_set(topes("+-+", "+--", "-++", "-+-"))
        assert exc.value.elements == (1, 2)

    def test_disconnected(self):
        # pairwise distances all even, so the graph has no edges at all
        half = topes("++++", "++--", "+-+-")
        with pytest.raises(Disconnected):
            build_tope_set(half + [-T for T in half])

    def test_duplicates_are_collapsed(self):
        ts = build_tope_set(HEXAGON + HEXAGON)
        assert len(ts) == 6

    def test_first_column_pair_is_the_pair_scans(self):
        # Columns 2 = -3 and 1 = 4: the scan meets (1, 4) first.
        with pytest.raises(ParallelElements) as exc:
            build_tope_set(topes("++-+", "+-++", "--+-", "-+--"))
        assert exc.value.elements == (1, 4)

    @given(symmetric_sets_with_planted_columns())
    def test_planted_columns_match_the_pair_scan(self, vectors):
        # Fewer than four distinct topes stop validation before the columns.
        assume(len(set(vectors)) >= 4)
        want = column_clash_by_pair_scan(vectors)
        try:
            build_tope_set(vectors)
        except (ParallelElements, AntiparallelElements) as exc:
            assert type(exc) is type(want)
            assert exc.elements == want.elements
            assert str(exc) == str(want)
        except Disconnected:
            # The graph is walked only once the columns pass.
            assert want is None
        else:
            assert want is None

    def test_hexagon_builds(self):
        ts = build_tope_set(HEXAGON)
        assert ts.t == 3
        assert len(ts) == 6
        assert ts.topes == tuple(sorted(HEXAGON))


class TestGraph:
    def test_hexagon_is_a_single_cycle(self):
        ts = hexagon()
        edges = adjacency_edges(ts)
        assert len(edges) == 6
        degree = {T: 0 for T in ts}
        for a, b in edges:
            assert distance(a, b) == 1
            degree[a] += 1
            degree[b] += 1
        assert set(degree.values()) == {2}

    def test_edges_are_sorted_and_oriented(self):
        ts = hexagon()
        edges = adjacency_edges(ts)
        assert edges == sorted(edges)
        assert all(a < b for a, b in edges)

    def test_partial_cube_diagnostic_on_zoo(self, zoo):
        for inst in zoo:
            if len(inst.tope_set) <= 64:
                build_tope_set(inst.tope_set.topes, check_partial_cube=True)

    def test_partial_cube_diagnostic_can_fail(self):
        # drop both midpoints between ++++ and ++-- (and their negations):
        # symmetric, simple and connected, but that pair is now 4 apart
        from itertools import product

        removed = {"+++-", "---+", "++-+", "--+-"}
        bad = [
            Tope(p)
            for p in product((1, -1), repeat=4)
            if str(Tope(p)) not in removed
        ]
        build_tope_set(bad)
        with pytest.raises(VerificationFailed):
            build_tope_set(bad, check_partial_cube=True)

    def test_require_membership(self):
        ts = hexagon()
        ts.require(Tope.from_string("+++"))
        with pytest.raises(NotInTopeSet):
            ts.require(Tope.from_string("++-"), "test")

    @staticmethod
    def _ordered(index):
        return [(tope, list(nbrs.items())) for tope, nbrs in index.items()]

    def test_flip_index_matches_tuple_flips_on_the_zoo(self, zoo):
        for inst in zoo:
            ts = inst.tope_set
            assert self._ordered(ts.flip_neighbors) == self._ordered(
                flip_neighbors_by_tuple_flips(ts)
            )

    @pytest.mark.parametrize("t", [2, 3, 17, 64])
    def test_flip_index_matches_tuple_flips_in_rank_2(self, t):
        ts = build_tope_set(rank2_topes(t, seed=t))
        assert len(ts) == 2 * t
        assert self._ordered(ts.flip_neighbors) == self._ordered(
            flip_neighbors_by_tuple_flips(ts)
        )
        assert all(len(nbrs) == 2 for nbrs in ts.flip_neighbors.values())

    def test_flip_neighbors_match_edges(self):
        ts = hexagon()
        for T, nbrs in ts.flip_neighbors.items():
            for e, nbr in nbrs.items():
                assert T.flip(e) == nbr
                assert nbr in ts


class TestHalfspace:
    def test_hexagon_positive_halfspace(self):
        ts = hexagon()
        assert halfspace(ts, 1) == frozenset(topes("+++", "+-+", "+--"))
        assert halfspace(ts, 1, sign=-1) == frozenset(topes("---", "-+-", "-++"))

    def test_halfspaces_split_evenly(self, zoo):
        for inst in zoo:
            ts = inst.tope_set
            for e in range(1, ts.t + 1):
                pos = halfspace(ts, e)
                assert len(pos) == len(ts) // 2
                assert halfspace(ts, e, sign=-1) == frozenset(-T for T in pos)

    def test_bad_arguments(self):
        ts = hexagon()
        with pytest.raises(ValueError):
            halfspace(ts, 0)
        with pytest.raises(ValueError):
            halfspace(ts, 4)
        with pytest.raises(ValueError):
            halfspace(ts, 1, sign=0)


class TestReorientSet:
    def test_involution(self):
        ts = hexagon()
        assert reorient_set(reorient_set(ts, {1, 3}), {1, 3}) == ts

    def test_preserves_graph_size(self, zoo):
        for inst in zoo:
            ts = inst.tope_set
            flipped = reorient_set(ts, {1})
            assert len(flipped) == len(ts)
            assert len(adjacency_edges(flipped)) == len(adjacency_edges(ts))

    def test_acyclic_after_reorienting_negative_part(self):
        ts = hexagon()
        for T in ts:
            assert is_acyclic(reorient_set(ts, negative_part(T)))

    def test_hexagon_acyclicity_flips(self):
        ts = hexagon()
        assert is_acyclic(ts)
        assert not is_acyclic(reorient_set(ts, {3}))

    def test_bad_elements(self):
        ts = hexagon()
        with pytest.raises(ValueError):
            reorient_set(ts, {0})
        with pytest.raises(ValueError):
            reorient_set(ts, {4})


class TestTopesIO:
    def test_roundtrip(self, zoo):
        for inst in zoo:
            assert parse_topes_text(format_topes_text(inst.tope_set)) == inst.tope_set

    def test_comments_and_blanks(self):
        text = "# hexagon\nt 3\n\n+++  # all positive\n+-+\n+--\n---\n-+-\n-++\n"
        ts = parse_topes_text(text)
        assert len(ts) == 6

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_topes_text("t 3\n+++\n+++\n---\n+-+\n-+-\n")

    def test_missing_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_topes_text("+++\n---\n")
        with pytest.raises(ValueError, match="header"):
            parse_topes_text("")

    @pytest.mark.parametrize("count", ["0", "1", "-3"])
    def test_small_header_rejected_at_its_line(self, count):
        with pytest.raises(ValueError) as exc:
            parse_topes_text(f"# tiny\nt {count}\n+\n")
        assert str(exc.value) == f"line 2: need t >= 2 elements, header says {count}"

    def test_header_without_topes_names_t(self):
        with pytest.raises(ValueError) as exc:
            parse_topes_text("t 3\n# no topes\n\n")
        assert str(exc.value) == "header says t = 3, but no topes follow"

    def test_wrong_length_reported_with_line(self):
        with pytest.raises(ValueError, match="line 3"):
            parse_topes_text("t 3\n+++\n++++\n")

    def test_file_io(self, tmp_path):
        ts = hexagon()
        path = tmp_path / "hex.topes"
        write_topes_file(path, ts)
        assert read_topes_file(path) == ts

    def test_format_is_sorted_and_stable(self):
        ts = hexagon()
        text = format_topes_text(ts)
        assert text == format_topes_text(build_tope_set(reversed(HEXAGON)))
        body = [ln for ln in text.splitlines() if not ln.startswith("t ")]
        assert body == [str(T) for T in sorted(HEXAGON)]
