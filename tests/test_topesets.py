"""Tope set validation, graph structure, halfspaces, reorientation, IO."""

import pytest

from topecom import (
    AntiparallelElements,
    Disconnected,
    NotInTopeSet,
    ParallelElements,
    SymmetryViolation,
    TooSmall,
    Tope,
    TopeSet,
    VerificationFailed,
    adjacency_edges,
    build_tope_set,
    distance,
    format_topes_text,
    halfspace,
    is_acyclic,
    negative_part,
    parse_topes_text,
    positive_tope,
    read_topes_file,
    reorient_set,
    write_topes_file,
)


def topes(*strings):
    return [Tope.from_string(s) for s in strings]


HEXAGON = topes("+++", "+-+", "+--", "---", "-+-", "-++")


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
        with pytest.raises(ValueError):
            build_tope_set(HEXAGON, t=4)

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

    def test_hexagon_builds(self):
        ts = build_tope_set(HEXAGON)
        assert ts.t == 3
        assert len(ts) == 6
        assert ts.topes == tuple(sorted(HEXAGON))


class TestGraph:
    def test_hexagon_is_a_single_cycle(self):
        ts = build_tope_set(HEXAGON)
        edges = adjacency_edges(ts)
        assert len(edges) == 6
        degree = {T: 0 for T in ts}
        for a, b in edges:
            assert distance(a, b) == 1
            degree[a] += 1
            degree[b] += 1
        assert set(degree.values()) == {2}

    def test_edges_are_sorted_and_oriented(self):
        ts = build_tope_set(HEXAGON)
        edges = adjacency_edges(ts)
        assert edges == sorted(edges)
        assert all(a < b for a, b in edges)

    def test_partial_cube_diagnostic_on_zoo(self, zoo):
        for inst in zoo:
            if len(inst.tope_set) <= 64:
                build_tope_set(
                    inst.tope_set.topes, t=inst.tope_set.t, check_partial_cube=True
                )

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
        ts = build_tope_set(HEXAGON)
        ts.require(Tope.from_string("+++"))
        with pytest.raises(NotInTopeSet):
            ts.require(Tope.from_string("++-"), "test")

    def test_flip_neighbors_match_edges(self):
        ts = build_tope_set(HEXAGON)
        for T, nbrs in ts.flip_neighbors.items():
            for e, nbr in nbrs.items():
                assert T.flip(e) == nbr
                assert nbr in ts


class TestHalfspace:
    def test_hexagon_positive_halfspace(self):
        ts = build_tope_set(HEXAGON)
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
        ts = build_tope_set(HEXAGON)
        with pytest.raises(ValueError):
            halfspace(ts, 0)
        with pytest.raises(ValueError):
            halfspace(ts, 4)
        with pytest.raises(ValueError):
            halfspace(ts, 1, sign=0)


class TestReorientSet:
    def test_involution(self):
        ts = build_tope_set(HEXAGON)
        assert reorient_set(reorient_set(ts, {1, 3}), {1, 3}) == ts

    def test_preserves_graph_size(self, zoo):
        for inst in zoo:
            ts = inst.tope_set
            flipped = reorient_set(ts, {1})
            assert len(flipped) == len(ts)
            assert len(adjacency_edges(flipped)) == len(adjacency_edges(ts))

    def test_acyclic_after_reorienting_negative_part(self):
        ts = build_tope_set(HEXAGON)
        for T in ts:
            assert is_acyclic(reorient_set(ts, negative_part(T)))

    def test_hexagon_acyclicity_flips(self):
        ts = build_tope_set(HEXAGON)
        assert is_acyclic(ts)
        assert not is_acyclic(reorient_set(ts, {3}))

    def test_bad_elements(self):
        ts = build_tope_set(HEXAGON)
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
        ts = build_tope_set(HEXAGON)
        path = tmp_path / "hex.topes"
        write_topes_file(path, ts)
        assert read_topes_file(path) == ts

    def test_format_is_sorted_and_stable(self):
        ts = build_tope_set(HEXAGON)
        text = format_topes_text(ts)
        assert text == format_topes_text(build_tope_set(reversed(HEXAGON)))
        body = [ln for ln in text.splitlines() if not ln.startswith("t ")]
        assert body == [str(T) for T in sorted(HEXAGON)]
