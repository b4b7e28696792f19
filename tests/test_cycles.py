"""Symmetric cycles: validation, rotation, enumeration, reorientation."""

import subprocess
import sys

import pytest

from topecom import (
    DuplicateVertex,
    NoCycleFound,
    NonAdjacentStep,
    NotAntipodal,
    NotInTopeSet,
    NotOnCycle,
    SymmetricCycle,
    build_symmetric_cycle,
    build_tope_set,
    enumerate_cycles,
    find_symmetric_cycle,
    positive_tope,
    reorient,
    reorient_cycle,
)
from topecom.cycles import _paths_through

from conftest import HEX_STRINGS, STRANDED_STRINGS, hexagon, hexagon_cycle, tope, topes


class TestBuildValidation:
    def test_wrong_length(self):
        with pytest.raises(ValueError, match="2t"):
            build_symmetric_cycle(hexagon(), topes("+++", "+-+", "+--", "---"))

    def test_membership(self):
        bad = topes("+++", "++-", "+--", "---", "--+", "-++")
        with pytest.raises(NotInTopeSet):
            build_symmetric_cycle(hexagon(), bad)

    def test_duplicate_vertex(self):
        bad = topes("+++", "+-+", "+++", "---", "-+-", "---")
        with pytest.raises(DuplicateVertex) as exc:
            build_symmetric_cycle(hexagon(), bad)
        assert exc.value.position == 2

    def test_not_antipodal(self):
        # distinct, all members, but vertex 4 is not the negation of vertex 1
        bad = topes("+++", "+-+", "+--", "---", "-++", "-+-")
        with pytest.raises(NotAntipodal) as exc:
            build_symmetric_cycle(hexagon(), bad)
        assert exc.value.position == 1

    def test_non_adjacent_step(self):
        bad = topes("+++", "+--", "+-+", "---", "-++", "-+-")
        with pytest.raises(NonAdjacentStep):
            build_symmetric_cycle(hexagon(), bad)

    def test_hexagon_builds(self):
        cyc = hexagon_cycle()
        assert cyc.t == 3
        assert len(cyc) == 6
        assert cyc.base == tope("+++")

    def test_listing_round_trips(self, zoo):
        for inst in zoo:
            for cyc in enumerate_cycles(inst.tope_set, budget=20).cycles:
                assert build_symmetric_cycle(inst.tope_set, cyc.vertices) == cyc


class TestRootAndLSequence:
    """The constructor admits valid cycles only."""

    def test_non_permutation_is_refused(self):
        for l_seq in ((1, 1, 2), (1, 2), (1, 2, 3, 4), (0, 1, 2), (2, 3, 4)):
            with pytest.raises(ValueError, match="not a permutation"):
                SymmetricCycle(tope("+++"), l_seq, hexagon())

    def test_flip_leaving_the_carrier_is_refused(self):
        # +++ -> -++ is an edge of the hexagon, -++ -> --+ is not
        with pytest.raises(NonAdjacentStep) as exc:
            SymmetricCycle(tope("+++"), (1, 2, 3), hexagon())
        assert exc.value.position == 1

    def test_root_outside_the_carrier_is_refused(self):
        with pytest.raises(NotInTopeSet):
            SymmetricCycle(tope("++-"), (2, 3, 1), hexagon())

    def test_vertices_follow_the_flips(self):
        cyc = SymmetricCycle(tope("+++"), (2, 3, 1), hexagon())
        assert cyc.vertices == tuple(topes(*HEX_STRINGS))
        assert cyc == hexagon_cycle()
        assert hash(cyc) == hash(hexagon_cycle())


class TestCycleStructure:
    def test_l_sequence_is_a_permutation(self, zoo):
        for inst in zoo:
            for cyc in enumerate_cycles(inst.tope_set, budget=20).cycles:
                seq = cyc.l_sequence
                assert sorted(seq) == list(range(1, cyc.t + 1))

    def test_l_sequence_hexagon(self):
        # the listing +++ +-+ +-- --- flips element 2, then 3, then 1
        assert hexagon_cycle().l_sequence == (2, 3, 1)

    def test_last_flip_sign_is_shared(self, zoo):
        # every vertex of the first half agrees with the root on the element
        # flipped last; that sign only changes at the antipode
        for inst in zoo:
            for cyc in enumerate_cycles(inst.tope_set, budget=20).cycles:
                last = cyc.l_sequence[-1]
                want = cyc.vertices[0].sign(last)
                for j in range(cyc.t):
                    assert cyc.vertices[j].sign(last) == want

    def test_index_and_contains(self):
        cyc = hexagon_cycle()
        assert cyc.index(tope("+--")) == 2
        assert tope("+--") in cyc
        assert tope("++-") not in cyc
        with pytest.raises(NotOnCycle):
            cyc.index(tope("++-"))

    def test_rotate_to(self, zoo):
        cyc = hexagon_cycle()
        rot = cyc.rotate_to(tope("---"))
        assert rot.vertices[0] == tope("---")
        assert rot.vertex_set == cyc.vertex_set
        assert rot.vertices[3] == tope("+++")
        assert cyc.rotate_to(cyc.base) == cyc
        for inst in zoo:
            for cyc in enumerate_cycles(inst.tope_set, budget=20).cycles:
                verts = cyc.vertices
                assert cyc.rotate_to(cyc.base) == cyc
                for k, v in enumerate(verts):
                    rot = cyc.rotate_to(v)
                    assert rot.vertices == verts[k:] + verts[:k]
                    assert rot.vertex_set == cyc.vertex_set

    def test_reversed(self, zoo):
        cyc = hexagon_cycle()
        rev = cyc.reversed()
        assert rev.base == cyc.base
        assert rev.vertex_set == cyc.vertex_set
        assert rev.vertices[1] == cyc.vertices[-1]
        assert rev.reversed() == cyc
        for inst in zoo:
            for cyc in enumerate_cycles(inst.tope_set, budget=20).cycles:
                rev = cyc.reversed()
                assert rev.vertices == cyc.vertices[:1] + cyc.vertices[:0:-1]
                assert rev.vertex_set == cyc.vertex_set
                assert rev.reversed() == cyc

    def test_antipodal_invariant(self, zoo):
        for inst in zoo:
            for cyc in enumerate_cycles(inst.tope_set, budget=10).cycles:
                t = cyc.t
                for k in range(t):
                    assert cyc.vertices[k + t] == -cyc.vertices[k]


class TestEnumeration:
    def test_hexagon_has_exactly_one_cycle(self):
        enum = enumerate_cycles(hexagon())
        assert len(enum) == 1
        assert not enum.truncated
        assert enum.cycles[0].vertex_set == frozenset(topes(*HEX_STRINGS))

    def test_cube_has_exactly_one_cycle(self):
        cube = build_tope_set(topes("++", "+-", "--", "-+"))
        enum = enumerate_cycles(cube)
        assert len(enum) == 1
        assert not enum.truncated

    def test_budget_zero(self):
        enum = enumerate_cycles(hexagon(), budget=0)
        assert len(enum) == 0
        assert enum.truncated

    def test_budget_cuts_and_flags(self, demo):
        full = enumerate_cycles(demo.carrier)
        assert not full.truncated
        assert len(full) >= 3
        cut = enumerate_cycles(demo.carrier, budget=2)
        assert cut.truncated
        assert cut.cycles == full.cycles[:2]

    def test_negative_budget(self):
        with pytest.raises(ValueError):
            enumerate_cycles(hexagon(), budget=-1)

    def test_rooted_enumeration(self, demo):
        root = demo.base
        enum = enumerate_cycles(demo.carrier, base=root)
        assert len(enum) >= 1
        for cyc in enum.cycles:
            assert cyc.vertices[0] == root
        with pytest.raises(NotInTopeSet):
            enumerate_cycles(demo.carrier, base=positive_tope(4))

    def test_unrooted_cycles_root_at_smallest_vertex(self, demo):
        for cyc in enumerate_cycles(demo.carrier).cycles:
            assert cyc.vertices[0] == min(cyc.vertex_set)

    def test_deterministic(self, demo):
        a = enumerate_cycles(demo.carrier)
        b = enumerate_cycles(demo.carrier)
        assert a == b

    def test_no_duplicate_vertex_sets(self, demo):
        enum = enumerate_cycles(demo.carrier)
        seen = {cyc.vertex_set for cyc in enum.cycles}
        assert len(seen) == len(enum)

    def test_contains_the_committed_cycles(self, demo):
        listed = {cyc.vertex_set for cyc in enumerate_cycles(demo.carrier).cycles}
        for cyc in demo.cycles:
            assert cyc.vertex_set in listed


class TestWalkOnce:
    """Each cycle through a root is built from one of its two walks only."""

    @staticmethod
    def _deduplicated_walks(ts, root):
        # The slow rule: build every walk, keep the first of each vertex set.
        seen, out = set(), []
        for flips in _paths_through(ts, root):
            first = [root]
            for e in flips[:-1]:
                first.append(first[-1].flip(e))
            verts = tuple(first) + tuple(-v for v in first)
            if frozenset(verts) not in seen:
                seen.add(frozenset(verts))
                out.append(verts)
        return out

    def test_matches_deduplicated_walks(self, zoo):
        for inst in zoo:
            ts = inst.tope_set
            for root in ts.topes:
                enum = enumerate_cycles(ts, root, budget=1 << 20)
                assert not enum.truncated
                got = [cyc.vertices for cyc in enum.cycles]
                assert got == self._deduplicated_walks(ts, root), (inst.name, root)
                for cyc in enum.cycles:
                    assert cyc.l_sequence[0] < cyc.l_sequence[-1]

    def test_all_cycles_are_the_least_rooted_ones(self, zoo):
        # The slow rule: walk every root, keep the cycles whose least vertex
        # is the root, in root order.
        for inst in zoo:
            ts = inst.tope_set
            want = tuple(
                cyc
                for root in ts.topes
                for cyc in enumerate_cycles(ts, root, budget=1 << 20).cycles
                if min(cyc.vertex_set) == root
            )
            enum = enumerate_cycles(ts, budget=1 << 20)
            assert not enum.truncated
            assert enum.cycles == want, inst.name


class TestLongWalk:
    # A rank-2 set is a single symmetric cycle, so the walk goes t deep.
    SCRIPT = """
import sys
from topecom import Tope, build_tope_set, enumerate_cycles, find_symmetric_cycle

t = 150
half = [Tope(tuple([-1] * k + [1] * (t - k))) for k in range(t)]
ts = build_tope_set(half + [-v for v in half])
sys.setrecursionlimit(100)
enum = enumerate_cycles(ts)
print(len(enum), enum.truncated, find_symmetric_cycle(ts, ts.topes[0]).t)
"""

    def test_walk_depth_is_not_bounded_by_recursion(self, python_env):
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            capture_output=True,
            text=True,
            env=python_env,
        )
        assert proc.stderr == ""
        assert proc.stdout == "1 False 150\n"


class TestFindCycle:
    def test_returns_first_rooted_cycle(self, demo):
        cyc = find_symmetric_cycle(demo.carrier, demo.base)
        enum = enumerate_cycles(demo.carrier, base=demo.base, budget=1)
        assert cyc == enum.cycles[0]

    def test_without_base_returns_the_first_listed_cycle(self, zoo):
        for inst in zoo:
            ts = inst.tope_set
            cyc = find_symmetric_cycle(ts)
            assert cyc == enumerate_cycles(ts, budget=1).cycles[0]
            assert cyc == find_symmetric_cycle(ts, ts.topes[0])

    def test_every_tope_lies_on_a_cycle(self, zoo):
        for inst in zoo:
            for T in inst.tope_set:
                assert find_symmetric_cycle(inst.tope_set, T).vertices[0] == T

    def test_no_cycle_found(self):
        # a validated tope set with a member on no symmetric cycle
        stranded = build_tope_set(topes(*STRANDED_STRINGS))
        with pytest.raises(NoCycleFound) as exc:
            find_symmetric_cycle(stranded, tope("--+--"))
        assert str(exc.value) == "no symmetric cycle passes through --+--"


class TestReorientCycle:
    def test_reorient_hexagon(self):
        cyc = hexagon_cycle()
        flipped = reorient_cycle(cyc, {1})
        assert flipped.vertices[0] == tope("-++")
        assert flipped.vertex_set == frozenset(
            topes("-++", "--+", "---", "+--", "++-", "+++")
        )

    def test_involution(self, zoo):
        cyc = hexagon_cycle()
        back = reorient_cycle(reorient_cycle(cyc, {1, 3}), {1, 3})
        assert back.vertices == cyc.vertices
        # every vertex is negated on the elements, and twice is the identity
        for inst in zoo:
            for cyc in enumerate_cycles(inst.tope_set, budget=5).cycles:
                for elems in ({1}, set(range(1, cyc.t + 1, 2))):
                    flipped = reorient_cycle(cyc, elems)
                    assert flipped.vertices == tuple(reorient(v, elems) for v in cyc.vertices)
                    assert reorient_cycle(flipped, elems) == cyc

    def test_l_sequence_is_stable_under_reorientation(self, zoo):
        # reorientation never changes which element each step flips
        for inst in zoo:
            for cyc in enumerate_cycles(inst.tope_set, budget=5).cycles:
                assert reorient_cycle(cyc, {1}).l_sequence == cyc.l_sequence
