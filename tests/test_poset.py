"""Base-anchored tope order: comparisons, ranks, extremal elements."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topecom import (
    BasedPoset,
    NotInTopeSet,
    adjacency_edges,
    build_tope_set,
    max_positive,
    positive_tope,
    separation_set,
)

from conftest import hexagon, symmetric_t4_sets, tope


def covers_by_betweenness(poset, pool):
    """Cover pairs by the cubic scan: lo < hi with no member strictly between.

    The independent oracle for ``hasse_edges``, which finds covers as the
    inclusion-minimal members of each strict up-set instead.
    """
    pool = sorted(set(pool))
    seps = {tp: separation_set(poset.base, tp) for tp in pool}
    edges = []
    for lo in pool:
        for hi in pool:
            if seps[lo] < seps[hi] and not any(
                seps[lo] < seps[mid] < seps[hi] for mid in pool
            ):
                edges.append((lo, hi))
    return sorted(edges)


def hexagon_poset():
    return BasedPoset(hexagon(), tope("+++"))


class TestOrder:
    def test_base_must_be_a_member(self):
        ts = hexagon()
        with pytest.raises(NotInTopeSet):
            BasedPoset(ts, tope("++-"))

    def test_hexagon_chains(self):
        p = hexagon_poset()
        for chain in (("+++", "+-+", "+--", "---"), ("+++", "-++", "-+-", "---")):
            for lo, hi in zip(chain, chain[1:]):
                assert p.lt(tope(lo), tope(hi))
                assert not p.leq(tope(hi), tope(lo))

    def test_hexagon_incomparable_pairs(self):
        p = hexagon_poset()
        for a, b in (("+-+", "-++"), ("+--", "-+-"), ("+--", "-++")):
            assert not p.leq(tope(a), tope(b))
            assert not p.leq(tope(b), tope(a))

    def test_axioms_exhaustively(self, zoo):
        for inst in zoo:
            ts = inst.tope_set
            if len(ts) > 64:
                continue
            p = BasedPoset(ts, ts.topes[0])
            for a in ts:
                assert p.leq(a, a)
                for b in ts:
                    if p.leq(a, b) and p.leq(b, a):
                        assert a == b
                    if a == b or not p.leq(a, b):
                        continue
                    # order agrees with separation-set containment
                    assert separation_set(p.base, a) <= separation_set(p.base, b)
                    for c in ts:
                        if p.leq(b, c):
                            assert p.leq(a, c)

    def test_bottom_and_top(self, zoo):
        for inst in zoo:
            ts = inst.tope_set
            base = ts.topes[0]
            p = BasedPoset(ts, base)
            assert all(p.leq(base, T) for T in ts)
            assert all(p.leq(T, -base) for T in ts)


class TestRank:
    def test_rank_endpoints(self, zoo):
        for inst in zoo:
            ts = inst.tope_set
            base = ts.topes[-1]
            p = BasedPoset(ts, base)
            assert p.rank(base) == 0
            assert p.rank(-base) == ts.t

    def test_rank_at_positive_base(self, demo):
        p = BasedPoset(demo.carrier, positive_tope(5))
        assert p.rank(tope("--+++")) == 2
        assert p.rank(tope("+-+++")) == 1

    def test_rank_is_distance_from_base(self):
        p = hexagon_poset()
        assert [p.rank(T) for T in map(tope, ("+++", "+-+", "+--", "---"))] == [0, 1, 2, 3]


class TestExtremalElements:
    def test_minimal_of_whole_carrier_is_base(self):
        p = hexagon_poset()
        assert p.minimal_elements(p.carrier) == frozenset({p.base})
        assert p.maximal_elements(p.carrier) == frozenset({-p.base})

    def test_cycle_minima_at_demo_base(self, demo):
        p = BasedPoset(demo.carrier, demo.base)
        assert p.minimal_elements(demo.cycles[0].vertex_set) == demo.minimal_at_base[0]
        assert p.minimal_elements(demo.cycles[1].vertex_set) == demo.minimal_at_base[1]

    def test_minimal_is_a_nonempty_antichain(self, zoo):
        for inst in zoo:
            ts = inst.tope_set
            p = BasedPoset(ts, ts.topes[0])
            among = frozenset(ts.topes[1 :: 2])
            mins = p.minimal_elements(among)
            assert mins
            assert mins <= among
            for a in mins:
                for b in mins:
                    if a != b:
                        assert not p.leq(a, b)

    def test_min_max_mirror_under_negation(self):
        p = hexagon_poset()
        among = frozenset(map(tope, ("+-+", "+--", "-++", "---")))
        mins = p.minimal_elements(among)
        opposite = BasedPoset(p.carrier, -p.base)
        assert opposite.maximal_elements(among) == mins


class TestMaxPositive:
    def test_singleton_when_positive_tope_present(self, demo):
        assert max_positive(demo.carrier.topes) == frozenset({positive_tope(5)})

    def test_antipodal_pair(self):
        assert max_positive([tope("+-+"), tope("-+-")]) == frozenset(
            {tope("+-+"), tope("-+-")}
        )
        assert max_positive([tope("+++"), tope("---")]) == frozenset({tope("+++")})

    def test_reoriented_cycle_gives_demo_committee(self, demo):
        flipped = [
            T.flip(next(iter(demo.reorient_elements)))
            for T in demo.cycles[0].vertices
        ]
        assert max_positive(flipped) == demo.reoriented_committee

    def test_matches_minimal_at_positive_base(self, zoo):
        for inst in zoo:
            ts = inst.tope_set
            if positive_tope(ts.t) not in ts.members:
                continue
            p = BasedPoset(ts, positive_tope(ts.t))
            among = frozenset(ts.topes[::2])
            assert p.minimal_elements(among) == max_positive(among)

    def test_empty_input(self):
        assert max_positive([]) == frozenset()


class TestHasseEdges:
    def test_antipodal_pair_is_one_edge(self):
        p = hexagon_poset()
        among = frozenset({p.base, -p.base})
        assert p.hasse_edges(among) == [(p.base, -p.base)]

    def test_full_hexagon(self):
        p = hexagon_poset()
        edges = p.hasse_edges()
        assert len(edges) == 6
        assert all(p.lt(a, b) for a, b in edges)
        # covers are rank steps of one in this diamond-shaped order
        assert all(p.rank(b) == p.rank(a) + 1 for a, b in edges)

    def test_chain_covers(self):
        p = hexagon_poset()
        among = frozenset(map(tope, ("+++", "+-+", "+--", "---")))
        edges = p.hasse_edges(among)
        assert set(edges) == {
            (tope("+++"), tope("+-+")),
            (tope("+-+"), tope("+--")),
            (tope("+--"), tope("---")),
        }
        assert edges == sorted(edges)

    def test_induced_subposet_skips_outside_witnesses(self):
        # +-+ lies between the ends in the carrier but not in the subset,
        # so the two ends cover each other inside the induced order
        p = hexagon_poset()
        among = frozenset({tope("+++"), tope("+--")})
        assert p.hasse_edges(among) == [(tope("+++"), tope("+--"))]

    def test_matches_betweenness_on_the_zoo(self, zoo):
        rng = random.Random(7)
        for inst in zoo:
            ts = inst.tope_set
            for base in [ts.topes[0], *rng.sample(ts.topes[1:], 2)]:
                p = BasedPoset(ts, base)
                assert p.hasse_edges() == covers_by_betweenness(p, ts.topes), inst.name
                among = rng.sample(ts.topes, len(ts) // 2)
                assert p.hasse_edges(among) == covers_by_betweenness(p, among), inst.name

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_betweenness_on_drawn_subsets(self, zoo, data):
        ts = data.draw(st.sampled_from(zoo)).tope_set
        p = BasedPoset(ts, data.draw(st.sampled_from(ts.topes)))
        among = data.draw(st.sets(st.sampled_from(ts.topes)))
        assert p.hasse_edges(among) == covers_by_betweenness(p, among)

    def test_matches_betweenness_on_every_symmetric_t4_set(self):
        sets = symmetric_t4_sets()
        assert len(sets) == 109
        for ts in sets:
            for base in ts.topes:
                p = BasedPoset(ts, base)
                assert p.hasse_edges() == covers_by_betweenness(p, ts.topes)

    def test_covers_need_not_be_tope_graph_edges(self):
        # build_tope_set accepts this set (it is its own negation), but it is
        # no oriented matroid's tope set: at base ---- two covers change three
        # signs at once, so the tope graph oriented away from the base would
        # miss them. That is why hasse_edges does not walk the tope graph.
        ts = build_tope_set(
            map(tope, "---- ---+ --+- --++ -+-- +-++ ++-- ++-+ +++- ++++".split())
        )
        p = BasedPoset(ts, tope("----"))
        edges = p.hasse_edges()
        flips = set(adjacency_edges(ts))
        assert len(edges) == 14
        assert len(flips) == 12
        assert [e for e in edges if e not in flips] == [
            (tope("---+"), tope("++-+")),
            (tope("--+-"), tope("+++-")),
        ]
