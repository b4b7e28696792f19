"""Committee verification and the cycle construction of critical ones."""

import pytest

from topecom import (
    CommitteeCandidate,
    NotAcyclic,
    NotInTopeSet,
    NotOnCycle,
    SizeBoundExceeded,
    committee_sum,
    critical_from_cycle,
    enumerate_critical,
    enumerate_cycles,
    find_symmetric_cycle,
    is_acyclic,
    is_committee,
    is_critical,
    is_minimal,
    max_positive,
    positive_tope,
    reorient_cycle,
    reorient_set,
    two_path_witness,
)

from conftest import hexagon, tope, topes


def candidate(carrier, *strings):
    return CommitteeCandidate(frozenset(topes(*strings)), carrier)


class TestCandidate:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CommitteeCandidate(frozenset(), hexagon())

    def test_rejects_outsiders(self):
        with pytest.raises(NotInTopeSet):
            candidate(hexagon(), "++-")

    def test_equality_ignores_carrier(self, demo):
        a = candidate(demo.carrier, "+++++")
        b = CommitteeCandidate(frozenset([positive_tope(5)]), demo.carrier)
        assert a == b
        assert len(a) == 1


class TestVerification:
    def test_committee_sum(self, demo):
        flipped = reorient_set(demo.carrier, demo.reorient_elements)
        cand = CommitteeCandidate(demo.reoriented_committee, flipped)
        assert committee_sum(cand) == (1, 1, 1, 1, 1)

    def test_singleton_positive_tope(self, demo):
        cand = candidate(demo.carrier, "+++++")
        assert is_committee(cand)
        assert is_minimal(cand)
        assert is_critical(cand)

    def test_antipodal_pair_is_no_committee(self, demo):
        cand = candidate(demo.carrier, "+-++-", "-+--+")
        assert committee_sum(cand) == (0, 0, 0, 0, 0)
        assert not is_committee(cand)
        # vacuously minimal: no nonempty proper subset is a committee
        assert is_minimal(cand)
        assert not is_critical(cand)

    def test_demo_committee_is_critical(self, demo):
        flipped = reorient_set(demo.carrier, demo.reorient_elements)
        cand = CommitteeCandidate(demo.reoriented_committee, flipped)
        assert is_committee(cand)
        assert is_critical(cand)

    def test_superset_of_a_committee_is_not_minimal(self, demo):
        flipped = reorient_set(demo.carrier, demo.reorient_elements)
        members = set(demo.reoriented_committee)
        members.add(next(T for T in flipped if T not in members and -T not in members))
        grown = CommitteeCandidate(frozenset(members), flipped)
        assert not is_minimal(grown)
        assert not is_critical(grown)

    def test_minimal_does_not_imply_critical(self, demo):
        # found by exhaustive search over five-member subsets of the carrier
        cand = candidate(demo.carrier, "--+++", "-+++-", "+-++-", "++--+", "++-++")
        assert committee_sum(cand) == (1, 1, 1, 3, 1)
        assert is_committee(cand)
        assert is_minimal(cand)
        assert not is_critical(cand)

    def test_size_bound(self, demo):
        big = CommitteeCandidate(frozenset(demo.carrier.topes[:17]), demo.carrier)
        with pytest.raises(SizeBoundExceeded):
            is_minimal(big)

    def test_size_bound_names_the_members(self, demo):
        big = CommitteeCandidate(frozenset(demo.carrier.topes[:17]), demo.carrier)
        with pytest.raises(SizeBoundExceeded) as exc:
            is_minimal(big)
        assert (exc.value.size, exc.value.bound) == (17, 16)
        assert str(exc.value) == "17 members exceed the exhaustive-check bound 16"

    def test_odd_size_of_critical_committees(self, demo):
        for cyc in demo.cycles:
            cand = critical_from_cycle(reorient_cycle(cyc, demo.reorient_elements))
            assert len(cand) % 2 == 1


class TestCriticalFromCycle:
    def test_hexagon_collapses_to_singleton(self):
        ts = hexagon()
        cyc = find_symmetric_cycle(ts, tope("+++"))
        cand = critical_from_cycle(cyc)
        assert cand.members == frozenset({tope("+++")})

    def test_demo_reoriented_committee(self, demo):
        cyc = reorient_cycle(demo.cycles[0], demo.reorient_elements)
        cand = critical_from_cycle(cyc)
        assert cand.members == demo.reoriented_committee
        assert cand.carrier is cyc.carrier
        assert is_critical(cand)

    def test_requires_acyclic(self):
        ts = reorient_set(hexagon(), {3})
        assert not is_acyclic(ts)
        cyc = find_symmetric_cycle(ts, ts.topes[0])
        with pytest.raises(NotAcyclic):
            critical_from_cycle(cyc)

    def test_members_match_max_positive(self, zoo):
        for inst in zoo:
            ts = inst.tope_set
            if not is_acyclic(ts):
                continue
            for cyc in enumerate_cycles(ts, budget=5).cycles:
                cand = critical_from_cycle(cyc)
                assert cand.members == max_positive(cyc.vertex_set)


class TestTwoPathWitness:
    def test_on_reoriented_demo_cycle(self, demo):
        cyc = reorient_cycle(demo.cycles[0], demo.reorient_elements)
        members = critical_from_cycle(cyc).members
        for v in cyc.vertices:
            assert two_path_witness(cyc, v) == (v in members)

    def test_positive_tope_always_witnesses(self, demo):
        cyc = find_symmetric_cycle(demo.carrier, positive_tope(5))
        assert two_path_witness(cyc, positive_tope(5))

    def test_matches_max_positive_everywhere(self, zoo):
        for inst in zoo:
            ts = inst.tope_set
            if not is_acyclic(ts):
                continue
            for cyc in enumerate_cycles(ts, budget=5).cycles:
                members = max_positive(cyc.vertex_set)
                for v in cyc.vertices:
                    assert two_path_witness(cyc, v) == (v in members)

    def test_requires_cycle_vertex(self, demo):
        cyc = demo.cycles[0]
        outside = next(T for T in demo.carrier if T not in cyc.vertex_set)
        with pytest.raises(NotOnCycle):
            two_path_witness(cyc, outside)

    def test_requires_acyclic(self):
        ts = reorient_set(hexagon(), {3})
        cyc = find_symmetric_cycle(ts, ts.topes[0])
        with pytest.raises(NotAcyclic):
            two_path_witness(cyc, cyc.base)


class TestEnumerateCritical:
    def test_hexagon_yields_only_the_singleton(self):
        enum = enumerate_critical(hexagon())
        assert len(enum) == 1
        assert enum.committees[0].members == frozenset({tope("+++")})
        assert not enum.truncated

    def test_default_root_collapses_on_demo(self, demo):
        enum = enumerate_critical(demo.carrier)
        assert [c.members for c in enum] == [frozenset({positive_tope(5)})]

    def test_all_bases_finds_wider_committees(self, demo):
        flipped = reorient_set(demo.carrier, demo.reorient_elements)
        enum = enumerate_critical(flipped, all_bases=True)
        assert demo.reoriented_committee in {c.members for c in enum}
        assert all(is_critical(c) for c in enum)

    def test_zero_budget(self, demo):
        enum = enumerate_critical(demo.carrier, cycle_budget=0)
        assert len(enum) == 0
        assert enum.truncated

    def test_sorted_and_deduplicated(self, demo):
        flipped = reorient_set(demo.carrier, demo.reorient_elements)
        enum = enumerate_critical(flipped, all_bases=True)
        keys = [(len(c), c.sorted_members()) for c in enum]
        assert keys == sorted(keys)
        assert len({c.members for c in enum}) == len(enum)

    def test_requires_acyclic(self):
        with pytest.raises(NotAcyclic):
            enumerate_critical(reorient_set(hexagon(), {3}))


class TestReorientationCovariance:
    def test_committee_maps_to_poset_minimum(self, demo):
        # reorienting on {1} turns the committee story back into the
        # minimal-elements story at the original base
        cyc = reorient_cycle(demo.cycles[0], demo.reorient_elements)
        members = critical_from_cycle(cyc).members
        e = next(iter(demo.reorient_elements))
        back = frozenset(T.flip(e) for T in members)
        assert back == demo.minimal_at_base[0]
