"""Tope committees: verification and construction from symmetric cycles.

A committee is a set of topes whose componentwise sum is at least 1
everywhere, so a strict majority of members lies in every positive
halfspace. A committee is minimal when no nonempty proper subset is a
committee, and critical when on top of that its sum equals the all-ones
vector exactly. For a tope set containing the all-ones tope, every
symmetric cycle hands us a critical committee: the vertices with maximal
positive parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .cycles import CycleEnumeration, SymmetricCycle, enumerate_cycles
from .errors import NotAcyclic, SizeBoundExceeded, VerificationFailed
from .posets import max_positive
from .signs import Tope, distance, positive_tope, tope_sum
from .topesets import TopeSet, is_acyclic

__all__ = [
    "CommitteeCandidate",
    "CommitteeEnumeration",
    "committee_sum",
    "is_committee",
    "is_minimal",
    "is_critical",
    "critical_from_cycle",
    "two_path_witness",
    "enumerate_critical",
]

# Worst-case `is_minimal` time (no subset is a committee, so all 2^k - 2 are
# tried) on rank-2 sets with t = k + 2, best of 3, Python 3.11 on a shared
# 2-vCPU VM: k=12 21 ms, k=14 73-98 ms, k=16 0.43 s; each +2 in k costs 3.5-6x.
MINIMALITY_BOUND = 16


@dataclass(frozen=True)
class CommitteeCandidate:
    """A nonempty set of carrier topes proposed as a committee.

    Equality and hashing look at the members only; the carrier tags where
    the candidate lives and is checked at construction.
    """

    members: frozenset[Tope]
    carrier: TopeSet = field(compare=False, repr=False)

    def __post_init__(self):
        if not self.members:
            raise ValueError("a committee candidate needs at least one member")
        for tope in self.members:
            self.carrier.require(tope, "committee member")

    def __len__(self) -> int:
        return len(self.members)

    def sorted_members(self) -> tuple[Tope, ...]:
        return tuple(sorted(self.members))


def committee_sum(candidate: CommitteeCandidate) -> tuple[int, ...]:
    """Componentwise integer sum of the members."""
    return tope_sum(candidate.sorted_members(), t=candidate.carrier.t)


def is_committee(candidate: CommitteeCandidate) -> bool:
    """True when every coordinate of the member sum is >= 1."""
    return all(c >= 1 for c in committee_sum(candidate))


def is_minimal(candidate: CommitteeCandidate) -> bool:
    """No nonempty proper subset is a committee; checked exhaustively.

    The committee property is not monotone under removal, so all proper
    subsets are tried. A candidate that is itself no committee can still be
    minimal in this vacuous sense. Sizes above ``MINIMALITY_BOUND`` are
    refused.
    """
    members = candidate.sorted_members()
    k = len(members)
    if k > MINIMALITY_BOUND:
        raise SizeBoundExceeded(k, MINIMALITY_BOUND)
    t = candidate.carrier.t
    for size in range(1, k):
        for subset in combinations(members, size):
            if all(c >= 1 for c in tope_sum(subset, t=t)):
                return False
    return True


def is_critical(candidate: CommitteeCandidate) -> bool:
    """Sum equals the all-ones vector exactly, and the candidate is minimal."""
    ones = (1,) * candidate.carrier.t
    return committee_sum(candidate) == ones and is_minimal(candidate)


def _require_acyclic(carrier: TopeSet) -> None:
    if not is_acyclic(carrier):
        raise NotAcyclic("the all-ones tope is not a member")


def critical_from_cycle(carrier: TopeSet, cycle: SymmetricCycle) -> CommitteeCandidate:
    """The critical committee a symmetric cycle induces.

    Takes the cycle vertices with inclusion-maximal positive parts; their
    sum is verified to be exactly the all-ones vector before returning.
    Requires the carrier to contain the all-ones tope.
    """
    _require_acyclic(carrier)
    candidate = CommitteeCandidate(
        members=max_positive(cycle.vertex_set), carrier=carrier
    )
    ones = (1,) * carrier.t
    got = committee_sum(candidate)
    if got != ones:
        raise VerificationFailed(
            f"cycle committee sums to {got}, expected all ones"
        )
    return candidate


def two_path_witness(carrier: TopeSet, cycle: SymmetricCycle, vertex: Tope) -> bool:
    """Both cycle neighbors sit one step farther from the all-ones tope.

    This local test agrees with membership of ``vertex`` in
    max_positive(vertex_set): a closer neighbor flips some negative sign of
    the vertex to positive and so strictly enlarges the positive part.
    """
    _require_acyclic(carrier)
    idx = cycle.index(vertex)
    verts = cycle.vertices
    ones = positive_tope(cycle.t)
    here = distance(ones, vertex)
    before = distance(ones, verts[idx - 1])
    after = distance(ones, verts[(idx + 1) % len(verts)])
    return before == here + 1 and after == here + 1


@dataclass(frozen=True)
class CommitteeEnumeration:
    """Distinct critical committees found, plus the cycle truncation flag."""

    committees: tuple[CommitteeCandidate, ...]
    truncated: bool

    def __len__(self) -> int:
        return len(self.committees)

    def __iter__(self):
        return iter(self.committees)


def enumerate_critical(
    carrier: TopeSet, cycle_budget: int = 200, all_bases: bool = False
) -> CommitteeEnumeration:
    """Critical committees induced by enumerated symmetric cycles.

    By default only cycles through the all-ones tope are walked, which
    collapses every committee to the singleton; ``all_bases`` widens the
    enumeration to every cycle of the carrier. Results are deduplicated,
    each verified critical, and sorted by size then members. No claim is
    made that every critical committee arises this way.
    """
    _require_acyclic(carrier)
    root = None if all_bases else positive_tope(carrier.t)
    enum: CycleEnumeration = enumerate_cycles(carrier, root, cycle_budget)
    found: dict[frozenset[Tope], CommitteeCandidate] = {}
    for cyc in enum.cycles:
        candidate = critical_from_cycle(carrier, cyc)
        if candidate.members in found:
            continue
        if not is_critical(candidate):
            raise VerificationFailed(
                f"cycle committee {sorted(candidate.members)} is not critical"
            )
        found[candidate.members] = candidate
    ordered = sorted(found.values(), key=lambda c: (len(c), c.sorted_members()))
    return CommitteeEnumeration(tuple(ordered), enum.truncated)
