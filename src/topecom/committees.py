"""Tope committees: verification and construction from symmetric cycles.

A committee is a set of topes whose componentwise sum is at least 1
everywhere, so a strict majority of members lies in every positive
halfspace. A committee is minimal when no nonempty proper subset is a
committee, and critical when on top of that its sum equals the all-ones
vector exactly.

The theorem behind :func:`critical_from_cycle`: with B the all-ones tope in
the carrier, the minimal vertices bmin V(R) of a symmetric cycle R in the
tope poset based at B (the vertices with inclusion-maximal positive parts)
form a critical committee. They can be read off the l-sequence in O(t).
With L = l twice over, vertex k (0 <= k < 2t) is entered by flipping L[k-1]
(for k = 0 the closing step, l_t) and left by flipping L[k], and it lies in
bmin V(R) exactly when it is + at both.

Proof: say vertex k is + at both. Any other vertex is reached from it by an
arc of at most t steps, and those steps flip distinct elements. The first
of them is L[k] or L[k-1], both + at vertex k, and no later step of the arc
flips it back, so the other vertex is - there and its positive part does
not contain vertex k's. Say instead vertex k is - at one of the two. Then
the neighbor across that flip is closer to B: its positive part strictly
enlarges vertex k's. :func:`max_positive` computes the same set by
comparing every pair of vertices and is kept as the test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .cycles import CycleEnumeration, SymmetricCycle, enumerate_cycles
from .errors import NotAcyclic, SizeBoundExceeded, VerificationFailed
# Unused here since the committee is read off the l-sequence, but kept
# importable as committees.max_positive: bench/tracing.py wraps that name.
from .posets import max_positive  # noqa: F401
from .signs import Tope, positive_tope, tope_sum
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
    return tope_sum(candidate.sorted_members())


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
        msg = f"{k} members exceed the exhaustive-check bound {MINIMALITY_BOUND}"
        raise SizeBoundExceeded(k, MINIMALITY_BOUND, msg)
    for size in range(1, k):
        for subset in combinations(members, size):
            if all(c >= 1 for c in tope_sum(subset)):
                return False
    return True


def is_critical(candidate: CommitteeCandidate) -> bool:
    """Sum equals the all-ones vector exactly, and the candidate is minimal."""
    ones = (1,) * candidate.carrier.t
    return committee_sum(candidate) == ones and is_minimal(candidate)


def _require_acyclic(carrier: TopeSet) -> None:
    if not is_acyclic(carrier):
        raise NotAcyclic("the all-ones tope is not a member")


def _bottom_vertices(cycle: SymmetricCycle) -> frozenset[Tope]:
    """bmin V(R) at the all-ones tope: the vertices entered and left by
    flipping a sign that is + there (the module docstring has the proof)."""
    l2 = cycle.l_sequence * 2
    entering = l2[-1:] + l2[:-1]
    return frozenset(
        v
        for v, e_in, e_out in zip(cycle.vertices, entering, l2)
        if v[e_in - 1] == 1 and v[e_out - 1] == 1
    )


def _verified_committee(carrier: TopeSet, members: frozenset[Tope]) -> CommitteeCandidate:
    candidate = CommitteeCandidate(members=members, carrier=carrier)
    got = committee_sum(candidate)
    if got != (1,) * carrier.t:
        raise VerificationFailed(f"cycle committee sums to {got}, expected all ones")
    return candidate


def critical_from_cycle(cycle: SymmetricCycle) -> CommitteeCandidate:
    """The critical committee a symmetric cycle induces.

    Takes the cycle vertices with inclusion-maximal positive parts, read off
    the l-sequence in O(t); their sum is verified to be exactly the all-ones
    vector before returning. Requires the cycle's carrier to contain the
    all-ones tope.
    """
    _require_acyclic(cycle.carrier)
    return _verified_committee(cycle.carrier, _bottom_vertices(cycle))


def two_path_witness(cycle: SymmetricCycle, vertex: Tope) -> bool:
    """Both cycle neighbors sit one step farther from the all-ones tope.

    This local test agrees with membership of ``vertex`` in
    max_positive(vertex_set): a closer neighbor flips some negative sign of
    the vertex to positive and so strictly enlarges the positive part.
    Requires the cycle's carrier to contain the all-ones tope.
    """
    _require_acyclic(cycle.carrier)
    cycle.index(vertex)  # raises NotOnCycle for a stranger
    return vertex in _bottom_vertices(cycle)


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
        members = _bottom_vertices(cyc)
        if members in found:
            continue
        candidate = _verified_committee(carrier, members)
        if not is_critical(candidate):
            raise VerificationFailed(
                f"cycle committee {sorted(candidate.members)} is not critical"
            )
        found[members] = candidate
    ordered = sorted(found.values(), key=lambda c: (len(c), c.sorted_members()))
    return CommitteeEnumeration(tuple(ordered), enum.truncated)
