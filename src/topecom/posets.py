"""The tope poset: members ordered by containment of separation sets.

Fixing a base tope B orders the carrier by T' <= T'' iff sep(B, T') is a
subset of sep(B, T''). B is the unique bottom; -B the unique top. Rank is
graph distance from B.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .signs import Tope, negative_part, separation_set
from .topesets import TopeSet

__all__ = ["BasedPoset", "max_positive"]


@dataclass(frozen=True)
class BasedPoset:
    """The carrier tope set ordered relative to ``base``."""

    carrier: TopeSet
    base: Tope

    def __post_init__(self):
        self.carrier.require(self.base, "poset base")

    def _sep_of(self, tope: Tope) -> frozenset[int]:
        return separation_set(self.base, tope)

    def leq(self, t1: Tope, t2: Tope) -> bool:
        return self._sep_of(t1) <= self._sep_of(t2)

    def lt(self, t1: Tope, t2: Tope) -> bool:
        return self._sep_of(t1) < self._sep_of(t2)

    def rank(self, tope: Tope) -> int:
        """Distance from the base; grades the poset."""
        return len(self._sep_of(tope))

    def minimal_elements(self, among: Iterable[Tope]) -> frozenset[Tope]:
        """Members of ``among`` whose separation set from the base is
        inclusion-minimal, for instance among the vertices of a cycle.

        Over the whole carrier this is just {base}.
        """
        return _inclusion_minimal(among, self._sep_of)

    def maximal_elements(self, among: Iterable[Tope]) -> frozenset[Tope]:
        # sep(B, -T) is the complement of sep(B, T), so maxima become minima.
        return _inclusion_minimal(among, lambda tp: self._sep_of(-tp))

    def hasse_edges(self, among: Iterable[Tope] | None = None) -> list[tuple[Tope, Tope]]:
        """Cover pairs (lower, upper) of the induced subposet, sorted.

        A member's upper covers are the minima of its strict up-set in the
        subset: exact on any tope set, realizable or not. Covers are taken
        inside the subset, so this is the Hasse diagram of the induced order,
        not a restriction of the carrier's diagram.
        """
        pool = sorted(self.carrier.topes if among is None else set(among))
        seps = {tp: self._sep_of(tp) for tp in pool}
        edges = []
        for lo in pool:
            above = [hi for hi in pool if seps[lo] < seps[hi]]
            edges.extend((lo, hi) for hi in _inclusion_minimal(above, seps.__getitem__))
        return sorted(edges)


def _inclusion_minimal(pool: Iterable[Tope], key) -> frozenset[Tope]:
    """Members of ``pool`` whose ``key`` set has no proper subset among the keys."""
    keyed = [(tp, key(tp)) for tp in pool]
    return frozenset(tp for tp, k in keyed if not any(other < k for _, other in keyed))


def max_positive(topes: Iterable[Tope]) -> frozenset[Tope]:
    """Members whose positive part is inclusion-maximal in the collection.

    Equals the minimal elements of the poset based at the all-ones tope,
    restricted to the collection, but needs no carrier to evaluate: the
    negative part is the separation set from the all-ones tope.
    """
    return _inclusion_minimal(topes, negative_part)
