"""Symmetric cycles in the tope graph.

A symmetric cycle visits 2t distinct topes, consecutive ones adjacent (index
arithmetic mod 2t), with vertex k+t the negation of vertex k. Walking the
first t edges flips every element exactly once; the resulting element order
is the cycle's l-sequence and drives all the linear algebra downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from typing import Iterator

from .errors import (
    DuplicateVertex,
    NoCycleFound,
    NonAdjacentStep,
    NotAntipodal,
    NotOnCycle,
)
from .signs import Tope, reorient, separation_set
from .topesets import TopeSet, reorient_set

__all__ = [
    "SymmetricCycle",
    "CycleEnumeration",
    "build_symmetric_cycle",
    "find_symmetric_cycle",
    "enumerate_cycles",
    "reorient_cycle",
]


@dataclass(frozen=True)
class SymmetricCycle:
    """An immutable symmetric cycle; equality looks at vertices only.

    ``vertices[0]`` is the root the cycle was built at; rotating or reversing
    yields a combinatorially identical cycle with a different listing.
    """

    vertices: tuple[Tope, ...]
    carrier: TopeSet = field(compare=False)

    @property
    def t(self) -> int:
        return len(self.vertices) // 2

    @property
    def base(self) -> Tope:
        return self.vertices[0]

    @cached_property
    def vertex_set(self) -> frozenset[Tope]:
        return frozenset(self.vertices)

    @cached_property
    def l_sequence(self) -> tuple[int, ...]:
        """Element flipped at each of the first t steps; a permutation of 1..t."""
        out = []
        for k in range(self.t):
            diff = separation_set(self.vertices[k], self.vertices[k + 1])
            (e,) = diff
            out.append(e)
        return tuple(out)

    def __len__(self) -> int:
        return len(self.vertices)

    def __contains__(self, tope: object) -> bool:
        return tope in self.vertex_set

    def index(self, tope: Tope) -> int:
        if tope not in self.vertex_set:
            raise NotOnCycle(f"{tope} is not a vertex of this cycle")
        return self.vertices.index(tope)

    def rotate_to(self, tope: Tope) -> "SymmetricCycle":
        """The same cycle listed starting from ``tope``."""
        k = self.index(tope)
        return SymmetricCycle(self.vertices[k:] + self.vertices[:k], self.carrier)

    def reversed(self) -> "SymmetricCycle":
        """The same cycle walked the other way, keeping the root."""
        return SymmetricCycle(self.vertices[:1] + self.vertices[:0:-1], self.carrier)


@dataclass(frozen=True)
class CycleEnumeration:
    """Cycles found plus whether more exist beyond the budget."""

    cycles: tuple[SymmetricCycle, ...]
    truncated: bool

    def __len__(self) -> int:
        return len(self.cycles)

    def __iter__(self):
        return iter(self.cycles)


def build_symmetric_cycle(carrier: TopeSet, vertices) -> SymmetricCycle:
    """Validate a vertex listing and freeze it.

    Checks: even length 2t matching the carrier, membership, distinctness,
    antipodal symmetry, adjacency of consecutive vertices including the
    closing edge.
    """
    verts = tuple(vertices)
    t = carrier.t
    if len(verts) != 2 * t:
        raise ValueError(f"need 2t = {2 * t} vertices, got {len(verts)}")
    seen: set[Tope] = set()
    for k, v in enumerate(verts):
        carrier.require(v, f"cycle vertex {k}")
        if v in seen:
            raise DuplicateVertex(k)
        seen.add(v)
    for k in range(t):
        if verts[k + t] != -verts[k]:
            raise NotAntipodal(k)
    nbrs = carrier.flip_neighbors
    for k in range(2 * t):
        nxt = verts[(k + 1) % (2 * t)]
        if nxt not in nbrs[verts[k]].values():
            raise NonAdjacentStep(k)
    return SymmetricCycle(verts, carrier)


def _paths_through(carrier: TopeSet, base: Tope) -> Iterator[tuple[Tope, ...]]:
    """Paths base -> -base flipping each element exactly once.

    Yields the first t+1 vertices in lexicographic order of the element
    sequence (flips tried in ascending element order at every step).
    """
    t = carrier.t
    nbrs = carrier.flip_neighbors
    path = [base]

    def walk(current: Tope, used: frozenset[int]) -> Iterator[tuple[Tope, ...]]:
        if len(used) == t:
            yield tuple(path)
            return
        for e in sorted(nbrs[current]):
            if e in used:
                continue
            nxt = nbrs[current][e]
            path.append(nxt)
            yield from walk(nxt, used | {e})
            path.pop()

    yield from walk(base, frozenset())


def _halves_to_cycle(carrier: TopeSet, half: tuple[Tope, ...]) -> SymmetricCycle:
    # half holds vertices 0..t; vertex t is already -vertex 0.
    first = half[:-1]
    return SymmetricCycle(first + tuple(-v for v in first), carrier)


def _cycles_through(carrier: TopeSet, base: Tope) -> Iterator[SymmetricCycle]:
    """Distinct cycles through ``base``, each in its lex-least orientation.

    A symmetric cycle has no chords (Hamming distance equals distance along
    the cycle), so each one comes out of ``_paths_through`` exactly twice,
    once per direction; the reverse walk flips l_t .. l_1. Keeping the walk
    whose first flip is the smaller keeps the one found first.
    """
    for half in _paths_through(carrier, base):
        (first,) = separation_set(half[0], half[1])
        (last,) = separation_set(half[-2], half[-1])
        if first <= last:  # equal only when t = 1: one walk, one direction
            yield _halves_to_cycle(carrier, half)


def _all_cycles(carrier: TopeSet) -> Iterator[SymmetricCycle]:
    """Every symmetric cycle once, rooted at its smallest vertex.

    Roots are visited in sorted order, so the overall order is deterministic:
    by minimum vertex, then by l-sequence.
    """
    for base in carrier.topes:
        for cyc in _cycles_through(carrier, base):
            if min(cyc.vertex_set) == base:
                yield cyc


def enumerate_cycles(
    carrier: TopeSet, base: Tope | None = None, budget: int = 200
) -> CycleEnumeration:
    """Collect up to ``budget`` symmetric cycles, deterministically.

    With a base, only cycles through it are listed, rooted there; otherwise
    every cycle of the tope set appears once, rooted at its smallest vertex.
    ``truncated`` is True exactly when at least one further cycle exists.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if base is not None:
        carrier.require(base, "cycle root")
        source = _cycles_through(carrier, base)
    else:
        source = _all_cycles(carrier)
    found = list(islice(source, budget + 1))
    if len(found) > budget:
        return CycleEnumeration(tuple(found[:budget]), True)
    return CycleEnumeration(tuple(found), False)


def find_symmetric_cycle(carrier: TopeSet, base: Tope) -> SymmetricCycle:
    """The lexicographically first symmetric cycle through ``base``."""
    carrier.require(base, "cycle root")
    for cyc in _cycles_through(carrier, base):
        return cyc
    raise NoCycleFound(f"no symmetric cycle passes through {base}")


def reorient_cycle(
    cycle: SymmetricCycle, elements, carrier: TopeSet | None = None
) -> SymmetricCycle:
    """The image of a cycle under reorientation on ``elements``.

    Pass the already-reoriented carrier to skip rebuilding it; the vertices
    are mapped either way and revalidated cheaply via construction.
    """
    elems = frozenset(elements)
    if carrier is None:
        carrier = reorient_set(cycle.carrier, elems)
    verts = tuple(reorient(v, elems) for v in cycle.vertices)
    return SymmetricCycle(verts, carrier)
