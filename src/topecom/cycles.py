"""Symmetric cycles in the tope graph.

A symmetric cycle visits 2t distinct topes, consecutive ones adjacent (index
arithmetic mod 2t), with vertex k+t the negation of vertex k. Walking the
first t edges flips every element exactly once; the resulting element order
is the cycle's l-sequence and drives all the linear algebra downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice
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
            if len(diff) != 1:
                raise NonAdjacentStep(k)
            out.extend(diff)
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


def _paths_through(
    carrier: TopeSet, base: Tope, least: bool = False
) -> Iterator[tuple[Tope, ...]]:
    """Paths base -> -base flipping each element exactly once.

    Yields the first t+1 vertices in lexicographic order of the element
    sequence. The walk keeps its own stack, so depth t costs no recursion;
    flips are pushed in descending order so the smallest pops first. With
    ``least`` it walks only the cycles whose smallest vertex is ``base``:
    it never steps onto a v with v < base or -v < base, and yields nothing
    when -base < base.
    """
    if least and -base < base:
        return
    t = carrier.t
    nbrs = carrier.flip_neighbors
    stack: list[tuple[tuple[Tope, ...], frozenset[int]]] = [((base,), frozenset())]
    while stack:
        path, used = stack.pop()
        if len(used) == t:
            yield path
            continue
        steps = nbrs[path[-1]]
        for e in sorted(steps, reverse=True):
            nxt = steps[e]
            if e in used or (least and (nxt < base or -nxt < base)):
                continue
            stack.append((path + (nxt,), used | {e}))


def _cycles_through(
    carrier: TopeSet, base: Tope, least: bool = False
) -> Iterator[SymmetricCycle]:
    """Distinct cycles through ``base``, each in its lex-least orientation.

    A symmetric cycle has no chords (Hamming distance equals distance along
    the cycle), so each one comes out of ``_paths_through`` exactly twice,
    once per direction; the reverse walk flips l_t .. l_1. Keeping the walk
    whose first flip is the smaller keeps the one found first.
    """
    for half in _paths_through(carrier, base, least):
        (first,) = separation_set(half[0], half[1])
        (last,) = separation_set(half[-2], half[-1])
        if first <= last:  # equal only when t = 1: one walk, one direction
            # half holds vertices 0..t; vertex t is already -vertex 0.
            verts = half[:-1]
            yield SymmetricCycle(verts + tuple(-v for v in verts), carrier)


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
        # Roots in sorted order: by smallest vertex, then by l-sequence.
        source = chain.from_iterable(
            _cycles_through(carrier, root, least=True) for root in carrier.topes
        )
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


def reorient_cycle(cycle: SymmetricCycle, elements) -> SymmetricCycle:
    """The image of a cycle under reorientation on ``elements``.

    Each vertex is negated on ``elements``, and the carrier is rebuilt and
    revalidated with :func:`reorient_set`.
    """
    elems = frozenset(elements)
    verts = tuple(reorient(v, elems) for v in cycle.vertices)
    return SymmetricCycle(verts, reorient_set(cycle.carrier, elems))
