"""Symmetric cycles in the tope graph.

A symmetric cycle visits 2t distinct topes, consecutive ones adjacent (index
arithmetic mod 2t), with vertex k+t the negation of vertex k. Walking the
first t edges flips every element exactly once; the resulting element order
is the cycle's l-sequence and drives all the linear algebra downstream. A
cycle is stored as its root and its l-sequence, which fix every vertex.
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
    """An immutable symmetric cycle, fixed by its root and its l-sequence.

    The constructor lists the vertices by walking ``carrier.flip_neighbors``
    from ``base``, so no invalid cycle exists: it raises :class:`ValueError`
    unless the l-sequence is a permutation of 1..t, and :class:`NotInTopeSet`
    or :class:`NonAdjacentStep` for a root or a flip outside the carrier.
    Equality compares root and l-sequence, the same as comparing listings.
    """

    base: Tope
    l_sequence: tuple[int, ...]
    carrier: TopeSet = field(compare=False)
    vertices: tuple[Tope, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        l_seq = tuple(self.l_sequence)
        t = self.carrier.t
        if sorted(l_seq) != list(range(1, t + 1)):
            raise ValueError(f"l-sequence {l_seq} is not a permutation of 1..{t}")
        self.carrier.require(self.base, "cycle root")
        nbrs = self.carrier.flip_neighbors
        verts = [self.base]
        for k, e in enumerate((l_seq * 2)[:-1]):
            nxt = nbrs[verts[-1]].get(e)
            if nxt is None:
                raise NonAdjacentStep(k)
            verts.append(nxt)
        object.__setattr__(self, "l_sequence", l_seq)
        object.__setattr__(self, "vertices", tuple(verts))

    @property
    def t(self) -> int:
        return len(self.l_sequence)

    @cached_property
    def vertex_set(self) -> frozenset[Tope]:
        return frozenset(self.vertices)

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
        # Vertex k + t is -vertex k, and both start the same flips.
        k = self.index(tope) % self.t
        return SymmetricCycle(tope, (self.l_sequence * 2)[k : k + self.t], self.carrier)

    def reversed(self) -> "SymmetricCycle":
        """The same cycle walked the other way, keeping the root."""
        return SymmetricCycle(self.base, self.l_sequence[::-1], self.carrier)


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
    antipodal symmetry, then adjacency of the first t steps, which reads off
    the l-sequence. The closing edge and the second half follow by symmetry.
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
    l_seq = []
    for k in range(t):
        diff = separation_set(verts[k], verts[k + 1])
        if len(diff) != 1:
            raise NonAdjacentStep(k)
        l_seq.extend(diff)
    return SymmetricCycle(verts[0], tuple(l_seq), carrier)


def _paths_through(
    carrier: TopeSet, base: Tope, low: dict[Tope, Tope] | None = None
) -> Iterator[tuple[int, ...]]:
    """Flip sequences of the paths base -> -base flipping each element once.

    Yields them in lexicographic order. The walk keeps its own stack, so
    depth t costs no recursion; each node's flips are pushed in the reverse
    of the index's ascending order, so the smallest pops first. Each element
    flips at most once, so e is still unflipped exactly when the current
    vertex agrees with ``base`` at e, and t flips reach -base. Given ``low``,
    which maps each member v to min(v, -v), it walks only the cycles whose
    smallest vertex is ``base``: it never steps onto a v with v < base or
    -v < base, and yields nothing when -base < base.
    """
    if low is not None and low[base] < base:
        return
    t = carrier.t
    nbrs = carrier.flip_neighbors
    stack: list[tuple[Tope, tuple[int, ...]]] = [(base, ())]
    while stack:
        here, flips = stack.pop()
        if len(flips) == t:
            yield flips
            continue
        for e, nxt in reversed(nbrs[here].items()):
            if here[e - 1] != base[e - 1] or (low is not None and low[nxt] < base):
                continue
            stack.append((nxt, flips + (e,)))


def _cycles_through(
    carrier: TopeSet, base: Tope, low: dict[Tope, Tope] | None = None
) -> Iterator[SymmetricCycle]:
    """Distinct cycles through ``base``, each in its lex-least orientation.

    A symmetric cycle has no chords (Hamming distance equals distance along
    the cycle), so each one comes out of ``_paths_through`` exactly twice,
    once per direction; the reverse walk flips l_t .. l_1. Keeping the walk
    whose first flip is the smaller keeps the one found first.
    """
    for flips in _paths_through(carrier, base, low):
        if flips[0] <= flips[-1]:  # equal only when t = 1: one walk, one direction
            yield SymmetricCycle(base, flips, carrier)


def _cycles_from(carrier: TopeSet, base: Tope | None) -> Iterator[SymmetricCycle]:
    """The cycles through ``base``, rooted there; with no base, every cycle
    once, rooted at its smallest vertex, roots in sorted order and then by
    l-sequence."""
    if base is not None:
        carrier.require(base, "cycle root")
        return _cycles_through(carrier, base)
    low = {v: min(v, -v) for v in carrier.topes}
    return chain.from_iterable(_cycles_through(carrier, root, low) for root in carrier.topes)


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
    found = list(islice(_cycles_from(carrier, base), budget + 1))
    if len(found) > budget:
        return CycleEnumeration(tuple(found[:budget]), True)
    return CycleEnumeration(tuple(found), False)


def find_symmetric_cycle(carrier: TopeSet, base: Tope | None = None) -> SymmetricCycle:
    """The lexicographically first symmetric cycle through ``base``.

    Without a base, the first cycle :func:`enumerate_cycles` lists: it is
    rooted at the smallest member that lies on any cycle, so it is the first
    cycle through ``carrier.topes[0]`` whenever one exists. The walk stops
    at that cycle.
    """
    for cyc in _cycles_from(carrier, base):
        return cyc
    if base is None:
        raise NoCycleFound("the tope set has no symmetric cycle")
    raise NoCycleFound(f"no symmetric cycle passes through {base}")


def reorient_cycle(cycle: SymmetricCycle, elements) -> SymmetricCycle:
    """The image of a cycle under reorientation on ``elements``.

    The root is negated on ``elements`` and the l-sequence is kept; the
    carrier is rebuilt and revalidated with :func:`reorient_set`.
    """
    elems = frozenset(elements)
    return SymmetricCycle(
        reorient(cycle.base, elems), cycle.l_sequence, reorient_set(cycle.carrier, elems)
    )
