"""Validated collections of topes and the graph structure on them.

A :class:`TopeSet` is the full tope collection of a simple rank >= 2 oriented
structure on elements 1..t: centrally symmetric, no two elements with equal or
opposite sign columns, and connected under single-sign-change adjacency. The
constructor of record is :func:`build_tope_set`, which checks all of that.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    AntiparallelElements,
    Disconnected,
    NotInTopeSet,
    ParallelElements,
    SymmetryViolation,
    TooSmall,
    VerificationFailed,
)
from .signs import Tope, distance, positive_tope, reorient

__all__ = [
    "TopeSet",
    "build_tope_set",
    "adjacency_edges",
    "halfspace",
    "is_acyclic",
    "reorient_set",
    "parse_topes_text",
    "format_topes_text",
    "read_topes_file",
    "write_topes_file",
]


@dataclass(frozen=True)
class TopeSet:
    """An immutable tope collection; ``topes`` is kept sorted.

    Build instances with :func:`build_tope_set`; the raw constructor performs
    no validation.
    """

    t: int
    topes: tuple[Tope, ...]

    def __len__(self) -> int:
        return len(self.topes)

    def __iter__(self):
        return iter(self.topes)

    def __contains__(self, tope: object) -> bool:
        return tope in self.members

    @cached_property
    def members(self) -> frozenset[Tope]:
        return frozenset(self.topes)

    @cached_property
    def flip_neighbors(self) -> dict[Tope, dict[int, Tope]]:
        """For each tope, the map element -> neighbor obtained by flipping it.

        Only flips that land inside the set appear, keyed in ascending order
        of e, which the cycle walk relies on. Computed once and reused by
        every graph walk, so lookups stay O(1). Each member is coded once
        as an int with bit t - e set when entry e is +, so flipping e is an
        XOR with that bit and one dict lookup.
        """
        t = self.t
        digit = {1: "1", -1: "0"}.__getitem__
        codes = [int("".join(map(digit, tope)), 2) for tope in self.topes]
        by_code = dict(zip(codes, self.topes))
        bits = [(e, 1 << (t - e)) for e in range(1, t + 1)]
        out: dict[Tope, dict[int, Tope]] = {}
        for tope, code in zip(self.topes, codes):
            nbrs: dict[int, Tope] = {}
            for e, bit in bits:
                nbr = by_code.get(code ^ bit)
                if nbr is not None:
                    nbrs[e] = nbr
            out[tope] = nbrs
        return out

    def require(self, tope: Tope, context: str = "") -> None:
        """Raise :class:`NotInTopeSet` unless ``tope`` is a member."""
        if tope not in self.members:
            raise NotInTopeSet(tope, context)


def build_tope_set(vectors: Iterable[Tope], check_partial_cube: bool = False) -> TopeSet:
    """Validate and freeze a collection of topes.

    Checks, in order: nonempty and uniform length t >= 2 with at least 4
    topes; central symmetry; no parallel or antiparallel element pair;
    connected tope graph. With ``check_partial_cube`` the graph metric is
    additionally compared to sign-disagreement distance on every pair: a
    slow diagnostic, not a structural requirement.
    """
    topes = sorted(set(vectors))
    if not topes:
        raise TooSmall("empty tope collection")
    t = topes[0].t
    for tope in topes:
        if tope.t != t:
            raise ValueError(f"mixed tope lengths: {tope.t} and {t}")
    if t < 2:
        raise TooSmall(f"need t >= 2 elements, got t = {t}")
    if len(topes) < 4:
        raise TooSmall(f"need at least 4 topes, got {len(topes)}")

    members = frozenset(topes)
    for tope in topes:
        if -tope not in members:
            raise SymmetryViolation(tope)

    # Column comparison catches parallel / antiparallel element pairs. The
    # symmetry check above already rules out constant columns.
    columns = list(zip(*topes))
    pair = _pair_up_to_sign(columns)
    if pair is not None:
        e, f = pair
        kind = ParallelElements if columns[e] == columns[f] else AntiparallelElements
        raise kind(e + 1, f + 1)

    ts = TopeSet(t, tuple(topes))

    seen = {topes[0]}
    stack = [topes[0]]
    while stack:
        cur = stack.pop()
        for nbr in ts.flip_neighbors[cur].values():
            if nbr not in seen:
                seen.add(nbr)
                stack.append(nbr)
    if len(seen) != len(topes):
        raise Disconnected(
            f"tope graph splits: reached {len(seen)} of {len(topes)} topes"
        )
    if check_partial_cube:
        _check_partial_cube(ts)
    return ts


def _pair_up_to_sign(vectors) -> tuple[int, int] | None:
    """The first pair e < f with vectors[f] = +-vectors[e], or None.

    First in the order of a scan over e, then f > e: the least e with a
    partner, and its least partner. One dict pass keyed on each vector up
    to sign finds it in linear time.
    """
    first: dict[tuple[int, ...], int] = {}
    pair = None
    for f, v in enumerate(vectors):
        e = first.setdefault(max(v, tuple(-x for x in v)), f)
        if e != f and (pair is None or e < pair[0]):
            pair = (e, f)
    return pair


def _check_partial_cube(ts: TopeSet) -> None:
    """Verify graph distance equals sign-disagreement count on every pair.

    O(|S|^2) BFS sweep; any gap means the raw vectors do not come from a
    genuine tope collection even though the cheap invariants hold.
    """
    from collections import deque

    for src in ts.topes:
        dist = {src: 0}
        queue = deque([src])
        while queue:
            cur = queue.popleft()
            for nbr in ts.flip_neighbors[cur].values():
                if nbr not in dist:
                    dist[nbr] = dist[cur] + 1
                    queue.append(nbr)
        for dst in ts.topes:
            hamming = distance(src, dst)
            if dist.get(dst) != hamming:
                raise VerificationFailed(
                    f"graph distance {dist.get(dst)} != sign distance "
                    f"{hamming} between {src} and {dst}"
                )


def adjacency_edges(topeset: TopeSet) -> list[tuple[Tope, Tope]]:
    """Sorted edge list of the tope graph; each edge once, smaller end first."""
    edges = []
    for tope, nbrs in topeset.flip_neighbors.items():
        for nbr in nbrs.values():
            if tope < nbr:
                edges.append((tope, nbr))
    return sorted(edges)


def halfspace(topeset: TopeSet, e: int, sign: int = 1) -> frozenset[Tope]:
    """Members whose sign at element e equals ``sign`` (+1 or -1)."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    if not 1 <= e <= topeset.t:
        raise ValueError(f"element {e} outside 1..{topeset.t}")
    return frozenset(tp for tp in topeset.topes if tp[e - 1] == sign)


def is_acyclic(topeset: TopeSet) -> bool:
    """True when the all-ones tope is a member."""
    return positive_tope(topeset.t) in topeset.members


def reorient_set(topeset: TopeSet, elements: Iterable[int]) -> TopeSet:
    """Negate every member on the given elements; revalidates the result.

    Reorientation preserves all the structure :func:`build_tope_set` checks,
    so validation is a safety net rather than a filter.
    """
    elems = frozenset(elements)
    return build_tope_set(reorient(tp, elems) for tp in topeset.topes)


# -- plain-text serialization -----------------------------------------------
#
# Format: a header line "t <int>", then one tope string per line. '#' starts
# a comment, blank lines are skipped, duplicates are an error.

def parse_topes_text(text: str) -> TopeSet:
    """Parse the ``.topes`` text format and validate the result."""
    t: int | None = None
    topes: list[Tope] = []
    seen: set[Tope] = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if t is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "t":
                raise ValueError(f"line {lineno}: expected header 't <int>', got {raw!r}")
            try:
                t = int(parts[1])
            except ValueError:
                raise ValueError(f"line {lineno}: bad element count {parts[1]!r}") from None
            if t < 2:
                raise ValueError(f"line {lineno}: need t >= 2 elements, header says {t}")
            continue
        try:
            tope = Tope.from_string(line)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if tope.t != t:
            raise ValueError(f"line {lineno}: tope has {tope.t} signs, header says {t}")
        if tope in seen:
            raise ValueError(f"line {lineno}: duplicate tope {tope}")
        seen.add(tope)
        topes.append(tope)
    if t is None:
        raise ValueError("missing header line 't <int>'")
    if not topes:
        raise ValueError(f"header says t = {t}, but no topes follow")
    return build_tope_set(topes)


def format_topes_text(topeset: TopeSet) -> str:
    """Serialize in sorted order; stable bytes for identical sets."""
    lines = [f"t {topeset.t}"]
    lines.extend(str(tp) for tp in topeset.topes)
    return "\n".join(lines) + "\n"


def read_topes_file(path) -> TopeSet:
    with open(path, encoding="utf-8") as fh:
        return parse_topes_text(fh.read())


def write_topes_file(path, topeset: TopeSet) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_topes_text(topeset))
