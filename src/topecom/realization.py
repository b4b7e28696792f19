"""Central hyperplane arrangements as a source of valid tope sets.

An arrangement is given by t rational normal vectors in d-space. The sign
vector of a point records on which side of each hyperplane it lies; the
chambers (open regions) of the arrangement realize the topes of a simple
oriented structure once no normal is zero and no two are proportional.

Feasibility of a sign vector is decided exactly: the strict homogeneous
system sigma_e <a_e, x> > 0 goes through Fourier-Motzkin elimination over
integers (strict + strict stays strict), and infeasibility shows up as the
derivation of the contradiction 0 > 0.

Chambers are enumerated by inserting the planes one at a time: each chamber
of the first k planes is split by plane k+1 into its nonempty sides, found
with at most two such tests per chamber. The work therefore grows with the
number of chambers, not with the 2^(t-1) candidate sign vectors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .errors import BadDimension, ScalarMultiple, SizeBoundExceeded, ZeroNormal
from .signs import Tope
from .topesets import TopeSet, build_tope_set

__all__ = [
    "Arrangement",
    "validate_arrangement",
    "feasible",
    "chambers",
    "parse_arrangement_text",
    "format_arrangement_text",
    "read_arrangement_file",
    "write_arrangement_file",
]

# Measured `chambers` time, best of 3, on generic arrangements with integer
# normals in [-9, 9] (seeds 1-3), Python 3.11 on a shared 2-vCPU Xeon VM:
# d3 t=12 0.06-0.08 s, t=13 0.07-0.11 s; d4 t=12 0.8-1.5 s, t=13 1.8-3.7 s.
# The cost follows the chamber count, so t=12 keeps rank 4 near a second.
ENUMERATION_BOUND = 12

RationalVector = tuple[Fraction, ...]


def _primitive(normal: RationalVector) -> tuple[int, ...]:
    """Scale a rational vector to coprime integers, keeping orientation."""
    scale = lcm(*(f.denominator for f in normal))
    ints = [int(f * scale) for f in normal]
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(ints)


@dataclass(frozen=True)
class Arrangement:
    """t rational normals in d-space; build via :func:`validate_arrangement`."""

    d: int
    normals: tuple[RationalVector, ...]

    @property
    def t(self) -> int:
        return len(self.normals)

    @cached_property
    def primitive_normals(self) -> tuple[tuple[int, ...], ...]:
        return tuple(_primitive(n) for n in self.normals)


def validate_arrangement(d: int, normals) -> Arrangement:
    """Check dimensions, zero normals, and proportional pairs."""
    if d < 2:
        raise BadDimension(f"need dimension d >= 2, got {d}")
    rows: list[RationalVector] = []
    for row in normals:
        vec = tuple(Fraction(v) for v in row)
        if len(vec) != d:
            raise BadDimension(f"normal {vec} has {len(vec)} coordinates, d = {d}")
        rows.append(vec)
    if len(rows) < 2:
        raise BadDimension(f"need t >= 2 normals, got {len(rows)}")
    prim = [_primitive(r) for r in rows]
    for e, p in enumerate(prim, 1):
        if not any(p):
            raise ZeroNormal(e)
    for e in range(len(prim)):
        for f in range(e + 1, len(prim)):
            if prim[e] == prim[f]:
                raise ScalarMultiple(e + 1, f + 1, "parallel")
            if prim[e] == tuple(-v for v in prim[f]):
                raise ScalarMultiple(e + 1, f + 1, "antiparallel")
    return Arrangement(d, tuple(rows))


# -- strict feasibility by Fourier-Motzkin ------------------------------------

def _reduced(row: tuple[int, ...]) -> tuple[int, ...]:
    g = gcd(*row)
    if g > 1:
        return tuple(v // g for v in row)
    return row


def _eliminate(rows: set[tuple[int, ...]], j: int) -> set[tuple[int, ...]] | None:
    """Project away variable j; None signals the contradiction 0 > 0."""
    pos, neg = [], []
    out: set[tuple[int, ...]] = set()
    for r in rows:
        c = r[j]
        if c > 0:
            pos.append(r)
        elif c < 0:
            neg.append(r)
        else:
            out.add(r)
    for p in pos:
        pj = p[j]
        for n in neg:
            nj = -n[j]
            combined = _reduced(tuple(nj * pv + pj * nv for pv, nv in zip(p, n)))
            if not any(combined):
                return None
            out.add(combined)
    return out


def _strictly_feasible(rows: list[tuple[int, ...]]) -> bool:
    """Does an exact rational point satisfy every strict inequality r.x > 0?"""
    live = {_reduced(r) for r in rows}
    if any(not any(r) for r in live):
        return False
    d = len(rows[0]) if rows else 0
    remaining = list(range(d))
    while remaining:
        # Cheapest projection first keeps the intermediate systems small.
        def cost(j: int) -> int:
            p = sum(1 for r in live if r[j] > 0)
            n = sum(1 for r in live if r[j] < 0)
            return p * n
        j = min(remaining, key=cost)
        remaining.remove(j)
        nxt = _eliminate(live, j)
        if nxt is None:
            return False
        live = nxt
    return True


def feasible(arrangement: Arrangement, sigma: Tope) -> bool:
    """True when some point realizes the sign vector strictly."""
    if len(sigma) != arrangement.t:
        raise ValueError(
            f"sign vector has {len(sigma)} entries, arrangement has t = {arrangement.t}"
        )
    rows = [
        tuple(s * v for v in normal)
        for s, normal in zip(sigma, arrangement.primitive_normals)
    ]
    return _strictly_feasible(rows)


def chambers(arrangement: Arrangement, bound: int = ENUMERATION_BOUND) -> TopeSet:
    """Enumerate all chambers into a validated tope set, one plane at a time.

    Central symmetry halves the work: only chambers with +1 first entry are
    built, and each contributes its negation too. Each chamber of planes
    1..k is kept as its sign prefix and signed integer rows; plane k+1 keeps
    the sides of it that pass :func:`_strictly_feasible`.
    """
    t = arrangement.t
    if t > bound:
        msg = f"t = {t} elements exceed the chamber-enumeration bound {bound}"
        raise SizeBoundExceeded(t, bound, msg)
    first, *rest = arrangement.primitive_normals
    cells = [((1,), [first])]
    for a in rest:
        minus_a = tuple(-v for v in a)
        split = []
        for signs, rows in cells:
            plus, minus = rows + [a], rows + [minus_a]
            if not _strictly_feasible(plus):
                # The - side needs no test: an open nonempty cell cannot lie
                # inside the hyperplane a.x = 0 (a != 0), so it is all - side.
                split.append((signs + (-1,), minus))
                continue
            split.append((signs + (1,), plus))
            if _strictly_feasible(minus):
                split.append((signs + (-1,), minus))
        cells = split
    found: list[Tope] = []
    for signs, _ in cells:
        sigma = Tope(signs)
        found.append(sigma)
        found.append(-sigma)
    return build_tope_set(found)


# -- plain-text serialization -------------------------------------------------
#
# Format: header "d <int> t <int>", then one normal per line as whitespace-
# separated rationals like "1 -2 3/2 0.25": integers, p/q or plain decimals,
# never exponents (Fraction("1e1000000000") builds that power of ten). '#'
# starts a comment.
_RATIONAL = re.compile(r"[+-]?(?:[0-9]+(?:/[0-9]+)?|[0-9]*\.[0-9]+|[0-9]+\.)")


def parse_arrangement_text(text: str) -> Arrangement:
    header: tuple[int, int] | None = None
    rows: list[tuple[Fraction, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            parts = line.split()
            if len(parts) != 4 or parts[0] != "d" or parts[2] != "t":
                raise ValueError(
                    f"line {lineno}: expected header 'd <int> t <int>', got {raw!r}"
                )
            try:
                header = (int(parts[1]), int(parts[3]))
            except ValueError:
                raise ValueError(f"line {lineno}: bad header numbers in {raw!r}") from None
            continue
        tokens = line.split()
        try:
            if not all(map(_RATIONAL.fullmatch, tokens)):
                raise ValueError
            rows.append(tuple(map(Fraction, tokens)))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"line {lineno}: bad rational in {raw!r}") from None
    if header is None:
        raise ValueError("missing header line 'd <int> t <int>'")
    d, t = header
    if len(rows) != t:
        raise ValueError(f"header says t = {t}, found {len(rows)} normals")
    return validate_arrangement(d, rows)


def _fraction_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def format_arrangement_text(arrangement: Arrangement) -> str:
    lines = [f"d {arrangement.d} t {arrangement.t}"]
    for normal in arrangement.normals:
        lines.append(" ".join(_fraction_str(v) for v in normal))
    return "\n".join(lines) + "\n"


def read_arrangement_file(path) -> Arrangement:
    with open(path, encoding="utf-8") as fh:
        return parse_arrangement_text(fh.read())


def write_arrangement_file(path, arrangement: Arrangement) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_arrangement_text(arrangement))
