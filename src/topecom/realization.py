"""Central hyperplane arrangements as a source of valid tope sets.

An arrangement is given by t rational normal vectors in d-space. The sign
vector of a point records on which side of each hyperplane it lies; the
chambers (open regions) of the arrangement realize the topes of a simple
oriented structure once no normal is zero and no two are proportional.

Chambers are enumerated from cocircuits (Bjorner, Las Vergnas, Sturmfels,
White & Ziegler, *Oriented Matroids*, 1993, ch. 3-4), in integer arithmetic
only. Let r be the rank of the normals. Keeping r independent columns of
them keeps the column space, so the sign vectors sign(a_e . x) do not
change, and the kept normals span R^r. Then no nonzero x lies on every
hyperplane, so the closure of each chamber is a pointed cone. A pointed cone
of dimension r >= 2 is spanned by its extreme rays, so it has one, v: a ray
on which boundary hyperplanes of rank r - 1 meet. The sign vector Y of v is
a cocircuit, and its zero set Z, the hyperplanes through v, is a flat of
rank r - 1. Near v only the hyperplanes of Z cut space, so the chambers with
v on their boundary are Y filled in on Z by each chamber of the
subarrangement Z, found the same way one rank down and memoised on Z. When
|Z| = r - 1 those are all 2^(r-1) sign patterns; no two normals are
parallel, so this covers rank 1.

Each independent (r - 1)-subset S of the normals spans one flat Z, whose
line v is given by the signed (r - 1)-minors of S. A subset inside a flat
already found spans that flat or is dependent, so it is skipped before any
minor is taken. The work is at most C(t, r - 1) subset visits, plus O(t r)
per flat.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb, gcd, lcm
from operator import mul

from .errors import BadDimension, ScalarMultiple, SizeBoundExceeded, ZeroNormal
from .signs import Tope
from .topesets import TopeSet, _pair_up_to_sign, build_tope_set

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

# 2^12, the most chambers of any t <= 12 arrangement. Measured `chambers`
# (Python 3.11, shared 2-vCPU Xeon VM, best of 3) on moment-curve normals
# (1, k, k^2, ...), k < t: d3 t=64 (4034 chambers) 0.40 s, d4 t=24 (4096)
# 0.12 s, d5 t=16 0.13 s, d8 t=12 0.13 s, d12 t=12 0.06 s. Refusal stops at
# the 4097th chamber: d3 t=65 0.14 s, d4 t=25 0.09 s.
CHAMBER_LIMIT = 4096

# C(t, r - 1) subsets in rank r, at least C(12, 6) = 924. Measured as above
# on near-pencils (t - 1 planes through a line, one across), where the time
# grows as t^2: t=400 (79800 pairs) 0.7 s, t=512 (130816 pairs, 2044
# chambers) 1.5 s, t=1024 5.1 s. Rank 4, t - 2 planes through a line and
# two more: t=93 (129766 triples) 0.15 s.
SUBSET_LIMIT = 1 << 17

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
    pair = _pair_up_to_sign(prim)
    if pair is not None:
        e, f = pair
        kind = "parallel" if prim[e] == prim[f] else "antiparallel"
        raise ScalarMultiple(e + 1, f + 1, kind)
    return Arrangement(d, tuple(rows))


# -- chambers from cocircuits ------------------------------------------------

def _echelon(rows) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free (Bareiss) row echelon form, its pivot columns, and the
    sign of its row swaps.

    Each entry stays a minor of ``rows``, so every division is exact.
    """
    a = [list(row) for row in rows]
    pivots: list[int] = []
    prev = sign = 1
    for j in range(len(a[0])):
        k = len(pivots)
        p = next((i for i in range(k, len(a)) if a[i][j]), None)
        if p is None:
            continue
        a[k], a[p] = a[p], a[k]
        sign = sign if p == k else -sign
        top = a[k]
        piv = top[j]
        for row in a[k + 1:]:
            c = row[j]
            for m in range(j, len(top)):
                row[m] = (row[m] * piv - c * top[m]) // prev
        prev = piv
        pivots.append(j)
        if len(pivots) == len(a):
            break
    return a, pivots, sign


def _kernel(rows) -> list[int] | None:
    """A nonzero integer vector orthogonal to r - 1 rows of length r.

    None when the rows are dependent. Otherwise this is the vector of signed
    (r - 1)-minors up to sign: the free entry is the last pivot, which is
    +-det of the pivot columns, so back substitution divides exactly.
    """
    a, pivots, _ = _echelon(rows)
    if len(pivots) < len(a):
        return None
    x = [0] * len(a[0])
    free = next(j for j in range(len(x)) if j not in pivots)
    x[free] = a[-1][pivots[-1]]
    for row, p in zip(reversed(a), reversed(pivots)):
        x[p] = -sum(map(mul, row, x)) // row[p]
    return x


def _too_many_chambers(t: int) -> SizeBoundExceeded:
    msg = (
        f"t = {t} hyperplanes cut more than {CHAMBER_LIMIT} chambers, "
        "the chamber-enumeration limit"
    )
    return SizeBoundExceeded(CHAMBER_LIMIT + 1, CHAMBER_LIMIT, msg)


def chambers(arrangement: Arrangement) -> TopeSet:
    """Enumerate all chambers into a validated tope set, from cocircuits.

    More than ``CHAMBER_LIMIT`` chambers, or more than ``SUBSET_LIMIT``
    subsets to try, raise :class:`SizeBoundExceeded`; enumeration stops as
    soon as the chamber limit is passed.
    """
    t = arrangement.t
    normals = arrangement.primitive_normals
    rank = len(_echelon(normals)[1])
    if 1 << rank > CHAMBER_LIMIT:
        # r independent normals alone cut 2^r chambers.
        raise _too_many_chambers(t)
    subsets = comb(t, rank - 1)
    if subsets > SUBSET_LIMIT:
        msg = (
            f"t = {t} hyperplanes of rank {rank} need C({t}, {rank - 1}) = "
            f"{subsets} cocircuit subsets, past the limit {SUBSET_LIMIT}"
        )
        raise SizeBoundExceeded(subsets, SUBSET_LIMIT, msg)
    memo: dict[tuple[int, ...], set[int]] = {}

    def topes(elements: tuple[int, ...]) -> set[int]:
        """The chambers of the normals in ``elements``, each as the bitmask
        of its + elements."""
        if elements in memo:
            return memo[elements]
        # r independent columns, r the rank: the same chambers.
        pivots = _echelon([normals[e] for e in elements])[1]
        rows = [tuple(normals[e][j] for j in pivots) for e in elements]
        r = len(pivots)
        found: set[int] = set()
        member = [0] * len(elements)  # bit k: the element lies in flat k
        flat = 1
        for subset in combinations(range(len(elements)), r - 1):
            common = member[subset[0]]
            for i in subset[1:]:
                common &= member[i]
            if common:
                continue
            v = _kernel([rows[i] for i in subset])
            if v is None:
                continue
            plus = minus = 0
            zero = []
            for i, (e, row) in enumerate(zip(elements, rows)):
                s = sum(map(mul, row, v))
                if s > 0:
                    plus |= 1 << e
                elif s < 0:
                    minus |= 1 << e
                else:
                    zero.append(e)
                    member[i] |= flat
            flat <<= 1
            if len(zero) == r - 1:
                fills = [0]
                for e in zero:
                    fills += [f | 1 << e for f in fills]
            else:
                fills = topes(tuple(zero))
            for fill in fills:
                found.add(plus | fill)
                found.add(minus | fill)
            if len(found) > CHAMBER_LIMIT:
                raise _too_many_chambers(t)
        memo[elements] = found
        return found

    return build_tope_set(
        Tope(1 if m >> e & 1 else -1 for e in range(t))
        for m in topes(tuple(range(t)))
    )


def feasible(arrangement: Arrangement, sigma: Tope) -> bool:
    """True when some point realizes the sign vector strictly.

    An exact membership test in :func:`chambers`, so it raises
    :class:`SizeBoundExceeded` past the chamber or subset limit too.
    """
    if len(sigma) != arrangement.t:
        raise ValueError(
            f"sign vector has {len(sigma)} entries, arrangement has t = {arrangement.t}"
        )
    return sigma in chambers(arrangement)


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
