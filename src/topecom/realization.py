"""Central hyperplane arrangements as a source of valid tope sets.

An arrangement is given by t rational normal vectors in d-space. The sign
vector of a point records on which side of each hyperplane it lies; the
chambers (open regions) of the arrangement realize the topes of a simple
oriented structure once no normal is zero and no two are proportional.

Feasibility of a sign vector is decided exactly: the strict homogeneous
system sigma_e <a_e, x> > 0 goes through Fourier-Motzkin elimination over
integers (strict + strict stays strict), and infeasibility shows up as the
derivation of the contradiction 0 > 0. Two devices keep the elimination
small. Chernikov's rule (Chernikov 1965; Kohler 1967) drops each combined
row drawn from more inputs than one plus the number of variables eliminated,
as the rows kept imply it. And elimination stops at two variables: the
two-variable step then needs only the extreme slopes on each side of the
next variable, found in one pass, where a last elimination pairs every row.

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

# Measured `chambers` time on generic arrangements with integer normals in
# [-9, 9], Python 3.11 on a shared 2-vCPU Xeon VM. Best of 3, seeds 1-3:
# d3 t=12 0.02 s, t=13 0.03 s; d4 t=12 and t=13 0.13 s. Seed 1 at t=12,
# over two sweeps: d5 0.3-0.5 s, d6 0.6-0.9 s, d8 1.2-2.0 s, d10 1.7-1.9 s,
# d12 1.6-2.0 s, and d14, d16, d20 (one run each) 2.0-2.4 s. With at most
# 2^(t-1) chambers and Chernikov's rule in every rank, this bound on t
# keeps every d within seconds.
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
    pair = _pair_up_to_sign(prim)
    if pair is not None:
        e, f = pair
        kind = "parallel" if prim[e] == prim[f] else "antiparallel"
        raise ScalarMultiple(e + 1, f + 1, kind)
    return Arrangement(d, tuple(rows))


# -- strict feasibility by Fourier-Motzkin ------------------------------------

def _reduced(row: tuple[int, ...]) -> tuple[int, ...]:
    g = gcd(*row)
    if g > 1:
        return tuple(v // g for v in row)
    return row


def _eliminate(
    live: dict[tuple[int, ...], int], j: int, s: int
) -> dict[tuple[int, ...], int] | None:
    """Project away variable j as the s-th elimination; None signals 0 > 0.

    Each row maps to the set of input rows it combines, as a bitmask (bit i
    for input i). Chernikov's rule drops a combination of more than s + 1
    inputs: the rows kept imply it. Of two equal rows the one with fewer
    inputs stays.
    """
    pos, neg = [], []
    out: dict[tuple[int, ...], int] = {}
    for r, inputs in live.items():
        c = r[j]
        if c > 0:
            pos.append((r, inputs))
        elif c < 0:
            neg.append((r, inputs))
        else:
            out[r] = inputs
    for p, p_inputs in pos:
        pj = p[j]
        for n, n_inputs in neg:
            inputs = p_inputs | n_inputs
            size = inputs.bit_count()
            if size > s + 1:
                continue
            nj = -n[j]
            combined = _reduced(tuple(nj * pv + pj * nv for pv, nv in zip(p, n)))
            if not any(combined):
                return None
            kept = out.get(combined)
            if kept is None or size < kept.bit_count():
                out[combined] = inputs
    return out


def _two_variable(rows, j: int, k: int) -> bool:
    """Decide r_j x + r_k y > 0 for nonzero rows in x, y in one pass.

    Eliminating x pairs a row (a, b), a > 0, with a row (a', b'), a' < 0,
    into a y-coefficient of the sign of b/a + b'/(-a'); a row with a = 0
    fixes the sign of y. So some y works exactly when the least slopes of
    the two sides sum above 0, or the greatest below 0, and agrees with
    every fixed sign. Slopes compare by integer cross-multiplication.
    """
    y_sign = 0
    # Per side (a > 0, a < 0): least and greatest slope b/|a| as (b, |a|).
    lo: list[tuple[int, int] | None] = [None, None]
    hi: list[tuple[int, int] | None] = [None, None]
    for r in rows:
        a, b = r[j], r[k]
        if a == 0:
            # b != 0: every other entry of the row is 0 and the row is not.
            sign = 1 if b > 0 else -1
            if y_sign == -sign:
                return False
            y_sign = sign
            continue
        side = 0 if a > 0 else 1
        a = abs(a)
        least = lo[side]
        if least is None:
            lo[side] = hi[side] = (b, a)
        elif b * least[1] < least[0] * a:
            lo[side] = (b, a)
        elif b * hi[side][1] > hi[side][0] * a:
            hi[side] = (b, a)
    if lo[0] is None or lo[1] is None:
        return True
    (pb, pa), (nb, na) = lo
    if pb * na + nb * pa > 0 and y_sign >= 0:
        return True
    (pb, pa), (nb, na) = hi
    return pb * na + nb * pa < 0 and y_sign <= 0


def _strictly_feasible(rows: list[tuple[int, ...]]) -> bool:
    """Does an exact rational point satisfy every strict inequality r.x > 0?

    Takes one or more rows of d >= 2 integers. Fourier-Motzkin eliminates
    all but two variables, then :func:`_two_variable` decides the rest.
    """
    live: dict[tuple[int, ...], int] = {}
    for i, r in enumerate(rows):
        r = _reduced(r)
        if not any(r):
            return False
        live.setdefault(r, 1 << i)
    remaining = list(range(len(rows[0])))
    s = 0
    while len(remaining) > 2:
        # Cheapest projection first keeps the intermediate systems small.
        def cost(j: int) -> int:
            p = sum(1 for r in live if r[j] > 0)
            n = sum(1 for r in live if r[j] < 0)
            return p * n
        j = min(remaining, key=cost)
        remaining.remove(j)
        s += 1
        nxt = _eliminate(live, j, s)
        if nxt is None:
            return False
        live = nxt
    return _two_variable(live, *remaining)


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


def chambers(arrangement: Arrangement) -> TopeSet:
    """Enumerate all chambers into a validated tope set, one plane at a time.

    Central symmetry halves the work: only chambers with +1 first entry are
    built, and each contributes its negation too. Each chamber of planes
    1..k is kept as its sign prefix and signed integer rows; plane k+1 keeps
    the sides of it that pass :func:`_strictly_feasible`. More than
    ``ENUMERATION_BOUND`` elements are refused.
    """
    t = arrangement.t
    if t > ENUMERATION_BOUND:
        msg = f"t = {t} elements exceed the chamber-enumeration bound {ENUMERATION_BOUND}"
        raise SizeBoundExceeded(t, ENUMERATION_BOUND, msg)
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
