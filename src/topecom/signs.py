"""Sign vectors (topes) and the elementary operations on them.

A tope is an immutable vector over {-1, +1}. Ground-set elements are indexed
1..t in every public interface; the text form is a string over '+'/'-', e.g.
``"-++++"`` for (-1, 1, 1, 1, 1). All arithmetic is exact integer arithmetic.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

__all__ = [
    "Tope",
    "positive_tope",
    "reorient",
    "negative_part",
    "positive_part",
    "separation_set",
    "distance",
    "tope_sum",
]


class Tope(tuple):
    """A +-1 sign vector of length t: the tuple of its entries.

    Topes compare lexicographically with -1 < +1 and the leftmost coordinate
    most significant, which is exactly tuple order. They do not concatenate
    or repeat like tuples; sum them with :func:`tope_sum`.

    >>> Tope.from_string("-++++")
    Tope('-++++')
    >>> -Tope.from_string("+-+")
    Tope('-+-')
    """

    __slots__ = ()

    def __new__(cls, entries: Iterable[int]) -> "Tope":
        self = super().__new__(cls, entries)
        if not self:
            raise ValueError("a tope needs at least one entry")
        for v in self:
            if v != 1 and v != -1:
                raise ValueError(f"tope entries must be -1 or +1, got {v!r}")
        return self

    @classmethod
    def from_string(cls, text: str) -> "Tope":
        """Parse a '+'/'-' string; inverse of :func:`str`."""
        if not text or text.strip("+-"):
            raise ValueError(f"not a tope string: {text!r}")
        # Every entry is +-1 by the check above, so skip the checks in __new__.
        return tuple.__new__(cls, [1 if c == "+" else -1 for c in text])

    @property
    def entries(self) -> tuple[int, ...]:
        return tuple(self)

    @property
    def t(self) -> int:
        return len(self)

    def sign(self, e: int) -> int:
        """Sign at element e (1-based)."""
        if not 1 <= e <= len(self):
            raise ValueError(f"element {e} outside 1..{len(self)}")
        return self[e - 1]

    def flip(self, e: int) -> "Tope":
        """The tope with element e (1-based) negated."""
        if not 1 <= e <= len(self):
            raise ValueError(f"element {e} outside 1..{len(self)}")
        # Still +-1, so skip the checks in __new__; likewise in __neg__.
        return tuple.__new__(Tope, (*self[: e - 1], -self[e - 1], *self[e:]))

    def __neg__(self) -> "Tope":
        return tuple.__new__(Tope, [-v for v in self])

    def __add__(self, other):
        raise TypeError("topes do not concatenate or repeat; sum them with tope_sum")

    __radd__ = __mul__ = __rmul__ = __add__

    def __str__(self) -> str:
        return "".join("+" if v == 1 else "-" for v in self)

    def __repr__(self) -> str:
        return f"Tope('{self}')"


def positive_tope(t: int) -> Tope:
    """The all-ones tope (1, ..., 1) of length t; requires t >= 2."""
    if t < 2:
        raise ValueError(f"ground set needs t >= 2, got {t}")
    return Tope((1,) * t)


def reorient(tope: Tope, elements: Iterable[int]) -> Tope:
    """Negate the signs of ``tope`` on the given elements (1-based).

    Reorienting twice on the same set is the identity.
    """
    t = len(tope)
    signs = list(tope)
    for e in set(elements):
        if not 1 <= e <= t:
            raise ValueError(f"element {e} outside 1..{t}")
        signs[e - 1] = -signs[e - 1]
    return Tope(signs)


def negative_part(tope: Tope) -> frozenset[int]:
    """Elements where the tope is -1."""
    return frozenset(e for e, v in enumerate(tope, 1) if v == -1)


def positive_part(tope: Tope) -> frozenset[int]:
    """Elements where the tope is +1; complements :func:`negative_part`."""
    return frozenset(e for e, v in enumerate(tope, 1) if v == 1)


def separation_set(t1: Tope, t2: Tope) -> frozenset[int]:
    """Elements where two topes of equal length disagree."""
    if len(t1) != len(t2):
        raise ValueError(f"length mismatch: {len(t1)} vs {len(t2)}")
    return frozenset(e for e, (a, b) in enumerate(zip(t1, t2), 1) if a != b)


def distance(t1: Tope, t2: Tope) -> int:
    """Tope-graph distance: the size of the separation set.

    Equals one quarter of the squared Euclidean norm of t2 - t1, exactly.
    """
    return len(separation_set(t1, t2))


def tope_sum(topes: Sequence[Tope]) -> tuple[int, ...]:
    """Componentwise integer sum of a nonempty sequence of equal-length topes."""
    topes = list(topes)
    if not topes:
        raise ValueError("empty sum: no topes to take the length from")
    n = len(topes[0])
    for tope in topes:
        if len(tope) != n:
            raise ValueError(f"length mismatch: {len(tope)} vs {n}")
    return tuple(map(sum, zip(*topes)))
