"""Sign vectors (topes) and the elementary operations on them.

A tope is an immutable vector over {-1, +1}. Ground-set elements are indexed
1..t in every public interface; the text form is a string over '+'/'-', e.g.
``"-++++"`` for (-1, 1, 1, 1, 1). All arithmetic is exact integer arithmetic.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

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


@dataclass(frozen=True, order=True)
class Tope:
    """A +-1 sign vector of length t.

    Topes compare lexicographically with -1 < +1 and the leftmost coordinate
    most significant, which is exactly tuple order on ``entries``.

    >>> Tope.from_string("-++++")
    Tope('-++++')
    >>> -Tope.from_string("+-+")
    Tope('-+-')
    """

    entries: tuple[int, ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("a tope needs at least one entry")
        for v in self.entries:
            if v != 1 and v != -1:
                raise ValueError(f"tope entries must be -1 or +1, got {v!r}")

    @classmethod
    def from_string(cls, text: str) -> "Tope":
        """Parse a '+'/'-' string; inverse of :func:`str`."""
        if not text or any(c not in "+-" for c in text):
            raise ValueError(f"not a tope string: {text!r}")
        return cls(tuple(1 if c == "+" else -1 for c in text))

    @property
    def t(self) -> int:
        return len(self.entries)

    def sign(self, e: int) -> int:
        """Sign at element e (1-based)."""
        if not 1 <= e <= len(self.entries):
            raise ValueError(f"element {e} outside 1..{len(self.entries)}")
        return self.entries[e - 1]

    def flip(self, e: int) -> "Tope":
        """The tope with element e (1-based) negated."""
        if not 1 <= e <= len(self.entries):
            raise ValueError(f"element {e} outside 1..{len(self.entries)}")
        s = list(self.entries)
        s[e - 1] = -s[e - 1]
        return Tope(tuple(s))

    def __neg__(self) -> "Tope":
        return Tope(tuple(-v for v in self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return "".join("+" if v == 1 else "-" for v in self.entries)

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
    signs = list(tope.entries)
    for e in set(elements):
        if not 1 <= e <= t:
            raise ValueError(f"element {e} outside 1..{t}")
        signs[e - 1] = -signs[e - 1]
    return Tope(tuple(signs))


def negative_part(tope: Tope) -> frozenset[int]:
    """Elements where the tope is -1."""
    return frozenset(e for e, v in enumerate(tope.entries, 1) if v == -1)


def positive_part(tope: Tope) -> frozenset[int]:
    """Elements where the tope is +1; complements :func:`negative_part`."""
    return frozenset(e for e, v in enumerate(tope.entries, 1) if v == 1)


def separation_set(t1: Tope, t2: Tope) -> frozenset[int]:
    """Elements where two topes of equal length disagree."""
    if len(t1) != len(t2):
        raise ValueError(f"length mismatch: {len(t1)} vs {len(t2)}")
    return frozenset(e for e, (a, b) in enumerate(zip(t1.entries, t2.entries), 1) if a != b)


def distance(t1: Tope, t2: Tope) -> int:
    """Tope-graph distance: the size of the separation set.

    Equals one quarter of the squared Euclidean norm of t2 - t1, exactly.
    """
    return len(separation_set(t1, t2))


def tope_sum(topes: Sequence[Tope], t: int | None = None) -> tuple[int, ...]:
    """Componentwise integer sum of a sequence of equal-length topes.

    An empty sequence yields the zero vector, in which case the length ``t``
    must be supplied.
    """
    topes = list(topes)
    if not topes:
        if t is None:
            raise ValueError("empty sum: pass t for the zero vector length")
        return (0,) * t
    n = len(topes[0])
    if t is not None and t != n:
        raise ValueError(f"length mismatch: t={t} vs topes of length {n}")
    acc = [0] * n
    for tope in topes:
        if len(tope) != n:
            raise ValueError(f"length mismatch: {len(tope)} vs {n}")
        for i, v in enumerate(tope.entries):
            acc[i] += v
    return tuple(acc)
