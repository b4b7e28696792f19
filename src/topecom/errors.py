"""Structured errors raised by topecom.

Every domain failure derives from :class:`TopecomError`, so callers (and the
CLI) can catch one base class. Constructor arguments are kept on the instance
for programmatic inspection.
"""

from __future__ import annotations

__all__ = [
    "TopecomError",
    "SymmetryViolation",
    "ParallelElements",
    "AntiparallelElements",
    "Disconnected",
    "TooSmall",
    "NotInTopeSet",
    "NonAdjacentStep",
    "NotAntipodal",
    "DuplicateVertex",
    "NoCycleFound",
    "DeterminantMismatch",
    "VerificationFailed",
    "NonTopeInput",
    "OracleAmbiguous",
    "OracleNotFound",
    "NotAcyclic",
    "NotOnCycle",
    "SizeBoundExceeded",
    "ZeroNormal",
    "ScalarMultiple",
    "BadDimension",
    "ReconstructionFailed",
]


class TopecomError(Exception):
    """Base class for all domain errors."""


# -- tope set validation ----------------------------------------------------

class SymmetryViolation(TopecomError):
    """A tope is present without its negation."""

    def __init__(self, tope):
        self.tope = tope
        super().__init__(f"tope set is not centrally symmetric: -{tope} is missing")


class ParallelElements(TopecomError):
    """Two ground-set elements carry identical sign columns."""

    def __init__(self, e: int, f: int):
        self.elements = (e, f)
        super().__init__(f"elements {e} and {f} are parallel (equal columns)")


class AntiparallelElements(TopecomError):
    """Two ground-set elements carry opposite sign columns."""

    def __init__(self, e: int, f: int):
        self.elements = (e, f)
        super().__init__(f"elements {e} and {f} are antiparallel (negated columns)")


class Disconnected(TopecomError):
    """The tope graph is not connected."""


class TooSmall(TopecomError):
    """Fewer than four topes; rank >= 2 is impossible."""


class NotInTopeSet(TopecomError):
    """A tope was expected to be a member of the carrier tope set."""

    def __init__(self, tope, context: str = ""):
        self.tope = tope
        where = f" ({context})" if context else ""
        super().__init__(f"{tope} is not a member of the tope set{where}")


# -- symmetric cycles -------------------------------------------------------

class NonAdjacentStep(TopecomError):
    """Consecutive cycle vertices do not differ in exactly one element."""

    def __init__(self, k: int):
        self.position = k
        super().__init__(f"cycle step {k} -> {k + 1} is not an edge of the tope graph")


class NotAntipodal(TopecomError):
    """Vertex k+t is not the negation of vertex k."""

    def __init__(self, k: int):
        self.position = k
        super().__init__(f"cycle vertex {k}+t is not the negation of vertex {k}")


class DuplicateVertex(TopecomError):
    """A vertex occurs twice in a cycle."""

    def __init__(self, k: int):
        self.position = k
        super().__init__(f"cycle vertex {k} repeats an earlier vertex")


class NoCycleFound(TopecomError):
    """No symmetric cycle passes through the requested base, or, when no
    base is given, the tope set has none at all.

    Valid input can reach this: :func:`build_tope_set` does not ask every
    member to lie on a symmetric cycle, and 17920 of the 39549 symmetric
    t = 5 sets it accepts have a member on none (exhaustive check).
    """


# -- decomposition ----------------------------------------------------------

class DeterminantMismatch(TopecomError):
    """|det M| != 2^(t-1); the cycle data is corrupted."""

    def __init__(self, got: int, expected: int):
        self.got = got
        self.expected = expected
        super().__init__(f"|det M| = {got}, expected {expected}")


class VerificationFailed(TopecomError):
    """An exact self-check failed: D M != 2I for the closed-form inverse, a
    cycle committee that does not sum to all ones or is not critical, or a
    graph distance that differs from the sign distance."""


class NonTopeInput(TopecomError):
    """A vector to decompose has an entry other than +-1, so it is no tope."""

    def __init__(self, vector):
        self.vector = vector
        super().__init__(f"{vector} has an entry other than +-1; not a tope")


class OracleAmbiguous(TopecomError):
    """Brute force found two incomparable inclusion-minimal subsets."""


class OracleNotFound(TopecomError):
    """Brute force found no subset of the cycle vertices with the target sum."""


# -- committees -------------------------------------------------------------

class NotAcyclic(TopecomError):
    """The positive tope is not a member: the tope set is not acyclic."""


class NotOnCycle(TopecomError):
    """The queried tope is not a vertex of the cycle."""


class SizeBoundExceeded(TopecomError):
    """An exhaustive routine refused an input past its size bound."""

    def __init__(self, size: int, bound: int, message: str):
        self.size = size
        self.bound = bound
        super().__init__(message)


# -- realization ------------------------------------------------------------

class ZeroNormal(TopecomError):
    """An arrangement normal is the zero vector (a loop)."""

    def __init__(self, e: int):
        self.element = e
        super().__init__(f"normal {e} is zero")


class ScalarMultiple(TopecomError):
    """Two normals are rational multiples of each other."""

    def __init__(self, e: int, f: int, kind: str):
        self.elements = (e, f)
        self.kind = kind  # "parallel" or "antiparallel"
        super().__init__(f"normals {e} and {f} are {kind}")


class BadDimension(TopecomError):
    """Dimension or normal lengths are inconsistent or below 2."""


# -- fixtures ---------------------------------------------------------------

class ReconstructionFailed(TopecomError):
    """The committed demo arrangement does not reproduce the expected topes."""
