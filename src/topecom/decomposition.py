"""Decomposing sign vectors over a symmetric cycle.

The first t vertices of a symmetric cycle form a basis: the t x t sign matrix
M with rows R^0 .. R^{t-1} has |det M| = 2^(t-1), and its inverse is sparse
with entries in {-1/2, 0, 1/2}. Every +-1 vector T therefore has a unique
coordinate vector x = T M^{-1}, which lands in {-1, 0, 1}^t, and

    T  =  sum of x_j R^{j-1}  over the odd number of nonzero x_j.

Collecting x_j R^{j-1} for nonzero x_j (these are again cycle vertices, since
-R^{j-1} sits t steps further along) gives the decomposition set Q(T, R): the
unique inclusion-minimal subset of the cycle's vertices summing to T. Four
independent routes to Q are provided: the linear algebra above, an order-
theoretic one through the based poset, reorientation of T to the all-ones
vector, and exhaustive subset search.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Sequence

from .cycles import SymmetricCycle
from .errors import (
    DeterminantMismatch,
    NonTopeInput,
    OracleAmbiguous,
    OracleNotFound,
    SizeBoundExceeded,
    VerificationFailed,
)
from .posets import BasedPoset, max_positive
from .realization import _echelon
from .signs import Tope, negative_part, reorient

__all__ = [
    "Decomposition",
    "CycleDecomposer",
    "BruteForceOracle",
    "bareiss_determinant",
    "sign_matrix",
    "cycle_determinant",
    "doubled_inverse",
    "decompose",
    "decompose_via_poset",
    "decompose_via_reorientation",
]

# BruteForceOracle table build, then one query, with the process's peak RSS,
# on rank-2 cycles, Python 3.11 on a shared 2-vCPU VM: t=14 0.06 s + 0.06 s,
# 26 MB; t=16 0.28 s + 0.31 s, 49 MB; t=18 1.3 s + 1.0 s, 162 MB. Each +2 in
# t costs about 5x the time and 3x the memory.
BRUTE_FORCE_BOUND = 18


def bareiss_determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant by fraction-free elimination.

    The last pivot of a full-rank square echelon form is the determinant up
    to the sign of the row swaps; intermediate divisions are exact.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    if n == 0:
        return 1
    a, pivots, sign = _echelon(rows)
    return sign * a[-1][-1] if len(pivots) == n else 0


def sign_matrix(cycle: SymmetricCycle) -> tuple[tuple[int, ...], ...]:
    """Rows R^0 .. R^{t-1}: the first half of the cycle as a matrix."""
    return tuple(tuple(v) for v in cycle.vertices[: cycle.t])


def cycle_determinant(cycle: SymmetricCycle) -> int:
    """det of the sign matrix; raises unless |det| = 2^(t-1)."""
    det = bareiss_determinant(sign_matrix(cycle))
    expected = 1 << (cycle.t - 1)
    if abs(det) != expected:
        raise DeterminantMismatch(abs(det), expected)
    return det


def doubled_inverse(cycle: SymmetricCycle) -> tuple[tuple[int, ...], ...]:
    """D = 2 M^{-1} as an exact integer matrix, built in closed form.

    Walking the cycle, step k flips element l_k, so R^k - R^{k-1} is
    -2 B_{l_k} times a standard basis vector; solving for that basis vector
    writes row l_k of M^{-1} with two entries +-1/2. Row l_t uses the closing
    step onto -R^0 instead. The product D M is then checked to be twice the
    identity, which only a listing that is no :class:`SymmetricCycle` fails.

    That check also proves |det M| = 2^(t-1). If D M = 2I, no row of D is
    zero, so the l-sequence is a permutation and every row of D holds its
    two +-1 entries: row l_k in columns k-1 and k, row l_t in columns 0 and
    t-1. D's support is then one 2t-cycle, which carries exactly two
    permutations, so det D is in {0, +-2}. D M = 2I forces det D != 0, so
    |det D| = 2 and |det M| = 2^t / 2 = 2^(t-1).
    """
    t = cycle.t
    l_seq = cycle.l_sequence
    base = cycle.base
    rows = [[0] * t for _ in range(t)]
    for k in range(1, t + 1):
        e = l_seq[k - 1]
        s = base[e - 1]
        if k < t:
            rows[e - 1][k - 1] = s
            rows[e - 1][k] = -s
        else:
            rows[e - 1][0] = s
            rows[e - 1][t - 1] = s
    columns = tuple(zip(*sign_matrix(cycle)))
    for i, row in enumerate(rows):
        for j, column in enumerate(columns):
            acc = sum(map(mul, row, column))
            if acc != (2 if i == j else 0):
                raise VerificationFailed(
                    f"(D M)[{i + 1}][{j + 1}] = {acc}, want {2 if i == j else 0}"
                )
    return tuple(tuple(row) for row in rows)


def _check_vector(vector: Tope, t: int) -> None:
    if len(vector) != t:
        raise ValueError(f"vector has {len(vector)} signs, cycle has t = {t}")
    if any(v != 1 and v != -1 for v in vector):
        raise NonTopeInput(vector)


@dataclass(frozen=True)
class Decomposition:
    """The unique minimal expansion of ``target`` over a cycle's vertices.

    ``coordinates[j]`` is the coefficient of R^j; ``members`` collects the
    signed vertices themselves, an odd-sized subset of the cycle summing to
    the target exactly.
    """

    target: Tope
    coordinates: tuple[int, ...]
    members: frozenset[Tope]

    @property
    def size(self) -> int:
        return len(self.members)


class CycleDecomposer:
    """Per-cycle closed-form machinery, built once and reused.

    Construction runs the one D M = 2I check of :func:`doubled_inverse`,
    which also proves the determinant identity. After that each
    decomposition costs O(t).
    """

    def __init__(self, cycle: SymmetricCycle):
        self.cycle = cycle
        self.t = cycle.t
        # Column j of the checked D as (row, entry, row, entry): the
        # l-sequence is a permutation, so each column has two +-1s.
        self._columns = []
        for column in zip(*doubled_inverse(cycle)):
            (i, a), (k, b) = [(i, c) for i, c in enumerate(column) if c]
            self._columns.append((i, a, k, b))

    def coordinates(self, vector: Tope) -> tuple[int, ...]:
        """x = vector * D / 2; entries always land in {-1, 0, 1}.

        Each column of D has two +-1 entries, so for a +-1 vector x_j is half
        the sum or difference of two signs: exact, and O(t) in all.
        """
        _check_vector(vector, self.t)
        return tuple([(vector[i] * a + vector[k] * b) // 2 for i, a, k, b in self._columns])

    def decompose(self, vector: Tope) -> Decomposition:
        x = self.coordinates(vector)
        verts, t = self.cycle.vertices, self.t
        # x_j = -1 picks -R^{j-1}, which sits t steps further along.
        members = frozenset(verts[j if c == 1 else j + t] for j, c in enumerate(x) if c)
        return Decomposition(vector, x, members)


def decompose(cycle: SymmetricCycle, vector: Tope) -> Decomposition:
    """Minimal decomposition of any +-1 vector over the cycle.

    The vector need not belong to the cycle's carrier; the linear algebra is
    carrier-free.
    """
    return CycleDecomposer(cycle).decompose(vector)


def decompose_via_poset(cycle: SymmetricCycle, base: Tope) -> frozenset[Tope]:
    """Q(base, cycle) as the minimal cycle vertices in the poset at ``base``.

    Order-theoretic route: among the cycle's vertices, keep those whose
    separation set from the base is inclusion-minimal. Requires the base to
    be a member of the carrier.
    """
    poset = BasedPoset(cycle.carrier, base)
    return poset.minimal_elements(cycle.vertices)


def decompose_via_reorientation(cycle: SymmetricCycle, vector: Tope) -> frozenset[Tope]:
    """Q via reorientation: flip the vector positive, take max_positive, flip back.

    Reorienting on the vector's negative part sends it to the all-ones
    vector, whose minimal separation sets are exactly the maximal positive
    parts. No poset and no carrier membership are needed.
    """
    _check_vector(vector, cycle.t)
    neg = negative_part(vector)
    flipped = [reorient(v, neg) for v in cycle.vertices]
    chosen = max_positive(flipped)
    return frozenset(reorient(w, neg) for w in chosen)


class BruteForceOracle:
    """Exhaustive subset-sum search over a cycle's vertex set.

    Splits the 2t vertices into the first half and its antipodes and meets
    in the middle: 2^t partial sums instead of 2^(2t) subsets. Used as an
    independent check on the closed-form decomposition. Cycles with t above
    ``BRUTE_FORCE_BOUND`` are refused before the table is built.
    """

    def __init__(self, cycle: SymmetricCycle):
        t = cycle.t
        if t > BRUTE_FORCE_BOUND:
            msg = f"t = {t} exceeds the brute-force bound {BRUTE_FORCE_BOUND}"
            raise SizeBoundExceeded(t, BRUTE_FORCE_BOUND, msg)
        self.cycle = cycle
        half = sign_matrix(cycle)
        zero = (0,) * t
        table: list[tuple[int, ...]] = [zero] * (1 << t)
        for mask in range(1, 1 << t):
            low = mask & -mask
            prev = table[mask ^ low]
            vec = half[low.bit_length() - 1]
            table[mask] = tuple(p + s for p, s in zip(prev, vec))
        index: dict[tuple[int, ...], list[int]] = {}
        for mask, total in enumerate(table):
            index.setdefault(total, []).append(mask)
        self._table = table
        self._index = index

    def _solution_masks(self, target: Tope) -> list[int]:
        # Subset = A over the first half plus B over the antipodal half;
        # sum = s_A - s_B, so s_B = s_A - target.
        t = self.cycle.t
        out = []
        for amask, asum in enumerate(self._table):
            need = tuple(a - g for a, g in zip(asum, target))
            for bmask in self._index.get(need, ()):
                out.append(amask | (bmask << t))
        return out

    def decompose(self, target: Tope) -> frozenset[Tope]:
        """The unique inclusion-minimal vertex subset summing to ``target``."""
        _check_vector(target, self.cycle.t)
        masks = self._solution_masks(target)
        if not masks:
            raise OracleNotFound(f"no vertex subset sums to {target}")
        minimal = [
            m
            for m in masks
            if not any(o != m and o & m == o for o in masks)
        ]
        if len(minimal) != 1:
            raise OracleAmbiguous(
                f"{len(minimal)} incomparable minimal subsets sum to {target}"
            )
        mask = minimal[0]
        verts = self.cycle.vertices
        return frozenset(verts[i] for i in range(2 * self.cycle.t) if mask >> i & 1)
