"""The workloads: seeded inputs, their op streams, and each op's check.

An op stream is a sequence of rounds. Every round holds one op per
(verb, rung) pair of its workload in a seeded order, so any whole number of
rounds has the same mix. Round k is generated from (workload, seed, k) alone.
The program sees only the files and values generated here.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations
from typing import Callable

import checks
from checks import neg, sign_text

Sign = tuple[int, ...]


@dataclass
class Op:
    """One timed call and the check its output must pass."""

    verb: str
    rung: str
    argv: list[str] = field(default_factory=list)
    check: Callable[[str], None] | None = None


# -- generators ---------------------------------------------------------------

def determinant(rows) -> int:
    """Exact integer determinant by fraction-free elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def generic_normals(rng: random.Random, d: int, t: int) -> list[tuple[int, ...]]:
    """t integer normals in d-space with every d of them independent."""
    while True:
        normals = [tuple(rng.randint(-9, 9) for _ in range(d)) for _ in range(t)]
        if all(determinant(s) for s in combinations(normals, d)):
            return normals


def rank2_topes(rng: random.Random, t: int) -> list[Sign]:
    """Topes of t lines through the origin of the plane.

    Sweeping a direction once round flips the lines in angular order, so the
    2t topes are the prefixes (-^k, +^(t-k)), k < t, and their negatives,
    here under a seeded element order and orientation.
    """
    order = rng.sample(range(t), t)
    orient = [rng.choice((1, -1)) for _ in range(t)]
    out = []
    for k in range(t):
        v = [0] * t
        for pos, e in enumerate(order):
            v[e] = (-1 if pos < k else 1) * orient[e]
        out.append(tuple(v))
        out.append(neg(tuple(v)))
    return out


def relabel(rng: random.Random, topes: list[Sign]) -> list[Sign]:
    """A seeded copy: one member reoriented to all-plus, elements permuted."""
    t = len(topes[0])
    pivot = rng.choice(topes)
    perm = rng.sample(range(t), t)
    return [tuple(v[p] * pivot[p] for p in perm) for v in topes]


def random_signs(rng: random.Random, t: int) -> Sign:
    return tuple(rng.choice((1, -1)) for _ in range(t))


def topes_text(topes) -> str:
    return f"t {len(topes[0])}\n" + "".join(sign_text(v) + "\n" for v in sorted(topes))


def rung_name(d: int, t: int) -> str:
    return f"{'r' if d == 2 else 'd'}{d}-t{t}"


# -- CLI workloads ------------------------------------------------------------

class ArrCli:
    """CLI verbs on ``.arr`` files: every verb runs ``chambers`` first.

    Ops are ``topecom.cli.main(argv)`` calls, each on a fresh generic
    arrangement of its own, so no two ops read the same file or bytes.
    Set-up does no topecom work; the timed phase is where ``realization``
    runs.
    """

    name = "arr-cli"
    # No op runs much longer than half a second: the probes around an op
    # (probe.py) track the host's speed less well the longer it runs. So
    # d3 t=12 (0.6-0.8 s) and d4 t=10 (0.6-2.4 s by instance) are left out.
    rungs = ((3, 8), (3, 10), (3, 11), (4, 8), (4, 9))
    pairs = tuple(
        (verb, d, t) for verb in ("chambers", "graph", "cycles", "decompose")
        for d, t in ((3, 8), (3, 10), (3, 11), (4, 8), (4, 9))
    )
    budget = 20
    rung_spans = {"realization.chambers": tuple(rung_name(d, t) for d, t in rungs)}

    def __init__(self, seed: int, workdir: str, topecom):
        self.seed = seed
        self.workdir = workdir
        self._ops = 0

    def setup(self, call) -> None:
        pass

    def round(self, k: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{self.seed}:round:{k}")
        ops = [self.make_op(rng, verb, d, t) for verb, d, t in self.pairs]
        rng.shuffle(ops)
        return ops

    def make_op(self, rng, verb, d, t):
        normals = generic_normals(rng, d, t)
        path = os.path.join(self.workdir, f"op{self._ops:05d}.arr")
        self._ops += 1
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"d {d} t {t}\n")
            fh.write("".join(" ".join(map(str, n)) + "\n" for n in normals))
        op = Op(verb, rung_name(d, t))
        if verb == "chambers":
            op.argv = ["chambers", "--arr", path]
            op.check = partial(checks.check_chambers, d=d, t=t)
        elif verb == "graph":
            op.argv = ["graph", "--format", "text", "--arr", path]
            op.check = partial(checks.check_graph, d=d, t=t)
        elif verb == "cycles":
            op.argv = ["cycles", "--budget", str(self.budget), "--arr", path]
            op.check = partial(checks.check_cycles, t=t, budget=self.budget)
        else:
            target = random_signs(rng, t)
            op.argv = ["decompose", "--tope", sign_text(target), "--arr", path]
            op.check = partial(checks.check_decompose, target=target)
        return op


class TopesEnum:
    """Cycle, committee and poset enumeration on acyclic ``.topes`` files.

    Ops are ``topecom.cli.main(argv)`` calls. Base tope sets come from
    ``chambers`` in set-up. Each op reads a fresh relabelled copy of one: a
    different file with the same cycle count, so a cycle-count mismatch
    between copies is a failure too.
    """

    name = "topes-enum"
    pairs = tuple(
        (verb, d, t) for verb in ("cycles", "committee")
        for d, t in ((3, 6), (3, 7), (4, 6))
    ) + tuple(("poset", d, t) for d, t in ((3, 8), (3, 9), (3, 10), (4, 8), (4, 9)))
    # Cycle and committee costs vary two-fold between instances of a rung,
    # so each op draws one of a dozen bases, and a run's figures average
    # over them rather than over the seed's luck.
    bases_per_rung = {(3, 6): 12, (3, 7): 12, (4, 6): 12}
    budget = 2000
    rung_spans = dict.fromkeys(
        ("cycles.enumerate", "committees.enumerate_critical"),
        tuple(rung_name(d, t) for d, t in bases_per_rung),
    )

    def __init__(self, seed: int, workdir: str, topecom):
        self.seed = seed
        self.workdir = workdir
        self.topecom = topecom
        self._contents: set[bytes] = set()  # sha256 of every input written
        self._ops = 0

    def setup(self, call) -> None:
        """Build the base tope sets; ``call`` wraps library calls."""
        tc = self.topecom
        rng = random.Random(f"{self.name}:{self.seed}:setup")
        self.bases: dict[tuple[int, int], list[list[Sign]]] = {}
        for d, t in sorted({(d, t) for _, d, t in self.pairs}):
            self.bases[d, t] = []
            for _ in range(self.bases_per_rung.get((d, t), 1)):
                arr = tc.validate_arrangement(d, generic_normals(rng, d, t))
                carrier = call("realization.chambers", tc.chambers, arr)
                topes = [tp.entries for tp in carrier.topes]
                checks.check_chamber_set(topes, d, t)
                self.bases[d, t].append(topes)
        self.cycle_counts: dict[tuple[int, int, int], int] = {}

    def round(self, k: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{self.seed}:round:{k}")
        ops = [self.make_op(rng, verb, d, t) for verb, d, t in self.pairs]
        rng.shuffle(ops)
        return ops

    def _is_new(self, text: str) -> bool:
        return hashlib.sha256(text.encode()).digest() not in self._contents

    def _write(self, text: str) -> str:
        # No two ops may read the same file or the same bytes.
        self._contents.add(hashlib.sha256(text.encode()).digest())
        path = os.path.join(self.workdir, f"op{self._ops:05d}.topes")
        self._ops += 1
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def _check_cycles(self, text, t, key, topes):
        n = checks.check_cycles(text, t, self.budget, topes)
        if self.cycle_counts.setdefault(key, n) != n:
            raise checks.CheckFailed(
                f"{n} cycles on a relabelled copy, {self.cycle_counts[key]} on another"
            )

    def make_op(self, rng, verb, d, t):
        pick = rng.randrange(len(self.bases[d, t]))
        while True:
            topes = relabel(rng, self.bases[d, t][pick])
            text = topes_text(topes)
            if self._is_new(text):
                break
        path = self._write(text)
        members = frozenset(topes)
        op = Op(verb, rung_name(d, t))
        if verb == "cycles":
            op.argv = ["cycles", "--budget", str(self.budget), "--topes", path]
            op.check = partial(self._check_cycles, t=t, key=(d, t, pick), topes=members)
        elif verb == "committee":
            op.argv = ["committee", "--all-bases", "--budget", str(self.budget),
                       "--topes", path]
            op.check = partial(checks.check_committees, t=t, budget=self.budget,
                               topes=members)
        else:
            op.argv = ["poset", "--format", "text", "--topes", path]
            op.check = partial(checks.check_poset, t=t, topes=members)
        return op


# -- library workload ---------------------------------------------------------

@dataclass
class Query:
    rung: str
    cycle: int
    target: object  # topecom.Tope
    member: bool


class DecomposeStream:
    """``decompose(cycle, T)`` in a loop over a fixed pool of cycles.

    Cycles repeat on purpose: this is the one workload where a per-cycle
    cache can pay. Targets mix carrier members with arbitrary sign vectors
    drawn from a fixed pool per set, so the reference answers are bounded.
    """

    name = "decompose-stream"
    # (d, t, weight). d4 t=9 rather than t=10: t=10 chambers cost 0.6-2.4 s
    # by instance, which made set-up time depend mostly on the seed.
    sets = ((3, 12, 3), (4, 9, 3), (2, 32, 2), (2, 64, 1))
    cycles_per_set = 8
    free_targets = 64
    round_weight = 8
    rung_spans = {"decomposition.decompose": tuple(rung_name(d, t) for d, t, _ in sets)}

    def __init__(self, seed: int, workdir: str, topecom):
        self.seed = seed
        self.topecom = topecom
        self.rungs = [rung_name(d, t) for d, t, _ in self.sets]

    def setup(self, call) -> None:
        """Build the carriers and their cycles; ``call`` wraps library calls."""
        tc = self.topecom
        rng = random.Random(f"{self.name}:{self.seed}:setup")
        self.carriers, self.cycles, self.free = {}, {}, {}
        for d, t, _ in self.sets:
            rung = rung_name(d, t)
            if d == 2:
                vectors = [tc.Tope(v) for v in rank2_topes(rng, t)]
                carrier = call("topesets.build", tc.build_tope_set, vectors)
                if len(carrier) != 2 * t:
                    raise checks.CheckFailed(f"rank-2 set has {len(carrier)} topes")
            else:
                arr = tc.validate_arrangement(d, generic_normals(rng, d, t))
                carrier = call("realization.chambers", tc.chambers, arr)
                checks.check_chamber_set([v.entries for v in carrier.topes], d, t)
            roots = rng.sample(carrier.topes, self.cycles_per_set)
            self.carriers[rung] = carrier
            self.cycles[rung] = [
                call("cycles.enumerate", tc.enumerate_cycles, carrier, root, 1).cycles[0]
                for root in roots
            ]
            self.free[rung] = [tc.Tope(random_signs(rng, t))
                               for _ in range(self.free_targets)]

    def round(self, k: int) -> list[Query]:
        rng = random.Random(f"{self.name}:{self.seed}:round:{k}")
        out = []
        for (d, t, weight), rung in zip(self.sets, self.rungs):
            for _ in range(weight * self.round_weight):
                member = rng.random() < 0.5
                pool = self.carriers[rung].topes if member else self.free[rung]
                out.append(Query(rung, rng.randrange(self.cycles_per_set),
                                 rng.choice(pool), member))
        rng.shuffle(out)
        return out


NAMES = ("arr-cli", "topes-enum", "decompose-stream")
