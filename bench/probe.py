"""Host-speed probe: a fixed piece of pure-Python work timed between ops.

On a shared VM the speed of the same code drifts by up to a factor of two,
in phases lasting from milliseconds to minutes, and every class of op slows
together. The timed phase therefore runs this probe between ops (never
inside one) and scales each op's latency by ``REF_NS`` over the mean of
the probes just before and just after it. The scaled latency reads as the
op's latency on a host where the probe takes ``REF_NS``.

The probe calls no ``topecom`` code, so no change to the program can make
it faster or slower. Its work resembles the program's: hashing, slicing and
set lookups of sign tuples, Hamming distances, and exact integer
determinants. The cyclic collector is off while it runs, so its time does
not depend on how many objects the program keeps alive.
"""

from __future__ import annotations

import gc
import random
from array import array
from time import perf_counter_ns

from workloads import determinant, rank2_topes

REF_NS = 4_000_000  # the probe's time on the reference host

_T = 20
_TOPES = rank2_topes(random.Random(0), _T)
_MEMBERS = frozenset(_TOPES)
_rng = random.Random(1)
_MATRICES = [[[_rng.randint(-9, 9) for _ in range(6)] for _ in range(6)]
             for _ in range(10)]


def _work() -> int:
    edges = 0
    for v in _TOPES:
        for i in range(_T):
            if v[:i] + (-v[i],) + v[i + 1:] in _MEMBERS:
                edges += 1
    far = 0
    for v in _TOPES:
        for u in _TOPES:
            far += sum(a != b for a, b in zip(v, u)) > _T // 2
    return edges + far + sum(determinant(m) for m in _MATRICES)


_EXPECTED = _work()


def probe_ns() -> int:
    """Time one run of the probe's fixed work, in ns."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter_ns()
        result = _work()
        elapsed = perf_counter_ns() - t0
    finally:
        if enabled:
            gc.enable()
    if result != _EXPECTED:
        raise RuntimeError("host-speed probe computed a different result")
    return elapsed


class HostSpeed:
    """Probes bracketing a round's ops, at least every ``every_ns`` of op time.

    Call ``start_round`` before a round, ``before_op`` before and
    ``after_op`` after each op, and ``end_round`` after the last one;
    ``end_round`` returns the round's latencies scaled to the reference host.
    """

    def __init__(self, every_ns: int = 20_000_000):
        self.every_ns = every_ns
        self.probes = array("q")
        self._since: int | None = None
        self._round: list[tuple[int, int]] = []  # (latency, probe before it)

    def start_round(self) -> None:
        self._since = None
        self._round = []

    def before_op(self) -> None:
        if self._since is None or self._since >= self.every_ns:
            self.probes.append(probe_ns())
            self._since = 0

    def after_op(self, latency_ns: int) -> None:
        self._round.append((latency_ns, len(self.probes) - 1))
        self._since += latency_ns

    def end_round(self) -> list[float]:
        self.probes.append(probe_ns())
        p = self.probes
        return [lat * 2 * REF_NS / (p[i] + p[i + 1]) for lat, i in self._round]
