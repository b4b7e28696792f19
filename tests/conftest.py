"""Shared test instances: small arrangements and their tope sets.

The zoo covers the square (t=2), the hexagon (t=3), the bundled demo
instance (t=5), five random generic rank-3 arrangements, and two random
rank-4 arrangements. Random instances are rejection-sampled from fixed
seeds, so every run sees identical data. The plain builders ``tope``,
``topes``, ``hexagon`` and ``hexagon_cycle`` are imported by the test
modules directly.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import pytest

import topecom
from topecom import (
    Arrangement,
    Tope,
    TopeSet,
    build_symmetric_cycle,
    build_tope_set,
    chambers,
    validate_arrangement,
)
from topecom.decomposition import bareiss_determinant
from topecom.errors import TopecomError
from topecom.fixtures import DemoData, demo_data

CUBE_NORMALS = ((1, 0), (0, 1))
# The topes of the normals (1, 0), (0, 1), (1, 1), listed once round.
HEX_STRINGS = ("+++", "+-+", "+--", "---", "-+-", "-++")
# A symmetric t = 5 set that build_tope_set accepts, although no symmetric
# cycle passes through --+-- or ++-++. It is no partial cube.
STRANDED_STRINGS = (
    "-----", "----+", "---++", "--+--", "--+++", "-+---",
    "+-+++", "++---", "++-++", "+++--", "++++-", "+++++",
)

# (t, seed) for the random layers of the zoo.
D3_SPECS = ((4, 101), (5, 102), (6, 103), (7, 104), (6, 105))
D4_SPECS = ((5, 201), (6, 202))


def tope(s: str) -> Tope:
    return Tope.from_string(s)


def topes(*strings):
    return [tope(s) for s in strings]


def hexagon() -> TopeSet:
    return build_tope_set(topes(*HEX_STRINGS))


def hexagon_cycle():
    """The hexagon walked in ``HEX_STRINGS`` order: l-sequence (2, 3, 1)."""
    return build_symmetric_cycle(hexagon(), topes(*HEX_STRINGS))


@dataclass(frozen=True)
class Instance:
    name: str
    tope_set: TopeSet
    arrangement: Arrangement | None = None
    generic_d3: bool = False


def _random_normals(rng: random.Random, d: int, t: int) -> list[tuple[int, ...]]:
    return [tuple(rng.randint(-9, 9) for _ in range(d)) for _ in range(t)]


def random_generic_arrangement(d: int, t: int, seed: int) -> Arrangement:
    """Integer normals, resampled until every d of them are independent."""
    rng = random.Random(seed)
    while True:
        normals = _random_normals(rng, d, t)
        try:
            arr = validate_arrangement(d, normals)
        except TopecomError:
            continue
        if any(bareiss_determinant(sub) == 0 for sub in combinations(normals, d)):
            continue
        return arr


def random_simple_d4_arrangement(t: int, seed: int) -> Arrangement:
    """Integer normals in 4-space, resampled until simple."""
    rng = random.Random(seed)
    while True:
        normals = _random_normals(rng, 4, t)
        try:
            return validate_arrangement(4, normals)
        except TopecomError:
            continue


@pytest.fixture(scope="session")
def python_env() -> dict[str, str]:
    """Environment for a child interpreter that imports this topecom."""
    src = str(Path(topecom.__file__).resolve().parents[1])
    extra = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + extra if extra else "")}


@pytest.fixture(scope="session")
def cube() -> TopeSet:
    return chambers(validate_arrangement(2, CUBE_NORMALS))


@pytest.fixture(scope="session")
def demo() -> DemoData:
    return demo_data()


@pytest.fixture(scope="session")
def zoo(cube, demo) -> tuple[Instance, ...]:
    instances = [
        Instance("cube", cube),
        Instance("hexagon", hexagon()),
        Instance("demo", demo.carrier, demo.arrangement, generic_d3=True),
    ]
    for t, seed in D3_SPECS:
        arr = random_generic_arrangement(3, t, seed)
        instances.append(
            Instance(f"d3-t{t}-s{seed}", chambers(arr), arr, generic_d3=True)
        )
    for t, seed in D4_SPECS:
        arr = random_simple_d4_arrangement(t, seed)
        instances.append(Instance(f"d4-t{t}-s{seed}", chambers(arr), arr))
    return tuple(instances)
