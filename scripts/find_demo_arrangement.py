"""Regenerate the committed demo arrangement by deterministic grid search.

The demo walkthrough needs a five-plane central arrangement in 3-space whose
chambers contain all 14 topes used by the bundled cycle listings. This script
scans a fixed integer grid (first normal of the third and fourth plane vary,
the axis planes stay put), takes the lexicographically first candidate that
is simple, generic (no three normals singular), and contains every required
tope, and writes data/demo.arr plus the matching data/demo.topes.

Run from the repository root:

    python scripts/find_demo_arrangement.py

The search is pure enumeration with no randomness, so reruns are idempotent.
"""

from __future__ import annotations

import argparse
import sys
from itertools import combinations, product
from pathlib import Path

from topecom.decomposition import bareiss_determinant
from topecom.errors import TopecomError
from topecom.fixtures import _CYCLE_LISTINGS
from topecom.realization import chambers, format_arrangement_text, validate_arrangement
from topecom.signs import positive_tope
from topecom.topesets import format_topes_text

FIXED = ((1, 0, 0), (0, 1, 0))
LAST = (0, 0, 1)
A3_RANGE = range(-2, 3)
A4_RANGE = range(-3, 4)

# The cycle vertices plus the all-ones tope: requiring the latter makes the
# committed instance acyclic, so committee demos run on it directly.
REQUIRED = sorted({v for listing in _CYCLE_LISTINGS for v in listing} | {positive_tope(5)})


def generic(normals) -> bool:
    """No three normals linearly dependent; forces the 22-chamber count."""
    return all(
        bareiss_determinant(triple) != 0 for triple in combinations(normals, 3)
    )


def search():
    for a3 in product(A3_RANGE, repeat=3):
        for a4 in product(A4_RANGE, repeat=3):
            normals = (*FIXED, a3, a4, LAST)
            try:
                arr = validate_arrangement(3, normals)
            except TopecomError:
                continue
            if not generic(normals):
                continue
            tope_set = chambers(arr)
            if not all(tp in tope_set for tp in REQUIRED):
                continue
            if len(tope_set) != 22:
                continue
            return arr, tope_set
    return None, None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out-dir",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "src" / "topecom" / "data",
        help="directory for demo.arr / demo.topes",
    )
    args = parser.parse_args(argv)

    arr, tope_set = search()
    if arr is None:
        print("no arrangement in the search grid fits the demo data", file=sys.stderr)
        return 1

    args.out_dir.mkdir(parents=True, exist_ok=True)
    arr_path = args.out_dir / "demo.arr"
    topes_path = args.out_dir / "demo.topes"
    arr_path.write_text(format_arrangement_text(arr), encoding="utf-8")
    topes_path.write_text(format_topes_text(tope_set), encoding="utf-8")

    print(f"wrote {arr_path}")
    print(f"wrote {topes_path}")
    for normal in arr.normals:
        print("  normal:", tuple(int(v) for v in normal))
    print(f"  chambers: {len(tope_set)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
