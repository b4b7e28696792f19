"""Independent checks on topecom output, written without importing topecom.

Every check takes the text a CLI verb printed (or, for the library workload
and for set-up, plain sign tuples) together with what the generator knows
about the input, and raises :class:`CheckFailed` on the first violation.
The facts checked are standard results that need no enumeration of their
own:

- a generic central arrangement of t planes in d-space has
  2 * sum_{i<d} C(t-1, i) chambers (Zaslavsky 1975);
- a symmetric cycle lists 2t distinct topes, antipodal halfway round, with
  Hamming-1 steps;
- a decomposition set sums to its target and has odd size;
- a cycle-induced critical committee sums to the all-ones vector;
- the Hasse diagram of the full tope poset is the tope graph, each edge
  pointing away from the base (Edelman 1984).
"""

from __future__ import annotations

from math import comb

Sign = tuple[int, ...]


class CheckFailed(Exception):
    """An output broke one of the independent checks."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def signs(text: str, t: int) -> Sign:
    """A '+'/'-' string as a +-1 tuple of length t."""
    _require(
        len(text) == t and all(c in "+-" for c in text),
        f"not a sign vector of length {t}: {text!r}",
    )
    return tuple(1 if c == "+" else -1 for c in text)


def sign_text(v: Sign) -> str:
    return "".join("+" if x > 0 else "-" for x in v)


def neg(v: Sign) -> Sign:
    return tuple(-x for x in v)


def hamming(a: Sign, b: Sign) -> int:
    return sum(1 for x, y in zip(a, b) if x != y)


def chamber_count(d: int, t: int) -> int:
    """Chambers of a generic central arrangement of t planes in d-space."""
    return 2 * sum(comb(t - 1, i) for i in range(d))


def flip_pairs(topes: frozenset[Sign]) -> set[tuple[Sign, Sign]]:
    """All unordered Hamming-1 pairs inside a tope set, smaller end first."""
    out = set()
    for v in topes:
        for i in range(len(v)):
            w = v[:i] + (-v[i],) + v[i + 1:]
            if w in topes and v < w:
                out.add((v, w))
    return out


def _lines(text: str) -> list[str]:
    _require(text.endswith("\n"), "output does not end with a newline")
    return text[:-1].split("\n") if text != "\n" else [""]


def _truncated(line: str) -> bool:
    _require(
        line in ("truncated: true", "truncated: false"), f"bad trailer {line!r}"
    )
    return line == "truncated: true"


# -- per-verb checks ----------------------------------------------------------

def check_chamber_set(topes: list[Sign], d: int, t: int) -> None:
    """Chambers of a generic arrangement: Zaslavsky's count, distinct, symmetric."""
    members = set(topes)
    _require(len(members) == len(topes), "duplicate chamber")
    want = chamber_count(d, t)
    _require(len(topes) == want, f"{len(topes)} chambers, Zaslavsky says {want}")
    for v in topes:
        _require(len(v) == t, f"chamber {sign_text(v)} has the wrong length")
        _require(neg(v) in members, f"chamber {sign_text(v)} has no antipode")


def _edges(text: str, sep: str, t: int) -> list[tuple[Sign, Sign]]:
    if text == "":
        return []
    out = []
    for line in _lines(text):
        parts = line.split(f" {sep} ")
        _require(len(parts) == 2, f"bad edge line {line!r}")
        out.append((signs(parts[0], t), signs(parts[1], t)))
    return out


def check_cycle(vertices: list[Sign], t: int, topes: frozenset[Sign] | None) -> None:
    """2t distinct vertices, antipodal halves, Hamming-1 steps, closed.

    Members of ``topes`` too, unless it is None (the set is not known).
    """
    _require(len(vertices) == 2 * t, f"cycle has {len(vertices)} vertices, want {2 * t}")
    _require(len(set(vertices)) == 2 * t, "cycle repeats a vertex")
    for k in range(t):
        _require(vertices[k + t] == neg(vertices[k]), f"cycle vertex {k} not antipodal")
    for k in range(2 * t):
        _require(
            hamming(vertices[k], vertices[(k + 1) % (2 * t)]) == 1,
            f"cycle step {k} is not a single flip",
        )
    for v in vertices:
        _require(topes is None or v in topes,
                 f"cycle vertex {sign_text(v)} not in the tope set")


def check_cycles(text: str, t: int, budget: int,
                 topes: frozenset[Sign] | None = None) -> int:
    """``cycles`` text; returns the number of cycles listed."""
    lines = _lines(text)
    truncated = _truncated(lines[-1])
    seen = set()
    for k, line in enumerate(lines[:-1], 1):
        head, _, body = line.partition(": ")
        _require(head == f"cycle {k}", f"bad cycle line {line[:40]!r}")
        verts = [signs(s, t) for s in body.split(" ")]
        check_cycle(verts, t, topes)
        key = frozenset(verts)
        _require(key not in seen, f"cycle {k} listed twice")
        seen.add(key)
    n = len(lines) - 1
    _require(n <= budget, f"{n} cycles listed, budget {budget}")
    _require(not truncated or n == budget, "truncated before the budget was reached")
    return n


def check_chambers(text: str, d: int, t: int) -> None:
    """``chambers`` text of a generic arrangement."""
    lines = _lines(text)
    _require(lines[0] == f"t {t}", f"bad header {lines[0]!r}")
    check_chamber_set([signs(s, t) for s in lines[1:]], d, t)


def check_graph(text: str, d: int, t: int) -> None:
    """``graph --format text`` of a generic arrangement.

    Every edge is a single flip, and each of the t planes carries one edge
    per region of the generic arrangement the other t - 1 planes cut on it,
    so there are t * chamber_count(d - 1, t - 1) edges over all chambers.
    """
    edges = _edges(text, "--", t)
    for a, b in edges:
        _require(hamming(a, b) == 1, f"edge {sign_text(a)} -- {sign_text(b)} is no flip")
    got = {(min(a, b), max(a, b)) for a, b in edges}
    _require(len(got) == len(edges), "duplicate graph edge")
    want = t * chamber_count(d - 1, t - 1)
    _require(len(edges) == want, f"{len(edges)} edges, a generic arrangement has {want}")
    check_chamber_set(sorted({v for e in edges for v in e}), d, t)


def check_decompose(text: str, target: Sign) -> None:
    """``decompose`` text: a valid cycle, coordinates and members for it."""
    t = len(target)
    lines = _lines(text)
    _require(len(lines) == 4, f"decompose printed {len(lines)} lines, want 4")
    fields = {}
    for line, key in zip(lines, ("target:", "cycle:", "x:", "q_set:")):
        head, _, body = line.partition(" ")
        _require(head == key, f"expected {key!r}, got {line[:40]!r}")
        fields[key] = body.strip()
    _require(signs(fields["target:"], t) == target, "target echoed wrongly")
    cycle = [signs(s, t) for s in fields["cycle:"].split(" ")]
    check_cycle(cycle, t, None)
    x = [int(v) for v in fields["x:"].strip("[]").split(",")]
    _require(len(x) == t, f"{len(x)} coordinates, want {t}")
    total = tuple(sum(xi * v[e] for xi, v in zip(x, cycle)) for e in range(t))
    _require(total == target, "coordinates do not combine the cycle to the target")
    check_decomposition([signs(s, t) for s in fields["q_set:"].split(" ")], target, cycle)


def check_decomposition(members: list[Sign], target: Sign, cycle: list[Sign]) -> None:
    """Members lie on the cycle, are distinct, odd in number, sum to the target."""
    on_cycle = set(cycle)
    _require(len(set(members)) == len(members), "decomposition repeats a member")
    _require(len(members) % 2 == 1, f"decomposition has even size {len(members)}")
    for v in members:
        _require(v in on_cycle, f"member {sign_text(v)} is not a cycle vertex")
    total = tuple(sum(col) for col in zip(*members))
    _require(total == target, f"members sum to {total}, not {sign_text(target)}")


def check_committees(text: str, t: int, budget: int, topes: frozenset[Sign]) -> int:
    """``committee`` text; returns the number of committees listed."""
    lines = _lines(text)
    _truncated(lines[-1])
    ones = (1,) * t
    seen = set()
    for k, line in enumerate(lines[:-1], 1):
        head, _, body = line.partition(": ")
        _require(head == f"committee {k}", f"bad committee line {line[:40]!r}")
        members = [signs(s, t) for s in body.split(" ")]
        _require(len(set(members)) == len(members), f"committee {k} repeats a member")
        for v in members:
            _require(v in topes, f"committee {k} member {sign_text(v)} not in the set")
        total = tuple(sum(col) for col in zip(*members))
        _require(total == ones, f"committee {k} sums to {total}, not all ones")
        key = frozenset(members)
        _require(key not in seen, f"committee {k} listed twice")
        seen.add(key)
    _require(len(lines) - 1 <= budget, "more committees than cycles walked")
    return len(lines) - 1


def check_poset(text: str, t: int, topes: frozenset[Sign]) -> None:
    """``poset --format text`` at the default base (the smallest member).

    Every edge is a flip whose separation sets from the base nest, and the
    edges are exactly the tope graph's.
    """
    base = min(topes)
    edges = _edges(text, "<", t)
    for lo, hi in edges:
        sep_lo = {i for i in range(t) if lo[i] != base[i]}
        sep_hi = {i for i in range(t) if hi[i] != base[i]}
        _require(
            sep_lo < sep_hi and len(sep_hi) == len(sep_lo) + 1,
            f"poset edge {sign_text(lo)} < {sign_text(hi)} does not nest",
        )
    got = {(min(a, b), max(a, b)) for a, b in edges}
    _require(len(got) == len(edges), "duplicate poset edge")
    _require(got == flip_pairs(topes), "Hasse diagram differs from the tope graph")
