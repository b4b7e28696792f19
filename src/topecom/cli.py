"""Command-line front end: files in, text/JSON/DOT out, fully deterministic.

One verb per concept: validate, chambers, graph, poset, cycles, decompose,
committee. Inputs come from a ``.topes`` file or a ``.arr`` arrangement
(whose chambers are enumerated on the fly). Exit codes: 0 success, 1 domain
error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .committees import CommitteeCandidate, committee_sum, enumerate_critical
from .cycles import SymmetricCycle, enumerate_cycles, find_symmetric_cycle
from .decomposition import decompose
from .errors import TopecomError
from .posets import BasedPoset
from .realization import Arrangement, chambers, read_arrangement_file
from .signs import Tope
from .topesets import (
    TopeSet,
    adjacency_edges,
    format_topes_text,
    is_acyclic,
    read_topes_file,
)

__all__ = ["main"]


def _read_input(args) -> TopeSet | Arrangement:
    """The one input file: a parsed ``.topes`` set or ``.arr`` arrangement."""
    if args.topes and args.arr:
        raise ValueError("pass either --topes or --arr, not both")
    if args.topes:
        return read_topes_file(args.topes)
    if args.arr:
        return read_arrangement_file(args.arr)
    raise ValueError("an input file is required: --topes or --arr")


def _load_tope_set(args) -> TopeSet:
    data = _read_input(args)
    return chambers(data) if isinstance(data, Arrangement) else data


def _parse_tope(text: str, what: str) -> Tope:
    try:
        return Tope.from_string(text)
    except ValueError as exc:
        raise ValueError(f"bad {what}: {exc}") from None


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _tope_strings(topes) -> list[str]:
    return [str(tp) for tp in sorted(topes)]


# -- subcommand handlers ------------------------------------------------------

def _cmd_validate(args) -> str:
    data = _read_input(args)
    if isinstance(data, Arrangement):
        if args.format == "json":
            return _json(
                {"kind": "arrangement", "valid": True, "d": data.d, "t": data.t}
            )
        return f"valid arrangement: d={data.d}, t={data.t}\n"
    acyclic = is_acyclic(data)
    if args.format == "json":
        return _json(
            {
                "kind": "topes",
                "valid": True,
                "t": data.t,
                "count": len(data),
                "acyclic": acyclic,
            }
        )
    word = "acyclic" if acyclic else "not acyclic"
    return f"valid tope set: t={data.t}, {len(data)} topes, {word}\n"


def _cmd_chambers(args) -> str:
    ts = _load_tope_set(args)
    if args.format == "json":
        return _json({"t": ts.t, "topes": _tope_strings(ts.topes)})
    return format_topes_text(ts)


def _cmd_graph(args) -> str:
    ts = _load_tope_set(args)
    edges = adjacency_edges(ts)
    if args.format == "json":
        return _json(
            {
                "t": ts.t,
                "nodes": _tope_strings(ts.topes),
                "edges": [[str(a), str(b)] for a, b in edges],
            }
        )
    if args.format == "text":
        return "".join(f"{a} -- {b}\n" for a, b in edges)
    lines = ["graph topes {", "  node [shape=box];"]
    lines.extend(f'  "{tp}";' for tp in ts.topes)
    lines.extend(f'  "{a}" -- "{b}";' for a, b in edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cycle_for_root(carrier: TopeSet, root_text: str | None) -> SymmetricCycle:
    if root_text is None:
        root = carrier.topes[0]
    else:
        root = _parse_tope(root_text, "--cycle-base")
    return find_symmetric_cycle(carrier, root)


def _cmd_poset(args) -> str:
    ts = _load_tope_set(args)
    base = _parse_tope(args.base, "--base") if args.base else ts.topes[0]
    poset = BasedPoset(ts, base)
    edges = poset.hasse_edges()
    highlight: frozenset[Tope] = frozenset()
    if args.cycle_base:
        highlight = _cycle_for_root(ts, args.cycle_base).vertex_set
    if args.format == "json":
        return _json(
            {
                "base": str(base),
                "edges": [[str(a), str(b)] for a, b in edges],
                "highlight": _tope_strings(highlight),
            }
        )
    if args.format == "text":
        return "".join(f"{a} < {b}\n" for a, b in edges)
    lines = ["digraph tope_poset {", "  rankdir=BT;", "  node [shape=box];"]
    for tp in ts.topes:
        attrs = ' style=filled fillcolor="lightgrey"' if tp in highlight else ""
        lines.append(f'  "{tp}" [{attrs.strip()}];' if attrs else f'  "{tp}";')
    lines.extend(f'  "{a}" -> "{b}";' for a, b in edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_cycles(args) -> str:
    ts = _load_tope_set(args)
    base = _parse_tope(args.base, "--base") if args.base else None
    enum = enumerate_cycles(ts, base, args.budget)
    if args.format == "json":
        return _json(
            {
                "cycles": [
                    {
                        "base": str(c.base),
                        "vertices": [str(v) for v in c.vertices],
                        "l_sequence": list(c.l_sequence),
                    }
                    for c in enum.cycles
                ],
                "truncated": enum.truncated,
            }
        )
    lines = [
        f"cycle {k}: " + " ".join(str(v) for v in cyc.vertices)
        for k, cyc in enumerate(enum.cycles, 1)
    ]
    lines.append(f"truncated: {'true' if enum.truncated else 'false'}")
    return "\n".join(lines) + "\n"


def _cmd_decompose(args) -> str:
    ts = _load_tope_set(args)
    target = _parse_tope(args.tope, "--tope")
    cycle = _cycle_for_root(ts, args.cycle_base)
    result = decompose(cycle, target)
    if args.format == "json":
        return _json(
            {
                "target": str(result.target),
                "x": list(result.coordinates),
                "q_set": _tope_strings(result.members),
            }
        )
    lines = [
        f"target: {result.target}",
        "cycle:  " + " ".join(str(v) for v in cycle.vertices),
        f"x:      {list(result.coordinates)}",
        "q_set:  " + " ".join(_tope_strings(result.members)),
    ]
    return "\n".join(lines) + "\n"


def _committee_json(candidate: CommitteeCandidate) -> dict:
    return {
        "members": _tope_strings(candidate.members),
        "sum": list(committee_sum(candidate)),
        "critical": True,
        "minimal": True,
    }


def _cmd_committee(args) -> str:
    ts = _load_tope_set(args)
    result = enumerate_critical(ts, args.budget, all_bases=args.all_bases)
    if args.format == "json":
        return _json(
            {
                "committees": [_committee_json(c) for c in result.committees],
                "truncated": result.truncated,
            }
        )
    lines = [
        f"committee {k}: " + " ".join(_tope_strings(c.members))
        for k, c in enumerate(result.committees, 1)
    ]
    lines.append(f"truncated: {'true' if result.truncated else 'false'}")
    return "\n".join(lines) + "\n"


# -- wiring -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topecom",
        description="Exact computation on topes: cycles, decompositions, committees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, formats: tuple[str, ...], help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--topes", help="input .topes file")
        p.add_argument("--arr", help="input .arr arrangement file")
        p.add_argument(
            "--format", choices=formats, default=formats[0], help="output format"
        )
        p.add_argument("--out", help="write output to this path instead of stdout")
        return p

    add("validate", _cmd_validate, ("text", "json"), "check an input file")
    add("chambers", _cmd_chambers, ("text", "json"), "enumerate arrangement chambers")
    add("graph", _cmd_graph, ("dot", "json", "text"), "tope adjacency graph")

    p = add("poset", _cmd_poset, ("dot", "json", "text"), "Hasse diagram at a base")
    p.add_argument("--base", help="base tope (default: smallest member)")
    p.add_argument(
        "--cycle-base", help="highlight the vertices of the cycle found at this root"
    )

    p = add("cycles", _cmd_cycles, ("text", "json"), "enumerate symmetric cycles")
    p.add_argument("--base", help="only cycles through this tope")
    p.add_argument("--budget", type=int, default=200, help="max cycles to list")

    p = add("decompose", _cmd_decompose, ("text", "json"), "decompose a tope over a cycle")
    p.add_argument("--tope", required=True, help="target tope string")
    p.add_argument(
        "--cycle-base", help="cycle root (default: smallest member)"
    )

    p = add("committee", _cmd_committee, ("text", "json"), "critical committees from cycles")
    p.add_argument(
        "--all-bases",
        action="store_true",
        help="walk every cycle, not only those through the all-ones tope",
    )
    p.add_argument("--budget", type=int, default=200, help="max cycles to walk")

    return parser


_TOPE_FLAGS = {"--tope", "--base", "--cycle-base"}


def _merge_tope_flags(argv: list[str]) -> list[str]:
    """Join tope-valued flags with their argument as ``--flag=value``.

    Tope strings may start with '-', which argparse would otherwise read as
    an option name.
    """
    out: list[str] = []
    it = iter(argv)
    for token in it:
        if token in _TOPE_FLAGS:
            value = next(it, None)
            if value is None:
                out.append(token)
            else:
                out.append(f"{token}={value}")
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(_merge_tope_flags(argv))
    try:
        text = args.handler(args)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (TopecomError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
