"""Command line entry points: outputs, formats, determinism, exit codes."""

import json
import subprocess
import sys
from importlib.resources import files

import pytest

from topecom import (
    build_tope_set,
    validate_arrangement,
    write_arrangement_file,
    write_topes_file,
)
from topecom.cli import _merge_tope_flags, main

from conftest import STRANDED_STRINGS, hexagon, topes

# A validated t = 5 set whose smallest member lies on no symmetric cycle,
# although the set has one.
OFF_CYCLE_MINIMUM = (
    "-----", "----+", "---++", "--++-", "--+++", "-+--+",
    "+-++-", "++---", "++--+", "+++--", "++++-", "+++++",
)
# A validated t = 6 set with no symmetric cycle at all.
NO_CYCLE_STRINGS = (
    "---+--", "---+++", "--+---", "--++--", "--++++", "-+-+--", "-+-++-",
    "-++---", "-++++-", "-+++++", "+-----", "+----+", "+--+++", "+-+--+",
    "+-+-++", "++----", "++--++", "++-+++", "+++---", "+++-++",
)


@pytest.fixture(scope="session")
def demo_arr_path():
    return str(files("topecom") / "data" / "demo.arr")


@pytest.fixture(scope="session")
def demo_topes_path():
    return str(files("topecom") / "data" / "demo.topes")


@pytest.fixture()
def hexagon_path(tmp_path):
    path = tmp_path / "hexagon.topes"
    write_topes_file(path, hexagon())
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestValidate:
    def test_topes_text(self, capsys, demo_topes_path):
        code, out, err = run(capsys, "validate", "--topes", demo_topes_path)
        assert code == 0
        assert err == ""
        assert out == "valid tope set: t=5, 22 topes, acyclic\n"

    def test_topes_json(self, capsys, demo_topes_path):
        code, out, _ = run(
            capsys, "validate", "--topes", demo_topes_path, "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {
            "kind": "topes",
            "valid": True,
            "t": 5,
            "count": 22,
            "acyclic": True,
        }

    def test_arrangement(self, capsys, demo_arr_path):
        code, out, _ = run(capsys, "validate", "--arr", demo_arr_path)
        assert code == 0
        assert out == "valid arrangement: d=3, t=5\n"

    def test_requires_exactly_one_input(self, capsys, demo_arr_path, demo_topes_path):
        code, _, err = run(capsys, "validate")
        assert code == 1
        assert err.startswith("error:")
        code, _, err = run(
            capsys, "validate", "--arr", demo_arr_path, "--topes", demo_topes_path
        )
        assert code == 1
        assert "not both" in err

    def test_invalid_file_reports_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.topes"
        bad.write_text("t 2\n++\n--\n")
        code, _, err = run(capsys, "validate", "--topes", str(bad))
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("t 0\n+\n", "line 1: need t >= 2 elements, header says 0"),
            ("t -3\n---\n", "line 1: need t >= 2 elements, header says -3"),
            ("t 3\n", "header says t = 3, but no topes follow"),
        ],
        ids=["zero", "negative", "no-topes"],
    )
    def test_bad_header_exits_one(self, python_env, tmp_path, text, message):
        bad = tmp_path / "bad.topes"
        bad.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "topecom", "validate", "--topes", str(bad)],
            capture_output=True,
            text=True,
            env=python_env,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == f"error: {message}\n"

    def test_exponent_rational_exits_one(self, python_env, tmp_path):
        # Fraction would expand this to a billion-digit integer first.
        bad = tmp_path / "huge.arr"
        bad.write_text("d 2 t 2\n1e1000000000 1\n0 1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "topecom", "validate", "--arr", str(bad)],
            capture_output=True,
            text=True,
            env=python_env,
            timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: line 2: bad rational in '1e1000000000 1'\n"

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "--topes", "/nonexistent.topes")
        assert code == 1
        assert err.startswith("error:")


class TestChambers:
    def test_matches_committed_topes(self, capsys, demo_arr_path, demo_topes_path):
        code, out, _ = run(capsys, "chambers", "--arr", demo_arr_path)
        assert code == 0
        with open(demo_topes_path, encoding="utf-8") as fh:
            assert out == fh.read()

    def test_topes_input_prints_canonical_listing(
        self, capsys, demo_topes_path
    ):
        code, out, _ = run(capsys, "chambers", "--topes", demo_topes_path)
        assert code == 0
        with open(demo_topes_path, encoding="utf-8") as fh:
            assert out == fh.read()

    def test_both_inputs_exit_one(self, capsys, demo_arr_path, demo_topes_path):
        code, out, err = run(
            capsys, "chambers", "--arr", demo_arr_path, "--topes", demo_topes_path
        )
        assert code == 1
        assert out == ""
        assert err == "error: pass either --topes or --arr, not both\n"

    def test_size_bound_names_t(self, capsys, tmp_path):
        arr = tmp_path / "big.arr"
        write_arrangement_file(
            arr, validate_arrangement(4, [(1, k, k * k, k**3) for k in range(25)])
        )
        code, out, err = run(capsys, "chambers", "--arr", str(arr))
        assert code == 1
        assert out == ""
        assert err == (
            "error: t = 25 hyperplanes cut more than 4096 chambers, "
            "the chamber-enumeration limit\n"
        )

    def test_thirteen_planes_enumerate(self, capsys, tmp_path):
        # Refused while the bound was on t; 13 * 12 + 2 chambers.
        arr = tmp_path / "t13.arr"
        write_arrangement_file(
            arr, validate_arrangement(3, [(1, k, k * k) for k in range(13)])
        )
        code, out, err = run(capsys, "chambers", "--arr", str(arr))
        assert (code, err) == (0, "")
        assert sum(line.startswith(("+", "-")) for line in out.splitlines()) == 158

    def test_json_count(self, capsys, demo_arr_path):
        code, out, _ = run(capsys, "chambers", "--arr", demo_arr_path, "--format", "json")
        data = json.loads(out)
        assert data["t"] == 5
        assert len(data["topes"]) == 22


class TestGraph:
    def test_dot_output(self, capsys, hexagon_path):
        code, out, _ = run(capsys, "graph", "--topes", hexagon_path)
        assert code == 0
        assert out.startswith("graph topes {")
        assert out.count(" -- ") == 6

    def test_json_schema(self, capsys, hexagon_path):
        code, out, _ = run(capsys, "graph", "--topes", hexagon_path, "--format", "json")
        data = json.loads(out)
        assert len(data["nodes"]) == 6
        assert len(data["edges"]) == 6
        assert all(len(e) == 2 for e in data["edges"])

    def test_text_edges(self, capsys, hexagon_path):
        code, out, _ = run(capsys, "graph", "--topes", hexagon_path, "--format", "text")
        assert len(out.splitlines()) == 6
        assert all(" -- " in line for line in out.splitlines())

    def test_arrangement_input_works_too(self, capsys, demo_arr_path):
        code, out, _ = run(capsys, "graph", "--arr", demo_arr_path, "--format", "json")
        assert code == 0
        assert len(json.loads(out)["nodes"]) == 22


class TestPoset:
    def test_dot_with_highlight(self, capsys, hexagon_path):
        code, out, _ = run(
            capsys, "poset", "--topes", hexagon_path, "--cycle-base", "+++"
        )
        assert code == 0
        assert out.startswith("digraph tope_poset {")
        # the hexagon cycle covers all six topes
        assert out.count("lightgrey") == 6

    def test_explicit_base_json(self, capsys, hexagon_path):
        code, out, _ = run(
            capsys,
            "poset",
            "--topes",
            hexagon_path,
            "--base",
            "+++",
            "--format",
            "json",
        )
        data = json.loads(out)
        assert data["base"] == "+++"
        assert len(data["edges"]) == 6
        assert data["highlight"] == []

    def test_leading_dash_base(self, capsys, hexagon_path):
        code, out, _ = run(
            capsys, "poset", "--topes", hexagon_path, "--base", "---", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["base"] == "---"

    def test_base_outside_set(self, capsys, hexagon_path):
        code, _, err = run(capsys, "poset", "--topes", hexagon_path, "--base", "++-")
        assert code == 1
        assert "error:" in err


class TestCycles:
    def test_hexagon_single_cycle(self, capsys, hexagon_path):
        code, out, _ = run(capsys, "cycles", "--topes", hexagon_path)
        lines = out.splitlines()
        assert lines[0].startswith("cycle 1: ")
        assert lines[-1] == "truncated: false"
        assert len(lines) == 2

    def test_json_fields(self, capsys, hexagon_path):
        code, out, _ = run(capsys, "cycles", "--topes", hexagon_path, "--format", "json")
        data = json.loads(out)
        assert data["truncated"] is False
        (cyc,) = data["cycles"]
        assert sorted(cyc["l_sequence"]) == [1, 2, 3]
        assert len(cyc["vertices"]) == 6

    def test_budget_truncation(self, capsys, demo_arr_path):
        code, out, _ = run(
            capsys,
            "cycles",
            "--arr",
            demo_arr_path,
            "--budget",
            "2",
            "--format",
            "json",
        )
        data = json.loads(out)
        assert len(data["cycles"]) == 2
        assert data["truncated"] is True

    def test_rooted(self, capsys, demo_arr_path):
        code, out, _ = run(
            capsys,
            "cycles",
            "--arr",
            demo_arr_path,
            "--base",
            "-++++",
            "--format",
            "json",
        )
        data = json.loads(out)
        assert all(c["base"] == "-++++" for c in data["cycles"])


class TestDecompose:
    def test_demo_target(self, capsys, demo_arr_path):
        code, out, _ = run(
            capsys,
            "decompose",
            "--arr",
            demo_arr_path,
            "--tope",
            "+-++-",
            "--cycle-base",
            "-++++",
            "--format",
            "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["target"] == "+-++-"
        assert len(data["q_set"]) % 2 == 1
        assert all(x in (-1, 0, 1) for x in data["x"])

    def test_text_output(self, capsys, hexagon_path):
        code, out, _ = run(capsys, "decompose", "--topes", hexagon_path, "--tope", "+++")
        assert code == 0
        assert out.startswith("target: +++")
        assert "q_set:  +++" in out

    def test_default_root_skips_members_on_no_cycle(self, capsys, tmp_path):
        # ----- lies on no symmetric cycle, but the set has one, rooted at ----+
        path = str(tmp_path / "off-cycle.topes")
        write_topes_file(path, build_tope_set(topes(*OFF_CYCLE_MINIMUM)))
        code, out, _ = run(capsys, "cycles", "--topes", path)
        assert code == 0
        listed, truncated = out.splitlines()
        assert truncated == "truncated: false"
        code, out, err = run(capsys, "decompose", "--topes", path, "--tope", "+++++")
        assert (code, err) == (0, "")
        assert out.splitlines()[1].split()[1:] == listed.split()[2:]
        assert listed.split()[2] == "----+"

    def test_default_root_without_any_cycle_exits_one(self, capsys, tmp_path):
        path = str(tmp_path / "acyclic-graph.topes")
        write_topes_file(path, build_tope_set(topes(*NO_CYCLE_STRINGS)))
        assert run(capsys, "cycles", "--topes", path)[1] == "truncated: false\n"
        code, out, err = run(capsys, "decompose", "--topes", path, "--tope", "++++++")
        assert (code, out) == (1, "")
        assert err == "error: the tope set has no symmetric cycle\n"

    def test_tope_is_required(self, capsys, hexagon_path):
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--topes", hexagon_path])
        assert exc.value.code == 2

    def test_bad_tope_string(self, capsys, hexagon_path):
        code, _, err = run(
            capsys, "decompose", "--topes", hexagon_path, "--tope", "+*+"
        )
        assert code == 1
        assert "error:" in err


class TestCommittee:
    def test_demo_default_root(self, capsys, demo_arr_path):
        code, out, _ = run(
            capsys, "committee", "--arr", demo_arr_path, "--format", "json"
        )
        data = json.loads(out)
        assert data["committees"] == [
            {
                "members": ["+++++"],
                "sum": [1, 1, 1, 1, 1],
                "critical": True,
                "minimal": True,
            }
        ]

    def test_all_bases_text(self, capsys, demo_arr_path):
        code, out, _ = run(capsys, "committee", "--arr", demo_arr_path, "--all-bases")
        lines = out.splitlines()
        assert lines[0].startswith("committee 1: ")
        assert lines[-1] == "truncated: false"


class TestPlumbing:
    def test_merge_tope_flags(self):
        assert _merge_tope_flags(["--tope", "-++"]) == ["--tope=-++"]
        assert _merge_tope_flags(["--base", "+--", "--budget", "3"]) == [
            "--base=+--",
            "--budget",
            "3",
        ]
        assert _merge_tope_flags(["--tope"]) == ["--tope"]
        assert _merge_tope_flags([]) == []

    def test_out_writes_file(self, capsys, hexagon_path, tmp_path):
        dest = tmp_path / "graph.dot"
        code, out, _ = run(
            capsys, "graph", "--topes", hexagon_path, "--out", str(dest)
        )
        assert code == 0
        assert out == ""
        assert dest.read_text().startswith("graph topes {")

    def test_out_to_directory_exits_one(self, capsys, demo_arr_path, tmp_path):
        code, out, err = run(
            capsys, "chambers", "--arr", demo_arr_path, "--out", str(tmp_path)
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "verb, flag",
        [("cycles", "--parallel"), ("committee", "--parallel"), ("committee", "--critical")],
    )
    def test_removed_flags_exit_two(self, demo_arr_path, verb, flag):
        with pytest.raises(SystemExit) as exc:
            main([verb, "--arr", demo_arr_path, flag])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate"],
            ["chambers"],
            ["graph"],
            ["poset"],
            ["cycles"],
            ["decompose", "--tope", "+++++"],
            ["committee"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_no_input_file_exits_one(self, python_env, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "topecom", *argv],
            capture_output=True,
            text=True,
            env=python_env,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: an input file is required")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "argv", [("decompose", "--tope", "+++++"), ("poset",)], ids=["decompose", "poset"]
    )
    def test_root_on_no_cycle_exits_one(self, capsys, tmp_path, argv):
        # the set validates, but no symmetric cycle passes through --+--
        path = str(tmp_path / "stranded.topes")
        write_topes_file(path, build_tope_set(topes(*STRANDED_STRINGS)))
        assert run(capsys, "validate", "--topes", path)[0] == 0
        code, out, err = run(capsys, *argv, "--topes", path, "--cycle-base", "--+--")
        assert (code, out) == (1, "")
        assert err == "error: no symmetric cycle passes through --+--\n"

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_determinism_across_runs(self, capsys, demo_arr_path):
        commands = [
            ("chambers", "--arr", demo_arr_path),
            ("cycles", "--arr", demo_arr_path, "--format", "json"),
            ("committee", "--arr", demo_arr_path, "--all-bases", "--format", "json"),
            ("decompose", "--arr", demo_arr_path, "--tope", "+-++-"),
        ]
        for argv in commands:
            _, first, _ = run(capsys, *argv)
            _, second, _ = run(capsys, *argv)
            assert first == second
