"""Parser and CLI fuzzing: no input text may end in a traceback.

The parsers may only raise ValueError or a TopecomError; the CLI may only
return 0 or 1, or exit with status 2 on a usage error. Examples are kept
small and few so the module runs in seconds.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topecom import TopecomError, parse_arrangement_text, parse_topes_text
from topecom.cli import main

VERBS = ("validate", "chambers", "graph", "poset", "cycles", "decompose", "committee")

SIGNS = st.text(alphabet="+-0x ", max_size=7)
NUMBERS = st.sampled_from(["1", "-2", "0", "3/2", "-1/3", "0.5", ".5", "2.", "1/0", "1e3", "x", "--1"])


def _lines(header: str, rows: list[str]) -> str:
    return "\n".join([header, *rows]) + "\n"


# Headers with right or wrong counts, rows with right or wrong lengths and
# tokens: close enough to the formats to get past the first checks.
near_topes = st.builds(
    _lines,
    st.integers(-1, 6).map(lambda t: f"t {t}") | st.sampled_from(["t", "t x", "d 3 t 3", ""]),
    st.lists(SIGNS, max_size=14),
)
near_arr = st.builds(
    _lines,
    st.builds("d {} t {}".format, st.integers(-1, 4), st.integers(-1, 6))
    | st.sampled_from(["d 3", "d x t 2", "t 3", ""]),
    st.lists(st.lists(NUMBERS, max_size=5).map(" ".join), max_size=8),
)

# Well-formed files, which reach the enumeration code behind each verb.
NEGATE = str.maketrans("+-", "-+")
symmetric_topes = st.integers(2, 5).flatmap(
    lambda t: st.lists(st.text("+-", min_size=t, max_size=t), min_size=2, max_size=8).map(
        lambda rows: _lines(
            f"t {t}", list(dict.fromkeys(rows + [r.translate(NEGATE) for r in rows]))
        )
    )
)
small_arr = st.integers(2, 3).flatmap(
    lambda d: st.lists(
        st.lists(st.integers(-3, 3), min_size=d, max_size=d).map(
            lambda row: " ".join(map(str, row))
        ),
        min_size=2,
        max_size=6,
    ).map(lambda rows: _lines(f"d {d} t {len(rows)}", rows))
)
INPUTS = {
    "topes": st.text() | near_topes | symmetric_topes,
    "arr": st.text() | near_arr | small_arr,
}


@settings(max_examples=300, deadline=None)
@given(INPUTS["topes"])
def test_parse_topes_text_raises_only_domain_errors(text):
    try:
        parse_topes_text(text)
    except (ValueError, TopecomError):
        pass


@settings(max_examples=300, deadline=None)
@given(INPUTS["arr"])
def test_parse_arrangement_text_raises_only_domain_errors(text):
    try:
        parse_arrangement_text(text)
    except (ValueError, TopecomError):
        pass


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["topes", "arr"]),
    verb=st.sampled_from(VERBS),
    tope=st.text("+-", min_size=2, max_size=6) | SIGNS,
    data=st.data(),
)
def test_cli_exits_0_1_or_2(input_dir, kind, verb, tope, data):
    text = data.draw(INPUTS[kind])
    formats = ["text", "json", "dot"] if verb in ("graph", "poset") else ["text", "json"]
    path = input_dir / f"input.{kind}"
    # surrogates survive as invalid UTF-8, which the reader must reject cleanly
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    argv = [verb, f"--{kind}", str(path), "--format", data.draw(st.sampled_from(formats))]
    if verb == "decompose":
        argv += ["--tope", tope]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            assert main(argv) in (0, 1)
        except SystemExit as exc:
            assert exc.code == 2
