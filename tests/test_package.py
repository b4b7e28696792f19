"""The package surface: one public-name list, assembled from the submodules."""

import subprocess
import sys

import pytest

import topecom
from topecom import (
    committees,
    cycles,
    decomposition,
    errors,
    fixtures,
    posets,
    realization,
    signs,
    topesets,
)

SUBMODULES = (
    errors,
    signs,
    topesets,
    posets,
    cycles,
    decomposition,
    committees,
    realization,
    fixtures,
)


@pytest.mark.parametrize("module", SUBMODULES, ids=lambda m: m.__name__)
def test_submodule_names_are_exported(module):
    for name in module.__all__:
        assert name in topecom.__all__
        assert getattr(topecom, name) is getattr(module, name)


def test_errors_lists_every_error_class():
    classes = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, Exception)
    }
    assert set(errors.__all__) == classes


def test_no_duplicate_names():
    assert len(topecom.__all__) == len(set(topecom.__all__))
    assert "errors" in topecom.__all__


def test_import_does_not_load_cli(python_env):
    code = "import sys, topecom; print('topecom.cli' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=python_env,
        check=True,
    )
    assert proc.stdout == "False\n"
