"""Import footprint of the command line, and the lazily resolved package API.

Each footprint check runs in a fresh interpreter, because this test session
has long since imported every layer.
"""

import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qsa

SRC = str(Path(qsa.__file__).resolve().parents[1])
HEAVY = ("mpmath", "numpy")
LAYERS = (
    "fitting", "moments", "numeric", "distribution", "asymptotics", "simulate", "derive",
)


def loaded_after(code: str) -> set[str]:
    """Top-level and qsa module names loaded by ``code`` in a fresh interpreter."""
    probe = (
        f"{code}\n"
        "import json, sys\n"
        "print(json.dumps(sorted({m if m.startswith('qsa') else m.split('.')[0]"
        " for m in sys.modules})))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    return set(json.loads(done.stdout.splitlines()[-1]))


def loaded_by_command(args: list[str]) -> set[str]:
    code = (
        "from qsa.cli import cli\n"
        f"try:\n    cli.main({args!r}, prog_name='qsa')\n"
        "except SystemExit as exc:\n    assert not exc.code, exc.code"
    )
    return loaded_after(code)


def test_cli_import_loads_no_layer_and_no_heavy_dependency():
    loaded = loaded_after("import qsa.cli")
    assert not loaded & {*HEAVY, *(f"qsa.{m}" for m in LAYERS)}


@pytest.mark.parametrize(
    "args",
    [
        ["--help"],
        ["pgf", "--n", "10"],
        ["moment", "--n", "10", "--r", "2"],
        ["moments-table", "--nmax", "10", "--rmax", "3"],
        # mpmath serves only real-valued evaluation, never the exact fit
        ["guess", "--r", "1", "--train", "1..9", "--test", "10..40"],
        ["simulate", "--n", "10", "--trials", "5"],
        ["oracle", "--n", "5"],
    ],
    ids=lambda args: args[0],
)
def test_commands_that_need_neither_mpmath_nor_numpy(args):
    assert not loaded_by_command(args) & set(HEAVY)


@pytest.mark.parametrize(
    "args",
    [
        ["tail", "--n", "50", "--x", "300", "--surrogate", "20"],
        ["density", "--n", "10", "--bin", "0.5"],
    ],
    ids=lambda args: args[0],
)
def test_distribution_commands_load_no_numpy(args):
    loaded = loaded_by_command(args)
    assert "numpy" not in loaded
    assert "qsa.asymptotics" not in loaded


def test_fitting_import_loads_no_numpy():
    assert "numpy" not in loaded_after("import qsa.fitting")


@pytest.mark.parametrize(
    "args",
    [
        ["guess", "--r", "1", "--train", "1..9", "--test", "10..40"],
        ["limits", "--r", "3"],
    ],
    ids=lambda args: args[0],
)
def test_fitting_commands_load_no_numpy(args):
    loaded = loaded_by_command(args)
    assert "qsa.fitting" in loaded
    assert "numpy" not in loaded


@pytest.mark.parametrize("name", qsa.__all__)
def test_public_name_is_its_submodule_attribute(name):
    # __module__ is not enough: the constants are plain strings
    homes = [
        m for m in ("errors", "pgf", *LAYERS)
        if hasattr(importlib.import_module(f"qsa.{m}"), name)
    ]
    assert homes
    assert all(
        getattr(qsa, name) is getattr(importlib.import_module(f"qsa.{m}"), name)
        for m in homes
    )


def test_pgf_stays_the_function_after_submodule_imports():
    code = (
        "import qsa.moments, qsa.distribution\n"
        "import qsa\n"
        "from fractions import Fraction\n"
        "assert callable(qsa.pgf) and qsa.pgf(4).prob(5) == Fraction(1, 6)"
    )
    loaded_after(code)
    assert qsa.pgf(4).prob(5) == Fraction(1, 6)


def test_dir_lists_every_public_name():
    assert set(qsa.__all__) <= set(dir(qsa))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qsa.no_such_name  # noqa: B018


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from qsa import *", namespace)
    assert all(namespace[name] is getattr(qsa, name) for name in qsa.__all__)
