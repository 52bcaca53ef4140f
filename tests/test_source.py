"""Checks on the package source itself, and on the suite's own configuration."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import macc

PACKAGE = Path(macc.__file__).parent


def test_no_assert_in_the_package():
    # ``python -O`` strips every ``assert``, so a runtime check written as one would
    # vanish there; each check in ``macc`` must be an explicit test that can fail.
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_scheme_code_names_no_bits():
    # ``Bits`` is the boundary type: a library or file enters the program as one and
    # is compared as one. The schemes and the GF(2) kernels compute on ints alone, so
    # none of them imports, calls or annotates with ``Bits``.
    found = []
    for name in ("baseline.py", "gf2.py", "schemes.py", "lifting.py"):
        path = PACKAGE / name
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            named = (
                (isinstance(node, ast.Name) and node.id == "Bits")
                or (isinstance(node, ast.Attribute) and node.attr == "Bits")
                or (isinstance(node, ast.alias) and "Bits" in (node.name, node.asname))
            )
            if named:
                found.append(f"{name}:{node.lineno}")
    assert found == []


def test_a_failing_property_test_cannot_abort_the_session(request):
    # A failing ``@given`` test makes hypothesis's pytest plugin import
    # ``hypothesis.extra._patching``. Under ``filterwarnings = ["error"]`` a
    # deprecation warning raised by that import is an INTERNALERROR that ends the
    # session and silently skips every later test. A fresh interpreter with the
    # suite's filters, in order, must import it cleanly.
    filters = request.config.getini("filterwarnings")
    proc = subprocess.run(
        [sys.executable, *(f"-W{f}" for f in filters), "-c", "import hypothesis.extra._patching"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    assert proc.returncode == 0, proc.stderr
