"""Checks on the package source itself."""

import ast
from pathlib import Path

import macc


def test_no_assert_in_the_package():
    # ``python -O`` strips every ``assert``, so a runtime check written as one would
    # vanish there; each check in ``macc`` must be an explicit test that can fail.
    paths = sorted(Path(macc.__file__).parent.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
