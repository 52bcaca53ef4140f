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


def test_no_engine_calls_the_joint_table_mi():
    # Both privacy engines score a leaking cell by the entropy of its coset classes.
    # ``mutual_information_exact`` stays the public reference on a joint table, defined
    # in ``verify.py`` and exported, but nothing in the package calls it.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                f = node.func
                if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "mutual_information_exact":
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_module_imports_a_name_it_never_uses():
    # An import that outlives the code that read it misstates what a module depends
    # on. ``__init__.py`` imports to re-export, so it is left out, and so is
    # ``from __future__ import annotations``, which binds no name the code reads.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_no_decoder_is_given_the_library_or_the_keys():
    # A decoder reads only its user's window and the broadcast. Neither the library
    # nor the key material may reach one, least of all a decoder built once and
    # reused: no parameter of it is named for them or annotated with their types.
    decoders = {
        ("lifting.py", "lift_decoder"), ("lifting.py", "lift_decode"),
        ("schemes.py", "NonPrivateScheme.decode"), ("baseline.py", "baseline_decode"),
    }
    found, seen = [], set()
    for name in sorted({name for name, _ in decoders}):
        tree = ast.parse((PACKAGE / name).read_text(), name)
        scopes = [("", node) for node in tree.body]
        scopes += [(f"{c.name}.", node) for c in tree.body if isinstance(c, ast.ClassDef) for node in c.body]
        for prefix, node in scopes:
            if not isinstance(node, ast.FunctionDef) or (name, prefix + node.name) not in decoders:
                continue
            seen.add((name, prefix + node.name))
            a = node.args
            for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]:
                note = ast.unparse(arg.annotation) if arg.annotation else ""
                if arg.arg in ("library", "keys") or "SubfileLibrary" in note or "KeyMaterial" in note:
                    found.append(f"{name}:{arg.lineno} {prefix}{node.name}({arg.arg}: {note})")
    assert seen == decoders
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
