"""Module boundaries inside the package: no module imports another
module's private name, so each decision stays behind the module that owns
it (the family table behind ``distributions``, the kernels behind
``measures``); only ``Measure.of`` calls a registry kernel, and only
``runs`` calls ``Runs.dense``; and no function, class or method of the
package goes unnamed by the code, tests, demos and benchmark around it."""

from __future__ import annotations

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hypentropy"


def _private_imports(path: pathlib.Path) -> list[str]:
    """``from .module import _name`` lines of one source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            found += [f"{path.name}:{node.lineno}: from "
                      f"{'.' * node.level}{node.module or ''} import {a.name}"
                      for a in node.names
                      if a.name.startswith("_")]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_private_name_crosses_a_module(path):
    assert _private_imports(path) == []


def test_the_check_sees_a_private_import(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("from .distributions import FAMILIES, _ANALYTIC\n"
                    "from . import _private\nfrom os import _exit\n")
    assert _private_imports(path) == [
        "module.py:1: from .distributions import _ANALYTIC",
        "module.py:2: from . import _private",
    ]


def _kernel_calls(path: pathlib.Path) -> list[str]:
    """Calls of a registry kernel (``x.kernel(...)``, or a callee named
    ``kernel``) in one source file, outside ``Measure.of``."""
    tree = ast.parse(path.read_text(), str(path))
    inside_of = {id(node)
                 for cls in tree.body
                 if isinstance(cls, ast.ClassDef) and cls.name == "Measure"
                 for fn in cls.body
                 if isinstance(fn, ast.FunctionDef) and fn.name == "of"
                 for node in ast.walk(fn)}
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and id(node) not in inside_of
             and (getattr(node.func, "attr", None) == "kernel"
                  or getattr(node.func, "id", None) == "kernel")]
    return [f"{path.name}:{node.lineno}: {ast.unparse(node.func)}(...)"
            for node in sorted(calls, key=lambda node: node.lineno)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_only_measure_of_calls_a_kernel(path):
    assert _kernel_calls(path) == []


def test_the_check_sees_a_kernel_call(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("class Measure:\n"
                    "    def of(self, p):\n"
                    "        return self.kernel(p)\n"
                    "    def twice(self, p):\n"
                    "        return self.kernel(p)\n"
                    "def evaluate(m, p):\n"
                    "    if m.kernel is None:\n"
                    "        return kernel(p)\n"
                    "    return MEASURES['shannon'].kernel(p)\n")
    assert _kernel_calls(path) == [
        "module.py:5: self.kernel(...)",
        "module.py:8: kernel(...)",
        "module.py:9: MEASURES['shannon'].kernel(...)",
    ]


def _dense_calls(path: pathlib.Path) -> list[str]:
    """``.dense()`` calls in one source file: outside ``runs``, an
    N-element array is read as ``np.asarray``, so a reader sees where one
    is built."""
    calls = [node for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", None) == "dense"]
    return [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
            for node in sorted(calls, key=lambda node: node.lineno)]


@pytest.mark.parametrize("path", sorted(set(SRC.glob("*.py"))
                                        - {SRC / "runs.py"}),
                         ids=lambda p: p.name)
def test_only_runs_calls_dense(path):
    assert _dense_calls(path) == []


def test_the_check_sees_a_dense_call(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("def f(P, dense):\n"
                    "    q = P.p.dense()\n"
                    "    return dense(q), P.p.dense\n"
                    "x = np.asarray(f(P).dense())\n")
    assert _dense_calls(path) == [
        "module.py:2: P.p.dense()",
        "module.py:4: f(P).dense()",
    ]


ROOT = SRC.parent.parent
SEARCHED = ("src", "tests", "demos", "perfbench")


def _unnamed_definitions(src: pathlib.Path, roots) -> list[str]:
    """Functions, classes and methods defined under ``src`` whose name, as a
    whole word, appears in no ``.py`` file under ``roots`` outside their own
    definition.  Dunders are exempt."""
    files = sorted({p for root in roots for p in pathlib.Path(root).rglob("*.py")})
    # name -> every (file, line) where the name occurs as a whole word
    seen: dict[str, list[tuple[pathlib.Path, int]]] = {}
    for path in files:
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for word in set(re.findall(r"\w+", line)):
                seen.setdefault(word, []).append((path, lineno))
    found = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if all(where == path and node.lineno <= line <= node.end_lineno
                   for where, line in seen.get(node.name, [])):
                found.append(f"{path.name}:{node.lineno}: {node.name}")
    return found


def test_every_definition_is_named_somewhere():
    assert _unnamed_definitions(SRC, [ROOT / d for d in SEARCHED]) == []


def test_the_check_sees_an_unnamed_definition(tmp_path):
    (tmp_path / "module.py").write_text(
        "class Used:\n"
        "    def __repr__(self):\n"
        "        return 'x'\n"
        "    def dead(self):\n"
        "        return self.dead()\n"
        "def deadline():\n"
        "    return Used()\n")
    (tmp_path / "user.py").write_text("deadline()\n")
    assert _unnamed_definitions(tmp_path, [tmp_path]) == ["module.py:4: dead"]


def test_the_cli_loads_verify_only_for_the_verify_command(tmp_path):
    # A fresh interpreter compiles every module it imports when no bytecode
    # is written, and only ``verify`` needs the invariant suite.
    code = ("import sys, types, hypentropy.cli as cli; "
            "module = sys.modules['hypentropy.verify']; "
            "assert type(module) is not types.ModuleType; "
            "cli.main(['verify', '--seed', '0', '--output', sys.argv[1]]); "
            "assert type(module) is types.ModuleType; "
            "assert module.run_invariants is cli.verify.run_invariants")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    subprocess.run([sys.executable, "-c", code, str(tmp_path / "out")],
                   env=env, check=True, timeout=120)
