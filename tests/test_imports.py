"""Module boundaries inside the package: no module imports another
module's private name, so each decision stays behind the module that owns
it (the family table behind ``distributions``, the kernels behind
``measures``); only ``Measure.of`` calls a registry kernel, and only
``runs`` calls ``Runs.dense``; no JSON is written with json's indent;
the CLI builds no parser at import and caches none across calls;
and no function, class or method of the
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


def _indented_dumps(path: pathlib.Path) -> list[str]:
    """``json.dumps`` or ``json.dump`` calls with an ``indent`` in one source
    file.  With an indent, json runs its pure-Python encoder, so the tables
    have one writer, ``cli._json_table``, with the same bytes."""
    calls = [node for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None))
             in ("dumps", "dump")
             and any(k.arg == "indent" for k in node.keywords)]
    return [f"{path.name}:{node.lineno}: {ast.unparse(node.func)}(...)"
            for node in sorted(calls, key=lambda node: node.lineno)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_json_dumps_takes_an_indent(path):
    assert _indented_dumps(path) == []


def test_the_check_sees_an_indented_dumps(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("import json\nfrom json import dump, dumps\n"
                    "a = json.dumps(rows, indent=2) + '\\n'\n"
                    "b = json.dumps(rows)\n"
                    "c = dumps(rows, sort_keys=True, indent=None)\n"
                    "dump(rows, fh, indent=4)\n"
                    "d = loads(text, indent=2)\n")
    assert _indented_dumps(path) == [
        "module.py:3: json.dumps(...)",
        "module.py:5: dumps(...)",
        "module.py:6: dump(...)",
    ]


def _run_at_import(node: ast.AST):
    """``node`` and the nodes under it that run when their module is
    imported: all but the bodies of functions and lambdas."""
    yield node
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        children = [*node.decorator_list, node.args]
    elif isinstance(node, ast.Lambda):
        children = [node.args]
    else:
        children = list(ast.iter_child_nodes(node))
    for child in children:
        yield from _run_at_import(child)


def _parser_built_at_import(path: pathlib.Path) -> list[str]:
    """Decorators of ``build_parser``, and calls of ``build_parser`` or
    ``ArgumentParser`` that run at import, in one source file.  A CLI
    process parses one command line, so a parser built at import or kept
    across ``main()`` calls is only start-up cost."""
    tree = ast.parse(path.read_text(), str(path))
    found = [f"{path.name}:{d.lineno}: @{ast.unparse(d)} on build_parser"
             for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name == "build_parser"
             for d in node.decorator_list]
    calls = [node for top in tree.body for node in _run_at_import(top)
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None))
             in ("build_parser", "ArgumentParser")]
    return found + [f"{path.name}:{node.lineno}: {ast.unparse(node.func)}(...)"
                    for node in sorted(calls, key=lambda node: node.lineno)]


def test_the_cli_builds_its_parser_per_call():
    assert _parser_built_at_import(SRC / "cli.py") == []


def test_the_check_sees_a_parser_built_at_import(tmp_path):
    path = tmp_path / "cli.py"
    path.write_text("import argparse, functools\n"
                    "@functools.lru_cache\n"
                    "def build_parser():\n"
                    "    return argparse.ArgumentParser()\n"
                    "PARSER = build_parser()\n"
                    "def main(argv=None, parser=argparse.ArgumentParser()):\n"
                    "    return build_parser().parse_args(argv)\n"
                    "class Cli:\n"
                    "    parser = build_parser()\n"
                    "    parse = lambda self: build_parser()\n")
    assert _parser_built_at_import(path) == [
        "cli.py:2: @functools.lru_cache on build_parser",
        "cli.py:5: build_parser(...)",
        "cli.py:6: argparse.ArgumentParser(...)",
        "cli.py:9: build_parser(...)",
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
