"""Module boundaries inside the package: no module imports another
module's private name, so each decision stays behind the module that owns
it (the family table behind ``distributions``, the kernels behind
``measures``)."""

from __future__ import annotations

import ast
import pathlib

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
