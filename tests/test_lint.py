"""Static checks on the package and test sources, with the standard library only."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "aoisched"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(TESTS.glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_checker_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from dataclasses import dataclass, field\n"
        "@dataclass\n"
        "class A:\n"
        "    x: np.ndarray\n"
    )
    assert _unused_imports(source) == ["line 2: os", "line 4: field"]


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(path.read_text()) == []


# The artifact formats are decided in one module: every CSV table and JSON
# document is written through model's writers.
WRITERS = {("csv", "writer"), ("json", "dump"), ("json", "dumps")}


def _writer_references(source: str) -> list[str]:
    """`csv.writer`, `json.dump` and `json.dumps`, by attribute or import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if (node.value.id, node.attr) in WRITERS:
                found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom):
            found += [
                f"line {node.lineno}: {node.module}.{alias.name}"
                for alias in node.names
                if (node.module, alias.name) in WRITERS
            ]
    return found


def test_writer_checker_finds_both_forms():
    source = "import csv, json\nfrom json import dumps\nw = csv.writer(f)\njson.loads(s)\n"
    assert _writer_references(source) == ["line 2: json.dumps", "line 3: csv.writer"]


@pytest.mark.parametrize(
    "path", sorted(set(SRC.glob("*.py")) - {SRC / "model.py"}), ids=lambda p: p.name
)
def test_artifact_writers_live_in_model(path):
    assert _writer_references(path.read_text()) == []


def _private_imports(source: str) -> list[str]:
    """Underscore-prefixed names imported from another module of the package.

    `from . import _kernels` binds a module, which stays allowed; a name such
    as `from .simulator import _Flow` reaches into another module's internals.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level > 0 and node.module:
            found += [
                f"line {node.lineno}: {node.module}.{alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    return found


def test_private_import_checker():
    source = (
        "from . import _kernels\n"
        "from ._kernels import fcfs_start\n"
        "from .simulator import Flow, _reduce\n"
        "def f():\n"
        "    from .model import _positive\n"
    )
    assert _private_imports(source) == [
        "line 3: simulator._reduce",
        "line 5: model._positive",
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_cross_modules(path):
    assert _private_imports(path.read_text()) == []
