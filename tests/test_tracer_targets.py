"""The benchmark's tracer wraps package names from outside; each of its span
labels must still find a name to wrap, or its per-layer metrics drop out.

TARGETS is read from perfbench/tracer.py with ast: building a Tracer would
patch the package's modules for the rest of the test session.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets() -> list[tuple[str, str, str]]:
    """(module, name, span label) of each TARGETS entry."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [tuple(e.value for e in entry.elts[:3]) for entry in node.value.elts]
    raise AssertionError("perfbench/tracer.py defines no TARGETS list")


def test_every_span_label_resolves_to_a_package_name():
    targets = _targets()
    assert targets
    resolved = {
        label
        for module_name, name, label in targets
        if callable(getattr(importlib.import_module(module_name), name, None))
    }
    assert sorted({label for _, _, label in targets} - resolved) == []
